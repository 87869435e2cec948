//! `ringlint` — lint Systolic Ring object files from the command line.
//!
//! ```sh
//! ringlint [--allow-warnings] [--json] <program.obj>...
//! ```
//!
//! Prints every diagnostic (with its stable `RL-xxxx` code) and the
//! proven halt bound for each object. Warnings are **denied by
//! default** — the exit code is nonzero if any object fails to parse or
//! carries findings at `warning` severity or above — matching `srasm
//! --lint`, so the two tools agree on what "passes". `--allow-warnings`
//! is the single escape hatch, demoting the gate to errors only.
//! (`--deny-warnings` is accepted as a no-op for older scripts.)
//!
//! With `--json`, human output is replaced by one machine-readable JSON
//! document on stdout: `{"version":3,"objects":[{"path":...,
//! "verdict":"ok"|"fail","report":{...}}]}` with the per-object report
//! shape pinned by `LintReport::to_json`. Unreadable files appear as
//! `{"path":...,"verdict":"fail","error":...}` entries.

use std::process::ExitCode;

use systolic_ring_isa::object::Object;
use systolic_ring_lint::{lint_object, Severity};

fn usage() -> ExitCode {
    eprintln!("usage: ringlint [--allow-warnings] [--json] <program.obj>...");
    ExitCode::from(2)
}

/// Escapes a path for embedding in the JSON envelope.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    let mut allow_warnings = false;
    let mut json = false;
    let mut paths = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--allow-warnings" => allow_warnings = true,
            // Historical spelling of what is now the default.
            "--deny-warnings" => {}
            "--json" => json = true,
            "-h" | "--help" => return usage(),
            _ if arg.starts_with('-') => return usage(),
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        return usage();
    }

    let floor = if allow_warnings {
        Severity::Error
    } else {
        Severity::Warning
    };
    let mut failed = false;
    let mut entries: Vec<String> = Vec::new();
    for path in &paths {
        let object = match std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|b| Object::from_bytes(&b).map_err(|e| e.to_string()))
        {
            Ok(object) => object,
            Err(e) => {
                failed = true;
                if json {
                    entries.push(format!(
                        r#"{{"path":"{}","verdict":"fail","error":"{}"}}"#,
                        escape(path),
                        escape(&e)
                    ));
                } else {
                    eprintln!("ringlint: {path}: {e}");
                }
                continue;
            }
        };
        let report = lint_object(&object);
        let fail = report.diagnostics.iter().any(|d| d.severity >= floor);
        failed |= fail;
        if json {
            entries.push(format!(
                r#"{{"path":"{}","verdict":"{}","report":{}}}"#,
                escape(path),
                if fail { "fail" } else { "ok" },
                report.to_json()
            ));
            continue;
        }
        for diag in &report.diagnostics {
            println!("{path}: {diag}");
            println!("{path}:   help: {}", diag.help);
        }
        let bound = match report.proof.cycle_bound {
            Some(cycle) => format!("halts by cycle {cycle}"),
            None => "no halt bound".to_owned(),
        };
        println!(
            "ringlint: {path}: {} ({} finding(s); {bound})",
            if fail { "FAIL" } else { "ok" },
            report.diagnostics.len(),
        );
    }
    if json {
        println!(r#"{{"version":3,"objects":[{}]}}"#, entries.join(","));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
