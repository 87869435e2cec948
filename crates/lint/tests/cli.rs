//! End-to-end tests of the `ringlint` binary: the deny-by-default
//! warning gate shared with `srasm --lint`, the `--allow-warnings`
//! escape hatch, and the stable `--json` machine-readable mode.
//!
//! Exit-code contract (identical to `srasm`): `0` pass, `1` findings at
//! or above the gate floor (or unreadable input), `2` usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use systolic_ring_isa::ctrl::CtrlInstr;
use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand};
use systolic_ring_isa::object::{Object, Preload};
use systolic_ring_isa::{RingGeometry, Word16};

fn ringlint(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ringlint"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("ringlint runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ringlint-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn base() -> Object {
    Object {
        geometry: Some(RingGeometry::RING_8),
        contexts: 1,
        code: vec![
            CtrlInstr::Wait { cycles: 16 }.encode(),
            CtrlInstr::Halt.encode(),
        ],
        data: Vec::new(),
        preload: Vec::new(),
    }
}

/// A clean object: advisory findings only (`RL-T001`, `RL-H003`, ...).
fn write_clean(dir: &Path) -> PathBuf {
    let path = dir.join("clean.obj");
    std::fs::write(&path, base().to_bytes()).expect("write");
    path
}

/// An object with exactly one `warning`-severity finding (`RL-V003`:
/// `20000 + 20000` certainly wraps the 16-bit datapath).
fn write_warning(dir: &Path) -> PathBuf {
    let mut object = base();
    object.preload.push(Preload::DnodeInstr {
        ctx: 0,
        dnode: 0,
        word: MicroInstr::op(AluOp::Add, Operand::Imm, Operand::Imm)
            .with_imm(Word16::from_i16(20000))
            .write_out()
            .encode(),
    });
    let path = dir.join("wrapping.obj");
    std::fs::write(&path, object.to_bytes()).expect("write");
    path
}

#[test]
fn warnings_fail_by_default() {
    let dir = scratch("deny");
    write_warning(&dir);
    let out = ringlint(&["wrapping.obj"], &dir);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RL-V003"), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
}

#[test]
fn allow_warnings_is_the_escape_hatch() {
    let dir = scratch("allow");
    write_warning(&dir);
    let out = ringlint(&["--allow-warnings", "wrapping.obj"], &dir);
    assert_eq!(out.status.code(), Some(0), "warnings allowed through");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The finding still prints; only the gate is demoted.
    assert!(stdout.contains("RL-V003"), "{stdout}");
    assert!(stdout.contains("ok"), "{stdout}");
}

#[test]
fn deny_warnings_is_accepted_as_a_no_op() {
    let dir = scratch("noop");
    write_warning(&dir);
    write_clean(&dir);
    // `--deny-warnings` spells out what is now the default: same exits.
    assert_eq!(
        ringlint(&["--deny-warnings", "wrapping.obj"], &dir)
            .status
            .code(),
        Some(1)
    );
    assert_eq!(
        ringlint(&["--deny-warnings", "clean.obj"], &dir)
            .status
            .code(),
        Some(0)
    );
}

#[test]
fn clean_objects_pass_and_advisories_never_gate() {
    let dir = scratch("clean");
    write_clean(&dir);
    let out = ringlint(&["clean.obj"], &dir);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The verify pass's positive proofs surface as info findings without
    // tripping the deny-by-default gate.
    assert!(stdout.contains("RL-T001"), "{stdout}");
    assert!(stdout.contains("RL-H003"), "{stdout}");
    // The summary line carries the proven halt bound (`wait 16; halt`).
    assert!(stdout.contains("halts by cycle 17)"), "{stdout}");
}

#[test]
fn usage_errors_exit_2() {
    let dir = scratch("usage");
    assert_eq!(ringlint(&[], &dir).status.code(), Some(2));
    assert_eq!(
        ringlint(&["--frobnicate", "x.obj"], &dir).status.code(),
        Some(2)
    );
}

#[test]
fn unreadable_input_fails() {
    let dir = scratch("garbage");
    std::fs::write(dir.join("junk.obj"), b"not an object").expect("write");
    assert_eq!(ringlint(&["junk.obj"], &dir).status.code(), Some(1));
    assert_eq!(ringlint(&["missing.obj"], &dir).status.code(), Some(1));
}

#[test]
fn json_mode_is_machine_readable_and_stable() {
    let dir = scratch("json");
    write_clean(&dir);
    write_warning(&dir);
    let out = ringlint(&["--json", "clean.obj", "wrapping.obj"], &dir);
    assert_eq!(out.status.code(), Some(1), "the gate still applies");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.starts_with(r#"{"version":3,"objects":["#),
        "{stdout}"
    );
    assert!(
        stdout.contains(r#""path":"clean.obj","verdict":"ok""#),
        "{stdout}"
    );
    assert!(
        stdout.contains(r#""path":"wrapping.obj","verdict":"fail""#),
        "{stdout}"
    );
    assert!(stdout.contains(r#""code":"RL-V003""#), "{stdout}");
    assert!(stdout.contains(r#""halts":true"#), "{stdout}");
    // No human-format lines leak into the document.
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    // Stability: a second run renders byte-identically.
    let again = ringlint(&["--json", "clean.obj", "wrapping.obj"], &dir);
    assert_eq!(stdout, String::from_utf8_lossy(&again.stdout));
}

#[test]
fn json_mode_reports_unreadable_files_in_band() {
    let dir = scratch("jsonerr");
    std::fs::write(dir.join("junk.obj"), b"garbage").expect("write");
    let out = ringlint(&["--json", "junk.obj"], &dir);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(r#""path":"junk.obj","verdict":"fail","error":""#),
        "{stdout}"
    );
    assert!(out.stderr.is_empty(), "errors stay in the JSON document");
}

#[test]
fn json_respects_allow_warnings() {
    let dir = scratch("jsonallow");
    write_warning(&dir);
    let out = ringlint(&["--json", "--allow-warnings", "wrapping.obj"], &dir);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(r#""path":"wrapping.obj","verdict":"ok""#),
        "{stdout}"
    );
}
