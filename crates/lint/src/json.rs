//! Stable machine-readable rendering of a [`LintReport`].
//!
//! [`LintReport::to_json`] is the contract behind `ringlint --json`: a
//! single compact JSON object with a fixed key order, so CI pipelines can
//! parse findings without scraping the human output. Stability is pinned
//! by tests — byte-identical output for identical reports — and the
//! `object_hash` is rendered as a hex *string* because a 64-bit integer
//! does not survive JSON's double-precision number space.

use std::fmt::Write as _;

use crate::diag::{LintReport, Site};

/// Escapes `s` for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `Option<u64>` as a JSON number or `null`.
fn opt(n: Option<u64>) -> String {
    n.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// The diagnostic site as a compact locator object.
fn site_json(site: Site) -> String {
    match site {
        Site::Object => r#"{"kind":"object"}"#.to_owned(),
        Site::Preload { index } => {
            format!(r#"{{"kind":"preload","index":{index}}}"#)
        }
        Site::Dnode { ctx, dnode } => format!(
            r#"{{"kind":"dnode","ctx":{},"dnode":{dnode}}}"#,
            ctx.map_or_else(|| "null".to_owned(), |c| c.to_string())
        ),
        Site::Switch { ctx, switch } => format!(
            r#"{{"kind":"switch","ctx":{},"switch":{switch}}}"#,
            ctx.map_or_else(|| "null".to_owned(), |c| c.to_string())
        ),
        Site::Ctx { ctx } => format!(r#"{{"kind":"ctx","ctx":{ctx}}}"#),
        Site::Code { addr } => format!(r#"{{"kind":"code","addr":{addr}}}"#),
    }
}

impl LintReport {
    /// Renders the report as one compact JSON object with a stable key
    /// order (`clean`, `proof`, `diagnostics`). Identical reports render
    /// byte-identically.
    pub fn to_json(&self) -> String {
        let out_ranges: Vec<String> = self
            .proof
            .out_ranges
            .iter()
            .map(|r| format!(r#"{{"dnode":{},"lo":{},"hi":{}}}"#, r.dnode, r.lo, r.hi))
            .collect();
        let proof = format!(
            r#"{{"object_hash":"{:016x}","halts":{},"cycle_bound":{},"config_stable_from":{},"hazard_free":{},"out_ranges":[{}]}}"#,
            self.proof.object_hash,
            self.proof.halts,
            opt(self.proof.cycle_bound),
            opt(self.proof.config_stable_from),
            self.proof.hazard_free,
            out_ranges.join(",")
        );
        let diagnostics: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    r#"{{"code":"{}","severity":"{}","site":{},"message":"{}","help":"{}"}}"#,
                    d.code,
                    d.severity,
                    site_json(d.site),
                    escape(&d.message),
                    escape(d.help)
                )
            })
            .collect();
        format!(
            r#"{{"clean":{},"proof":{proof},"diagnostics":[{}]}}"#,
            self.is_clean(),
            diagnostics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_object;
    use systolic_ring_isa::object::Object;

    #[test]
    fn escape_covers_the_control_plane() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
    }

    #[test]
    fn empty_object_renders_stably() {
        let report = lint_object(&Object::new());
        let json = report.to_json();
        assert_eq!(json, lint_object(&Object::new()).to_json());
        assert!(json.starts_with(r#"{"clean":true,"#), "{json}");
        assert!(json.contains(r#""halts":true"#), "{json}");
        // The hash is a 16-digit hex string, not a JSON number.
        assert!(json.contains(r#""object_hash":""#), "{json}");
    }

    #[test]
    fn diagnostics_carry_code_severity_and_site() {
        let mut object = Object::new();
        object.contexts = 99;
        let json = lint_object(&object).to_json();
        assert!(json.contains(r#""clean":false"#), "{json}");
        assert!(
            json.contains(r#""code":"RL-S001","severity":"error","site":{"kind":"object"}"#),
            "{json}"
        );
    }
}
