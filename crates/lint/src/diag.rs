//! Diagnostic types: what the linter reports and how it renders.
//!
//! Every finding is a [`Diagnostic`] with a stable grep-able code
//! (`RL-Sxxx` structural, `RL-Dxxx` dataflow, `RL-Qxxx`/`RL-F002`
//! sequencer, `RL-Txxx`/`RL-Hxxx`/`RL-Vxxx` verify), a [`Severity`], a
//! [`Site`] locating the fault in the object, a human message and a fixed
//! help string. A lint run returns a [`LintReport`] bundling the
//! diagnostics with the proof manifest.

use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; never fails a lint gate.
    Info,
    /// Suspicious but loadable; fails a `--deny-warnings` gate.
    Warning,
    /// Statically certain to be rejected at load time or to raise a
    /// preventable `SimError` at run time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in the object a diagnostic points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// The object as a whole.
    Object,
    /// A preload record, by index into `Object::preload`.
    Preload {
        /// Index into the preload stream.
        index: usize,
    },
    /// A Dnode, optionally within one configuration context.
    Dnode {
        /// Configuration context, if the fault is context-specific.
        ctx: Option<usize>,
        /// Flat Dnode index.
        dnode: usize,
    },
    /// A switch, optionally within one configuration context.
    Switch {
        /// Configuration context, if the fault is context-specific.
        ctx: Option<usize>,
        /// Switch index.
        switch: usize,
    },
    /// A configuration context.
    Ctx {
        /// Context index.
        ctx: usize,
    },
    /// A controller-program address.
    Code {
        /// Word address into `Object::code`.
        addr: usize,
    },
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Site::Object => f.write_str("object"),
            Site::Preload { index } => write!(f, "preload #{index}"),
            Site::Dnode { ctx: None, dnode } => write!(f, "dnode {dnode}"),
            Site::Dnode {
                ctx: Some(ctx),
                dnode,
            } => write!(f, "ctx {ctx} dnode {dnode}"),
            Site::Switch { ctx: None, switch } => write!(f, "switch {switch}"),
            Site::Switch {
                ctx: Some(ctx),
                switch,
            } => write!(f, "ctx {ctx} switch {switch}"),
            Site::Ctx { ctx } => write!(f, "ctx {ctx}"),
            Site::Code { addr } => write!(f, "code+{addr}"),
        }
    }
}

/// One linter finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable grep-able code, e.g. `RL-S002`.
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Location in the object.
    pub site: Site,
    /// Human-readable description of this specific instance.
    pub message: String,
    /// Fixed hint on how to resolve findings of this code.
    pub help: &'static str,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.site, self.message
        )
    }
}

/// The result of linting one [`Object`](systolic_ring_isa::object::Object).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, in pass order (structural, dataflow, sequencer,
    /// verify).
    pub diagnostics: Vec<Diagnostic>,
    /// Proof manifest from the verify passes (`RL-Vxxx`/`RL-Hxxx`/
    /// `RL-Txxx`), bound to the object's byte hash. `srconform` checks
    /// its cycle bound against real halts; `RingMachine::attach_proof`
    /// validates that it is bound to the loaded object.
    pub proof: systolic_ring_isa::proof::ProofManifest,
}

impl LintReport {
    /// `true` when no [`Severity::Error`] diagnostics were found.
    ///
    /// A clean object is guaranteed to load and to never raise the
    /// statically-preventable `SimError` classes (`PcOutOfRange`,
    /// `BadInstruction`, `BadConfigWrite`).
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// `true` when any diagnostic is a warning or worse.
    pub fn has_warnings(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity >= Severity::Warning)
    }

    /// All error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Converts the report into a `Result`, failing on errors — or on
    /// warnings too when `deny_warnings` is set.
    ///
    /// # Errors
    ///
    /// Returns a [`LintError`] carrying the offending diagnostics.
    pub fn into_result(self, deny_warnings: bool) -> Result<LintReport, LintError> {
        let floor = if deny_warnings {
            Severity::Warning
        } else {
            Severity::Error
        };
        if self.diagnostics.iter().any(|d| d.severity >= floor) {
            let diagnostics = self
                .diagnostics
                .into_iter()
                .filter(|d| d.severity >= floor)
                .collect();
            Err(LintError { diagnostics })
        } else {
            Ok(self)
        }
    }
}

/// A lint gate failure: the object carried deny-level diagnostics.
///
/// Grep-able code: `SR-L001`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintError {
    /// The diagnostics at or above the configured deny level.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintError {
    /// Stable grep-able code for this error class.
    pub const fn code(&self) -> &'static str {
        "SR-L001"
    }
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SR-L001: object failed lint with {} finding(s)",
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            write!(f, "; {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LintError {}
