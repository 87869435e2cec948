//! `ringlint` — static hazard verification for Systolic Ring object
//! programs.
//!
//! The simulator can tell you a program is broken by hitting a
//! [`SimError`] a few thousand cycles in; this crate tells you in
//! microseconds, without instantiating a machine. [`lint_object`] runs
//! four pass families over an [`Object`]:
//!
//! 1. **Structural** (`RL-Sxxx`) — malformed or out-of-range preload
//!    records: bad contexts, Dnodes, switches, lanes and ports versus the
//!    declared [`RingGeometry`]; undecodable configuration words;
//!    conflicting crossbar writes; oversized code and data sections.
//! 2. **Dataflow** (`RL-Dxxx`) — feedback-pipeline taps deeper than the
//!    machine's pipeline, reads of registers and ports nothing ever
//!    writes, and multiple same-cycle bus drivers.
//! 3. **Sequencer** (`RL-Qxxx`, `RL-F002`) — local-mode slot/LIMIT
//!    bounds (at most 8 microinstructions per the paper), unreachable
//!    configuration contexts, dead controller code, reachable controller
//!    instructions that are statically certain to fault, and host pops
//!    from ports nothing feeds.
//! 4. **Verify** (`RL-Vxxx`/`RL-Hxxx`/`RL-Txxx`) — abstract
//!    interpretation over the object: interval value-range analysis of
//!    the Q-format datapath, reconfiguration-hazard detection across
//!    context switches, and a forking symbolic walk of the controller
//!    program proving termination, a static cycle bound and the cycle
//!    from which the configuration never changes. Proven facts land in a
//!    [`ProofManifest`](systolic_ring_isa::proof::ProofManifest) (see
//!    [`LintReport::proof`]) bound to the object's bytes.
//!
//! The severity contract is the point of the tool: an object whose report
//! [`is_clean`](LintReport::is_clean) is *guaranteed* to load and to never
//! raise the statically-preventable `SimError` classes (`PcOutOfRange`,
//! `BadInstruction`, `BadConfigWrite`), and a manifest that `halts`
//! *guarantees* the controller halts by `cycle_bound` and the
//! configuration never changes from `config_stable_from` on. Neither
//! claim holds in reverse — the linter stays silent rather than guessing.
//!
//! ```
//! use systolic_ring_isa::object::Object;
//! use systolic_ring_lint::lint_object;
//!
//! let report = lint_object(&Object::new());
//! assert!(report.is_clean());
//! ```
//!
//! [`SimError`]: https://docs.rs/systolic-ring-core
//! [`Object`]: systolic_ring_isa::object::Object
//! [`RingGeometry`]: systolic_ring_isa::RingGeometry

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
mod diag;
mod json;
mod model;
mod sequencer;
mod verify;

pub use diag::{Diagnostic, LintError, LintReport, Severity, Site};

use systolic_ring_isa::expect::Expectations;
use systolic_ring_isa::object::Object;
use systolic_ring_isa::RingGeometry;

/// Machine envelope the linter checks an object against.
///
/// Mirrors the capacity fields of the core's `MachineParams` without
/// depending on the core crate; [`LintLimits::default`] matches the
/// paper-faithful configuration (`MachineParams::PAPER`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LintLimits {
    /// Configuration contexts the target machine provides.
    pub contexts: usize,
    /// Feedback-pipeline depth per switch.
    pub pipe_depth: usize,
    /// Controller program-memory capacity in words.
    pub prog_capacity: usize,
    /// Controller data-memory capacity in words.
    pub dmem_capacity: usize,
    /// Fallback geometry for objects that do not declare one.
    pub geometry: Option<RingGeometry>,
}

impl Default for LintLimits {
    fn default() -> Self {
        LintLimits {
            contexts: 8,
            pipe_depth: 8,
            prog_capacity: 65_536,
            dmem_capacity: 65_536,
            geometry: None,
        }
    }
}

/// Lints `object` against the default (paper-faithful) machine envelope.
pub fn lint_object(object: &Object) -> LintReport {
    lint_object_with(object, &LintLimits::default())
}

/// Lints `object` against an explicit machine envelope.
pub fn lint_object_with(object: &Object, limits: &LintLimits) -> LintReport {
    lint_object_expecting(object, limits, None)
}

/// Lints `object` with optional embedded expectations (`;!` directives).
///
/// Expectations sharpen the verify passes: declared input vectors bound
/// the host-input intervals of the value-range analysis. They are never
/// required — without them host inputs are assumed to span the full
/// 16-bit range.
pub fn lint_object_expecting(
    object: &Object,
    limits: &LintLimits,
    expectations: Option<&Expectations>,
) -> LintReport {
    let mut diagnostics = Vec::new();
    let model = model::ConfigModel::build(object, limits, &mut diagnostics);
    dataflow::check(&model, limits, &mut diagnostics);
    let facts = sequencer::check(object, &model, limits, &mut diagnostics);
    let proof = verify::check(
        object,
        limits,
        &facts,
        &model,
        expectations,
        &mut diagnostics,
    );
    LintReport { diagnostics, proof }
}
