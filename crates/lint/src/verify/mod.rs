//! `ringverify` — abstract interpretation over ring objects.
//!
//! Three cooperating passes built on one forking symbolic walk of the
//! controller program ([`schedule`]):
//!
//! * **`RL-Txxx` static schedule bounds** — if every path halts, the
//!   maximum path cycle count is a sound upper bound on the halt cycle
//!   of any real execution (`RL-T001`), the literate `;!` cycle budgets
//!   can be discharged without simulating, and the last configuration
//!   event bounds the cycle from which the fabric never changes again.
//!   An abandoned walk claims nothing (`RL-T002`); a fully concrete path
//!   that provably loops or stalls forever is called out (`RL-T003`).
//! * **`RL-Hxxx` reconfiguration hazards** ([`hazard`]) — replays the
//!   walk's configuration events against an evolving fabric view and
//!   flags writes that race in-flight pipeline data in the active
//!   context (`RL-H001` compute plane, `RL-H002` routing/capture plane);
//!   a complete, silent replay proves hazard freedom (`RL-H003`).
//! * **`RL-Vxxx` value ranges** ([`range`]) — a widening interval
//!   analysis over every configured microinstruction, proving
//!   wrap-capable Q-format arithmetic overflow-free (`RL-V001`) or
//!   flagging the exact site that may (`RL-V002`) or must (`RL-V003`)
//!   wrap.
//!
//! What survives all three passes is bound into a
//! [`ProofManifest`](systolic_ring_isa::proof::ProofManifest) keyed to
//! the exact object bytes. It is consumed statically — `srconform`
//! checks its cycle bound against real halts — and no execution tier
//! reads it at run time.

mod hazard;
mod range;
mod schedule;

use systolic_ring_isa::ctrl::CtrlInstr;
use systolic_ring_isa::expect::Expectations;
use systolic_ring_isa::object::Object;
use systolic_ring_isa::proof::ProofManifest;

use crate::diag::{Diagnostic, Severity, Site};
use crate::model::{emit, ConfigModel};
use crate::sequencer::CodeFacts;
use crate::LintLimits;

/// Runs the verify passes and returns the proof manifest (always bound
/// to the object's hash; unproven fields stay empty).
pub(crate) fn check(
    object: &Object,
    limits: &LintLimits,
    facts: &CodeFacts,
    model: &ConfigModel,
    expectations: Option<&Expectations>,
    diags: &mut Vec<Diagnostic>,
) -> ProofManifest {
    // `unproven` already binds the manifest to the object's byte hash.
    let mut manifest = ProofManifest::unproven(object);

    let outcome = schedule::walk(object, limits, model);
    let (paths, complete) = match &outcome {
        schedule::WalkOutcome::Complete {
            paths,
            max_cycles,
            stable_from,
        } => {
            manifest.halts = true;
            manifest.cycle_bound = Some(*max_cycles);
            manifest.config_stable_from = Some(*stable_from);
            emit(
                diags,
                "RL-T001",
                Severity::Info,
                Site::Object,
                format!(
                    "controller provably halts by cycle {max_cycles} on every path \
                     ({} path(s)); configuration stable from cycle {stable_from}",
                    paths.len()
                ),
                "the bound and stability cycle are recorded in the proof manifest",
            );
            (paths.as_slice(), true)
        }
        schedule::WalkOutcome::Abandoned { reason, paths } => {
            emit(
                diags,
                "RL-T002",
                Severity::Info,
                Site::Object,
                format!("no static schedule bound: {reason}"),
                "the program may still halt; the verifier just cannot bound it",
            );
            (paths.as_slice(), false)
        }
        schedule::WalkOutcome::Diverges { reason, addr } => {
            emit(
                diags,
                "RL-T003",
                Severity::Info,
                Site::Code { addr: *addr },
                format!("controller provably never halts: {reason}"),
                "intentional for streaming programs; add a halt path if termination \
                 was expected",
            );
            (&[][..], false)
        }
    };

    // Hazard replay over every halted path. `RL-H003` (and the manifest
    // claim) requires the walk to have covered *all* paths.
    let hazard_free = hazard::check(model, paths, complete, diags);
    if hazard_free {
        manifest.hazard_free = true;
        emit(
            diags,
            "RL-H003",
            Severity::Info,
            Site::Object,
            "no reconfiguration write can race in-flight pipeline data on any \
             execution path"
                .to_owned(),
            "the hazard-freedom claim is recorded in the proof manifest",
        );
    }

    // Value ranges are only sound when every runtime configuration write
    // was recovered: either the walk is complete, or the program has no
    // config-write instructions at all.
    let has_config_writes = facts.instrs().any(|(_, i)| {
        matches!(
            i,
            CtrlInstr::Wdn { .. }
                | CtrlInstr::Wsw { .. }
                | CtrlInstr::Who { .. }
                | CtrlInstr::Wmode { .. }
                | CtrlInstr::Wloc { .. }
                | CtrlInstr::Wlim { .. }
        )
    });
    if complete || !has_config_writes {
        let controller_drives_bus = facts
            .instrs()
            .any(|(_, i)| matches!(i, CtrlInstr::Busw { .. }));
        manifest.out_ranges =
            range::check(model, paths, expectations, controller_drives_bus, diags);
    }

    manifest
}
