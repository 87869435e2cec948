//! The multi-phase superblock cache (the `aot` tier).
//!
//! The fused engine (see [`crate::fused`]) discovers steady-state windows
//! at run time: it waits [`crate::fused::DETECTION_WINDOW`] stable cycles
//! before compiling, and *deoptimizes* — drops the compiled program and
//! falls back to the decoded path — on every reconfiguration write. For
//! kernels that reconfigure frequently (Table 1 motion estimation switches
//! contexts every few hundred cycles) most of the run is therefore spent
//! re-detecting windows it has already compiled and thrown away.
//!
//! This module keeps a *cache of compiled programs keyed by configuration
//! content* instead of a single program keyed by monotonic epochs:
//!
//! * **Content-keyed guard.** Entry into a compiled program is guarded by
//!   the configuration *content* (every active-context microinstruction,
//!   route, capture, mode and live sequencer slot), compared word for word
//!   against each cached key, not by the monotonic epochs: rewriting a
//!   context with identical words, or cycling A→B→A, re-enters the cached
//!   program instead of deoptimizing. The epoch fingerprint
//!   ([`crate::fused::FusedStamps`]) is kept as a cheap revalidation —
//!   equal stamps prove the content (and therefore the resolved cache
//!   entry) is unchanged without re-serializing it.
//! * **Guard stitching.** A guard miss ([`crate::Stats::aot_guard_misses`])
//!   does not abandon compiled execution the way a fused deopt does: the
//!   unseen configuration is compiled on the spot ([`crate::Stats::
//!   aot_compiles`]) and entered immediately, with no re-detection window.
//!   The cache starts empty at [`RingMachine::load`], so this is also how
//!   every window is compiled the first time: the controller rewrites the
//!   configuration layer while the ring runs, and the configuration a
//!   window runs is only known when the window arrives.
//! * **Schedule bursts.** A *running* controller does not force the
//!   decoded path either, as long as it stays off the datapath: a
//!   lookahead over a cloned controller admits every cycle whose
//!   instruction provably retires without reading the bus or a host FIFO
//!   and whose only architectural effect is a context select. The admitted
//!   region partitions into per-context segments; each segment's fabric
//!   cycles run through the cached compiled program for that
//!   configuration, and the controller then replays over the same cycles
//!   (one instruction per cycle, datapath-free by admission). Within the
//!   region the controller and the fabric only interact at the
//!   segment-boundary context commits, so the decomposition is
//!   cycle-exact. This is what covers multi-phase schedules whose
//!   controller ping-pongs contexts without ever waiting.
//!
//! The decoded path is only taken for cycles that are structurally
//! inadmissible: a pending context select, an armed fault injector,
//! sub-[`MIN_BURST`] windows, or controller instructions that touch the
//! datapath (`busr`, `hpop`, `busw`, `hpush`, configuration writes).
//!
//! Because admission is by content equality, a cached program only ever
//! runs the exact configuration it was compiled from. Replay itself is
//! the fused engine's [`crate::fused::execute`], so the two tiers share
//! one compiled semantics and differ only in admission policy.
//!
//! # Watchdog interaction
//!
//! The fused engine refuses to run with the watchdog armed. The AOT tier
//! admits *provably quiet* windows (direct link, input streams drained, no
//! open sinks — so no host progress is possible inside the burst) bounded
//! so the burst ends no later than the earliest possible trip: the skipped
//! per-cycle boundary checks are then exact no-ops, and a due trip is
//! raised by the decoded path at the same cycle, with the same
//! architectural context, as it would have been cycle-by-cycle.

use std::cell::Cell;

use systolic_ring_isa::dnode::DnodeMode;
use systolic_ring_isa::{RingGeometry, Word16};

use crate::config::ConfigLayer;
use crate::controller::{CtrlEffect, CtrlPorts, CtrlState};
use crate::dnode::DnodeState;
use crate::error::ConfigError;
use crate::fused::{self, FusedProgram, FusedStamps, MIN_BURST};
use crate::machine::RingMachine;
use crate::params::LinkModel;

/// Most compiled programs kept per machine. Conformance kernels use a
/// handful of configuration phases; the cap is a backstop against
/// pathological controller programs that generate unbounded distinct
/// configurations (eviction is FIFO — oldest program first).
pub(crate) const AOT_CACHE_CAP: usize = 64;

/// One compiled configuration phase.
#[derive(Clone, Debug)]
struct AotEntry {
    /// Canonical serialization of the configuration content the program
    /// was compiled from (see [`content_key`]).
    key: Vec<u64>,
    program: FusedProgram,
    /// Phase the next burst through this entry is expected to start at.
    next_phase: u32,
}

/// Recently resolved stamps the engine remembers; schedules ping-pong
/// among a handful of contexts, so a short most-recently-used list hits
/// on every segment of a steady multi-phase loop.
const STAMP_MEMO_CAP: usize = 8;

/// Per-machine AOT state: the content-keyed program cache plus the
/// stamps memo that skips re-serialization on already-seen epochs.
#[derive(Clone, Debug, Default)]
pub(crate) struct AotEngine {
    entries: Vec<AotEntry>,
    /// Resolved (fingerprint → entry) pairs, most recent first; an equal
    /// fingerprint proves the content key (and therefore the entry)
    /// without re-serializing it, because every content mutation bumps
    /// an epoch or clock in the fingerprint.
    stamp_memo: Vec<(FusedStamps, usize)>,
    /// Cycle before which a running-controller schedule lookahead is known
    /// to come up short: the instruction that stopped the last lookahead
    /// cannot retire before this cycle, so re-walking earlier is wasted
    /// work (the lookahead is deterministic).
    schedule_stuck_until: u64,
}

impl AotEngine {
    /// Number of compiled programs currently cached (test hook).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn lookup(&self, key: &[u64]) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    fn insert(&mut self, entry: AotEntry) -> usize {
        if self.entries.len() >= AOT_CACHE_CAP {
            self.entries.remove(0);
            // Indices shifted: the memo may name wrong entries now.
            self.stamp_memo.clear();
        }
        self.entries.push(entry);
        self.entries.len() - 1
    }
}

/// Serializes everything a compiled program's behaviour depends on:
/// the active context's microinstructions, routes and captures, every
/// Dnode's mode, and — for local-mode Dnodes — the sequencer limit and
/// the slots below it.
///
/// Deliberately excluded: sequencer *counters* (handled by
/// [`FusedProgram::find_phase`] / re-anchoring), slots at or above the
/// limit (unreachable until a `wlim` raises it, which changes the key),
/// and all datapath state (registers, outputs, pipelines, FIFOs, bus),
/// which the replay engine reads live.
fn content_key(config: &ConfigLayer, dnodes: &[DnodeState], g: RingGeometry) -> Vec<u64> {
    let width = g.width();
    let ctx = config.active();
    let mut key = Vec::with_capacity(g.dnodes() * 3 + g.switches() * width * 5);
    for d in 0..g.dnodes() {
        key.push(ctx.dnode_instr(d).encode());
    }
    for s in 0..g.switches() {
        for lane in 0..width {
            for port in 0..4 {
                key.push(u64::from(ctx.port(width, s, lane, port).encode()));
            }
        }
        for port in 0..width {
            key.push(u64::from(ctx.capture(width, s, port).encode()));
        }
    }
    for d in dnodes {
        match d.mode() {
            DnodeMode::Global => key.push(0),
            DnodeMode::Local => {
                let seq = d.sequencer();
                key.push(1 | u64::from(seq.limit()) << 1);
                for slot in 0..usize::from(seq.limit()) {
                    key.push(seq.slot(slot).encode());
                }
            }
        }
    }
    key
}

/// The schedule lookahead's controller environment: the lookahead has no
/// datapath, so a `busr` returns an unknowable value (flagged, ending the
/// lookahead) and an `hpop` always stalls (a non-retiring step, likewise
/// ending it).
#[derive(Default)]
struct BlindPorts {
    blind: Cell<bool>,
}

impl CtrlPorts for BlindPorts {
    fn bus(&self) -> Word16 {
        self.blind.set(true);
        Word16::ZERO
    }

    fn hpop(&mut self, _switch: usize, _port: usize) -> Result<Option<Word16>, ConfigError> {
        Ok(None)
    }
}

impl RingMachine {
    /// Number of compiled programs in the AOT cache (0 with the tier off).
    /// Exposed for tests.
    pub fn aot_cached_programs(&self) -> usize {
        self.aot.as_ref().map_or(0, |e| e.len())
    }

    /// Resolves the current configuration content against the cache,
    /// stitch-compiling on a guard miss. Returns the entry index,
    /// remembered under the current epoch stamps for the next resolution.
    fn aot_resolve(&mut self, engine: &mut AotEngine) -> usize {
        let stamps = self.fused_stamps();
        if let Some(pos) = engine.stamp_memo.iter().position(|(s, _)| *s == stamps) {
            let hit = engine.stamp_memo.remove(pos);
            let idx = hit.1;
            engine.stamp_memo.insert(0, hit);
            return idx;
        }
        // The epochs moved past the memo: re-resolve the configuration
        // content against the cache. The decoded plan is the compiler's
        // input, so bring it up to date first (counting the misses
        // exactly as the decoded path would).
        let active = self.config.active_index();
        let misses = self
            .plan
            .refresh(active, &self.config, &self.dnodes, self.geometry);
        if misses > 0 {
            self.stats.decode_cache_misses += misses;
        }
        let key = content_key(&self.config, &self.dnodes, self.geometry);
        let idx = match engine.lookup(&key) {
            Some(i) => i,
            None => {
                // Guard miss: stitch by compiling the unseen
                // configuration now, instead of deoptimizing.
                self.stats.aot_guard_misses += 1;
                let program = fused::compile(
                    self.plan.context_plan(active),
                    &self.dnodes,
                    self.geometry,
                    self.params.pipe_depth,
                );
                self.stats.aot_compiles += 1;
                engine.insert(AotEntry {
                    key,
                    program,
                    next_phase: 0,
                })
            }
        };
        engine.stamp_memo.insert(0, (stamps, idx));
        engine.stamp_memo.truncate(STAMP_MEMO_CAP);
        idx
    }

    /// Locates the entry phase of `engine.entries[idx]` against the live
    /// sequencer counters, re-anchoring (recompiling in place) when the
    /// counters left the compiled orbit.
    fn aot_anchor(&mut self, engine: &mut AotEngine, idx: usize) -> u32 {
        let hint = engine.entries[idx].next_phase;
        match engine.entries[idx].program.find_phase(hint, &self.dnodes) {
            Some(p) => p,
            None => {
                // The sequencer counters left the compiled orbit (e.g. a
                // `wlim` reset skewed one Dnode against the others):
                // re-anchor at the current counters. Same content key, so
                // the entry is replaced in place.
                let active = self.config.active_index();
                let misses = self
                    .plan
                    .refresh(active, &self.config, &self.dnodes, self.geometry);
                if misses > 0 {
                    self.stats.decode_cache_misses += misses;
                }
                engine.entries[idx].program = fused::compile(
                    self.plan.context_plan(active),
                    &self.dnodes,
                    self.geometry,
                    self.params.pipe_depth,
                );
                self.stats.aot_compiles += 1;
                0
            }
        }
    }

    /// Runs `len` cycles as one superblock burst through the cached program
    /// for the current configuration, stitch-compiling it on a guard miss.
    fn aot_burst(&mut self, engine: &mut AotEngine, len: u64) {
        let idx = self.aot_resolve(engine);
        let entry_phase = self.aot_anchor(engine, idx);
        let entry = &mut engine.entries[idx];
        fused::execute(&entry.program, entry_phase, &mut [&mut *self], len, true);
        let period = u64::from(entry.program.period);
        entry.next_phase = ((u64::from(entry_phase) + len) % period) as u32;
    }

    /// Attempts one AOT superblock burst of up to `remaining` cycles;
    /// returns the cycles executed (0 = not entered, fall through to the
    /// fused engine and then the decoded path).
    pub(crate) fn try_aot(&mut self, remaining: u64) -> u64 {
        if !self.params.aot || !self.params.fused || !self.params.decode_cache {
            return 0;
        }
        if self.fault.is_some() {
            // Armed fault machinery demands the decoded path's per-cycle
            // injection/detection bracketing.
            return 0;
        }
        if self.config.select_pending() {
            return 0;
        }
        let mut window = match self.controller.state() {
            CtrlState::Halted => remaining,
            CtrlState::Waiting(n) => remaining.min(u64::from(n)),
            CtrlState::Running => return self.try_aot_schedule(remaining),
        };
        if window == 0 {
            return 0;
        }
        if self.params.watchdog_interval > 0 {
            // Watchdog-armed admission (see the module docs): only quiet
            // windows, bounded to end no later than the earliest possible
            // trip. First fold outstanding progress into the heartbeat —
            // the update half of the boundary check we are about to skip.
            if self.params.link != LinkModel::Direct
                || !self.host.inputs_drained()
                || self.host.any_sink_open()
            {
                return 0;
            }
            self.watchdog_observe();
            window = window.min(self.watchdog_margin());
        }
        if window < MIN_BURST {
            return 0;
        }
        let mut engine = self.aot.take().unwrap_or_default();
        self.aot_burst(&mut engine, window);
        self.aot = Some(engine);
        window
    }

    /// Walks a *clone* of the controller up to `limit` cycles ahead,
    /// admitting only datapath-independent cycles: every instruction must
    /// retire without touching the datapath (`busr`, `hpop`), and the only
    /// architectural effect allowed is a valid `ctx` select. Returns the
    /// admitted cycles partitioned into per-active-context segments (a
    /// segment ends on the cycle whose commit switches contexts), plus
    /// whether the walk stopped at the budget rather than at an
    /// inadmissible cycle.
    ///
    /// The walk is deterministic: admitted instructions read only
    /// controller-internal state (registers, data memory, the program
    /// counter), so replaying the real controller over the admitted prefix
    /// retires exactly the same instructions with the same effects.
    fn schedule_lookahead(&self, limit: u64) -> (Vec<u64>, bool) {
        let mut ctrl = self.controller.lookahead_clone();
        let mut ports = BlindPorts::default();
        let contexts = self.config.contexts();
        let mut segments = Vec::new();
        let mut seg = 0u64;
        let mut total = 0u64;
        while total < limit {
            match ctrl.state() {
                // Leave the halt (and any not-yet-started wait tail) to
                // the plain window path: it covers those cycles with bulk
                // accounting instead of a per-cycle replay.
                CtrlState::Halted => break,
                CtrlState::Waiting(n) => {
                    let k = u64::from(n).min(limit - total);
                    ctrl.skip_wait(k);
                    seg += k;
                    total += k;
                    continue;
                }
                CtrlState::Running => {}
            }
            let Ok(step) = ctrl.step(&mut ports) else {
                // The next instruction faults: the decoded path must be
                // the one to raise it.
                break;
            };
            if ports.blind.get() || !step.retired {
                // `busr` needs the live bus, or `hpop` may block on
                // run-time FIFO data: control flow past this cycle is
                // unknowable without the datapath.
                break;
            }
            let mut admissible = true;
            let mut switches_ctx = false;
            for effect in &step.effects {
                match *effect {
                    CtrlEffect::SetActiveCtx(ctx) if ctx < contexts => switches_ctx = true,
                    _ => admissible = false,
                }
            }
            if !admissible {
                break;
            }
            seg += 1;
            total += 1;
            if switches_ctx {
                segments.push(seg);
                seg = 0;
            }
        }
        if seg > 0 {
            segments.push(seg);
        }
        (segments, total == limit)
    }

    /// The running-controller burst: covers multi-phase schedules whose
    /// controller never goes quiet (context ping-pong loops). The admitted
    /// region decomposes into per-context segments; each segment's fabric
    /// cycles replay through the cached compiled program for that
    /// configuration, then the controller replays over the same cycles at
    /// one instruction per cycle — cheap, datapath-free by admission, and
    /// bit-identical to the decoded interleaving because within the region
    /// the controller and the fabric only interact at the segment-boundary
    /// context commits.
    fn try_aot_schedule(&mut self, remaining: u64) -> u64 {
        if self.params.watchdog_interval > 0 {
            // The heartbeat samples controller progress at every decoded
            // cycle boundary; keep that bracketing exact.
            return 0;
        }
        let mut engine = self.aot.take().unwrap_or_default();
        if self.cycle < engine.schedule_stuck_until {
            self.aot = Some(engine);
            return 0;
        }
        let (segments, capped) = self.schedule_lookahead(remaining);
        let total: u64 = segments.iter().sum();
        if total < MIN_BURST {
            if !capped {
                // The blocking instruction sits `total` cycles out and the
                // controller retires at most one instruction per cycle, so
                // any earlier re-walk stops at the same place.
                engine.schedule_stuck_until = self.cycle + total + 1;
            }
            self.aot = Some(engine);
            return 0;
        }
        for len in segments {
            self.aot_burst(&mut engine, len);
            // The burst accounted the controller as stalled for the whole
            // segment (the quiet-window convention); the replay below
            // re-counts each of these cycles exactly as the decoded path
            // would have.
            self.stats.ctrl_stall_cycles -= len;
            for i in 0..len {
                let cycle = self.cycle - len + i;
                let step = self
                    .controller_substep(cycle)
                    .expect("schedule replay diverged from the admitted lookahead");
                for effect in &step.effects {
                    let CtrlEffect::SetActiveCtx(ctx) = *effect else {
                        unreachable!("inadmissible effect in a schedule segment");
                    };
                    self.config
                        .stage_select(ctx)
                        .expect("lookahead validated the context index");
                }
                if self.config.commit() {
                    self.stats.ctx_switches += 1;
                }
            }
        }
        self.aot = Some(engine);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;
    use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
    use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand, Reg};
    use systolic_ring_isa::object::Object;
    use systolic_ring_isa::switch::PortSource;

    fn aot_params() -> MachineParams {
        MachineParams::PAPER
            .with_decode_cache(true)
            .with_fused(true)
            .with_aot(true)
    }

    fn mac_object() -> Object {
        use systolic_ring_isa::object::Preload;
        let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2).write_reg(Reg::R0);
        Object {
            geometry: Some(RingGeometry::RING_8),
            contexts: 1,
            code: vec![
                CtrlInstr::Wait { cycles: 64 }.encode(),
                CtrlInstr::Halt.encode(),
            ],
            data: vec![],
            preload: vec![
                Preload::SwitchPort {
                    ctx: 0,
                    switch: 0,
                    lane: 0,
                    input: 0,
                    word: PortSource::HostIn { port: 0 }.encode(),
                },
                Preload::SwitchPort {
                    ctx: 0,
                    switch: 0,
                    lane: 0,
                    input: 1,
                    word: PortSource::HostIn { port: 1 }.encode(),
                },
                Preload::LocalSlot {
                    dnode: 0,
                    slot: 0,
                    word: mac.encode(),
                },
                Preload::LocalLimit { dnode: 0, limit: 1 },
                Preload::Mode {
                    dnode: 0,
                    local: true,
                },
            ],
        }
    }

    #[test]
    fn content_key_ignores_counters_and_dead_slots() {
        let m = RingMachine::new(RingGeometry::RING_8, aot_params());
        let mut dnodes = m.dnodes.clone();
        let base = content_key(&m.config, &dnodes, m.geometry);
        // Counters are excluded: advancing one changes nothing.
        dnodes[0].sequencer_mut().set_limit(4);
        let with_local_global_mode = content_key(&m.config, &dnodes, m.geometry);
        assert_eq!(
            base, with_local_global_mode,
            "sequencer state of a global-mode Dnode is dead content"
        );
        dnodes[0].set_mode(DnodeMode::Local);
        let local = content_key(&m.config, &dnodes, m.geometry);
        assert_ne!(base, local, "mode flips must change the key");
        // A slot at or above the limit is unreachable: still equal.
        let nop = MicroInstr::NOP;
        dnodes[0]
            .sequencer_mut()
            .set_slot(7, nop.with_imm(Word16::from_i16(3)));
        assert_eq!(local, content_key(&m.config, &dnodes, m.geometry));
        // A live slot is not.
        dnodes[0]
            .sequencer_mut()
            .set_slot(0, nop.with_imm(Word16::from_i16(3)));
        assert_ne!(local, content_key(&m.config, &dnodes, m.geometry));
    }

    #[test]
    fn aot_matches_decoded_bit_for_bit() {
        let inputs: [Vec<Word16>; 2] = [
            (0..48).map(|i| Word16::from_i16(i - 7)).collect(),
            (0..48).map(|i| Word16::from_i16(3 * i + 1)).collect(),
        ];
        let run = |params: MachineParams| {
            let mut m = RingMachine::new(RingGeometry::RING_8, params);
            m.load(&mac_object()).unwrap();
            m.attach_input(0, 0, inputs[0].iter().copied()).unwrap();
            m.attach_input(0, 1, inputs[1].iter().copied()).unwrap();
            m.run(80).unwrap();
            (
                m.dnode(0).reg(Reg::R0),
                m.cycle(),
                m.stats().without_cache_counters(),
            )
        };
        let decoded = run(MachineParams::PAPER.with_decode_cache(true));
        let aot = run(aot_params());
        assert_eq!(decoded, aot);
    }

    /// A context ping-pong loop whose controller never waits: the
    /// schedule burst must cover it, entering one superblock per
    /// per-context segment, with counters bit-identical to decoded.
    #[test]
    fn schedule_burst_covers_a_running_context_ping_pong() {
        use systolic_ring_isa::object::Preload;
        let add7 = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::Imm)
            .with_imm(Word16::from_i16(7))
            .write_reg(Reg::R0);
        let sub2 = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R1), Operand::Imm)
            .with_imm(Word16::from_i16(-2))
            .write_reg(Reg::R1);
        let r1 = CReg::new(1).unwrap();
        let r0 = CReg::new(0).unwrap();
        let object = Object {
            geometry: Some(RingGeometry::RING_8),
            contexts: 2,
            code: vec![
                CtrlInstr::Addi {
                    rd: r1,
                    ra: r0,
                    imm: 24,
                }
                .encode(),
                // flip: ctx 1; ctx 0; countdown; loop
                CtrlInstr::Ctx { ctx: 1 }.encode(),
                CtrlInstr::Ctx { ctx: 0 }.encode(),
                CtrlInstr::Addi {
                    rd: r1,
                    ra: r1,
                    imm: -1,
                }
                .encode(),
                CtrlInstr::Bne {
                    ra: r1,
                    rb: r0,
                    offset: -4,
                }
                .encode(),
                CtrlInstr::Halt.encode(),
            ],
            data: vec![],
            preload: vec![
                Preload::DnodeInstr {
                    ctx: 0,
                    dnode: 0,
                    word: add7.encode(),
                },
                Preload::DnodeInstr {
                    ctx: 1,
                    dnode: 1,
                    word: sub2.encode(),
                },
            ],
        };
        let run = |params: MachineParams| {
            let mut m = RingMachine::new(RingGeometry::RING_8, params);
            m.load(&object).unwrap();
            m.run(128).unwrap();
            (
                m.dnode(0).reg(Reg::R0),
                m.dnode(1).reg(Reg::R1),
                m.cycle(),
                m.stats().without_cache_counters(),
            )
        };
        let decoded = run(MachineParams::PAPER.with_decode_cache(true));
        let aot = run(aot_params());
        assert_eq!(decoded, aot, "schedule bursts must be cycle-exact");

        let mut m = RingMachine::new(RingGeometry::RING_8, aot_params());
        m.load(&object).unwrap();
        m.run(128).unwrap();
        let stats = m.stats();
        assert_eq!(
            stats.aot_cycles, 128,
            "the whole run is schedule-burst admissible"
        );
        assert!(
            stats.aot_entries > 2,
            "one superblock per per-context segment, got {}",
            stats.aot_entries
        );
        assert_eq!(stats.ctx_switches, 48, "24 rounds of ctx 1 / ctx 0");
    }

    /// Nothing is compiled at load: the first window reaches the tier as a
    /// guard miss, which compiles its configuration and enters it at once.
    #[test]
    fn first_window_is_stitched_on_a_guard_miss() {
        let mut m = RingMachine::new(RingGeometry::RING_8, aot_params());
        m.load(&mac_object()).unwrap();
        assert_eq!(m.aot_cached_programs(), 0, "load compiles nothing");
        m.run(40).unwrap();
        assert_eq!(m.stats().aot_guard_misses, 1);
        assert_eq!(m.stats().aot_compiles, 1);
        assert!(m.stats().aot_cycles > 0);
        assert_eq!(m.stats().fused_entries, 0, "aot outranks fused dispatch");
    }
}
