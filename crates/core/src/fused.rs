//! The compiled execution tier.
//!
//! Most DSP kernels run the ring in a *steady state*: the active context's
//! configuration is static for long windows, local-mode Dnodes replay
//! ≤8-instruction loops, and the controller is halted or sitting in a
//! `wait`. The predecoded cache (`plan`) already removed the
//! per-cycle decode from that regime, but the stepper still pays per-cycle
//! dispatch: a mode match and sequencer index per Dnode, operand matches,
//! staged-write buffering, per-Dnode statistics branches, a controller
//! call and a host-interface call — every cycle, for work that is known in
//! advance to be identical for the whole window.
//!
//! This module compiles such a window *once* into a `FusedProgram` — a
//! flat, phase-scheduled operation list — and replays it over a
//! struct-of-arrays snapshot of machine state:
//!
//! * **Phases.** With the configuration frozen, the only per-cycle
//!   variation is the local sequencers' counters, which all advance by one
//!   each cycle. The whole ring is therefore periodic with period
//!   `lcm(limits)` (≤ 840 for limits in 1..=8). Each phase's operations
//!   are fully resolved: operand sources collapse to flat array indices,
//!   write destinations to flat array indices, bus arbitration to a single
//!   precomputed result index, statistics to a per-phase increment list.
//! * **SoA state.** Registers, outputs, output stamps, feedback-pipeline
//!   words and the bus are gathered into contiguous arrays (lane-major for
//!   multi-lane bursts), and the host FIFOs, with their attached streams,
//!   into lane-major local tables; all are stepped with no `HashMap` or
//!   nested `match` dispatch, and scattered back at the end of the burst —
//!   so between bursts the machine always holds canonical architectural
//!   state and checkpoints, traces and accessors need no special cases.
//! * **Lanes.** [`lockstep_burst`] steps N machines that share one
//!   compiled program in lockstep over `[word; LANES]`-style lane-major
//!   arrays, amortizing the schedule walk across a whole batch of jobs
//!   (the harness groups jobs with identical object programs onto it).
//!
//! # The program cache
//!
//! Each machine keeps its compiled programs in one cache keyed by
//! configuration *content*: every active-context microinstruction, route
//! and capture, every Dnode's mode, and each local sequencer's limit and
//! live slots, compared word for word. The Systolic Ring's controller
//! switches among stored contexts while the ring runs, so what decides a
//! window's behaviour is what the configuration holds, not how long it
//! has held it:
//!
//! * **Guard miss.** A window whose content matches no cached program
//!   compiles it on the spot and enters it at once
//!   ([`crate::Stats::guard_misses`], [`crate::Stats::compiles`]). The
//!   cache starts empty at [`RingMachine::load`], so this is how every
//!   window is compiled the first time.
//! * **Re-entry.** Rewriting a context with identical words, or cycling
//!   A→B→A, re-enters the cached program. The epoch fingerprint
//!   (`FusedStamps`) memoizes recent resolutions: equal stamps prove
//!   the content unchanged without re-serializing it.
//! * **Re-anchoring.** A program's phase 0 is anchored at the sequencer
//!   counters it was compiled against; when the live counters leave that
//!   orbit (a `wlim` reset skewing one Dnode), the entry is recompiled in
//!   place under the same key.
//!
//! # Admission
//!
//! Compiled bursts are entered only from [`crate::RingMachine::run`],
//! [`crate::RingMachine::run_until_halt`] and [`lockstep_burst`] (never
//! from [`crate::RingMachine::step`], so single-cycle stepping and
//! per-cycle tracing always take the decoded path), under one rule: the
//! controller is halted or mid-`wait`, no fault injector is armed, no
//! context select is staged, the window is at least `MIN_BURST` (8) cycles,
//! and under an armed watchdog only provably quiet windows (direct link,
//! input streams drained, no open sinks) bounded to end no later than the
//! earliest possible trip — so the skipped per-cycle boundary checks are
//! exact no-ops and a due trip is raised by the decoded path at the same
//! cycle. The `aot` tier adds running-controller schedule bursts on the
//! same cache (`crate::aot`). Since nothing that can fault executes
//! inside a burst (no controller instructions, no configuration writes,
//! no detection sweeps), a burst cannot fail mid-flight — the
//! cycle-boundary fail-stop contract is preserved bit-for-bit by
//! construction.

use systolic_ring_isa::dnode::{AluOp, DnodeMode};
use systolic_ring_isa::{RingGeometry, Word16};

use crate::config::ConfigLayer;
use crate::controller::CtrlState;
use crate::dnode::DnodeState;
use crate::machine::RingMachine;
use crate::params::LinkModel;
use crate::plan::{CtxPlan, DecodedOp, FastSrc};
use crate::switch::{PushOutcome, WordFifo};

/// Minimum burst length worth the gather/scatter round trip.
pub(crate) const MIN_BURST: u64 = 8;

/// Most compiled programs kept per machine. Conformance kernels use a
/// handful of configuration phases; the cap is a backstop against
/// pathological controller programs that generate unbounded distinct
/// configurations (eviction is FIFO — oldest program first).
const PROGRAM_CACHE_CAP: usize = 64;

/// Recently resolved stamps the cache remembers; schedules ping-pong
/// among a handful of contexts, so a short most-recently-used list hits
/// on every segment of a steady multi-phase loop.
const STAMP_MEMO_CAP: usize = 8;

/// Flat-index sentinel for "no destination / not present".
const NONE32: u32 = u32::MAX;

/// The configuration-epoch fingerprint the program cache memoizes
/// resolutions under.
///
/// Every mutation that could change compiled behaviour bumps one of these
/// monotonic clocks (see [`crate::config::ConfigLayer`] and
/// [`crate::plan::DecodedPlan`]); equality therefore proves the content
/// key, and so the resolved cache entry, unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FusedStamps {
    ctx: usize,
    cfg_epoch: u64,
    capture_epoch: u64,
    modes_clock: u64,
    seq_clock: u64,
}

/// A fully lowered operand source: one match from a flat array index.
#[derive(Clone, Copy, Debug, PartialEq)]
enum FusedSrc {
    /// Compile-time constant.
    Const(Word16),
    /// `regs[i]` (flat `dnode * 4 + reg`).
    Reg(u32),
    /// The shared bus.
    Bus,
    /// `outs[d]`.
    Out(u32),
    /// Feedback-pipeline tap: `base` is the switch's flat offset
    /// (`switch * depth * width`), `stage` is logical (0 = newest).
    Pipe { base: u32, stage: u32, lane: u32 },
    /// Head of the `slot`-th host-input FIFO read in this phase
    /// (phase-local index into the staged head values).
    HostIn(u32),
}

/// One lowered Dnode operation: evaluate, then commit to flat indices.
#[derive(Clone, Copy, Debug, PartialEq)]
struct FusedOp {
    alu: AluOp,
    a: FusedSrc,
    b: FusedSrc,
    /// Accumulator source (flat register index) or [`NONE32`].
    acc: u32,
    /// Register destination (flat register index) or [`NONE32`].
    wr_reg: u32,
    /// Output destination (flat Dnode index) or [`NONE32`].
    wr_out: u32,
}

/// Per-phase slices into the program's flat tables.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PhaseMeta {
    /// Range into [`FusedProgram::ops`].
    ops: (u32, u32),
    /// Range into [`FusedProgram::pops`].
    pops: (u32, u32),
    /// Range into [`FusedProgram::incs`].
    incs: (u32, u32),
    /// Phase-local result index driving the bus, or [`NONE32`].
    bus: u32,
    /// More than one Dnode drives the bus this phase.
    conflict: bool,
}

/// A compiled steady-state window: the whole ring's behaviour for one
/// configuration epoch, scheduled over `period` phases.
///
/// Derives `PartialEq` so the lane-fusion path can prove two machines
/// compiled *identical* programs before stepping them in lockstep.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FusedProgram {
    /// `lcm` of the local-mode sequencer limits (1 with none in local
    /// mode).
    period: u32,
    /// Geometry snapshot the flat indices were computed against.
    dnodes: u32,
    width: u32,
    depth: u32,
    switches: u32,
    /// All phases' operations, concatenated.
    ops: Vec<FusedOp>,
    phases: Vec<PhaseMeta>,
    /// Host-input FIFO reads per phase: `(flat host-input port, operand
    /// reads)`, the port flattened as `switch * 2 * width + port` — the
    /// FIFO is popped once, but an empty FIFO underflows once per operand
    /// read, exactly as the decoded path counts it.
    pops: Vec<(u32, u32)>,
    /// Per-phase statistics increments: `(dnode, uses multiplier)`.
    incs: Vec<(u32, bool)>,
    /// Host captures (static across phases): `(flat host-output port,
    /// src dnode)`, the port flattened as `switch * width + port`.
    captures: Vec<(u32, u32)>,
    /// Local-mode Dnodes: `(dnode, limit, counter at phase 0)`.
    locals: Vec<(u32, u8, u8)>,
    /// Upstream Dnode feeding each `(switch, lane)` pipeline slot.
    pipe_rows: Vec<u32>,
    /// Widest phase (sizes the result buffer).
    max_phase_ops: u32,
    /// Most host-input reads in one phase (sizes the head-value buffer).
    max_phase_slots: u32,
}

impl FusedProgram {
    /// `true` when `phase` lines up with every local sequencer counter.
    fn phase_matches(&self, phase: u32, dnodes: &[DnodeState]) -> bool {
        self.locals.iter().all(|&(d, limit, base)| {
            dnodes[d as usize].sequencer().counter()
                == ((u32::from(base) + phase) % u32::from(limit)) as u8
        })
    }

    /// Finds the phase matching the machine's current sequencer counters,
    /// trying `hint` first (the phase a previous burst stopped before).
    fn find_phase(&self, hint: u32, dnodes: &[DnodeState]) -> Option<u32> {
        let hint = hint % self.period;
        if self.phase_matches(hint, dnodes) {
            return Some(hint);
        }
        (0..self.period).find(|&p| self.phase_matches(p, dnodes))
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u32, b: u32) -> u32 {
    a / gcd(a, b) * b
}

/// Lowers a [`FastSrc`] into a [`FusedSrc`], registering host-input reads
/// in this phase's pop table.
fn lower_src(
    src: FastSrc,
    d: usize,
    depth: usize,
    width: usize,
    pops: &mut Vec<(u32, u32)>,
    phase_start: usize,
) -> FusedSrc {
    match src {
        FastSrc::Const(word) => FusedSrc::Const(word),
        FastSrc::Reg(reg) => FusedSrc::Reg((d * 4 + reg.index()) as u32),
        FastSrc::Bus => FusedSrc::Bus,
        FastSrc::Out(index) => FusedSrc::Out(index as u32),
        FastSrc::Pipe {
            switch,
            stage,
            lane,
        } => FusedSrc::Pipe {
            base: (switch * depth * width) as u32,
            stage: stage as u32,
            lane: lane as u32,
        },
        FastSrc::HostIn { switch, port } => {
            let key = (switch * 2 * width + port) as u32;
            let slot = match pops[phase_start..].iter().position(|&(p, _)| p == key) {
                Some(j) => {
                    pops[phase_start + j].1 += 1;
                    j
                }
                None => {
                    pops.push((key, 1));
                    pops.len() - 1 - phase_start
                }
            };
            FusedSrc::HostIn(slot as u32)
        }
    }
}

/// Compiles the active context's decoded plan into a [`FusedProgram`],
/// with phase 0 anchored at the local sequencers' *current* counters.
fn compile(cp: &CtxPlan, dnodes: &[DnodeState], g: RingGeometry, depth: usize) -> FusedProgram {
    let width = g.width();
    let mut locals: Vec<(u32, u8, u8)> = Vec::new();
    for &d32 in &cp.work {
        let d = d32 as usize;
        if dnodes[d].mode() == DnodeMode::Local {
            let seq = dnodes[d].sequencer();
            locals.push((d32, seq.limit(), seq.counter()));
        }
    }
    let period = locals
        .iter()
        .fold(1u32, |acc, &(_, limit, _)| lcm(acc, u32::from(limit)));

    let mut ops = Vec::new();
    let mut phases = Vec::with_capacity(period as usize);
    let mut pops: Vec<(u32, u32)> = Vec::new();
    let mut incs: Vec<(u32, bool)> = Vec::new();
    let mut max_phase_ops = 0u32;
    let mut max_phase_slots = 0u32;

    for phase in 0..period {
        let ops_start = ops.len() as u32;
        let pops_start = pops.len();
        let incs_start = incs.len() as u32;
        let mut bus = NONE32;
        let mut bus_count = 0u32;
        for &d32 in &cp.work {
            let d = d32 as usize;
            let op: &DecodedOp = match dnodes[d].mode() {
                DnodeMode::Global => &cp.ops[d],
                DnodeMode::Local => {
                    let &(_, limit, base) = locals
                        .iter()
                        .find(|x| x.0 == d32)
                        .expect("local Dnode recorded");
                    let lp = cp.local[d].as_ref().expect("local plan refreshed");
                    &lp.ops[((u32::from(base) + phase) % u32::from(limit)) as usize]
                }
            };
            if op.skip {
                continue;
            }
            let a = lower_src(op.a, d, depth, width, &mut pops, pops_start);
            let b = lower_src(op.b, d, depth, width, &mut pops, pops_start);
            if op.wr_bus {
                if bus == NONE32 {
                    bus = ops.len() as u32 - ops_start;
                }
                bus_count += 1;
            }
            if op.active {
                incs.push((d32, op.mult));
            }
            ops.push(FusedOp {
                alu: op.alu,
                a,
                b,
                acc: op.acc.map_or(NONE32, |r| (d * 4 + r.index()) as u32),
                wr_reg: op.wr_reg.map_or(NONE32, |r| (d * 4 + r.index()) as u32),
                wr_out: if op.wr_out { d32 } else { NONE32 },
            });
        }
        phases.push(PhaseMeta {
            ops: (ops_start, ops.len() as u32),
            pops: (pops_start as u32, pops.len() as u32),
            incs: (incs_start, incs.len() as u32),
            bus,
            conflict: bus_count >= 2,
        });
        max_phase_ops = max_phase_ops.max(ops.len() as u32 - ops_start);
        max_phase_slots = max_phase_slots.max((pops.len() - pops_start) as u32);
    }

    let captures = cp
        .captures
        .iter()
        .map(|c| ((c.switch * width + c.port) as u32, c.src as u32))
        .collect();
    let pipe_rows = (0..g.switches())
        .flat_map(|s| {
            let layer = g.upstream_layer(s);
            (0..width).map(move |lane| g.dnode_index(layer, lane) as u32)
        })
        .collect();

    FusedProgram {
        period,
        dnodes: g.dnodes() as u32,
        width: width as u32,
        depth: depth as u32,
        switches: g.switches() as u32,
        ops,
        phases,
        pops,
        incs,
        captures,
        locals,
        pipe_rows,
        max_phase_ops,
        max_phase_slots,
    }
}

/// Immutable lane-major state views for operand reads.
struct LaneView<'a> {
    regs: &'a [Word16],
    outs: &'a [Word16],
    pipes: &'a [Word16],
    bus: &'a [Word16],
    hv: &'a [Word16],
    head: usize,
    depth: usize,
    width: usize,
    lanes: usize,
}

#[inline]
fn read_src(src: FusedSrc, lane: usize, v: &LaneView<'_>) -> Word16 {
    match src {
        FusedSrc::Const(word) => word,
        FusedSrc::Reg(i) => v.regs[i as usize * v.lanes + lane],
        FusedSrc::Bus => v.bus[lane],
        FusedSrc::Out(d) => v.outs[d as usize * v.lanes + lane],
        FusedSrc::Pipe {
            base,
            stage,
            lane: pl,
        } => {
            let phys = (v.head + stage as usize) % v.depth;
            v.pipes[(base as usize + phys * v.width + pl as usize) * v.lanes + lane]
        }
        FusedSrc::HostIn(slot) => v.hv[slot as usize * v.lanes + lane],
    }
}

/// Replays `program` for `k` cycles over all `lanes` in lockstep,
/// starting at phase `entry`. Every lane must have passed the admission
/// rule ([`RingMachine::quiet_window`] or a schedule lookahead) and
/// resolved `program` at phase `entry` from its own cache.
///
/// Infallible by construction: nothing inside a burst can raise a
/// [`crate::SimError`] (no controller execution, no configuration writes,
/// no fault machinery).
///
/// `aot` selects which counters account the burst
/// ([`crate::Stats::aot_entries`] vs [`crate::Stats::fused_entries`]); the
/// architectural effects are identical.
fn execute(program: &FusedProgram, entry: u32, lanes: &mut [&mut RingMachine], k: u64, aot: bool) {
    // Monomorphize the hot lane counts: a literal `L` lets every
    // `* l + lane` fold to a plain index and the per-lane loops unroll
    // (1 = the single-machine path, 16 = a full lane group in the batch
    // runner). `L = 0` keeps a fully dynamic fallback for other widths.
    match lanes.len() {
        1 => execute_impl::<1>(program, entry, lanes, k, aot),
        16 => execute_impl::<16>(program, entry, lanes, k, aot),
        _ => execute_impl::<0>(program, entry, lanes, k, aot),
    }
}

fn execute_impl<const L: usize>(
    program: &FusedProgram,
    entry: u32,
    lanes: &mut [&mut RingMachine],
    k: u64,
    aot: bool,
) {
    debug_assert!(k >= 1 && !lanes.is_empty());
    let l = if L == 0 { lanes.len() } else { L };
    let nd = program.dnodes as usize;
    let width = program.width as usize;
    let depth = program.depth as usize;
    let nsw = program.switches as usize;
    let period = program.period as usize;

    // ---- Gather machine state into lane-major SoA arrays ---------------
    let mut regs = vec![Word16::ZERO; nd * 4 * l];
    let mut outs = vec![Word16::ZERO; nd * l];
    let mut stamps: Vec<Option<u64>> = vec![None; nd * l];
    let mut pipes = vec![Word16::ZERO; nsw * depth * width * l];
    let mut bus = vec![Word16::ZERO; l];
    let mut bases = vec![0u64; l];
    // Host FIFOs move into lane-major tables (`flat port * l + lane`) for
    // the whole burst, so a delivery, a read and a pop are cursor moves on
    // a local `WordFifo`; each lane's link meter, input ports with stream
    // words left and open sinks move into its `HostBurst`.
    let in_ports = 2 * width;
    let mut host_in = vec![WordFifo::default(); nsw * in_ports * l];
    let mut host_out = vec![WordFifo::default(); nsw * width * l];
    let mut hosts = Vec::with_capacity(l);
    for (lane, m) in lanes.iter_mut().enumerate() {
        bases[lane] = m.cycle;
        bus[lane] = m.bus;
        hosts.push(m.host.begin_burst(&m.switches));
        for d in 0..nd {
            let r = m.dnodes[d].regs_raw();
            for (i, word) in r.iter().enumerate() {
                regs[(d * 4 + i) * l + lane] = *word;
            }
            outs[d * l + lane] = m.dnodes[d].out();
            stamps[d * l + lane] = m.dnodes[d].out_written_at();
        }
        for s in 0..nsw {
            let switch = &mut m.switches[s];
            for st in 0..depth {
                for w in 0..width {
                    pipes[((s * depth + st) * width + w) * l + lane] = switch.pipe.read(st, w);
                }
            }
            for (p, fifo) in switch.host_in.iter_mut().enumerate() {
                host_in[(s * in_ports + p) * l + lane] = std::mem::take(fifo);
            }
            for (p, fifo) in switch.host_out.iter_mut().enumerate() {
                host_out[(s * width + p) * l + lane] = std::mem::take(fifo);
            }
        }
    }
    // A lane whose host side cannot move a word (direct link, no stream
    // words left, no open sink) changes nothing per cycle but the
    // rotation, which `end_burst` advances for the whole burst.
    let busy_hosts: Vec<usize> = (0..l).filter(|&lane| hosts[lane].busy()).collect();
    // Physical index of logical pipeline stage 0; rotation decrements it.
    let mut head = 0usize;
    let mut results = vec![Word16::ZERO; program.max_phase_ops as usize * l];
    let mut hv = vec![Word16::ZERO; program.max_phase_slots as usize * l];
    let mut under = vec![0u64; l];
    let mut over = vec![0u64; l];

    // ---- Replay ---------------------------------------------------------
    let mut phase = entry as usize;
    for t in 0..k {
        let pm = &program.phases[phase];
        // Stage and pop the host-input FIFO heads read this phase
        // (underflows count once per operand read of an empty FIFO); the
        // operations below read only the staged values.
        let pops = &program.pops[pm.pops.0 as usize..pm.pops.1 as usize];
        for (j, &(port, reads)) in pops.iter().enumerate() {
            for lane in 0..l {
                hv[j * l + lane] = host_in[port as usize * l + lane].pop().unwrap_or_else(|| {
                    under[lane] += u64::from(reads);
                    Word16::ZERO
                });
            }
        }
        // Evaluate this phase's operations against pre-cycle state.
        let ops = &program.ops[pm.ops.0 as usize..pm.ops.1 as usize];
        {
            let view = LaneView {
                regs: &regs,
                outs: &outs,
                pipes: &pipes,
                bus: &bus,
                hv: &hv,
                head,
                depth,
                width,
                lanes: l,
            };
            for (i, op) in ops.iter().enumerate() {
                for lane in 0..l {
                    let a = read_src(op.a, lane, &view);
                    let b = read_src(op.b, lane, &view);
                    let acc = if op.acc != NONE32 {
                        view.regs[op.acc as usize * l + lane]
                    } else {
                        Word16::ZERO
                    };
                    results[i * l + lane] = op.alu.eval(a, b, acc);
                }
            }
        }
        // Host stream movement, for either link model.
        for &lane in &busy_hosts {
            hosts[lane].cycle(lane, l, &mut host_in, &mut host_out);
        }
        // Host captures from pre-commit outputs, in commit order.
        for &(port, src) in &program.captures {
            for lane in 0..l {
                let word = outs[src as usize * l + lane];
                if host_out[port as usize * l + lane].push(word) == PushOutcome::Dropped {
                    over[lane] += 1;
                }
            }
        }
        // Feedback pipelines: evict the oldest stage, capture the upstream
        // layer's pre-commit outputs as the new stage 0.
        head = (head + depth - 1) % depth;
        for s in 0..nsw {
            let row = (s * depth + head) * width;
            for w in 0..width {
                let src = program.pipe_rows[s * width + w] as usize;
                for lane in 0..l {
                    pipes[(row + w) * l + lane] = outs[src * l + lane];
                }
            }
        }
        // Commit register and output writes.
        for (i, op) in ops.iter().enumerate() {
            if op.wr_reg != NONE32 {
                let base = op.wr_reg as usize * l;
                for lane in 0..l {
                    regs[base + lane] = results[i * l + lane];
                }
            }
            if op.wr_out != NONE32 {
                let base = op.wr_out as usize * l;
                for lane in 0..l {
                    outs[base + lane] = results[i * l + lane];
                    stamps[base + lane] = Some(bases[lane] + t);
                }
            }
        }
        // Shared bus (no controller inside a burst: lowest-index Dnode
        // wins; the bus holds its value on driverless cycles).
        if pm.bus != NONE32 {
            let i = pm.bus as usize;
            for lane in 0..l {
                bus[lane] = results[i * l + lane];
            }
        }
        phase = (phase + 1) % period;
    }

    // ---- Scatter + batched accounting -----------------------------------
    // How many times each phase executed over the k cycles from `entry`.
    let mut execs = vec![k / period as u64; period];
    for i in 0..(k % period as u64) as usize {
        execs[(entry as usize + i) % period] += 1;
    }
    for (lane, (m, host)) in lanes.iter_mut().zip(hosts).enumerate() {
        for d in 0..nd {
            let mut r = [Word16::ZERO; 4];
            for (i, word) in r.iter_mut().enumerate() {
                *word = regs[(d * 4 + i) * l + lane];
            }
            m.dnodes[d].scatter_raw(r, outs[d * l + lane], stamps[d * l + lane]);
        }
        for s in 0..nsw {
            let switch = &mut m.switches[s];
            for st in 0..depth {
                let phys = (head + st) % depth;
                for w in 0..width {
                    switch
                        .pipe
                        .poke(st, w, pipes[((s * depth + phys) * width + w) * l + lane]);
                }
            }
            for (p, fifo) in switch.host_in.iter_mut().enumerate() {
                *fifo = std::mem::take(&mut host_in[(s * in_ports + p) * l + lane]);
            }
            for (p, fifo) in switch.host_out.iter_mut().enumerate() {
                *fifo = std::mem::take(&mut host_out[(s * width + p) * l + lane]);
            }
        }
        m.host.end_burst(host, k, &mut m.stats);
        m.bus = bus[lane];
        for &(d, limit, base) in &program.locals {
            let cpt = ((u64::from(base) + u64::from(entry) + k) % u64::from(limit)) as u8;
            m.dnodes[d as usize].sequencer_mut().set_counter_raw(cpt);
            m.stats.dnodes[d as usize].local_cycles += k;
        }
        // The controller spent the whole burst halted or waiting: every
        // cycle is a stall cycle, and a pending wait shrinks by k.
        if let CtrlState::Waiting(_) = m.controller.state() {
            m.controller.skip_wait(k);
        }
        m.stats.ctrl_stall_cycles += k;
        for (p, &n) in execs.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let pm = &program.phases[p];
            for &(d, mult) in &program.incs[pm.incs.0 as usize..pm.incs.1 as usize] {
                let ds = &mut m.stats.dnodes[d as usize];
                ds.active_cycles += n;
                ds.alu_ops += n;
                if mult {
                    ds.mult_ops += n;
                }
            }
            if pm.conflict {
                m.stats.bus_conflicts += n;
            }
        }
        m.stats.fifo_underflows += under[lane];
        m.stats.fifo_overflows += over[lane];
        m.cycle += k;
        m.stats.cycles += k;
        if aot {
            m.stats.aot_entries += 1;
            m.stats.aot_cycles += k;
        } else {
            m.stats.fused_entries += 1;
            m.stats.fused_cycles += k;
            m.stats.fused_lane_occupancy += k * l as u64;
        }
    }
}

/// One compiled configuration window.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// Canonical serialization of the configuration content the program
    /// was compiled from (see [`content_key`]).
    key: Vec<u64>,
    program: FusedProgram,
    /// Phase the next burst through this entry is expected to start at.
    next_phase: u32,
}

/// Per-machine compiled-tier state: the content-keyed program cache plus
/// the stamps memo that skips re-serialization on already-seen epochs.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProgramCache {
    entries: Vec<CacheEntry>,
    /// Resolved (fingerprint → entry) pairs, most recent first; an equal
    /// fingerprint proves the content key (and therefore the entry)
    /// without re-serializing it, because every content mutation bumps
    /// an epoch or clock in the fingerprint.
    stamp_memo: Vec<(FusedStamps, usize)>,
    /// Cycle before which a running-controller schedule lookahead is known
    /// to come up short (see `crate::aot`): the instruction that stopped
    /// the last lookahead cannot retire before this cycle, so re-walking
    /// earlier is wasted work (the lookahead is deterministic).
    pub(crate) schedule_stuck_until: u64,
}

impl ProgramCache {
    fn insert(&mut self, entry: CacheEntry) -> usize {
        if self.entries.len() >= PROGRAM_CACHE_CAP {
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

impl RingMachine {
    /// The current configuration-epoch fingerprint.
    fn fused_stamps(&self) -> FusedStamps {
        let ctx = self.config.active_index();
        let (modes_clock, seq_clock) = self.plan.clocks();
        FusedStamps {
            ctx,
            cfg_epoch: self.config.ctx_epoch(ctx),
            capture_epoch: self.config.capture_epoch(ctx),
            modes_clock,
            seq_clock,
        }
    }

    /// Number of compiled programs in the program cache. Exposed for
    /// tests.
    pub fn cached_programs(&self) -> usize {
        self.programs.as_ref().map_or(0, |c| c.entries.len())
    }

    /// Compiles the active context against the live sequencer counters,
    /// bringing the decoded plan (the compiler's input) up to date first
    /// and counting its misses exactly as the decoded path would.
    fn compile_active(&mut self) -> FusedProgram {
        let active = self.config.active_index();
        let misses = self
            .plan
            .refresh(active, &self.config, &self.dnodes, self.geometry);
        self.stats.decode_cache_misses += misses;
        self.stats.compiles += 1;
        compile(
            self.plan.context_plan(active),
            &self.dnodes,
            self.geometry,
            self.params.pipe_depth,
        )
    }

    /// Resolves the current configuration content against the cache,
    /// compiling it on a guard miss. Returns the entry index, remembered
    /// under the current epoch stamps for the next resolution.
    fn resolve(&mut self, cache: &mut ProgramCache) -> usize {
        let stamps = self.fused_stamps();
        if let Some(pos) = cache.stamp_memo.iter().position(|(s, _)| *s == stamps) {
            let hit = cache.stamp_memo.remove(pos);
            cache.stamp_memo.insert(0, hit);
            return hit.1;
        }
        let key = content_key(&self.config, &self.dnodes, self.geometry);
        let idx = match cache.entries.iter().position(|e| e.key == key) {
            Some(i) => i,
            None => {
                self.stats.guard_misses += 1;
                let program = self.compile_active();
                cache.insert(CacheEntry {
                    key,
                    program,
                    next_phase: 0,
                })
            }
        };
        cache.stamp_memo.insert(0, (stamps, idx));
        cache.stamp_memo.truncate(STAMP_MEMO_CAP);
        idx
    }

    /// Locates the entry phase of `cache.entries[idx]` against the live
    /// sequencer counters, re-anchoring (recompiling in place, same
    /// content key) when the counters left the compiled orbit.
    fn anchor(&mut self, cache: &mut ProgramCache, idx: usize) -> u32 {
        let entry = &cache.entries[idx];
        if let Some(p) = entry.program.find_phase(entry.next_phase, &self.dnodes) {
            return p;
        }
        cache.entries[idx].program = self.compile_active();
        0
    }

    /// Runs `len` cycles as one single-lane burst through the cached
    /// program for the current configuration, compiling it on a guard
    /// miss. The burst counts under `aot_*` on the `aot` tier and under
    /// `fused_*` otherwise.
    pub(crate) fn cached_burst(&mut self, cache: &mut ProgramCache, len: u64) {
        let idx = self.resolve(cache);
        let phase = self.anchor(cache, idx);
        let aot = self.params.aot;
        let entry = &mut cache.entries[idx];
        execute(&entry.program, phase, &mut [&mut *self], len, aot);
        entry.next_phase = ((u64::from(phase) + len) % u64::from(entry.program.period)) as u32;
    }

    /// `true` unless something demands per-cycle stepping: the compiled
    /// tier switched off, an armed fault injector (its injection and
    /// detection bracket every cycle) or a staged context select.
    pub(crate) fn may_burst(&self) -> bool {
        self.params.fused
            && self.params.decode_cache
            && self.fault.is_none()
            && !self.config.select_pending()
    }

    /// The admission rule of every quiet-window burst (see the module
    /// docs). Returns the cycles a burst may cover from here, at most
    /// `remaining`, or 0 to stay on the decoded path.
    fn quiet_window(&mut self, remaining: u64) -> u64 {
        if !self.may_burst() {
            return 0;
        }
        let mut window = match self.controller.state() {
            CtrlState::Halted => remaining,
            CtrlState::Waiting(n) => remaining.min(u64::from(n)),
            CtrlState::Running => return 0,
        };
        if window >= MIN_BURST && self.params.watchdog_interval > 0 {
            if self.params.link != LinkModel::Direct
                || !self.host.inputs_drained()
                || self.host.any_sink_open()
            {
                return 0;
            }
            // Fold outstanding progress into the heartbeat — the update
            // half of the boundary checks the burst skips — then end the
            // burst no later than the earliest possible trip.
            self.watchdog_observe();
            window = window.min(self.watchdog_margin());
        }
        if window < MIN_BURST {
            0
        } else {
            window
        }
    }

    /// Attempts one compiled burst of up to `remaining` cycles: a
    /// quiet-window burst, or on the `aot` tier a running-controller
    /// schedule burst. Returns the cycles executed (0 = not entered).
    pub(crate) fn try_burst(&mut self, remaining: u64) -> u64 {
        if self.params.aot && self.controller.state() == CtrlState::Running {
            return self.try_schedule(remaining);
        }
        let window = self.quiet_window(remaining);
        if window > 0 {
            let mut cache = self.programs.take().unwrap_or_default();
            self.cached_burst(&mut cache, window);
            self.programs = Some(cache);
        }
        window
    }
}

/// Steps `lanes` machines in lockstep through one shared compiled burst
/// of at most `max_cycles` cycles, returning the cycles executed (0 = the
/// burst was not entered and no machine advanced).
///
/// Entry requires *every* lane to pass the quiet-window admission rule
/// (see the module docs) and all lanes to resolve equal programs at the
/// same entry phase from their own caches — the batch runner arranges
/// this by grouping jobs that share an identical object program and cycle
/// budget. When the burst executes, all lanes advance exactly the
/// smallest admissible window over shared lane-major state arrays, so
/// per-cycle schedule-walk costs are paid once for the whole group. Each
/// lane's statistics account the burst under `fused_*` with
/// `fused_lane_occupancy = cycles * lanes` (see
/// [`crate::Stats::fused_lane_occupancy`]).
///
/// Machines left unentered (return 0) are architecturally untouched;
/// callers fall back to stepping them individually.
pub fn lockstep_burst(lanes: &mut [&mut RingMachine], max_cycles: u64) -> u64 {
    if lanes.is_empty() {
        return 0;
    }
    let mut window = max_cycles;
    for m in lanes.iter_mut() {
        window = m.quiet_window(window);
        if window == 0 {
            return 0;
        }
    }
    let mut caches = Vec::with_capacity(lanes.len());
    let mut picks = Vec::with_capacity(lanes.len());
    for m in lanes.iter_mut() {
        let mut cache = m.programs.take().unwrap_or_default();
        let idx = m.resolve(&mut cache);
        picks.push((idx, m.anchor(&mut cache, idx)));
        caches.push(cache);
    }
    let (idx0, phase) = picks[0];
    let program = &caches[0].entries[idx0].program;
    let entered = caches
        .iter()
        .zip(&picks)
        .all(|(c, &(i, p))| p == phase && c.entries[i].program == *program);
    if entered {
        execute(program, phase, lanes, window, false);
        let next = ((u64::from(phase) + window) % u64::from(program.period)) as u32;
        for (c, &(i, _)) in caches.iter_mut().zip(&picks) {
            c.entries[i].next_phase = next;
        }
    }
    for (m, cache) in lanes.iter_mut().zip(caches) {
        m.programs = Some(cache);
    }
    if entered {
        window
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;
    use systolic_ring_isa::dnode::MicroInstr;

    #[test]
    fn content_key_ignores_counters_and_dead_slots() {
        let m = RingMachine::new(RingGeometry::RING_8, MachineParams::PAPER);
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
}
