//! The fused steady-state execution engine.
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
//! # Entry and deoptimization
//!
//! A burst is entered only from [`crate::RingMachine::run`] /
//! [`crate::RingMachine::run_until_halt`] (never from
//! [`crate::RingMachine::step`], so single-cycle stepping and per-cycle
//! tracing always take the decoded path), and only when the machine is
//! *quiescent*: controller halted or mid-`wait`, no fault injector armed,
//! no watchdog, no staged context switch, and the configuration epochs
//! stable for `DETECTION_WINDOW` cycles. Any reconfiguration write, mode
//! flip, sequencer write or context switch bumps an epoch the engine
//! stamps its program with, which invalidates the program
//! ([`crate::Stats::fused_deopts`]) and falls back to the decoded path;
//! arming a fault injector or watchdog does the same. Since nothing that
//! can fault executes inside a burst (no controller instructions, no
//! configuration writes, no detection sweeps), a burst cannot fail
//! mid-flight — the PR-3 cycle-boundary fail-stop contract is preserved
//! bit-for-bit by construction.

use systolic_ring_isa::dnode::{AluOp, DnodeMode};
use systolic_ring_isa::{RingGeometry, Word16};

use crate::controller::CtrlState;
use crate::dnode::DnodeState;
use crate::machine::RingMachine;
use crate::plan::{CtxPlan, DecodedOp, FastSrc};
use crate::switch::{PushOutcome, WordFifo};

/// Cycles the configuration epochs must have been stable before a window
/// is considered steady-state and compiled. Also guarantees the decoded
/// path (and its cache counters) is exercised at the start of every run
/// and after every reconfiguration, so short steady regions between
/// context rewrites still pay for their decode-cache refills before the
/// fused engine takes over.
pub(crate) const DETECTION_WINDOW: u64 = 32;

/// Minimum burst length worth the gather/scatter round trip.
pub(crate) const MIN_BURST: u64 = 8;

/// Flat-index sentinel for "no destination / not present".
const NONE32: u32 = u32::MAX;

/// The configuration-epoch fingerprint a [`FusedProgram`] is valid for.
///
/// Every mutation that could change compiled behaviour bumps one of these
/// monotonic clocks (see [`crate::config::ConfigLayer`] and
/// [`crate::plan::DecodedPlan`]); equality therefore proves the program
/// still matches the machine.
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
    pub(crate) period: u32,
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
    pub(crate) fn find_phase(&self, hint: u32, dnodes: &[DnodeState]) -> Option<u32> {
        let hint = hint % self.period;
        if self.phase_matches(hint, dnodes) {
            return Some(hint);
        }
        (0..self.period).find(|&p| self.phase_matches(p, dnodes))
    }
}

/// Per-machine fused-engine state: the compiled program, the epoch stamps
/// it is valid for, and the stability bookkeeping that gates entry.
#[derive(Clone, Debug, Default)]
pub(crate) struct FusedEngine {
    program: Option<FusedProgram>,
    /// Epoch fingerprint observed at the last quiescent check.
    stamps: Option<FusedStamps>,
    /// Cycles executed since the stamps last changed.
    stable_cycles: u64,
    /// Machine cycle of the last quiescent check.
    last_seen_cycle: u64,
    /// Entry phase prepared for the imminent burst.
    entry_phase: u32,
    /// Phase the next burst is expected to start at (hint).
    next_phase: u32,
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
/// Shared by the fused engine and the AOT phase cache (`crate::aot`).
pub(crate) fn compile(
    cp: &CtxPlan,
    dnodes: &[DnodeState],
    g: RingGeometry,
    depth: usize,
) -> FusedProgram {
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
/// starting at phase `entry`. Every lane must have been prepared
/// (validated + entered) by [`RingMachine::prepare_fused`], and for
/// multi-lane calls the prepared programs must be equal.
///
/// Infallible by construction: nothing inside a burst can raise a
/// [`crate::SimError`] (no controller execution, no configuration writes,
/// no fault machinery).
///
/// `aot` selects which engine's entry/cycle counters account the burst
/// ([`crate::Stats::aot_entries`] vs [`crate::Stats::fused_entries`]); the
/// architectural effects are identical.
pub(crate) fn execute(
    program: &FusedProgram,
    entry: u32,
    lanes: &mut [&mut RingMachine],
    k: u64,
    aot: bool,
) {
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

impl RingMachine {
    /// The current configuration-epoch fingerprint (also the AOT guard's
    /// cheap content-unchanged revalidation: equal stamps prove no
    /// configuration, mode or sequencer write happened in between).
    pub(crate) fn fused_stamps(&self) -> FusedStamps {
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

    /// Drops a live compiled program, counting the deoptimization.
    fn fused_deopt_if_live(&mut self) {
        if let Some(engine) = &mut self.fused {
            if engine.program.take().is_some() {
                self.stats.fused_deopts += 1;
            }
            engine.stamps = None;
            engine.stable_cycles = 0;
        }
    }

    /// Gatekeeper for fused execution: checks quiescence, maintains the
    /// epoch-stability window, compiles (or revalidates) the program and
    /// locates the entry phase. Returns the admissible burst length
    /// (`<= remaining`), or `None` to stay on the decoded path.
    pub(crate) fn prepare_fused(&mut self, remaining: u64) -> Option<u64> {
        if !self.params.fused || !self.params.decode_cache {
            return None;
        }
        if self.fault.is_some() || self.params.watchdog_interval > 0 {
            // Persistent ineligibility: armed fault machinery or watchdog
            // demand the per-cycle bracketing of the decoded path.
            self.fused_deopt_if_live();
            return None;
        }
        let window = match self.controller.state() {
            CtrlState::Halted => remaining,
            CtrlState::Waiting(n) => remaining.min(u64::from(n)),
            CtrlState::Running => 0,
        };
        if window == 0 || self.config.select_pending() {
            // Transient: the program (if any) stays cached; a real
            // configuration change will show up in the stamps.
            return None;
        }
        let stamps = self.fused_stamps();
        let mut engine = self.fused.take().unwrap_or_default();
        let prepared = (|| {
            match engine.stamps {
                Some(prev) if prev == stamps => {
                    engine.stable_cycles += self.cycle - engine.last_seen_cycle;
                }
                Some(_) => {
                    if engine.program.take().is_some() {
                        self.stats.fused_deopts += 1;
                    }
                    engine.stamps = Some(stamps);
                    engine.stable_cycles = 0;
                }
                None => {
                    engine.stamps = Some(stamps);
                    engine.stable_cycles = 0;
                }
            }
            engine.last_seen_cycle = self.cycle;
            if window < MIN_BURST {
                return None;
            }
            if engine.stable_cycles < DETECTION_WINDOW {
                // Stability not yet *observed* — but an attached proof
                // manifest may have *proven* it: past the manifest's
                // stability cycle no configuration write can happen on any
                // execution path, so the detection window is pure warm-up
                // and the engine may engage immediately. The burst itself
                // is bit-identical replay either way; only the entry
                // heuristic is waived.
                match self.proof_stable_from {
                    Some(stable) if self.cycle >= stable => {
                        self.stats.guards_elided += 1;
                    }
                    _ => return None,
                }
            }
            let active = self.config.active_index();
            let misses = self
                .plan
                .refresh(active, &self.config, &self.dnodes, self.geometry);
            if misses > 0 {
                self.stats.decode_cache_misses += misses;
            }
            if engine.program.is_none() {
                engine.program = Some(compile(
                    self.plan.context_plan(active),
                    &self.dnodes,
                    self.geometry,
                    self.params.pipe_depth,
                ));
                engine.next_phase = 0;
            }
            let entry = engine
                .program
                .as_ref()
                .expect("program just ensured")
                .find_phase(engine.next_phase, &self.dnodes);
            engine.entry_phase = match entry {
                Some(p) => p,
                None => {
                    // Sequencer counters no longer line up with the
                    // compiled phase origin: re-anchor at the current
                    // counters (always succeeds with entry phase 0).
                    engine.program = Some(compile(
                        self.plan.context_plan(active),
                        &self.dnodes,
                        self.geometry,
                        self.params.pipe_depth,
                    ));
                    0
                }
            };
            Some(window)
        })();
        self.fused = Some(engine);
        prepared
    }

    /// Attempts one single-lane fused burst of up to `remaining` cycles;
    /// returns the cycles executed (0 = not entered).
    pub(crate) fn try_fused(&mut self, remaining: u64) -> u64 {
        let Some(window) = self.prepare_fused(remaining) else {
            return 0;
        };
        let mut engine = self.fused.take().expect("engine prepared");
        let program = engine.program.take().expect("program prepared");
        let entry = engine.entry_phase;
        {
            let mut lanes = [&mut *self];
            execute(&program, entry, &mut lanes, window, false);
        }
        engine.next_phase = ((u64::from(entry) + window) % u64::from(program.period)) as u32;
        engine.program = Some(program);
        self.fused = Some(engine);
        window
    }
}

/// Steps `lanes` machines in lockstep through one shared fused burst of at
/// most `max_cycles` cycles, returning the cycles executed (0 = the burst
/// was not entered and no machine advanced).
///
/// Entry requires *every* lane to be individually fusible right now (see
/// [`crate::MachineParams::fused`]) and all lanes to have compiled equal
/// programs at the same entry phase — the batch runner arranges this by
/// grouping jobs that share an identical object program and cycle budget.
/// When the burst executes, all lanes advance exactly `max_cycles`
/// (bounded by each lane's own admissible window) over shared lane-major
/// state arrays, so per-cycle schedule-walk costs are paid once for the
/// whole group. Each lane's statistics account the burst with
/// `fused_lane_occupancy = cycles * lanes` (see
/// [`crate::Stats::fused_lane_occupancy`]).
///
/// Machines left unentered (return 0) are completely untouched; callers
/// fall back to stepping them individually.
pub fn lockstep_burst(lanes: &mut [&mut RingMachine], max_cycles: u64) -> u64 {
    if lanes.is_empty() || max_cycles == 0 {
        return 0;
    }
    let mut window = max_cycles;
    for m in lanes.iter_mut() {
        match m.prepare_fused(window) {
            Some(w) => window = window.min(w),
            None => return 0,
        }
    }
    {
        let first = lanes[0].fused.as_ref().expect("prepared");
        let program = first.program.as_ref().expect("prepared");
        let entry = first.entry_phase;
        for m in lanes[1..].iter() {
            let engine = m.fused.as_ref().expect("prepared");
            if engine.entry_phase != entry || engine.program.as_ref() != Some(program) {
                return 0;
            }
        }
    }
    let mut engine0 = lanes[0].fused.take().expect("prepared");
    let program = engine0.program.take().expect("prepared");
    let entry = engine0.entry_phase;
    execute(&program, entry, lanes, window, false);
    let next = ((u64::from(entry) + window) % u64::from(program.period)) as u32;
    engine0.next_phase = next;
    engine0.program = Some(program);
    lanes[0].fused = Some(engine0);
    for m in lanes[1..].iter_mut() {
        m.fused.as_mut().expect("prepared").next_phase = next;
    }
    window
}
