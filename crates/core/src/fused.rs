//! The compiled execution tier.
//!
//! Most DSP kernels run the ring in a *steady state*: the active context's
//! configuration is static for long windows, local-mode Dnodes replay
//! ≤8-instruction loops, and the controller only waits, switches contexts
//! or moves data between its registers, its data memory and the bus. The
//! predecoded cache (`plan`) already removed the per-cycle decode from
//! that regime, but the stepper still pays per-cycle dispatch: a mode
//! match and sequencer index per Dnode, operand matches, staged-write
//! buffering, per-Dnode statistics branches and a host-interface call —
//! every cycle, for work that is known in advance to be identical for the
//! whole window.
//!
//! This module compiles each configuration *once* into a `FusedProgram` —
//! a flat, phase-scheduled operation list — and replays it over a
//! struct-of-arrays snapshot of machine state:
//!
//! * **Phases.** With the configuration frozen, the only per-cycle
//!   variation is the local sequencers' counters, which all advance by one
//!   each cycle. The whole ring is therefore periodic with period
//!   `lcm(limits)` (≤ 840 for limits in 1..=8). Each phase's operations
//!   are fully resolved: operands and write destinations are indices into
//!   one *value file*, bus arbitration is a single precomputed result
//!   index, statistics a per-phase increment list.
//! * **The value file.** Registers, outputs, the bus and a zero word sit
//!   at positions every program of a machine shares, followed by the
//!   running program's constants and the per-cycle staged reads (host
//!   FIFO heads and feedback-pipeline taps). A program switch therefore
//!   rewrites a handful of constants and moves no machine state.
//! * **SoA state.** The value file, the feedback pipelines and the host
//!   FIFOs are gathered into contiguous arrays (lane-major for multi-lane
//!   bursts) and scattered back at the end of the burst, so between
//!   bursts the machine always holds canonical architectural state and
//!   checkpoints, traces and accessors need no special cases. Every
//!   switch captures its upstream layer and switches pair one to one with
//!   layers, so the pipelines together are a ring of the last `depth`
//!   output vectors: one contiguous copy per cycle. Output write stamps
//!   are derived from the schedule at each segment's end.
//! * **Streams in closed form.** On a direct link with no open sink, a
//!   streaming host-input FIFO that cannot fill within the burst receives
//!   one word per cycle until its stream runs dry, so a read `t` cycles
//!   into the burst is bounded by the entry tail plus `t` and the cursors
//!   move once, at the end. Metered links and open sinks step the host
//!   side cycle by cycle (`HostBurst::cycle`).
//! * **Lanes.** [`lockstep_burst`] steps N machines that share one
//!   compiled program in lockstep over lane-major arrays, through the
//!   same replay loop, amortizing the schedule walk across a whole batch
//!   of jobs (the harness groups jobs with identical object programs onto
//!   it).
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
//!   A→B→A, re-enters the cached program. A memo keyed by context index
//!   remembers each context's last resolution under its epoch
//!   fingerprint (`FusedStamps`): equal stamps prove the content
//!   unchanged without re-serializing it, so a schedule that cycles
//!   through a dozen contexts switches programs in O(1).
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
//! per-cycle tracing always take the decoded path), when the compiled tier
//! is on, no fault injector is armed and no context select is staged.
//!
//! * **Single machine.** A cycle may run compiled if the controller is
//!   halted, waiting, or about to execute a *burst-safe* instruction: one
//!   that cannot fault and touches neither the configuration nor a host
//!   FIFO (`Controller::burst_safe`). The burst steps the real controller
//!   on its live bus — `busr` reads the pre-cycle bus, a `busw` wins
//!   arbitration and counts toward `bus_conflicts` with the phase's Dnode
//!   drivers — and after a `ctx` select commits it continues on the cached
//!   program of the new context, one *segment* per context. It stops
//!   *before* any other instruction, which the decoded path then executes,
//!   so a fault is raised at the same cycle, pc and context as on every
//!   other tier; it also ends on the cycle a `halt` retires, keeping
//!   [`crate::RingMachine::run_until_halt`]'s budget exact. A burst that
//!   provably ends within `MIN_BURST` (8) cycles — by the controller's
//!   straight-line reach to its next never-safe instruction — is not
//!   entered.
//! * **Under an armed watchdog** and for **lanes**, only quiet windows
//!   run compiled: every controller halted or mid-`wait`, and with a
//!   watchdog only provably quiet windows (direct link, input streams
//!   drained, no open sinks) bounded to end no later than the earliest
//!   possible trip — so the skipped per-cycle boundary checks are exact
//!   no-ops and a due trip is raised by the decoded path at the same
//!   cycle. Lanes keep this rule because their controllers can branch
//!   apart on their bus values.
//!
//! Nothing that can fault executes inside a burst — the burst-safety
//! pre-check runs before every controller cycle, and configuration writes
//! and detection sweeps never run compiled — so a burst cannot fail
//! mid-flight and the cycle-boundary fail-stop contract holds
//! bit-for-bit.

use systolic_ring_isa::dnode::{AluOp, DnodeMode};
use systolic_ring_isa::{RingGeometry, Word16};

use crate::config::ConfigLayer;
use crate::controller::{CtrlEffect, CtrlPorts, CtrlState};
use crate::dnode::DnodeState;
use crate::error::ConfigError;
use crate::host::HostBurst;
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

/// Flat-index sentinel for "no destination / not present".
const NONE32: u32 = u32::MAX;

/// `tail_base` of a host-input FIFO whose delivery steps per cycle: its
/// own tail bounds every read.
const OPEN: usize = usize::MAX / 2;

/// The configuration-epoch fingerprint the program cache memoizes
/// resolutions under, per context.
///
/// Every mutation that could change compiled behaviour bumps one of these
/// monotonic clocks (see [`crate::config::ConfigLayer`] and
/// [`crate::plan::DecodedPlan`]); equality therefore proves the content
/// key, and so the resolved cache entry, unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FusedStamps {
    cfg_epoch: u64,
    capture_epoch: u64,
    modes_clock: u64,
    seq_clock: u64,
}

/// Positions in the value file that every program of a machine shares:
/// `dnodes * 4` registers, `dnodes` outputs, the bus and a zero word,
/// then the running program's constants and staged reads.
#[derive(Clone, Copy)]
struct Layout {
    dnodes: u32,
}

impl Layout {
    fn reg(self, dnode: usize, reg: usize) -> u32 {
        (dnode * 4 + reg) as u32
    }

    fn out(self, dnode: usize) -> u32 {
        self.dnodes * 4 + dnode as u32
    }

    fn bus(self) -> u32 {
        self.dnodes * 5
    }

    fn zero(self) -> u32 {
        self.dnodes * 5 + 1
    }

    /// First program-specific slot.
    fn scratch(self) -> u32 {
        self.dnodes * 5 + 2
    }
}

/// One lowered Dnode operation: evaluate over three value-file slots.
#[derive(Clone, Copy, Debug, PartialEq)]
struct FusedOp {
    alu: AluOp,
    a: u32,
    b: u32,
    /// Accumulator slot (the zero slot when the op has none).
    acc: u32,
}

/// A host-input FIFO head staged into the value file before a phase.
#[derive(Clone, Copy, Debug, PartialEq)]
struct HostRead {
    /// Flat host-input port, `switch * 2 * width + port`.
    port: u32,
    /// Operand reads of it this phase: the FIFO is popped once, but an
    /// empty FIFO underflows once per read, as the decoded path counts.
    reads: u32,
    slot: u32,
}

/// A feedback-pipeline word staged into the value file before a phase:
/// the output of Dnode `dnode` as it was `stage + 1` cycles ago.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PipeTap {
    dnode: u32,
    /// Logical stage (0 = newest).
    stage: u32,
    slot: u32,
}

/// Per-phase slices into the program's flat tables.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PhaseMeta {
    ops: (u32, u32),
    writes: (u32, u32),
    pops: (u32, u32),
    taps: (u32, u32),
    incs: (u32, u32),
    /// Phase-local result index driving the bus, or [`NONE32`].
    bus: u32,
    /// Dnodes driving the bus this phase.
    drivers: u32,
}

fn range(r: (u32, u32)) -> std::ops::Range<usize> {
    r.0 as usize..r.1 as usize
}

/// A compiled configuration: the whole ring's behaviour for one
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
    depth: u32,
    /// The value-file slot of the bus.
    bus: u32,
    /// All phases' operations, concatenated.
    ops: Vec<FusedOp>,
    /// All phases' commits: `(value-file slot, phase-local op index)`.
    writes: Vec<(u32, u32)>,
    phases: Vec<PhaseMeta>,
    pops: Vec<HostRead>,
    taps: Vec<PipeTap>,
    /// Per-phase statistics increments: `(dnode, uses multiplier)`.
    incs: Vec<(u32, bool)>,
    /// Constants, stored from the first program-specific slot on.
    consts: Vec<Word16>,
    /// Slots staged per phase at most (after the constants).
    staged: u32,
    /// Host captures (static across phases): `(flat host-output port,
    /// output slot)`, the port flattened as `switch * width + port`.
    captures: Vec<(u32, u32)>,
    /// Local-mode Dnodes: `(dnode, limit, counter at phase 0)`.
    locals: Vec<(u32, u8, u8)>,
    /// Every output write: `(dnode, phase)`; a segment's last write of
    /// each output stamps it.
    out_writes: Vec<(u32, u32)>,
    /// Widest phase (sizes the result buffer).
    max_phase_ops: u32,
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

/// A value read staged before a phase.
#[derive(Clone, Copy, PartialEq)]
enum Staged {
    Host(u32),
    Tap { dnode: u32, stage: u32 },
}

/// Operand sources while compiling: constants and staged reads get their
/// final slots once every phase is lowered.
const CONST_TAG: u32 = 1 << 31;
const STAGED_TAG: u32 = 1 << 30;

/// Per-phase lowering state.
struct Lowering<'a> {
    layout: Layout,
    geometry: RingGeometry,
    consts: &'a mut Vec<Word16>,
    staged: Vec<Staged>,
    reads: Vec<u32>,
}

impl Lowering<'_> {
    fn stage(&mut self, key: Staged) -> u32 {
        let j = match self.staged.iter().position(|&k| k == key) {
            Some(j) => j,
            None => {
                self.staged.push(key);
                self.reads.push(0);
                self.staged.len() - 1
            }
        };
        self.reads[j] += 1;
        STAGED_TAG | j as u32
    }

    /// Lowers a [`FastSrc`] read by Dnode `d`.
    fn src(&mut self, src: FastSrc, d: usize) -> u32 {
        match src {
            FastSrc::Const(word) => {
                let k = match self.consts.iter().position(|&c| c == word) {
                    Some(k) => k,
                    None => {
                        self.consts.push(word);
                        self.consts.len() - 1
                    }
                };
                CONST_TAG | k as u32
            }
            FastSrc::Reg(reg) => self.layout.reg(d, reg.index()),
            FastSrc::Bus => self.layout.bus(),
            FastSrc::Out(index) => self.layout.out(index),
            FastSrc::Pipe {
                switch,
                stage,
                lane,
            } => {
                // Switch `switch` captures its upstream layer every cycle.
                let g = self.geometry;
                let dnode = g.dnode_index(g.upstream_layer(switch), lane);
                self.stage(Staged::Tap {
                    dnode: dnode as u32,
                    stage: stage as u32,
                })
            }
            FastSrc::HostIn { switch, port } => self.stage(Staged::Host(
                (switch * 2 * self.geometry.width() + port) as u32,
            )),
        }
    }
}

/// Compiles the active context's decoded plan into a [`FusedProgram`],
/// with phase 0 anchored at the local sequencers' *current* counters.
fn compile(cp: &CtxPlan, dnodes: &[DnodeState], g: RingGeometry, depth: usize) -> FusedProgram {
    let width = g.width();
    let layout = Layout {
        dnodes: g.dnodes() as u32,
    };
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
    let mut writes = Vec::new();
    let mut phases = Vec::with_capacity(period as usize);
    let mut pops = Vec::new();
    let mut taps = Vec::new();
    let mut incs: Vec<(u32, bool)> = Vec::new();
    let mut consts = Vec::new();
    let mut out_writes = Vec::new();
    let mut max_phase_ops = 0u32;
    let mut staged = 0u32;

    for phase in 0..period {
        let ops_start = ops.len() as u32;
        let writes_start = writes.len() as u32;
        let incs_start = incs.len() as u32;
        let mut lower = Lowering {
            layout,
            geometry: g,
            consts: &mut consts,
            staged: Vec::new(),
            reads: Vec::new(),
        };
        let mut bus = NONE32;
        let mut drivers = 0u32;
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
            let i = ops.len() as u32 - ops_start;
            let a = lower.src(op.a, d);
            let b = lower.src(op.b, d);
            if op.wr_bus {
                if bus == NONE32 {
                    bus = i;
                }
                drivers += 1;
            }
            if op.active {
                incs.push((d32, op.mult));
            }
            if let Some(reg) = op.wr_reg {
                writes.push((layout.reg(d, reg.index()), i));
            }
            if op.wr_out {
                writes.push((layout.out(d), i));
                out_writes.push((d32, phase));
            }
            ops.push(FusedOp {
                alu: op.alu,
                a,
                b,
                acc: op.acc.map_or(layout.zero(), |r| layout.reg(d, r.index())),
            });
        }
        let pops_start = pops.len() as u32;
        let taps_start = taps.len() as u32;
        for (j, (&key, &reads)) in lower.staged.iter().zip(&lower.reads).enumerate() {
            let slot = STAGED_TAG | j as u32;
            match key {
                Staged::Host(port) => pops.push(HostRead { port, reads, slot }),
                Staged::Tap { dnode, stage } => taps.push(PipeTap { dnode, stage, slot }),
            }
        }
        staged = staged.max(lower.staged.len() as u32);
        phases.push(PhaseMeta {
            ops: (ops_start, ops.len() as u32),
            writes: (writes_start, writes.len() as u32),
            pops: (pops_start, pops.len() as u32),
            taps: (taps_start, taps.len() as u32),
            incs: (incs_start, incs.len() as u32),
            bus,
            drivers,
        });
        max_phase_ops = max_phase_ops.max(ops.len() as u32 - ops_start);
    }

    // Final slots: constants first, then the staged reads.
    let scratch = layout.scratch();
    let staged_base = scratch + consts.len() as u32;
    let slot = |src: u32| {
        if src & CONST_TAG != 0 {
            scratch + (src & !CONST_TAG)
        } else if src & STAGED_TAG != 0 {
            staged_base + (src & !STAGED_TAG)
        } else {
            src
        }
    };
    for op in &mut ops {
        op.a = slot(op.a);
        op.b = slot(op.b);
    }
    for pop in &mut pops {
        pop.slot = slot(pop.slot);
    }
    for tap in &mut taps {
        tap.slot = slot(tap.slot);
    }

    let captures = cp
        .captures
        .iter()
        .map(|c| ((c.switch * width + c.port) as u32, layout.out(c.src)))
        .collect();

    FusedProgram {
        period,
        dnodes: layout.dnodes,
        depth: depth as u32,
        bus: layout.bus(),
        ops,
        writes,
        phases,
        pops,
        taps,
        incs,
        consts,
        staged,
        captures,
        locals,
        out_writes,
        max_phase_ops,
    }
}

/// The lane-major working state of one compiled burst: the value file,
/// the feedback pipelines and the host FIFOs of every lane, plus what the
/// burst accounts on its way. Kept in the program cache between bursts so
/// its buffers are reused.
#[derive(Clone, Debug, Default)]
pub(crate) struct BurstState {
    lanes: usize,
    /// The value file, `slot * lanes + lane`.
    vals: Vec<Word16>,
    results: Vec<Word16>,
    /// The feedback pipelines as a ring of the last `depth` output
    /// vectors, `(physical stage * dnodes + dnode) * lanes + lane`: every
    /// switch captures its upstream layer, and switches pair one to one
    /// with layers, so logical stage `s` of all the pipelines together is
    /// the output vector of `s + 1` cycles ago.
    history: Vec<Word16>,
    /// Physical index of logical pipeline stage 0; rotation decrements it.
    head: usize,
    host_in: Vec<WordFifo>,
    host_out: Vec<WordFifo>,
    /// Per host-input FIFO: its tail at entry under closed-form delivery
    /// (a read `t` cycles in is bounded by this plus `t`), else [`OPEN`].
    tail_base: Vec<usize>,
    hosts: Vec<HostBurst>,
    /// Lanes whose host side steps per cycle.
    stepped: Vec<usize>,
    under: Vec<u64>,
    over: Vec<u64>,
    stamps: Vec<Option<u64>>,
    /// Per lane: the machine cycle at entry.
    bases: Vec<u64>,
    /// Cycles replayed so far.
    t: u64,
}

impl BurstState {
    /// Moves the lanes' datapath and host FIFOs into the burst. A lane's
    /// streams are delivered in closed form when none of its FIFOs can
    /// fill within `bound` cycles.
    fn gather(&mut self, lanes: &mut [&mut RingMachine], bound: u64) {
        let l = lanes.len();
        let g = lanes[0].geometry;
        let (nd, width, nsw) = (g.dnodes(), g.width(), g.switches());
        let depth = lanes[0].params.pipe_depth;
        let layout = Layout { dnodes: nd as u32 };
        let in_ports = 2 * width;
        self.lanes = l;
        self.vals.clear();
        self.vals
            .resize(layout.scratch() as usize * l, Word16::ZERO);
        self.history.clear();
        self.history.resize(depth * nd * l, Word16::ZERO);
        self.head = 0;
        self.host_in.clear();
        self.host_in
            .resize_with(nsw * in_ports * l, WordFifo::default);
        self.host_out.clear();
        self.host_out
            .resize_with(nsw * width * l, WordFifo::default);
        self.tail_base.clear();
        self.tail_base.resize(nsw * in_ports * l, OPEN);
        self.hosts.clear();
        self.stepped.clear();
        self.under.clear();
        self.under.resize(l, 0);
        self.over.clear();
        self.over.resize(l, 0);
        self.stamps.clear();
        self.stamps.resize(nd * l, None);
        self.bases.clear();
        self.t = 0;
        for (lane, m) in lanes.iter_mut().enumerate() {
            self.bases.push(m.cycle);
            self.vals[layout.bus() as usize * l + lane] = m.bus;
            for d in 0..nd {
                for (r, word) in m.dnodes[d].regs_raw().into_iter().enumerate() {
                    self.vals[layout.reg(d, r) as usize * l + lane] = word;
                }
                self.vals[layout.out(d) as usize * l + lane] = m.dnodes[d].out();
                self.stamps[d * l + lane] = m.dnodes[d].out_written_at();
            }
            let closed = m
                .host
                .closed_form_room(&m.switches)
                .is_some_and(|room| room >= bound);
            self.hosts.push(m.host.begin_burst(&m.switches));
            if !closed {
                self.stepped.push(lane);
            }
            for s in 0..nsw {
                let switch = &mut m.switches[s];
                let layer = g.upstream_layer(s);
                for st in 0..depth {
                    for w in 0..width {
                        let d = g.dnode_index(layer, w);
                        self.history[(st * nd + d) * l + lane] = switch.pipe.read(st, w);
                    }
                }
                for (p, fifo) in switch.host_in.iter_mut().enumerate() {
                    let i = (s * in_ports + p) * l + lane;
                    self.host_in[i] = std::mem::take(fifo);
                    if closed {
                        self.tail_base[i] = self.host_in[i].open_stream();
                    }
                }
                for (p, fifo) in switch.host_out.iter_mut().enumerate() {
                    self.host_out[(s * width + p) * l + lane] = std::mem::take(fifo);
                }
            }
        }
    }

    /// Sizes the value file and result buffer for `program` and stores
    /// its constants: all a program switch costs.
    fn enter(&mut self, program: &FusedProgram, layout: Layout) {
        let l = self.lanes;
        let scratch = layout.scratch() as usize;
        let slots = scratch + program.consts.len() + program.staged as usize;
        if self.vals.len() < slots * l {
            self.vals.resize(slots * l, Word16::ZERO);
        }
        for (k, &word) in program.consts.iter().enumerate() {
            self.vals[(scratch + k) * l..(scratch + k + 1) * l].fill(word);
        }
        let results = program.max_phase_ops as usize * l;
        if self.results.len() < results {
            self.results.resize(results, Word16::ZERO);
        }
    }

    /// Moves everything back into the lanes after `self.t` cycles.
    fn scatter(&mut self, lanes: &mut [&mut RingMachine]) {
        let l = self.lanes;
        let t = self.t;
        let head = self.head;
        for (lane, (m, mut host)) in lanes.iter_mut().zip(self.hosts.drain(..)).enumerate() {
            let g = m.geometry;
            let (nd, width) = (g.dnodes(), g.width());
            let depth = m.params.pipe_depth;
            let layout = Layout { dnodes: nd as u32 };
            let in_ports = 2 * width;
            for d in 0..nd {
                let regs = std::array::from_fn(|r| self.vals[layout.reg(d, r) as usize * l + lane]);
                let out = self.vals[layout.out(d) as usize * l + lane];
                m.dnodes[d].scatter_raw(regs, out, self.stamps[d * l + lane]);
            }
            for (s, switch) in m.switches.iter_mut().enumerate() {
                let layer = g.upstream_layer(s);
                for st in 0..depth {
                    let phys = (head + st) % depth;
                    for w in 0..width {
                        let d = g.dnode_index(layer, w);
                        switch
                            .pipe
                            .poke(st, w, self.history[(phys * nd + d) * l + lane]);
                    }
                }
                for (p, fifo) in switch.host_in.iter_mut().enumerate() {
                    let i = (s * in_ports + p) * l + lane;
                    *fifo = std::mem::take(&mut self.host_in[i]);
                    if self.tail_base[i] != OPEN {
                        host.add_delivered(fifo.close_stream(self.tail_base[i], t));
                    }
                    fifo.settle();
                }
                for (p, fifo) in switch.host_out.iter_mut().enumerate() {
                    *fifo = std::mem::take(&mut self.host_out[(s * width + p) * l + lane]);
                }
            }
            m.host.end_burst(host, t, &mut m.stats);
            m.bus = self.vals[layout.bus() as usize * l + lane];
            m.stats.fifo_underflows += self.under[lane];
            m.stats.fifo_overflows += self.over[lane];
            m.cycle += t;
            m.stats.cycles += t;
        }
    }
}

/// Replays `n` cycles of `program` from phase `phase` over every lane of
/// `st` in lockstep, returning the phase that follows. The one replay
/// loop of the compiled tier: single-machine segments call it with
/// `L = 1`, lane groups with their width.
///
/// Infallible by construction: nothing it executes can raise a
/// [`crate::SimError`].
fn replay<const L: usize>(program: &FusedProgram, st: &mut BurstState, phase: u32, n: u64) -> u32 {
    let l = if L == 0 { st.lanes } else { L };
    let depth = program.depth as usize;
    let bus = program.bus as usize;
    // The outputs' slots, one contiguous stretch of the value file.
    let outs = (program.dnodes * 4) as usize * l..bus * l;
    let BurstState {
        vals,
        results,
        history,
        head,
        host_in,
        host_out,
        tail_base,
        hosts,
        stepped,
        under,
        over,
        t,
        ..
    } = st;
    let mut phase = phase;
    for _ in 0..n {
        let pm = &program.phases[phase as usize];
        // Stage and pop the host-input FIFO heads read this phase, and the
        // pipeline taps; the operations below read only staged values.
        let now = *t as usize;
        for read in &program.pops[range(pm.pops)] {
            for lane in 0..l {
                let fifo = read.port as usize * l + lane;
                vals[read.slot as usize * l + lane] = host_in[fifo]
                    .pop_below(tail_base[fifo] + now)
                    .unwrap_or_else(|| {
                        under[lane] += u64::from(read.reads);
                        Word16::ZERO
                    });
            }
        }
        for tap in &program.taps[range(pm.taps)] {
            let mut phys = *head + tap.stage as usize;
            if phys >= depth {
                phys -= depth;
            }
            let word = (phys * program.dnodes as usize + tap.dnode as usize) * l;
            for lane in 0..l {
                vals[tap.slot as usize * l + lane] = history[word + lane];
            }
        }
        // Evaluate this phase's operations against pre-cycle state.
        let ops = &program.ops[range(pm.ops)];
        for (i, op) in ops.iter().enumerate() {
            let (a, b, acc) = (op.a as usize * l, op.b as usize * l, op.acc as usize * l);
            for lane in 0..l {
                results[i * l + lane] =
                    op.alu
                        .eval(vals[a + lane], vals[b + lane], vals[acc + lane]);
            }
        }
        // Host traffic of the lanes that step it per cycle.
        for &lane in stepped.iter() {
            hosts[lane].cycle(lane, l, host_in, host_out);
        }
        // Host captures from pre-commit outputs, in commit order.
        for &(port, src) in &program.captures {
            for lane in 0..l {
                let word = vals[src as usize * l + lane];
                if host_out[port as usize * l + lane].push(word) == PushOutcome::Dropped {
                    over[lane] += 1;
                }
            }
        }
        // Feedback pipelines: evict the oldest stage, capture the
        // pre-commit output vector as the new stage 0.
        *head = if *head == 0 { depth - 1 } else { *head - 1 };
        let stage = *head * outs.len();
        history[stage..stage + outs.len()].copy_from_slice(&vals[outs.clone()]);
        // Commit register and output writes, then the Dnodes' bus drive
        // (lowest index wins; the bus holds its value on driverless
        // cycles).
        for &(dst, i) in &program.writes[range(pm.writes)] {
            for lane in 0..l {
                vals[dst as usize * l + lane] = results[i as usize * l + lane];
            }
        }
        if pm.bus != NONE32 {
            for lane in 0..l {
                vals[bus * l + lane] = results[pm.bus as usize * l + lane];
            }
        }
        *t += 1;
        phase += 1;
        if phase == program.period {
            phase = 0;
        }
    }
    phase
}

/// [`replay`] monomorphized for the hot lane counts: a literal `L` lets
/// every `* l + lane` fold to a plain index and the per-lane loops unroll
/// (1 = a single machine, 16 = a full lane group in the batch runner).
fn replay_lanes(program: &FusedProgram, st: &mut BurstState, phase: u32, n: u64) -> u32 {
    match st.lanes {
        1 => replay::<1>(program, st, phase, n),
        16 => replay::<16>(program, st, phase, n),
        _ => replay::<0>(program, st, phase, n),
    }
}

/// Books one segment on `lane`'s machine: the cycles of `program` from
/// `t0` cycles into the burst up to now, entered at phase `entry`. Counts
/// the phases' statistics in bulk, stamps each output with its last write
/// and leaves the local sequencers' counters where the segment ends. The
/// segment counts as one compiled-program entry, under `aot_*` or
/// `fused_*`.
fn account(
    program: &FusedProgram,
    entry: u32,
    t0: u64,
    st: &mut BurstState,
    m: &mut RingMachine,
    lane: usize,
    aot: bool,
) {
    let l = st.lanes;
    let k = st.t - t0;
    let period = u64::from(program.period);
    let entry = u64::from(entry);
    // Cycles into the segment of the first execution of `phase`.
    let first = |phase: u32| (u64::from(phase) + period - entry) % period;
    for (p, pm) in program.phases.iter().enumerate() {
        let n = k / period + u64::from(first(p as u32) < k % period);
        if n == 0 {
            continue;
        }
        for &(d, mult) in &program.incs[range(pm.incs)] {
            let ds = &mut m.stats.dnodes[d as usize];
            ds.active_cycles += n;
            ds.alu_ops += n;
            if mult {
                ds.mult_ops += n;
            }
        }
        if pm.drivers >= 2 {
            m.stats.bus_conflicts += n;
        }
    }
    let base = st.bases[lane] + t0;
    for &(d, phase) in &program.out_writes {
        let off = first(phase);
        if off < k {
            let last = off + (k - 1 - off) / period * period;
            let stamp = &mut st.stamps[d as usize * l + lane];
            *stamp = (*stamp).max(Some(base + last));
        }
    }
    for &(d, limit, base) in &program.locals {
        let cpt = ((u64::from(base) + entry + k) % u64::from(limit)) as u8;
        m.dnodes[d as usize].sequencer_mut().set_counter_raw(cpt);
        m.stats.dnodes[d as usize].local_cycles += k;
    }
    if aot {
        m.stats.aot_entries += 1;
        m.stats.aot_cycles += k;
    } else {
        m.stats.fused_entries += 1;
        m.stats.fused_cycles += k;
        m.stats.fused_lane_occupancy += k * l as u64;
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

/// Per-machine compiled-tier state: the content-keyed program cache, the
/// per-context memo that skips re-serialization on already-seen epochs,
/// and the burst buffers.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProgramCache {
    entries: Vec<CacheEntry>,
    /// Per context index: the stamps it was last resolved under and the
    /// entry they resolved to. An equal fingerprint proves the content
    /// key (and therefore the entry) without re-serializing it, because
    /// every content mutation bumps an epoch or clock in the fingerprint.
    ctx_memo: Vec<Option<(FusedStamps, usize)>>,
    scratch: BurstState,
}

impl ProgramCache {
    fn insert(&mut self, entry: CacheEntry) -> usize {
        if self.entries.len() >= PROGRAM_CACHE_CAP {
            self.entries.remove(0);
            // Indices shifted: the memo may name wrong entries now.
            self.ctx_memo.clear();
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

/// The controller's environment inside a burst: the pre-cycle bus. `hpop`
/// is never burst-safe, so the burst stops before one executes.
struct BurstPorts(Word16);

impl CtrlPorts for BurstPorts {
    fn bus(&self) -> Word16 {
        self.0
    }

    fn hpop(&mut self, _switch: usize, _port: usize) -> Result<Option<Word16>, ConfigError> {
        unreachable!("hpop is never burst-safe")
    }
}

/// The program a single-machine burst is replaying: a cache entry, the
/// phase it was entered at and the one it has reached, and the burst
/// cycle it started at.
#[derive(Clone, Copy)]
struct Segment {
    idx: usize,
    entry: u32,
    phase: u32,
    t0: u64,
}

impl RingMachine {
    /// The active context's configuration-epoch fingerprint.
    fn fused_stamps(&self) -> FusedStamps {
        let ctx = self.config.active_index();
        let (modes_clock, seq_clock) = self.plan.clocks();
        FusedStamps {
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
    /// under the active context's epoch stamps for the next resolution.
    fn resolve(&mut self, cache: &mut ProgramCache) -> usize {
        let ctx = self.config.active_index();
        let stamps = self.fused_stamps();
        if let Some(&Some((seen, idx))) = cache.ctx_memo.get(ctx) {
            if seen == stamps {
                return idx;
            }
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
        if cache.ctx_memo.len() <= ctx {
            cache.ctx_memo.resize(ctx + 1, None);
        }
        cache.ctx_memo[ctx] = Some((stamps, idx));
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

    /// `true` unless something demands per-cycle stepping: the compiled
    /// tier switched off, an armed fault injector (its injection and
    /// detection bracket every cycle) or a staged context select.
    pub(crate) fn may_burst(&self) -> bool {
        self.params.fused
            && self.params.decode_cache
            && self.fault.is_none()
            && !self.config.select_pending()
    }

    /// The quiet-window rule of lane groups and of bursts under an armed
    /// watchdog (see the module docs). Returns the cycles a burst may
    /// cover from here, at most `remaining`, or 0 to stay on the decoded
    /// path.
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

    /// The admission rule of a single-machine burst (see the module docs):
    /// the most cycles it may cover from here, at most `remaining`, or 0
    /// to stay on the decoded path. Closed-form stream delivery caps the
    /// bound where a streaming FIFO could fill.
    fn admit(&mut self, remaining: u64) -> u64 {
        if self.params.watchdog_interval > 0 {
            return self.quiet_window(remaining);
        }
        if !self.may_burst() || !self.controller.burst_safe(self.config.contexts()) {
            return 0;
        }
        let mut bound = remaining;
        if let Some(room) = self.host.closed_form_room(&self.switches) {
            if room >= MIN_BURST {
                bound = bound.min(room);
            }
        }
        if bound.min(self.controller.burst_reach()) < MIN_BURST {
            0
        } else {
            bound
        }
    }

    /// Attempts one compiled burst of up to `remaining` cycles. Returns
    /// the cycles executed (0 = not entered).
    pub(crate) fn try_burst(&mut self, remaining: u64) -> u64 {
        let bound = self.admit(remaining);
        if bound == 0 {
            return 0;
        }
        let mut cache = self.programs.take().unwrap_or_default();
        let mut st = std::mem::take(&mut cache.scratch);
        st.gather(&mut [&mut *self], bound);
        self.run_segments(&mut cache, &mut st, bound);
        st.scatter(&mut [&mut *self]);
        let cycles = st.t;
        cache.scratch = st;
        self.programs = Some(cache);
        cycles
    }

    /// The single-machine burst loop: replays the active context's
    /// program while the controller is quiet, steps the controller on
    /// each cycle it runs, and moves to the new context's program after
    /// each `ctx` switch. Stops at `bound` cycles, before a cycle that is
    /// not burst-safe, or on the cycle a `halt` retires.
    fn run_segments(&mut self, cache: &mut ProgramCache, st: &mut BurstState, bound: u64) {
        let contexts = self.config.contexts();
        let layout = Layout {
            dnodes: self.geometry.dnodes() as u32,
        };
        let aot = self.params.aot;
        let mut segment: Option<Segment> = None;
        while st.t < bound {
            let quiet = match self.controller.state() {
                CtrlState::Halted => bound - st.t,
                CtrlState::Waiting(n) => u64::from(n).min(bound - st.t),
                CtrlState::Running => 0,
            };
            if quiet == 0 && !self.controller.burst_safe(contexts) {
                break;
            }
            let mut seg = match segment {
                Some(seg) => seg,
                None => {
                    let idx = self.resolve(cache);
                    let phase = self.anchor(cache, idx);
                    st.enter(&cache.entries[idx].program, layout);
                    Segment {
                        idx,
                        entry: phase,
                        phase,
                        t0: st.t,
                    }
                }
            };
            let program = &cache.entries[seg.idx].program;
            if quiet > 0 {
                seg.phase = replay::<1>(program, st, seg.phase, quiet);
                if let CtrlState::Waiting(_) = self.controller.state() {
                    self.controller.skip_wait(quiet);
                }
                self.stats.ctrl_stall_cycles += quiet;
                segment = Some(seg);
                continue;
            }
            // One cycle with the controller running: it reads the
            // pre-cycle bus, and its effect commits with the fabric's.
            let bus = st.vals[layout.bus() as usize];
            let step = self
                .controller
                .step(&mut BurstPorts(bus))
                .expect("a burst-safe instruction cannot fault");
            let drivers = program.phases[seg.phase as usize].drivers;
            seg.phase = replay::<1>(program, st, seg.phase, 1);
            if step.retired {
                self.stats.ctrl_instrs += 1;
            } else {
                self.stats.ctrl_stall_cycles += 1;
            }
            segment = Some(seg);
            match step.effect {
                None => {}
                Some(CtrlEffect::DriveBus(word)) => {
                    // The controller wins arbitration; with one Dnode
                    // driver too that is a conflict the phase's bulk
                    // count (two or more Dnode drivers) does not include.
                    if drivers == 1 {
                        self.stats.bus_conflicts += 1;
                    }
                    st.vals[layout.bus() as usize] = word;
                }
                Some(CtrlEffect::SetActiveCtx(ctx)) => {
                    self.config
                        .stage_select(ctx)
                        .expect("burst-safe ctx index is in range");
                    if self.config.commit() {
                        self.stats.ctx_switches += 1;
                        self.end_segment(cache, st, seg, aot);
                        segment = None;
                    }
                }
                Some(other) => unreachable!("{other:?} is not burst-safe"),
            }
            if self.controller.is_halted() {
                break;
            }
        }
        if let Some(seg) = segment {
            self.end_segment(cache, st, seg, aot);
        }
    }

    /// Closes a single-machine segment: books it and remembers where its
    /// program's phase stopped.
    fn end_segment(
        &mut self,
        cache: &mut ProgramCache,
        st: &mut BurstState,
        seg: Segment,
        aot: bool,
    ) {
        let entry = &mut cache.entries[seg.idx];
        entry.next_phase = seg.phase;
        account(&entry.program, seg.entry, seg.t0, st, self, 0, aot);
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
    let entered = {
        let program = &caches[0].entries[idx0].program;
        caches
            .iter()
            .zip(&picks)
            .all(|(c, &(i, p))| p == phase && c.entries[i].program == *program)
    };
    if entered {
        let mut st = std::mem::take(&mut caches[0].scratch);
        let layout = Layout {
            dnodes: lanes[0].geometry.dnodes() as u32,
        };
        st.gather(lanes, window);
        let program = &caches[0].entries[idx0].program;
        st.enter(program, layout);
        let next = replay_lanes(program, &mut st, phase, window);
        for (lane, m) in lanes.iter_mut().enumerate() {
            account(program, phase, 0, &mut st, m, lane, false);
            // The controller spent the whole burst halted or waiting.
            if let CtrlState::Waiting(_) = m.controller.state() {
                m.controller.skip_wait(window);
            }
            m.stats.ctrl_stall_cycles += window;
        }
        st.scatter(lanes);
        caches[0].scratch = st;
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
    use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
    use systolic_ring_isa::dnode::{MicroInstr, Operand, Reg};
    use systolic_ring_isa::object::{Object, Preload};
    use systolic_ring_isa::switch::PortSource;

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

    fn aot_params() -> MachineParams {
        MachineParams::PAPER
            .with_decode_cache(true)
            .with_fused(true)
            .with_aot(true)
    }

    fn mac_object() -> Object {
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
        let decoded = run(MachineParams::PAPER
            .with_decode_cache(true)
            .with_fused(false));
        let aot = run(aot_params());
        assert_eq!(decoded, aot);
    }

    /// A context ping-pong loop whose controller never waits runs
    /// compiled end to end, one program entry per per-context segment,
    /// with counters bit-identical to decoded.
    #[test]
    fn running_controller_burst_covers_a_context_ping_pong() {
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
        let decoded = run(MachineParams::PAPER.with_fused(false));
        let aot = run(aot_params());
        assert_eq!(
            decoded, aot,
            "running-controller bursts must be cycle-exact"
        );

        let mut m = RingMachine::new(RingGeometry::RING_8, aot_params());
        m.load(&object).unwrap();
        m.run(128).unwrap();
        let stats = m.stats();
        assert_eq!(stats.aot_cycles, 128, "the whole run is compiled");
        assert_eq!(stats.ctx_switches, 48, "24 rounds of ctx 1 / ctx 0");
        assert_eq!(
            stats.aot_entries,
            stats.ctx_switches + 2,
            "one entry per context segment: the pre-switch setup, one per \
             switch, and the halted tail"
        );
        assert_eq!(stats.compiles, 2, "one program per context");
    }

    /// Nothing is compiled at load: the first window reaches the tier as a
    /// guard miss, which compiles its configuration and enters it at once.
    #[test]
    fn first_window_is_stitched_on_a_guard_miss() {
        let mut m = RingMachine::new(RingGeometry::RING_8, aot_params());
        m.load(&mac_object()).unwrap();
        assert_eq!(m.cached_programs(), 0, "load compiles nothing");
        m.run(40).unwrap();
        assert_eq!(m.stats().guard_misses, 1);
        assert_eq!(m.stats().compiles, 1);
        assert!(m.stats().aot_cycles > 0);
        assert_eq!(m.stats().fused_entries, 0, "aot-tier bursts count as aot");
    }
}
