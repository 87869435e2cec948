//! The predecoded configuration cache behind [`crate::RingMachine`]'s fast
//! execution path.
//!
//! The configuration layer stores decoded microinstructions and port
//! sources, but the reference stepper still pays a per-cycle tax the
//! hardware never would: it allocates per-cycle scratch vectors, resolves
//! every operand through a two-level `Operand` → `PortSource` match, and
//! processes every Dnode — including the all-NOP idle ones — on every
//! cycle. This module decodes each distinct configuration *once* into
//! dense, fully pre-resolved [`DecodedOp`]s:
//!
//! * every operand collapses to a [`FastSrc`] — a constant, a register, a
//!   flat upstream-output index, a `(switch, stage, lane)` pipeline tap or
//!   a `(switch, port)` host FIFO — so execution is one match away from
//!   the value;
//! * the per-context work list holds only the Dnodes that can have an
//!   architectural effect (plus every local-mode Dnode, whose sequencer
//!   must advance), in ascending flat order so bus-arbitration priority is
//!   preserved;
//! * the host-capture crossbar is flattened to a `(switch, port,
//!   source-Dnode)` list in commit order;
//! * local-mode loops are unrolled: all eight sequencer slots of a
//!   local-mode Dnode are decoded against the active context's routing, so
//!   the counter indexes straight into a plan array.
//!
//! Plans are keyed per context and validated against the monotonic write
//! epochs kept by [`ConfigLayer`] (see its docs), plus machine-level
//! clocks for mode flips and local-sequencer writes; a controller write
//! invalidates exactly the touched entries. The reference path never
//! consults this module, which is what makes it a differential oracle for
//! the fast path.

use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg, LOCAL_SLOTS};
use systolic_ring_isa::switch::PortSource;
use systolic_ring_isa::{RingGeometry, Word16};

use crate::config::{ConfigLayer, Context};
use crate::dnode::DnodeState;

/// A fully pre-resolved operand source: one match from a value.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FastSrc {
    /// A compile-time constant (`Zero`, `One`, the immediate, or a port
    /// routed from `PortSource::Zero`).
    Const(Word16),
    /// The executing Dnode's own register.
    Reg(Reg),
    /// The shared bus.
    Bus,
    /// The registered output of the Dnode at this flat index.
    Out(usize),
    /// A feedback-pipeline tap.
    Pipe {
        /// Switch owning the pipeline.
        switch: usize,
        /// Stage (0 = newest capture).
        stage: usize,
        /// Lane within the stage.
        lane: usize,
    },
    /// A host-input FIFO head (consuming: the head is popped at commit).
    HostIn {
        /// Switch owning the FIFO.
        switch: usize,
        /// Host-input port on that switch.
        port: usize,
    },
}

/// One Dnode's fully decoded work for one configuration word.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedOp {
    pub(crate) alu: AluOp,
    pub(crate) a: FastSrc,
    pub(crate) b: FastSrc,
    /// Accumulator register, pre-gated on `alu.uses_accumulator()`.
    pub(crate) acc: Option<Reg>,
    pub(crate) wr_reg: Option<Reg>,
    pub(crate) wr_out: bool,
    pub(crate) wr_bus: bool,
    /// `alu != Nop`: counts toward activity statistics.
    pub(crate) active: bool,
    pub(crate) mult: bool,
    /// No architectural effect at all: not active, writes nothing, and
    /// consumes no host FIFO word. Skippable without observable difference.
    pub(crate) skip: bool,
}

impl DecodedOp {
    /// Decodes `instr` as executed by the Dnode at (`layer`, `lane`) under
    /// context `ctx`'s routing.
    fn decode(
        instr: &MicroInstr,
        layer: usize,
        lane: usize,
        ctx: &Context,
        g: RingGeometry,
    ) -> DecodedOp {
        let a = fast_operand(instr.src_a, instr, layer, lane, ctx, g);
        let b = fast_operand(instr.src_b, instr, layer, lane, ctx, g);
        let active = instr.alu != AluOp::Nop;
        // A Dnode whose operands tap a host FIFO pops (and may underflow)
        // that FIFO even if the result goes nowhere — it cannot be skipped.
        let consumes = matches!(a, FastSrc::HostIn { .. }) || matches!(b, FastSrc::HostIn { .. });
        let work = active || instr.wr_reg.is_some() || instr.wr_out || instr.wr_bus;
        DecodedOp {
            alu: instr.alu,
            a,
            b,
            acc: instr.wr_reg.filter(|_| instr.alu.uses_accumulator()),
            wr_reg: instr.wr_reg,
            wr_out: instr.wr_out,
            wr_bus: instr.wr_bus,
            active,
            mult: instr.alu.uses_multiplier(),
            skip: !work && !consumes,
        }
    }
}

/// Resolves an operand of the Dnode at (`layer`, `lane`) to a [`FastSrc`].
fn fast_operand(
    operand: Operand,
    instr: &MicroInstr,
    layer: usize,
    lane: usize,
    ctx: &Context,
    g: RingGeometry,
) -> FastSrc {
    let port = |p: usize| fast_source(ctx.port(g.width(), layer, lane, p), layer, g);
    match operand {
        Operand::Reg(reg) => FastSrc::Reg(reg),
        Operand::In1 => port(0),
        Operand::In2 => port(1),
        Operand::Fifo1 => port(2),
        Operand::Fifo2 => port(3),
        Operand::Bus => FastSrc::Bus,
        Operand::Imm => FastSrc::Const(instr.imm),
        Operand::Zero => FastSrc::Const(Word16::ZERO),
        Operand::One => FastSrc::Const(Word16::ONE),
    }
}

/// Resolves a routed port source read through switch `switch` (the reading
/// Dnode's layer index) to a [`FastSrc`].
fn fast_source(source: PortSource, switch: usize, g: RingGeometry) -> FastSrc {
    match source {
        PortSource::Zero => FastSrc::Const(Word16::ZERO),
        PortSource::Bus => FastSrc::Bus,
        PortSource::PrevOut { lane } => {
            FastSrc::Out(g.dnode_index(g.upstream_layer(switch), lane as usize))
        }
        PortSource::Pipe {
            switch: pipe_switch,
            stage,
            lane,
        } => FastSrc::Pipe {
            switch: pipe_switch as usize,
            stage: stage as usize,
            lane: lane as usize,
        },
        PortSource::HostIn { port } => FastSrc::HostIn {
            switch,
            port: port as usize,
        },
    }
}

/// The unrolled local-mode loop of one Dnode: all eight sequencer slots
/// decoded against one context's routing.
#[derive(Clone, Debug)]
pub(crate) struct LocalPlan {
    pub(crate) ops: [DecodedOp; LOCAL_SLOTS],
    /// Value of the machine's per-Dnode sequencer-write epoch at build.
    seq_epoch: u64,
}

/// One host capture: out-port `port` of `switch` stores the output of the
/// Dnode at flat index `src`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CapturePlan {
    pub(crate) switch: usize,
    pub(crate) port: usize,
    pub(crate) src: usize,
}

/// The decoded plan for one configuration context.
#[derive(Clone, Debug)]
pub(crate) struct CtxPlan {
    /// `false` until the context is first executed (full build on demand).
    built: bool,
    /// Context write epoch at the last invalidation sweep.
    cfg_epoch: u64,
    /// Capture-table write epoch the capture plan was built at.
    capture_epoch: u64,
    /// Machine mode clock the work list was built at.
    modes_clock: u64,
    /// Per-Dnode decoded global-mode op.
    pub(crate) ops: Vec<DecodedOp>,
    /// Per-Dnode configuration epoch each op was decoded at.
    op_epochs: Vec<u64>,
    /// Per-Dnode unrolled local loops (built only for local-mode Dnodes).
    pub(crate) local: Vec<Option<LocalPlan>>,
    /// Flat indices of the Dnodes to process, ascending (bus priority).
    pub(crate) work: Vec<u32>,
    /// Enabled host captures in commit order.
    pub(crate) captures: Vec<CapturePlan>,
}

impl CtxPlan {
    fn new(dnodes: usize) -> Self {
        let nop = DecodedOp {
            alu: AluOp::Nop,
            a: FastSrc::Const(Word16::ZERO),
            b: FastSrc::Const(Word16::ZERO),
            acc: None,
            wr_reg: None,
            wr_out: false,
            wr_bus: false,
            active: false,
            mult: false,
            skip: true,
        };
        CtxPlan {
            built: false,
            cfg_epoch: 0,
            capture_epoch: 0,
            modes_clock: 0,
            ops: vec![nop; dnodes],
            op_epochs: vec![0; dnodes],
            local: vec![None; dnodes],
            work: Vec::new(),
            captures: Vec::new(),
        }
    }

    fn rebuild_captures(&mut self, ctx: &Context, g: RingGeometry) {
        self.captures.clear();
        let width = g.width();
        for s in 0..g.switches() {
            let layer = g.upstream_layer(s);
            for port in 0..width {
                if let Some(lane) = ctx.capture(width, s, port).selected() {
                    self.captures.push(CapturePlan {
                        switch: s,
                        port,
                        src: g.dnode_index(layer, lane as usize),
                    });
                }
            }
        }
    }
}

/// A staged Dnode result awaiting the commit phase.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StagedWrite {
    pub(crate) dnode: u32,
    pub(crate) result: Word16,
    pub(crate) wr_reg: Option<Reg>,
    pub(crate) wr_out: bool,
    pub(crate) active: bool,
    pub(crate) mult: bool,
}

/// Reusable per-cycle scratch buffers (the allocations the reference path
/// performs every cycle, hoisted out of the loop).
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// Host-input FIFOs read this cycle, flat-indexed
    /// `switch * stride + port`.
    pub(crate) hostin_read: Vec<bool>,
    /// Flat indices set in `hostin_read` this cycle (for O(reads) clear
    /// and the commit-phase pops).
    pub(crate) hostin_touched: Vec<u32>,
    /// Host-input ports per switch (`2 * width`).
    pub(crate) hostin_stride: usize,
    /// Results staged during the compute phase, in work-list order.
    pub(crate) staged: Vec<StagedWrite>,
}

impl Scratch {
    /// Clears the per-cycle state (O(previous cycle's usage)).
    pub(crate) fn begin(&mut self) {
        for &flat in &self.hostin_touched {
            self.hostin_read[flat as usize] = false;
        }
        self.hostin_touched.clear();
        self.staged.clear();
    }

    /// Marks a host-input FIFO as read this cycle; returns `true` the first
    /// time `(switch, port)` is marked.
    pub(crate) fn mark_hostin(&mut self, switch: usize, port: usize) {
        let flat = switch * self.hostin_stride + port;
        if !self.hostin_read[flat] {
            self.hostin_read[flat] = true;
            self.hostin_touched.push(flat as u32);
        }
    }
}

/// The machine-wide predecoded configuration cache: one [`CtxPlan`] per
/// context plus the invalidation clocks and per-cycle scratch.
#[derive(Clone, Debug, Default)]
pub(crate) struct DecodedPlan {
    contexts: Vec<CtxPlan>,
    /// Bumped whenever any Dnode's execution mode changes (work lists
    /// depend on which Dnodes are in local mode).
    modes_clock: u64,
    /// Monotonic clock of local-sequencer slot writes.
    seq_clock: u64,
    /// Per-Dnode epoch of the last local-sequencer slot write.
    seq_epochs: Vec<u64>,
    pub(crate) scratch: Scratch,
}

impl DecodedPlan {
    /// An empty (everything-unbuilt) plan for `contexts` contexts.
    pub(crate) fn new(g: RingGeometry, contexts: usize) -> Self {
        let n = g.dnodes();
        DecodedPlan {
            contexts: (0..contexts).map(|_| CtxPlan::new(n)).collect(),
            modes_clock: 0,
            seq_clock: 0,
            seq_epochs: vec![0; n],
            scratch: Scratch {
                hostin_read: vec![false; g.switches() * 2 * g.width()],
                hostin_touched: Vec::new(),
                hostin_stride: 2 * g.width(),
                staged: Vec::with_capacity(n),
            },
        }
    }

    /// Notes that some Dnode's execution mode changed.
    pub(crate) fn note_mode_write(&mut self) {
        self.modes_clock += 1;
    }

    /// Notes a write into `dnode`'s local-sequencer slots.
    pub(crate) fn note_seq_write(&mut self, dnode: usize) {
        self.seq_clock += 1;
        if let Some(epoch) = self.seq_epochs.get_mut(dnode) {
            *epoch = self.seq_clock;
        }
    }

    /// Split-borrows the plan for context `ctx` and the scratch buffers.
    pub(crate) fn parts(&mut self, ctx: usize) -> (&CtxPlan, &mut Scratch) {
        (&self.contexts[ctx], &mut self.scratch)
    }

    /// The plan for context `ctx` (must be refreshed first).
    pub(crate) fn context_plan(&self, ctx: usize) -> &CtxPlan {
        &self.contexts[ctx]
    }

    /// The machine-level invalidation clocks `(modes, sequencer)` — part of
    /// the configuration-epoch fingerprint the program cache memoizes
    /// resolutions under.
    pub(crate) fn clocks(&self) -> (u64, u64) {
        (self.modes_clock, self.seq_clock)
    }

    /// Brings context `ctx`'s plan up to date against the configuration
    /// layer's write epochs and the machine's mode/sequencer clocks.
    /// Returns the number of entries (re)built — 0 on a clean cache hit.
    pub(crate) fn refresh(
        &mut self,
        ctx: usize,
        config: &ConfigLayer,
        dnodes: &[DnodeState],
        g: RingGeometry,
    ) -> u64 {
        let cp = &mut self.contexts[ctx];
        let cctx = config.context(ctx).expect("active context in range");
        let mut misses = 0u64;
        let mut work_dirty = false;

        if !cp.built {
            for layer in 0..g.layers() {
                for lane in 0..g.width() {
                    let d = g.dnode_index(layer, lane);
                    cp.ops[d] = DecodedOp::decode(&cctx.dnode_instr(d), layer, lane, cctx, g);
                    cp.op_epochs[d] = config.dnode_epoch(ctx, d);
                    misses += 1;
                }
            }
            cp.rebuild_captures(cctx, g);
            misses += 1;
            cp.capture_epoch = config.capture_epoch(ctx);
            cp.cfg_epoch = config.ctx_epoch(ctx);
            cp.built = true;
            work_dirty = true;
        } else if config.ctx_epoch(ctx) != cp.cfg_epoch {
            for layer in 0..g.layers() {
                for lane in 0..g.width() {
                    let d = g.dnode_index(layer, lane);
                    let epoch = config.dnode_epoch(ctx, d);
                    if epoch != cp.op_epochs[d] {
                        cp.ops[d] = DecodedOp::decode(&cctx.dnode_instr(d), layer, lane, cctx, g);
                        cp.op_epochs[d] = epoch;
                        // Port routing feeds the local unroll too.
                        cp.local[d] = None;
                        misses += 1;
                        work_dirty = true;
                    }
                }
            }
            if config.capture_epoch(ctx) != cp.capture_epoch {
                cp.rebuild_captures(cctx, g);
                cp.capture_epoch = config.capture_epoch(ctx);
                misses += 1;
            }
            cp.cfg_epoch = config.ctx_epoch(ctx);
        }

        if cp.modes_clock != self.modes_clock {
            cp.modes_clock = self.modes_clock;
            work_dirty = true;
        }

        if work_dirty {
            cp.work.clear();
            for layer in 0..g.layers() {
                for lane in 0..g.width() {
                    let d = g.dnode_index(layer, lane);
                    if dnodes[d].mode() == DnodeMode::Local || !cp.ops[d].skip {
                        cp.work.push(d as u32);
                    }
                }
            }
            misses += 1;
        }

        // Unrolled local loops for the local-mode Dnodes on the work list.
        for i in 0..cp.work.len() {
            let d = cp.work[i] as usize;
            if dnodes[d].mode() != DnodeMode::Local {
                continue;
            }
            let fresh = matches!(&cp.local[d], Some(lp) if lp.seq_epoch == self.seq_epochs[d]);
            if !fresh {
                let (layer, lane) = g.dnode_position(d);
                let seq = dnodes[d].sequencer();
                cp.local[d] = Some(LocalPlan {
                    ops: std::array::from_fn(|s| {
                        DecodedOp::decode(&seq.slot(s), layer, lane, cctx, g)
                    }),
                    seq_epoch: self.seq_epochs[d],
                });
                misses += 1;
            }
        }

        misses
    }
}
