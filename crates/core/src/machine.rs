//! The whole-machine cycle-accurate stepper.
//!
//! A [`RingMachine`] wires together the operating layer (Dnodes and
//! switches), the configuration layer, the RISC configuration controller
//! and the host interface, and advances them under a single two-phase clock
//! discipline:
//!
//! 1. **Compute** — every Dnode selects its operands from *pre-cycle* state
//!    (registered upstream outputs, feedback-pipeline stages, host FIFO
//!    heads, the bus, its own registers) and evaluates its microinstruction;
//!    the controller executes one instruction; the host interface moves
//!    stream words.
//! 2. **Commit** — register files, Dnode outputs, pipelines, captures,
//!    configuration writes, the bus and the active context all update
//!    together.
//!
//! Consequently a value produced by layer *n* at cycle *t* is visible to
//! layer *n+1* at cycle *t+1*: the ring is a synchronous systolic pipeline,
//! exactly the paper's "each Dnode can be seen as an arithmetic operator of
//! a datapath which computes a data each clock cycle".

use systolic_ring_isa::dnode::{DnodeMode, MicroInstr, Operand};
use systolic_ring_isa::object::{Object, Preload};
use systolic_ring_isa::proof::{object_hash, ProofManifest};
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::{RingGeometry, Word16};

use crate::config::ConfigLayer;
use crate::controller::{Controller, CtrlEffect, CtrlFault, CtrlPorts, CtrlStep};
use crate::dnode::DnodeState;
use crate::error::{ConfigError, SimError};
use crate::fault::{FaultConfig, FaultCtx, FaultInjector};
use crate::host::{check_input_port, HostInterface};
use crate::params::MachineParams;
use crate::plan::{DecodedPlan, FastSrc, Scratch, StagedWrite};
use crate::stats::Stats;
use crate::switch::{PushOutcome, SwitchState};

/// A complete Systolic Ring instance.
///
/// # Examples
///
/// Run a single Dnode in local mode as a MAC macro-operator fed by two host
/// streams:
///
/// ```
/// use systolic_ring_core::{MachineParams, RingMachine};
/// use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};
/// use systolic_ring_isa::switch::PortSource;
/// use systolic_ring_isa::{RingGeometry, Word16};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = RingMachine::new(RingGeometry::RING_8, MachineParams::PAPER);
/// // Route both forward ports of Dnode (layer 0, lane 0) from host streams.
/// m.configure().set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })?;
/// m.configure().set_port(0, 0, 0, 1, PortSource::HostIn { port: 1 })?;
/// // Program the Dnode as a stand-alone MAC.
/// let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2).write_reg(Reg::R0);
/// m.set_local_program(0, &[mac])?;
/// m.set_mode(0, DnodeMode::Local);
/// // Stream 1*2 + 3*4 + 5*6 through the ports.
/// m.attach_input(0, 0, [1, 3, 5].map(Word16::from_i16))?;
/// m.attach_input(0, 1, [2, 4, 6].map(Word16::from_i16))?;
/// m.run(8)?;
/// assert_eq!(m.dnode(0).reg(Reg::R0).as_i16(), 44);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RingMachine {
    pub(crate) geometry: RingGeometry,
    pub(crate) params: MachineParams,
    pub(crate) dnodes: Vec<DnodeState>,
    pub(crate) switches: Vec<SwitchState>,
    pub(crate) config: ConfigLayer,
    pub(crate) controller: Controller,
    pub(crate) host: HostInterface,
    pub(crate) bus: Word16,
    pub(crate) cycle: u64,
    pub(crate) stats: Stats,
    /// The predecoded configuration cache (consulted only when
    /// `params.decode_cache` is set; kept sized either way so invalidation
    /// notes never go out of bounds).
    pub(crate) plan: DecodedPlan,
    /// The fault injector, present iff `params.faults.is_active()`. Boxed
    /// so the fault-free machine pays one pointer of state; `None` means
    /// the stepper takes the exact pre-fault code path.
    pub(crate) fault: Option<Box<FaultInjector>>,
    /// The compiled tier's content-keyed program cache (consulted only
    /// when `params.fused` and `params.decode_cache` are both set). Boxed
    /// and lazily allocated: machines that never burst pay one pointer of
    /// state. Filled at run time, one compile per guard miss.
    pub(crate) programs: Option<Box<crate::fused::ProgramCache>>,
    /// Watchdog progress snapshot: (ctrl instructions retired, config
    /// writes, context switches, host words in, host words out).
    wd_progress: (u64, u64, u64, u64, u64),
    /// Cycle at which `wd_progress` last changed (or the watchdog was
    /// petted).
    wd_since: u64,
    /// Content hash of the last loaded [`Object`]'s bytes; the credential
    /// [`RingMachine::attach_proof`] validates a manifest against.
    loaded_object_hash: Option<u64>,
}

/// A machine snapshot taken by [`RingMachine::checkpoint`].
///
/// Checkpoints are plain owned data (a boxed machine image, including
/// pending fault state); [`RingMachine::restore`] rewinds a machine to one
/// any number of times. The retry policies in `systolic-ring-harness`
/// checkpoint before running and roll back on detected faults.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    image: Box<RingMachine>,
}

impl Checkpoint {
    /// The cycle at which this checkpoint was taken.
    pub fn cycle(&self) -> u64 {
        self.image.cycle
    }

    /// Rebuilds a machine from this snapshot — the resume half of
    /// checkpoint-based preemption, for callers that dropped the
    /// suspended machine (e.g. a server parking a preempted job). The
    /// rebuilt machine is bit-identical to the checkpointed one except
    /// for the monotonic recovery counters: it counts one restore, like
    /// [`RingMachine::restore`] onto a fresh machine would.
    pub fn hydrate(&self) -> RingMachine {
        let mut m = (*self.image).clone();
        m.stats.restores += 1;
        m
    }
}

struct PortsAdapter<'a> {
    bus: Word16,
    switches: &'a mut [SwitchState],
}

impl CtrlPorts for PortsAdapter<'_> {
    fn bus(&self) -> Word16 {
        self.bus
    }

    fn hpop(&mut self, switch: usize, port: usize) -> Result<Option<Word16>, ConfigError> {
        let switches = self.switches.len();
        let state = self
            .switches
            .get_mut(switch)
            .ok_or(ConfigError::SwitchOutOfRange { switch, switches })?;
        let ports = state.host_out.len();
        let fifo = state
            .host_out
            .get_mut(port)
            .ok_or(ConfigError::HostPortOutOfRange { port, ports })?;
        Ok(fifo.pop())
    }
}

/// One Dnode's resolved work for the current cycle.
struct DnodePlan {
    instr: MicroInstr,
    result: Word16,
}

/// A machine is plain owned data: batches of machines step on independent
/// threads with no shared state. This assertion keeps that guarantee from
/// regressing silently (e.g. by an `Rc` or raw pointer sneaking into the
/// state tree) — the batch engine in `systolic-ring-harness` depends on it.
#[allow(dead_code)]
fn _ring_machine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RingMachine>();
}

// The Dnode-side configuration writes: object preload records and
// controller effects share one rule per write (index checks, word decode,
// decoded-plan invalidation). Only the controller path counts
// `Stats::config_writes`, so the callers do the counting.

/// The Dnode a configuration write targets, range-checked.
fn dnode_mut(dnodes: &mut [DnodeState], dnode: usize) -> Result<&mut DnodeState, ConfigError> {
    let count = dnodes.len();
    dnodes.get_mut(dnode).ok_or(ConfigError::DnodeOutOfRange {
        dnode,
        dnodes: count,
    })
}

/// Sets a Dnode's execution mode.
fn write_mode(
    dnodes: &mut [DnodeState],
    plan: &mut DecodedPlan,
    dnode: usize,
    local: bool,
) -> Result<(), ConfigError> {
    let state = dnode_mut(dnodes, dnode)?;
    let mode = if local {
        DnodeMode::Local
    } else {
        DnodeMode::Global
    };
    if state.mode() != mode {
        plan.note_mode_write();
    }
    state.set_mode(mode);
    Ok(())
}

/// Writes one local-sequencer slot.
fn write_local_slot(
    dnodes: &mut [DnodeState],
    plan: &mut DecodedPlan,
    dnode: usize,
    slot: usize,
    word: u64,
) -> Result<(), ConfigError> {
    let state = dnode_mut(dnodes, dnode)?;
    if slot >= 8 {
        return Err(ConfigError::SlotOutOfRange { slot });
    }
    state
        .sequencer_mut()
        .set_slot(slot, MicroInstr::decode(word)?);
    plan.note_seq_write(dnode);
    Ok(())
}

/// Sets a local sequencer's limit.
fn write_local_limit(
    dnodes: &mut [DnodeState],
    plan: &mut DecodedPlan,
    dnode: usize,
    limit: u32,
) -> Result<(), ConfigError> {
    let state = dnode_mut(dnodes, dnode)?;
    if !(1..=8).contains(&limit) {
        return Err(ConfigError::BadLocalLimit {
            limit: limit as usize,
        });
    }
    state.sequencer_mut().set_limit(limit as u8);
    // `set_limit` resets the counter, which the compiled tier's phase
    // anchoring depends on.
    plan.note_seq_write(dnode);
    Ok(())
}

impl RingMachine {
    /// Creates a reset machine.
    ///
    /// Any [`crate::with_decode_cache`], [`crate::with_fused`],
    /// [`crate::with_aot`] or [`crate::with_faults`] scope active on this
    /// thread overrides the matching field of `params`.
    pub fn new(geometry: RingGeometry, params: MachineParams) -> Self {
        let params = params.with_overrides();
        let dnodes = (0..geometry.dnodes()).map(|_| DnodeState::new()).collect();
        let switches = (0..geometry.switches())
            .map(|_| {
                SwitchState::new(
                    params.pipe_depth,
                    geometry.width(),
                    params.host_fifo_capacity,
                )
            })
            .collect();
        RingMachine {
            geometry,
            params,
            dnodes,
            switches,
            config: ConfigLayer::new(geometry, params.contexts, params.pipe_depth),
            controller: Controller::new(params.prog_capacity, params.dmem_capacity),
            host: HostInterface::new(geometry.switches(), geometry.width(), params.link),
            bus: Word16::ZERO,
            cycle: 0,
            stats: Stats::new(geometry.dnodes()),
            plan: DecodedPlan::new(geometry, params.contexts),
            fault: params
                .faults
                .is_active()
                .then(|| Box::new(FaultInjector::new(params.faults, geometry.dnodes()))),
            programs: None,
            wd_progress: (0, 0, 0, 0, 0),
            wd_since: 0,
            loaded_object_hash: None,
        }
    }

    /// Creates a machine with the paper's default parameters.
    pub fn with_defaults(geometry: RingGeometry) -> Self {
        RingMachine::new(geometry, MachineParams::PAPER)
    }

    /// The ring geometry.
    pub fn geometry(&self) -> RingGeometry {
        self.geometry
    }

    /// The sizing parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Execution statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Resets the statistics counters (state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::new(self.geometry.dnodes());
    }

    /// The configuration layer, for programmatic setup.
    pub fn configure(&mut self) -> &mut ConfigLayer {
        &mut self.config
    }

    /// Read-only view of the configuration layer.
    pub fn config(&self) -> &ConfigLayer {
        &self.config
    }

    /// A Dnode's architectural state.
    ///
    /// # Panics
    ///
    /// Panics if `dnode` is out of range.
    pub fn dnode(&self, dnode: usize) -> &DnodeState {
        &self.dnodes[dnode]
    }

    /// The configuration controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the controller (program loading, test setup).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// The host interface.
    pub fn host(&self) -> &HostInterface {
        &self.host
    }

    /// Current value of the shared bus.
    pub fn bus(&self) -> Word16 {
        self.bus
    }

    /// A switch's stateful parts (pipelines and FIFOs).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is out of range.
    pub fn switch(&self, switch: usize) -> &SwitchState {
        &self.switches[switch]
    }

    /// Sets a Dnode's execution mode (programmatic setup).
    ///
    /// # Panics
    ///
    /// Panics if `dnode` is out of range.
    pub fn set_mode(&mut self, dnode: usize, mode: DnodeMode) {
        if self.dnodes[dnode].mode() != mode {
            self.plan.note_mode_write();
        }
        self.dnodes[dnode].set_mode(mode);
    }

    /// Loads `program` into a Dnode's local sequencer and sets its limit to
    /// the program length.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `dnode` is out of range or the program is
    /// empty or longer than 8 microinstructions.
    pub fn set_local_program(
        &mut self,
        dnode: usize,
        program: &[MicroInstr],
    ) -> Result<(), ConfigError> {
        let dnodes = self.geometry.dnodes();
        if dnode >= dnodes {
            return Err(ConfigError::DnodeOutOfRange { dnode, dnodes });
        }
        if program.is_empty() || program.len() > 8 {
            return Err(ConfigError::BadLocalLimit {
                limit: program.len(),
            });
        }
        let seq = self.dnodes[dnode].sequencer_mut();
        for (slot, instr) in program.iter().enumerate() {
            seq.set_slot(slot, *instr);
        }
        seq.set_limit(program.len() as u8);
        self.plan.note_seq_write(dnode);
        Ok(())
    }

    /// Appends words to the host stream of host-input port (`switch`,
    /// `port`); they are delivered into the port's FIFO at up to one word
    /// per cycle, behind any words attached earlier.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn attach_input<I>(
        &mut self,
        switch: usize,
        port: usize,
        words: I,
    ) -> Result<(), ConfigError>
    where
        I: IntoIterator<Item = Word16>,
    {
        self.host
            .attach_input(&mut self.switches, switch, port, words)
    }

    /// Words attached to host-input port (`switch`, `port`) and not yet
    /// delivered into its FIFO.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn pending_input(&self, switch: usize, port: usize) -> Result<usize, ConfigError> {
        check_input_port(&self.switches, switch, port)?;
        Ok(self.switches[switch].host_in[port].pending())
    }

    /// Opens the host sink of (`switch`, `port`) so captured words are
    /// drained into it (see [`HostInterface::open_sink`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn open_sink(&mut self, switch: usize, port: usize) -> Result<(), ConfigError> {
        self.host.open_sink(switch, port)
    }

    /// Removes and returns the host sink contents of (`switch`, `port`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    pub fn take_sink(&mut self, switch: usize, port: usize) -> Result<Vec<Word16>, ConfigError> {
        self.host.take_sink(switch, port)
    }

    /// Loads an assembled [`Object`]: controller program and data, then the
    /// fabric preload records in order.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the object declares a different geometry,
    /// needs more contexts than available, or contains out-of-range or
    /// malformed preload records.
    pub fn load(&mut self, object: &Object) -> Result<(), ConfigError> {
        if let Some(declared) = object.geometry {
            if declared != self.geometry {
                return Err(ConfigError::GeometryMismatch {
                    declared,
                    machine: self.geometry,
                });
            }
        }
        if object.contexts as usize > self.params.contexts {
            return Err(ConfigError::NotEnoughContexts {
                required: object.contexts as usize,
                available: self.params.contexts,
            });
        }
        self.controller.load_program(&object.code)?;
        self.controller.load_data(&object.data)?;
        for record in &object.preload {
            self.apply_preload(record)?;
        }
        // Remember the object's hash so `attach_proof` can check that a
        // manifest was proven over exactly these bytes.
        self.loaded_object_hash = Some(object_hash(object));
        Ok(())
    }

    /// Checks a statically verified [`ProofManifest`] (produced by
    /// `ringlint`'s verify passes) against the machine. Returns `true`
    /// iff the manifest's `object_hash` matches the object most recently
    /// [`load`](RingMachine::load)ed (a manifest for different bytes is a
    /// stale or foreign proof) and the walk proved both termination
    /// (`halts`) and hazard freedom.
    ///
    /// The machine keeps nothing from the manifest and no execution tier
    /// reads it: the compiled tier enters a window by configuration
    /// content, with no stability warm-up for a proof to waive. Proofs
    /// are consumed statically, by `srconform`'s cycle bounds and the
    /// literate `;!` budgets.
    pub fn attach_proof(&mut self, proof: &ProofManifest) -> bool {
        self.loaded_object_hash == Some(proof.object_hash) && proof.halts && proof.hazard_free
    }

    fn apply_preload(&mut self, record: &Preload) -> Result<(), ConfigError> {
        match *record {
            Preload::DnodeInstr { ctx, dnode, word } => {
                let instr = MicroInstr::decode(word)?;
                self.config
                    .set_dnode_instr(ctx as usize, dnode as usize, instr)
            }
            Preload::SwitchPort {
                ctx,
                switch,
                lane,
                input,
                word,
            } => {
                let source = PortSource::decode(word)?;
                self.config.set_port(
                    ctx as usize,
                    switch as usize,
                    lane as usize,
                    input as usize,
                    source,
                )
            }
            Preload::HostCapture {
                ctx,
                switch,
                port,
                word,
            } => {
                let capture = HostCapture::decode(word)?;
                self.config
                    .set_capture(ctx as usize, switch as usize, port as usize, capture)
            }
            Preload::Mode { dnode, local } => {
                write_mode(&mut self.dnodes, &mut self.plan, dnode.into(), local)
            }
            Preload::LocalSlot { dnode, slot, word } => write_local_slot(
                &mut self.dnodes,
                &mut self.plan,
                dnode.into(),
                slot.into(),
                word,
            ),
            Preload::LocalLimit { dnode, limit } => {
                write_local_limit(&mut self.dnodes, &mut self.plan, dnode.into(), limit.into())
            }
        }
    }

    /// The microinstruction a Dnode will execute this cycle.
    fn current_instr(&self, dnode: usize) -> MicroInstr {
        match self.dnodes[dnode].mode() {
            DnodeMode::Global => self.config.active().dnode_instr(dnode),
            DnodeMode::Local => self.dnodes[dnode].sequencer().current(),
        }
    }

    /// Resolves one routed port source against pre-cycle state.
    ///
    /// `hostin_reads` records (switch, port) host FIFO consumption.
    fn resolve_source(
        &self,
        switch: usize,
        source: PortSource,
        hostin_reads: &mut [Vec<bool>],
        underflows: &mut u64,
    ) -> Word16 {
        match source {
            PortSource::Zero => Word16::ZERO,
            PortSource::Bus => self.bus,
            PortSource::PrevOut { lane } => {
                let layer = self.geometry.upstream_layer(switch);
                self.dnodes[self.geometry.dnode_index(layer, lane as usize)].out()
            }
            PortSource::Pipe {
                switch: pipe_switch,
                stage,
                lane,
            } => self.switches[pipe_switch as usize]
                .pipe
                .read(stage as usize, lane as usize),
            PortSource::HostIn { port } => {
                let fifo = &self.switches[switch].host_in[port as usize];
                hostin_reads[switch][port as usize] = true;
                match fifo.peek() {
                    Some(word) => word,
                    None => {
                        *underflows += 1;
                        Word16::ZERO
                    }
                }
            }
        }
    }

    /// Resolves a microinstruction operand for the Dnode at
    /// (`layer`, `lane`).
    #[allow(clippy::too_many_arguments)]
    fn resolve_operand(
        &self,
        dnode: usize,
        layer: usize,
        lane: usize,
        operand: Operand,
        hostin_reads: &mut [Vec<bool>],
        underflows: &mut u64,
    ) -> Word16 {
        let ctx = self.config.active();
        let width = self.geometry.width();
        let port = |p: usize| ctx.port(width, layer, lane, p);
        match operand {
            Operand::Reg(reg) => self.dnodes[dnode].reg(reg),
            Operand::In1 => self.resolve_source(layer, port(0), hostin_reads, underflows),
            Operand::In2 => self.resolve_source(layer, port(1), hostin_reads, underflows),
            Operand::Fifo1 => self.resolve_source(layer, port(2), hostin_reads, underflows),
            Operand::Fifo2 => self.resolve_source(layer, port(3), hostin_reads, underflows),
            Operand::Bus => self.bus,
            Operand::Imm => self.current_instr(dnode).imm,
            Operand::Zero => Word16::ZERO,
            Operand::One => Word16::ONE,
        }
    }

    /// Advances the machine by one clock cycle.
    ///
    /// Dispatches to the predecoded-cache fast path or the decode-per-cycle
    /// reference path per [`MachineParams::decode_cache`]; the two are
    /// architecturally indistinguishable (see the flag's documentation).
    ///
    /// With an active [`MachineParams::faults`] configuration, the cycle is
    /// bracketed by the fault hooks: injection and the detection sweep run
    /// *before* any compute (so a detected corruption has not propagated),
    /// and stuck-output forcing runs after commit. Because every fault
    /// decision is a pure function of `(seed, salt, cycle)`, both execution
    /// paths observe the same schedule and fail at the same cycles. A
    /// nonzero [`MachineParams::watchdog_interval`] additionally checks the
    /// progress heartbeat at the cycle boundary.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on controller faults, malformed configuration
    /// writes, detected faults ([`SimError::ConfigCorruption`],
    /// [`SimError::DatapathFault`]) or a watchdog trip
    /// ([`SimError::Watchdog`]); the machine state is left at the faulting
    /// cycle boundary.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.params.watchdog_interval > 0 {
            self.watchdog_check()?;
        }
        if let Some(mut injector) = self.fault.take() {
            let result = self.step_with_faults(&mut injector);
            self.fault = Some(injector);
            result
        } else {
            self.step_inner()
        }
    }

    /// One cycle of either execution path, fault machinery aside.
    fn step_inner(&mut self) -> Result<(), SimError> {
        // The plan is moved out for the duration of the cycle so the
        // stepper can borrow the rest of the machine mutably alongside it.
        let mut plan = std::mem::take(&mut self.plan);
        let result = if self.params.decode_cache {
            self.step_cached(&mut plan)
        } else {
            self.step_decoded(&mut plan)
        };
        self.plan = plan;
        result
    }

    /// One cycle bracketed by the fault-injection hooks.
    fn step_with_faults(&mut self, injector: &mut FaultInjector) -> Result<(), SimError> {
        let cycle = self.cycle;
        if injector.config().injects() {
            let mut plan = std::mem::take(&mut self.plan);
            let begun = injector.begin_cycle(
                cycle,
                FaultCtx {
                    geometry: self.geometry,
                    config: &mut self.config,
                    dnodes: &mut self.dnodes,
                    switches: &mut self.switches,
                    plan: &mut plan,
                    stats: &mut self.stats,
                },
            );
            self.plan = plan;
            begun?;
        } else {
            // Detection-only: no injection state can change, so skip the
            // plan hand-off and the full fault context.
            injector.detect(cycle, &mut self.config, &mut self.stats)?;
        }
        self.step_inner()?;
        injector.end_cycle(cycle, &mut self.dnodes);
        Ok(())
    }

    /// The watchdog's progress-update half: folds new progress into the
    /// heartbeat without checking for a trip. Shared between the boundary
    /// check and the compiled tier's quiet-window bound (which must
    /// account any outstanding progress before it computes how many quiet
    /// cycles can elapse before the earliest possible trip).
    pub(crate) fn watchdog_observe(&mut self) {
        let progress = (
            self.stats.ctrl_instrs,
            self.stats.config_writes,
            self.stats.ctx_switches,
            self.stats.host_words_in,
            self.stats.host_words_out,
        );
        if progress != self.wd_progress {
            self.wd_progress = progress;
            self.wd_since = self.cycle;
        }
    }

    /// Cycles that may still elapse without progress before the watchdog
    /// trips (0 = a trip is due at this boundary). Only meaningful right
    /// after [`RingMachine::watchdog_observe`].
    pub(crate) fn watchdog_margin(&self) -> u64 {
        (self.wd_since + self.params.watchdog_interval).saturating_sub(self.cycle)
    }

    /// Raises [`SimError::Watchdog`] if no controller or host progress has
    /// been observed for `watchdog_interval` cycles.
    fn watchdog_check(&mut self) -> Result<(), SimError> {
        self.watchdog_observe();
        if self.cycle - self.wd_since >= self.params.watchdog_interval {
            let idle_cycles = self.cycle - self.wd_since;
            self.stats.watchdog_trips += 1;
            // Re-arm so a caller that resumes anyway gets a full interval
            // before the next trip instead of tripping every cycle.
            self.wd_since = self.cycle;
            return Err(SimError::Watchdog {
                cycle: self.cycle,
                // The *architectural* context: if a context switch is
                // staged but uncommitted at this boundary, the report names
                // the post-switch context the machine has architecturally
                // decided on, not the stale active one.
                ctx: self.config.architectural_ctx(),
                pc: self.controller.pc(),
                idle_cycles,
            });
        }
        Ok(())
    }

    /// Resets the watchdog heartbeat, granting a fresh
    /// [`MachineParams::watchdog_interval`] before the next possible trip.
    /// Harness code calls this around phases that are legitimately quiet
    /// (e.g. a long drain with the controller halted).
    pub fn pet_watchdog(&mut self) {
        self.wd_since = self.cycle;
    }

    /// Takes a full machine snapshot (architecture, statistics and pending
    /// fault state). Counted in [`crate::Stats::checkpoints`].
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.stats.checkpoints += 1;
        Checkpoint {
            image: Box::new(self.clone()),
        }
    }

    /// Rewinds the machine to `checkpoint`.
    ///
    /// Everything is restored to the snapshot except the monotonic
    /// recovery counters ([`crate::Stats::checkpoints`] and
    /// [`crate::Stats::restores`]), which survive so a post-run report can
    /// still see how much recovery work happened. Restoring does *not*
    /// re-arm the transient fault schedule — a plain replay hits the same
    /// faults; call [`RingMachine::rearm_faults`] to retry under a
    /// different schedule.
    pub fn restore(&mut self, checkpoint: &Checkpoint) {
        let checkpoints = self.stats.checkpoints;
        let restores = self.stats.restores + 1;
        *self = (*checkpoint.image).clone();
        self.stats.checkpoints = checkpoints;
        self.stats.restores = restores;
    }

    /// Re-arms the transient fault schedule with a retry salt so a replay
    /// after [`RingMachine::restore`] does not re-execute the same
    /// transient flips. Permanent (stuck) faults deliberately survive:
    /// broken silicon stays broken, which is what makes
    /// [`RingMachine::remap_dnode`] necessary. Pending fault tags are
    /// dropped. No-op on a machine without fault machinery.
    pub fn rearm_faults(&mut self, salt: u64) {
        if let Some(injector) = &mut self.fault {
            injector.rearm(salt);
            injector.clear_tags();
        }
    }

    /// Accepts the current state as fault-free: drops pending datapath
    /// fault tags and re-baselines every configuration parity bit. The
    /// resume-in-place alternative to rollback for callers that repaired
    /// (or choose to tolerate) the corruption.
    pub fn acknowledge_faults(&mut self) {
        if let Some(injector) = &mut self.fault {
            injector.clear_tags();
        }
        self.config.refresh_all_parity();
    }

    /// The fault injector, if fault machinery is active.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.fault.as_deref()
    }

    /// Testing/experimentation hook: forces a permanent stuck-at fault on
    /// `dnode`'s output write port. Attaches detection-only fault
    /// machinery ([`FaultConfig::detect_only`] with a 1-cycle sweep) if
    /// none is active.
    ///
    /// # Panics
    ///
    /// Panics if `dnode` is out of range.
    pub fn force_stuck(&mut self, dnode: usize, value: Word16) {
        assert!(dnode < self.geometry.dnodes(), "dnode {dnode} out of range");
        if self.fault.is_none() {
            self.params.faults = FaultConfig::detect_only(1);
            self.fault = Some(Box::new(FaultInjector::new(
                self.params.faults,
                self.geometry.dnodes(),
            )));
        }
        self.fault
            .as_mut()
            .expect("injector just ensured")
            .force_stuck(dnode, value);
    }

    /// Finds a spare Dnode in `layer`: one in global mode, configured as a
    /// NOP in every context, and not known to be stuck. Returns its flat
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn find_spare(&self, layer: usize) -> Option<usize> {
        let g = self.geometry;
        (0..g.width())
            .map(|lane| g.dnode_index(layer, lane))
            .find(|&d| {
                self.dnodes[d].mode() == DnodeMode::Global
                    && (0..self.config.contexts()).all(|ctx| {
                        self.config
                            .context(ctx)
                            .map(|c| c.dnode_instr(d) == MicroInstr::NOP)
                            .unwrap_or(false)
                    })
                    && self
                        .fault
                        .as_ref()
                        .is_none_or(|f| f.stuck_value(d).is_none())
            })
    }

    /// Remaps the role of Dnode `from` onto the same-layer Dnode `to` (and
    /// vice versa): their architectural state (registers, output, mode,
    /// sequencer), configuration (microinstructions and input routing in
    /// every context), output references (forward routes, feedback routes,
    /// host captures) and in-flight pipeline history all trade places. The
    /// dataflow graph is unchanged — only which physical Dnode plays which
    /// role — so a computation continues bit-identically across the remap.
    /// Used with [`RingMachine::find_spare`] to retire a Dnode with a
    /// permanent fault onto an idle spare.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::DnodeOutOfRange`] for bad indices and
    /// [`ConfigError::RemapLayerMismatch`] for a cross-layer pair.
    pub fn remap_dnode(&mut self, from: usize, to: usize) -> Result<(), ConfigError> {
        self.config.remap_dnodes(from, to)?;
        if from == to {
            return Ok(());
        }
        let (layer, lane_from) = self.geometry.dnode_position(from);
        let (_, lane_to) = self.geometry.dnode_position(to);
        self.dnodes.swap(from, to);
        // The downstream switch's pipeline carries this layer's output
        // history; swap the lanes so feedback reads stay continuous.
        let downstream = (layer + 1) % self.geometry.layers();
        self.switches[downstream]
            .pipe
            .swap_lanes(lane_from, lane_to);
        // Mode and sequencer state moved between Dnode slots: rebuild the
        // affected plan entries.
        self.plan.note_mode_write();
        self.plan.note_seq_write(from);
        self.plan.note_seq_write(to);
        Ok(())
    }

    /// One cycle of the decode-per-cycle reference path.
    fn step_decoded(&mut self, plan: &mut DecodedPlan) -> Result<(), SimError> {
        let cycle = self.cycle;
        let width = self.geometry.width();
        let layers = self.geometry.layers();

        // ---- Compute phase -------------------------------------------------
        // 1. Dnode datapaths: resolve operands against pre-cycle state.
        let mut hostin_reads: Vec<Vec<bool>> = (0..self.geometry.switches())
            .map(|s| vec![false; self.switches[s].host_in.len()])
            .collect();
        let mut underflows = 0u64;
        let mut plans = Vec::with_capacity(self.geometry.dnodes());
        let mut bus_drives: Vec<Word16> = Vec::new();

        for layer in 0..layers {
            for lane in 0..width {
                let d = self.geometry.dnode_index(layer, lane);
                let instr = self.current_instr(d);
                let a = self.resolve_operand(
                    d,
                    layer,
                    lane,
                    instr.src_a,
                    &mut hostin_reads,
                    &mut underflows,
                );
                let b = self.resolve_operand(
                    d,
                    layer,
                    lane,
                    instr.src_b,
                    &mut hostin_reads,
                    &mut underflows,
                );
                let acc = instr
                    .wr_reg
                    .filter(|_| instr.alu.uses_accumulator())
                    .map(|reg| self.dnodes[d].reg(reg))
                    .unwrap_or(Word16::ZERO);
                let result = instr.alu.eval(a, b, acc);
                if instr.wr_bus {
                    bus_drives.push(result);
                }
                plans.push(DnodePlan { instr, result });
            }
        }
        self.stats.fifo_underflows += underflows;

        // Consume host-input FIFO heads that were read this cycle.
        for (s, ports) in hostin_reads.iter().enumerate() {
            for (p, read) in ports.iter().enumerate() {
                if *read {
                    self.switches[s].host_in[p].pop();
                }
            }
        }

        // 2. Controller.
        let ctrl_step = self.controller_substep(cycle)?;

        // 3. Host stream movement (words pushed now are visible next cycle).
        self.host.step(&mut self.switches, &mut self.stats);

        // ---- Commit phase ---------------------------------------------------
        // Gather pre-commit layer-output vectors for pipelines and captures.
        let captures: Vec<Vec<Word16>> = (0..self.geometry.switches())
            .map(|s| {
                let layer = self.geometry.upstream_layer(s);
                (0..width)
                    .map(|lane| self.dnodes[self.geometry.dnode_index(layer, lane)].out())
                    .collect()
            })
            .collect();

        // Host captures (under the context active this cycle): each of the
        // switch's `width` out-ports captures its selected lane.
        for (s, vector) in captures.iter().enumerate() {
            for port in 0..width {
                if let Some(lane) = self.config.active().capture(width, s, port).selected() {
                    if self.switches[s].host_out[port].push(vector[lane as usize])
                        == PushOutcome::Dropped
                    {
                        self.stats.fifo_overflows += 1;
                    }
                }
            }
        }

        // Feedback pipelines.
        for (s, vector) in captures.into_iter().enumerate() {
            self.switches[s].pipe.push(vector);
        }

        // Dnode registers, outputs and sequencers; statistics.
        for (d, plan) in plans.iter().enumerate() {
            use systolic_ring_isa::dnode::AluOp;
            self.dnodes[d].stage(&plan.instr, plan.result);
            self.dnodes[d].commit(cycle);
            if self.dnodes[d].mode() == DnodeMode::Local {
                self.stats.dnodes[d].local_cycles += 1;
            }
            if plan.instr.alu != AluOp::Nop {
                self.stats.dnodes[d].active_cycles += 1;
                self.stats.dnodes[d].alu_ops += 1;
                if plan.instr.alu.uses_multiplier() {
                    self.stats.dnodes[d].mult_ops += 1;
                }
            }
        }

        // Controller effect (after Dnode commit so mode/sequencer writes
        // take effect cleanly at the next cycle boundary).
        if let Some(effect) = &ctrl_step.effect {
            self.apply_effect(effect, plan)
                .map_err(|cause| SimError::BadConfigWrite { cycle, cause })?;
        }

        // Shared bus: controller drive wins, then the lowest-index Dnode.
        let ctrl_drive = match ctrl_step.effect {
            Some(CtrlEffect::DriveBus(word)) => Some(word),
            _ => None,
        };
        let total_drivers = bus_drives.len() + usize::from(ctrl_drive.is_some());
        if total_drivers > 1 {
            self.stats.bus_conflicts += 1;
        }
        if let Some(word) = ctrl_drive.or_else(|| bus_drives.first().copied()) {
            self.bus = word;
        }

        // Active-context switch staged by the controller.
        if self.config.commit() {
            self.stats.ctx_switches += 1;
        }

        self.cycle += 1;
        self.stats.cycles += 1;
        Ok(())
    }

    /// One cycle of the predecoded-cache path: the production stepper for
    /// every cycle the compiled tier refuses — fault-armed machines,
    /// watchdog windows that are not quiet, lane groups outside quiet
    /// windows, controller instructions that write configuration or touch
    /// host FIFOs, bursts shorter than `MIN_BURST`, and
    /// [`RingMachine::step`].
    ///
    /// It keeps [`RingMachine::step_decoded`]'s phase ordering, with the
    /// per-cycle decode, allocation and idle-Dnode work hoisted into
    /// [`DecodedPlan`]; every architectural effect and statistic is
    /// reproduced exactly. Both stay: `step_decoded` is the one oracle that
    /// shares no code with `plan.rs` or `fused.rs`, and this path is about
    /// 4x faster per cycle (DESIGN.md §16).
    fn step_cached(&mut self, plan: &mut DecodedPlan) -> Result<(), SimError> {
        let cycle = self.cycle;

        // ---- Compute phase -------------------------------------------------
        // 0. Bring the active context's plan up to date.
        let active_ctx = self.config.active_index();
        let misses = plan.refresh(active_ctx, &self.config, &self.dnodes, self.geometry);
        if misses == 0 {
            self.stats.decode_cache_hits += 1;
        } else {
            self.stats.decode_cache_misses += misses;
        }

        // 1. Dnode datapaths, over the work list only.
        let (cp, scratch) = plan.parts(active_ctx);
        scratch.begin();
        let mut underflows = 0u64;
        let mut bus_first: Option<Word16> = None;
        let mut bus_count = 0usize;
        for &d32 in &cp.work {
            let d = d32 as usize;
            let op = match self.dnodes[d].mode() {
                DnodeMode::Global => &cp.ops[d],
                DnodeMode::Local => {
                    let lp = cp.local[d].as_ref().expect("local plan refreshed");
                    &lp.ops[self.dnodes[d].sequencer().counter() as usize]
                }
            };
            if op.skip {
                // An idle local-mode slot computes nothing, but the commit
                // phase must still advance the sequencer and count the
                // local cycle.
                scratch.staged.push(StagedWrite {
                    dnode: d32,
                    result: Word16::ZERO,
                    wr_reg: None,
                    wr_out: false,
                    active: false,
                    mult: false,
                });
                continue;
            }
            let a = self.read_fast(op.a, d, scratch, &mut underflows);
            let b = self.read_fast(op.b, d, scratch, &mut underflows);
            let acc = op
                .acc
                .map(|reg| self.dnodes[d].reg(reg))
                .unwrap_or(Word16::ZERO);
            let result = op.alu.eval(a, b, acc);
            if op.wr_bus {
                if bus_first.is_none() {
                    bus_first = Some(result);
                }
                bus_count += 1;
            }
            scratch.staged.push(StagedWrite {
                dnode: d32,
                result,
                wr_reg: op.wr_reg,
                wr_out: op.wr_out,
                active: op.active,
                mult: op.mult,
            });
        }
        self.stats.fifo_underflows += underflows;

        // Consume the host-input FIFO heads read this cycle.
        let stride = scratch.hostin_stride;
        for &flat in &scratch.hostin_touched {
            let flat = flat as usize;
            self.switches[flat / stride].host_in[flat % stride].pop();
        }

        // 2. Controller.
        let ctrl_step = self.controller_substep(cycle)?;

        // 3. Host stream movement (words pushed now are visible next cycle).
        self.host.step(&mut self.switches, &mut self.stats);

        // ---- Commit phase ---------------------------------------------------
        // Host captures from pre-commit outputs, in commit order.
        for cap in &cp.captures {
            let word = self.dnodes[cap.src].out();
            if self.switches[cap.switch].host_out[cap.port].push(word) == PushOutcome::Dropped {
                self.stats.fifo_overflows += 1;
            }
        }

        // Feedback pipelines, allocation-free.
        let geometry = self.geometry;
        let dnodes = &self.dnodes;
        for (s, switch) in self.switches.iter_mut().enumerate() {
            let layer = geometry.upstream_layer(s);
            switch
                .pipe
                .rotate_with(|lane| dnodes[geometry.dnode_index(layer, lane)].out());
        }

        // Dnode registers, outputs and sequencers; statistics.
        for st in &scratch.staged {
            let d = st.dnode as usize;
            self.dnodes[d].stage_write(st.wr_reg, st.wr_out, st.result);
            self.dnodes[d].commit(cycle);
            if self.dnodes[d].mode() == DnodeMode::Local {
                self.stats.dnodes[d].local_cycles += 1;
            }
            if st.active {
                self.stats.dnodes[d].active_cycles += 1;
                self.stats.dnodes[d].alu_ops += 1;
                if st.mult {
                    self.stats.dnodes[d].mult_ops += 1;
                }
            }
        }

        // Controller effect (after Dnode commit so mode/sequencer writes
        // take effect cleanly at the next cycle boundary).
        if let Some(effect) = &ctrl_step.effect {
            self.apply_effect(effect, plan)
                .map_err(|cause| SimError::BadConfigWrite { cycle, cause })?;
        }

        // Shared bus: controller drive wins, then the lowest-index Dnode.
        let ctrl_drive = match ctrl_step.effect {
            Some(CtrlEffect::DriveBus(word)) => Some(word),
            _ => None,
        };
        let total_drivers = bus_count + usize::from(ctrl_drive.is_some());
        if total_drivers > 1 {
            self.stats.bus_conflicts += 1;
        }
        if let Some(word) = ctrl_drive.or(bus_first) {
            self.bus = word;
        }

        // Active-context switch staged by the controller.
        if self.config.commit() {
            self.stats.ctx_switches += 1;
        }

        self.cycle += 1;
        self.stats.cycles += 1;
        Ok(())
    }

    /// The controller's share of the compute phase (both per-cycle paths).
    pub(crate) fn controller_substep(&mut self, cycle: u64) -> Result<CtrlStep, SimError> {
        let ctrl_step = {
            let mut ports = PortsAdapter {
                bus: self.bus,
                switches: &mut self.switches,
            };
            self.controller
                .step(&mut ports)
                .map_err(|fault| match fault {
                    CtrlFault::PcOutOfRange { pc } => SimError::PcOutOfRange { cycle, pc },
                    CtrlFault::BadInstruction { pc, cause } => {
                        SimError::BadInstruction { cycle, pc, cause }
                    }
                    CtrlFault::DmemOutOfRange { addr } => SimError::DmemOutOfRange { cycle, addr },
                    CtrlFault::BadPort(cause) => SimError::BadConfigWrite { cycle, cause },
                })?
        };
        if ctrl_step.retired {
            self.stats.ctrl_instrs += 1;
        } else {
            self.stats.ctrl_stall_cycles += 1;
        }
        Ok(ctrl_step)
    }

    /// Reads one pre-resolved operand source against pre-cycle state
    /// (the fast path's [`RingMachine::resolve_source`]).
    fn read_fast(
        &self,
        src: FastSrc,
        dnode: usize,
        scratch: &mut Scratch,
        underflows: &mut u64,
    ) -> Word16 {
        match src {
            FastSrc::Const(word) => word,
            FastSrc::Reg(reg) => self.dnodes[dnode].reg(reg),
            FastSrc::Bus => self.bus,
            FastSrc::Out(index) => self.dnodes[index].out(),
            FastSrc::Pipe {
                switch,
                stage,
                lane,
            } => self.switches[switch].pipe.read(stage, lane),
            FastSrc::HostIn { switch, port } => {
                scratch.mark_hostin(switch, port);
                match self.switches[switch].host_in[port].peek() {
                    Some(word) => word,
                    None => {
                        *underflows += 1;
                        Word16::ZERO
                    }
                }
            }
        }
    }

    /// Commits one controller effect. Every configuration write counts
    /// one `Stats::config_writes` once it has been validated and applied.
    fn apply_effect(
        &mut self,
        effect: &CtrlEffect,
        plan: &mut DecodedPlan,
    ) -> Result<(), ConfigError> {
        match *effect {
            CtrlEffect::WriteDnode { ctx, dnode, word } => {
                let instr = MicroInstr::decode(word)?;
                self.config.set_dnode_instr(ctx, dnode, instr)?;
            }
            CtrlEffect::WritePort { ctx, flat, word } => {
                let source = PortSource::decode(word)?;
                self.config.set_port_flat(ctx, flat, source)?;
            }
            CtrlEffect::WriteCapture {
                ctx,
                switch,
                port,
                word,
            } => {
                let capture = HostCapture::decode(word)?;
                self.config.set_capture(ctx, switch, port, capture)?;
            }
            CtrlEffect::WriteMode { dnode, local } => {
                write_mode(&mut self.dnodes, plan, dnode, local)?;
            }
            CtrlEffect::WriteLocalSlot { dnode, slot, word } => {
                write_local_slot(&mut self.dnodes, plan, dnode, slot, word)?;
            }
            CtrlEffect::WriteLocalLimit { dnode, limit } => {
                write_local_limit(&mut self.dnodes, plan, dnode, limit)?;
            }
            CtrlEffect::SetActiveCtx(ctx) => return self.config.stage_select(ctx),
            CtrlEffect::DriveBus(_) => return Ok(()), // handled by the bus arbiter
            CtrlEffect::HostPush { switch, port, word } => {
                // Lands behind the FIFO's delivered words, ahead of any
                // undelivered stream words (see `WordFifo::push`).
                check_input_port(&self.switches, switch, port)?;
                if self.switches[switch].host_in[port].push(word) == PushOutcome::Dropped {
                    self.stats.fifo_overflows += 1;
                }
                return Ok(());
            }
        }
        self.stats.config_writes += 1;
        Ok(())
    }

    /// Runs `cycles` clock cycles.
    ///
    /// This is the entry point for compiled bursts (see
    /// [`MachineParams::fused`]): whenever the next cycles are admitted,
    /// they execute as one burst through the compiled programs of the
    /// configurations they run under; otherwise the machine advances one
    /// [`RingMachine::step`] at a time. Either way, exactly `cycles`
    /// cycles are executed.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] encountered.
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        let mut remaining = cycles;
        while remaining > 0 {
            let burst = self.try_burst(remaining);
            if burst == 0 {
                self.step()?;
                remaining -= 1;
            } else {
                remaining -= burst;
            }
        }
        Ok(())
    }

    /// Runs until the controller halts, executing at most `max_cycles`
    /// further cycles. Returns the number of cycles executed.
    ///
    /// # Budget-boundary semantics
    ///
    /// The halt flag is sampled at cycle *boundaries*, before each step:
    /// an already-halted machine executes zero cycles, and a `halt`
    /// retiring on some cycle is itself the last cycle counted. The budget
    /// is exact — this method never "overshoots mid-step". In particular,
    /// on [`SimError::CycleLimit`] exactly `max_cycles` cycles have been
    /// executed and are reflected in [`RingMachine::cycle`] (and in the
    /// statistics), and the machine can simply be resumed with a fresh
    /// budget. The batch runner's `UntilHalt` accounting slices its total
    /// budget through this method and relies on that exactness.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimit`] if the controller has not halted
    /// within the budget, or any fault encountered earlier.
    ///
    /// # Examples
    ///
    /// ```
    /// use systolic_ring_core::{RingMachine, SimError};
    /// use systolic_ring_isa::ctrl::CtrlInstr;
    /// use systolic_ring_isa::RingGeometry;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut m = RingMachine::with_defaults(RingGeometry::RING_8);
    /// m.controller_mut().load_program(&[
    ///     CtrlInstr::Wait { cycles: 3 }.encode(),
    ///     CtrlInstr::Halt.encode(),
    /// ])?;
    /// // Budget exhausted: exactly 2 cycles ran, not one more.
    /// assert!(matches!(
    ///     m.run_until_halt(2),
    ///     Err(SimError::CycleLimit { limit: 2 })
    /// ));
    /// assert_eq!(m.cycle(), 2);
    /// // Resuming finishes the wait; the halt occupies its own cycle.
    /// let executed = m.run_until_halt(64)?;
    /// assert_eq!(m.cycle(), 2 + executed);
    /// assert!(m.controller().is_halted());
    /// // A halted machine runs zero further cycles.
    /// assert_eq!(m.run_until_halt(64)?, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_until_halt(&mut self, max_cycles: u64) -> Result<u64, SimError> {
        let start = self.cycle;
        while !self.controller.is_halted() {
            if self.cycle - start >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
            // A burst ends at the latest on the cycle a `halt` retires, so
            // its cycles all count against the budget exactly as stepping
            // them would.
            let budget = max_cycles - (self.cycle - start);
            if self.try_burst(budget) == 0 {
                self.step()?;
            }
        }
        Ok(self.cycle - start)
    }
}
