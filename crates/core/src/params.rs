//! Machine parameterization beyond the ring geometry.

use std::cell::Cell;

use crate::fault::FaultConfig;

/// Host-link bandwidth model.
///
/// The paper quotes two operating points for Ring-8 at 200 MHz (§5.1): the
/// theoretical ~3 GB/s of the direct dedicated ports and the 250 MB/s of the
/// implemented PCI-class link. The link model meters how many 16-bit words
/// the host interface may move (in plus out) per cycle.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LinkModel {
    /// Direct dedicated ports: no metering (on-chip memories feed every
    /// switch at full rate, as on the APEX prototype).
    #[default]
    Direct,
    /// A metered link moving at most `bytes_per_cycle` bytes per clock
    /// cycle, shared by all host traffic in both directions.
    Metered {
        /// Link budget in bytes per core clock cycle.
        bytes_per_cycle: f64,
    },
}

impl LinkModel {
    /// The paper's implemented PCI-class link: 250 MB/s at a 200 MHz core
    /// clock = 1.25 bytes per cycle.
    pub const PCI_250MBPS_AT_200MHZ: LinkModel = LinkModel::Metered {
        bytes_per_cycle: 1.25,
    };

    /// Words the link may move this cycle given `credit` accumulated bytes;
    /// returns the new credit and the word allowance.
    pub(crate) fn allowance(self, credit: f64) -> (f64, usize) {
        match self {
            LinkModel::Direct => (0.0, usize::MAX),
            LinkModel::Metered { bytes_per_cycle } => {
                let total = credit + bytes_per_cycle;
                let words = (total / 2.0).floor() as usize;
                (total - words as f64 * 2.0, words)
            }
        }
    }
}

/// Sizing parameters of a [`crate::RingMachine`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineParams {
    /// Number of configuration contexts in the configuration layer.
    pub contexts: usize,
    /// Depth of each switch's feedback pipeline (stages).
    pub pipe_depth: usize,
    /// Capacity of each switch's host-input and host-output FIFOs (words).
    pub host_fifo_capacity: usize,
    /// Controller program-memory capacity (words).
    pub prog_capacity: usize,
    /// Controller data-memory capacity (words).
    pub dmem_capacity: usize,
    /// Host-link bandwidth model.
    pub link: LinkModel,
    /// Execute from the predecoded configuration cache (the fast path).
    ///
    /// When `true` (the default), [`crate::RingMachine::step`] runs each
    /// cycle from dense pre-resolved operation plans that are decoded once
    /// per distinct configuration and invalidated only by configuration
    /// writes; NOP/idle Dnodes are skipped entirely. When `false` the
    /// machine takes the original decode-per-cycle reference path. The two
    /// paths are architecturally identical — same outputs, same traces,
    /// same statistics except the [`crate::Stats::decode_cache_hits`] /
    /// [`crate::Stats::decode_cache_misses`] counters — so differential
    /// tests oracle one against the other.
    pub decode_cache: bool,
    /// Execute through the compiled tier.
    ///
    /// When `true` (the default) *and* the predecoded cache is enabled,
    /// [`crate::RingMachine::run`] and
    /// [`crate::RingMachine::run_until_halt`] execute every admitted
    /// stretch of cycles as one *compiled burst*: the whole ring is
    /// compiled into a flat, phase-scheduled operation list and replayed
    /// over a struct-of-arrays snapshot of machine state with no
    /// per-cycle decode, dispatch or staging. A cycle is admitted when no
    /// fault injector is armed, no context select is staged, and the
    /// controller is halted, waiting, or about to execute a burst-safe
    /// instruction — one that cannot fault and touches neither the
    /// configuration nor a host FIFO. The controller steps inside the
    /// burst, and a `ctx` switch moves the burst to the new context's
    /// program; the burst stops before any other instruction and on the
    /// cycle a `halt` retires. Under an armed watchdog only quiet windows
    /// run compiled (the controller halted or mid-`wait`, direct link,
    /// streams drained, no open sinks, ending before the earliest
    /// possible trip). Programs are cached by configuration content, so
    /// a configuration is compiled the first time it is seen (a guard
    /// miss) and re-entered whenever it returns; no reconfiguration
    /// deoptimizes anything. The compiled tier is architecturally
    /// indistinguishable from the decoded path — same outputs, traces,
    /// faults and statistics except the engine counters that
    /// [`crate::Stats::without_cache_counters`] zeroes.
    /// [`crate::RingMachine::step`] never bursts: single-cycle stepping
    /// (and therefore per-cycle tracing) always takes the decoded path.
    pub fused: bool,
    /// Book single-machine compiled bursts under the `aot_*` counters.
    ///
    /// The flag changes no behaviour and no coverage: with it set,
    /// single-machine bursts count under [`crate::Stats::aot_entries`] /
    /// [`crate::Stats::aot_cycles`] instead of the `fused_*` counters
    /// (lockstep bursts always count as `fused_*`). It remains so
    /// differential suites and benchmarks can keep an `aot` column. Off
    /// by default (`MachineParams::PAPER`).
    pub aot: bool,
    /// Fault-injection and fault-detection configuration.
    ///
    /// [`FaultConfig::OFF`] (the default) builds no fault machinery at
    /// all — the stepper takes the exact pre-fault code path. Any active
    /// configuration attaches a seed-driven
    /// [`FaultInjector`](crate::fault::FaultInjector) whose per-cycle
    /// decisions depend only on `(seed, salt, cycle)`, so the predecoded
    /// fast path and the reference path see identical fault schedules.
    pub faults: FaultConfig,
    /// Watchdog interval in cycles; `0` (the default) disables it.
    ///
    /// When nonzero, the machine checks at every cycle boundary whether
    /// any controller or host progress (instructions retired,
    /// configuration writes, context switches, host words moved) happened
    /// in the last `watchdog_interval` cycles, and raises
    /// [`SimError::Watchdog`](crate::SimError::Watchdog) if not — the
    /// heartbeat that catches hung or diverged local-mode loops spinning
    /// without supervision.
    pub watchdog_interval: u64,
}

impl MachineParams {
    /// Parameters used throughout the paper reproduction: 8 contexts,
    /// 8-stage feedback pipelines, generous on-chip FIFOs, direct ports.
    pub const PAPER: MachineParams = MachineParams {
        contexts: 8,
        pipe_depth: 8,
        host_fifo_capacity: 4096,
        prog_capacity: 65536,
        dmem_capacity: 65536,
        link: LinkModel::Direct,
        decode_cache: true,
        fused: true,
        aot: false,
        faults: FaultConfig::OFF,
        watchdog_interval: 0,
    };

    /// Builder: set the context count.
    pub fn with_contexts(mut self, contexts: usize) -> Self {
        self.contexts = contexts;
        self
    }

    /// Builder: set the feedback-pipeline depth.
    pub fn with_pipe_depth(mut self, pipe_depth: usize) -> Self {
        self.pipe_depth = pipe_depth;
        self
    }

    /// Builder: set the host FIFO capacity.
    pub fn with_host_fifo_capacity(mut self, capacity: usize) -> Self {
        self.host_fifo_capacity = capacity;
        self
    }

    /// Builder: set the host-link model.
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Builder: enable or disable the predecoded configuration cache.
    ///
    /// # Examples
    ///
    /// The cached fast path and the uncached reference path are
    /// bit-identical:
    ///
    /// ```
    /// use systolic_ring_core::{MachineParams, RingMachine};
    /// use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand, Reg};
    /// use systolic_ring_isa::RingGeometry;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let count = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::One)
    ///     .write_reg(Reg::R0)
    ///     .write_out();
    /// let mut runs = Vec::new();
    /// for cached in [true, false] {
    ///     let params = MachineParams::PAPER.with_decode_cache(cached);
    ///     let mut m = RingMachine::new(RingGeometry::RING_8, params);
    ///     m.configure().set_dnode_instr(0, 0, count)?;
    ///     m.run(5)?;
    ///     runs.push(m.dnode(0).reg(Reg::R0));
    /// }
    /// assert_eq!(runs[0], runs[1]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_decode_cache(mut self, decode_cache: bool) -> Self {
        self.decode_cache = decode_cache;
        self
    }

    /// Builder: enable or disable the compiled tier.
    ///
    /// Compiled bursts additionally require the predecoded cache
    /// ([`MachineParams::decode_cache`]); with the cache off this flag has
    /// no effect, which keeps `with_decode_cache(false)` an honest
    /// decode-per-cycle reference path.
    pub fn with_fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Builder: book single-machine compiled bursts under `aot_*` (see
    /// [`MachineParams::aot`]).
    ///
    /// Compiled bursts additionally require the predecoded cache and the
    /// compiled tier ([`MachineParams::decode_cache`],
    /// [`MachineParams::fused`]); with either off this flag has no effect.
    pub fn with_aot(mut self, aot: bool) -> Self {
        self.aot = aot;
        self
    }

    /// Builder: set the fault-injection/detection configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: set the watchdog interval (`0` disables the watchdog).
    pub fn with_watchdog(mut self, interval: u64) -> Self {
        self.watchdog_interval = interval;
        self
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams::PAPER
    }
}

/// The construction overrides active on this thread: one per
/// `with_*` scope kind, `None` where no scope of that kind is open.
#[derive(Clone, Copy)]
struct Overrides {
    decode_cache: Option<bool>,
    fused: Option<bool>,
    aot: Option<bool>,
    faults: Option<FaultConfig>,
}

thread_local! {
    static OVERRIDES: Cell<Overrides> = const {
        Cell::new(Overrides {
            decode_cache: None,
            fused: None,
            aot: None,
            faults: None,
        })
    };
}

/// Runs `f` with `set` applied to this thread's overrides, restoring the
/// previous overrides when `f` returns or panics. Scopes nest because
/// each one restores exactly what it found.
fn with_override<T>(set: impl FnOnce(&mut Overrides), f: impl FnOnce() -> T) -> T {
    struct Restore(Overrides);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDES.with(|cell| cell.set(self.0));
        }
    }
    let saved = OVERRIDES.with(Cell::get);
    let mut scoped = saved;
    set(&mut scoped);
    let _restore = Restore(saved);
    OVERRIDES.with(|cell| cell.set(scoped));
    f()
}

impl MachineParams {
    /// `self` with this thread's active `with_*` overrides applied
    /// (consulted by machine construction).
    pub(crate) fn with_overrides(mut self) -> Self {
        let o = OVERRIDES.with(Cell::get);
        self.decode_cache = o.decode_cache.unwrap_or(self.decode_cache);
        self.fused = o.fused.unwrap_or(self.fused);
        self.aot = o.aot.unwrap_or(self.aot);
        self.faults = o.faults.unwrap_or(self.faults);
        self
    }
}

/// Runs `f` with [`MachineParams::decode_cache`] forced to `enabled` for
/// every [`crate::RingMachine`] *created* on this thread inside the call.
///
/// Kernel drivers and other workload adapters construct their machines
/// internally with fixed parameters; differential fast-vs-slow oracles wrap
/// whole driver calls in `with_decode_cache(false, ..)` to obtain the
/// uncached reference run without widening every driver signature. The
/// override nests, applies only to machine construction (an existing
/// machine keeps the flag it was built with), and is restored even if `f`
/// panics.
///
/// # Examples
///
/// ```
/// use systolic_ring_core::{with_decode_cache, MachineParams, RingMachine};
/// use systolic_ring_isa::RingGeometry;
///
/// let m = with_decode_cache(false, || RingMachine::with_defaults(RingGeometry::RING_8));
/// assert!(!m.params().decode_cache);
/// assert!(RingMachine::with_defaults(RingGeometry::RING_8).params().decode_cache);
/// ```
pub fn with_decode_cache<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    with_override(|o| o.decode_cache = Some(enabled), f)
}

/// Runs `f` with [`MachineParams::fused`] forced to `enabled` for every
/// [`crate::RingMachine`] *created* on this thread inside the call.
///
/// The compiled-tier analogue of [`with_decode_cache`]: kernel drivers
/// construct their machines internally with fixed parameters, so the
/// three-way differential oracle (slow / decoded / fused) wraps whole
/// driver calls in `with_fused` scopes instead of widening every driver
/// signature. Nests, applies only to machine construction, and is restored
/// even if `f` panics.
///
/// # Examples
///
/// ```
/// use systolic_ring_core::{with_fused, RingMachine};
/// use systolic_ring_isa::RingGeometry;
///
/// let m = with_fused(false, || RingMachine::with_defaults(RingGeometry::RING_8));
/// assert!(!m.params().fused);
/// assert!(RingMachine::with_defaults(RingGeometry::RING_8).params().fused);
/// ```
pub fn with_fused<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    with_override(|o| o.fused = Some(enabled), f)
}

/// Runs `f` with [`MachineParams::aot`] forced to `enabled` for every
/// [`crate::RingMachine`] *created* on this thread inside the call.
///
/// The `aot`-counter analogue of [`with_fused`]: kernel drivers construct
/// their machines internally with fixed parameters, so the four-column
/// differential oracle (slow / decoded / fused / aot) wraps whole driver
/// calls in `with_aot` scopes instead of widening every driver signature.
/// Nests, applies only to machine construction, and is restored even if
/// `f` panics.
///
/// # Examples
///
/// ```
/// use systolic_ring_core::{with_aot, RingMachine};
/// use systolic_ring_isa::RingGeometry;
///
/// let m = with_aot(true, || RingMachine::with_defaults(RingGeometry::RING_8));
/// assert!(m.params().aot);
/// assert!(!RingMachine::with_defaults(RingGeometry::RING_8).params().aot);
/// ```
pub fn with_aot<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    with_override(|o| o.aot = Some(enabled), f)
}

/// Runs `f` with [`MachineParams::faults`] forced to `faults` for every
/// [`crate::RingMachine`] *created* on this thread inside the call.
///
/// The fault-injection analogue of [`with_decode_cache`]: kernel drivers
/// construct their machines internally, so chaos campaigns wrap whole
/// driver calls in a `with_faults` scope to subject them to injection (and
/// retries re-wrap with a different [`FaultConfig::salt`]) without
/// widening every driver signature. Nests, applies only to machine
/// construction, and is restored even if `f` panics.
///
/// # Examples
///
/// ```
/// use systolic_ring_core::fault::FaultConfig;
/// use systolic_ring_core::{with_faults, RingMachine};
/// use systolic_ring_isa::RingGeometry;
///
/// let cfg = FaultConfig::uniform(7, 100);
/// let m = with_faults(cfg, || RingMachine::with_defaults(RingGeometry::RING_8));
/// assert_eq!(m.params().faults, cfg);
/// assert_eq!(
///     RingMachine::with_defaults(RingGeometry::RING_8).params().faults,
///     FaultConfig::OFF,
/// );
/// ```
pub fn with_faults<T>(faults: FaultConfig, f: impl FnOnce() -> T) -> T {
    with_override(|o| o.faults = Some(faults), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_params() {
        let p = MachineParams::default();
        assert_eq!(p.contexts, 8);
        assert_eq!(p.pipe_depth, 8);
        assert_eq!(p.link, LinkModel::Direct);
    }

    #[test]
    fn builders_chain() {
        let p = MachineParams::default()
            .with_contexts(2)
            .with_pipe_depth(4)
            .with_host_fifo_capacity(64)
            .with_link(LinkModel::PCI_250MBPS_AT_200MHZ);
        assert_eq!(p.contexts, 2);
        assert_eq!(p.pipe_depth, 4);
        assert_eq!(p.host_fifo_capacity, 64);
        assert_ne!(p.link, LinkModel::Direct);
    }

    #[test]
    fn overrides_nest_and_restore_even_on_panic() {
        let base = MachineParams::PAPER;
        let faults = FaultConfig::uniform(7, 100);
        with_aot(true, || {
            with_fused(false, || {
                with_aot(false, || {
                    let p = base.with_overrides();
                    assert!(!p.aot && !p.fused, "the inner scope shadows the outer");
                });
                let p = base.with_overrides();
                assert!(p.aot && !p.fused, "leaving a scope restores what it found");
                with_faults(faults, || {
                    with_decode_cache(false, || {
                        let p = base.with_overrides();
                        assert!(p.aot && !p.fused && !p.decode_cache);
                        assert_eq!(p.faults, faults);
                    })
                });
            });
            let panicked = std::panic::catch_unwind(|| with_fused(false, || panic!("scoped")));
            assert!(panicked.is_err());
            assert_eq!(
                base.with_overrides(),
                base.with_aot(true),
                "a panicking scope still restores"
            );
        });
        assert_eq!(base.with_overrides(), base);
    }

    #[test]
    fn direct_link_is_unmetered() {
        let (credit, words) = LinkModel::Direct.allowance(0.0);
        assert_eq!(words, usize::MAX);
        assert_eq!(credit, 0.0);
    }

    #[test]
    fn metered_link_accumulates_credit() {
        // 1.25 bytes/cycle: first cycle 0 words (1.25 B), second 1 word
        // (2.5 B -> 1 word, 0.5 B left), etc.
        let link = LinkModel::PCI_250MBPS_AT_200MHZ;
        let (credit, words) = link.allowance(0.0);
        assert_eq!(words, 0);
        assert!((credit - 1.25).abs() < 1e-9);
        let (credit, words) = link.allowance(credit);
        assert_eq!(words, 1);
        assert!((credit - 0.5).abs() < 1e-9);
        // Long-run rate: 0.625 words/cycle.
        let mut credit = 0.0;
        let mut total = 0usize;
        for _ in 0..1000 {
            let (c, w) = link.allowance(credit);
            credit = c;
            total += w;
        }
        assert_eq!(total, 625);
    }
}
