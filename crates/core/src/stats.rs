//! Execution statistics gathered by the simulator.
//!
//! The evaluation leans on these counters: cycle counts drive every
//! performance table, operation counts give the MIPS figures of §5.1, and
//! per-Dnode activity gives the fabric-utilization claims ("25% of the Ring
//! structure remains free", Table 2 discussion).

/// Counters for one Dnode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DnodeStats {
    /// Cycles in which the Dnode executed a non-NOP microinstruction.
    pub active_cycles: u64,
    /// ALU operations executed (every non-NOP counts one).
    pub alu_ops: u64,
    /// Operations that also engaged the hardwired multiplier; the MAC
    /// family counts here *and* in `alu_ops` (two arithmetic operations in
    /// one cycle, as the paper advertises).
    pub mult_ops: u64,
    /// Cycles spent in local (stand-alone) mode.
    pub local_cycles: u64,
}

/// Machine-wide execution statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Per-Dnode counters, indexed by flat Dnode index.
    pub dnodes: Vec<DnodeStats>,
    /// Controller instructions retired (excludes stall cycles).
    pub ctrl_instrs: u64,
    /// Controller cycles spent stalled (`wait`, blocked `hpop`, halted).
    pub ctrl_stall_cycles: u64,
    /// Configuration words written by the controller (`wdn`/`wsw`/`who`/
    /// `wloc`/`wlim`/`wmode`).
    pub config_writes: u64,
    /// Active-context switches performed (`ctx`).
    pub ctx_switches: u64,
    /// Words delivered from host streams into switch FIFOs.
    pub host_words_in: u64,
    /// Words drained from switch FIFOs into host sinks.
    pub host_words_out: u64,
    /// Cycles in which host traffic was deferred by the link model.
    pub link_stall_cycles: u64,
    /// Reads of an empty host-input FIFO (returned zero).
    pub fifo_underflows: u64,
    /// Captures dropped because a host-output FIFO was full.
    pub fifo_overflows: u64,
    /// Cycles in which more than one writer drove the shared bus.
    pub bus_conflicts: u64,
    /// Cycles the predecoded-configuration fast path ran without rebuilding
    /// any cache entry (always 0 when the cache is disabled).
    pub decode_cache_hits: u64,
    /// Predecoded-cache entries (re)built: one per Dnode plan, capture
    /// plan, work-list or local-loop unroll decoded (always 0 when the
    /// cache is disabled).
    pub decode_cache_misses: u64,
    /// Programs compiled into the program cache: one per guard miss, plus
    /// one per in-place re-anchor when the sequencer counters leave a
    /// compiled orbit. Nothing is compiled at load.
    pub compiles: u64,
    /// Burst entries whose configuration content matched no cached
    /// program. Each compiles the new window and enters it at once.
    pub guard_misses: u64,
    /// Compiled bursts entered outside the `aot` tier: single-machine
    /// bursts with [`crate::MachineParams::aot`] off, and every
    /// [`crate::lockstep_burst`] (always 0 when
    /// [`crate::MachineParams::fused`] is off).
    pub fused_entries: u64,
    /// Always 0: no tier deoptimizes, because a changed configuration is a
    /// guard miss that compiles. Kept for readers that still report it.
    pub fused_deopts: u64,
    /// Cycles executed inside bursts counted by `fused_entries` (subset of
    /// `cycles`; burst cycles do not count `decode_cache_hits`).
    pub fused_cycles: u64,
    /// Lane-cycles executed inside fused bursts: each burst adds
    /// `lanes x cycles`, so single-lane fusion adds exactly `fused_cycles`
    /// and multi-lane (lockstep batch) fusion adds more. The mean lane
    /// occupancy of the fused engine is `fused_lane_occupancy /
    /// fused_cycles`.
    pub fused_lane_occupancy: u64,
    /// Single-machine compiled bursts entered on the `aot` tier, schedule
    /// bursts included (always 0 when [`crate::MachineParams::aot`] is
    /// off).
    pub aot_entries: u64,
    /// Cycles executed inside bursts counted by `aot_entries` (subset of
    /// `cycles`, disjoint from `fused_cycles`).
    pub aot_cycles: u64,
    /// Faults injected by the fault injector (all classes).
    pub faults_injected: u64,
    /// Detection sweeps executed (configuration parity plus pending
    /// datapath fault tags).
    pub parity_scrubs: u64,
    /// Configuration corruptions caught by a parity scrub.
    pub config_faults_detected: u64,
    /// Datapath faults (register/pipeline/sequencer flips, stuck outputs)
    /// caught by a detection sweep.
    pub datapath_faults_detected: u64,
    /// Watchdog expirations.
    pub watchdog_trips: u64,
    /// Checkpoints taken via [`crate::RingMachine::checkpoint`].
    pub checkpoints: u64,
    /// Restores performed via [`crate::RingMachine::restore`]; survives
    /// the rollback itself (it is not rewound to the checkpointed value).
    pub restores: u64,
}

impl Stats {
    /// Creates zeroed statistics for `dnodes` Dnodes.
    pub fn new(dnodes: usize) -> Self {
        Stats {
            dnodes: vec![DnodeStats::default(); dnodes],
            ..Stats::default()
        }
    }

    /// Total ALU operations across the fabric.
    pub fn total_ops(&self) -> u64 {
        self.dnodes.iter().map(|d| d.alu_ops + d.mult_ops).sum()
    }

    /// Fabric utilization: mean fraction of Dnodes active per cycle.
    ///
    /// Returns 0.0 before any cycle has run.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 || self.dnodes.is_empty() {
            return 0.0;
        }
        let active: u64 = self.dnodes.iter().map(|d| d.active_cycles).sum();
        active as f64 / (self.cycles as f64 * self.dnodes.len() as f64)
    }

    /// Number of Dnodes that never executed an operation (free fabric).
    pub fn idle_dnodes(&self) -> usize {
        self.dnodes.iter().filter(|d| d.active_cycles == 0).count()
    }

    /// Operations per cycle achieved over the run.
    pub fn ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_ops() as f64 / self.cycles as f64
        }
    }

    /// Accumulates `other` into `self`, counter by counter.
    ///
    /// Per-Dnode counters are added index-wise; if `other` covers more
    /// Dnodes (a bigger geometry), `self` grows to match. The batch
    /// engine uses this to fold per-job statistics into one batch-level
    /// record, so derived figures (utilization, ops/cycle) read as
    /// aggregates over the summed cycle base.
    ///
    /// `other` is destructured without `..`, so a counter added to
    /// [`Stats`] or [`DnodeStats`] does not compile until it is merged
    /// here too.
    pub fn merge(&mut self, other: &Stats) {
        let Stats {
            cycles,
            dnodes,
            ctrl_instrs,
            ctrl_stall_cycles,
            config_writes,
            ctx_switches,
            host_words_in,
            host_words_out,
            link_stall_cycles,
            fifo_underflows,
            fifo_overflows,
            bus_conflicts,
            decode_cache_hits,
            decode_cache_misses,
            compiles,
            guard_misses,
            fused_entries,
            fused_deopts,
            fused_cycles,
            fused_lane_occupancy,
            aot_entries,
            aot_cycles,
            faults_injected,
            parity_scrubs,
            config_faults_detected,
            datapath_faults_detected,
            watchdog_trips,
            checkpoints,
            restores,
        } = other;
        if self.dnodes.len() < dnodes.len() {
            self.dnodes.resize(dnodes.len(), DnodeStats::default());
        }
        for (mine, theirs) in self.dnodes.iter_mut().zip(dnodes) {
            let DnodeStats {
                active_cycles,
                alu_ops,
                mult_ops,
                local_cycles,
            } = theirs;
            mine.active_cycles += active_cycles;
            mine.alu_ops += alu_ops;
            mine.mult_ops += mult_ops;
            mine.local_cycles += local_cycles;
        }
        self.cycles += cycles;
        self.ctrl_instrs += ctrl_instrs;
        self.ctrl_stall_cycles += ctrl_stall_cycles;
        self.config_writes += config_writes;
        self.ctx_switches += ctx_switches;
        self.host_words_in += host_words_in;
        self.host_words_out += host_words_out;
        self.link_stall_cycles += link_stall_cycles;
        self.fifo_underflows += fifo_underflows;
        self.fifo_overflows += fifo_overflows;
        self.bus_conflicts += bus_conflicts;
        self.decode_cache_hits += decode_cache_hits;
        self.decode_cache_misses += decode_cache_misses;
        self.compiles += compiles;
        self.guard_misses += guard_misses;
        self.fused_entries += fused_entries;
        self.fused_deopts += fused_deopts;
        self.fused_cycles += fused_cycles;
        self.fused_lane_occupancy += fused_lane_occupancy;
        self.aot_entries += aot_entries;
        self.aot_cycles += aot_cycles;
        self.faults_injected += faults_injected;
        self.parity_scrubs += parity_scrubs;
        self.config_faults_detected += config_faults_detected;
        self.datapath_faults_detected += datapath_faults_detected;
        self.watchdog_trips += watchdog_trips;
        self.checkpoints += checkpoints;
        self.restores += restores;
    }

    /// A copy with the engine counters (decode cache, compiles, guard
    /// misses, burst entries and cycles) zeroed.
    ///
    /// Those counters are the one intentional difference between the slow,
    /// decoded and compiled execution paths; differential oracles compare
    /// `a.without_cache_counters() == b.without_cache_counters()` to demand
    /// equality of every architectural counter.
    ///
    /// The copy is destructured without `..`, so a counter added to
    /// [`Stats`] does not compile until it is classed here: bound by name
    /// (an engine counter, zeroed) or `_` (architectural, kept).
    pub fn without_cache_counters(&self) -> Stats {
        let mut copy = self.clone();
        let Stats {
            cycles: _,
            dnodes: _,
            ctrl_instrs: _,
            ctrl_stall_cycles: _,
            config_writes: _,
            ctx_switches: _,
            host_words_in: _,
            host_words_out: _,
            link_stall_cycles: _,
            fifo_underflows: _,
            fifo_overflows: _,
            bus_conflicts: _,
            decode_cache_hits,
            decode_cache_misses,
            compiles,
            guard_misses,
            fused_entries,
            fused_deopts,
            fused_cycles,
            fused_lane_occupancy,
            aot_entries,
            aot_cycles,
            faults_injected: _,
            parity_scrubs: _,
            config_faults_detected: _,
            datapath_faults_detected: _,
            watchdog_trips: _,
            checkpoints: _,
            restores: _,
        } = &mut copy;
        for engine in [
            decode_cache_hits,
            decode_cache_misses,
            compiles,
            guard_misses,
            fused_entries,
            fused_deopts,
            fused_cycles,
            fused_lane_occupancy,
            aot_entries,
            aot_cycles,
        ] {
            *engine = 0;
        }
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_construction() {
        let s = Stats::new(8);
        assert_eq!(s.dnodes.len(), 8);
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.idle_dnodes(), 8);
        assert_eq!(s.ops_per_cycle(), 0.0);
    }

    /// Every counter set to a distinct nonzero multiple of `k`. The
    /// struct literals have no `..`, so a new counter must be given a
    /// value here too.
    fn every_counter_set(k: u64) -> Stats {
        let dnode = |base: u64| DnodeStats {
            active_cycles: (base + 1) * k,
            alu_ops: (base + 2) * k,
            mult_ops: (base + 3) * k,
            local_cycles: (base + 4) * k,
        };
        Stats {
            cycles: k,
            dnodes: vec![dnode(100), dnode(200)],
            ctrl_instrs: 2 * k,
            ctrl_stall_cycles: 3 * k,
            config_writes: 4 * k,
            ctx_switches: 5 * k,
            host_words_in: 6 * k,
            host_words_out: 7 * k,
            link_stall_cycles: 8 * k,
            fifo_underflows: 9 * k,
            fifo_overflows: 10 * k,
            bus_conflicts: 11 * k,
            decode_cache_hits: 12 * k,
            decode_cache_misses: 13 * k,
            compiles: 14 * k,
            guard_misses: 15 * k,
            fused_entries: 16 * k,
            fused_deopts: 17 * k,
            fused_cycles: 18 * k,
            fused_lane_occupancy: 19 * k,
            aot_entries: 20 * k,
            aot_cycles: 21 * k,
            faults_injected: 22 * k,
            parity_scrubs: 23 * k,
            config_faults_detected: 24 * k,
            datapath_faults_detected: 25 * k,
            watchdog_trips: 26 * k,
            checkpoints: 27 * k,
            restores: 28 * k,
        }
    }

    #[test]
    fn merge_keeps_every_counter() {
        let once = every_counter_set(1);
        let mut merged = Stats::default();
        merged.merge(&once);
        assert_eq!(merged, once, "merging into empty stats reproduces them");
        merged.merge(&once);
        assert_eq!(merged, every_counter_set(2), "merging twice doubles");
    }

    #[test]
    fn without_cache_counters_zeroes_exactly_the_engine_counters() {
        let all = every_counter_set(1);
        let engine_zeroed = Stats {
            decode_cache_hits: 0,
            decode_cache_misses: 0,
            compiles: 0,
            guard_misses: 0,
            fused_entries: 0,
            fused_deopts: 0,
            fused_cycles: 0,
            fused_lane_occupancy: 0,
            aot_entries: 0,
            aot_cycles: 0,
            ..all.clone()
        };
        assert_eq!(all.without_cache_counters(), engine_zeroed);
    }

    #[test]
    fn derived_metrics() {
        let mut s = Stats::new(2);
        s.cycles = 10;
        s.dnodes[0].active_cycles = 10;
        s.dnodes[0].alu_ops = 10;
        s.dnodes[0].mult_ops = 5;
        assert_eq!(s.total_ops(), 15);
        assert_eq!(s.utilization(), 0.5);
        assert_eq!(s.idle_dnodes(), 1);
        assert_eq!(s.ops_per_cycle(), 1.5);
    }
}
