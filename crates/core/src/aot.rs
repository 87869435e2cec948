//! Schedule bursts: the `aot` tier's addition to the compiled tier.
//!
//! The compiled tier (see [`crate::fused`]) enters a burst only while the
//! controller is quiet — halted or mid-`wait`. With
//! [`crate::MachineParams::aot`] set, a *running* controller does not
//! force the decoded path either, as long as it stays off the datapath: a
//! lookahead over a cloned controller admits every cycle whose
//! instruction provably retires without reading the bus or a host FIFO
//! and whose only architectural effect is a context select. The admitted
//! region partitions into per-context segments; each segment's fabric
//! cycles run through the shared program cache's compiled program for
//! that configuration, and the controller then replays over the same
//! cycles (one instruction per cycle, datapath-free by admission). Within
//! the region the controller and the fabric only interact at the
//! segment-boundary context commits, so the decomposition is cycle-exact.
//! This is what covers multi-phase schedules whose controller ping-pongs
//! contexts without ever waiting.
//!
//! Schedule bursts pass the compiled tier's admission rule minus the
//! quiet-controller clause, and are refused outright under an armed
//! watchdog: the heartbeat samples controller progress at every decoded
//! cycle boundary. Controller instructions that touch the datapath
//! (`busr`, `hpop`, `busw`, `hpush`, configuration writes) end the
//! admitted region.

use std::cell::Cell;

use systolic_ring_isa::Word16;

use crate::controller::{CtrlEffect, CtrlPorts, CtrlState};
use crate::error::ConfigError;
use crate::fused::MIN_BURST;
use crate::machine::RingMachine;

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
    pub(crate) fn try_schedule(&mut self, remaining: u64) -> u64 {
        if !self.may_burst() || self.params.watchdog_interval > 0 {
            return 0;
        }
        let mut cache = self.programs.take().unwrap_or_default();
        if self.cycle < cache.schedule_stuck_until {
            self.programs = Some(cache);
            return 0;
        }
        let (segments, capped) = self.schedule_lookahead(remaining);
        let total: u64 = segments.iter().sum();
        if total < MIN_BURST {
            if !capped {
                // The blocking instruction sits `total` cycles out and the
                // controller retires at most one instruction per cycle, so
                // any earlier re-walk stops at the same place.
                cache.schedule_stuck_until = self.cycle + total + 1;
            }
            self.programs = Some(cache);
            return 0;
        }
        for len in segments {
            self.cached_burst(&mut cache, len);
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
        self.programs = Some(cache);
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
    use systolic_ring_isa::RingGeometry;

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
        assert_eq!(m.cached_programs(), 0, "load compiles nothing");
        m.run(40).unwrap();
        assert_eq!(m.stats().guard_misses, 1);
        assert_eq!(m.stats().compiles, 1);
        assert!(m.stats().aot_cycles > 0);
        assert_eq!(m.stats().fused_entries, 0, "aot-tier bursts count as aot");
    }
}
