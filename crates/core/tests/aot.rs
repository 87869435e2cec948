//! Differential validation of the `aot` column: the compiled tier with
//! single-machine bursts booked under the `aot_*` counters.
//!
//! Every test here runs the same scenario on four machines — the `aot`
//! tier (`aot` + `fused` + `decode_cache`), the default compiled tier,
//! the decoded per-cycle fast path and the slow decode-per-cycle
//! reference —
//! and demands **bit-identical** architectural behaviour: equal Dnode
//! registers, outputs and write stamps, equal bus values, sequencer
//! counters, controller state, sink streams and statistics modulo the
//! engines' own bookkeeping counters.
//!
//! The scenarios deliberately attack the guard-stitching surface: random
//! controller programs reconfigure the fabric mid-run (every compiled
//! superblock must be revalidated by configuration content at its next
//! entry), *external* configuration writes flip the epoch fingerprint at
//! arbitrary burst boundaries — both content-changing writes (a true
//! guard miss, answered by stitching a fresh compile) and same-word
//! rewrites (epoch moves, content does not: the content key must
//! revalidate the cached program instead of recompiling) — and an armed
//! fault injector must suppress compiled entry entirely.

use systolic_ring_core::fault::FaultConfig;
use systolic_ring_core::{MachineParams, RingMachine, SimError};
use systolic_ring_harness::for_random_cases;
use systolic_ring_harness::testkit::TestRng;
use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::{RingGeometry, Word16};

fn any_operand(rng: &mut TestRng) -> Operand {
    *rng.choose(&[
        Operand::Reg(Reg::R0),
        Operand::Reg(Reg::R2),
        Operand::Reg(Reg::R3),
        Operand::In1,
        Operand::In2,
        Operand::Fifo1,
        Operand::Fifo2,
        Operand::Bus,
        Operand::Imm,
        Operand::Zero,
        Operand::One,
    ])
}

fn any_alu(rng: &mut TestRng) -> AluOp {
    *rng.choose(&[
        AluOp::Nop,
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Mac,
        AluOp::AbsDiff,
        AluOp::Shl,
        AluOp::Asr,
        AluOp::Min,
        AluOp::SltU,
    ])
}

fn any_micro(rng: &mut TestRng) -> MicroInstr {
    MicroInstr {
        alu: any_alu(rng),
        src_a: any_operand(rng),
        src_b: any_operand(rng),
        wr_reg: if rng.next_bool() { Some(Reg::R1) } else { None },
        wr_out: rng.next_bool(),
        wr_bus: rng.next_bool(),
        imm: Word16::from_i16(rng.any_i16()),
    }
}

fn any_source(rng: &mut TestRng) -> PortSource {
    match rng.index(5) {
        0 => PortSource::Zero,
        1 => PortSource::Bus,
        2 => PortSource::PrevOut {
            lane: rng.index(2) as u8,
        },
        3 => PortSource::HostIn {
            port: rng.index(4) as u8,
        },
        _ => PortSource::Pipe {
            switch: rng.index(4) as u8,
            stage: rng.index(8) as u8,
            lane: rng.index(2) as u8,
        },
    }
}

fn r(n: u8) -> CReg {
    CReg::new(n).expect("register index")
}

/// Emits `rd = value` (Lui + Ori pair).
fn load32(code: &mut Vec<u32>, rd: CReg, value: u32) {
    code.push(
        CtrlInstr::Lui {
            rd,
            imm: (value >> 16) as u16,
        }
        .encode(),
    );
    code.push(
        CtrlInstr::Ori {
            rd,
            ra: rd,
            imm: value as u16,
        }
        .encode(),
    );
}

/// A random controller program interleaving long waits with valid
/// configuration writes — the multi-phase shape the AOT cache serves,
/// so runtime entries hit (or soundly miss) already-compiled phases.
fn reconfig_program(rng: &mut TestRng) -> Vec<u32> {
    let mut code = Vec::new();
    let blocks = 2 + rng.index(3);
    for _ in 0..blocks {
        code.push(
            CtrlInstr::Wait {
                cycles: 60 + rng.index(120) as u16,
            }
            .encode(),
        );
        match rng.index(6) {
            0 => {
                let word = any_micro(rng).encode();
                code.push(
                    CtrlInstr::Cimm {
                        imm: (word >> 32) as u16,
                    }
                    .encode(),
                );
                load32(&mut code, r(1), word as u32);
                code.push(
                    CtrlInstr::Wdn {
                        rs: r(1),
                        dnode: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
            1 => {
                load32(&mut code, r(2), any_source(rng).encode());
                code.push(
                    CtrlInstr::Wsw {
                        rs: r(2),
                        port: rng.index(32) as u16,
                    }
                    .encode(),
                );
            }
            2 => {
                load32(&mut code, r(4), rng.next_bool() as u32);
                code.push(
                    CtrlInstr::Wmode {
                        rs: r(4),
                        dnode: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
            3 => {
                load32(&mut code, r(6), 1 + rng.index(8) as u32);
                code.push(
                    CtrlInstr::Wlim {
                        rs: r(6),
                        dnode: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
            4 => {
                code.push(
                    CtrlInstr::Ctx {
                        ctx: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
            _ => {
                code.push(
                    CtrlInstr::Wctx {
                        ctx: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
        }
    }
    code.push(CtrlInstr::Wait { cycles: 200 }.encode());
    code.push(CtrlInstr::Halt.encode());
    code
}

/// Everything needed to construct identical machines at different
/// simulation tiers.
struct Scenario {
    instrs: Vec<(usize, usize, MicroInstr)>,
    sources: Vec<(usize, usize, usize, usize, PortSource)>,
    locals: Vec<(usize, Vec<MicroInstr>)>,
    modes: Vec<usize>,
    program: Vec<u32>,
    inputs: Vec<Word16>,
}

impl Scenario {
    fn random(rng: &mut TestRng) -> Scenario {
        let mut instrs = Vec::new();
        let mut sources = Vec::new();
        let mut locals = Vec::new();
        let mut modes = Vec::new();
        for ctx in 0..2 {
            for d in 0..8 {
                instrs.push((ctx, d, any_micro(rng)));
            }
            for i in 0..16 {
                sources.push((ctx, i % 4, (i / 4) % 2, i % 4, any_source(rng)));
            }
        }
        for d in 0..8 {
            if rng.next_bool() {
                let len = 1 + rng.index(4);
                locals.push((d, (0..len).map(|_| any_micro(rng)).collect()));
                if rng.next_bool() {
                    modes.push(d);
                }
            }
        }
        let words = rng.index(96);
        Scenario {
            instrs,
            sources,
            locals,
            modes,
            program: reconfig_program(rng),
            inputs: rng
                .vec_i16(words, i16::MIN as i64..i16::MAX as i64 + 1)
                .into_iter()
                .map(Word16::from_i16)
                .collect(),
        }
    }

    fn build_with(&self, params: MachineParams) -> RingMachine {
        let mut m = RingMachine::new(RingGeometry::RING_8, params);
        for &(ctx, d, instr) in &self.instrs {
            m.configure().set_dnode_instr(ctx, d, instr).expect("instr");
        }
        for &(ctx, switch, lane, port, src) in &self.sources {
            m.configure()
                .set_port(ctx, switch, lane, port, src)
                .expect("port");
        }
        for (d, prog) in &self.locals {
            m.set_local_program(*d, prog).expect("local program");
        }
        for &d in &self.modes {
            m.set_mode(d, DnodeMode::Local);
        }
        for ctx in 0..2 {
            m.configure()
                .set_capture(ctx, 1, 0, HostCapture::lane(1))
                .expect("capture");
        }
        m.open_sink(1, 0).expect("sink");
        m.attach_input(0, 0, self.inputs.iter().copied())
            .expect("stream");
        if !self.program.is_empty() {
            m.controller_mut()
                .load_program(&self.program)
                .expect("program loads");
        }
        m
    }

    /// The four tiers under comparison: aot, fused, decoded-only, slow.
    fn build_tiers(&self) -> [RingMachine; 4] {
        [
            self.build_with(MachineParams::PAPER.with_aot(true)),
            self.build_with(MachineParams::PAPER), // fused + decode_cache
            self.build_with(MachineParams::PAPER.with_fused(false)),
            self.build_with(
                MachineParams::PAPER
                    .with_fused(false)
                    .with_decode_cache(false),
            ),
        ]
    }
}

/// Asserts every architecturally visible piece of state matches between
/// two machines: cycle, bus, controller, and per-Dnode registers,
/// outputs, output write stamps, modes and sequencer counters.
fn assert_same_state(a: &RingMachine, b: &RingMachine, what: &str) {
    assert_eq!(a.cycle(), b.cycle(), "{what}: cycle");
    assert_eq!(a.bus(), b.bus(), "{what}: bus");
    assert_eq!(
        a.controller().state(),
        b.controller().state(),
        "{what}: controller state"
    );
    assert_eq!(
        a.config().active_index(),
        b.config().active_index(),
        "{what}: active context"
    );
    for d in 0..a.geometry().dnodes() {
        let (x, y) = (a.dnode(d), b.dnode(d));
        assert_eq!(x.out(), y.out(), "{what}: dnode {d} out");
        assert_eq!(
            x.out_written_at(),
            y.out_written_at(),
            "{what}: dnode {d} out stamp"
        );
        assert_eq!(x.mode(), y.mode(), "{what}: dnode {d} mode");
        for reg in [Reg::R0, Reg::R1, Reg::R2, Reg::R3] {
            assert_eq!(x.reg(reg), y.reg(reg), "{what}: dnode {d} {reg:?}");
        }
        assert_eq!(
            x.sequencer().counter(),
            y.sequencer().counter(),
            "{what}: dnode {d} sequencer counter"
        );
    }
}

/// Random multi-phase fabrics under random mid-run controller
/// reconfiguration stay bit-identical across all four tiers, segment
/// boundary by segment boundary, while the `aot` tier actually engages
/// somewhere in the sweep and keeps its compiled programs in the cache.
#[test]
fn random_reconfiguration_four_way_differential() {
    let mut aot_entries = 0u64;
    let mut aot_cached = 0u64;
    for_random_cases!(32, 0xa07d1f, |rng| {
        let scenario = Scenario::random(rng);
        let [mut aot, mut fused, mut decoded, mut slow] = scenario.build_tiers();
        assert!(aot.params().aot && aot.params().fused);
        assert!(!fused.params().aot && fused.params().fused);

        // Random segment lengths force superblock bursts to stop at
        // arbitrary budget boundaries, not just at controller events.
        let mut remaining: u64 = 768;
        while remaining > 0 {
            let seg = (1 + rng.index(160) as u64).min(remaining);
            remaining -= seg;
            aot.run(seg).expect("aot run");
            fused.run(seg).expect("fused run");
            decoded.run(seg).expect("decoded run");
            slow.run(seg).expect("slow run");
            assert_same_state(&aot, &fused, "aot vs fused");
            assert_same_state(&aot, &decoded, "aot vs decoded");
            assert_same_state(&aot, &slow, "aot vs slow");
        }

        assert_eq!(
            aot.take_sink(1, 0).expect("aot sink"),
            slow.take_sink(1, 0).expect("slow sink"),
            "sink streams diverged"
        );
        assert_eq!(
            aot.stats().without_cache_counters(),
            slow.stats().without_cache_counters(),
            "architectural statistics diverged"
        );
        // Only the aot tier books single-machine bursts under `aot_*`.
        for m in [&fused, &decoded, &slow] {
            assert_eq!(m.stats().aot_entries, 0);
            assert_eq!(m.stats().aot_cycles, 0);
        }
        aot_entries += aot.stats().aot_entries;
        aot_cached += aot.cached_programs() as u64;
    });
    assert!(aot_entries > 0, "the AOT tier never engaged");
    assert!(
        aot_cached > 0,
        "no superblock ever reached the content cache"
    );
}

/// Satellite: the randomized guard-check failure suite. At random burst
/// boundaries an *external* configuration write lands on every tier at
/// once — sometimes a content-changing rewrite of a live Dnode
/// instruction (the epoch fingerprint and the configuration content both
/// move: a true guard miss the AOT tier must answer by stitching a fresh
/// compile), sometimes a rewrite of the identical word (the epoch moves
/// but the content key must revalidate the cached superblock). Either
/// way the tiers stay bit-identical on machine state, sink streams, halt
/// cycles and architectural statistics — a guard failure degrades
/// throughput, never behaviour.
#[test]
fn randomized_guard_failures_fall_back_bit_identically() {
    let mut guard_misses = 0u64;
    let mut stitched_compiles = 0u64;
    let mut epoch_only_flips = 0u64;
    for_random_cases!(24, 0x6a2d5, |rng| {
        let scenario = Scenario::random(rng);
        let [mut aot, mut fused, mut decoded, mut slow] = scenario.build_tiers();

        let mut remaining: u64 = 768;
        while remaining > 0 {
            let seg = (1 + rng.index(96) as u64).min(remaining);
            remaining -= seg;
            aot.run(seg).expect("aot run");
            fused.run(seg).expect("fused run");
            decoded.run(seg).expect("decoded run");
            slow.run(seg).expect("slow run");

            // Flip a guard input on all four machines identically.
            let ctx = aot.config().active_index();
            let d = rng.index(8);
            let word = if rng.next_bool() {
                epoch_only_flips += 1;
                // Same content, new epoch: revalidation, not recompile.
                aot.config().active().dnode_instr(d)
            } else {
                any_micro(rng)
            };
            for m in [&mut aot, &mut fused, &mut decoded, &mut slow] {
                m.configure()
                    .set_dnode_instr(ctx, d, word)
                    .expect("guard flip");
            }

            assert_same_state(&aot, &fused, "aot vs fused");
            assert_same_state(&aot, &decoded, "aot vs decoded");
            assert_same_state(&aot, &slow, "aot vs slow");
        }

        assert_eq!(
            aot.take_sink(1, 0).expect("aot sink"),
            decoded.take_sink(1, 0).expect("decoded sink"),
            "sink streams diverged"
        );
        assert_eq!(
            aot.stats().without_cache_counters(),
            decoded.stats().without_cache_counters(),
            "architectural statistics diverged"
        );
        guard_misses += aot.stats().guard_misses;
        stitched_compiles += aot.stats().compiles;
    });
    assert!(guard_misses > 0, "no content flip ever missed a guard");
    assert!(stitched_compiles > 0, "no guard miss was stitched in place");
    assert!(epoch_only_flips > 0, "the sweep never flipped epoch-only");
}

/// An armed fault injector — even detection-only scrubbing — suppresses
/// the AOT tier exactly as it suppresses fusion: fault schedules are
/// cycle-by-cycle and the fail-stop detection contract must see every
/// cycle.
#[test]
fn armed_faults_suppress_aot() {
    for cfg in [
        FaultConfig::uniform(0xDEAD, 40),
        FaultConfig::detect_only(16),
    ] {
        let mut m = RingMachine::new(
            RingGeometry::RING_8,
            MachineParams::PAPER.with_aot(true).with_faults(cfg),
        );
        let mac = MicroInstr::op(AluOp::Mac, Operand::One, Operand::One).write_reg(Reg::R0);
        for d in 0..8 {
            m.set_local_program(d, &[mac]).expect("program");
            m.set_mode(d, DnodeMode::Local);
        }
        // Ignore injected datapath faults; we only care that no burst ran.
        let _ = m.run(500);
        assert_eq!(
            m.stats().aot_entries,
            0,
            "AOT tier must stay off while faults are armed ({cfg:?})"
        );
        assert_eq!(m.stats().fused_entries, 0);
        assert!(m.cycle() > 0);
    }
}

/// Satellite regression: a watchdog trip that lands after a context
/// switch reports the *post-switch* architectural context, identically
/// on every execution tier — trip cycle, context, pc and idle count all
/// equal, with the AOT tier having actually executed watchdog-bounded
/// superblock bursts on the way there.
#[test]
fn watchdog_trip_reports_post_reconfig_context_on_every_tier() {
    let code = vec![
        CtrlInstr::Ctx { ctx: 3 }.encode(),
        CtrlInstr::Wait { cycles: 4000 }.encode(),
        CtrlInstr::Halt.encode(),
    ];
    let tiers = [
        ("aot", MachineParams::PAPER.with_aot(true)),
        ("fused", MachineParams::PAPER),
        ("decoded", MachineParams::PAPER.with_fused(false)),
        (
            "slow",
            MachineParams::PAPER
                .with_fused(false)
                .with_decode_cache(false),
        ),
    ];
    let mut trips: Vec<(&str, String, u64)> = Vec::new();
    for (tier, params) in tiers {
        let mut m = RingMachine::new(RingGeometry::RING_8, params.with_watchdog(64));
        m.controller_mut().load_program(&code).expect("program");
        let err = m.run(10_000).expect_err("the long wait must trip");
        match &err {
            SimError::Watchdog { ctx, .. } => {
                assert_eq!(*ctx, 3, "{tier}: trip must name the post-switch context");
            }
            other => panic!("{tier}: expected a watchdog trip, got {other}"),
        }
        if tier == "aot" {
            assert!(
                m.stats().aot_cycles > 0,
                "aot tier never burst under the armed watchdog"
            );
        }
        trips.push((tier, err.to_string(), m.cycle()));
    }
    let (_, reference, ref_cycle) = &trips[0];
    for (tier, msg, cycle) in &trips[1..] {
        assert_eq!(msg, reference, "{tier}: trip report diverged");
        assert_eq!(cycle, ref_cycle, "{tier}: trip cycle diverged");
    }
}
