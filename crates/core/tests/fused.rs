//! Differential validation of the compiled execution tier.
//!
//! Every test here runs the same scenario on three machines — the
//! compiled tier (`fused` + `decode_cache`), the decoded per-cycle fast path
//! (`decode_cache` only) and the slow decode-per-cycle reference — and
//! demands **bit-identical** architectural behaviour: equal Dnode
//! registers, outputs and write stamps, equal bus values, sequencer
//! counters, controller state, sink streams and statistics modulo the
//! engines' own bookkeeping counters.
//!
//! The scenarios deliberately stress the program cache: random controller
//! programs reconfigure the fabric mid-run (a burst after a write must run
//! the program compiled for the new content, never a stale one), armed
//! fault injectors must suppress compiled bursts entirely, and cycle
//! budgets must be honoured to the exact cycle even when a burst would
//! overrun them.

use systolic_ring_core::controller::CtrlState;
use systolic_ring_core::fault::FaultConfig;
use systolic_ring_core::{lockstep_burst, LinkModel, MachineParams, RingMachine, SimError};
use systolic_ring_harness::for_random_cases;
use systolic_ring_harness::testkit::TestRng;
use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};
use systolic_ring_isa::object::{Object, Preload};
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

/// A random but in-range port source for a Ring-8 with default params.
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

/// Appends a valid configuration write of kind `kind` (0..6: `wdn`,
/// `wsw`, `who`, `wmode`, `wloc`, `wlim`) with random operands, using
/// controller registers r1..r6 for its values.
fn config_write(rng: &mut TestRng, code: &mut Vec<u32>, kind: usize) {
    match kind {
        0 => {
            let word = any_micro(rng).encode();
            code.push(
                CtrlInstr::Cimm {
                    imm: (word >> 32) as u16,
                }
                .encode(),
            );
            load32(code, r(1), word as u32);
            code.push(
                CtrlInstr::Wdn {
                    rs: r(1),
                    dnode: rng.index(8) as u16,
                }
                .encode(),
            );
        }
        1 => {
            load32(code, r(2), any_source(rng).encode());
            code.push(
                CtrlInstr::Wsw {
                    rs: r(2),
                    port: rng.index(32) as u16,
                }
                .encode(),
            );
        }
        2 => {
            let capture = if rng.next_bool() {
                HostCapture::lane(rng.index(2) as u8)
            } else {
                HostCapture::DISABLED
            };
            load32(code, r(3), capture.encode());
            let switch = rng.index(4) as u16;
            let port = rng.index(2) as u16;
            code.push(
                CtrlInstr::Who {
                    rs: r(3),
                    switch: (switch << 8) | port,
                }
                .encode(),
            );
        }
        3 => {
            load32(code, r(4), rng.next_bool() as u32);
            code.push(
                CtrlInstr::Wmode {
                    rs: r(4),
                    dnode: rng.index(8) as u16,
                }
                .encode(),
            );
        }
        4 => {
            let word = any_micro(rng).encode();
            code.push(
                CtrlInstr::Cimm {
                    imm: (word >> 32) as u16,
                }
                .encode(),
            );
            load32(code, r(5), word as u32);
            let packed = ((rng.index(8) << 3) | rng.index(8)) as u16;
            code.push(CtrlInstr::Wloc { rs: r(5), packed }.encode());
        }
        5 => {
            load32(code, r(6), 1 + rng.index(8) as u32);
            code.push(
                CtrlInstr::Wlim {
                    rs: r(6),
                    dnode: rng.index(8) as u16,
                }
                .encode(),
            );
        }
        _ => unreachable!("six kinds of configuration write"),
    }
}

/// A random controller program interleaving *long* waits (so compiled
/// bursts have room to enter between writes) with valid configuration
/// writes of every kind. A burst after each write must resolve the
/// program for the content the write left behind.
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
        match rng.index(8) {
            kind @ 0..=5 => config_write(rng, &mut code, kind),
            6 => {
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

    /// The three tiers under comparison: fused, decoded-only, slow.
    fn build_tiers(&self) -> [RingMachine; 3] {
        [
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

/// Random fabrics under random mid-run controller reconfiguration stay
/// bit-identical across all three tiers, segment boundary by segment
/// boundary, while compiled bursts actually engage somewhere in the
/// sweep and some reconfiguration compiles a second window.
#[test]
fn random_reconfiguration_three_way_differential() {
    let mut total_entries = 0u64;
    let mut most_misses = 0u64;
    for_random_cases!(32, 0xf05ed, |rng| {
        let scenario = Scenario::random(rng);
        let [mut fused, mut decoded, mut slow] = scenario.build_tiers();
        assert!(fused.params().fused && fused.params().decode_cache);
        assert!(!decoded.params().fused && decoded.params().decode_cache);
        assert!(!slow.params().fused && !slow.params().decode_cache);

        // Random segment lengths force fused bursts to stop at arbitrary
        // budget boundaries, not just at controller events.
        let mut remaining: u64 = 768;
        while remaining > 0 {
            let seg = (1 + rng.index(160) as u64).min(remaining);
            remaining -= seg;
            fused.run(seg).expect("fused run");
            decoded.run(seg).expect("decoded run");
            slow.run(seg).expect("slow run");
            assert_same_state(&fused, &decoded, "fused vs decoded");
            assert_same_state(&fused, &slow, "fused vs slow");
        }

        assert_eq!(
            fused.take_sink(1, 0).expect("fused sink"),
            slow.take_sink(1, 0).expect("slow sink"),
            "sink streams diverged"
        );
        assert_eq!(
            fused.stats().without_cache_counters(),
            slow.stats().without_cache_counters(),
            "architectural statistics diverged"
        );
        // The non-fused tiers never touch the fused engine.
        assert_eq!(decoded.stats().fused_entries, 0);
        assert_eq!(slow.stats().fused_entries, 0);
        total_entries += fused.stats().fused_entries;
        most_misses = most_misses.max(fused.stats().guard_misses);
    });
    // The sweep as a whole exercised both entry and recompilation.
    assert!(total_entries > 0, "compiled bursts never engaged");
    assert!(most_misses >= 2, "no reconfiguration ever missed a guard");
}

/// A steady fabric whose controller reconfigures it exactly once: the
/// first wait runs compiled, the wait after the write misses the guard
/// and compiles the new window, and the halted tail re-enters it.
#[test]
fn reconfiguration_write_compiles_the_new_window() {
    let add = MicroInstr::op(AluOp::Add, Operand::In1, Operand::One).write_out();
    let mut code = Vec::new();
    code.push(CtrlInstr::Wait { cycles: 400 }.encode());
    // Rewrite Dnode 0 to a MAC; the compiled program is now stale.
    let word = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::One)
        .write_out()
        .encode();
    code.push(
        CtrlInstr::Cimm {
            imm: (word >> 32) as u16,
        }
        .encode(),
    );
    load32(&mut code, r(1), word as u32);
    code.push(CtrlInstr::Wdn { rs: r(1), dnode: 0 }.encode());
    code.push(CtrlInstr::Wait { cycles: 400 }.encode());
    code.push(CtrlInstr::Halt.encode());

    let build = |params: MachineParams| {
        let mut m = RingMachine::new(RingGeometry::RING_8, params);
        m.configure()
            .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
            .expect("port");
        m.configure().set_dnode_instr(0, 0, add).expect("instr");
        m.configure()
            .set_capture(0, 1, 0, HostCapture::lane(0))
            .expect("capture");
        m.open_sink(1, 0).expect("sink");
        m.attach_input(0, 0, (0..64).map(Word16::from_i16))
            .expect("stream");
        m.controller_mut().load_program(&code).expect("program");
        m
    };

    let mut fused = build(MachineParams::PAPER);
    let mut slow = build(
        MachineParams::PAPER
            .with_fused(false)
            .with_decode_cache(false),
    );
    fused.run(900).expect("fused run");
    slow.run(900).expect("slow run");

    assert_same_state(&fused, &slow, "post-reconfiguration");
    assert_eq!(
        fused.take_sink(1, 0).expect("fused sink"),
        slow.take_sink(1, 0).expect("slow sink")
    );
    let stats = fused.stats();
    assert_eq!(stats.fused_entries, 3, "both waits and the halted tail");
    assert_eq!(
        (stats.guard_misses, stats.compiles),
        (2, 2),
        "the configuration write must compile the new window"
    );
    assert_eq!(stats.fused_deopts, 0);
    // Single-lane fusion: occupancy equals fused cycles exactly.
    assert_eq!(stats.fused_lane_occupancy, stats.fused_cycles);
    assert!(stats.fused_cycles > 0);
}

/// An armed fault injector — even detection-only scrubbing — suppresses
/// compiled bursts entirely: fault schedules are cycle-by-cycle and the
/// fail-stop detection contract must see every cycle.
#[test]
fn armed_faults_suppress_fusion() {
    for cfg in [
        FaultConfig::uniform(0xDEAD, 40),
        FaultConfig::detect_only(16),
    ] {
        let mut m = RingMachine::new(RingGeometry::RING_8, MachineParams::PAPER.with_faults(cfg));
        let mac = MicroInstr::op(AluOp::Mac, Operand::One, Operand::One).write_reg(Reg::R0);
        for d in 0..8 {
            m.set_local_program(d, &[mac]).expect("program");
            m.set_mode(d, DnodeMode::Local);
        }
        // Ignore injected datapath faults; we only care that no burst ran.
        let _ = m.run(500);
        assert_eq!(
            m.stats().fused_entries,
            0,
            "fused engine must stay off while faults are armed ({cfg:?})"
        );
        assert!(m.cycle() > 0);
    }
}

/// `run_until_halt` budget accounting is exact under fusion: a burst
/// never overruns the budget, and the halt lands on the same cycle as
/// the slow reference.
#[test]
fn run_until_halt_budget_is_exact_under_fusion() {
    let code = vec![
        CtrlInstr::Wait { cycles: 400 }.encode(),
        CtrlInstr::Halt.encode(),
    ];

    let build = |fused: bool| {
        let mut m = RingMachine::new(
            RingGeometry::RING_8,
            if fused {
                MachineParams::PAPER
            } else {
                MachineParams::PAPER
                    .with_fused(false)
                    .with_decode_cache(false)
            },
        );
        m.controller_mut().load_program(&code).expect("program");
        m
    };

    // Budget exhausted mid-wait: exactly 120 cycles, not a burst more.
    let mut fused = build(true);
    let mut slow = build(false);
    let fe = fused.run_until_halt(120).expect_err("budget hits first");
    let se = slow.run_until_halt(120).expect_err("budget hits first");
    assert_eq!(fused.cycle(), 120, "burst overran the cycle budget");
    assert_eq!(slow.cycle(), 120);
    assert_eq!(fe.to_string(), se.to_string());
    assert!(fused.stats().fused_entries >= 1, "wait window should fuse");

    // Budget generous: both halt on the same cycle.
    let mut fused = build(true);
    let mut slow = build(false);
    let fc = fused.run_until_halt(10_000).expect("halts");
    let sc = slow.run_until_halt(10_000).expect("halts");
    assert_eq!(fc, sc, "halt cycle diverged under fusion");
    assert_eq!(fused.controller().state(), CtrlState::Halted);
}

/// Single-stepping never enters the fused engine, whatever the params —
/// tracing and debugging see every cycle individually.
#[test]
fn step_never_fuses() {
    let mut m = RingMachine::new(RingGeometry::RING_8, MachineParams::PAPER);
    let mac = MicroInstr::op(AluOp::Mac, Operand::One, Operand::One).write_reg(Reg::R0);
    for d in 0..8 {
        m.set_local_program(d, &[mac]).expect("program");
        m.set_mode(d, DnodeMode::Local);
    }
    for _ in 0..300 {
        m.step().expect("step");
    }
    assert_eq!(m.stats().fused_entries, 0);
    // The same workload through run() does fuse.
    let mut m2 = RingMachine::new(RingGeometry::RING_8, MachineParams::PAPER);
    for d in 0..8 {
        m2.set_local_program(d, &[mac]).expect("program");
        m2.set_mode(d, DnodeMode::Local);
    }
    m2.run(300).expect("run");
    assert!(m2.stats().fused_entries >= 1);
    assert_same_state(&m, &m2, "step vs run");
}

/// Multi-lane lockstep bursts over machines sharing a configuration but
/// carrying different input streams match per-machine execution exactly.
#[test]
fn lockstep_burst_matches_individual_runs() {
    let configure = |m: &mut RingMachine, base: i16| {
        m.configure()
            .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
            .expect("port");
        m.configure()
            .set_dnode_instr(
                0,
                0,
                MicroInstr::op(AluOp::Add, Operand::In1, Operand::One).write_out(),
            )
            .expect("instr");
        m.configure()
            .set_capture(0, 1, 0, HostCapture::lane(0))
            .expect("capture");
        m.open_sink(1, 0).expect("sink");
        m.attach_input(0, 0, (0..48).map(|i| Word16::from_i16(base + i)))
            .expect("stream");
    };

    const LANES: usize = 4;
    const TARGET: u64 = 2_000;
    let mut grouped: Vec<RingMachine> = Vec::new();
    let mut reference: Vec<RingMachine> = Vec::new();
    for lane in 0..LANES {
        for pool in [&mut grouped, &mut reference] {
            let mut m = RingMachine::new(RingGeometry::RING_8, MachineParams::PAPER);
            configure(&mut m, lane as i16 * 1000);
            pool.push(m);
        }
    }

    // Drive the group purely through lockstep bursts, falling back to a
    // one-cycle run when no burst enters.
    loop {
        let cycle = grouped[0].cycle();
        if cycle >= TARGET {
            break;
        }
        let burst = {
            let mut lanes: Vec<&mut RingMachine> = grouped.iter_mut().collect();
            lockstep_burst(&mut lanes, TARGET - cycle)
        };
        if burst == 0 {
            for m in &mut grouped {
                m.run(1).expect("single cycle");
            }
        }
    }
    for m in &mut reference {
        m.run(TARGET).expect("reference run");
    }

    let mut saw_multi_lane = false;
    for (i, (g, r)) in grouped.iter_mut().zip(&mut reference).enumerate() {
        assert_same_state(g, r, &format!("lane {i}"));
        assert_eq!(
            g.take_sink(1, 0).expect("group sink"),
            r.take_sink(1, 0).expect("reference sink"),
            "lane {i} sink diverged"
        );
        assert_eq!(
            g.stats().without_cache_counters(),
            r.stats().without_cache_counters(),
            "lane {i} stats diverged"
        );
        saw_multi_lane |= g.stats().fused_lane_occupancy > g.stats().fused_cycles;
    }
    assert!(
        saw_multi_lane,
        "the group never actually ran a multi-lane burst"
    );
}

/// The slow reference tier.
fn slow_params() -> MachineParams {
    MachineParams::PAPER
        .with_fused(false)
        .with_decode_cache(false)
}

/// A short `wait` right after `load` runs compiled on the default tier:
/// the first window is a guard miss that compiles and enters at once,
/// with no stability warm-up before it.
#[test]
fn a_short_wait_after_load_runs_compiled() {
    let mac = MicroInstr::op(AluOp::Mac, Operand::One, Operand::One).write_reg(Reg::R0);
    let object = Object {
        geometry: Some(RingGeometry::RING_8),
        contexts: 1,
        code: vec![
            CtrlInstr::Wait { cycles: 16 }.encode(),
            CtrlInstr::Halt.encode(),
        ],
        data: vec![],
        preload: vec![Preload::DnodeInstr {
            ctx: 0,
            dnode: 0,
            word: mac.encode(),
        }],
    };
    let run = |params: MachineParams| {
        let mut m = RingMachine::new(RingGeometry::RING_8, params);
        m.load(&object).expect("object loads");
        m.run_until_halt(100).expect("halts");
        m
    };
    let compiled = run(MachineParams::PAPER);
    let slow = run(slow_params());
    assert_same_state(&compiled, &slow, "compiled vs slow");
    assert_eq!(
        compiled.stats().without_cache_counters(),
        slow.stats().without_cache_counters()
    );
    let stats = compiled.stats();
    assert_eq!(
        stats.fused_entries, 1,
        "the 15 waiting cycles are one burst"
    );
    assert_eq!((stats.guard_misses, stats.compiles), (1, 1));
}

/// A controller alternating two contexts with a short `wait` in each
/// compiles each context's window once and re-enters it from the cache
/// on every later round. The whole run is one burst with the controller
/// stepping inside it, and every context segment is one program entry.
#[test]
fn alternating_contexts_reenter_their_cached_programs() {
    const ROUNDS: i16 = 8;
    let add7 = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::Imm)
        .with_imm(Word16::from_i16(7))
        .write_reg(Reg::R0);
    let sub2 = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R1), Operand::Imm)
        .with_imm(Word16::from_i16(-2))
        .write_reg(Reg::R1);
    let object = Object {
        geometry: Some(RingGeometry::RING_8),
        contexts: 2,
        code: vec![
            CtrlInstr::Addi {
                rd: r(1),
                ra: r(0),
                imm: ROUNDS,
            }
            .encode(),
            CtrlInstr::Ctx { ctx: 1 }.encode(),
            CtrlInstr::Wait { cycles: 12 }.encode(),
            CtrlInstr::Ctx { ctx: 0 }.encode(),
            CtrlInstr::Wait { cycles: 12 }.encode(),
            CtrlInstr::Addi {
                rd: r(1),
                ra: r(1),
                imm: -1,
            }
            .encode(),
            CtrlInstr::Bne {
                ra: r(1),
                rb: r(0),
                offset: -6,
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
        m.load(&object).expect("object loads");
        m.run_until_halt(10_000).expect("halts");
        m
    };
    let compiled = run(MachineParams::PAPER);
    let slow = run(slow_params());
    assert_same_state(&compiled, &slow, "compiled vs slow");
    assert_eq!(
        compiled.stats().without_cache_counters(),
        slow.stats().without_cache_counters()
    );
    let stats = compiled.stats();
    assert_eq!(stats.ctx_switches, 2 * ROUNDS as u64);
    assert_eq!(stats.compiles, 2, "one program per context");
    assert_eq!(stats.guard_misses, 2);
    assert_eq!(compiled.cached_programs(), 2);
    assert_eq!(
        stats.fused_entries,
        2 * ROUNDS as u64 + 1,
        "the setup segment in context 0, then one entry per context switch"
    );
    assert_eq!(
        stats.fused_cycles, stats.cycles,
        "the whole run is compiled"
    );
}

/// Data-memory capacity of the running-burst scenarios: small, so a
/// random store can fall past it.
const RUNNING_DMEM: u16 = 48;

/// A controller register in r1..r6 (r7 is the loop counter).
fn any_creg(rng: &mut TestRng) -> CReg {
    r(1 + rng.index(6) as u8)
}

/// A random controller program for the running-burst differential: a
/// counted loop whose body mixes burst-safe instructions (ALU and
/// immediate ops, `lw`/`sw`, forward branches, `ctx`, `busr`, `busw`,
/// `wait`), burst-ending ones (configuration writes, `hpush`, `hpop`)
/// and, rarely, faulting ones (a store past the data memory, a jump past
/// the program, a `ctx` past the contexts).
fn running_program(rng: &mut TestRng, contexts: usize) -> Vec<u32> {
    let mut code = vec![CtrlInstr::Addi {
        rd: r(7),
        ra: r(0),
        imm: 2 + rng.index(6) as i16,
    }
    .encode()];
    let top = code.len();
    for _ in 0..6 + rng.index(24) {
        let instr = match rng.index(100) {
            0..=17 => {
                let (rd, ra, rb) = (any_creg(rng), any_creg(rng), any_creg(rng));
                match rng.index(8) {
                    0 => CtrlInstr::Add { rd, ra, rb },
                    1 => CtrlInstr::Sub { rd, ra, rb },
                    2 => CtrlInstr::Xor { rd, ra, rb },
                    3 => CtrlInstr::Slt { rd, ra, rb },
                    4 => CtrlInstr::Mul { rd, ra, rb },
                    5 => CtrlInstr::Lui {
                        rd,
                        imm: rng.any_i16() as u16,
                    },
                    6 => CtrlInstr::Ori {
                        rd,
                        ra,
                        imm: rng.any_i16() as u16,
                    },
                    _ => CtrlInstr::Addi {
                        rd,
                        ra,
                        imm: rng.any_i16(),
                    },
                }
            }
            18..=29 => CtrlInstr::Ctx {
                ctx: rng.index(contexts) as u16,
            },
            30..=37 => CtrlInstr::Busr { rd: any_creg(rng) },
            38..=45 => CtrlInstr::Busw { rs: any_creg(rng) },
            46..=49 => CtrlInstr::Sw {
                rs: any_creg(rng),
                ra: r(0),
                imm: rng.index(RUNNING_DMEM as usize) as i16,
            },
            50..=53 => CtrlInstr::Lw {
                rd: any_creg(rng),
                ra: r(0),
                imm: rng.index(RUNNING_DMEM as usize) as i16,
            },
            54..=59 => CtrlInstr::Wait {
                cycles: rng.index(24) as u16,
            },
            60..=64 => {
                let (ra, rb) = (any_creg(rng), any_creg(rng));
                let offset = rng.index(3) as i16;
                match rng.index(4) {
                    0 => CtrlInstr::Beq { ra, rb, offset },
                    1 => CtrlInstr::Bne { ra, rb, offset },
                    2 => CtrlInstr::Blt { ra, rb, offset },
                    _ => CtrlInstr::Bge { ra, rb, offset },
                }
            }
            65..=67 => CtrlInstr::Nop,
            68..=77 => {
                if rng.next_bool() {
                    code.push(
                        CtrlInstr::Wctx {
                            ctx: rng.index(contexts) as u16,
                        }
                        .encode(),
                    );
                }
                let kind = rng.index(6);
                config_write(rng, &mut code, kind);
                continue;
            }
            78..=82 => {
                let (switch, port) = (rng.index(4) as u16, rng.index(4) as u16);
                CtrlInstr::Hpush {
                    rs: any_creg(rng),
                    switch: switch << 8 | port,
                }
            }
            83..=85 => {
                let (switch, port) = (rng.index(4) as u16, rng.index(2) as u16);
                CtrlInstr::Hpop {
                    rd: any_creg(rng),
                    switch: switch << 8 | port,
                }
            }
            86 => CtrlInstr::Sw {
                rs: any_creg(rng),
                ra: r(0),
                imm: (RUNNING_DMEM + rng.index(8) as u16) as i16,
            },
            87 => CtrlInstr::J { target: 4000 },
            88 => CtrlInstr::Ctx {
                ctx: (contexts + rng.index(4)) as u16,
            },
            _ => CtrlInstr::Addi {
                rd: any_creg(rng),
                ra: any_creg(rng),
                imm: rng.any_i16(),
            },
        };
        code.push(instr.encode());
    }
    code.push(
        CtrlInstr::Addi {
            rd: r(7),
            ra: r(7),
            imm: -1,
        }
        .encode(),
    );
    let back = top as i32 - code.len() as i32 - 1;
    code.push(
        CtrlInstr::Bne {
            ra: r(7),
            rb: r(0),
            offset: back as i16,
        }
        .encode(),
    );
    code.push(CtrlInstr::Halt.encode());
    code
}

/// A random fabric over `contexts` contexts driven by a
/// [`running_program`]: random streams on a direct or metered link, FIFOs
/// small enough to fill or large enough to stream in closed form, and
/// open sinks on some ports or none.
struct RunningScenario {
    params: MachineParams,
    instrs: Vec<(usize, usize, MicroInstr)>,
    sources: Vec<(usize, usize, usize, usize, PortSource)>,
    captures: Vec<(usize, usize, usize, u8)>,
    locals: Vec<(usize, Vec<MicroInstr>)>,
    modes: Vec<usize>,
    sinks: Vec<(usize, usize)>,
    streams: Vec<(usize, usize, Vec<Word16>)>,
    program: Vec<u32>,
}

impl RunningScenario {
    fn random(rng: &mut TestRng) -> RunningScenario {
        let contexts = 2 + rng.index(3);
        let link = if rng.index(3) == 0 {
            LinkModel::Metered {
                bytes_per_cycle: *rng.choose(&[1.25, 3.0, 8.0]),
            }
        } else {
            LinkModel::Direct
        };
        let params = MachineParams {
            dmem_capacity: RUNNING_DMEM as usize,
            ..MachineParams::PAPER
        }
        .with_link(link)
        .with_host_fifo_capacity(*rng.choose(&[3, 16, 4096]));
        let mut s = RunningScenario {
            params,
            instrs: Vec::new(),
            sources: Vec::new(),
            captures: Vec::new(),
            locals: Vec::new(),
            modes: Vec::new(),
            sinks: Vec::new(),
            streams: Vec::new(),
            program: running_program(rng, contexts),
        };
        for ctx in 0..contexts {
            for d in 0..8 {
                // Few bus drivers per cycle, so a controller `busw` often
                // meets exactly one Dnode driver: a conflict only the
                // controller's drive makes.
                let instr = MicroInstr {
                    wr_bus: rng.index(8) == 0,
                    ..any_micro(rng)
                };
                s.instrs.push((ctx, d, instr));
            }
            for i in 0..16 {
                s.sources
                    .push((ctx, i % 4, (i / 4) % 2, i % 4, any_source(rng)));
            }
            for _ in 0..rng.index(3) {
                let (switch, port) = (rng.index(4), rng.index(2));
                s.captures.push((ctx, switch, port, rng.index(2) as u8));
            }
        }
        for d in 0..8 {
            if rng.index(3) == 0 {
                let len = 1 + rng.index(4);
                s.locals
                    .push((d, (0..len).map(|_| any_micro(rng)).collect()));
                if rng.next_bool() {
                    s.modes.push(d);
                }
            }
        }
        if rng.next_bool() {
            for _ in 0..1 + rng.index(2) {
                s.sinks.push((rng.index(4), rng.index(2)));
            }
        }
        for _ in 0..1 + rng.index(4) {
            let (switch, port) = (rng.index(4), rng.index(4));
            let len = rng.index(240);
            let words = (0..len).map(|_| Word16::from_i16(rng.any_i16())).collect();
            s.streams.push((switch, port, words));
        }
        s
    }

    /// The scenario on the compiled tier (`compiled`) or the slow
    /// reference.
    fn build(&self, compiled: bool) -> RingMachine {
        let params = if compiled {
            self.params
        } else {
            self.params.with_fused(false).with_decode_cache(false)
        };
        let mut m = RingMachine::new(RingGeometry::RING_8, params);
        for &(ctx, d, instr) in &self.instrs {
            m.configure().set_dnode_instr(ctx, d, instr).expect("instr");
        }
        for &(ctx, switch, lane, port, src) in &self.sources {
            m.configure()
                .set_port(ctx, switch, lane, port, src)
                .expect("port");
        }
        for &(ctx, switch, port, lane) in &self.captures {
            m.configure()
                .set_capture(ctx, switch, port, HostCapture::lane(lane))
                .expect("capture");
        }
        for (d, prog) in &self.locals {
            m.set_local_program(*d, prog).expect("local program");
        }
        for &d in &self.modes {
            m.set_mode(d, DnodeMode::Local);
        }
        for &(switch, port) in &self.sinks {
            m.open_sink(switch, port).expect("sink");
        }
        for (switch, port, words) in &self.streams {
            m.attach_input(*switch, *port, words.iter().copied())
                .expect("stream");
        }
        m.controller_mut()
            .load_program(&self.program)
            .expect("program loads");
        m
    }
}

/// Everything architecturally visible, beyond [`assert_same_state`]: the
/// whole controller, the configuration layer, every switch's pipeline
/// and FIFOs (stream words included), every sink and every statistic
/// outside the engines' bookkeeping.
fn assert_same_machine(a: &RingMachine, b: &RingMachine, what: &str) {
    assert_same_state(a, b, what);
    assert_eq!(a.controller(), b.controller(), "{what}: controller");
    assert!(a.config() == b.config(), "{what}: configuration");
    for s in 0..a.geometry().switches() {
        assert_eq!(a.switch(s), b.switch(s), "{what}: switch {s}");
        for p in 0..a.switch(s).host_out_ports() {
            assert_eq!(
                a.host().sink(s, p).expect("sink"),
                b.host().sink(s, p).expect("sink"),
                "{what}: sink ({s}, {p})"
            );
        }
    }
    assert_eq!(
        a.stats().without_cache_counters(),
        b.stats().without_cache_counters(),
        "{what}: statistics"
    );
}

/// Random controller programs running inside compiled bursts stay
/// bit-identical to the slow tier: machine state, sinks, FIFOs,
/// statistics, the fault and its cycle, and `run_until_halt` at random
/// budgets, where a `CycleLimit` must leave exactly the budget executed.
/// Across the sweep, controller instructions must actually retire inside
/// bursts, and runs must end in every way a run can: halted, out of
/// budget and faulted.
#[test]
fn running_controller_bursts_match_the_slow_tier() {
    let (mut in_burst, mut halted, mut limited, mut faulted) = (0, 0, 0, 0);
    for_random_cases!(96, 0x2c0f_b055, |rng| {
        let scenario = RunningScenario::random(rng);
        let mut compiled = scenario.build(true);
        let mut slow = scenario.build(false);
        let by_budget = rng.next_bool();
        for round in 0..12 {
            let what = format!("round {round}");
            let budget = 1 + rng.index(if by_budget { 400 } else { 160 }) as u64;
            let start = slow.cycle();
            let outcome = if by_budget {
                let a = compiled.run_until_halt(budget);
                let b = slow.run_until_halt(budget);
                assert_eq!(a, b, "{what}: run_until_halt({budget})");
                a.map(|_| ())
            } else {
                let a = compiled.run(budget);
                let b = slow.run(budget);
                assert_eq!(a, b, "{what}: run({budget})");
                a
            };
            assert_same_machine(&compiled, &slow, &what);
            match outcome {
                Ok(()) if compiled.controller().is_halted() => {
                    halted += 1;
                    break;
                }
                Ok(()) => {}
                Err(SimError::CycleLimit { limit }) => {
                    assert_eq!(slow.cycle() - start, limit, "{what}: budget not exact");
                    limited += 1;
                }
                Err(_) => {
                    faulted += 1;
                    break;
                }
            }
        }
        // Each cycle stepped outside a burst retires at most one
        // instruction; any surplus retired inside one.
        let stats = compiled.stats();
        if stats.ctrl_instrs > stats.cycles - stats.fused_cycles {
            in_burst += 1;
        }
    });
    assert!(
        in_burst >= 24,
        "the controller rarely ran inside bursts ({in_burst})"
    );
    assert!(
        halted > 0 && limited > 0 && faulted > 0,
        "{halted} halted, {limited} limited, {faulted} faulted"
    );
}
