//! Differential validation of the predecoded configuration cache.
//!
//! Every test here runs the same scenario on two machines — one with
//! `decode_cache` enabled (the fast path) and one without (the reference
//! decode-per-cycle path) — and demands **bit-identical** behaviour:
//! equal VCD waveforms over the visible signals, equal sink streams, and
//! equal statistics modulo the cache's own hit/miss counters.
//!
//! The scenarios deliberately stress cache invalidation: controller
//! programs rewrite Dnode microinstructions, crossbar ports, host
//! captures, execution modes, local-sequencer slots and iteration limits
//! *mid-run*, and the host API mutates configurations between run
//! segments. A stale cache entry anywhere shows up as a waveform diff.

use systolic_ring_core::trace::{Signal, Tracer};
use systolic_ring_core::{MachineParams, RingMachine};
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

/// A random controller program that interleaves waits with *valid*
/// configuration writes of every kind, so both machines run fault-free
/// while the cache is invalidated from every controller-reachable angle.
fn reconfig_program(rng: &mut TestRng) -> Vec<u32> {
    let mut code = Vec::new();
    let blocks = 4 + rng.index(5);
    for _ in 0..blocks {
        code.push(
            CtrlInstr::Wait {
                cycles: 1 + rng.index(6) as u16,
            }
            .encode(),
        );
        match rng.index(9) {
            0 => {
                // Rewrite a Dnode microinstruction.
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
                // Reroute a crossbar port.
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
                // Redirect (or disable) a host capture.
                let capture = if rng.next_bool() {
                    HostCapture::lane(rng.index(2) as u8)
                } else {
                    HostCapture::DISABLED
                };
                load32(&mut code, r(3), capture.encode());
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
                // Flip a Dnode between global and local mode.
                load32(&mut code, r(4), rng.next_bool() as u32);
                code.push(
                    CtrlInstr::Wmode {
                        rs: r(4),
                        dnode: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
            4 => {
                // Rewrite a local-sequencer slot.
                let word = any_micro(rng).encode();
                code.push(
                    CtrlInstr::Cimm {
                        imm: (word >> 32) as u16,
                    }
                    .encode(),
                );
                load32(&mut code, r(5), word as u32);
                let packed = ((rng.index(8) << 3) | rng.index(8)) as u16;
                code.push(CtrlInstr::Wloc { rs: r(5), packed }.encode());
            }
            5 => {
                // Change a local-sequencer iteration limit.
                load32(&mut code, r(6), 1 + rng.index(8) as u32);
                code.push(
                    CtrlInstr::Wlim {
                        rs: r(6),
                        dnode: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
            6 => {
                // Switch the active context.
                code.push(
                    CtrlInstr::Ctx {
                        ctx: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
            7 => {
                // Retarget subsequent writes at another context.
                code.push(
                    CtrlInstr::Wctx {
                        ctx: rng.index(8) as u16,
                    }
                    .encode(),
                );
            }
            _ => {
                // Drive the bus (contends with Dnode bus writers).
                load32(&mut code, r(7), rng.any_u16() as u32);
                code.push(CtrlInstr::Busw { rs: r(7) }.encode());
            }
        }
    }
    code.push(CtrlInstr::Halt.encode());
    code
}

/// Everything needed to construct two identical machines.
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
        // Populate two contexts so `Ctx` switches land on real configs.
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
        let words = rng.index(48);
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

    fn build(&self, cache: bool) -> RingMachine {
        let mut m = RingMachine::new(
            RingGeometry::RING_8,
            MachineParams::PAPER.with_decode_cache(cache),
        );
        assert_eq!(m.params().decode_cache, cache);
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
}

/// The signal set every differential below compares, covering all Dnode
/// outputs, the accumulator and write-back registers, the shared bus, the
/// controller and the context selector.
fn all_signals() -> Vec<Signal> {
    let mut signals = Vec::new();
    for d in 0..8 {
        signals.push(Signal::DnodeOut { dnode: d });
        signals.push(Signal::DnodeReg {
            dnode: d,
            reg: Reg::R0,
        });
        signals.push(Signal::DnodeReg {
            dnode: d,
            reg: Reg::R1,
        });
    }
    signals.push(Signal::Bus);
    signals.push(Signal::CtrlPc);
    signals.push(Signal::ActiveCtx);
    signals
}

/// Random fabrics under random mid-run controller reconfiguration produce
/// identical waveforms, sink streams and stats with the cache on and off.
#[test]
fn random_reconfiguration_fast_matches_slow_vcd() {
    for_random_cases!(48, 0xcac4e, |rng| {
        let scenario = Scenario::random(rng);
        let mut fast = scenario.build(true);
        let mut slow = scenario.build(false);

        let mut fast_trace = Tracer::new(all_signals());
        let mut slow_trace = Tracer::new(all_signals());
        fast_trace.run(&mut fast, 96).expect("fast run");
        slow_trace.run(&mut slow, 96).expect("slow run");

        assert_eq!(
            fast_trace.to_vcd(),
            slow_trace.to_vcd(),
            "cached fast path diverged from decode-per-cycle reference:\nfast:\n{}\nslow:\n{}",
            fast_trace.render_text(),
            slow_trace.render_text()
        );
        assert_eq!(
            fast.take_sink(1, 0).expect("fast sink"),
            slow.take_sink(1, 0).expect("slow sink"),
            "sink streams diverged"
        );
        assert_eq!(
            fast.stats().without_cache_counters(),
            slow.stats().without_cache_counters(),
            "architectural statistics diverged"
        );
        // The slow path never touches the cache.
        assert_eq!(slow.stats().decode_cache_hits, 0);
        assert_eq!(slow.stats().decode_cache_misses, 0);
    });
}

/// Host-API mutations between run segments (the other invalidation
/// surface: `configure()`, `set_mode`, `set_local_program`) are picked up
/// by the cache immediately.
#[test]
fn api_reconfiguration_between_segments_matches() {
    for_random_cases!(32, 0xed17, |rng| {
        let mut scenario = Scenario::random(rng);
        scenario.program.clear(); // API-only reconfiguration here.
        let mut fast = scenario.build(true);
        let mut slow = scenario.build(false);

        let mut fast_trace = Tracer::new(all_signals());
        let mut slow_trace = Tracer::new(all_signals());
        for _segment in 0..4 {
            // Mutate both machines identically, then run a burst.
            let edits = rng.index(3) + 1;
            for _ in 0..edits {
                match rng.index(4) {
                    0 => {
                        let (ctx, d, instr) = (rng.index(2), rng.index(8), any_micro(rng));
                        for m in [&mut fast, &mut slow] {
                            m.configure().set_dnode_instr(ctx, d, instr).expect("instr");
                        }
                    }
                    1 => {
                        let (ctx, switch, lane, port, src) = (
                            rng.index(2),
                            rng.index(4),
                            rng.index(2),
                            rng.index(4),
                            any_source(rng),
                        );
                        for m in [&mut fast, &mut slow] {
                            m.configure()
                                .set_port(ctx, switch, lane, port, src)
                                .expect("port");
                        }
                    }
                    2 => {
                        let d = rng.index(8);
                        let mode = if rng.next_bool() {
                            DnodeMode::Local
                        } else {
                            DnodeMode::Global
                        };
                        for m in [&mut fast, &mut slow] {
                            m.set_mode(d, mode);
                        }
                    }
                    _ => {
                        let d = rng.index(8);
                        let len = 1 + rng.index(4);
                        let prog: Vec<MicroInstr> = (0..len).map(|_| any_micro(rng)).collect();
                        for m in [&mut fast, &mut slow] {
                            m.set_local_program(d, &prog).expect("program");
                        }
                    }
                }
            }
            fast_trace.run(&mut fast, 24).expect("fast segment");
            slow_trace.run(&mut slow, 24).expect("slow segment");
        }

        assert_eq!(
            fast_trace.to_vcd(),
            slow_trace.to_vcd(),
            "cache missed an API-side invalidation"
        );
        assert_eq!(
            fast.stats().without_cache_counters(),
            slow.stats().without_cache_counters()
        );
    });
}

/// Steady-state execution hits the cache; configuration writes are the
/// only events that charge misses; the disabled path charges neither.
/// The compiled tier would run these quiet windows as bursts, which count
/// no hits, so the cached machine runs on the decoded tier.
#[test]
fn cache_counters_track_invalidation() {
    let passthrough = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::One)
        .write_reg(Reg::R0)
        .write_out();

    let mut m = RingMachine::new(RingGeometry::RING_8, MachineParams::PAPER.with_fused(false));
    m.configure()
        .set_dnode_instr(0, 0, passthrough)
        .expect("instr");
    m.run(16).expect("warm-up");
    let warm = m.stats().clone();
    assert!(warm.decode_cache_misses > 0, "first cycle must decode");
    assert!(warm.decode_cache_hits >= 15, "steady state must hit");

    // Steady state: hits accrue, misses stay flat.
    m.run(16).expect("steady");
    assert_eq!(m.stats().decode_cache_misses, warm.decode_cache_misses);
    assert_eq!(m.stats().decode_cache_hits, warm.decode_cache_hits + 16);

    // A single Dnode rewrite re-decodes only what it touched.
    let before = m.stats().clone();
    m.configure()
        .set_dnode_instr(0, 0, passthrough.with_imm(Word16::from_i16(7)))
        .expect("rewrite");
    m.run(4).expect("after rewrite");
    assert!(
        m.stats().decode_cache_misses > before.decode_cache_misses,
        "config write must charge a miss"
    );

    // The decode-per-cycle path never touches either counter.
    let mut slow = RingMachine::new(
        RingGeometry::RING_8,
        MachineParams::PAPER.with_decode_cache(false),
    );
    slow.configure()
        .set_dnode_instr(0, 0, passthrough)
        .expect("instr");
    slow.run(32).expect("slow run");
    assert_eq!(slow.stats().decode_cache_hits, 0);
    assert_eq!(slow.stats().decode_cache_misses, 0);
}
