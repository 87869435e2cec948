//! Cross-tier differential over the host-stream edge cases.
//!
//! A host-input port keeps its FIFO and its attached, not yet delivered
//! stream in one buffer: deliveries, reads and pops are cursor moves, and
//! a fused or aot burst carries the cursors through the whole burst in
//! local tables. The scenarios here aim at the places where that can go
//! wrong — FIFOs of 1 to 8 words so back-pressure hits inside bursts,
//! streams that run dry mid-burst, inputs attached between `run` calls,
//! controller `hpush`es into ports whose stream is still pending, metered
//! links, checkpoints taken mid-stream and resumed by `restore` and by
//! `Checkpoint::hydrate`, and a 16-lane `lockstep_burst` whose lanes carry
//! streams of different lengths — and demand that the slow, decoded,
//! fused and aot tiers agree on every sink word, every FIFO and stream
//! word, the architectural state and every statistics counter outside
//! the engines' own bookkeeping.

use systolic_ring_core::{lockstep_burst, LinkModel, MachineParams, RingMachine, Stats};
use systolic_ring_harness::for_random_cases;
use systolic_ring_harness::testkit::TestRng;
use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::{RingGeometry, Word16};

const GEOMETRY: RingGeometry = RingGeometry::RING_8;
const IN_PORTS: usize = 4;
const OUT_PORTS: usize = 2;

fn words(rng: &mut TestRng, len: usize) -> Vec<Word16> {
    (0..len).map(|_| Word16::from_i16(rng.any_i16())).collect()
}

fn host_operand(rng: &mut TestRng) -> Operand {
    *rng.choose(&[
        Operand::In1,
        Operand::In2,
        Operand::Fifo1,
        Operand::Fifo2,
        Operand::Reg(Reg::R0),
        Operand::One,
    ])
}

fn host_micro(rng: &mut TestRng) -> MicroInstr {
    let alu = *rng.choose(&[
        AluOp::Nop,
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mac,
        AluOp::AbsDiff,
        AluOp::Min,
    ]);
    let mut instr = MicroInstr::op(alu, host_operand(rng), host_operand(rng)).write_out();
    if rng.next_bool() {
        instr = instr.write_reg(Reg::R0);
    }
    instr
}

fn r(n: u8) -> CReg {
    CReg::new(n).expect("register index")
}

/// `hpush` of `value` into host-input port (`switch`, `port`).
fn hpush(code: &mut Vec<u32>, switch: usize, port: usize, value: i16) {
    code.push(
        CtrlInstr::Addi {
            rd: r(1),
            ra: r(0),
            imm: value,
        }
        .encode(),
    );
    code.push(
        CtrlInstr::Hpush {
            rs: r(1),
            switch: (switch << 8 | port) as u16,
        }
        .encode(),
    );
}

/// Words attached to host-input port `(switch, port, words)`.
type Stream = (usize, usize, Vec<Word16>);

/// One randomized host-stream scenario on a Ring-8.
struct Scenario {
    capacity: usize,
    link: LinkModel,
    routes: Vec<(usize, usize, usize, PortSource)>,
    instrs: Vec<(usize, MicroInstr)>,
    locals: Vec<(usize, Vec<MicroInstr>)>,
    captures: Vec<(usize, usize, u8)>,
    sinks: Vec<(usize, usize)>,
    streams: Vec<Stream>,
    program: Vec<u32>,
    /// Run lengths, each followed by streams attached before the next.
    segments: Vec<(u64, Vec<Stream>)>,
    /// Segment after which the checkpoint is taken.
    checkpoint_after: usize,
}

impl Scenario {
    fn random(rng: &mut TestRng) -> Scenario {
        let capacity = 1 + rng.index(8);
        let link = if rng.next_bool() {
            LinkModel::Direct
        } else {
            LinkModel::Metered {
                bytes_per_cycle: *rng.choose(&[0.5, 1.25, 2.0, 5.0, 9.0]),
            }
        };
        let mut routes = Vec::new();
        for layer in 0..4 {
            for lane in 0..2 {
                for input in 0..4 {
                    let source = match rng.index(6) {
                        0 => PortSource::Zero,
                        1 => PortSource::PrevOut {
                            lane: rng.index(2) as u8,
                        },
                        _ => PortSource::HostIn {
                            port: rng.index(IN_PORTS) as u8,
                        },
                    };
                    routes.push((layer, lane, input, source));
                }
            }
        }
        let instrs = (0..GEOMETRY.dnodes())
            .map(|d| (d, host_micro(rng)))
            .collect();
        // Local loops read their ports on some slots only, so streams
        // deliver faster than they drain and back-pressure builds up.
        let mut locals = Vec::new();
        for d in 0..GEOMETRY.dnodes() {
            if rng.index(3) == 0 {
                let len = 1 + rng.index(4);
                locals.push((d, (0..len).map(|_| host_micro(rng)).collect()));
            }
        }
        let captures = (0..1 + rng.index(4))
            .map(|_| (rng.index(4), rng.index(OUT_PORTS), rng.index(2) as u8))
            .collect::<Vec<_>>();
        let sinks = captures
            .iter()
            .filter(|_| rng.next_bool())
            .map(|&(s, p, _)| (s, p))
            .collect();
        let streams: Vec<Stream> = (0..1 + rng.index(6))
            .map(|_| {
                let len = rng.index(160);
                (rng.index(4), rng.index(IN_PORTS), words(rng, len))
            })
            .collect();
        let mut program = Vec::new();
        for _ in 0..1 + rng.index(3) {
            program.push(
                CtrlInstr::Wait {
                    cycles: 20 + rng.index(140) as u16,
                }
                .encode(),
            );
            for _ in 0..rng.index(3) {
                // Half the pushes target a port that was given a stream,
                // which may still be undelivered behind a full FIFO.
                let (s, p) = if rng.next_bool() {
                    let (s, p, _) = rng.choose(&streams);
                    (*s, *p)
                } else {
                    (rng.index(4), rng.index(IN_PORTS))
                };
                hpush(&mut program, s, p, rng.any_i16() >> 4);
            }
        }
        program.push(CtrlInstr::Halt.encode());
        let segments: Vec<_> = (0..2 + rng.index(5))
            .map(|_| {
                let cycles = 1 + rng.index(260) as u64;
                let attach = (0..rng.index(3))
                    .map(|_| {
                        let len = rng.index(90);
                        (rng.index(4), rng.index(IN_PORTS), words(rng, len))
                    })
                    .collect();
                (cycles, attach)
            })
            .collect();
        let checkpoint_after = rng.index(segments.len());
        Scenario {
            capacity,
            link,
            routes,
            instrs,
            locals,
            captures,
            sinks,
            streams,
            program,
            segments,
            checkpoint_after,
        }
    }

    fn build(&self, tier: MachineParams) -> RingMachine {
        let params = tier
            .with_host_fifo_capacity(self.capacity)
            .with_link(self.link);
        let mut m = RingMachine::new(GEOMETRY, params);
        for &(layer, lane, input, source) in &self.routes {
            m.configure()
                .set_port(0, layer, lane, input, source)
                .expect("route");
        }
        for &(d, instr) in &self.instrs {
            m.configure().set_dnode_instr(0, d, instr).expect("instr");
        }
        for (d, program) in &self.locals {
            m.set_local_program(*d, program).expect("local program");
            m.set_mode(*d, DnodeMode::Local);
        }
        for &(s, p, lane) in &self.captures {
            m.configure()
                .set_capture(0, s, p, HostCapture::lane(lane))
                .expect("capture");
        }
        for &(s, p) in &self.sinks {
            m.open_sink(s, p).expect("sink");
        }
        for (s, p, stream) in &self.streams {
            m.attach_input(*s, *p, stream.iter().copied())
                .expect("stream");
        }
        m.controller_mut()
            .load_program(&self.program)
            .expect("program loads");
        m
    }

    /// Runs segments `from..` and attaches each one's streams after it.
    fn run_from(&self, m: &mut RingMachine, from: usize) {
        for (cycles, attach) in &self.segments[from..] {
            m.run(*cycles).expect("run");
            for (s, p, stream) in attach {
                m.attach_input(*s, *p, stream.iter().copied())
                    .expect("attach");
            }
        }
    }
}

/// The four tiers: aot, fused, decoded, slow.
fn tiers() -> [(&'static str, MachineParams); 4] {
    [
        ("aot", MachineParams::PAPER.with_aot(true)),
        ("fused", MachineParams::PAPER),
        ("decoded", MachineParams::PAPER.with_fused(false)),
        (
            "slow",
            MachineParams::PAPER
                .with_fused(false)
                .with_decode_cache(false),
        ),
    ]
}

/// Asserts two machines agree on everything the host streams can touch:
/// cycle, bus, controller, Dnode state, every switch (pipelines, FIFO
/// contents and undelivered stream words), every sink and the
/// architectural statistics.
fn assert_same(a: &RingMachine, b: &RingMachine, what: &str) {
    assert_eq!(a.cycle(), b.cycle(), "{what}: cycle");
    assert_eq!(a.bus(), b.bus(), "{what}: bus");
    assert_eq!(
        a.controller().state(),
        b.controller().state(),
        "{what}: controller"
    );
    for d in 0..GEOMETRY.dnodes() {
        let (x, y) = (a.dnode(d), b.dnode(d));
        assert_eq!(x.out(), y.out(), "{what}: dnode {d} out");
        assert_eq!(
            x.out_written_at(),
            y.out_written_at(),
            "{what}: dnode {d} stamp"
        );
        for reg in [Reg::R0, Reg::R1, Reg::R2, Reg::R3] {
            assert_eq!(x.reg(reg), y.reg(reg), "{what}: dnode {d} {reg:?}");
        }
        assert_eq!(
            x.sequencer().counter(),
            y.sequencer().counter(),
            "{what}: dnode {d} sequencer"
        );
    }
    for s in 0..GEOMETRY.switches() {
        assert_eq!(a.switch(s), b.switch(s), "{what}: switch {s} state");
        for p in 0..IN_PORTS {
            assert_eq!(
                a.pending_input(s, p).expect("port"),
                b.pending_input(s, p).expect("port"),
                "{what}: switch {s} port {p} pending"
            );
        }
        for p in 0..OUT_PORTS {
            assert_eq!(
                a.host().sink(s, p).expect("sink"),
                b.host().sink(s, p).expect("sink"),
                "{what}: switch {s} sink {p}"
            );
        }
    }
    assert_eq!(
        a.host().inputs_drained(),
        b.host().inputs_drained(),
        "{what}: inputs drained"
    );
    assert_eq!(
        a.stats().without_cache_counters(),
        b.stats().without_cache_counters(),
        "{what}: stats"
    );
}

/// Randomized scenarios: every tier agrees segment by segment, and a
/// checkpoint taken mid-stream replays to the same end state through
/// `restore` on the running machine and through `Checkpoint::hydrate`.
#[test]
fn host_streams_agree_across_tiers() {
    let mut total = Stats::new(0);
    for_random_cases!(40, 0x4057, |rng| {
        let sc = Scenario::random(rng);
        let mut machines: Vec<(&str, RingMachine)> = tiers()
            .into_iter()
            .map(|(name, params)| (name, sc.build(params)))
            .collect();
        let mut checkpoints = Vec::new();
        for (i, (cycles, attach)) in sc.segments.iter().enumerate() {
            for (_, m) in machines.iter_mut() {
                m.run(*cycles).expect("run");
                for (s, p, stream) in attach {
                    m.attach_input(*s, *p, stream.iter().copied())
                        .expect("attach");
                }
                if i == sc.checkpoint_after {
                    checkpoints.push(m.checkpoint());
                }
            }
            let (reference, rest) = machines.split_last().expect("four tiers");
            for (name, m) in rest {
                assert_same(m, &reference.1, &format!("segment {i}: {name} vs slow"));
            }
        }
        for ((name, m), checkpoint) in machines.iter_mut().zip(&checkpoints) {
            let finished = m.clone();
            let mut hydrated = checkpoint.hydrate();
            sc.run_from(&mut hydrated, sc.checkpoint_after + 1);
            m.restore(checkpoint);
            sc.run_from(m, sc.checkpoint_after + 1);
            // Restoring counts one restore on top of the checkpoint's
            // count; hydrating counts the same one.
            assert_eq!(m.stats().restores, finished.stats().restores + 1);
            let mut finished_stats = finished.stats().clone();
            finished_stats.restores += 1;
            assert_eq!(
                m.stats().without_cache_counters(),
                finished_stats.without_cache_counters(),
                "{name}: restored replay stats"
            );
            assert_same(&hydrated, m, &format!("{name}: hydrated vs restored"));
        }
        for (_, m) in &machines {
            total.merge(m.stats());
        }
    });
    // The sweep exercised every edge it is meant to cover, on the
    // compiled tiers as well as the per-cycle ones.
    assert!(total.fused_cycles > 0 && total.aot_cycles > 0, "no bursts");
    assert!(total.host_words_in > 0, "no stream words delivered");
    assert!(total.fifo_underflows > 0, "no stream ran dry");
    assert!(total.fifo_overflows > 0, "no FIFO overflowed");
    assert!(total.link_stall_cycles > 0, "no metered link starved");
}

/// One fused burst sees all of it at once: a FIFO of 2 words fills while
/// its stream is still pending (back-pressure), a short stream runs dry
/// and underflows, an open sink drains captures, and a metered link runs
/// out of allowance — all inside a single burst, matching the slow tier.
#[test]
fn one_burst_covers_backpressure_dry_streams_and_metering() {
    for link in [
        LinkModel::Direct,
        LinkModel::Metered {
            bytes_per_cycle: 3.0,
        },
    ] {
        let build = |tier: MachineParams| {
            let params = tier.with_host_fifo_capacity(2).with_link(link);
            let mut m = RingMachine::new(GEOMETRY, params);
            let cfg = m.configure();
            cfg.set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
                .expect("route");
            cfg.set_port(0, 0, 1, 0, PortSource::HostIn { port: 1 })
                .expect("route");
            cfg.set_dnode_instr(
                0,
                1,
                MicroInstr::op(AluOp::Add, Operand::In1, Operand::One).write_out(),
            )
            .expect("instr");
            cfg.set_capture(0, 1, 0, HostCapture::lane(1))
                .expect("capture");
            // Dnode 0 reads port 0 on one slot of three: its 2-word FIFO
            // fills while the stream waits behind it.
            let read =
                MicroInstr::op(AluOp::Add, Operand::In1, Operand::Reg(Reg::R0)).write_reg(Reg::R0);
            m.set_local_program(0, &[read, MicroInstr::NOP, MicroInstr::NOP])
                .expect("local");
            m.set_mode(0, DnodeMode::Local);
            m.open_sink(1, 0).expect("sink");
            m.attach_input(0, 0, (0..300).map(Word16::from_i16))
                .expect("long stream");
            m.attach_input(0, 1, (0..80).map(Word16::from_i16))
                .expect("short stream");
            m
        };
        let mut fused = build(MachineParams::PAPER);
        let mut slow = build(
            MachineParams::PAPER
                .with_fused(false)
                .with_decode_cache(false),
        );
        // A first stretch (one burst of its own), then the burst under test.
        fused.run(40).expect("first stretch");
        slow.run(40).expect("first stretch");
        let before = fused.stats().clone();
        let pending_before = fused.pending_input(0, 0).expect("port");
        fused.run(200).expect("burst");
        slow.run(200).expect("reference");
        let after = fused.stats();
        assert_eq!(
            after.fused_entries,
            before.fused_entries + 1,
            "{link:?}: one burst"
        );
        assert_eq!(after.fused_cycles - before.fused_cycles, 200);
        let delivered = pending_before - fused.pending_input(0, 0).expect("port");
        assert!(
            delivered < 200 / 2,
            "{link:?}: no back-pressure ({delivered})"
        );
        assert!(
            after.fifo_underflows > before.fifo_underflows,
            "{link:?}: no dry stream"
        );
        assert!(
            after.host_words_out > before.host_words_out,
            "{link:?}: no drain"
        );
        if link != LinkModel::Direct {
            assert!(
                after.link_stall_cycles > before.link_stall_cycles,
                "{link:?}: link never starved"
            );
        }
        assert_same(&fused, &slow, &format!("{link:?}"));
    }
}

/// A metered link keeps accruing credit through a burst in which its
/// host side has nothing to move (streams delivered, no open sink): words
/// attached after the burst are then delivered on exactly the cycles the
/// per-cycle tiers deliver them.
#[test]
fn metered_credit_keeps_accruing_through_idle_bursts() {
    for bytes_per_cycle in [0.75, 1.25, 3.0] {
        let link = LinkModel::Metered { bytes_per_cycle };
        let mut machines: Vec<(&str, RingMachine)> = tiers()
            .into_iter()
            .map(|(name, tier)| {
                let params = tier.with_host_fifo_capacity(4).with_link(link);
                let mut m = RingMachine::new(GEOMETRY, params);
                m.configure()
                    .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
                    .expect("route");
                m.configure()
                    .set_dnode_instr(
                        0,
                        0,
                        MicroInstr::op(AluOp::Add, Operand::In1, Operand::One).write_out(),
                    )
                    .expect("instr");
                m.attach_input(0, 0, (1..4).map(Word16::from_i16))
                    .expect("stream");
                (name, m)
            })
            .collect();
        for (_, m) in machines.iter_mut() {
            m.run(203).expect("idle run");
            m.attach_input(0, 0, (0..30).map(Word16::from_i16))
                .expect("late stream");
        }
        assert!(machines[1].1.stats().fused_cycles > 100, "no idle burst");
        for cycle in 0..40 {
            for (_, m) in machines.iter_mut() {
                m.run(1).expect("step");
            }
            let (reference, rest) = machines.split_last().expect("four tiers");
            for (name, m) in rest {
                assert_same(
                    m,
                    &reference.1,
                    &format!("{bytes_per_cycle} B/cycle, cycle {cycle}: {name} vs slow"),
                );
            }
        }
    }
}

/// A 16-lane lockstep group whose lanes carry streams of different
/// lengths (some empty, some running dry mid-burst, some outlasting the
/// run) and only some of which drain a sink matches each lane run alone
/// on the slow tier.
#[test]
fn lockstep_lanes_with_different_stream_lengths_match_solo_runs() {
    const LANES: usize = 16;
    const TARGET: u64 = 600;
    for link in [
        LinkModel::Direct,
        LinkModel::Metered {
            bytes_per_cycle: 5.0,
        },
    ] {
        let build = |tier: MachineParams, lane: usize| {
            let params = tier.with_host_fifo_capacity(3).with_link(link);
            let mut m = RingMachine::new(GEOMETRY, params);
            let cfg = m.configure();
            for (d, port) in [(0usize, 0u8), (1, 1)] {
                cfg.set_port(0, 0, d, 0, PortSource::HostIn { port })
                    .expect("route");
                cfg.set_port(0, 0, d, 1, PortSource::HostIn { port: 2 })
                    .expect("route");
                cfg.set_dnode_instr(
                    0,
                    d,
                    MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2)
                        .write_reg(Reg::R0)
                        .write_out(),
                )
                .expect("instr");
            }
            cfg.set_capture(0, 1, 0, HostCapture::lane(0))
                .expect("capture");
            cfg.set_capture(0, 1, 1, HostCapture::lane(1))
                .expect("capture");
            // Odd lanes leave their sink closed: once their streams are
            // delivered their host side idles while the others still move
            // words, and their capture FIFO overflows.
            if lane.is_multiple_of(2) {
                m.open_sink(1, 0).expect("sink");
            }
            let base = lane as i16 * 100;
            m.attach_input(
                0,
                0,
                (0..lane as i16 * 37).map(|i| Word16::from_i16(base + i)),
            )
            .expect("stream");
            m.attach_input(0, 1, (0..(LANES - lane) as i16 * 23).map(Word16::from_i16))
                .expect("stream");
            m.attach_input(0, 2, (0..lane as i16 * 11).map(Word16::from_i16))
                .expect("stream");
            m
        };
        let mut grouped: Vec<RingMachine> = (0..LANES)
            .map(|lane| build(MachineParams::PAPER, lane))
            .collect();
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
        for (lane, g) in grouped.iter().enumerate() {
            let mut solo = build(
                MachineParams::PAPER
                    .with_fused(false)
                    .with_decode_cache(false),
                lane,
            );
            solo.run(TARGET).expect("solo run");
            assert!(
                g.stats().fused_lane_occupancy >= g.stats().fused_cycles * LANES as u64,
                "{link:?} lane {lane}: the group never ran all 16 lanes together"
            );
            assert!(
                g.stats().fused_cycles > TARGET / 2,
                "{link:?}: too few fused cycles"
            );
            assert_same(g, &solo, &format!("{link:?} lane {lane}"));
        }
    }
}
