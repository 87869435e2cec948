//! Black-box behavioural tests of the whole machine: systolic pipelining,
//! feedback network, dynamic reconfiguration, bus traffic and object
//! loading.

use systolic_ring_core::{ConfigError, LinkModel, MachineParams, RingMachine, SimError};
use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};
use systolic_ring_isa::object::{Object, Preload};
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::{RingGeometry, Word16};

fn w(v: i16) -> Word16 {
    Word16::from_i16(v)
}

fn r(i: u8) -> CReg {
    CReg::new(i).unwrap()
}

fn ring8() -> RingMachine {
    RingMachine::with_defaults(RingGeometry::RING_8)
}

/// Values captured at a sink, with leading zeros (pipeline warm-up /
/// underflow reads) stripped.
fn nonzero(sink: Vec<Word16>) -> Vec<i16> {
    sink.iter()
        .map(|v| v.as_i16())
        .skip_while(|v| *v == 0)
        .collect()
}

#[test]
fn forward_pipeline_across_two_layers() {
    let mut m = ring8();
    // Layer 0 lane 0: out = in1 + 1 (from host port 0 of switch 0).
    m.configure()
        .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
        .unwrap();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::Add, Operand::In1, Operand::One).write_out(),
        )
        .unwrap();
    // Layer 1 lane 0: out = in1 * 2; fed from layer 0 lane 0 through switch 1.
    m.configure()
        .set_port(0, 1, 0, 0, PortSource::PrevOut { lane: 0 })
        .unwrap();
    let d_layer1 = RingGeometry::RING_8.dnode_index(1, 0);
    m.configure()
        .set_dnode_instr(
            0,
            d_layer1,
            MicroInstr::op(AluOp::Shl, Operand::In1, Operand::One).write_out(),
        )
        .unwrap();
    // Capture layer 1's output at switch 2.
    m.configure()
        .set_capture(0, 2, 0, HostCapture::lane(0))
        .unwrap();
    m.open_sink(2, 0).unwrap();
    m.attach_input(0, 0, [5, 6, 7].map(Word16::from_i16))
        .unwrap();
    m.run(10).unwrap();
    let out: Vec<i16> = m
        .take_sink(2, 0)
        .unwrap()
        .iter()
        .map(|v| v.as_i16())
        .collect();
    // (x + 1) * 2 appears as a contiguous run once the pipeline is primed.
    assert!(
        out.windows(3).any(|w| w == [12, 14, 16]),
        "expected [12, 14, 16] in {out:?}"
    );
}

#[test]
fn each_layer_adds_one_cycle_of_latency() {
    let mut m = ring8();
    // Identity chain along lane 0 through all 4 layers.
    for layer in 0..4 {
        let d = RingGeometry::RING_8.dnode_index(layer, 0);
        let src = if layer == 0 {
            PortSource::HostIn { port: 0 }
        } else {
            PortSource::PrevOut { lane: 0 }
        };
        m.configure().set_port(0, layer, 0, 0, src).unwrap();
        m.configure()
            .set_dnode_instr(
                0,
                d,
                MicroInstr::op(AluOp::PassA, Operand::In1, Operand::Zero).write_out(),
            )
            .unwrap();
    }
    m.attach_input(0, 0, [42].map(Word16::from_i16)).unwrap();
    // Word enters the FIFO at the commit of cycle 0; layer 0 reads it at
    // cycle 1 (out visible at cycle 2); each later layer adds one cycle, so
    // layer 3's output holds the word after exactly 5 cycles (and is
    // overwritten by the trailing zeros one cycle later).
    for _ in 0..5 {
        m.step().unwrap();
    }
    let d3 = RingGeometry::RING_8.dnode_index(3, 0);
    assert_eq!(m.dnode(d3).out(), w(42));
}

#[test]
fn global_mode_mac_accumulates_streams() {
    let mut m = ring8();
    m.configure()
        .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
        .unwrap();
    m.configure()
        .set_port(0, 0, 0, 1, PortSource::HostIn { port: 1 })
        .unwrap();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2).write_reg(Reg::R2),
        )
        .unwrap();
    m.attach_input(0, 0, [1, 2, 3, 4].map(Word16::from_i16))
        .unwrap();
    m.attach_input(0, 1, [10, 20, 30, 40].map(Word16::from_i16))
        .unwrap();
    m.run(10).unwrap();
    assert_eq!(m.dnode(0).reg(Reg::R2).as_i16(), 10 + 40 + 90 + 160);
}

#[test]
fn feedback_pipeline_implements_recursion() {
    // y[n] = x[n] + y[n-k]: the Dnode reads its own delayed output through
    // the feedback pipeline of its downstream switch — the paper's reverse
    // dataflow (Figure 5).
    let mut m = ring8();
    // Dnode (0,0) out -> captured by switch 1's pipeline each cycle.
    // Dnode (0,0) reads Fifo1 = pipe[1], stage 0, lane 0.
    m.configure()
        .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
        .unwrap();
    m.configure()
        .set_port(
            0,
            0,
            0,
            2,
            PortSource::Pipe {
                switch: 1,
                stage: 0,
                lane: 0,
            },
        )
        .unwrap();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::Add, Operand::In1, Operand::Fifo1).write_out(),
        )
        .unwrap();
    m.attach_input(0, 0, vec![w(1); 12]).unwrap();
    m.run(14).unwrap();
    // Pipe stage 0 at cycle t holds out(t-1), so y(t) = x(t) + y(t-2):
    // the accumulator grows by 1 every other cycle along two interleaved
    // chains; after enough cycles the output is well above 1.
    assert!(m.dnode(0).out().as_i16() >= 5, "out = {}", m.dnode(0).out());
}

#[test]
fn deeper_pipeline_stages_give_longer_delays() {
    let mut m = ring8();
    // Dnode (0,0): pass host stream to out; its value is pushed into
    // switch 1's pipeline. Dnode (1,0) reads stage 3 of that pipeline.
    m.configure()
        .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
        .unwrap();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::PassA, Operand::In1, Operand::Zero).write_out(),
        )
        .unwrap();
    m.configure()
        .set_port(
            0,
            1,
            0,
            0,
            PortSource::Pipe {
                switch: 1,
                stage: 3,
                lane: 0,
            },
        )
        .unwrap();
    let d1 = RingGeometry::RING_8.dnode_index(1, 0);
    m.configure()
        .set_dnode_instr(
            0,
            d1,
            MicroInstr::op(AluOp::PassA, Operand::In1, Operand::Zero).write_out(),
        )
        .unwrap();
    m.configure()
        .set_capture(0, 2, 0, HostCapture::lane(0))
        .unwrap();
    m.open_sink(2, 0).unwrap();
    m.attach_input(0, 0, (1..=6).map(Word16::from_i16)).unwrap();
    m.run(16).unwrap();
    let out = nonzero(m.take_sink(2, 0).unwrap());
    // The sequence arrives intact, just delayed by the extra stages.
    assert!(out.starts_with(&[1, 2, 3, 4, 5, 6]), "out = {out:?}");
}

#[test]
fn ring_wraps_around_from_last_layer_to_first() {
    let g = RingGeometry::RING_8;
    let mut m = ring8();
    // Dnode (3,1) emits a constant; Dnode (0,1) reads it through switch 0.
    let d_last = g.dnode_index(3, 1);
    m.configure()
        .set_dnode_instr(
            0,
            d_last,
            MicroInstr::op(AluOp::PassA, Operand::Imm, Operand::Zero)
                .with_imm(w(99))
                .write_out(),
        )
        .unwrap();
    m.configure()
        .set_port(0, 0, 1, 0, PortSource::PrevOut { lane: 1 })
        .unwrap();
    let d_first = g.dnode_index(0, 1);
    m.configure()
        .set_dnode_instr(
            0,
            d_first,
            MicroInstr::op(AluOp::PassA, Operand::In1, Operand::Zero).write_reg(Reg::R0),
        )
        .unwrap();
    m.run(4).unwrap();
    assert_eq!(m.dnode(d_first).reg(Reg::R0), w(99));
}

#[test]
fn controller_reconfigures_the_fabric_dynamically() {
    // The controller rewrites Dnode 0's microinstruction every cycle:
    // alternate add-one / shift-left on a constant input (hardware
    // multiplexing in time, §3).
    let mut m = ring8();
    let add = MicroInstr::op(AluOp::Add, Operand::Imm, Operand::One)
        .with_imm(w(10))
        .write_reg(Reg::R1);
    let shl = MicroInstr::op(AluOp::Shl, Operand::Imm, Operand::One)
        .with_imm(w(10))
        .write_reg(Reg::R2);
    // Contexts: ctx 0 = add, ctx 1 = shl. Controller ping-pongs the active
    // context.
    m.configure().set_dnode_instr(0, 0, add).unwrap();
    m.configure().set_dnode_instr(1, 0, shl).unwrap();
    let program = [
        CtrlInstr::Ctx { ctx: 1 },
        CtrlInstr::Ctx { ctx: 0 },
        CtrlInstr::Ctx { ctx: 1 },
        CtrlInstr::Halt,
    ];
    let code: Vec<u32> = program.iter().map(CtrlInstr::encode).collect();
    m.controller_mut().load_program(&code).unwrap();
    m.run_until_halt(100).unwrap();
    m.run(2).unwrap(); // let the last context switch land and execute
    assert_eq!(m.dnode(0).reg(Reg::R1), w(11));
    assert_eq!(m.dnode(0).reg(Reg::R2), w(20));
    assert!(m.stats().ctx_switches >= 2);
}

#[test]
fn controller_builds_a_local_mac_at_runtime() {
    // The controller writes a local-sequencer program into Dnode 0 (wloc),
    // sets the limit (wlim) and flips it into local mode (wmode) — then the
    // Dnode runs as a stand-alone macro-operator with zero controller
    // overhead (§4.1).
    let mut m = ring8();
    m.configure()
        .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
        .unwrap();
    let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::One).write_reg(Reg::R3);
    let word = mac.encode();
    let lo = (word & 0xffff_ffff) as i32;
    let hi = (word >> 32) as u16;
    let program = [
        CtrlInstr::Lui {
            rd: r(1),
            imm: (lo as u32 >> 16) as u16,
        },
        CtrlInstr::Ori {
            rd: r(1),
            ra: r(1),
            imm: (lo as u32 & 0xffff) as u16,
        },
        CtrlInstr::Cimm { imm: hi },
        CtrlInstr::Wloc {
            rs: r(1),
            packed: 0,
        }, // dnode 0, slot 0
        CtrlInstr::Addi {
            rd: r(2),
            ra: r(0),
            imm: 1,
        },
        CtrlInstr::Wlim { rs: r(2), dnode: 0 },
        CtrlInstr::Wmode { rs: r(2), dnode: 0 },
        CtrlInstr::Halt,
    ];
    let code: Vec<u32> = program.iter().map(CtrlInstr::encode).collect();
    m.controller_mut().load_program(&code).unwrap();
    m.attach_input(0, 0, vec![w(7); 20]).unwrap();
    m.run(20).unwrap();
    assert!(m.controller().is_halted());
    assert_eq!(m.dnode(0).mode(), DnodeMode::Local);
    // Every cycle after entering local mode accumulates +7 (MAC a*1).
    let acc = m.dnode(0).reg(Reg::R3).as_i16();
    assert!(acc >= 7 * 8, "acc = {acc}");
    assert_eq!(acc % 7, 0);
}

#[test]
fn bus_connects_dnodes_and_controller() {
    let mut m = ring8();
    // Dnode 0 drives the bus with a constant; the controller reads it,
    // adds 5, drives it back; Dnode 1 (layer 0, lane 1) copies the bus.
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::PassA, Operand::Imm, Operand::Zero)
                .with_imm(w(100))
                .write_bus(),
        )
        .unwrap();
    let program = [
        CtrlInstr::Nop,               // cycle 0: dnode drives bus
        CtrlInstr::Busr { rd: r(1) }, // cycle 1: bus = 100 visible
        CtrlInstr::Addi {
            rd: r(1),
            ra: r(1),
            imm: 5,
        },
        CtrlInstr::Busw { rs: r(1) }, // controller wins arbitration
        CtrlInstr::Halt,
    ];
    let code: Vec<u32> = program.iter().map(CtrlInstr::encode).collect();
    m.controller_mut().load_program(&code).unwrap();
    // After 4 cycles the controller's busw has just committed and won
    // arbitration over the Dnode's concurrent drive.
    m.run(4).unwrap();
    assert_eq!(m.bus(), w(105));
    assert!(m.stats().bus_conflicts >= 1);
    // Once the controller halts, the Dnode's drive takes the bus back.
    m.run(2).unwrap();
    assert_eq!(m.bus(), w(100));
}

#[test]
fn host_capture_respects_fifo_capacity() {
    let params = MachineParams::PAPER.with_host_fifo_capacity(2);
    let mut m = RingMachine::new(RingGeometry::RING_8, params);
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::PassA, Operand::Imm, Operand::Zero)
                .with_imm(w(1))
                .write_out(),
        )
        .unwrap();
    m.configure()
        .set_capture(0, 1, 0, HostCapture::lane(0))
        .unwrap();
    m.open_sink(1, 0).unwrap();
    // The host drains one word per cycle but capture also produces one per
    // cycle; with capacity 2 nothing overflows in steady state.
    m.run(10).unwrap();
    assert_eq!(m.stats().fifo_overflows, 0);
    assert!(m.stats().host_words_out > 0);
}

#[test]
fn metered_link_slows_streaming() {
    // Same workload under Direct vs PCI-class link: the metered link
    // delivers words at 0.625 words/cycle, so the stream takes longer to
    // drain (the §5.1 bandwidth contrast).
    let run_with = |link: LinkModel| {
        let params = MachineParams::PAPER.with_link(link);
        let mut m = RingMachine::new(RingGeometry::RING_8, params);
        m.attach_input(0, 0, vec![w(1); 100]).unwrap();
        let mut cycles = 0u64;
        while !m.host().inputs_drained() && cycles < 1000 {
            m.step().unwrap();
            cycles += 1;
        }
        cycles
    };
    let direct = run_with(LinkModel::Direct);
    let pci = run_with(LinkModel::PCI_250MBPS_AT_200MHZ);
    assert!(direct <= 101, "direct took {direct}");
    assert!(pci >= 150, "pci took {pci}");
}

#[test]
fn object_load_applies_preloads() {
    let g = RingGeometry::RING_8;
    let instr = MicroInstr::op(AluOp::Add, Operand::In1, Operand::One).write_out();
    let object = Object {
        geometry: Some(g),
        contexts: 2,
        code: vec![CtrlInstr::Halt.encode()],
        data: vec![7, 8, 9],
        preload: vec![
            Preload::DnodeInstr {
                ctx: 0,
                dnode: 0,
                word: instr.encode(),
            },
            Preload::SwitchPort {
                ctx: 0,
                switch: 0,
                lane: 0,
                input: 0,
                word: PortSource::HostIn { port: 0 }.encode(),
            },
            Preload::HostCapture {
                ctx: 0,
                switch: 1,
                port: 0,
                word: HostCapture::lane(0).encode(),
            },
            Preload::Mode {
                dnode: 3,
                local: true,
            },
            Preload::LocalSlot {
                dnode: 3,
                slot: 0,
                word: MicroInstr::NOP.encode(),
            },
            Preload::LocalLimit { dnode: 3, limit: 1 },
        ],
    };
    let mut m = ring8();
    m.load(&object).unwrap();
    assert_eq!(m.controller().dmem(1), Some(8));
    assert_eq!(m.dnode(3).mode(), DnodeMode::Local);
    m.open_sink(1, 0).unwrap();
    m.attach_input(0, 0, [9].map(Word16::from_i16)).unwrap();
    m.run(6).unwrap();
    let out: Vec<i16> = m
        .take_sink(1, 0)
        .unwrap()
        .iter()
        .map(|v| v.as_i16())
        .collect();
    // Underflow cycles produce 1 (0 + 1); the streamed word produces 10.
    assert!(out.contains(&10), "out = {out:?}");
}

#[test]
fn object_load_rejects_mismatches() {
    let mut m = ring8();
    let wrong_geometry = Object {
        geometry: Some(RingGeometry::RING_16),
        ..Object::new()
    };
    assert!(matches!(
        m.load(&wrong_geometry),
        Err(ConfigError::GeometryMismatch { .. })
    ));
    let too_many_ctx = Object {
        geometry: Some(RingGeometry::RING_8),
        contexts: 100,
        ..Object::new()
    };
    assert!(matches!(
        m.load(&too_many_ctx),
        Err(ConfigError::NotEnoughContexts { .. })
    ));
    let bad_preload = Object {
        preload: vec![Preload::LocalLimit { dnode: 0, limit: 9 }],
        ..Object::new()
    };
    assert!(matches!(
        m.load(&bad_preload),
        Err(ConfigError::BadLocalLimit { .. })
    ));
}

#[test]
fn runtime_bad_config_write_is_a_machine_check() {
    let mut m = ring8();
    // wdn to dnode 200 (out of range on Ring-8).
    let program = [
        CtrlInstr::Wdn {
            rs: r(0),
            dnode: 200,
        },
        CtrlInstr::Halt,
    ];
    let code: Vec<u32> = program.iter().map(CtrlInstr::encode).collect();
    m.controller_mut().load_program(&code).unwrap();
    let err = m.run(3).unwrap_err();
    assert!(matches!(err, SimError::BadConfigWrite { cycle: 0, .. }));
}

#[test]
fn run_until_halt_reports_cycle_limit() {
    let mut m = ring8();
    // Infinite loop.
    let program = [CtrlInstr::J { target: 0 }];
    let code: Vec<u32> = program.iter().map(CtrlInstr::encode).collect();
    m.controller_mut().load_program(&code).unwrap();
    assert_eq!(
        m.run_until_halt(50),
        Err(SimError::CycleLimit { limit: 50 })
    );
}

#[test]
fn stats_track_utilization_and_ops() {
    let mut m = ring8();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::Mac, Operand::One, Operand::One).write_reg(Reg::R0),
        )
        .unwrap();
    m.run(10).unwrap();
    let stats = m.stats();
    assert_eq!(stats.cycles, 10);
    assert_eq!(stats.dnodes[0].active_cycles, 10);
    assert_eq!(stats.dnodes[0].alu_ops, 10);
    assert_eq!(stats.dnodes[0].mult_ops, 10);
    assert_eq!(stats.idle_dnodes(), 7);
    // One of eight Dnodes active.
    assert!((stats.utilization() - 0.125).abs() < 1e-9);
    // MAC counts as two operations per cycle.
    assert_eq!(stats.total_ops(), 20);
}

#[test]
fn underflow_reads_return_zero_and_are_counted() {
    let mut m = ring8();
    m.configure()
        .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
        .unwrap();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::PassA, Operand::In1, Operand::Zero).write_out(),
        )
        .unwrap();
    m.run(5).unwrap();
    assert_eq!(m.dnode(0).out(), Word16::ZERO);
    assert_eq!(m.stats().fifo_underflows, 5);
}

#[test]
fn hybrid_mode_mixes_local_and_global_dnodes() {
    // One Dnode in local mode cycling two instructions, a second in global
    // mode under the active context — both run concurrently (§4.2 "hybrid
    // mode").
    let mut m = ring8();
    let inc = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::One).write_reg(Reg::R0);
    let dec = MicroInstr::op(AluOp::Sub, Operand::Reg(Reg::R1), Operand::One).write_reg(Reg::R1);
    m.set_local_program(0, &[inc, dec]).unwrap();
    m.set_mode(0, DnodeMode::Local);
    let d1 = 1;
    m.configure()
        .set_dnode_instr(
            0,
            d1,
            MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R2), Operand::One).write_reg(Reg::R2),
        )
        .unwrap();
    m.run(10).unwrap();
    assert_eq!(m.dnode(0).reg(Reg::R0), w(5));
    assert_eq!(m.dnode(0).reg(Reg::R1), w(-5));
    assert_eq!(m.dnode(d1).reg(Reg::R2), w(10));
    assert_eq!(m.stats().dnodes[0].local_cycles, 10);
    assert_eq!(m.stats().dnodes[d1].local_cycles, 0);
}

#[test]
fn controller_hpush_and_hpop_move_words() {
    let mut m = ring8();
    // Controller pushes 3 into switch 0 port 0; Dnode (0,0) passes it
    // through; the capture at switch 1 sends it back; the controller pops
    // captures until it sees a nonzero word (zeros are warm-up underflow
    // reads) and stores it to dmem[0]. The sink of switch 1 stays closed so
    // the controller is the only consumer.
    m.configure()
        .set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
        .unwrap();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::PassA, Operand::In1, Operand::Zero).write_out(),
        )
        .unwrap();
    m.configure()
        .set_capture(0, 1, 0, HostCapture::lane(0))
        .unwrap();
    let program = [
        CtrlInstr::Addi {
            rd: r(1),
            ra: r(0),
            imm: 3,
        },
        CtrlInstr::Hpush {
            rs: r(1),
            switch: 0,
        }, // switch 0, port 0
        CtrlInstr::Hpop {
            rd: r(5),
            switch: 1 << 8,
        }, // pc 2: pop sw1 port 0
        CtrlInstr::Beq {
            ra: r(5),
            rb: r(0),
            offset: -2,
        }, // retry on zero
        CtrlInstr::Sw {
            rs: r(5),
            ra: r(0),
            imm: 0,
        },
        CtrlInstr::Halt,
    ];
    let code: Vec<u32> = program.iter().map(CtrlInstr::encode).collect();
    m.controller_mut().load_program(&code).unwrap();
    m.run_until_halt(200).unwrap();
    assert_eq!(m.controller().dmem(0), Some(3));
}

#[test]
fn reset_stats_preserves_state() {
    let mut m = ring8();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::One).write_reg(Reg::R0),
        )
        .unwrap();
    m.run(4).unwrap();
    m.reset_stats();
    assert_eq!(m.stats().cycles, 0);
    assert_eq!(m.dnode(0).reg(Reg::R0), w(4));
    m.run(2).unwrap();
    assert_eq!(m.stats().cycles, 2);
    assert_eq!(m.dnode(0).reg(Reg::R0), w(6));
}

#[test]
fn parallel_captures_extract_a_whole_layer_per_cycle() {
    // Each of switch 1's out-ports captures a different lane of layer 0 —
    // the per-port "direct dedicated ports" extracting a full layer at once.
    let mut m = ring8();
    for lane in 0..2usize {
        let d = RingGeometry::RING_8.dnode_index(0, lane);
        m.configure()
            .set_dnode_instr(
                0,
                d,
                MicroInstr::op(AluOp::PassA, Operand::Imm, Operand::Zero)
                    .with_imm(w(10 + lane as i16))
                    .write_out(),
            )
            .unwrap();
        m.configure()
            .set_capture(0, 1, lane, HostCapture::lane(lane as u8))
            .unwrap();
        m.open_sink(1, lane).unwrap();
    }
    m.run(5).unwrap();
    let p0 = m.take_sink(1, 0).unwrap();
    let p1 = m.take_sink(1, 1).unwrap();
    assert!(p0.contains(&w(10)));
    assert!(p1.contains(&w(11)));
    // Both ports collected one word per cycle.
    assert_eq!(p0.len(), p1.len());
}

#[test]
fn controller_who_configures_per_port_captures() {
    // The controller writes capture selectors through `who`, whose
    // immediate packs switch << 8 | out_port.
    let mut m = ring8();
    m.configure()
        .set_dnode_instr(
            0,
            0,
            MicroInstr::op(AluOp::PassA, Operand::Imm, Operand::Zero)
                .with_imm(w(55))
                .write_out(),
        )
        .unwrap();
    let d01 = RingGeometry::RING_8.dnode_index(0, 1);
    m.configure()
        .set_dnode_instr(
            0,
            d01,
            MicroInstr::op(AluOp::PassA, Operand::Imm, Operand::Zero)
                .with_imm(w(66))
                .write_out(),
        )
        .unwrap();
    // who r1, (1 << 8) | 1: switch 1, out-port 1, capture lane 1.
    let program = [
        CtrlInstr::Addi {
            rd: r(1),
            ra: r(0),
            imm: 2,
        }, // HostCapture::lane(1)
        CtrlInstr::Who {
            rs: r(1),
            switch: (1 << 8) | 1,
        },
        CtrlInstr::Halt,
    ];
    let code: Vec<u32> = program.iter().map(CtrlInstr::encode).collect();
    m.controller_mut().load_program(&code).unwrap();
    m.open_sink(1, 1).unwrap();
    m.run(8).unwrap();
    let sink = m.take_sink(1, 1).unwrap();
    assert!(sink.contains(&w(66)), "sink = {sink:?}");
    // Port 0 was never configured: empty.
    assert!(m.take_sink(1, 0).unwrap().is_empty());
}

#[test]
fn controller_hpop_addresses_ports() {
    // hpop's immediate packs switch << 8 | out_port.
    let mut m = ring8();
    let d01 = RingGeometry::RING_8.dnode_index(0, 1);
    m.configure()
        .set_dnode_instr(
            0,
            d01,
            MicroInstr::op(AluOp::PassA, Operand::Imm, Operand::Zero)
                .with_imm(w(99))
                .write_out(),
        )
        .unwrap();
    m.configure()
        .set_capture(0, 1, 1, HostCapture::lane(1))
        .unwrap();
    let program = [
        CtrlInstr::Hpop {
            rd: r(2),
            switch: (1 << 8) | 1,
        },
        CtrlInstr::Bne {
            ra: r(2),
            rb: r(0),
            offset: 1,
        },
        CtrlInstr::J { target: 0 },
        CtrlInstr::Sw {
            rs: r(2),
            ra: r(0),
            imm: 0,
        },
        CtrlInstr::Halt,
    ];
    let code: Vec<u32> = program.iter().map(CtrlInstr::encode).collect();
    m.controller_mut().load_program(&code).unwrap();
    m.run_until_halt(100).unwrap();
    assert_eq!(m.controller().dmem(0), Some(99));
}

/// An undecodable program word faults only when the controller fetches
/// it — never at load, never while it is jumped over — and then at the
/// same cycle and pc on every execution tier.
#[test]
fn undecodable_word_faults_only_when_fetched() {
    let bad = u32::MAX;
    assert!(CtrlInstr::decode(bad).is_err(), "the word must not decode");
    let code = vec![
        CtrlInstr::Nop.encode(),
        CtrlInstr::J { target: 3 }.encode(),
        bad,
        CtrlInstr::Addi {
            rd: r(1),
            ra: r(0),
            imm: 1,
        }
        .encode(),
        CtrlInstr::Wait { cycles: 20 }.encode(),
        CtrlInstr::J { target: 2 }.encode(),
    ];
    let tiers = [
        MachineParams::PAPER,
        MachineParams::PAPER.with_fused(false),
        MachineParams::PAPER
            .with_fused(false)
            .with_decode_cache(false),
    ];
    for params in tiers {
        let mut m = RingMachine::new(RingGeometry::RING_8, params);
        m.controller_mut().load_program(&code).expect("loads");
        let err = m.run(200).expect_err("the fetch of word 2 faults");
        // nop, j, addi, wait (1 + 19 stall cycles), j: the fetch of word 2
        // happens on cycle 24.
        match err {
            SimError::BadInstruction { cycle, pc, .. } => {
                assert_eq!((cycle, pc), (24, 2), "{params:?}");
            }
            other => panic!("{params:?}: expected BadInstruction, got {other}"),
        }
        assert_eq!(
            m.cycle(),
            24,
            "{params:?}: the faulting cycle did not complete"
        );
        assert_eq!(m.controller().reg(1), 1, "{params:?}");
    }
}
