//! Negative corpus: one deliberately broken object per diagnostic code.
//!
//! Every test hand-builds an [`Object`] that trips exactly one lint rule
//! and asserts the report carries that rule's stable code at the expected
//! severity. Together the corpus pins down the complete `RL-*` catalog:
//! structural (`RL-S001..S008`), dataflow (`RL-D001..D005`), sequencer
//! (`RL-Q001..Q008`, `RL-F002`) and the verify passes
//! (`RL-T001..T003` schedule bounds, `RL-H001..H003` reconfiguration
//! hazards, `RL-V001..V003` value ranges).

use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand, Reg};
use systolic_ring_isa::expect::{Expectations, InputVector};
use systolic_ring_isa::object::{Object, Preload};
use systolic_ring_isa::proof::OutRange;
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::{RingGeometry, Word16};
use systolic_ring_lint::{
    lint_object, lint_object_expecting, lint_object_with, LintLimits, Severity,
};

/// A well-formed skeleton: paper-sized ring, one context, `wait; halt`.
fn base() -> Object {
    Object {
        geometry: Some(RingGeometry::RING_8),
        contexts: 1,
        code: vec![
            CtrlInstr::Wait { cycles: 16 }.encode(),
            CtrlInstr::Halt.encode(),
        ],
        data: Vec::new(),
        preload: Vec::new(),
    }
}

fn route(ctx: u16, switch: u16, lane: u16, input: u8, source: PortSource) -> Preload {
    Preload::SwitchPort {
        ctx,
        switch,
        lane,
        input,
        word: source.encode(),
    }
}

fn node(ctx: u16, dnode: u16, instr: MicroInstr) -> Preload {
    Preload::DnodeInstr {
        ctx,
        dnode,
        word: instr.encode(),
    }
}

fn reg(index: u8) -> CReg {
    CReg::new(index).unwrap()
}

/// Asserts the object's report contains `code` at `severity`, and returns
/// how many findings carry that code.
fn expect(object: &Object, code: &str, severity: Severity) -> usize {
    let report = lint_object(object);
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == code)
        .collect();
    assert!(
        !hits.is_empty(),
        "expected {code}, got: {:?}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
    );
    for d in &hits {
        assert_eq!(d.severity, severity, "{code} severity: {d}");
    }
    hits.len()
}

// ---------------------------------------------------------------- structural

#[test]
fn s001_overdeclared_contexts() {
    let mut object = base();
    object.contexts = 9; // default limits provide 8
    expect(&object, "RL-S001", Severity::Error);
}

#[test]
fn s001_record_context_out_of_range() {
    let mut object = base();
    object.contexts = 2;
    object.preload.push(node(3, 0, MicroInstr::NOP));
    expect(&object, "RL-S001", Severity::Error);
}

#[test]
fn s002_dnode_out_of_range() {
    let mut object = base();
    object.preload.push(node(0, 99, MicroInstr::NOP)); // RING_8 has 8 dnodes
    expect(&object, "RL-S002", Severity::Error);
}

#[test]
fn s003_switch_out_of_range() {
    let mut object = base();
    object.preload.push(route(0, 9, 0, 0, PortSource::Zero)); // RING_8 has 4 switches
    expect(&object, "RL-S003", Severity::Error);
}

#[test]
fn s003_pipe_source_switch_out_of_range() {
    let mut object = base();
    object.preload.push(route(
        0,
        1,
        0,
        0,
        PortSource::Pipe {
            switch: 9,
            stage: 0,
            lane: 0,
        },
    ));
    expect(&object, "RL-S003", Severity::Error);
}

#[test]
fn s004_lane_port_and_selector_out_of_range() {
    let mut object = base();
    object.preload.push(route(0, 0, 5, 0, PortSource::Zero)); // lane ≥ width 2
    object.preload.push(route(0, 0, 0, 4, PortSource::Zero)); // input selector ≥ 4
    object
        .preload
        .push(route(0, 0, 0, 0, PortSource::HostIn { port: 7 })); // ≥ 2*width
    object.preload.push(Preload::HostCapture {
        ctx: 0,
        switch: 0,
        port: 0,
        word: HostCapture::lane(5).encode(), // captured lane ≥ width
    });
    assert_eq!(expect(&object, "RL-S004", Severity::Error), 4);
}

#[test]
fn s005_malformed_microinstruction_word() {
    let mut object = base();
    object.preload.push(Preload::DnodeInstr {
        ctx: 0,
        dnode: 0,
        word: u64::MAX, // reserved bits set
    });
    expect(&object, "RL-S005", Severity::Error);
}

#[test]
fn s006_conflicting_rewrite() {
    let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2).write_reg(Reg::R0);
    let mut object = base();
    object
        .preload
        .push(route(0, 0, 0, 0, PortSource::HostIn { port: 0 }));
    object
        .preload
        .push(route(0, 0, 0, 1, PortSource::HostIn { port: 1 }));
    object.preload.push(node(0, 0, MicroInstr::NOP));
    object.preload.push(node(0, 0, mac)); // different word, same key
    expect(&object, "RL-S006", Severity::Warning);
}

#[test]
fn s007_sections_exceed_capacity() {
    let object = Object {
        code: vec![
            CtrlInstr::Nop.encode(),
            CtrlInstr::Nop.encode(),
            CtrlInstr::Halt.encode(),
        ],
        data: vec![0; 5],
        ..base()
    };
    let limits = LintLimits {
        prog_capacity: 2,
        dmem_capacity: 4,
        ..LintLimits::default()
    };
    let report = lint_object_with(&object, &limits);
    let hits = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "RL-S007")
        .count();
    assert_eq!(hits, 2, "one finding per oversized section");
    assert!(!report.is_clean());
}

#[test]
fn s008_no_geometry_with_preload() {
    let mut object = base();
    object.geometry = None;
    object.preload.push(Preload::Mode {
        dnode: 0,
        local: false,
    });
    expect(&object, "RL-S008", Severity::Warning);
}

// ------------------------------------------------------------------ dataflow

#[test]
fn d001_pipe_tap_too_deep() {
    let mut object = base();
    object.preload.push(route(
        0,
        1,
        0,
        0,
        PortSource::Pipe {
            switch: 1,
            stage: 8, // PAPER pipe_depth is 8; legal stages are 0..=7
            lane: 0,
        },
    ));
    expect(&object, "RL-D001", Severity::Error);
}

#[test]
fn d002_capture_of_undriven_lane() {
    let mut object = base();
    // Capture selects lane 0 of switch 1; the producer (dnode 0) carries
    // no microinstruction, so it never drives its layer output.
    object.preload.push(Preload::HostCapture {
        ctx: 0,
        switch: 1,
        port: 0,
        word: HostCapture::lane(0).encode(),
    });
    expect(&object, "RL-D002", Severity::Warning);
}

#[test]
fn d002_port_read_of_undriven_producer() {
    let silent =
        MicroInstr::op(AluOp::Mac, Operand::Reg(Reg::R0), Operand::Reg(Reg::R0)).write_reg(Reg::R0); // accumulates, never drives out
    let sum = MicroInstr::op(AluOp::PassA, Operand::In1, Operand::Zero).write_out();
    let mut object = base();
    object.preload.push(node(0, 0, silent));
    object
        .preload
        .push(route(0, 1, 0, 0, PortSource::PrevOut { lane: 0 }));
    object.preload.push(node(0, 2, sum)); // reads dnode 0's never-driven output
    expect(&object, "RL-D002", Severity::Warning);
}

#[test]
fn d003_read_of_never_written_register() {
    let read = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R1), Operand::Zero).write_out();
    let mut object = base();
    object.preload.push(node(0, 0, read));
    expect(&object, "RL-D003", Severity::Warning);
}

#[test]
fn d004_multiple_bus_drivers() {
    let drive = MicroInstr::op(AluOp::PassA, Operand::Zero, Operand::Zero).write_bus();
    let mut object = base();
    object.preload.push(node(0, 0, drive));
    object.preload.push(node(0, 1, drive));
    expect(&object, "RL-D004", Severity::Warning);
}

#[test]
fn d005_read_of_unrouted_port() {
    let read = MicroInstr::op(AluOp::PassA, Operand::In1, Operand::Zero).write_out();
    let mut object = base();
    object.preload.push(node(0, 0, read)); // in1 of switch 0 lane 0 never routed
    expect(&object, "RL-D005", Severity::Warning);
}

// ----------------------------------------------------------------- sequencer

#[test]
fn q001_local_slot_out_of_range() {
    let mut object = base();
    object.preload.push(Preload::LocalSlot {
        dnode: 0,
        slot: 8, // a dnode has slots 0..=7
        word: MicroInstr::NOP.encode(),
    });
    expect(&object, "RL-Q001", Severity::Error);
}

#[test]
fn q002_sequencer_limit_out_of_range() {
    let mut object = base();
    object
        .preload
        .push(Preload::LocalLimit { dnode: 0, limit: 0 });
    object
        .preload
        .push(Preload::LocalLimit { dnode: 1, limit: 9 });
    assert_eq!(expect(&object, "RL-Q002", Severity::Error), 2);
}

#[test]
fn q003_local_mode_without_program() {
    let mut object = base();
    object.preload.push(Preload::Mode {
        dnode: 0,
        local: true,
    });
    expect(&object, "RL-Q003", Severity::Warning);
}

#[test]
fn q003_limit_replays_unwritten_slots() {
    let mut object = base();
    object.preload.push(Preload::Mode {
        dnode: 0,
        local: true,
    });
    object.preload.push(Preload::LocalSlot {
        dnode: 0,
        slot: 0,
        word: MicroInstr::NOP.encode(),
    });
    object
        .preload
        .push(Preload::LocalLimit { dnode: 0, limit: 3 });
    expect(&object, "RL-Q003", Severity::Warning);
}

#[test]
fn q004_unreachable_context() {
    let mut object = base();
    object.contexts = 2;
    // Context 1 carries configuration, but no reachable `ctx 1` selects it.
    object.preload.push(node(
        1,
        0,
        MicroInstr::op(AluOp::PassA, Operand::Zero, Operand::Zero).write_out(),
    ));
    expect(&object, "RL-Q004", Severity::Warning);
}

#[test]
fn q005_dead_code() {
    let mut object = base();
    object.code = vec![CtrlInstr::Halt.encode(), CtrlInstr::Nop.encode()];
    expect(&object, "RL-Q005", Severity::Warning);
}

#[test]
fn q006_reachable_undecodable_word() {
    let mut object = base();
    object.code = vec![0xffff_ffff];
    expect(&object, "RL-Q006", Severity::Error);
}

#[test]
fn q007_jump_leaves_program() {
    let mut object = base();
    object.code = vec![CtrlInstr::J { target: 9 }.encode()];
    expect(&object, "RL-Q007", Severity::Error);
}

#[test]
fn q007_jump_register_without_link() {
    let mut object = base();
    object.code = vec![
        CtrlInstr::Jr { ra: reg(1) }.encode(),
        CtrlInstr::Halt.encode(),
    ];
    expect(&object, "RL-Q007", Severity::Warning);
}

#[test]
fn q008_statically_faulting_operands() {
    let mut object = base();
    object.code = vec![
        CtrlInstr::Wdn {
            rs: reg(1),
            dnode: 99,
        }
        .encode(), // dnode ≥ 8
        CtrlInstr::Wlim {
            rs: CReg::ZERO,
            dnode: 0,
        }
        .encode(), // limit from r0
        CtrlInstr::Ctx { ctx: 9 }.encode(), // object has 1 context
        CtrlInstr::Sw {
            rs: reg(1),
            ra: CReg::ZERO,
            imm: -1,
        }
        .encode(), // dmem wrap
        CtrlInstr::Halt.encode(),
    ];
    assert_eq!(expect(&object, "RL-Q008", Severity::Error), 4);
}

// ------------------------------------------------------------ host pops (F)

#[test]
fn f002_pop_from_port_no_capture_feeds() {
    let mut object = base();
    object.code = vec![
        CtrlInstr::Hpop {
            rd: reg(1),
            switch: 0, // switch 0, port 0 — in range, but nothing feeds it
        }
        .encode(),
        CtrlInstr::Halt.encode(),
    ];
    expect(&object, "RL-F002", Severity::Warning);
}

// ------------------------------------------------------- verify: schedule (T)

#[test]
fn t001_static_schedule_bound_proven() {
    // `wait 16; halt`: one straight-line path, 17 controller cycles, no
    // configuration events — the proof pins all three manifest facts.
    let object = base();
    expect(&object, "RL-T001", Severity::Info);
    let report = lint_object(&object);
    assert!(report.proof.halts);
    assert_eq!(report.proof.cycle_bound, Some(17));
    assert_eq!(report.proof.config_stable_from, Some(0));
}

#[test]
fn t002_data_dependent_loop_defeats_the_bound() {
    // A loop whose exit condition is a bus read forks the walk on every
    // iteration; the fork budget abandons it and nothing is claimed.
    let mut object = base();
    object.code = vec![
        CtrlInstr::Busr { rd: reg(1) }.encode(),
        CtrlInstr::Beq {
            ra: reg(1),
            rb: CReg::ZERO,
            offset: -2,
        }
        .encode(),
        CtrlInstr::Halt.encode(),
    ];
    expect(&object, "RL-T002", Severity::Info);
    let report = lint_object(&object);
    assert!(!report.proof.halts);
    assert_eq!(report.proof.cycle_bound, None);
    // An abandoned walk claims nothing — hazard freedom included.
    assert!(!report.proof.hazard_free);
    // Info findings never fail a gate, even under --deny-warnings.
    assert!(report.into_result(true).is_ok());
}

#[test]
fn t003_concrete_infinite_loop_proves_divergence() {
    let mut object = base();
    object.code = vec![CtrlInstr::J { target: 0 }.encode()];
    expect(&object, "RL-T003", Severity::Info);
    let report = lint_object(&object);
    assert!(!report.proof.halts);
    // Divergence is advisory (streaming programs are intentional).
    assert!(report.is_clean());
}

// -------------------------------------------------------- verify: hazards (H)

/// A fabric with dnode 0 visibly executing in context 0.
fn busy_fabric() -> Vec<Preload> {
    let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2).write_reg(Reg::R0);
    vec![
        route(0, 0, 0, 0, PortSource::HostIn { port: 0 }),
        route(0, 0, 0, 1, PortSource::HostIn { port: 1 }),
        node(0, 0, mac),
    ]
}

#[test]
fn h001_active_context_rewrite_of_busy_dnode() {
    let mut object = base();
    object.preload = busy_fabric();
    object.code = vec![
        // `wctx` still selects context 0: the write races the running mac.
        CtrlInstr::Wdn {
            rs: CReg::ZERO,
            dnode: 0,
        }
        .encode(),
        CtrlInstr::Wait { cycles: 16 }.encode(),
        CtrlInstr::Halt.encode(),
    ];
    expect(&object, "RL-H001", Severity::Warning);
    let report = lint_object(&object);
    assert!(!report.proof.hazard_free);
    assert!(!report.diagnostics.iter().any(|d| d.code == "RL-H003"));
}

#[test]
fn h002_active_context_reroute_of_busy_consumer() {
    let mut object = base();
    object.preload = busy_fabric();
    object.code = vec![
        // Flat port 0 = switch 0, lane 0, in1 — the route feeding the
        // running mac on dnode 0.
        CtrlInstr::Wsw {
            rs: CReg::ZERO,
            port: 0,
        }
        .encode(),
        CtrlInstr::Wait { cycles: 16 }.encode(),
        CtrlInstr::Halt.encode(),
    ];
    expect(&object, "RL-H002", Severity::Warning);
    assert!(!lint_object(&object).proof.hazard_free);
}

#[test]
fn h003_shadow_context_reconfiguration_is_hazard_free() {
    // The paper's pattern: same busy dnode, same rewrite — but targeted
    // at shadow context 1, so no in-flight data can race it.
    let mut object = base();
    object.contexts = 2;
    object.preload = busy_fabric();
    object.code = vec![
        CtrlInstr::Wctx { ctx: 1 }.encode(),
        CtrlInstr::Wdn {
            rs: CReg::ZERO,
            dnode: 0,
        }
        .encode(),
        CtrlInstr::Wait { cycles: 16 }.encode(),
        CtrlInstr::Halt.encode(),
    ];
    expect(&object, "RL-H003", Severity::Info);
    let report = lint_object(&object);
    assert!(report.proof.hazard_free);
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.code == "RL-H001" || d.code == "RL-H002"));
}

// --------------------------------------------------- verify: value ranges (V)

#[test]
fn v001_constant_datapath_proven_overflow_free() {
    let add = MicroInstr::op(AluOp::Add, Operand::Imm, Operand::One)
        .with_imm(Word16::from_i16(1000))
        .write_out();
    let mut object = base();
    object.preload = vec![node(0, 0, add)];
    expect(&object, "RL-V001", Severity::Info);
    let report = lint_object(&object);
    // The proven hull lands in the manifest: reset zero joined with 1001.
    assert_eq!(
        report.proof.out_ranges,
        vec![OutRange {
            dnode: 0,
            lo: 0,
            hi: 1001
        }]
    );
}

/// The known-overflowing `alpha_blend` variant: layer 0 of the Q8 blend
/// kernel (`mul in1, #ALPHA`) with the shipped pixel range. At the hot
/// coefficient 192 the pre-wrap product reaches `255 * 192 = 48960`, off
/// the 16-bit datapath — the kernel only works because the later logical
/// shift reinterprets the wrapped sum as unsigned, and the verifier
/// cannot bless that.
#[test]
fn v002_alpha_blend_hot_coefficient_may_wrap() {
    let blend_layer0 = |alpha: i16| {
        let mut object = base();
        object.preload = vec![
            route(0, 0, 0, 0, PortSource::HostIn { port: 0 }),
            route(0, 0, 1, 0, PortSource::HostIn { port: 1 }),
            node(
                0,
                0,
                MicroInstr::op(AluOp::Mul, Operand::In1, Operand::Imm)
                    .with_imm(Word16::from_i16(alpha))
                    .write_out(),
            ),
            node(
                0,
                1,
                MicroInstr::op(AluOp::Mul, Operand::In1, Operand::Imm)
                    .with_imm(Word16::from_i16(256 - alpha))
                    .write_out(),
            ),
        ];
        object
    };
    let pixels = Expectations {
        inputs: vec![
            InputVector {
                switch: 0,
                port: 0,
                words: vec![255],
            },
            InputVector {
                switch: 0,
                port: 1,
                words: vec![255],
            },
        ],
        ..Expectations::default()
    };
    let limits = LintLimits::default();

    // ALPHA = 192: `255 * 192` straddles the wrap threshold — flagged,
    // exactly once (the BETA lane's `255 * 64` is provably safe).
    let hot = lint_object_expecting(&blend_layer0(192), &limits, Some(&pixels));
    let flagged: Vec<_> = hot
        .diagnostics
        .iter()
        .filter(|d| d.code == "RL-V002")
        .collect();
    assert_eq!(flagged.len(), 1, "only the ALPHA lane may wrap");
    assert_eq!(flagged[0].severity, Severity::Info);
    assert!(!hot.diagnostics.iter().any(|d| d.code == "RL-V001"));

    // ALPHA = 128 is the one split where both lanes stay under
    // `i16::MAX` (`255 * 128 = 32640`) and the whole datapath is proven.
    let cool = lint_object_expecting(&blend_layer0(128), &limits, Some(&pixels));
    assert!(cool.diagnostics.iter().any(|d| d.code == "RL-V001"));
    assert!(!cool.diagnostics.iter().any(|d| d.code == "RL-V002"));
}

#[test]
fn v003_certain_wrap_is_a_warning() {
    // `imm + imm` with imm = 20000: every evaluation lands at 40000,
    // entirely outside the datapath — the wrap is certain, not possible.
    let add = MicroInstr::op(AluOp::Add, Operand::Imm, Operand::Imm)
        .with_imm(Word16::from_i16(20000))
        .write_out();
    let mut object = base();
    object.preload = vec![node(0, 0, add)];
    expect(&object, "RL-V003", Severity::Warning);
    assert!(lint_object(&object).into_result(true).is_err());
}

// --------------------------------------------------------------- the contract

/// A fully wired object produces a report whose only findings are
/// advisory (`Severity::Info`): the verify pass's positive proofs — a
/// schedule bound (`RL-T001`) and hazard freedom (`RL-H003`). Nothing at
/// `Warning` or above may appear.
#[test]
fn clean_object_has_no_findings() {
    let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2).write_reg(Reg::R0);
    let mut object = base();
    object.preload = vec![
        route(0, 0, 0, 0, PortSource::HostIn { port: 0 }),
        route(0, 0, 0, 1, PortSource::HostIn { port: 1 }),
        node(0, 0, mac),
    ];
    let report = lint_object(&object);
    let unexpected: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity > Severity::Info)
        .map(|d| d.to_string())
        .collect();
    assert!(unexpected.is_empty(), "unexpected findings: {unexpected:?}");
    for advisory in ["RL-T001", "RL-H003"] {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == advisory && d.severity == Severity::Info),
            "expected the advisory {advisory} finding"
        );
    }
    // The positive proofs also land in the manifest the core consumes.
    assert!(report.proof.halts);
    assert!(report.proof.hazard_free);
}

/// The corpus covers the full 31-code catalog, across all seven
/// families, with every code distinct.
#[test]
fn corpus_spans_the_catalog() {
    let catalog = [
        "RL-S001", "RL-S002", "RL-S003", "RL-S004", "RL-S005", "RL-S006", "RL-S007", "RL-S008",
        "RL-D001", "RL-D002", "RL-D003", "RL-D004", "RL-D005", "RL-Q001", "RL-Q002", "RL-Q003",
        "RL-Q004", "RL-Q005", "RL-Q006", "RL-Q007", "RL-Q008", "RL-F002", "RL-T001", "RL-T002",
        "RL-T003", "RL-H001", "RL-H002", "RL-H003", "RL-V001", "RL-V002", "RL-V003",
    ];
    let unique: std::collections::BTreeSet<_> = catalog.iter().collect();
    assert_eq!(unique.len(), catalog.len());
    assert_eq!(catalog.len(), 31, "the catalog is pinned at 31 codes");
    for family in ["RL-S", "RL-D", "RL-Q", "RL-F", "RL-T", "RL-H", "RL-V"] {
        assert!(catalog.iter().any(|c| c.starts_with(family)));
    }
}
