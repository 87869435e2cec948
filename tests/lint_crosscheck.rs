//! Cross-checks between `ringlint`'s static claims and the dynamic
//! engine, over every shipped program and every generated kernel object.
//!
//! The linter's contract is one-sided and these tests hold it to both
//! halves that can be checked dynamically:
//!
//! * a **lint-clean** object must load and run without the
//!   statically-preventable `SimError` classes (`PcOutOfRange`,
//!   `BadInstruction`, `BadConfigWrite`), and
//! * the **verify-pass proofs** must be honored dynamically: a proven
//!   `cycle_bound` dominates (without being vacuously above) the actual
//!   halt cycle, and on randomized controller programs equals it on every
//!   tier; past it the compiled tier engages; proven per-Dnode output
//!   ranges contain every value the Dnode actually produces; the machine
//!   accepts a manifest only for the object it was proven over; and all
//!   of it stays sound under randomized object mutation.

use systolic_ring::asm::assemble_source;
use systolic_ring::core::{MachineParams, RingMachine, SimError};
use systolic_ring::isa::ctrl::{CReg, CtrlInstr};
use systolic_ring::isa::dnode::{AluOp, MicroInstr, Operand};
use systolic_ring::isa::expect::Expectations;
use systolic_ring::isa::object::{Object, Preload};
use systolic_ring::isa::{RingGeometry, Word16};
use systolic_ring::kernels::objects;
use systolic_ring::lint::{lint_object, lint_object_expecting, LintLimits, Severity};

/// Every object the repository ships: assembled `programs/*.sr` and
/// literate `programs/*.sr.md` sources plus the generated kernel objects.
fn corpus() -> Vec<(String, Object)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut corpus = Vec::new();
    for entry in std::fs::read_dir(dir).expect("programs/ exists") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".sr") || name.ends_with(".sr.md") {
            let source = std::fs::read_to_string(&path).expect("readable");
            let (object, _) =
                assemble_source(&name, &source).unwrap_or_else(|e| panic!("{name}: {e}"));
            corpus.push((name, object));
        }
    }
    for (name, object) in objects::all() {
        corpus.push((name.to_owned(), object));
    }
    assert!(corpus.len() >= 8, "expected shipped programs and kernels");
    corpus
}

/// The literate half of the corpus, keeping each program's `;!`
/// expectations: declared input vectors sharpen the verify pass's
/// host-input hulls, and declared budgets are what the static bounds
/// must discharge.
fn literate_corpus() -> Vec<(String, Object, Expectations)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut corpus = Vec::new();
    for entry in std::fs::read_dir(dir).expect("programs/ exists") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".sr") || name.ends_with(".sr.md") {
            let source = std::fs::read_to_string(&path).expect("readable");
            let (object, expectations) =
                assemble_source(&name, &source).unwrap_or_else(|e| panic!("{name}: {e}"));
            corpus.push((name, object, expectations));
        }
    }
    assert!(corpus.len() >= 8, "expected the shipped program corpus");
    corpus
}

/// Attaches a program's declared `;! input` vectors.
fn attach_declared_inputs(m: &mut RingMachine, exp: &Expectations) {
    for input in &exp.inputs {
        m.attach_input(
            input.switch,
            input.port,
            input.words.iter().map(|&v| Word16::from_i16(v)),
        )
        .expect("declared input port");
    }
}

/// Generic host stimulus on the ports every corpus object reads from.
fn stimulate(m: &mut RingMachine) {
    m.attach_input(0, 0, (1..=64).map(Word16::from_i16))
        .expect("stimulus port 0");
    m.attach_input(0, 1, (1..=64).map(Word16::from_i16))
        .expect("stimulus port 1");
}

/// The positive sweep: everything the repository ships lints clean —
/// no errors, no warnings (advisory `Info` findings are permitted).
#[test]
fn shipped_corpus_lints_without_warnings() {
    for (name, object) in corpus() {
        let report = lint_object(&object);
        let offending: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .map(|d| d.to_string())
            .collect();
        assert!(offending.is_empty(), "{name}: {offending:?}");
        assert!(report.is_clean(), "{name}");
    }
}

/// Lint-clean objects never raise the statically-preventable `SimError`
/// classes, whatever else happens at run time.
#[test]
fn clean_objects_never_raise_preventable_faults() {
    for (name, object) in corpus() {
        assert!(lint_object(&object).is_clean(), "{name}");
        let geometry = object.geometry.unwrap_or(RingGeometry::RING_8);
        let mut m = RingMachine::new(geometry, MachineParams::PAPER);
        m.load(&object).unwrap_or_else(|e| panic!("{name}: {e}"));
        stimulate(&mut m);
        if let Err(e) = m.run_until_halt(20_000) {
            assert!(
                !matches!(
                    e,
                    SimError::PcOutOfRange { .. }
                        | SimError::BadInstruction { .. }
                        | SimError::BadConfigWrite { .. }
                ),
                "{name}: lint-clean object raised a preventable fault: {e}"
            );
        }
    }
}

/// A proven halt is a guarantee the compiled tier can use: past the
/// proven `cycle_bound` the controller has halted and the configuration
/// never changes again, so a paper-faithful machine (fused engine enabled)
/// must enter at least one fused burst, and a machine with the aot tier
/// enabled at least one superblock.
#[test]
fn fusible_verdict_is_honored_by_the_fused_engine() {
    let mut proven = 0;
    for (name, object) in corpus() {
        let report = lint_object(&object);
        if !report.proof.halts {
            continue;
        }
        let bound = report
            .proof
            .cycle_bound
            .expect("a halt claim carries its bound");
        proven += 1;
        let geometry = object.geometry.unwrap_or(RingGeometry::RING_8);
        let run = |params: MachineParams| {
            let mut m = RingMachine::new(geometry, params);
            m.load(&object).unwrap_or_else(|e| panic!("{name}: {e}"));
            stimulate(&mut m);
            // Run well past the proven halt: enough for a committing
            // `ctx` select plus a minimum burst.
            m.run(bound + 256).unwrap_or_else(|e| panic!("{name}: {e}"));
            m.stats().clone()
        };
        let fused = run(MachineParams::PAPER);
        assert!(
            fused.fused_entries > 0,
            "{name}: proven to halt by cycle {bound}, but the fused engine \
             never engaged (stats: {fused:?})"
        );
        let aot = run(MachineParams::PAPER.with_aot(true));
        assert!(
            aot.aot_entries > 0,
            "{name}: proven to halt by cycle {bound}, but the aot tier \
             never entered a superblock (stats: {aot:?})"
        );
    }
    assert!(proven >= 5, "expected most of the corpus to prove a halt");
}

/// The compiled tier never changes an outcome: fused runs and decoded
/// runs stay cycle- and statistics-identical on the corpus.
#[test]
fn fused_and_decoded_runs_agree_on_the_corpus() {
    for (name, object) in corpus() {
        let geometry = object.geometry.unwrap_or(RingGeometry::RING_8);
        let run = |fused: bool| {
            let params = MachineParams::PAPER.with_fused(fused);
            let mut m = RingMachine::new(geometry, params);
            m.load(&object).unwrap_or_else(|e| panic!("{name}: {e}"));
            stimulate(&mut m);
            m.run(2_000).unwrap_or_else(|e| panic!("{name}: {e}"));
            (m.cycle(), m.stats().without_cache_counters())
        };
        let (fc, fs) = run(true);
        let (dc, ds) = run(false);
        assert_eq!(fc, dc, "{name}: cycle counts diverged");
        assert_eq!(fs, ds, "{name}: architectural stats diverged");
    }
}

/// A proven `cycle_bound` is a two-sided promise on the shipped corpus:
/// the real machine halts by it (soundness), and not more than 4x before
/// it (usefulness) — and every declared `;! cycles` budget is discharged
/// by the static bound alone.
#[test]
fn proven_cycle_bounds_dominate_dynamic_halts() {
    let mut proven = 0;
    for (name, object, exp) in literate_corpus() {
        let report = lint_object_expecting(&object, &LintLimits::default(), Some(&exp));
        let Some(bound) = report.proof.cycle_bound else {
            assert!(
                exp.cycle_budget.is_none(),
                "{name}: `;! cycles` budget declared but not statically discharged"
            );
            continue;
        };
        assert!(report.proof.halts, "{name}: bound without a halt claim");
        if let Some(budget) = exp.cycle_budget {
            assert!(
                bound <= budget,
                "{name}: proven bound {bound} does not discharge budget {budget}"
            );
        }
        proven += 1;
        let geometry = object.geometry.unwrap_or(RingGeometry::RING_8);
        let mut m = RingMachine::new(geometry, MachineParams::PAPER);
        m.load(&object).unwrap_or_else(|e| panic!("{name}: {e}"));
        attach_declared_inputs(&mut m, &exp);
        m.run_until_halt(4 * bound + 64)
            .unwrap_or_else(|e| panic!("{name}: proof claims halt by cycle {bound}: {e}"));
        assert!(
            m.cycle() <= bound,
            "{name}: halted at cycle {}, past the proven bound {bound}",
            m.cycle()
        );
        assert!(
            bound <= 4 * m.cycle().max(1),
            "{name}: proven bound {bound} is vacuous against halt cycle {}",
            m.cycle()
        );
    }
    assert!(
        proven >= 6,
        "expected most of the corpus to prove a schedule bound"
    );
}

/// Proven per-Dnode output ranges contain every value the Dnode's output
/// register actually takes, at every cycle of a run under the declared
/// inputs.
#[test]
fn proven_out_ranges_cover_every_dynamic_output() {
    let mut checked = 0;
    for (name, object, exp) in literate_corpus() {
        let report = lint_object_expecting(&object, &LintLimits::default(), Some(&exp));
        if report.proof.out_ranges.is_empty() {
            continue;
        }
        checked += 1;
        let geometry = object.geometry.unwrap_or(RingGeometry::RING_8);
        let mut m = RingMachine::new(geometry, MachineParams::PAPER);
        m.load(&object).unwrap_or_else(|e| panic!("{name}: {e}"));
        attach_declared_inputs(&mut m, &exp);
        for _ in 0..2_000u32 {
            if m.controller().is_halted() {
                break;
            }
            m.step().unwrap_or_else(|e| panic!("{name}: {e}"));
            for range in &report.proof.out_ranges {
                let v = m.dnode(range.dnode as usize).out().as_i16();
                assert!(
                    range.lo <= v && v <= range.hi,
                    "{name}: dnode {} output {v} escapes the proven range \
                     [{}, {}] at cycle {}",
                    range.dnode,
                    range.lo,
                    range.hi,
                    m.cycle()
                );
            }
        }
    }
    assert!(
        checked >= 6,
        "expected most of the corpus to prove output ranges"
    );
}

/// `attach_proof` is a validator: it accepts the lint's own manifest for
/// every shipped program, refuses it once a different object has loaded,
/// and changes no statistics field either way.
#[test]
fn attach_proof_accepts_only_the_loaded_objects_manifest() {
    for (name, object) in corpus() {
        let report = lint_object(&object);
        let geometry = object.geometry.unwrap_or(RingGeometry::RING_8);
        let mut m = RingMachine::new(geometry, MachineParams::PAPER);
        m.load(&object).unwrap_or_else(|e| panic!("{name}: {e}"));
        let stats = m.stats().clone();
        assert!(
            m.attach_proof(&report.proof),
            "{name}: corpus manifest rejected by the machine"
        );
        let mut other = object.clone();
        other.code.push(CtrlInstr::Halt.encode());
        m.load(&other).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            !m.attach_proof(&report.proof),
            "{name}: manifest accepted for a different object"
        );
        assert_eq!(*m.stats(), stats, "{name}: attach_proof changed Stats");
    }
}

/// Deterministic linear-congruential generator for the mutation sweep.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A value in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The static claims stay sound off the happy path: randomized bit-flips
/// over controller code and data produce objects the linter has never
/// seen, and every mutant it still calls clean (and every bound it still
/// proves) must hold up dynamically.
#[test]
fn randomized_mutants_keep_the_static_claims_sound() {
    const MUTANTS_PER_OBJECT: usize = 4;
    const RUN_CAP: u64 = 5_000;
    let mut lcg = Lcg(0x9e37_79b9_7f4a_7c15);
    let mut exercised = 0;
    for (name, object) in corpus() {
        if object.code.is_empty() {
            continue;
        }
        for _ in 0..MUTANTS_PER_OBJECT {
            let mut mutant = object.clone();
            // Flip one bit in a code word and, when present, one in a
            // data word: enough to derail decode, control flow or the
            // walker's arithmetic, while leaving most mutants loadable.
            let idx = lcg.next() as usize % mutant.code.len();
            mutant.code[idx] ^= 1 << (lcg.next() % 32);
            if !mutant.data.is_empty() {
                let idx = lcg.next() as usize % mutant.data.len();
                mutant.data[idx] ^= 1 << (lcg.next() % 32);
            }
            let report = lint_object(&mutant);
            if !report.is_clean() {
                continue;
            }
            exercised += 1;
            let geometry = mutant.geometry.unwrap_or(RingGeometry::RING_8);
            let mut m = RingMachine::new(geometry, MachineParams::PAPER);
            m.load(&mutant)
                .unwrap_or_else(|e| panic!("{name}: lint-clean mutant failed to load: {e}"));
            stimulate(&mut m);
            if let Err(e) = m.run_until_halt(RUN_CAP) {
                assert!(
                    !matches!(
                        e,
                        SimError::PcOutOfRange { .. }
                            | SimError::BadInstruction { .. }
                            | SimError::BadConfigWrite { .. }
                    ),
                    "{name}: lint-clean mutant raised a preventable fault: {e}"
                );
            }
            if let Some(bound) = report.proof.cycle_bound {
                if bound <= RUN_CAP {
                    assert!(
                        m.controller().is_halted() && m.cycle() <= bound,
                        "{name}: mutant proven to halt by cycle {bound} but reached \
                         cycle {} (halted: {})",
                        m.cycle(),
                        m.controller().is_halted()
                    );
                }
            }
        }
    }
    assert!(
        exercised >= 5,
        "mutation sweep exercised only {exercised} lint-clean mutants"
    );
}

/// Loop counter of [`random_program`]'s counted loops; the loop bodies
/// never write it.
const COUNTER: u8 = 13;

/// One random straight-line instruction for [`random_program`]: no
/// control transfer, no host or bus traffic, no configuration write.
fn random_straight(lcg: &mut Lcg) -> CtrlInstr {
    use CtrlInstr::*;
    let reg = |i: u64| CReg::new(i as u8).unwrap();
    let (rd, ra, rb) = (
        reg(1 + lcg.below(12)),
        reg(lcg.below(14)),
        reg(lcg.below(14)),
    );
    let imm = lcg.next() as u16;
    let small = lcg.below(24) as i16;
    // Data addresses stay in range unless a base register holds a large
    // value, which the walk then refuses to bound.
    let base = if lcg.below(4) == 0 { ra } else { CReg::ZERO };
    match lcg.below(28) {
        0 => Add { rd, ra, rb },
        1 => Sub { rd, ra, rb },
        2 => And { rd, ra, rb },
        3 => Or { rd, ra, rb },
        4 => Xor { rd, ra, rb },
        5 => Sll { rd, ra, rb },
        6 => Srl { rd, ra, rb },
        7 => Sra { rd, ra, rb },
        8 => Slt { rd, ra, rb },
        9 => Sltu { rd, ra, rb },
        10 => Mul { rd, ra, rb },
        11 => Addi {
            rd,
            ra,
            imm: imm as i16,
        },
        12 => Andi { rd, ra, imm },
        13 => Ori { rd, ra, imm },
        14 => Xori { rd, ra, imm },
        15 => Slti {
            rd,
            ra,
            imm: imm as i16,
        },
        16 => Lui { rd, imm },
        17 | 18 => Lw {
            rd,
            ra: base,
            imm: small,
        },
        19 | 20 => Sw {
            rs: ra,
            ra: base,
            imm: small,
        },
        21..=23 => Wait {
            cycles: lcg.below(40) as u16,
        },
        24 | 25 => Ctx {
            ctx: lcg.below(4) as u16,
        },
        26 => Wctx {
            ctx: lcg.below(4) as u16,
        },
        _ => Cimm { imm },
    }
}

/// A block of straight-line code in which some instructions are forward
/// branches that land inside the block or just past it.
fn random_block(lcg: &mut Lcg, len: usize) -> Vec<CtrlInstr> {
    (0..len)
        .map(|i| {
            if lcg.below(5) != 0 {
                return random_straight(lcg);
            }
            let reg = |i: u64| CReg::new(i as u8).unwrap();
            let (ra, rb) = (reg(lcg.below(14)), reg(lcg.below(14)));
            let offset = lcg.below((len - i) as u64) as i16;
            match lcg.below(4) {
                0 => CtrlInstr::Beq { ra, rb, offset },
                1 => CtrlInstr::Bne { ra, rb, offset },
                2 => CtrlInstr::Blt { ra, rb, offset },
                _ => CtrlInstr::Bge { ra, rb, offset },
            }
        })
        .collect()
}

/// A random controller program of the shape the schedule walk evaluates
/// exactly: straight-line blocks and counted loops of ALU ops,
/// `lw`/`sw`, forward branches, `wait`, `ctx`/`wctx`/`cimm`, ending in
/// `halt`, over a four-context object whose contexts configure
/// different Dnodes. No `busr` or `hpop`, so every value is known.
fn random_program(lcg: &mut Lcg) -> Object {
    let counter = CReg::new(COUNTER).unwrap();
    let mut code = Vec::new();
    for _ in 0..1 + lcg.below(5) {
        let len = 1 + lcg.below(8) as usize;
        if lcg.below(3) == 0 {
            code.push(CtrlInstr::Addi {
                rd: counter,
                ra: CReg::ZERO,
                imm: 1 + lcg.below(4) as i16,
            });
            let start = code.len();
            code.extend(random_block(lcg, len));
            code.push(CtrlInstr::Addi {
                rd: counter,
                ra: counter,
                imm: -1,
            });
            code.push(CtrlInstr::Bne {
                ra: counter,
                rb: CReg::ZERO,
                offset: start as i16 - code.len() as i16 - 1,
            });
        } else {
            code.extend(random_block(lcg, len));
        }
    }
    code.push(CtrlInstr::Halt);
    let preload = (0..4u16)
        .map(|ctx| Preload::DnodeInstr {
            ctx,
            dnode: ctx,
            word: MicroInstr::op(AluOp::Add, Operand::Imm, Operand::Imm)
                .with_imm(Word16::from_i16(ctx as i16 + 1))
                .write_out()
                .encode(),
        })
        .collect();
    Object {
        geometry: Some(RingGeometry::RING_8),
        contexts: 4,
        code: code.iter().map(CtrlInstr::encode).collect(),
        data: (0..8).map(|_| lcg.next() as u32).collect(),
        preload,
    }
}

/// The walk is exact on programs without unknown values: whenever it
/// proves a halt, `cycle_bound` is the cycle count `run_until_halt`
/// reports on the slow, decoded and compiled tiers alike, and no context
/// switch commits at or after `config_stable_from`.
#[test]
fn proven_halts_are_exact_on_random_controller_programs() {
    const PROGRAMS: usize = 2_000;
    let tiers = [
        ("slow", MachineParams::PAPER.with_decode_cache(false)),
        ("decoded", MachineParams::PAPER.with_fused(false)),
        ("compiled", MachineParams::PAPER),
    ];
    let mut lcg = Lcg(0x5eed_c0de_2002);
    let (mut proven, mut compiled, mut cycles) = (0, 0, 0);
    for program in 0..PROGRAMS {
        let object = random_program(&mut lcg);
        let proof = lint_object(&object).proof;
        if !proof.halts {
            continue;
        }
        proven += 1;
        let bound = proof.cycle_bound.expect("a halt claim carries its bound");
        let stable_from = proof.config_stable_from.expect("and its stable cycle");
        for (tier, params) in tiers {
            let mut m = RingMachine::new(RingGeometry::RING_8, params);
            m.load(&object).expect("random programs load");
            // Stop at the stable cycle (or the halt, if that comes first)
            // to count the context switches committed before it.
            let first = stable_from.min(bound);
            m.run(first)
                .unwrap_or_else(|e| panic!("program {program} on {tier}: {e}"));
            let switches = m.stats().ctx_switches;
            let rest = m
                .run_until_halt(4 * bound + 64)
                .unwrap_or_else(|e| panic!("program {program} on {tier}: {e}"));
            assert_eq!(
                first + rest,
                bound,
                "program {program} on {tier}: the walk bounds the halt at cycle {bound}"
            );
            let settled = if stable_from > bound {
                m.run(stable_from - bound).expect("a halted machine runs");
                m.stats().ctx_switches
            } else {
                switches
            };
            m.run(8).expect("a halted machine runs");
            if tier == "compiled" {
                compiled += m.stats().fused_cycles;
                cycles += m.cycle();
            }
            assert_eq!(
                m.stats().ctx_switches,
                settled,
                "program {program} on {tier}: a context switch committed at or after \
                 the stable cycle {stable_from}"
            );
        }
    }
    assert!(
        proven * 10 >= PROGRAMS * 9,
        "the walk proved only {proven} of {PROGRAMS} halts"
    );
    // The controller steps inside compiled bursts, so the compiled tier
    // must really have run most of these cycles.
    assert!(
        2 * compiled >= cycles,
        "only {compiled} of {cycles} cycles ran compiled"
    );
}
