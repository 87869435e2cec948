//! Fusibility pass (`RL-Fxxx`): a concrete abstract interpretation of the
//! controller program that tries to *prove* the fabric configuration
//! settles.
//!
//! The claim is deliberately one-sided. If the tracer reaches `halt` with
//! every branch decided by known register values, the controller provably
//! retires its last instruction by a computable cycle; after that nothing
//! can touch the configuration layer and the controller is halted, so the
//! core's compiled tier *must* compile the halted window on a guard miss
//! and record a burst, on the default and the `aot` tier alike
//! ([`Fusibility::Fusible`]). The moment anything data-dependent leaks
//! into control flow — a host pop, a bus read feeding a branch, an
//! unresolvable indirect jump — the tracer gives up and claims nothing
//! ([`Fusibility::Unknown`]). It never claims a program will *not* fuse.

use std::collections::HashMap;

use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
use systolic_ring_isa::object::Object;

use crate::diag::{Diagnostic, Fusibility, Severity, Site};
use crate::model::{emit, ConfigModel};
use crate::sequencer::CodeFacts;
use crate::LintLimits;

/// Retired-instruction budget before the tracer gives up on a proof.
const STEP_BUDGET: u64 = 200_000;

/// Slack added to the proven halt cycle: a `ctx` select committed on the
/// final cycles becomes active one cycle later.
const SETTLE_SLACK: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Val {
    Known(u32),
    Unknown,
}

impl Val {
    fn map2(self, other: Val, f: impl FnOnce(u32, u32) -> u32) -> Val {
        match (self, other) {
            (Val::Known(a), Val::Known(b)) => Val::Known(f(a, b)),
            _ => Val::Unknown,
        }
    }
}

struct Tracer<'a> {
    code: &'a [u32],
    regs: [Val; 16],
    dmem: HashMap<u32, Val>,
    data: &'a [u32],
    dmem_capacity: usize,
    pc: u32,
    cycles: u64,
    steps: u64,
}

enum Outcome {
    Halted { cycles: u64 },
    Abandoned { reason: String },
}

impl<'a> Tracer<'a> {
    fn read(&self, r: CReg) -> Val {
        if r == CReg::ZERO {
            Val::Known(0)
        } else {
            self.regs[r.index()]
        }
    }

    fn write(&mut self, r: CReg, v: Val) {
        if r != CReg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    fn load(&self, addr: u32) -> Val {
        if let Some(v) = self.dmem.get(&addr) {
            return *v;
        }
        match self.data.get(addr as usize) {
            Some(&w) => Val::Known(w),
            None if (addr as usize) < self.dmem_capacity => Val::Known(0),
            None => Val::Unknown,
        }
    }

    fn run(&mut self) -> Outcome {
        loop {
            self.steps += 1;
            if self.steps > STEP_BUDGET {
                return Outcome::Abandoned {
                    reason: format!("no halt within {STEP_BUDGET} traced instructions"),
                };
            }
            let Some(&word) = self.code.get(self.pc as usize) else {
                return Outcome::Abandoned {
                    reason: format!("pc {} leaves the program", self.pc),
                };
            };
            let Ok(instr) = CtrlInstr::decode(word) else {
                return Outcome::Abandoned {
                    reason: format!("undecodable word at {}", self.pc),
                };
            };
            self.cycles += 1;
            let fall = self.pc.wrapping_add(1);
            self.pc = fall;
            match instr {
                CtrlInstr::Halt => {
                    return Outcome::Halted {
                        cycles: self.cycles,
                    }
                }
                CtrlInstr::Nop
                | CtrlInstr::Cimm { .. }
                | CtrlInstr::Wctx { .. }
                | CtrlInstr::Wdn { .. }
                | CtrlInstr::Wsw { .. }
                | CtrlInstr::Who { .. }
                | CtrlInstr::Wmode { .. }
                | CtrlInstr::Wloc { .. }
                | CtrlInstr::Wlim { .. }
                | CtrlInstr::Ctx { .. }
                | CtrlInstr::Busw { .. }
                | CtrlInstr::Hpush { .. } => {}
                CtrlInstr::Wait { cycles } => {
                    // A wait occupies `cycles` cycles in total (the retire
                    // cycle plus the stalled ones).
                    self.cycles += u64::from(cycles).saturating_sub(1);
                }
                CtrlInstr::Busr { rd } => self.write(rd, Val::Unknown),
                CtrlInstr::Hpop { .. } => {
                    return Outcome::Abandoned {
                        reason: "pops host data (stall duration and value unknowable)".to_owned(),
                    }
                }
                CtrlInstr::Add { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), u32::wrapping_add);
                    self.write(rd, v);
                }
                CtrlInstr::Sub { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), u32::wrapping_sub);
                    self.write(rd, v);
                }
                CtrlInstr::And { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), |a, b| a & b);
                    self.write(rd, v);
                }
                CtrlInstr::Or { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), |a, b| a | b);
                    self.write(rd, v);
                }
                CtrlInstr::Xor { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), |a, b| a ^ b);
                    self.write(rd, v);
                }
                CtrlInstr::Sll { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), |a, b| a << (b & 31));
                    self.write(rd, v);
                }
                CtrlInstr::Srl { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), |a, b| a >> (b & 31));
                    self.write(rd, v);
                }
                CtrlInstr::Sra { rd, ra, rb } => {
                    let v = self
                        .read(ra)
                        .map2(self.read(rb), |a, b| ((a as i32) >> (b & 31)) as u32);
                    self.write(rd, v);
                }
                CtrlInstr::Slt { rd, ra, rb } => {
                    let v = self
                        .read(ra)
                        .map2(self.read(rb), |a, b| ((a as i32) < (b as i32)) as u32);
                    self.write(rd, v);
                }
                CtrlInstr::Sltu { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), |a, b| (a < b) as u32);
                    self.write(rd, v);
                }
                CtrlInstr::Mul { rd, ra, rb } => {
                    let v = self.read(ra).map2(self.read(rb), u32::wrapping_mul);
                    self.write(rd, v);
                }
                CtrlInstr::Addi { rd, ra, imm } => {
                    let v = self
                        .read(ra)
                        .map2(Val::Known(imm as i32 as u32), u32::wrapping_add);
                    self.write(rd, v);
                }
                CtrlInstr::Andi { rd, ra, imm } => {
                    let v = self.read(ra).map2(Val::Known(imm.into()), |a, b| a & b);
                    self.write(rd, v);
                }
                CtrlInstr::Ori { rd, ra, imm } => {
                    let v = self.read(ra).map2(Val::Known(imm.into()), |a, b| a | b);
                    self.write(rd, v);
                }
                CtrlInstr::Xori { rd, ra, imm } => {
                    let v = self.read(ra).map2(Val::Known(imm.into()), |a, b| a ^ b);
                    self.write(rd, v);
                }
                CtrlInstr::Slti { rd, ra, imm } => {
                    let v = self.read(ra).map2(Val::Known(imm as i32 as u32), |a, b| {
                        ((a as i32) < (b as i32)) as u32
                    });
                    self.write(rd, v);
                }
                CtrlInstr::Lui { rd, imm } => self.write(rd, Val::Known(u32::from(imm) << 16)),
                CtrlInstr::Lw { rd, ra, imm } => match self.read(ra) {
                    Val::Known(base) => {
                        let addr = base.wrapping_add(imm as i32 as u32);
                        if addr as usize >= self.dmem_capacity {
                            return Outcome::Abandoned {
                                reason: format!("load from out-of-range address {addr}"),
                            };
                        }
                        let v = self.load(addr);
                        self.write(rd, v);
                    }
                    Val::Unknown => self.write(rd, Val::Unknown),
                },
                CtrlInstr::Sw { rs, ra, imm } => match self.read(ra) {
                    Val::Known(base) => {
                        let addr = base.wrapping_add(imm as i32 as u32);
                        if addr as usize >= self.dmem_capacity {
                            return Outcome::Abandoned {
                                reason: format!("store to out-of-range address {addr}"),
                            };
                        }
                        let v = self.read(rs);
                        self.dmem.insert(addr, v);
                    }
                    Val::Unknown => {
                        return Outcome::Abandoned {
                            reason: "store to an unknown address (poisons data memory)".to_owned(),
                        }
                    }
                },
                CtrlInstr::Beq { ra, rb, offset } => match (self.read(ra), self.read(rb)) {
                    (Val::Known(a), Val::Known(b)) => {
                        if a == b {
                            self.pc = fall.wrapping_add(offset as i32 as u32);
                        }
                    }
                    _ => return branch_bail(self.pc.wrapping_sub(1)),
                },
                CtrlInstr::Bne { ra, rb, offset } => match (self.read(ra), self.read(rb)) {
                    (Val::Known(a), Val::Known(b)) => {
                        if a != b {
                            self.pc = fall.wrapping_add(offset as i32 as u32);
                        }
                    }
                    _ => return branch_bail(self.pc.wrapping_sub(1)),
                },
                CtrlInstr::Blt { ra, rb, offset } => match (self.read(ra), self.read(rb)) {
                    (Val::Known(a), Val::Known(b)) => {
                        if (a as i32) < (b as i32) {
                            self.pc = fall.wrapping_add(offset as i32 as u32);
                        }
                    }
                    _ => return branch_bail(self.pc.wrapping_sub(1)),
                },
                CtrlInstr::Bge { ra, rb, offset } => match (self.read(ra), self.read(rb)) {
                    (Val::Known(a), Val::Known(b)) => {
                        if (a as i32) >= (b as i32) {
                            self.pc = fall.wrapping_add(offset as i32 as u32);
                        }
                    }
                    _ => return branch_bail(self.pc.wrapping_sub(1)),
                },
                CtrlInstr::J { target } => self.pc = u32::from(target),
                CtrlInstr::Jal { target } => {
                    self.write(CReg::LINK, Val::Known(fall));
                    self.pc = u32::from(target);
                }
                CtrlInstr::Jr { ra } => match self.read(ra) {
                    Val::Known(target) => self.pc = target,
                    Val::Unknown => {
                        return Outcome::Abandoned {
                            reason: "indirect jump through an unknown register".to_owned(),
                        }
                    }
                },
            }
        }
    }
}

fn branch_bail(addr: u32) -> Outcome {
    Outcome::Abandoned {
        reason: format!("branch at {addr} depends on data the tracer cannot know"),
    }
}

/// Classifies `object`; see the module docs for the one-sided claim.
pub(crate) fn classify(
    object: &Object,
    limits: &LintLimits,
    facts: &CodeFacts,
    model: &ConfigModel,
    diags: &mut Vec<Diagnostic>,
) -> Fusibility {
    // RL-F002: a reachable host pop from a port no capture selector ever
    // feeds (and no reachable `who` could arm at run time) stalls forever.
    let runtime_captures = facts
        .instrs()
        .any(|(_, i)| matches!(i, CtrlInstr::Who { .. }));
    if !runtime_captures {
        for (addr, instr) in facts.instrs() {
            if let CtrlInstr::Hpop { switch, .. } = instr {
                let (s, p) = ((switch >> 8) as usize, (switch & 0xff) as usize);
                let fed = model
                    .captures
                    .iter()
                    .any(|(&(_, cs, cp), cap)| cs == s && cp == p && cap.selected().is_some());
                if !fed {
                    emit(
                        diags,
                        "RL-F002",
                        Severity::Warning,
                        Site::Code { addr },
                        format!(
                            "pops host-output port {p} of switch {s}, but no capture selector \
                             ever feeds it (the controller stalls forever)"
                        ),
                        "add a `capture` for the port or pop a captured one",
                    );
                }
            }
        }
    }

    let fusibility = if object.code.is_empty() {
        // An empty program leaves the controller halted from reset; the
        // preloaded configuration is the steady state.
        Fusibility::Fusible { settle_cycles: 0 }
    } else {
        let mut tracer = Tracer {
            code: &object.code,
            regs: [Val::Known(0); 16],
            dmem: HashMap::new(),
            data: &object.data,
            dmem_capacity: limits.dmem_capacity,
            pc: 0,
            cycles: 0,
            steps: 0,
        };
        match tracer.run() {
            Outcome::Halted { cycles } => Fusibility::Fusible {
                settle_cycles: cycles + SETTLE_SLACK,
            },
            Outcome::Abandoned { reason } => Fusibility::Unknown { reason },
        }
    };
    if let Fusibility::Unknown { reason } = &fusibility {
        emit(
            diags,
            "RL-F001",
            Severity::Info,
            Site::Object,
            format!("no provable steady-state window: {reason}"),
            "the program may still fuse dynamically; the linter just cannot promise it",
        );
    }
    fusibility
}
