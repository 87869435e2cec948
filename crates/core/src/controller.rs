//! The RISC configuration controller.
//!
//! A single-issue, one-instruction-per-cycle core running the dedicated ISA
//! of [`systolic_ring_isa::ctrl`]. It owns its program and data memories
//! (the paper's controller "has its own program memory"), a 16-bit
//! configuration-immediate register `CIR`, and a write-target context
//! register `WCTX`. Its arithmetic, branches and data addresses are the
//! ISA's own executable definition, `CtrlInstr::exec`, which ringlint's
//! schedule walk evaluates over unknown values too.
//!
//! The controller never touches fabric state directly: each cycle it emits
//! at most one [`CtrlEffect`] that the machine validates and commits at the
//! end of the cycle, preserving the global two-phase clock discipline.
//!
//! Memories are sized by use. The program is decoded once, at
//! [`Controller::load_program`], into one entry per word; an undecodable
//! word stays in the table as its decode error and faults only when it is
//! fetched. Data memory starts empty and grows on store up to its
//! capacity; every address below the capacity reads zero until written.
//!
//! The compiled tier (`crate::fused`) steps this same controller inside
//! its bursts, but only across *burst-safe* instructions
//! (`Controller::burst_safe`): those that cannot fault and touch neither
//! the configuration nor a host FIFO.

use systolic_ring_isa::ctrl::{
    micro_word, split_port, split_slot, CReg, CtrlInstr, DecodeCtrlError, Exec,
};
use systolic_ring_isa::Word16;

use crate::error::ConfigError;

/// Execution state of the controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CtrlState {
    /// Executing one instruction per cycle.
    #[default]
    Running,
    /// Stalled by `wait`; the ring keeps running.
    Waiting(u16),
    /// Stopped by `halt`.
    Halted,
}

/// A fabric-visible side effect emitted by one controller instruction,
/// applied by the machine at end-of-cycle commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlEffect {
    /// Write a Dnode microinstruction word into the `WCTX` context.
    WriteDnode {
        /// Target context (the controller's `WCTX` at issue).
        ctx: usize,
        /// Flat Dnode index.
        dnode: usize,
        /// Encoded microinstruction.
        word: u64,
    },
    /// Write a crossbar port (flat index) into the `WCTX` context.
    WritePort {
        /// Target context.
        ctx: usize,
        /// Flat port index.
        flat: usize,
        /// Encoded port source.
        word: u32,
    },
    /// Write a host-capture selector into the `WCTX` context.
    WriteCapture {
        /// Target context.
        ctx: usize,
        /// Switch index.
        switch: usize,
        /// Host-output port.
        port: usize,
        /// Encoded capture selector.
        word: u32,
    },
    /// Set a Dnode's execution mode.
    WriteMode {
        /// Flat Dnode index.
        dnode: usize,
        /// `true` for local mode.
        local: bool,
    },
    /// Write a local-sequencer slot.
    WriteLocalSlot {
        /// Flat Dnode index.
        dnode: usize,
        /// Slot (0..8).
        slot: usize,
        /// Encoded microinstruction.
        word: u64,
    },
    /// Set a local-sequencer limit.
    WriteLocalLimit {
        /// Flat Dnode index.
        dnode: usize,
        /// New limit (validated as 1..=8 at commit).
        limit: u32,
    },
    /// Switch the active context at commit.
    SetActiveCtx(usize),
    /// Drive the shared bus for the next cycle.
    DriveBus(Word16),
    /// Push a word into a switch host-input FIFO.
    HostPush {
        /// Switch index.
        switch: usize,
        /// Host-input port.
        port: usize,
        /// Pushed word.
        word: Word16,
    },
}

/// A controller fault (maps to [`crate::SimError`] with the faulting cycle).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlFault {
    /// Fetch outside program memory.
    PcOutOfRange {
        /// Faulting pc.
        pc: u32,
    },
    /// Fetched word failed to decode.
    BadInstruction {
        /// Faulting pc.
        pc: u32,
        /// Decode failure.
        cause: DecodeCtrlError,
    },
    /// Data access outside data memory.
    DmemOutOfRange {
        /// Faulting word address.
        addr: u32,
    },
    /// `hpop` named a switch the machine does not have.
    BadPort(ConfigError),
}

/// Environment the controller observes during its step: the shared bus and
/// the host-output FIFOs (for `hpop`).
pub trait CtrlPorts {
    /// Pre-cycle value of the shared bus.
    fn bus(&self) -> Word16;

    /// Pops the head of the host-output FIFO at (`switch`, `port`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range indices.
    fn hpop(&mut self, switch: usize, port: usize) -> Result<Option<Word16>, ConfigError>;
}

/// Result of one controller cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtrlStep {
    /// The effect to commit at end of cycle: every instruction emits at
    /// most one.
    pub effect: Option<CtrlEffect>,
    /// `true` if an instruction retired (false on stall/halt cycles).
    pub retired: bool,
}

/// Per-pc reach of a program that cannot be bounded statically (a
/// control transfer lies ahead).
const UNBOUNDED: u32 = u32::MAX;

/// The configuration controller core.
///
/// Equality compares architectural content: registers, pc, `CIR`, `WCTX`,
/// state, the loaded program, both capacities and data-memory *contents*
/// (a never-written word equals a stored zero, however far the memory has
/// grown).
#[derive(Clone, Debug)]
pub struct Controller {
    regs: [u32; 16],
    pc: u32,
    cir: u16,
    wctx: u16,
    /// The loaded program, decoded once at load: one entry per word.
    program: Vec<Result<CtrlInstr, DecodeCtrlError>>,
    /// Per pc: how many cycles the controller provably runs from there
    /// before it reaches an instruction that is never burst-safe or
    /// retires `halt`, following straight-line code ([`UNBOUNDED`] when a
    /// control transfer comes first). Derived from `program`.
    reach: Vec<u32>,
    prog_capacity: usize,
    /// Data memory written so far; addresses past its end (and below
    /// `dmem_capacity`) read zero.
    dmem: Vec<u32>,
    dmem_capacity: usize,
    state: CtrlState,
}

impl PartialEq for Controller {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.dmem.len() <= other.dmem.len() {
            (&self.dmem, &other.dmem)
        } else {
            (&other.dmem, &self.dmem)
        };
        self.regs == other.regs
            && self.pc == other.pc
            && self.cir == other.cir
            && self.wctx == other.wctx
            && self.program == other.program
            && self.prog_capacity == other.prog_capacity
            && self.dmem_capacity == other.dmem_capacity
            && self.state == other.state
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for Controller {}

/// `true` for the instructions that are never burst-safe: configuration
/// writes and host FIFO traffic.
fn touches_fabric(instr: &CtrlInstr) -> bool {
    use CtrlInstr::*;
    matches!(
        instr,
        Wdn { .. }
            | Wsw { .. }
            | Who { .. }
            | Wmode { .. }
            | Wloc { .. }
            | Wlim { .. }
            | Hpush { .. }
            | Hpop { .. }
    )
}

/// Computes [`Controller::reach`] for a decoded program, backwards from
/// its end (a fetch past the end faults, so it reaches nothing).
fn program_reach(program: &[Result<CtrlInstr, DecodeCtrlError>]) -> Vec<u32> {
    use CtrlInstr::*;
    let mut reach = vec![0u32; program.len() + 1];
    for pc in (0..program.len()).rev() {
        let next = reach[pc + 1];
        reach[pc] = match &program[pc] {
            Err(_) => 0,
            Ok(instr) if touches_fabric(instr) => 0,
            Ok(Halt) => 1,
            Ok(Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } | J { .. } | Jal { .. })
            | Ok(Jr { .. }) => UNBOUNDED,
            Ok(Wait { cycles }) => u32::from(*cycles).max(1).saturating_add(next),
            Ok(_) => next.saturating_add(1),
        };
    }
    reach.pop();
    reach
}

impl Controller {
    /// A reset controller with an empty program and empty data memory,
    /// able to hold `prog_capacity` program words and `dmem_capacity` data
    /// words.
    pub fn new(prog_capacity: usize, dmem_capacity: usize) -> Self {
        Controller {
            regs: [0; 16],
            pc: 0,
            cir: 0,
            wctx: 0,
            program: Vec::new(),
            reach: Vec::new(),
            prog_capacity,
            dmem: Vec::new(),
            dmem_capacity,
            state: CtrlState::Halted,
        }
    }

    /// Loads a program at address 0, replacing any earlier one, decodes it
    /// and resets pc/registers/state.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ProgramTooLarge`] if the program exceeds
    /// program memory.
    pub fn load_program(&mut self, code: &[u32]) -> Result<(), ConfigError> {
        if code.len() > self.prog_capacity {
            return Err(ConfigError::ProgramTooLarge {
                words: code.len(),
                capacity: self.prog_capacity,
            });
        }
        self.program = code.iter().map(|&word| CtrlInstr::decode(word)).collect();
        self.reach = program_reach(&self.program);
        self.reset();
        Ok(())
    }

    /// Loads initial data memory at address 0.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::DataTooLarge`] if the data exceeds data
    /// memory.
    pub fn load_data(&mut self, data: &[u32]) -> Result<(), ConfigError> {
        if data.len() > self.dmem_capacity {
            return Err(ConfigError::DataTooLarge {
                words: data.len(),
                capacity: self.dmem_capacity,
            });
        }
        if self.dmem.len() < data.len() {
            self.dmem.resize(data.len(), 0);
        }
        self.dmem[..data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Resets pc, registers, `CIR`, `WCTX` and starts running (if a program
    /// is loaded).
    pub fn reset(&mut self) {
        self.regs = [0; 16];
        self.pc = 0;
        self.cir = 0;
        self.wctx = 0;
        self.state = if self.program.is_empty() {
            CtrlState::Halted
        } else {
            CtrlState::Running
        };
    }

    /// Current execution state.
    pub fn state(&self) -> CtrlState {
        self.state
    }

    /// `true` once `halt` has executed (or no program is loaded).
    pub fn is_halted(&self) -> bool {
        self.state == CtrlState::Halted
    }

    /// Fused-burst fast-forward: consumes `cycles` stall cycles of a
    /// `wait`, exactly as that many [`Controller::step`] calls would.
    ///
    /// The caller guarantees `cycles` does not exceed the pending wait
    /// count, so the controller ends `Waiting(n - cycles)` or `Running` —
    /// never skips past the instruction after the wait.
    pub(crate) fn skip_wait(&mut self, cycles: u64) {
        let CtrlState::Waiting(n) = self.state else {
            panic!("skip_wait while {:?}", self.state);
        };
        assert!(cycles <= u64::from(n), "skip_wait {cycles} > wait {n}");
        self.state = if u64::from(n) > cycles {
            CtrlState::Waiting(n - cycles as u16)
        } else {
            CtrlState::Running
        };
    }

    /// `true` if the next cycle is burst-safe: the controller is halted or
    /// waiting, or the instruction at pc cannot fault and touches neither
    /// the configuration nor a host FIFO — its fetch is in range and
    /// decodes, a `lw`/`sw` address is below the data-memory capacity, a
    /// `ctx` index is below `contexts`, and it is none of `wdn`, `wsw`,
    /// `who`, `wmode`, `wloc`, `wlim`, `hpush` or `hpop`.
    pub(crate) fn burst_safe(&self, contexts: usize) -> bool {
        use CtrlInstr::*;
        if self.state != CtrlState::Running {
            return true;
        }
        match self.program.get(self.pc as usize) {
            Some(Ok(Ctx { ctx })) => usize::from(*ctx) < contexts,
            Some(Ok(instr)) => match instr.exec(self.pc, |r| self.regs[r.index()]) {
                Exec::Load { addr, .. } | Exec::Store { addr, .. } => {
                    (addr as usize) < self.dmem_capacity
                }
                _ => !touches_fabric(instr),
            },
            Some(Err(_)) | None => false,
        }
    }

    /// Cycles after which a burst starting now provably ends: the pending
    /// `wait` plus the straight-line distance from pc to the next
    /// instruction that is never burst-safe or retires `halt`.
    /// `u64::MAX` when halted or when a control transfer comes first.
    pub(crate) fn burst_reach(&self) -> u64 {
        let waiting = match self.state {
            CtrlState::Halted => return u64::MAX,
            CtrlState::Waiting(n) => u64::from(n),
            CtrlState::Running => 0,
        };
        match self.reach.get(self.pc as usize) {
            Some(&UNBOUNDED) => u64::MAX,
            Some(&cycles) => waiting + u64::from(cycles),
            None => waiting,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads register `index & 15` (r0 reads as zero).
    pub fn reg(&self, index: usize) -> u32 {
        self.regs[index & 15]
    }

    /// Writes register `index & 15` (writes to r0 are discarded).
    pub fn set_reg(&mut self, index: usize, value: u32) {
        if index & 15 != 0 {
            self.regs[index & 15] = value;
        }
    }

    /// Reads a data-memory word (testing/inspection): `None` at or above
    /// the data-memory capacity, zero for a word never written.
    pub fn dmem(&self, addr: usize) -> Option<u32> {
        (addr < self.dmem_capacity).then(|| self.dmem.get(addr).copied().unwrap_or(0))
    }

    fn write_reg(&mut self, rd: CReg, value: u32) {
        if rd.index() != 0 {
            self.regs[rd.index()] = value;
        }
    }

    /// Executes one controller cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`CtrlFault`] on fetch/decode/memory faults; the machine
    /// converts these into [`crate::SimError`]s.
    pub fn step<P: CtrlPorts>(&mut self, ports: &mut P) -> Result<CtrlStep, CtrlFault> {
        use CtrlInstr::*;

        let mut out = CtrlStep::default();
        match self.state {
            CtrlState::Halted => return Ok(out),
            CtrlState::Waiting(n) => {
                self.state = if n > 1 {
                    CtrlState::Waiting(n - 1)
                } else {
                    CtrlState::Running
                };
                return Ok(out);
            }
            CtrlState::Running => {}
        }

        let pc = self.pc;
        let instr = match self.program.get(pc as usize) {
            Some(Ok(instr)) => *instr,
            Some(Err(cause)) => return Err(CtrlFault::BadInstruction { pc, cause: *cause }),
            None => return Err(CtrlFault::PcOutOfRange { pc }),
        };

        let mut next_pc = pc.wrapping_add(1);
        let r = |reg: CReg| self.regs[reg.index()];

        match instr {
            Cimm { imm } => self.cir = imm,
            Wctx { ctx } => self.wctx = ctx,
            Wdn { rs, dnode } => {
                out.effect = Some(CtrlEffect::WriteDnode {
                    ctx: self.wctx as usize,
                    dnode: dnode as usize,
                    word: micro_word(r(rs), self.cir),
                })
            }
            Wsw { rs, port } => {
                out.effect = Some(CtrlEffect::WritePort {
                    ctx: self.wctx as usize,
                    flat: port as usize,
                    word: r(rs),
                })
            }
            Who { rs, switch } => {
                let (switch, port) = split_port(switch);
                out.effect = Some(CtrlEffect::WriteCapture {
                    ctx: self.wctx as usize,
                    switch,
                    port,
                    word: r(rs),
                })
            }
            Wmode { rs, dnode } => {
                out.effect = Some(CtrlEffect::WriteMode {
                    dnode: dnode as usize,
                    local: r(rs) != 0,
                })
            }
            Wloc { rs, packed } => {
                let (dnode, slot) = split_slot(packed);
                out.effect = Some(CtrlEffect::WriteLocalSlot {
                    dnode,
                    slot,
                    word: micro_word(r(rs), self.cir),
                })
            }
            Wlim { rs, dnode } => {
                out.effect = Some(CtrlEffect::WriteLocalLimit {
                    dnode: dnode as usize,
                    limit: r(rs),
                })
            }
            Ctx { ctx } => out.effect = Some(CtrlEffect::SetActiveCtx(ctx as usize)),
            Busw { rs } => out.effect = Some(CtrlEffect::DriveBus(Word16::new(r(rs) as u16))),
            Busr { rd } => {
                let value = ports.bus();
                self.write_reg(rd, value.bits() as u32);
            }
            Hpush { rs, switch } => {
                let (switch, port) = split_port(switch);
                out.effect = Some(CtrlEffect::HostPush {
                    switch,
                    port,
                    word: Word16::new(r(rs) as u16),
                })
            }
            Hpop { rd, switch } => {
                let (switch, port) = split_port(switch);
                match ports.hpop(switch, port).map_err(CtrlFault::BadPort)? {
                    Some(word) => self.write_reg(rd, word.bits() as u32),
                    None => {
                        // Stall: retry the same instruction next cycle.
                        return Ok(out);
                    }
                }
            }
            Wait { cycles } => {
                if cycles > 1 {
                    self.state = CtrlState::Waiting(cycles - 1);
                }
            }
            Halt => {
                self.state = CtrlState::Halted;
                out.retired = true;
                return Ok(out);
            }
            _ => match instr.exec(pc, r) {
                Exec::Write { rd, value } => self.write_reg(rd, value),
                Exec::Load { rd, addr } => {
                    let value = self
                        .dmem(addr as usize)
                        .ok_or(CtrlFault::DmemOutOfRange { addr })?;
                    self.write_reg(rd, value);
                }
                Exec::Store { value, addr } => {
                    let index = addr as usize;
                    if index >= self.dmem_capacity {
                        return Err(CtrlFault::DmemOutOfRange { addr });
                    }
                    if index >= self.dmem.len() {
                        self.dmem.resize(index + 1, 0);
                    }
                    self.dmem[index] = value;
                }
                Exec::Branch { taken, target } => {
                    if taken != 0 {
                        next_pc = target;
                    }
                }
                Exec::Jump { target, link } => {
                    if let Some(link) = link {
                        self.write_reg(CReg::LINK, link);
                    }
                    next_pc = target;
                }
                Exec::Other => {}
            },
        }

        self.pc = next_pc;
        out.retired = true;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_ring_isa::ctrl::CReg;

    struct FakePorts {
        bus: Word16,
        fifo: Vec<Word16>,
    }

    impl CtrlPorts for FakePorts {
        fn bus(&self) -> Word16 {
            self.bus
        }
        fn hpop(&mut self, switch: usize, _port: usize) -> Result<Option<Word16>, ConfigError> {
            if switch > 3 {
                return Err(ConfigError::SwitchOutOfRange {
                    switch,
                    switches: 4,
                });
            }
            Ok(if self.fifo.is_empty() {
                None
            } else {
                Some(self.fifo.remove(0))
            })
        }
    }

    fn r(i: u8) -> CReg {
        CReg::new(i).unwrap()
    }

    fn run(code: &[CtrlInstr], max_cycles: usize) -> (Controller, Vec<CtrlEffect>) {
        let mut ctrl = Controller::new(1024, 256);
        let words: Vec<u32> = code.iter().map(CtrlInstr::encode).collect();
        ctrl.load_program(&words).unwrap();
        let mut ports = FakePorts {
            bus: Word16::from_i16(77),
            fifo: vec![Word16::from_i16(5)],
        };
        let mut effects = Vec::new();
        for _ in 0..max_cycles {
            if ctrl.is_halted() {
                break;
            }
            let step = ctrl.step(&mut ports).unwrap();
            effects.extend(step.effect);
        }
        (ctrl, effects)
    }

    use systolic_ring_isa::ctrl::CtrlInstr;

    #[test]
    fn arithmetic_and_halt() {
        let (ctrl, _) = run(
            &[
                CtrlInstr::Addi {
                    rd: r(1),
                    ra: r(0),
                    imm: 10,
                },
                CtrlInstr::Addi {
                    rd: r(2),
                    ra: r(0),
                    imm: -3,
                },
                CtrlInstr::Add {
                    rd: r(3),
                    ra: r(1),
                    rb: r(2),
                },
                CtrlInstr::Mul {
                    rd: r(4),
                    ra: r(3),
                    rb: r(3),
                },
                CtrlInstr::Halt,
            ],
            10,
        );
        assert!(ctrl.is_halted());
        assert_eq!(ctrl.reg(3), 7);
        assert_eq!(ctrl.reg(4), 49);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (ctrl, _) = run(
            &[
                CtrlInstr::Addi {
                    rd: r(0),
                    ra: r(0),
                    imm: 42,
                },
                CtrlInstr::Halt,
            ],
            10,
        );
        assert_eq!(ctrl.reg(0), 0);
    }

    #[test]
    fn loop_with_branch() {
        // r1 = 5; r2 = 0; while (r1 != 0) { r2 += r1; r1 -= 1 }
        let code = [
            CtrlInstr::Addi {
                rd: r(1),
                ra: r(0),
                imm: 5,
            },
            CtrlInstr::Beq {
                ra: r(1),
                rb: r(0),
                offset: 3,
            },
            CtrlInstr::Add {
                rd: r(2),
                ra: r(2),
                rb: r(1),
            },
            CtrlInstr::Addi {
                rd: r(1),
                ra: r(1),
                imm: -1,
            },
            CtrlInstr::J { target: 1 },
            CtrlInstr::Halt,
        ];
        let (ctrl, _) = run(&code, 100);
        assert!(ctrl.is_halted());
        assert_eq!(ctrl.reg(2), 15);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let code = [
            CtrlInstr::Jal { target: 3 }, // 0: call
            CtrlInstr::Addi {
                rd: r(2),
                ra: r(0),
                imm: 1,
            }, // 1: after return
            CtrlInstr::Halt,              // 2
            CtrlInstr::Addi {
                rd: r(1),
                ra: r(0),
                imm: 9,
            }, // 3: callee
            CtrlInstr::Jr { ra: r(15) },  // 4: return
        ];
        let (ctrl, _) = run(&code, 20);
        assert!(ctrl.is_halted());
        assert_eq!(ctrl.reg(1), 9);
        assert_eq!(ctrl.reg(2), 1);
        assert_eq!(ctrl.reg(15), 1);
    }

    #[test]
    fn memory_load_store() {
        let code = [
            CtrlInstr::Addi {
                rd: r(1),
                ra: r(0),
                imm: 123,
            },
            CtrlInstr::Sw {
                rs: r(1),
                ra: r(0),
                imm: 7,
            },
            CtrlInstr::Lw {
                rd: r(2),
                ra: r(0),
                imm: 7,
            },
            CtrlInstr::Halt,
        ];
        let (ctrl, _) = run(&code, 10);
        assert_eq!(ctrl.reg(2), 123);
        assert_eq!(ctrl.dmem(7), Some(123));
    }

    #[test]
    fn dmem_fault() {
        let mut ctrl = Controller::new(16, 4);
        ctrl.load_program(&[CtrlInstr::Lw {
            rd: r(1),
            ra: r(0),
            imm: 100,
        }
        .encode()])
            .unwrap();
        let mut ports = FakePorts {
            bus: Word16::ZERO,
            fifo: vec![],
        };
        assert_eq!(
            ctrl.step(&mut ports),
            Err(CtrlFault::DmemOutOfRange { addr: 100 })
        );
    }

    #[test]
    fn pc_fault_on_running_off_the_end() {
        let mut ctrl = Controller::new(16, 4);
        ctrl.load_program(&[CtrlInstr::Nop.encode()]).unwrap();
        let mut ports = FakePorts {
            bus: Word16::ZERO,
            fifo: vec![],
        };
        ctrl.step(&mut ports).unwrap();
        assert_eq!(
            ctrl.step(&mut ports),
            Err(CtrlFault::PcOutOfRange { pc: 1 })
        );
    }

    #[test]
    fn config_effects_carry_cir_and_wctx() {
        let code = [
            CtrlInstr::Cimm { imm: 0xbeef },
            CtrlInstr::Wctx { ctx: 2 },
            CtrlInstr::Addi {
                rd: r(1),
                ra: r(0),
                imm: 0x55,
            },
            CtrlInstr::Wdn { rs: r(1), dnode: 3 },
            CtrlInstr::Wloc {
                rs: r(1),
                packed: (5 << 3) | 2,
            },
            CtrlInstr::Ctx { ctx: 1 },
            CtrlInstr::Halt,
        ];
        let (_, effects) = run(&code, 10);
        assert_eq!(
            effects,
            vec![
                CtrlEffect::WriteDnode {
                    ctx: 2,
                    dnode: 3,
                    word: 0x55 | 0xbeef_u64 << 32
                },
                CtrlEffect::WriteLocalSlot {
                    dnode: 5,
                    slot: 2,
                    word: 0x55 | 0xbeef_u64 << 32
                },
                CtrlEffect::SetActiveCtx(1),
            ]
        );
    }

    #[test]
    fn bus_read_and_write() {
        let code = [
            CtrlInstr::Busr { rd: r(1) },
            CtrlInstr::Busw { rs: r(1) },
            CtrlInstr::Halt,
        ];
        let (ctrl, effects) = run(&code, 10);
        assert_eq!(ctrl.reg(1), 77);
        assert_eq!(effects, vec![CtrlEffect::DriveBus(Word16::from_i16(77))]);
    }

    #[test]
    fn hpop_pops_then_stalls() {
        let code = [
            CtrlInstr::Hpop {
                rd: r(1),
                switch: 0,
            },
            CtrlInstr::Hpop {
                rd: r(2),
                switch: 0,
            },
            CtrlInstr::Halt,
        ];
        let mut ctrl = Controller::new(16, 4);
        let words: Vec<u32> = code.iter().map(CtrlInstr::encode).collect();
        ctrl.load_program(&words).unwrap();
        let mut ports = FakePorts {
            bus: Word16::ZERO,
            fifo: vec![Word16::from_i16(5)],
        };
        // First hpop succeeds.
        assert!(ctrl.step(&mut ports).unwrap().retired);
        assert_eq!(ctrl.reg(1), 5);
        // Second hpop stalls on an empty FIFO.
        for _ in 0..3 {
            assert!(!ctrl.step(&mut ports).unwrap().retired);
            assert_eq!(ctrl.pc(), 1);
        }
        // Data arrives; it completes.
        ports.fifo.push(Word16::from_i16(6));
        assert!(ctrl.step(&mut ports).unwrap().retired);
        assert_eq!(ctrl.reg(2), 6);
    }

    #[test]
    fn hpop_bad_switch_faults() {
        let mut ctrl = Controller::new(16, 4);
        // switch field packs switch<<8|port: switch 9 is out of range.
        ctrl.load_program(&[CtrlInstr::Hpop {
            rd: r(1),
            switch: 9 << 8,
        }
        .encode()])
            .unwrap();
        let mut ports = FakePorts {
            bus: Word16::ZERO,
            fifo: vec![],
        };
        assert!(matches!(ctrl.step(&mut ports), Err(CtrlFault::BadPort(_))));
    }

    #[test]
    fn wait_stalls_for_n_cycles() {
        let code = [
            CtrlInstr::Wait { cycles: 3 },
            CtrlInstr::Addi {
                rd: r(1),
                ra: r(0),
                imm: 1,
            },
            CtrlInstr::Halt,
        ];
        let mut ctrl = Controller::new(16, 4);
        let words: Vec<u32> = code.iter().map(CtrlInstr::encode).collect();
        ctrl.load_program(&words).unwrap();
        let mut ports = FakePorts {
            bus: Word16::ZERO,
            fifo: vec![],
        };
        // Cycle 1: wait retires and schedules 2 stall cycles.
        assert!(ctrl.step(&mut ports).unwrap().retired);
        // Cycles 2-3: stalled.
        assert!(!ctrl.step(&mut ports).unwrap().retired);
        assert!(!ctrl.step(&mut ports).unwrap().retired);
        // Cycle 4: addi.
        assert!(ctrl.step(&mut ports).unwrap().retired);
        assert_eq!(ctrl.reg(1), 1);
    }

    #[test]
    fn program_too_large_is_rejected() {
        let mut ctrl = Controller::new(2, 4);
        assert!(matches!(
            ctrl.load_program(&[0, 0, 0]),
            Err(ConfigError::ProgramTooLarge { .. })
        ));
    }

    #[test]
    fn empty_program_stays_halted() {
        let mut ctrl = Controller::new(16, 4);
        ctrl.load_program(&[]).unwrap();
        assert!(ctrl.is_halted());
    }
}
