//! The configuration controller's RISC instruction set.
//!
//! The paper uses "a custom RISC core with a dedicated instruction set as
//! configuration controller; its task is to manage dynamically the
//! configuration of the network and also to control the data communications
//! between the reconfigurable core and the host CPU" (§3).
//!
//! This module defines that dedicated ISA: a 32-bit fixed-width, 16-register
//! load/store core extended with configuration-write instructions
//! ([`CtrlInstr::Wdn`], [`CtrlInstr::Wsw`], ...), context selection
//! ([`CtrlInstr::Ctx`]) — the mechanism by which "the configuration
//! controller is able to change up to the entire content of the
//! [configuration layer]" in one cycle — and host/bus transfers.
//!
//! Encoding layout (32-bit word): opcode `[26..32)`, `rd` `[22..26)`,
//! `ra` `[18..22)`, then either a 16-bit immediate in `[0..16)` (I-format)
//! or `rb` in `[0..4)` (R-format); bits `[16..18)` are always zero.

use std::fmt;

/// One of the controller's 16 general-purpose 32-bit registers.
///
/// `r0` is hardwired to zero; `r15` is the link register written by
/// [`CtrlInstr::Jal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CReg(u8);

impl CReg {
    /// The hardwired-zero register `r0`.
    pub const ZERO: CReg = CReg(0);
    /// The link register `r15`.
    pub const LINK: CReg = CReg(15);

    /// Creates a register reference.
    ///
    /// # Errors
    ///
    /// Returns `None` if `index > 15`.
    pub const fn new(index: u8) -> Option<CReg> {
        if index < 16 {
            Some(CReg(index))
        } else {
            None
        }
    }

    /// The register index (0..=15).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Error decoding a controller instruction word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeCtrlError {
    /// Reserved opcode field.
    Opcode(u8),
    /// Field bits that the instruction does not use were set.
    StrayBits(u32),
}

impl fmt::Display for DecodeCtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeCtrlError::Opcode(op) => write!(f, "reserved controller opcode {op:#04x}"),
            DecodeCtrlError::StrayBits(w) => {
                write!(f, "stray field bits in controller word {w:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeCtrlError {}

/// A configuration-controller instruction.
///
/// # Examples
///
/// ```
/// use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
///
/// let r1 = CReg::new(1).unwrap();
/// let instr = CtrlInstr::Addi { rd: r1, ra: CReg::ZERO, imm: -5 };
/// assert_eq!(CtrlInstr::decode(instr.encode()).unwrap(), instr);
/// assert_eq!(instr.to_string(), "addi r1, r0, -5");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtrlInstr {
    /// No operation.
    Nop,
    /// `rd = ra + rb` (wrapping).
    Add {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra - rb` (wrapping).
    Sub {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra & rb`.
    And {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra | rb`.
    Or {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra ^ rb`.
    Xor {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra << (rb & 31)`.
    Sll {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra >> (rb & 31)` (logical).
    Srl {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra >> (rb & 31)` (arithmetic).
    Sra {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = (ra <s rb) ? 1 : 0`.
    Slt {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = (ra <u rb) ? 1 : 0`.
    Sltu {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra * rb` (low 32 bits).
    Mul {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
    },
    /// `rd = ra + sext(imm)`.
    Addi {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Immediate operand.
        imm: i16,
    },
    /// `rd = ra & zext(imm)`.
    Andi {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Immediate operand.
        imm: u16,
    },
    /// `rd = ra | zext(imm)`.
    Ori {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Immediate operand.
        imm: u16,
    },
    /// `rd = ra ^ zext(imm)`.
    Xori {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Immediate operand.
        imm: u16,
    },
    /// `rd = (ra <s sext(imm)) ? 1 : 0`.
    Slti {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Immediate operand.
        imm: i16,
    },
    /// `rd = imm << 16`.
    Lui {
        /// Destination register.
        rd: CReg,
        /// Immediate operand.
        imm: u16,
    },
    /// `rd = dmem[ra + sext(imm)]` (word addressed).
    Lw {
        /// Destination register.
        rd: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Immediate operand.
        imm: i16,
    },
    /// `dmem[ra + sext(imm)] = rs` (word addressed).
    Sw {
        /// Source register `rs`.
        rs: CReg,
        /// Source register `ra`.
        ra: CReg,
        /// Immediate operand.
        imm: i16,
    },
    /// Branch if `ra == rb` to `pc + 1 + offset`.
    Beq {
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
        /// Branch offset in words, relative to `pc + 1`.
        offset: i16,
    },
    /// Branch if `ra != rb`.
    Bne {
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
        /// Branch offset in words, relative to `pc + 1`.
        offset: i16,
    },
    /// Branch if `ra <s rb`.
    Blt {
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
        /// Branch offset in words, relative to `pc + 1`.
        offset: i16,
    },
    /// Branch if `ra >=s rb`.
    Bge {
        /// Source register `ra`.
        ra: CReg,
        /// Source register `rb`.
        rb: CReg,
        /// Branch offset in words, relative to `pc + 1`.
        offset: i16,
    },
    /// Jump to absolute word address `target`.
    J {
        /// Absolute word address.
        target: u16,
    },
    /// Jump and link: `r15 = pc + 1; pc = target`.
    Jal {
        /// Absolute word address.
        target: u16,
    },
    /// Jump to the address in `ra`.
    Jr {
        /// Source register `ra`.
        ra: CReg,
    },
    /// Set the 16-bit configuration-immediate register `CIR` (supplies the
    /// immediate field of subsequently written Dnode microinstructions).
    Cimm {
        /// Immediate operand.
        imm: u16,
    },
    /// Select the context written by subsequent `Wdn`/`Wsw`/`Who` writes.
    Wctx {
        /// Context index.
        ctx: u16,
    },
    /// Write Dnode microinstruction: `contexts[WCTX][dnode].instr =
    /// (rs as low 32 bits) | (CIR << 32)`.
    Wdn {
        /// Source register `rs`.
        rs: CReg,
        /// Flat Dnode index.
        dnode: u16,
    },
    /// Write a switch crossbar port: `port` packs
    /// `(switch * width + lane) * 4 + input` where `input` selects
    /// `In1`/`In2`/`Fifo1`/`Fifo2`; the value is `rs` interpreted as a
    /// [`crate::switch::PortSource`] word.
    Wsw {
        /// Source register `rs`.
        rs: CReg,
        /// Flat port index.
        port: u16,
    },
    /// Write a host-output capture selector; `switch` packs
    /// `switch_index << 8 | out_port` and the value is a
    /// [`crate::switch::HostCapture`] word.
    Who {
        /// Source register `rs`.
        rs: CReg,
        /// Packed `switch_index << 8 | port` address.
        switch: u16,
    },
    /// Set a Dnode's execution mode: `rs = 0` global, nonzero local.
    /// Entering local mode resets the sequencer counter.
    Wmode {
        /// Source register `rs`.
        rs: CReg,
        /// Flat Dnode index.
        dnode: u16,
    },
    /// Write local-sequencer slot: `packed = dnode << 3 | slot`; the value is
    /// `(rs as low 32 bits) | (CIR << 32)` as a microinstruction word.
    Wloc {
        /// Source register `rs`.
        rs: CReg,
        /// Packed `dnode << 3 | slot` address.
        packed: u16,
    },
    /// Set a Dnode's sequencer limit (`rs` in 1..=8) and reset its counter.
    Wlim {
        /// Source register `rs`.
        rs: CReg,
        /// Flat Dnode index.
        dnode: u16,
    },
    /// Select the active configuration context, effective next cycle — the
    /// whole-fabric reconfiguration primitive.
    Ctx {
        /// Context index.
        ctx: u16,
    },
    /// Drive the shared bus with the low 16 bits of `rs` for one cycle.
    Busw {
        /// Source register `rs`.
        rs: CReg,
    },
    /// Read the current bus value (zero-extended) into `rd`.
    Busr {
        /// Destination register.
        rd: CReg,
    },
    /// Push the low 16 bits of `rs` into a host-input FIFO; `switch` packs
    /// `switch_index << 8 | port`.
    Hpush {
        /// Source register `rs`.
        rs: CReg,
        /// Packed `switch_index << 8 | port` address.
        switch: u16,
    },
    /// Pop a host-output FIFO into `rd`; `switch` packs
    /// `switch_index << 8 | out_port`. Stalls the controller (the ring
    /// keeps running) until data is available.
    Hpop {
        /// Destination register.
        rd: CReg,
        /// Packed `switch_index << 8 | port` address.
        switch: u16,
    },
    /// Stall for `cycles` cycles while the ring keeps running.
    Wait {
        /// Stall duration in cycles.
        cycles: u16,
    },
    /// Stop the controller; the machine reports completion.
    Halt,
}

const OP_NOP: u8 = 0;
const OP_ADD: u8 = 1;
const OP_SUB: u8 = 2;
const OP_AND: u8 = 3;
const OP_OR: u8 = 4;
const OP_XOR: u8 = 5;
const OP_SLL: u8 = 6;
const OP_SRL: u8 = 7;
const OP_SRA: u8 = 8;
const OP_SLT: u8 = 9;
const OP_SLTU: u8 = 10;
const OP_MUL: u8 = 11;
const OP_ADDI: u8 = 12;
const OP_ANDI: u8 = 13;
const OP_ORI: u8 = 14;
const OP_XORI: u8 = 15;
const OP_SLTI: u8 = 16;
const OP_LUI: u8 = 17;
const OP_LW: u8 = 18;
const OP_SW: u8 = 19;
const OP_BEQ: u8 = 20;
const OP_BNE: u8 = 21;
const OP_BLT: u8 = 22;
const OP_BGE: u8 = 23;
const OP_J: u8 = 24;
const OP_JAL: u8 = 25;
const OP_JR: u8 = 26;
const OP_CIMM: u8 = 27;
const OP_WCTX: u8 = 28;
const OP_WDN: u8 = 29;
const OP_WSW: u8 = 30;
const OP_WHO: u8 = 31;
const OP_WMODE: u8 = 32;
const OP_WLOC: u8 = 33;
const OP_WLIM: u8 = 34;
const OP_CTX: u8 = 35;
const OP_BUSW: u8 = 36;
const OP_BUSR: u8 = 37;
const OP_HPUSH: u8 = 38;
const OP_HPOP: u8 = 39;
const OP_WAIT: u8 = 40;
const OP_HALT: u8 = 41;

fn pack(op: u8, rd: u8, ra: u8, rb: u8, imm: u16) -> u32 {
    debug_assert!(
        rb == 0 || imm == 0,
        "R and I payloads are mutually exclusive"
    );
    (op as u32) << 26 | (rd as u32) << 22 | (ra as u32) << 18 | (rb as u32) | imm as u32
}

impl CtrlInstr {
    /// Encodes to a 32-bit instruction word.
    pub fn encode(&self) -> u32 {
        use CtrlInstr::*;
        let r = |reg: CReg| reg.0;
        match *self {
            Nop => pack(OP_NOP, 0, 0, 0, 0),
            Add { rd, ra, rb } => pack(OP_ADD, r(rd), r(ra), r(rb), 0),
            Sub { rd, ra, rb } => pack(OP_SUB, r(rd), r(ra), r(rb), 0),
            And { rd, ra, rb } => pack(OP_AND, r(rd), r(ra), r(rb), 0),
            Or { rd, ra, rb } => pack(OP_OR, r(rd), r(ra), r(rb), 0),
            Xor { rd, ra, rb } => pack(OP_XOR, r(rd), r(ra), r(rb), 0),
            Sll { rd, ra, rb } => pack(OP_SLL, r(rd), r(ra), r(rb), 0),
            Srl { rd, ra, rb } => pack(OP_SRL, r(rd), r(ra), r(rb), 0),
            Sra { rd, ra, rb } => pack(OP_SRA, r(rd), r(ra), r(rb), 0),
            Slt { rd, ra, rb } => pack(OP_SLT, r(rd), r(ra), r(rb), 0),
            Sltu { rd, ra, rb } => pack(OP_SLTU, r(rd), r(ra), r(rb), 0),
            Mul { rd, ra, rb } => pack(OP_MUL, r(rd), r(ra), r(rb), 0),
            Addi { rd, ra, imm } => pack(OP_ADDI, r(rd), r(ra), 0, imm as u16),
            Andi { rd, ra, imm } => pack(OP_ANDI, r(rd), r(ra), 0, imm),
            Ori { rd, ra, imm } => pack(OP_ORI, r(rd), r(ra), 0, imm),
            Xori { rd, ra, imm } => pack(OP_XORI, r(rd), r(ra), 0, imm),
            Slti { rd, ra, imm } => pack(OP_SLTI, r(rd), r(ra), 0, imm as u16),
            Lui { rd, imm } => pack(OP_LUI, r(rd), 0, 0, imm),
            Lw { rd, ra, imm } => pack(OP_LW, r(rd), r(ra), 0, imm as u16),
            Sw { rs, ra, imm } => pack(OP_SW, r(rs), r(ra), 0, imm as u16),
            Beq { ra, rb, offset } => pack(OP_BEQ, r(rb), r(ra), 0, offset as u16),
            Bne { ra, rb, offset } => pack(OP_BNE, r(rb), r(ra), 0, offset as u16),
            Blt { ra, rb, offset } => pack(OP_BLT, r(rb), r(ra), 0, offset as u16),
            Bge { ra, rb, offset } => pack(OP_BGE, r(rb), r(ra), 0, offset as u16),
            J { target } => pack(OP_J, 0, 0, 0, target),
            Jal { target } => pack(OP_JAL, 0, 0, 0, target),
            Jr { ra } => pack(OP_JR, 0, r(ra), 0, 0),
            Cimm { imm } => pack(OP_CIMM, 0, 0, 0, imm),
            Wctx { ctx } => pack(OP_WCTX, 0, 0, 0, ctx),
            Wdn { rs, dnode } => pack(OP_WDN, r(rs), 0, 0, dnode),
            Wsw { rs, port } => pack(OP_WSW, r(rs), 0, 0, port),
            Who { rs, switch } => pack(OP_WHO, r(rs), 0, 0, switch),
            Wmode { rs, dnode } => pack(OP_WMODE, r(rs), 0, 0, dnode),
            Wloc { rs, packed } => pack(OP_WLOC, r(rs), 0, 0, packed),
            Wlim { rs, dnode } => pack(OP_WLIM, r(rs), 0, 0, dnode),
            Ctx { ctx } => pack(OP_CTX, 0, 0, 0, ctx),
            Busw { rs } => pack(OP_BUSW, r(rs), 0, 0, 0),
            Busr { rd } => pack(OP_BUSR, r(rd), 0, 0, 0),
            Hpush { rs, switch } => pack(OP_HPUSH, r(rs), 0, 0, switch),
            Hpop { rd, switch } => pack(OP_HPOP, r(rd), 0, 0, switch),
            Wait { cycles } => pack(OP_WAIT, 0, 0, 0, cycles),
            Halt => pack(OP_HALT, 0, 0, 0, 0),
        }
    }

    /// Decodes a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeCtrlError`] for reserved opcodes or set bits in fields
    /// the instruction does not use.
    pub fn decode(word: u32) -> Result<Self, DecodeCtrlError> {
        use CtrlInstr::*;
        let op = (word >> 26) as u8;
        let rd = CReg(((word >> 22) & 0xf) as u8);
        let ra = CReg(((word >> 18) & 0xf) as u8);
        let rb = CReg((word & 0xf) as u8);
        let imm = (word & 0xffff) as u16;
        let simm = imm as i16;

        // Field-usage checks: verify bits the instruction does not use are
        // zero. `rb` (R-format) and `imm` (I-format) share the low bits, so
        // an instruction uses at most one of them.
        let rd_bits = (word >> 22) & 0xf;
        let ra_bits = (word >> 18) & 0xf;
        let gap_bits = (word >> 16) & 0x3; // bits 16..18, never used
        if gap_bits != 0 {
            return Err(DecodeCtrlError::StrayBits(word));
        }
        let require = |used_rd: bool,
                       used_ra: bool,
                       used_rb: bool,
                       used_imm: bool|
         -> Result<(), DecodeCtrlError> {
            debug_assert!(!(used_rb && used_imm));
            let low_ok = if used_imm {
                true
            } else if used_rb {
                imm >> 4 == 0
            } else {
                imm == 0
            };
            if (!used_rd && rd_bits != 0) || (!used_ra && ra_bits != 0) || !low_ok {
                Err(DecodeCtrlError::StrayBits(word))
            } else {
                Ok(())
            }
        };

        let instr = match op {
            OP_NOP => {
                require(false, false, false, false)?;
                Nop
            }
            OP_ADD | OP_SUB | OP_AND | OP_OR | OP_XOR | OP_SLL | OP_SRL | OP_SRA | OP_SLT
            | OP_SLTU | OP_MUL => {
                require(true, true, true, false)?;
                match op {
                    OP_ADD => Add { rd, ra, rb },
                    OP_SUB => Sub { rd, ra, rb },
                    OP_AND => And { rd, ra, rb },
                    OP_OR => Or { rd, ra, rb },
                    OP_XOR => Xor { rd, ra, rb },
                    OP_SLL => Sll { rd, ra, rb },
                    OP_SRL => Srl { rd, ra, rb },
                    OP_SRA => Sra { rd, ra, rb },
                    OP_SLT => Slt { rd, ra, rb },
                    OP_SLTU => Sltu { rd, ra, rb },
                    _ => Mul { rd, ra, rb },
                }
            }
            OP_ADDI => {
                require(true, true, false, true)?;
                Addi { rd, ra, imm: simm }
            }
            OP_ANDI => {
                require(true, true, false, true)?;
                Andi { rd, ra, imm }
            }
            OP_ORI => {
                require(true, true, false, true)?;
                Ori { rd, ra, imm }
            }
            OP_XORI => {
                require(true, true, false, true)?;
                Xori { rd, ra, imm }
            }
            OP_SLTI => {
                require(true, true, false, true)?;
                Slti { rd, ra, imm: simm }
            }
            OP_LUI => {
                require(true, false, false, true)?;
                Lui { rd, imm }
            }
            OP_LW => {
                require(true, true, false, true)?;
                Lw { rd, ra, imm: simm }
            }
            OP_SW => {
                require(true, true, false, true)?;
                Sw {
                    rs: rd,
                    ra,
                    imm: simm,
                }
            }
            OP_BEQ | OP_BNE | OP_BLT | OP_BGE => {
                require(true, true, false, true)?;
                let (ra, rb, offset) = (ra, rd, simm);
                match op {
                    OP_BEQ => Beq { ra, rb, offset },
                    OP_BNE => Bne { ra, rb, offset },
                    OP_BLT => Blt { ra, rb, offset },
                    _ => Bge { ra, rb, offset },
                }
            }
            OP_J => {
                require(false, false, false, true)?;
                J { target: imm }
            }
            OP_JAL => {
                require(false, false, false, true)?;
                Jal { target: imm }
            }
            OP_JR => {
                require(false, true, false, false)?;
                Jr { ra }
            }
            OP_CIMM => {
                require(false, false, false, true)?;
                Cimm { imm }
            }
            OP_WCTX => {
                require(false, false, false, true)?;
                Wctx { ctx: imm }
            }
            OP_WDN => {
                require(true, false, false, true)?;
                Wdn { rs: rd, dnode: imm }
            }
            OP_WSW => {
                require(true, false, false, true)?;
                Wsw { rs: rd, port: imm }
            }
            OP_WHO => {
                require(true, false, false, true)?;
                Who {
                    rs: rd,
                    switch: imm,
                }
            }
            OP_WMODE => {
                require(true, false, false, true)?;
                Wmode { rs: rd, dnode: imm }
            }
            OP_WLOC => {
                require(true, false, false, true)?;
                Wloc {
                    rs: rd,
                    packed: imm,
                }
            }
            OP_WLIM => {
                require(true, false, false, true)?;
                Wlim { rs: rd, dnode: imm }
            }
            OP_CTX => {
                require(false, false, false, true)?;
                Ctx { ctx: imm }
            }
            OP_BUSW => {
                require(true, false, false, false)?;
                Busw { rs: rd }
            }
            OP_BUSR => {
                require(true, false, false, false)?;
                Busr { rd }
            }
            OP_HPUSH => {
                require(true, false, false, true)?;
                Hpush {
                    rs: rd,
                    switch: imm,
                }
            }
            OP_HPOP => {
                require(true, false, false, true)?;
                Hpop { rd, switch: imm }
            }
            OP_WAIT => {
                require(false, false, false, true)?;
                Wait { cycles: imm }
            }
            OP_HALT => {
                require(false, false, false, false)?;
                Halt
            }
            _ => return Err(DecodeCtrlError::Opcode(op)),
        };
        Ok(instr)
    }

    /// The register and control-flow semantics of this instruction
    /// retiring at `pc`, reading registers through `reg` (which must read
    /// `r0` as zero).
    ///
    /// This is the ISA's one executable definition of its arithmetic,
    /// branch conditions, branch and link targets and data addresses: the
    /// machine evaluates it in `u32`, static analysis in `Option<u32>`.
    #[inline(always)]
    pub fn exec<V: CtrlValue>(self, pc: u32, reg: impl Fn(CReg) -> V) -> Exec<V> {
        use CtrlInstr::*;
        fn slt(a: u32, b: u32) -> u32 {
            u32::from((a as i32) < (b as i32))
        }
        let write = |rd, value| Exec::Write { rd, value };
        let sext = |imm: i16| V::known(imm as i32 as u32);
        let zext = |imm: u16| V::known(u32::from(imm));
        let branch = |taken, offset: i16| Exec::Branch {
            taken,
            target: pc.wrapping_add(1).wrapping_add(offset as i32 as u32),
        };
        match self {
            Add { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), u32::wrapping_add)),
            Sub { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), u32::wrapping_sub)),
            And { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), |a, b| a & b)),
            Or { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), |a, b| a | b)),
            Xor { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), |a, b| a ^ b)),
            Sll { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), |a, b| a << (b & 31))),
            Srl { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), |a, b| a >> (b & 31))),
            Sra { rd, ra, rb } => write(
                rd,
                reg(ra).map2(reg(rb), |a, b| ((a as i32) >> (b & 31)) as u32),
            ),
            Slt { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), slt)),
            Sltu { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), |a, b| u32::from(a < b))),
            Mul { rd, ra, rb } => write(rd, reg(ra).map2(reg(rb), u32::wrapping_mul)),
            Addi { rd, ra, imm } => write(rd, reg(ra).map2(sext(imm), u32::wrapping_add)),
            Andi { rd, ra, imm } => write(rd, reg(ra).map2(zext(imm), |a, b| a & b)),
            Ori { rd, ra, imm } => write(rd, reg(ra).map2(zext(imm), |a, b| a | b)),
            Xori { rd, ra, imm } => write(rd, reg(ra).map2(zext(imm), |a, b| a ^ b)),
            Slti { rd, ra, imm } => write(rd, reg(ra).map2(sext(imm), slt)),
            Lui { rd, imm } => write(rd, V::known(u32::from(imm) << 16)),
            Lw { rd, ra, imm } => Exec::Load {
                rd,
                addr: reg(ra).map2(sext(imm), u32::wrapping_add),
            },
            Sw { rs, ra, imm } => Exec::Store {
                value: reg(rs),
                addr: reg(ra).map2(sext(imm), u32::wrapping_add),
            },
            Beq { ra, rb, offset } => {
                branch(reg(ra).map2(reg(rb), |a, b| u32::from(a == b)), offset)
            }
            Bne { ra, rb, offset } => {
                branch(reg(ra).map2(reg(rb), |a, b| u32::from(a != b)), offset)
            }
            Blt { ra, rb, offset } => branch(reg(ra).map2(reg(rb), slt), offset),
            Bge { ra, rb, offset } => branch(reg(ra).map2(reg(rb), |a, b| 1 - slt(a, b)), offset),
            J { target } => Exec::Jump {
                target: V::known(target.into()),
                link: None,
            },
            Jal { target } => Exec::Jump {
                target: V::known(target.into()),
                link: Some(V::known(pc.wrapping_add(1))),
            },
            Jr { ra } => Exec::Jump {
                target: reg(ra),
                link: None,
            },
            _ => Exec::Other,
        }
    }
}

/// The `(switch, port)` named by the packed `switch << 8 | port` operand
/// of `who`, `hpush` and `hpop`.
#[inline]
pub fn split_port(packed: u16) -> (usize, usize) {
    (usize::from(packed >> 8), usize::from(packed & 0xff))
}

/// The `(dnode, slot)` named by the packed `dnode << 3 | slot` operand of
/// `wloc`.
#[inline]
pub fn split_slot(packed: u16) -> (usize, usize) {
    (usize::from(packed >> 3), usize::from(packed & 7))
}

/// The microinstruction word `wdn` and `wloc` write: the source register
/// in bits 0..32 and `CIR` above it.
#[inline]
pub fn micro_word(rs: u32, cir: u16) -> u64 {
    u64::from(rs) | u64::from(cir) << 32
}

/// A value domain [`CtrlInstr::exec`] evaluates in: `u32` on the machine;
/// `Option<u32>` in static analysis, where `None` is a value the analysis
/// cannot know and everything computed from it stays unknown.
pub trait CtrlValue: Copy {
    /// The constant `v`.
    fn known(v: u32) -> Self;
    /// `f(self, other)`, lifted into the domain.
    fn map2(self, other: Self, f: impl FnOnce(u32, u32) -> u32) -> Self;
}

impl CtrlValue for u32 {
    #[inline(always)]
    fn known(v: u32) -> u32 {
        v
    }

    #[inline(always)]
    fn map2(self, other: u32, f: impl FnOnce(u32, u32) -> u32) -> u32 {
        f(self, other)
    }
}

impl CtrlValue for Option<u32> {
    #[inline]
    fn known(v: u32) -> Self {
        Some(v)
    }

    #[inline]
    fn map2(self, other: Self, f: impl FnOnce(u32, u32) -> u32) -> Self {
        Some(f(self?, other?))
    }
}

/// What [`CtrlInstr::exec`] says one instruction does to the registers,
/// the data memory and the pc.
///
/// Configuration writes, bus and host traffic, `cimm`, `wctx`, `ctx`,
/// `wait`, `halt` and `nop` are [`Exec::Other`]: they write no
/// general-purpose register from arithmetic, and each consumer gives them
/// their own meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec<V> {
    /// `rd = value`, then fall through (`add`…`mul`, the immediate forms,
    /// `lui`).
    Write {
        /// Destination register.
        rd: CReg,
        /// Value written.
        value: V,
    },
    /// `rd = dmem[addr]`, then fall through.
    Load {
        /// Destination register.
        rd: CReg,
        /// Word address.
        addr: V,
    },
    /// `dmem[addr] = value`, then fall through.
    Store {
        /// Value stored.
        value: V,
        /// Word address.
        addr: V,
    },
    /// Continue at `target` when `taken` is nonzero, else fall through.
    Branch {
        /// `1` when the branch condition holds, `0` when it does not.
        taken: V,
        /// Branch target (`pc + 1 + offset`).
        target: u32,
    },
    /// Continue at `target` (`j`, `jal`, `jr`), first writing `link` to
    /// the link register when it is present (`jal`).
    Jump {
        /// Jump target.
        target: V,
        /// Return address `pc + 1` written to `r15`.
        link: Option<V>,
    },
    /// Any other instruction.
    Other,
}

impl fmt::Display for CtrlInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CtrlInstr::*;
        match *self {
            Nop => write!(f, "nop"),
            Add { rd, ra, rb } => write!(f, "add {rd}, {ra}, {rb}"),
            Sub { rd, ra, rb } => write!(f, "sub {rd}, {ra}, {rb}"),
            And { rd, ra, rb } => write!(f, "and {rd}, {ra}, {rb}"),
            Or { rd, ra, rb } => write!(f, "or {rd}, {ra}, {rb}"),
            Xor { rd, ra, rb } => write!(f, "xor {rd}, {ra}, {rb}"),
            Sll { rd, ra, rb } => write!(f, "sll {rd}, {ra}, {rb}"),
            Srl { rd, ra, rb } => write!(f, "srl {rd}, {ra}, {rb}"),
            Sra { rd, ra, rb } => write!(f, "sra {rd}, {ra}, {rb}"),
            Slt { rd, ra, rb } => write!(f, "slt {rd}, {ra}, {rb}"),
            Sltu { rd, ra, rb } => write!(f, "sltu {rd}, {ra}, {rb}"),
            Mul { rd, ra, rb } => write!(f, "mul {rd}, {ra}, {rb}"),
            Addi { rd, ra, imm } => write!(f, "addi {rd}, {ra}, {imm}"),
            Andi { rd, ra, imm } => write!(f, "andi {rd}, {ra}, {imm:#x}"),
            Ori { rd, ra, imm } => write!(f, "ori {rd}, {ra}, {imm:#x}"),
            Xori { rd, ra, imm } => write!(f, "xori {rd}, {ra}, {imm:#x}"),
            Slti { rd, ra, imm } => write!(f, "slti {rd}, {ra}, {imm}"),
            Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Lw { rd, ra, imm } => write!(f, "lw {rd}, {imm}({ra})"),
            Sw { rs, ra, imm } => write!(f, "sw {rs}, {imm}({ra})"),
            Beq { ra, rb, offset } => write!(f, "beq {ra}, {rb}, {offset}"),
            Bne { ra, rb, offset } => write!(f, "bne {ra}, {rb}, {offset}"),
            Blt { ra, rb, offset } => write!(f, "blt {ra}, {rb}, {offset}"),
            Bge { ra, rb, offset } => write!(f, "bge {ra}, {rb}, {offset}"),
            J { target } => write!(f, "j {target}"),
            Jal { target } => write!(f, "jal {target}"),
            Jr { ra } => write!(f, "jr {ra}"),
            Cimm { imm } => write!(f, "cimm {imm:#x}"),
            Wctx { ctx } => write!(f, "wctx {ctx}"),
            Wdn { rs, dnode } => write!(f, "wdn {rs}, {dnode}"),
            Wsw { rs, port } => write!(f, "wsw {rs}, {port}"),
            Who { rs, switch } => write!(f, "who {rs}, {switch}"),
            Wmode { rs, dnode } => write!(f, "wmode {rs}, {dnode}"),
            Wloc { rs, packed } => write!(f, "wloc {rs}, {packed}"),
            Wlim { rs, dnode } => write!(f, "wlim {rs}, {dnode}"),
            Ctx { ctx } => write!(f, "ctx {ctx}"),
            Busw { rs } => write!(f, "busw {rs}"),
            Busr { rd } => write!(f, "busr {rd}"),
            Hpush { rs, switch } => {
                let (s, p) = split_port(switch);
                write!(f, "hpush {rs}, {s}, {p}")
            }
            Hpop { rd, switch } => {
                let (s, p) = split_port(switch);
                write!(f, "hpop {rd}, {s}, {p}")
            }
            Wait { cycles } => write!(f, "wait {cycles}"),
            Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> CReg {
        CReg::new(i).unwrap()
    }

    fn samples() -> Vec<CtrlInstr> {
        use CtrlInstr::*;
        vec![
            Nop,
            Add {
                rd: r(1),
                ra: r(2),
                rb: r(3),
            },
            Sub {
                rd: r(15),
                ra: r(0),
                rb: r(7),
            },
            And {
                rd: r(4),
                ra: r(5),
                rb: r(6),
            },
            Or {
                rd: r(4),
                ra: r(5),
                rb: r(6),
            },
            Xor {
                rd: r(4),
                ra: r(5),
                rb: r(6),
            },
            Sll {
                rd: r(1),
                ra: r(1),
                rb: r(2),
            },
            Srl {
                rd: r(1),
                ra: r(1),
                rb: r(2),
            },
            Sra {
                rd: r(1),
                ra: r(1),
                rb: r(2),
            },
            Slt {
                rd: r(9),
                ra: r(10),
                rb: r(11),
            },
            Sltu {
                rd: r(9),
                ra: r(10),
                rb: r(11),
            },
            Mul {
                rd: r(12),
                ra: r(13),
                rb: r(14),
            },
            Addi {
                rd: r(1),
                ra: r(0),
                imm: -32768,
            },
            Andi {
                rd: r(2),
                ra: r(2),
                imm: 0xffff,
            },
            Ori {
                rd: r(2),
                ra: r(2),
                imm: 0x00ff,
            },
            Xori {
                rd: r(2),
                ra: r(2),
                imm: 0x0f0f,
            },
            Slti {
                rd: r(3),
                ra: r(4),
                imm: -1,
            },
            Lui {
                rd: r(5),
                imm: 0xdead,
            },
            Lw {
                rd: r(6),
                ra: r(7),
                imm: -4,
            },
            Sw {
                rs: r(6),
                ra: r(7),
                imm: 12,
            },
            Beq {
                ra: r(1),
                rb: r(2),
                offset: -10,
            },
            Bne {
                ra: r(1),
                rb: r(2),
                offset: 10,
            },
            Blt {
                ra: r(1),
                rb: r(2),
                offset: 0,
            },
            Bge {
                ra: r(1),
                rb: r(2),
                offset: 5,
            },
            J { target: 1000 },
            Jal { target: 2000 },
            Jr { ra: r(15) },
            Cimm { imm: 0xbeef },
            Wctx { ctx: 3 },
            Wdn {
                rs: r(8),
                dnode: 255,
            },
            Wsw {
                rs: r(8),
                port: 1023,
            },
            Who {
                rs: r(8),
                switch: 7,
            },
            Wmode {
                rs: r(8),
                dnode: 63,
            },
            Wloc {
                rs: r(8),
                packed: 517,
            },
            Wlim { rs: r(8), dnode: 2 },
            Ctx { ctx: 255 },
            Busw { rs: r(9) },
            Busr { rd: r(10) },
            Hpush {
                rs: r(11),
                switch: 1,
            },
            Hpop {
                rd: r(12),
                switch: 2,
            },
            Wait { cycles: 500 },
            Halt,
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for instr in samples() {
            let word = instr.encode();
            assert_eq!(
                CtrlInstr::decode(word).unwrap(),
                instr,
                "word {word:#010x} ({instr})"
            );
        }
    }

    #[test]
    fn decode_rejects_reserved_opcodes() {
        for op in 42u32..64 {
            assert_eq!(
                CtrlInstr::decode(op << 26),
                Err(DecodeCtrlError::Opcode(op as u8))
            );
        }
    }

    #[test]
    fn decode_rejects_stray_fields() {
        // NOP with rd set.
        let word = pack(OP_NOP, 1, 0, 0, 0);
        assert!(matches!(
            CtrlInstr::decode(word),
            Err(DecodeCtrlError::StrayBits(_))
        ));
        // J with rd set.
        let word = pack(OP_J, 1, 0, 0, 5);
        assert!(matches!(
            CtrlInstr::decode(word),
            Err(DecodeCtrlError::StrayBits(_))
        ));
        // ADD (R-format) with bits above the rb field set.
        let word = pack(OP_ADD, 1, 2, 3, 0) | 1 << 7;
        assert!(matches!(
            CtrlInstr::decode(word),
            Err(DecodeCtrlError::StrayBits(_))
        ));
        // Gap bits 16..17 set.
        assert!(matches!(
            CtrlInstr::decode(1 << 16),
            Err(DecodeCtrlError::StrayBits(_))
        ));
    }

    /// The abstract domain agrees with the machine's on known values and
    /// keeps anything computed from an unknown register unknown.
    #[test]
    fn exec_lifts_exactly_over_known_and_unknown_values() {
        let regs: [u32; 16] = std::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9));
        let concrete = |r: CReg| regs[r.index()];
        for instr in samples() {
            let lift = |e: Exec<u32>| match e {
                Exec::Write { rd, value } => Exec::Write {
                    rd,
                    value: Some(value),
                },
                Exec::Load { rd, addr } => Exec::Load {
                    rd,
                    addr: Some(addr),
                },
                Exec::Store { value, addr } => Exec::Store {
                    value: Some(value),
                    addr: Some(addr),
                },
                Exec::Branch { taken, target } => Exec::Branch {
                    taken: Some(taken),
                    target,
                },
                Exec::Jump { target, link } => Exec::Jump {
                    target: Some(target),
                    link: link.map(Some),
                },
                Exec::Other => Exec::Other,
            };
            let machine = instr.exec(40, concrete);
            assert_eq!(
                lift(machine),
                instr.exec(40, |r| Some(concrete(r))),
                "{instr}"
            );
            if let Exec::Write { value, .. } | Exec::Load { addr: value, .. } =
                instr.exec(40, |_| None::<u32>)
            {
                let constant = matches!(instr, CtrlInstr::Lui { .. });
                assert_eq!(value.is_some(), constant, "{instr}");
            }
        }
        let beq = CtrlInstr::Beq {
            ra: r(1),
            rb: r(1),
            offset: -3,
        };
        assert_eq!(
            beq.exec(10, concrete),
            Exec::Branch {
                taken: 1,
                target: 8
            }
        );
        let jal = CtrlInstr::Jal { target: 7 };
        assert_eq!(
            jal.exec(10, concrete),
            Exec::Jump {
                target: 7,
                link: Some(11)
            }
        );
    }

    #[test]
    fn creg_bounds() {
        assert!(CReg::new(15).is_some());
        assert!(CReg::new(16).is_none());
        assert_eq!(CReg::ZERO.index(), 0);
        assert_eq!(CReg::LINK.index(), 15);
    }

    #[test]
    fn display_round_trip_examples() {
        assert_eq!(
            CtrlInstr::Lw {
                rd: r(6),
                ra: r(7),
                imm: -4
            }
            .to_string(),
            "lw r6, -4(r7)"
        );
        assert_eq!(CtrlInstr::Halt.to_string(), "halt");
        assert_eq!(
            CtrlInstr::Lui {
                rd: r(5),
                imm: 0xdead
            }
            .to_string(),
            "lui r5, 0xdead"
        );
    }
}
