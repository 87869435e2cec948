//! Instruction-set definitions for the **Systolic Ring**, the coarse-grained
//! dynamically reconfigurable DSP architecture of Sassatelli et al.
//! (DATE 2002).
//!
//! This crate is the single source of truth for every bit-level contract in
//! the reproduction:
//!
//! * [`Word16`] — the 16-bit datapath word,
//! * [`RingGeometry`] — the layer x width fabric parameterization,
//! * [`dnode`] — Dnode operations, operand selectors and microinstruction
//!   encoding,
//! * [`switch`] — inter-layer crossbar and host-capture configuration words,
//! * [`ctrl`] — the configuration controller's dedicated RISC ISA,
//! * [`object`] — the loadable object-code container emitted by the
//!   assembler,
//! * [`expect`] — embedded conformance expectations (`;!` directives)
//!   carried alongside assembled objects,
//! * [`proof`] — static proof manifests a verifier binds to object
//!   bytes.
//!
//! The cycle-accurate simulator (`systolic-ring-core`) and the two-level
//! assembler (`systolic-ring-asm`) both build on these definitions, so a
//! round trip through the assembler, object format and machine loader is
//! bit-exact by construction.
//!
//! # Examples
//!
//! Encode the single-cycle MAC the paper highlights (§4.1) and decode it
//! back:
//!
//! ```
//! use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand, Reg};
//!
//! let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2)
//!     .write_reg(Reg::R0)
//!     .write_out();
//! assert_eq!(MicroInstr::decode(mac.encode()).unwrap(), mac);
//! ```

#![warn(missing_docs)]

pub mod ctrl;
pub mod dnode;
pub mod expect;
pub mod geometry;
pub mod object;
pub mod proof;
pub mod switch;
mod word;

pub use geometry::{InvalidGeometry, RingGeometry};
pub use word::Word16;
