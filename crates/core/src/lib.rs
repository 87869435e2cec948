//! Cycle-accurate simulator of the **Systolic Ring**, the coarse-grained
//! dynamically reconfigurable DSP architecture of Sassatelli et al.
//! (DATE 2002).
//!
//! The simulated system comprises (paper §3-§4):
//!
//! * an **operating layer** of 16-bit Dnodes arranged in layers around a
//!   ring ([`dnode`], [`RingMachine`]),
//! * dynamically reconfigurable **switches** between adjacent layers, each
//!   owning a **feedback pipeline** that forms the reverse dataflow
//!   ([`switch`]),
//! * a multi-context **configuration layer** ([`config`]),
//! * a **RISC configuration controller** with a dedicated instruction set
//!   ([`controller`]),
//! * a **host interface** of direct dedicated ports with a bandwidth model
//!   ([`host`]).
//!
//! Everything advances under a single two-phase clock (see
//! [`RingMachine::step`]), so simulated cycle counts are exact and
//! deterministic — they are the substrate for every performance figure in
//! the reproduction.
//!
//! # Examples
//!
//! Build a Ring-8, route a host stream through a pass-through Dnode and
//! capture the results:
//!
//! ```
//! use systolic_ring_core::RingMachine;
//! use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand};
//! use systolic_ring_isa::switch::{HostCapture, PortSource};
//! use systolic_ring_isa::{RingGeometry, Word16};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = RingMachine::with_defaults(RingGeometry::RING_8);
//! // Dnode (layer 0, lane 0): out = in1 + 1.
//! m.configure().set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })?;
//! m.configure().set_dnode_instr(
//!     0,
//!     0,
//!     MicroInstr::op(AluOp::Add, Operand::In1, Operand::One).write_out(),
//! )?;
//! // Switch 1 (after layer 0) captures lane 0 to the host.
//! m.configure().set_capture(0, 1, 0, HostCapture::lane(0))?;
//! m.open_sink(1, 0)?;
//! m.attach_input(0, 0, [10, 20, 30].map(Word16::from_i16))?;
//! m.run(8)?;
//! let out = m.take_sink(1, 0)?;
//! assert!(out.windows(2).any(|w| w == [Word16::from_i16(11), Word16::from_i16(21)]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod controller;
pub mod dnode;
mod error;
pub mod fault;
pub mod fused;
pub mod host;
mod machine;
mod params;
mod plan;
pub mod stats;
pub mod switch;
pub mod trace;

pub use error::{ConfigError, SimError};
pub use fault::{FaultConfig, FaultInjector, FaultSite};
pub use fused::lockstep_burst;
pub use machine::{Checkpoint, RingMachine};
pub use params::{with_aot, with_decode_cache, with_faults, with_fused, LinkModel, MachineParams};
pub use stats::{DnodeStats, Stats};
