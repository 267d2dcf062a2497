//! # svw-isa
//!
//! Instruction-set and architectural-state model used by the Store Vulnerability
//! Window (SVW) reproduction.
//!
//! The simulator stack is *trace driven*: a workload generator (the `svw-workloads`
//! crate) produces a stream of [`DynInst`] records — dynamic instructions whose
//! effective addresses and sequential ("oracle") values are already resolved — and the
//! out-of-order core (the `svw-cpu` crate) replays that stream under a detailed timing
//! model. This crate defines:
//!
//! * the register / address / value newtypes ([`ArchReg`], [`Addr`], [`Value`], [`Pc`]),
//! * the operation vocabulary ([`OpClass`], [`AluKind`], [`BranchKind`], [`MemWidth`]),
//! * the dynamic instruction record ([`DynInst`], [`InstKind`], [`MemAccess`]),
//! * a byte-addressable functional memory image ([`MemoryImage`]) shared by the trace
//!   generator's oracle and the simulator's committed-state model, and
//! * a sequential oracle executor ([`ArchState`]) that defines the architectural
//!   semantics every out-of-order execution must eventually agree with.
//!
//! # Example
//!
//! ```
//! use svw_isa::{ArchState, ArchReg, DynInst, InstKind, MemWidth};
//!
//! let mut st = ArchState::new();
//! // r1 = 0x1000; store r1 -> [r1 + 8]; r2 = load [r1 + 8]
//! let i0 = DynInst::new(0, 0x400000, InstKind::LoadImm { dst: ArchReg::new(1), imm: 0x1000 });
//! let i1 = DynInst::new(1, 0x400004, InstKind::Store {
//!     data: ArchReg::new(1), base: ArchReg::new(1), offset: 8, width: MemWidth::W8 });
//! let i2 = DynInst::new(2, 0x400008, InstKind::Load {
//!     dst: ArchReg::new(2), base: ArchReg::new(1), offset: 8, width: MemWidth::W8 });
//! let mut trace = vec![i0, i1, i2];
//! for inst in &mut trace {
//!     st.execute(inst);
//! }
//! assert_eq!(trace[2].mem.as_ref().unwrap().value, 0x1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inst;
mod mem_image;
mod op;
mod oracle;
mod program;
mod types;

pub use inst::{BranchInfo, DynInst, InstKind, MemAccess};
pub use mem_image::{IntKeyHasher, IntKeyMap, MemoryImage};
pub use op::{AluKind, BranchKind, MemWidth, OpClass};
pub use oracle::{ArchState, ExecEffect};
pub use program::{Program, ProgramStats};
pub use types::{Addr, ArchReg, InstSeq, Pc, Value, NUM_ARCH_REGS};
