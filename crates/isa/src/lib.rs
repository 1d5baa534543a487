//! Warp-level intermediate representation (IR) and functional executor.
//!
//! Workloads are expressed in a small PTX-like register IR: ALU operations
//! over 32-lane warps, loads/stores whose addresses come from registers
//! (so that address computation is visible dataflow — the partitioned
//! execution mechanism of §4 splits exactly along that line), structured
//! loops, and barriers. The functional executor computes real per-lane
//! values (memory contents are synthesized deterministically), which makes
//! indirect accesses like `B[A[i]]` produce genuinely data-dependent
//! divergent address streams.
//!
//! [`verify`] statically re-derives every offload-block annotation from the
//! program text and diffs it against the stored block; every system
//! construction runs it.

#![forbid(unsafe_code)]

pub mod disasm;
pub mod exec;
pub mod instr;
pub mod offload;
pub mod program;
pub mod verify;

pub use instr::{AluOp, Instr, MemSpace, Operand, Reg};
pub use offload::{InstrRole, NsuInstr, OffloadBlock};
pub use program::{ArrayDecl, Item, Program, TripCount};
pub use verify::{verify_block, verify_blocks, PartitionDiag};

/// SIMT width. The whole model is specialized to 32-lane warps (Table 2).
pub const WARP_WIDTH: usize = 32;

/// Per-lane values of one register across the warp.
pub type LaneValues = [u64; WARP_WIDTH];
