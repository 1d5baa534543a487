//! Instruction set: registers, operands, ALU operations, memory spaces.

use std::fmt;

/// A warp register (per-lane 64-bit value). Up to 64 registers per kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

ndp_common::snap_value!(Reg(u8));

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Instruction source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    Reg(Reg),
    /// Immediate (also used for array base addresses).
    Imm(u64),
    /// Global thread index: `warp_global_index * 32 + lane`.
    Tid,
    /// Lane index within the warp (0..32).
    Lane,
    /// Global warp index.
    WarpId,
    /// Current trip counter of the loop at nesting `depth` (0 = outermost
    /// active loop).
    Iter(u8),
}

impl Operand {
    pub fn reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "0x{v:x}"),
            Operand::Tid => write!(f, "%tid"),
            Operand::Lane => write!(f, "%lane"),
            Operand::WarpId => write!(f, "%warp"),
            Operand::Iter(d) => write!(f, "%iter{d}"),
        }
    }
}

/// ALU operations. Integer ops use wrapping u64 arithmetic; floating-point
/// ops operate on the low 32 bits as IEEE-754 binary32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    IAdd,
    ISub,
    IMul,
    /// dst = a * b + c
    IMad,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    /// dst = a (register move / immediate load)
    Mov,
    /// dst = min(a, b) on u64
    IMin,
    /// dst = (a < b) ? 1 : 0 on u64
    SetLt,
    /// dst = c ? a : b  (per-lane select; c is a 0/1 predicate value)
    Sel,
    FAdd,
    FSub,
    FMul,
    /// dst = a * b + c
    FMad,
    FMin,
    FMax,
    /// Special-function unit ops (longer latency).
    FDiv,
    FSqrt,
    FRcp,
    FExp,
}

impl AluOp {
    /// Special-function-unit ops have longer latency on the GPU/NSU.
    pub fn is_sfu(&self) -> bool {
        matches!(self, AluOp::FDiv | AluOp::FSqrt | AluOp::FRcp | AluOp::FExp)
    }

    /// Number of source operands (2 or 3).
    pub fn arity(&self) -> usize {
        match self {
            AluOp::IMad | AluOp::FMad | AluOp::Sel => 3,
            AluOp::Mov | AluOp::FSqrt | AluOp::FRcp | AluOp::FExp => 1,
            _ => 2,
        }
    }

    pub fn mnemonic(&self) -> &'static str {
        match self {
            AluOp::IAdd => "ADD",
            AluOp::ISub => "SUB",
            AluOp::IMul => "MUL",
            AluOp::IMad => "MAD",
            AluOp::And => "AND",
            AluOp::Or => "OR",
            AluOp::Xor => "XOR",
            AluOp::Shl => "SHL",
            AluOp::Shr => "SHR",
            AluOp::Mov => "MOV",
            AluOp::IMin => "MIN",
            AluOp::SetLt => "SETP.LT",
            AluOp::Sel => "SEL",
            AluOp::FAdd => "FADD",
            AluOp::FSub => "FSUB",
            AluOp::FMul => "FMUL",
            AluOp::FMad => "FMAD",
            AluOp::FMin => "FMIN",
            AluOp::FMax => "FMAX",
            AluOp::FDiv => "FDIV",
            AluOp::FSqrt => "FSQRT",
            AluOp::FRcp => "FRCP",
            AluOp::FExp => "FEXP",
        }
    }
}

/// Memory spaces. Only `Global` generates off-chip traffic; `Shared` is the
/// on-chip scratchpad ("shared memory" in CUDA) and `Const` the small
/// constant cache — both disqualify enclosing offload blocks (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    Global,
    Shared,
    Const,
}

/// One static instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = op(a, b, c?)`
    Alu {
        op: AluOp,
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Option<Operand>,
    },
    /// `dst = mem[addr_reg]` — per-lane addresses from `addr`.
    Ld {
        dst: Reg,
        space: MemSpace,
        addr: Reg,
    },
    /// `mem[addr_reg] = val`
    St {
        val: Reg,
        space: MemSpace,
        addr: Reg,
    },
}

impl Instr {
    /// Convenience constructors used heavily by the workload kernels.
    pub fn alu(op: AluOp, dst: Reg, a: Operand, b: Operand) -> Instr {
        debug_assert!(op.arity() <= 2);
        Instr::Alu {
            op,
            dst,
            a,
            b,
            c: None,
        }
    }

    pub fn alu3(op: AluOp, dst: Reg, a: Operand, b: Operand, c: Operand) -> Instr {
        debug_assert_eq!(op.arity(), 3);
        Instr::Alu {
            op,
            dst,
            a,
            b,
            c: Some(c),
        }
    }

    pub fn mov(dst: Reg, a: Operand) -> Instr {
        Instr::Alu {
            op: AluOp::Mov,
            dst,
            a,
            b: Operand::Imm(0),
            c: None,
        }
    }

    pub fn ld(dst: Reg, addr: Reg) -> Instr {
        Instr::Ld {
            dst,
            space: MemSpace::Global,
            addr,
        }
    }

    pub fn st(val: Reg, addr: Reg) -> Instr {
        Instr::St {
            val,
            space: MemSpace::Global,
            addr,
        }
    }

    /// Destination register, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Alu { dst, .. } | Instr::Ld { dst, .. } => Some(*dst),
            Instr::St { .. } => None,
        }
    }

    /// Visit every register the instruction names: its destination and
    /// every register operand, including an ALU operand its op ignores
    /// (the executor still evaluates it). Sizes the warp register file.
    pub fn for_each_named_reg(&self, mut f: impl FnMut(Reg)) {
        match self {
            Instr::Alu { dst, a, b, c, .. } => {
                f(*dst);
                for o in [Some(*a), Some(*b), *c].into_iter().flatten() {
                    if let Some(r) = o.reg() {
                        f(r);
                    }
                }
            }
            Instr::Ld { dst, addr, .. } => {
                f(*dst);
                f(*addr);
            }
            Instr::St { val, addr, .. } => {
                f(*val);
                f(*addr);
            }
        }
    }

    /// Source registers (including address registers).
    /// Visit every source register without allocating (hot-path variant of
    /// [`Instr::srcs`] for the per-issue-attempt scoreboard check).
    pub fn for_each_src(&self, mut f: impl FnMut(Reg)) {
        match self {
            Instr::Alu { op, a, b, c, .. } => {
                if let Some(r) = a.reg() {
                    f(r);
                }
                if op.arity() >= 2 {
                    if let Some(r) = b.reg() {
                        f(r);
                    }
                }
                if let Some(c) = c {
                    if let Some(r) = c.reg() {
                        f(r);
                    }
                }
            }
            Instr::Ld { addr, .. } => f(*addr),
            Instr::St { val, addr, .. } => {
                f(*val);
                f(*addr);
            }
        }
    }

    pub fn srcs(&self) -> Vec<Reg> {
        match self {
            Instr::Alu { op, a, b, c, .. } => {
                let mut v = Vec::with_capacity(3);
                if let Some(r) = a.reg() {
                    v.push(r);
                }
                if op.arity() >= 2 {
                    if let Some(r) = b.reg() {
                        v.push(r);
                    }
                }
                if let Some(c) = c {
                    if let Some(r) = c.reg() {
                        v.push(r);
                    }
                }
                v
            }
            Instr::Ld { addr, .. } => vec![*addr],
            Instr::St { val, addr, .. } => vec![*val, *addr],
        }
    }

    /// Non-address source registers (value operands only). For an ALU op
    /// this is all sources; for a store only the data register; a load has
    /// none.
    pub fn value_srcs(&self) -> Vec<Reg> {
        match self {
            Instr::Alu { .. } => self.srcs(),
            Instr::Ld { .. } => vec![],
            Instr::St { val, .. } => vec![*val],
        }
    }

    /// The address register of a memory instruction.
    pub fn addr_reg(&self) -> Option<Reg> {
        match self {
            Instr::Ld { addr, .. } | Instr::St { addr, .. } => Some(*addr),
            Instr::Alu { .. } => None,
        }
    }

    pub fn is_mem(&self) -> bool {
        matches!(self, Instr::Ld { .. } | Instr::St { .. })
    }

    pub fn is_global_mem(&self) -> bool {
        matches!(
            self,
            Instr::Ld {
                space: MemSpace::Global,
                ..
            } | Instr::St {
                space: MemSpace::Global,
                ..
            }
        )
    }

    pub fn mem_space(&self) -> Option<MemSpace> {
        match self {
            Instr::Ld { space, .. } | Instr::St { space, .. } => Some(*space),
            Instr::Alu { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_sfu_classification() {
        assert_eq!(AluOp::IMad.arity(), 3);
        assert_eq!(AluOp::Mov.arity(), 1);
        assert_eq!(AluOp::FMul.arity(), 2);
        assert!(AluOp::FDiv.is_sfu());
        assert!(!AluOp::FMad.is_sfu());
    }

    #[test]
    fn src_dst_extraction() {
        let i = Instr::alu3(
            AluOp::IMad,
            Reg(5),
            Operand::Reg(Reg(1)),
            Operand::Imm(4),
            Operand::Reg(Reg(2)),
        );
        assert_eq!(i.dst(), Some(Reg(5)));
        assert_eq!(i.srcs(), vec![Reg(1), Reg(2)]);

        let st = Instr::st(Reg(3), Reg(4));
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs(), vec![Reg(3), Reg(4)]);
        assert_eq!(st.value_srcs(), vec![Reg(3)]);
        assert_eq!(st.addr_reg(), Some(Reg(4)));

        let ld = Instr::ld(Reg(7), Reg(8));
        assert!(ld.value_srcs().is_empty());
        assert_eq!(ld.addr_reg(), Some(Reg(8)));
    }

    #[test]
    fn global_mem_detection() {
        assert!(Instr::ld(Reg(0), Reg(1)).is_global_mem());
        let sh = Instr::Ld {
            dst: Reg(0),
            space: MemSpace::Shared,
            addr: Reg(1),
        };
        assert!(sh.is_mem() && !sh.is_global_mem());
        assert!(!Instr::mov(Reg(0), Operand::Tid).is_mem());
    }

    #[test]
    fn mov_has_single_source() {
        let m = Instr::mov(Reg(2), Operand::Reg(Reg(9)));
        assert_eq!(m.srcs(), vec![Reg(9)]);
    }
}
