//! Functional warp executor.
//!
//! Executes a [`Program`] for one warp, computing real per-lane register
//! values. The *timing* simulators (GPU SM and NSU) drive this executor:
//! they `current()` the next instruction, apply scoreboard/latency rules,
//! then `step()` to commit its functional effect. Memory contents are
//! synthesized with [`ndp_common::rng::mem_value`], identical on the GPU and
//! NSU sides, so partitioned execution is functionally transparent.

use crate::instr::{AluOp, Instr, MemSpace, Operand, Reg};
use crate::program::{Item, Program};
use crate::{LaneValues, WARP_WIDTH};
use ndp_common::rng::mem_value;

/// The next dynamic instruction a warp will execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Alu {
        /// Index into `program.items`.
        idx: usize,
        op: AluOp,
        dst: Reg,
    },
    Load {
        idx: usize,
        dst: Reg,
        space: MemSpace,
        addrs: LaneValues,
        active: u32,
    },
    Store {
        idx: usize,
        space: MemSpace,
        addrs: LaneValues,
        active: u32,
    },
    Barrier {
        idx: usize,
    },
    Done,
}

impl Step {
    pub fn idx(&self) -> Option<usize> {
        match self {
            Step::Alu { idx, .. }
            | Step::Load { idx, .. }
            | Step::Store { idx, .. }
            | Step::Barrier { idx } => Some(*idx),
            Step::Done => None,
        }
    }
}

/// Lightweight decode of the next dynamic instruction: like [`Step`] but
/// memory steps carry the address *register* instead of a copied lane-value
/// vector. The timing simulators probe warps many times per issued
/// instruction (scoreboard stalls, structural hazards), and copying 256 B
/// of addresses per probe dominated the issue path; callers that actually
/// need the addresses read them through [`WarpExec::reg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepLite {
    Alu {
        /// Index into `program.items`.
        idx: usize,
        op: AluOp,
        dst: Reg,
    },
    Load {
        idx: usize,
        dst: Reg,
        space: MemSpace,
        addr: Reg,
    },
    Store {
        idx: usize,
        space: MemSpace,
        addr: Reg,
    },
    Barrier {
        idx: usize,
    },
    Done,
}

impl StepLite {
    pub fn idx(&self) -> Option<usize> {
        match self {
            StepLite::Alu { idx, .. }
            | StepLite::Load { idx, .. }
            | StepLite::Store { idx, .. }
            | StepLite::Barrier { idx } => Some(*idx),
            StepLite::Done => None,
        }
    }
}

#[derive(Debug, Clone)]
struct LoopFrame {
    body_pc: usize,
    remaining: u32,
    iter: u32,
}

/// Functional state of one warp.
#[derive(Debug, Clone)]
pub struct WarpExec {
    pc: usize,
    loops: Vec<LoopFrame>,
    regs: Vec<LaneValues>,
    /// Global warp index (drives `%tid`, `%warp`, per-warp trip counts).
    pub warp_global: u32,
    /// Active-lane mask.
    pub active: u32,
    seed: u64,
    /// `items[i]` for LoopBegin → index of matching LoopEnd.
    match_end: Vec<usize>,
    done: bool,
    /// Dynamic instruction count executed so far.
    pub executed: u64,
}

impl WarpExec {
    /// A warp at the program's entry. The register file holds exactly the
    /// registers the program names (1 + the highest one any instruction
    /// reads or writes), not the ISA's 64: the lane values dominate a
    /// checkpoint image, and no instruction can reach a register beyond.
    pub fn new(program: &Program, warp_global: u32, active: u32, seed: u64) -> Self {
        let mut match_end = vec![usize::MAX; program.items.len()];
        let mut stack = vec![];
        let mut nregs = 0;
        for (i, item) in program.items.iter().enumerate() {
            match item {
                Item::LoopBegin(_) => stack.push(i),
                Item::LoopEnd => {
                    let b = stack.pop().expect("validated program");
                    match_end[b] = i;
                }
                Item::Op(instr) => {
                    instr.for_each_named_reg(|r| nregs = nregs.max(r.0 as usize + 1))
                }
                Item::Bar => {}
            }
        }
        assert!(stack.is_empty(), "unbalanced loops — validate() first");
        WarpExec {
            pc: 0,
            loops: vec![],
            regs: vec![[0; WARP_WIDTH]; nregs],
            warp_global,
            active,
            seed,
            match_end,
            done: false,
            executed: 0,
        }
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Size of the register file (see [`WarpExec::new`]).
    pub fn num_regs(&self) -> usize {
        self.regs.len()
    }

    pub fn reg(&self, r: Reg) -> &LaneValues {
        &self.regs[r.0 as usize]
    }

    pub fn set_reg(&mut self, r: Reg, v: LaneValues) {
        self.regs[r.0 as usize] = v;
    }

    /// Index (into `items`) of the next instruction, if any.
    pub fn pc(&self) -> usize {
        self.pc
    }

    fn operand(&self, o: Operand, lane: usize) -> u64 {
        match o {
            Operand::Reg(r) => self.regs[r.0 as usize][lane],
            Operand::Imm(v) => v,
            Operand::Tid => self.warp_global as u64 * WARP_WIDTH as u64 + lane as u64,
            Operand::Lane => lane as u64,
            Operand::WarpId => self.warp_global as u64,
            Operand::Iter(d) => {
                // Iter(0) = innermost active loop.
                let n = self.loops.len();
                let depth = d as usize;
                if depth < n {
                    self.loops[n - 1 - depth].iter as u64
                } else {
                    0
                }
            }
        }
    }

    /// Skip loop markers, resolving trip counts, until pc rests on an
    /// executable item (Op/Bar) or the program end.
    fn settle(&mut self, program: &Program) {
        loop {
            if self.pc >= program.items.len() {
                self.done = true;
                return;
            }
            match &program.items[self.pc] {
                Item::LoopBegin(t) => {
                    let trips = t.resolve(self.warp_global, self.seed);
                    if trips == 0 {
                        self.pc = self.match_end[self.pc] + 1;
                    } else {
                        self.loops.push(LoopFrame {
                            body_pc: self.pc + 1,
                            remaining: trips,
                            iter: 0,
                        });
                        self.pc += 1;
                    }
                }
                Item::LoopEnd => {
                    let f = self.loops.last_mut().expect("loop stack underflow");
                    f.remaining -= 1;
                    f.iter += 1;
                    if f.remaining == 0 {
                        self.loops.pop();
                        self.pc += 1;
                    } else {
                        self.pc = f.body_pc;
                    }
                }
                Item::Op(_) | Item::Bar => return,
            }
        }
    }

    /// The next dynamic instruction (without executing it).
    pub fn current(&mut self, program: &Program) -> Step {
        self.settle(program);
        if self.done {
            return Step::Done;
        }
        let idx = self.pc;
        match &program.items[idx] {
            Item::Bar => Step::Barrier { idx },
            Item::Op(instr) => match instr {
                Instr::Alu { op, dst, .. } => Step::Alu {
                    idx,
                    op: *op,
                    dst: *dst,
                },
                Instr::Ld { dst, space, addr } => Step::Load {
                    idx,
                    dst: *dst,
                    space: *space,
                    addrs: *self.reg(*addr),
                    active: self.active,
                },
                Instr::St { space, addr, .. } => Step::Store {
                    idx,
                    space: *space,
                    addrs: *self.reg(*addr),
                    active: self.active,
                },
            },
            _ => unreachable!("settle() leaves pc on Op/Bar"),
        }
    }

    /// The next dynamic instruction, decoded without copying lane values —
    /// the hot-path companion of [`WarpExec::current`].
    pub fn current_lite(&mut self, program: &Program) -> StepLite {
        self.settle(program);
        if self.done {
            return StepLite::Done;
        }
        let idx = self.pc;
        match &program.items[idx] {
            Item::Bar => StepLite::Barrier { idx },
            Item::Op(instr) => match instr {
                Instr::Alu { op, dst, .. } => StepLite::Alu {
                    idx,
                    op: *op,
                    dst: *dst,
                },
                Instr::Ld { dst, space, addr } => StepLite::Load {
                    idx,
                    dst: *dst,
                    space: *space,
                    addr: *addr,
                },
                Instr::St { space, addr, .. } => StepLite::Store {
                    idx,
                    space: *space,
                    addr: *addr,
                },
            },
            _ => unreachable!("settle() leaves pc on Op/Bar"),
        }
    }

    /// Execute the current instruction functionally and advance, without
    /// rebuilding the [`Step`] — the hot-path variant of [`WarpExec::step`]
    /// for callers that already hold the decoded step from `current()`.
    pub fn advance(&mut self, program: &Program) {
        self.settle(program);
        if self.done {
            return;
        }
        if let Item::Op(instr) = &program.items[self.pc] {
            self.execute(instr.clone());
        }
        self.executed += 1;
        self.pc += 1;
    }

    /// Execute the current instruction functionally and advance.
    pub fn step(&mut self, program: &Program) -> Step {
        let step = self.current(program);
        if let Step::Done = step {
            return step;
        }
        let idx = self.pc;
        if let Item::Op(instr) = &program.items[idx] {
            self.execute(instr.clone());
        }
        self.executed += 1;
        self.pc += 1;
        step
    }

    fn execute(&mut self, instr: Instr) {
        match instr {
            Instr::Alu { op, dst, a, b, c } => {
                let mut out = [0u64; WARP_WIDTH];
                for (lane, o) in out.iter_mut().enumerate() {
                    let av = self.operand(a, lane);
                    let bv = self.operand(b, lane);
                    let cv = c.map(|c| self.operand(c, lane)).unwrap_or(0);
                    *o = alu_eval(op, av, bv, cv);
                }
                self.regs[dst.0 as usize] = out;
            }
            Instr::Ld { dst, addr, .. } => {
                let addrs = self.regs[addr.0 as usize];
                let mut out = self.regs[dst.0 as usize];
                for (lane, o) in out.iter_mut().enumerate() {
                    if self.active & (1 << lane) != 0 {
                        *o = mem_value(self.seed, addrs[lane]);
                    }
                }
                self.regs[dst.0 as usize] = out;
            }
            Instr::St { .. } => {
                // Stores are timing-only (see DESIGN.md — workloads never
                // read back their own in-kernel writes through addresses).
            }
        }
    }
}

ndp_common::snap_value!(LoopFrame {
    body_pc,
    remaining,
    iter
});

ndp_common::snap_state!(WarpExec {
    pc, loops, regs [words], warp_global, active, seed, done, executed;
    derived: match_end
});

#[inline]
fn f32v(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline]
fn f32b(x: f32) -> u64 {
    x.to_bits() as u64
}

/// Evaluate an ALU op on one lane.
pub fn alu_eval(op: AluOp, a: u64, b: u64, c: u64) -> u64 {
    match op {
        AluOp::IAdd => a.wrapping_add(b),
        AluOp::ISub => a.wrapping_sub(b),
        AluOp::IMul => a.wrapping_mul(b),
        AluOp::IMad => a.wrapping_mul(b).wrapping_add(c),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32 & 63),
        AluOp::Shr => a.wrapping_shr(b as u32 & 63),
        AluOp::Mov => a,
        AluOp::IMin => a.min(b),
        AluOp::SetLt => u64::from(a < b),
        AluOp::Sel => {
            if c != 0 {
                a
            } else {
                b
            }
        }
        AluOp::FAdd => f32b(f32v(a) + f32v(b)),
        AluOp::FSub => f32b(f32v(a) - f32v(b)),
        AluOp::FMul => f32b(f32v(a) * f32v(b)),
        AluOp::FMad => f32b(f32v(a).mul_add(f32v(b), f32v(c))),
        AluOp::FMin => f32b(f32v(a).min(f32v(b))),
        AluOp::FMax => f32b(f32v(a).max(f32v(b))),
        AluOp::FDiv => f32b(f32v(a) / f32v(b)),
        AluOp::FSqrt => f32b(f32v(a).abs().sqrt()),
        AluOp::FRcp => f32b(1.0 / f32v(a)),
        AluOp::FExp => f32b(f32v(a).exp()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr as I;
    use crate::program::TripCount;

    const ALL: u32 = u32::MAX;

    fn run_to_end(p: &Program, warp: u32) -> WarpExec {
        let mut w = WarpExec::new(p, warp, ALL, 42);
        let mut guard = 0;
        loop {
            match w.step(p) {
                Step::Done => break,
                _ => {
                    guard += 1;
                    assert!(guard < 1_000_000, "runaway program");
                }
            }
        }
        w
    }

    #[test]
    fn tid_and_lane_semantics() {
        let mut p = Program::new("t", 2);
        p.items = vec![
            Item::Op(I::mov(Reg(0), Operand::Tid)),
            Item::Op(I::mov(Reg(1), Operand::Lane)),
        ];
        let w = run_to_end(&p, 3);
        assert_eq!(w.reg(Reg(0))[0], 96);
        assert_eq!(w.reg(Reg(0))[31], 127);
        assert_eq!(w.reg(Reg(1))[5], 5);
    }

    #[test]
    fn loop_executes_trip_count_times() {
        let mut p = Program::new("t", 1);
        p.items = vec![
            Item::Op(I::mov(Reg(0), Operand::Imm(0))),
            Item::LoopBegin(TripCount::Const(7)),
            Item::Op(I::alu(
                AluOp::IAdd,
                Reg(0),
                Operand::Reg(Reg(0)),
                Operand::Imm(1),
            )),
            Item::LoopEnd,
        ];
        let w = run_to_end(&p, 0);
        assert_eq!(w.reg(Reg(0))[0], 7);
        assert_eq!(w.executed, 8);
    }

    #[test]
    fn nested_loops_and_iter_operand() {
        // sum += inner_iter for 3 outer × 4 inner; iter(0) = innermost.
        let mut p = Program::new("t", 1);
        p.items = vec![
            Item::Op(I::mov(Reg(0), Operand::Imm(0))),
            Item::LoopBegin(TripCount::Const(3)),
            Item::LoopBegin(TripCount::Const(4)),
            Item::Op(I::alu(
                AluOp::IAdd,
                Reg(0),
                Operand::Reg(Reg(0)),
                Operand::Iter(0),
            )),
            Item::LoopEnd,
            Item::LoopEnd,
        ];
        let w = run_to_end(&p, 0);
        // inner iters 0+1+2+3 = 6, × 3 outer = 18.
        assert_eq!(w.reg(Reg(0))[0], 18);
    }

    #[test]
    fn zero_trip_loop_skipped() {
        let mut p = Program::new("t", 1);
        p.items = vec![
            Item::Op(I::mov(Reg(0), Operand::Imm(5))),
            Item::LoopBegin(TripCount::Const(0)),
            Item::Op(I::mov(Reg(0), Operand::Imm(9))),
            Item::LoopEnd,
        ];
        let w = run_to_end(&p, 0);
        assert_eq!(w.reg(Reg(0))[0], 5);
    }

    #[test]
    fn load_values_are_deterministic_memory_contents() {
        let mut p = Program::new("t", 1);
        p.items = vec![
            // addr = tid*4 + 0x1000
            Item::Op(I::alu3(
                AluOp::IMad,
                Reg(1),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(0x1000),
            )),
            Item::Op(I::ld(Reg(2), Reg(1))),
        ];
        let w = run_to_end(&p, 0);
        for lane in 0..4 {
            let addr = 0x1000 + 4 * lane as u64;
            assert_eq!(w.reg(Reg(2))[lane], mem_value(42, addr));
        }
    }

    #[test]
    fn inactive_lanes_do_not_load() {
        let mut p = Program::new("t", 1);
        p.items = vec![
            Item::Op(I::mov(Reg(1), Operand::Imm(0x2000))),
            Item::Op(I::ld(Reg(2), Reg(1))),
        ];
        let mut w = WarpExec::new(&p, 0, 0b1, 42);
        while !matches!(w.step(&p), Step::Done) {}
        assert_eq!(w.reg(Reg(2))[0], mem_value(42, 0x2000));
        assert_eq!(w.reg(Reg(2))[1], 0, "inactive lane untouched");
    }

    #[test]
    fn float_ops_roundtrip() {
        assert_eq!(f32v(alu_eval(AluOp::FAdd, f32b(1.5), f32b(2.25), 0)), 3.75);
        assert_eq!(
            f32v(alu_eval(AluOp::FMad, f32b(2.0), f32b(3.0), f32b(1.0))),
            7.0
        );
        assert_eq!(f32v(alu_eval(AluOp::FDiv, f32b(1.0), f32b(4.0), 0)), 0.25);
    }

    #[test]
    fn select_and_compare() {
        assert_eq!(alu_eval(AluOp::SetLt, 3, 5, 0), 1);
        assert_eq!(alu_eval(AluOp::SetLt, 5, 3, 0), 0);
        assert_eq!(alu_eval(AluOp::Sel, 10, 20, 1), 10);
        assert_eq!(alu_eval(AluOp::Sel, 10, 20, 0), 20);
    }

    #[test]
    fn current_is_idempotent_step_advances() {
        let mut p = Program::new("t", 1);
        p.items = vec![Item::Op(I::mov(Reg(0), Operand::Imm(1)))];
        let mut w = WarpExec::new(&p, 0, ALL, 1);
        let c1 = w.current(&p);
        let c2 = w.current(&p);
        assert_eq!(c1, c2);
        let s = w.step(&p);
        assert_eq!(s, c1);
        assert!(matches!(w.step(&p), Step::Done));
        assert!(w.is_done());
    }

    #[test]
    fn current_lite_mirrors_current() {
        let mut p = Program::new("t", 1);
        p.items = vec![
            Item::Op(I::alu3(
                AluOp::IMad,
                Reg(1),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(0x1000),
            )),
            Item::Op(I::ld(Reg(2), Reg(1))),
            Item::Bar,
            Item::Op(I::st(Reg(2), Reg(1))),
        ];
        let mut w = WarpExec::new(&p, 0, ALL, 42);
        loop {
            let lite = w.current_lite(&p);
            let full = w.current(&p);
            assert_eq!(lite.idx(), full.idx());
            match (lite, &full) {
                (StepLite::Done, Step::Done) => break,
                (StepLite::Barrier { .. }, Step::Barrier { .. }) => {}
                (
                    StepLite::Alu { op, dst, .. },
                    Step::Alu {
                        op: o2, dst: d2, ..
                    },
                ) => {
                    assert_eq!((op, dst), (*o2, *d2));
                }
                (
                    StepLite::Load {
                        dst, space, addr, ..
                    },
                    Step::Load {
                        dst: d2,
                        space: s2,
                        addrs,
                        active,
                        ..
                    },
                ) => {
                    assert_eq!((dst, space), (*d2, *s2));
                    assert_eq!(
                        w.reg(addr),
                        addrs,
                        "addr register resolves to the copied lanes"
                    );
                    assert_eq!(*active, w.active);
                }
                (
                    StepLite::Store { space, addr, .. },
                    Step::Store {
                        space: s2, addrs, ..
                    },
                ) => {
                    assert_eq!(space, *s2);
                    assert_eq!(w.reg(addr), addrs);
                }
                (l, f) => panic!("decode mismatch: {l:?} vs {f:?}"),
            }
            w.advance(&p);
        }
        assert!(w.is_done());
    }

    #[test]
    fn integer_ops_wrap_and_mask() {
        assert_eq!(alu_eval(AluOp::IAdd, u64::MAX, 1, 0), 0);
        assert_eq!(alu_eval(AluOp::ISub, 0, 1, 0), u64::MAX);
        assert_eq!(alu_eval(AluOp::IMul, 1 << 63, 2, 0), 0);
        assert_eq!(alu_eval(AluOp::Shl, 1, 65, 0), 2, "shift amount masked");
        assert_eq!(alu_eval(AluOp::Shr, 8, 2, 0), 2);
        assert_eq!(alu_eval(AluOp::And, 0b1100, 0b1010, 0), 0b1000);
        assert_eq!(alu_eval(AluOp::Or, 0b1100, 0b1010, 0), 0b1110);
        assert_eq!(alu_eval(AluOp::Xor, 0b1100, 0b1010, 0), 0b0110);
        assert_eq!(alu_eval(AluOp::IMin, 7, 3, 0), 3);
        assert_eq!(alu_eval(AluOp::IMad, 3, 4, 5,), 17);
    }

    #[test]
    fn sfu_ops_compute() {
        assert_eq!(f32v(alu_eval(AluOp::FSqrt, f32b(9.0), 0, 0)), 3.0);
        assert_eq!(f32v(alu_eval(AluOp::FRcp, f32b(4.0), 0, 0)), 0.25);
        let e = f32v(alu_eval(AluOp::FExp, f32b(1.0), 0, 0));
        assert!((e - std::f32::consts::E).abs() < 1e-6);
        assert_eq!(f32v(alu_eval(AluOp::FMin, f32b(1.0), f32b(2.0), 0)), 1.0);
        assert_eq!(f32v(alu_eval(AluOp::FMax, f32b(1.0), f32b(2.0), 0)), 2.0);
    }

    #[test]
    fn executed_counter_tracks_dynamic_instructions() {
        let mut p = Program::new("t", 1);
        p.items = vec![
            Item::Op(I::mov(Reg(0), Operand::Imm(0))),
            Item::LoopBegin(TripCount::Const(5)),
            Item::Op(I::alu(
                AluOp::IAdd,
                Reg(0),
                Operand::Reg(Reg(0)),
                Operand::Imm(1),
            )),
            Item::LoopEnd,
        ];
        let w = run_to_end(&p, 0);
        assert_eq!(w.executed, 6);
    }

    #[test]
    fn register_file_is_program_sized_and_restore_checks_it() {
        let mut small = Program::new("t", 1);
        small.items = vec![
            Item::Op(I::mov(Reg(0), Operand::Tid)),
            Item::Op(I::alu(
                AluOp::IAdd,
                Reg(3),
                Operand::Reg(Reg(0)),
                Operand::Imm(1),
            )),
        ];
        let mut big = small.clone();
        big.items.push(Item::Op(I::st(Reg(3), Reg(9))));
        let w = run_to_end(&small, 1);
        assert_eq!(w.num_regs(), 4, "registers r0..=r3");
        assert_eq!(WarpExec::new(&big, 0, ALL, 42).num_regs(), 10);

        use ndp_common::snap::SnapState;
        let mut snap = ndp_common::snap::SnapWriter::new();
        w.snap(&mut snap);
        let bytes = snap.into_bytes();
        let mut same = WarpExec::new(&small, 0, 0, 0);
        let mut r = ndp_common::snap::SnapReader::new(&bytes);
        same.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(same.reg(Reg(3)), w.reg(Reg(3)));

        let mut other = WarpExec::new(&big, 0, 0, 0);
        let e = other
            .restore(&mut ndp_common::snap::SnapReader::new(&bytes))
            .unwrap_err();
        assert!(
            e.0.contains("WarpExec.regs") && e.0.contains("built with 10, checkpoint has 4"),
            "{e}"
        );
    }

    #[test]
    fn per_warp_trips_diverge_across_warps() {
        let mut p = Program::new("t", 4);
        p.items = vec![
            Item::Op(I::mov(Reg(0), Operand::Imm(0))),
            Item::LoopBegin(TripCount::PerWarp {
                base: 1,
                spread: 64,
            }),
            Item::Op(I::alu(
                AluOp::IAdd,
                Reg(0),
                Operand::Reg(Reg(0)),
                Operand::Imm(1),
            )),
            Item::LoopEnd,
        ];
        let a = run_to_end(&p, 0).reg(Reg(0))[0];
        let b = run_to_end(&p, 1).reg(Reg(0))[0];
        let c = run_to_end(&p, 2).reg(Reg(0))[0];
        assert!(a != b || b != c, "trip counts suspiciously uniform");
    }
}
