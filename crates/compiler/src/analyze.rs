//! Offload-block extraction (§3.1).
//!
//! Candidate enumeration follows the paper's constraints:
//!   * a block is a contiguous range within a single basic block (no control
//!     divergence, no barriers);
//!   * blocks containing scratchpad (shared) or constant-space accesses are
//!     excluded — such code runs better on the GPU;
//!   * a block must contain at least one global memory instruction (the
//!     first one selects the target NSU);
//!   * the sequence-number field bounds the loads+stores per block;
//!   * acceptance requires `Score = GPUTrafficReduction − OffloadOverhead
//!     > 0` (Eq. 1, statically evaluated without cache terms);
//!   * additionally, **every single indirect load** becomes its own block
//!     regardless of score (§4.4 divergence filtering).

use ndp_isa::instr::MemSpace;
use ndp_isa::offload::{InstrRole, OffloadBlock};
use ndp_isa::program::{Item, Program};
use ndp_isa::WARP_WIDTH;

use crate::codegen::{generate_nsu_code, NSU_CODE_BASE, NSU_INSTR_BYTES};
use crate::slice::{classify_roles, has_load_to_addr_dep, is_indirect_load, live_sets};

/// Static-analysis parameters.
#[derive(Debug, Clone, Copy)]
pub struct CompilerConfig {
    /// Maximum loads+stores per block (sequence-number field width, §4.1.1
    /// footnote 3).
    pub max_mem_instrs: usize,
    /// Word size used by the Eq. 1 score (bytes).
    pub word_bytes: i64,
    /// Apply the §4.4 single-indirect-load rule.
    pub indirect_rule: bool,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            max_mem_instrs: 64,
            word_bytes: 4,
            indirect_rule: true,
        }
    }
}

/// A kernel plus its compiled offload metadata.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    pub program: Program,
    pub blocks: Vec<OffloadBlock>,
    /// For each item index: the block covering it and the instruction's
    /// role, if any.
    pub role_map: Vec<Option<(u16, InstrRole)>>,
    /// For each item index: the block that *starts* there (where the GPU
    /// executes `OFLD.BEG`).
    pub block_starting_at: Vec<Option<u16>>,
    /// For each block: `(n_loads, n_stores)`, the NSU buffer entries one
    /// instance reserves. Counted once here: the SM asks on every
    /// reservation retry.
    pub block_io: Vec<(usize, usize)>,
}

impl CompiledKernel {
    pub fn block(&self, id: u16) -> &OffloadBlock {
        &self.blocks[id as usize]
    }

    /// Total NSU code footprint in bytes (Fig. 11 I-cache utilization).
    pub fn nsu_footprint_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.nsu_code_bytes()).sum()
    }

    /// Per-block NSU instruction counts, the Table 1 "# of instructions in
    /// offload blocks" column.
    pub fn nsu_lens(&self) -> Vec<usize> {
        self.blocks.iter().map(|b| b.nsu_len()).collect()
    }
}

/// Eq. 1 static score for a candidate range, in bytes per thread.
fn score(
    program: &Program,
    start: usize,
    end: usize,
    cfg: &CompilerConfig,
) -> (i64, Vec<InstrRole>) {
    let roles = classify_roles(program, start, end);
    let (live_in, live_out) = live_sets(program, start, end, &roles);
    let n_mem = roles
        .iter()
        .filter(|r| matches!(r, InstrRole::Load | InstrRole::Store))
        .count() as i64;
    // GPUTrafficReduction: each offloaded load/store keeps one data word per
    // thread off the GPU link. Address traffic is identical either way and
    // excluded (§3.1).
    let reduction = cfg.word_bytes * n_mem;
    // OffloadOverhead: register transfer to and from the NSU.
    let overhead = cfg.word_bytes * (live_in.len() + live_out.len()) as i64;
    (reduction - overhead, roles)
}

/// Split a basic block into segments free of scratchpad/constant accesses.
fn global_only_segments(program: &Program, bb: (usize, usize)) -> Vec<(usize, usize)> {
    let mut segs = vec![];
    let mut start = bb.0;
    for idx in bb.0..bb.1 {
        let Item::Op(i) = &program.items[idx] else {
            unreachable!()
        };
        let excluded = matches!(
            i.mem_space(),
            Some(MemSpace::Shared) | Some(MemSpace::Const)
        );
        if excluded {
            if idx > start {
                segs.push((start, idx));
            }
            start = idx + 1;
        }
    }
    if bb.1 > start {
        segs.push((start, bb.1));
    }
    segs
}

fn count_mem(program: &Program, start: usize, end: usize) -> usize {
    (start..end)
        .filter(|&i| matches!(&program.items[i], Item::Op(op) if op.is_global_mem()))
        .count()
}

/// Compile a kernel: extract offload blocks and generate NSU code.
pub fn compile(program: &Program, cfg: &CompilerConfig) -> CompiledKernel {
    program.validate().expect("invalid kernel IR");
    let mut accepted: Vec<(usize, usize, i64, Vec<InstrRole>, bool)> = vec![];

    for bb in program.basic_blocks() {
        for (s, e) in global_only_segments(program, bb) {
            // Walk the segment with a cursor: accept the best-scoring block
            // starting at the cursor, then continue after it; fall back to
            // §4.4 indirect singletons when nothing scores positive.
            let mut cursor = s;
            while count_mem(program, cursor, e) > 0 {
                // Candidate end points: every cut after the first global
                // memory instruction (a block needs at least one memory
                // access to pick its target NSU). Whether trailing ALU
                // instructions pay off is decided by the score: they join
                // the block only when they don't inflate the register
                // transfer overhead.
                let first_mem = (cursor..e)
                    .find(|&i| matches!(&program.items[i], Item::Op(op) if op.is_global_mem()));
                let Some(first_mem) = first_mem else { break };
                let ends: Vec<usize> = (first_mem + 1..=e).collect();
                let mut best: Option<(i64, usize, Vec<InstrRole>)> = None;
                for &cand_end in &ends {
                    if count_mem(program, cursor, cand_end) > cfg.max_mem_instrs {
                        break;
                    }
                    // The GPU must be able to generate every address: reject
                    // ranges where an address depends on an in-range load.
                    if has_load_to_addr_dep(program, cursor, cand_end) {
                        break; // extending further cannot remove the dep
                    }
                    let (sc, roles) = score(program, cursor, cand_end, cfg);
                    if best.as_ref().is_none_or(|(b, _, _)| sc > *b) {
                        best = Some((sc, cand_end, roles));
                    }
                }
                let Some((best_score, best_end, roles)) = best else {
                    break;
                };
                if best_score > 0 {
                    accepted.push((cursor, best_end, best_score, roles, false));
                    cursor = best_end;
                } else {
                    if cfg.indirect_rule {
                        // §4.4: single indirect loads offload regardless of
                        // score.
                        for idx in cursor..e {
                            let Item::Op(i) = &program.items[idx] else {
                                unreachable!()
                            };
                            if matches!(
                                i,
                                ndp_isa::instr::Instr::Ld {
                                    space: MemSpace::Global,
                                    ..
                                }
                            ) && is_indirect_load(program, bb.0, idx)
                            {
                                let (sc, roles) = score(program, idx, idx + 1, cfg);
                                accepted.push((idx, idx + 1, sc, roles, true));
                            }
                        }
                    }
                    break;
                }
            }
        }
    }

    // Materialize blocks with contiguous NSU code placement.
    let mut blocks = vec![];
    let mut pc = NSU_CODE_BASE;
    for (id, (start, end, sc, roles, indirect)) in accepted.into_iter().enumerate() {
        let (live_in, live_out) = live_sets(program, start, end, &roles);
        let nsu_code = generate_nsu_code(
            program,
            start,
            end,
            &roles,
            live_in.len() as u8,
            live_out.len() as u8,
        );
        let code_bytes = nsu_code.len() as u64 * NSU_INSTR_BYTES;
        blocks.push(OffloadBlock {
            id,
            start,
            end,
            roles,
            live_in: live_in.iter().collect(),
            live_out: live_out.iter().collect(),
            nsu_code,
            nsu_pc: pc,
            score: sc * WARP_WIDTH as i64,
            indirect,
        });
        pc += code_bytes;
    }

    let mut role_map = vec![None; program.items.len()];
    let mut block_starting_at = vec![None; program.items.len()];
    for b in &blocks {
        block_starting_at[b.start] = Some(b.id as u16);
        for (off, slot) in role_map[b.start..b.end].iter_mut().enumerate() {
            *slot = Some((b.id as u16, b.roles[off]));
        }
    }

    let block_io = blocks.iter().map(|b| (b.n_loads(), b.n_stores())).collect();
    CompiledKernel {
        program: program.clone(),
        blocks,
        role_map,
        block_starting_at,
        block_io,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_isa::instr::{AluOp, Instr, Operand, Reg};
    use ndp_isa::program::{Item, TripCount};

    /// C[tid] = A[tid] + B[tid] — the Fig. 2 vector addition.
    fn vadd() -> Program {
        let mut p = Program::new("vadd", 8);
        let t = |r| Operand::Reg(Reg(r));
        p.items = vec![
            // R1 = tid*4
            Item::Op(Instr::alu(
                AluOp::IMul,
                Reg(1),
                Operand::Tid,
                Operand::Imm(4),
            )),
            // R2 = &A[tid]; R3 = A[tid]
            Item::Op(Instr::alu(
                AluOp::IAdd,
                Reg(2),
                t(1),
                Operand::Imm(0x10_0000),
            )),
            Item::Op(Instr::ld(Reg(3), Reg(2))),
            // R4 = &B[tid]; R5 = B[tid]
            Item::Op(Instr::alu(
                AluOp::IAdd,
                Reg(4),
                t(1),
                Operand::Imm(0x20_0000),
            )),
            Item::Op(Instr::ld(Reg(5), Reg(4))),
            // R6 = A+B
            Item::Op(Instr::alu(AluOp::FAdd, Reg(6), t(3), t(5))),
            // R7 = &C[tid]; C[tid] = R6
            Item::Op(Instr::alu(
                AluOp::IAdd,
                Reg(7),
                t(1),
                Operand::Imm(0x30_0000),
            )),
            Item::Op(Instr::st(Reg(6), Reg(7))),
        ];
        p
    }

    #[test]
    fn vadd_compiles_to_one_block() {
        let ck = compile(&vadd(), &CompilerConfig::default());
        assert_eq!(ck.blocks.len(), 1);
        let b = &ck.blocks[0];
        assert_eq!(b.n_loads(), 2);
        assert_eq!(b.n_stores(), 1);
        // NSU code: LD, LD, FADD, ST = 4 instructions (the Table 1 VADD row).
        assert_eq!(b.nsu_len(), 4);
        assert!(b.live_in.is_empty(), "no register transfer needed");
        assert!(b.live_out.is_empty());
        assert!(b.score > 0);
        assert!(!b.indirect);
    }

    #[test]
    fn role_map_covers_block() {
        let ck = compile(&vadd(), &CompilerConfig::default());
        let b = &ck.blocks[0];
        assert_eq!(ck.block_starting_at[b.start], Some(0));
        for idx in b.start..b.end {
            assert!(ck.role_map[idx].is_some());
        }
    }

    #[test]
    fn shared_memory_splits_blocks() {
        let mut p = vadd();
        // Insert a scratchpad access in the middle.
        p.items.insert(
            5,
            Item::Op(Instr::Ld {
                dst: Reg(8),
                space: MemSpace::Shared,
                addr: Reg(1),
            }),
        );
        let ck = compile(&p, &CompilerConfig::default());
        for b in &ck.blocks {
            for idx in b.start..b.end {
                let Item::Op(i) = &p.items[idx] else { panic!() };
                assert_ne!(i.mem_space(), Some(MemSpace::Shared));
            }
        }
    }

    #[test]
    fn barrier_bounds_blocks() {
        let mut p = vadd();
        p.items.insert(5, Item::Bar);
        let ck = compile(&p, &CompilerConfig::default());
        for b in &ck.blocks {
            for idx in b.start..b.end {
                assert!(matches!(p.items[idx], Item::Op(_)));
            }
        }
    }

    #[test]
    fn indirect_load_offloaded_despite_zero_score() {
        // x = B[A[tid]]; consumed by arithmetic + store far later: the B
        // load alone has score 4 (1 load) − 4 (1 live-out) = 0, but the §4.4
        // rule still offloads it.
        let mut p = Program::new("gather", 4);
        let t = |r| Operand::Reg(Reg(r));
        p.items = vec![
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(1),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(0x10_0000),
            )),
            Item::Op(Instr::ld(Reg(2), Reg(1))), // idx = A[tid]
            Item::Op(Instr::alu(AluOp::And, Reg(2), t(2), Operand::Imm(0xffff))),
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(3),
                t(2),
                Operand::Imm(4),
                Operand::Imm(0x20_0000),
            )),
            Item::Op(Instr::ld(Reg(4), Reg(3))), // x = B[idx]  ← indirect
            Item::Bar,
            // Consume both loaded values after the barrier so the candidate
            // block has two live-outs and scores ≤ 0 (2 loads × 4 B −
            // 2 regs × 4 B = 0).
            Item::Op(Instr::alu(AluOp::FAdd, Reg(5), t(4), t(2))),
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(6),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(0x30_0000),
            )),
            Item::Op(Instr::st(Reg(5), Reg(6))),
        ];
        let ck = compile(&p, &CompilerConfig::default());
        let ind: Vec<_> = ck.blocks.iter().filter(|b| b.indirect).collect();
        assert_eq!(ind.len(), 1, "{:?}", ck.blocks);
        assert_eq!(ind[0].end - ind[0].start, 1);
        assert_eq!(ind[0].nsu_len(), 1, "single LD, like BFS in Table 1");
    }

    #[test]
    fn loop_body_block_extracted() {
        // Streaming loop: block inside the loop body is found once and
        // instantiated per trip at runtime.
        let mut p = Program::new("loop", 4);
        let t = |r| Operand::Reg(Reg(r));
        p.items = vec![
            Item::Op(Instr::alu(
                AluOp::IMul,
                Reg(1),
                Operand::Tid,
                Operand::Imm(4),
            )),
            Item::LoopBegin(TripCount::Const(16)),
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(2),
                Operand::Iter(0),
                Operand::Imm(0x1000),
                t(1),
            )),
            Item::Op(Instr::alu(
                AluOp::IAdd,
                Reg(3),
                t(2),
                Operand::Imm(0x10_0000),
            )),
            Item::Op(Instr::ld(Reg(4), Reg(3))),
            Item::Op(Instr::alu(AluOp::FMul, Reg(5), t(4), t(4))),
            Item::Op(Instr::alu(
                AluOp::IAdd,
                Reg(6),
                t(2),
                Operand::Imm(0x20_0000),
            )),
            Item::Op(Instr::st(Reg(5), Reg(6))),
            Item::LoopEnd,
        ];
        let ck = compile(&p, &CompilerConfig::default());
        assert_eq!(ck.blocks.len(), 1);
        let b = &ck.blocks[0];
        // LD + FMUL + ST on the NSU.
        assert_eq!(b.nsu_len(), 3);
        assert!(b.score > 0);
    }

    #[test]
    fn max_mem_instrs_bounds_block_size() {
        // A long run of loads/stores is truncated at the sequence-number
        // budget (footnote 3 of the paper).
        let mut p = Program::new("long", 1);
        let t4 = Reg(0);
        p.items = vec![Item::Op(Instr::alu(
            AluOp::IMul,
            t4,
            Operand::Tid,
            Operand::Imm(4),
        ))];
        for i in 0..12u64 {
            let a = Reg(1);
            p.items.push(Item::Op(Instr::alu(
                AluOp::IAdd,
                a,
                Operand::Reg(t4),
                Operand::Imm(0x10_0000 + i * 0x1000),
            )));
            let d = Reg(2);
            p.items.push(Item::Op(Instr::ld(d, a)));
            p.items.push(Item::Op(Instr::st(d, a)));
        }
        let cfg = CompilerConfig {
            max_mem_instrs: 8,
            ..Default::default()
        };
        let ck = compile(&p, &cfg);
        for b in &ck.blocks {
            assert!(b.n_loads() + b.n_stores() <= 8, "{:?}", b);
        }
        // The segment splits into several blocks instead of one.
        assert!(ck.blocks.len() >= 2);
    }

    #[test]
    fn indirect_rule_can_be_disabled() {
        let mut p = Program::new("gather", 1);
        let t = |r: u8| Operand::Reg(Reg(r));
        p.items = vec![
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(1),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(0x10_0000),
            )),
            Item::Op(Instr::ld(Reg(2), Reg(1))),
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(3),
                t(2),
                Operand::Imm(4),
                Operand::Imm(0x20_0000),
            )),
            Item::Op(Instr::ld(Reg(4), Reg(3))),
            Item::Bar,
            Item::Op(Instr::alu(AluOp::FAdd, Reg(5), t(4), t(2))),
            Item::Op(Instr::st(Reg(5), Reg(1))),
        ];
        let cfg = CompilerConfig {
            indirect_rule: false,
            ..Default::default()
        };
        let ck = compile(&p, &cfg);
        assert!(ck.blocks.iter().all(|b| !b.indirect));
        let cfg = CompilerConfig {
            indirect_rule: true,
            ..Default::default()
        };
        let ck = compile(&p, &cfg);
        assert!(ck.blocks.iter().any(|b| b.indirect));
    }

    #[test]
    fn nsu_pcs_are_contiguous_and_distinct() {
        let mut p = vadd();
        // Duplicate the kernel body after a barrier to get two blocks.
        let copy: Vec<Item> = p.items.clone();
        p.items.push(Item::Bar);
        p.items.extend(copy);
        let ck = compile(&p, &CompilerConfig::default());
        assert_eq!(ck.blocks.len(), 2);
        let b0 = &ck.blocks[0];
        let b1 = &ck.blocks[1];
        assert_eq!(
            b1.nsu_pc,
            b0.nsu_pc + (b0.nsu_code.len() as u64) * NSU_INSTR_BYTES
        );
    }
}
