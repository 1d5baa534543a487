//! Static offload-partition verifier, run by every system construction.
//!
//! [`OffloadBlock`] annotations — instruction roles, live-in/live-out
//! transfer sets, the generated NSU code — decide what the partitioned
//! execution protocol (§4.1) puts on the wire. A wrong annotation is not a
//! crash; it is silently wrong data: a stale register resumed on the GPU, a
//! WTA issued for a load, an address computed from a value that only exists
//! on the NSU. This module *independently* recomputes every annotation from
//! the [`Program`] text with its own dataflow analysis and diffs the result
//! against the stored block, so those bug classes surface at build time with
//! a named location instead of at cycle two million.
//!
//! What it proves:
//! - every instruction's role matches both its shape (loads are RDF, stores
//!   are WTA) and the backward address-demand slice (§4.1.1);
//! - no GPU-side work (address calculation, address registers of memory
//!   ops) reads a register the NSU writes before the ACK boundary;
//! - the live-in set is exactly what NSU-side work reads from the GPU, and
//!   the live-out set covers every NSU definition consumed outside the
//!   block — after it or around an enclosing loop's backedge;
//! - the NSU code stream is the faithful translation of the roles, with
//!   `OFLD.BEG`/`OFLD.END` transfer counts matching the live sets.
//!
//! What it deliberately leaves to the runtime invariant engine: anything
//! depending on dynamic state — packet ordering, credit balances, token
//! lifecycles, cache-coherence timing.

use std::fmt;

use crate::instr::{Instr, Reg};
use crate::offload::{InstrRole, NsuInstr, OffloadBlock};
use crate::program::{Item, Program, TripCount};

/// One finding, anchored to a block and (when it names one instruction) an
/// item index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionDiag {
    /// `OffloadBlock::id` of the offending block.
    pub block: usize,
    /// The block's item range, for locating it in a disassembly.
    pub start: usize,
    pub end: usize,
    /// Item index of the offending instruction, when the finding is about
    /// one instruction rather than the block as a whole.
    pub item: Option<usize>,
    pub detail: String,
}

impl PartitionDiag {
    /// The location part of the diagnostic ("block 2 (items 4..9) item 6"),
    /// without the detail — for error types that carry the two separately.
    pub fn location(&self) -> String {
        let mut s = format!("block {} (items {}..{})", self.block, self.start, self.end);
        if let Some(i) = self.item {
            s.push_str(&format!(" item {i}"));
        }
        s
    }
}

impl fmt::Display for PartitionDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location(), self.detail)
    }
}

/// Compact register set, local to the verifier (deliberately not shared
/// with the compiler's analysis — the point is an independent derivation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Bits(u64);

impl Bits {
    fn set(&mut self, r: Reg) {
        self.0 |= 1 << r.0;
    }

    fn clear(&mut self, r: Reg) {
        self.0 &= !(1 << r.0);
    }

    fn has(self, r: Reg) -> bool {
        self.0 & (1 << r.0) != 0
    }

    fn regs(self) -> impl Iterator<Item = Reg> {
        (0..64u8).map(Reg).filter(move |r| self.has(*r))
    }

    fn names(self) -> String {
        let v: Vec<String> = self.regs().map(|r| r.to_string()).collect();
        v.join(", ")
    }
}

/// Verify every block of a kernel against `program`, including cross-block
/// structure (unique ids, disjoint item ranges, disjoint NSU code regions).
pub fn verify_blocks(program: &Program, blocks: &[OffloadBlock]) -> Vec<PartitionDiag> {
    let mut diags = Vec::new();
    for (i, b) in blocks.iter().enumerate() {
        if blocks[..i].iter().any(|o| o.id == b.id) {
            diags.push(diag(b, None, format!("duplicate block id {}", b.id)));
        }
        if let Some(o) = blocks[..i]
            .iter()
            .find(|o| o.start < b.end && b.start < o.end)
        {
            diags.push(diag(
                b,
                None,
                format!(
                    "item range overlaps block {} (items {}..{})",
                    o.id, o.start, o.end
                ),
            ));
        }
        if let Some(o) = blocks[..i].iter().find(|o| {
            (o.nsu_pc < b.nsu_pc + b.nsu_code_bytes() as u64)
                && (b.nsu_pc < o.nsu_pc + o.nsu_code_bytes() as u64)
        }) {
            diags.push(diag(
                b,
                None,
                format!(
                    "NSU code region 0x{:x}..0x{:x} overlaps block {} at 0x{:x}",
                    b.nsu_pc,
                    b.nsu_pc + b.nsu_code_bytes() as u64,
                    o.id,
                    o.nsu_pc
                ),
            ));
        }
        diags.extend(verify_block(program, b));
    }
    diags
}

/// Verify one block. An empty result means every annotation checks out.
pub fn verify_block(program: &Program, block: &OffloadBlock) -> Vec<PartitionDiag> {
    let mut diags = Vec::new();

    // Structural sanity first; the dataflow checks index freely into the
    // range and would panic on a malformed one.
    if block.start >= block.end || block.end > program.items.len() {
        diags.push(diag(
            block,
            None,
            format!(
                "invalid item range (program has {} items)",
                program.items.len()
            ),
        ));
        return diags;
    }
    for idx in block.start..block.end {
        if !matches!(program.items[idx], Item::Op(_)) {
            diags.push(diag(
                block,
                Some(idx),
                "block spans a loop or barrier boundary (§3.1: one basic block only)".into(),
            ));
            return diags;
        }
    }
    if block.roles.len() != block.end - block.start {
        diags.push(diag(
            block,
            None,
            format!(
                "{} roles annotated for {} instructions",
                block.roles.len(),
                block.end - block.start
            ),
        ));
        return diags;
    }
    if block.n_loads() > u8::MAX as usize || block.n_stores() > u8::MAX as usize {
        diags.push(diag(
            block,
            None,
            format!(
                "{} loads / {} stores exceed the u8 CMD-packet fields",
                block.n_loads(),
                block.n_stores()
            ),
        ));
    }

    // Shape legality: the role must be expressible for the instruction —
    // this is where a load misannotated as `Store` (a WTA for an RDF) or a
    // memory op marked as ALU work is caught.
    let mut shape_bad = vec![false; block.end - block.start];
    for idx in block.start..block.end {
        let i = op_at(program, idx);
        let role = block.roles[idx - block.start];
        let legal = match i {
            Instr::Ld { .. } => role == InstrRole::Load,
            Instr::St { .. } => role == InstrRole::Store,
            Instr::Alu { .. } => matches!(role, InstrRole::AddrCalc | InstrRole::AtNsu),
        };
        if !legal {
            shape_bad[idx - block.start] = true;
            diags.push(diag(
                block,
                Some(idx),
                format!(
                    "{} annotated {:?} — misclassified across the RDF/WTA split",
                    shape_name(i),
                    role
                ),
            ));
        }
        if i.is_mem() && !i.is_global_mem() {
            diags.push(diag(
                block,
                Some(idx),
                "shared/const memory access inside an offload block (§3.1)".into(),
            ));
        }
    }

    // Independent role derivation from the address-demand slice, diffed
    // against the annotation (skipping items already flagged for shape).
    let expected = expected_roles(program, block.start, block.end);
    for idx in block.start..block.end {
        let (got, want) = (block.roles[idx - block.start], expected[idx - block.start]);
        if got != want && !shape_bad[idx - block.start] {
            diags.push(diag(
                block,
                Some(idx),
                format!("role annotated {got:?} but the address-demand slice requires {want:?}"),
            ));
        }
    }

    // ACK-boundary safety under the *annotated* roles: GPU-side work (all
    // address generation) must never read a register the NSU writes — that
    // value only reaches the GPU with the ACK, after the block retires.
    let mut nsu_written = Bits::default();
    for idx in block.start..block.end {
        let i = op_at(program, idx);
        match block.roles[idx - block.start] {
            InstrRole::Load | InstrRole::Store => {
                if let Some(a) = i.addr_reg() {
                    if nsu_written.has(a) {
                        diags.push(diag(
                            block,
                            Some(idx),
                            format!(
                                "address register {a} is NSU-written inside the block — \
                                 the GPU cannot generate this address before the ACK"
                            ),
                        ));
                    }
                }
                if matches!(block.roles[idx - block.start], InstrRole::Load) {
                    if let Some(d) = i.dst() {
                        nsu_written.set(d);
                    }
                }
            }
            InstrRole::AddrCalc => {
                for s in i.srcs().into_iter().filter(|s| nsu_written.has(*s)) {
                    diags.push(diag(
                        block,
                        Some(idx),
                        format!(
                            "GPU-side address calculation reads NSU-written {s} \
                             before the ACK boundary"
                        ),
                    ));
                }
            }
            InstrRole::AtNsu => {
                if let Some(d) = i.dst() {
                    nsu_written.set(d);
                }
            }
        }
    }

    // Live-set recomputation from the derived roles.
    let (want_in, nsu_defined) = expected_live_in(program, block.start, block.end, &expected);
    let want_out = expected_live_out(program, block, nsu_defined, want_in);
    let mut got_in = Bits::default();
    for r in &block.live_in {
        got_in.set(*r);
    }
    let mut got_out = Bits::default();
    for r in &block.live_out {
        got_out.set(*r);
    }
    let missing_in = Bits(want_in.0 & !got_in.0);
    if missing_in != Bits::default() {
        diags.push(diag(
            block,
            None,
            format!(
                "live-in is missing {} — the NSU would read stale register state",
                missing_in.names()
            ),
        ));
    }
    let spurious_in = Bits(got_in.0 & !want_in.0);
    if spurious_in != Bits::default() {
        diags.push(diag(
            block,
            None,
            format!(
                "live-in transfers {} which no NSU-side instruction reads",
                spurious_in.names()
            ),
        ));
    }
    let missing_out = Bits(want_out.0 & !got_out.0);
    if missing_out != Bits::default() {
        diags.push(diag(
            block,
            None,
            format!(
                "live-out is missing {} — the GPU would resume with stale values",
                missing_out.names()
            ),
        ));
    }
    let spurious_out = Bits(got_out.0 & !want_out.0);
    if spurious_out != Bits::default() {
        diags.push(diag(
            block,
            None,
            format!(
                "live-out returns {} which nothing outside the block reads \
                 (wasted ACK bytes, Eq. 1 score skew)",
                spurious_out.names()
            ),
        ));
    }

    // NSU code stream: the faithful translation of the annotated roles,
    // with transfer counts matching the annotated live sets.
    diags.extend(verify_nsu_code(program, block));

    if block.indirect && (block.end - block.start != 1 || block.n_loads() != 1) {
        diags.push(diag(
            block,
            None,
            "indirect flag set but the block is not a single load (§4.4)".into(),
        ));
    }

    diags
}

fn diag(block: &OffloadBlock, item: Option<usize>, detail: String) -> PartitionDiag {
    PartitionDiag {
        block: block.id,
        start: block.start,
        end: block.end,
        item,
        detail,
    }
}

fn op_at(program: &Program, idx: usize) -> &Instr {
    match &program.items[idx] {
        Item::Op(i) => i,
        _ => unreachable!("range checked to be ops"),
    }
}

fn shape_name(i: &Instr) -> &'static str {
    match i {
        Instr::Ld { .. } => "load",
        Instr::St { .. } => "store",
        Instr::Alu { .. } => "ALU op",
    }
}

/// Re-derive instruction roles from scratch: a backward pass tracking only
/// the set of registers demanded *as memory addresses*. An ALU result in
/// that set must execute on the GPU (`AddrCalc`); every other ALU op is
/// NSU-side. Value demand never flows into address demand, so one set
/// suffices (the compiler's two-set formulation agrees on roles).
fn expected_roles(program: &Program, start: usize, end: usize) -> Vec<InstrRole> {
    let mut roles = vec![InstrRole::AtNsu; end - start];
    let mut addr_demand = Bits::default();
    for idx in (start..end).rev() {
        let i = op_at(program, idx);
        roles[idx - start] = match i {
            Instr::Ld { dst, addr, .. } => {
                addr_demand.clear(*dst);
                addr_demand.set(*addr);
                InstrRole::Load
            }
            Instr::St { addr, .. } => {
                addr_demand.set(*addr);
                InstrRole::Store
            }
            Instr::Alu { dst, .. } => {
                if addr_demand.has(*dst) {
                    addr_demand.clear(*dst);
                    for s in i.srcs() {
                        addr_demand.set(s);
                    }
                    InstrRole::AddrCalc
                } else {
                    InstrRole::AtNsu
                }
            }
        };
    }
    roles
}

/// Forward pass: registers NSU-side work reads before NSU-side work defines
/// them (= the CMD transfer set), plus the full set of NSU definitions.
fn expected_live_in(
    program: &Program,
    start: usize,
    end: usize,
    roles: &[InstrRole],
) -> (Bits, Bits) {
    let mut live_in = Bits::default();
    let mut defined = Bits::default();
    for idx in start..end {
        let i = op_at(program, idx);
        match roles[idx - start] {
            InstrRole::Load => defined.set(i.dst().expect("load defines")),
            InstrRole::Store => {
                for s in i.value_srcs().into_iter().filter(|s| !defined.has(*s)) {
                    live_in.set(s);
                }
            }
            InstrRole::AtNsu => {
                for s in i.srcs().into_iter().filter(|s| !defined.has(*s)) {
                    live_in.set(s);
                }
                if let Some(d) = i.dst() {
                    defined.set(d);
                }
            }
            InstrRole::AddrCalc => {}
        }
    }
    (live_in, defined)
}

/// NSU definitions that something outside the block may read before a
/// definite redefinition: code after the block, next-trip code before the
/// block for every enclosing loop, and — for NSU-defined live-ins
/// (accumulators) — the block's own next-trip read around the innermost
/// backedge.
fn expected_live_out(
    program: &Program,
    block: &OffloadBlock,
    defined: Bits,
    live_in: Bits,
) -> Bits {
    let loops = enclosing_loops(program, block.start, block.end);
    let mut out = Bits::default();
    'regs: for d in defined.regs() {
        if scan_range(program, block.end, program.items.len(), d) == Scan::Use {
            out.set(d);
            continue;
        }
        for &(b, _) in &loops {
            if scan_range(program, b + 1, block.start, d) == Scan::Use {
                out.set(d);
                continue 'regs;
            }
        }
        // Accumulator pattern: the block both reads d (live-in) and defines
        // it. On the next trip of the innermost enclosing loop the CMD
        // transfer re-reads d from the GPU register file, which only holds
        // the fresh value if the ACK carried it back — unless the GPU
        // itself redefines d somewhere along the backedge path.
        if live_in.has(d) {
            if let Some(&(b, e)) = loops.first() {
                let tail = scan_range(program, block.end, e, d);
                let head = scan_range(program, b + 1, block.start, d);
                if tail != Scan::Killed && head != Scan::Killed {
                    out.set(d);
                }
            }
        }
    }
    out
}

/// Enclosing loops of `[start, end)` as `(begin_idx, end_idx)` pairs,
/// innermost first.
fn enclosing_loops(program: &Program, start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut stack = Vec::new();
    let mut found = Vec::new();
    for (i, item) in program.items.iter().enumerate() {
        match item {
            Item::LoopBegin(_) => stack.push(i),
            Item::LoopEnd => {
                if let Some(b) = stack.pop() {
                    if b < start && i >= end {
                        found.push((b, i));
                    }
                }
            }
            _ => {}
        }
    }
    found // closed innermost-first by construction
}

/// What a linear scan of `items[s..e)` finds for register `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scan {
    /// A read of `d` reachable before any definite redefinition.
    Use,
    /// A redefinition that definitely executes on this path before any use.
    Killed,
    /// Neither.
    Neither,
}

/// Linear scan with loop awareness: a redefinition inside a loop that may
/// run zero trips (`TripCount` minimum of 0) does not kill `d` for the code
/// after that loop — the conservative reading the runtime semantics demand.
fn scan_range(program: &Program, s: usize, e: usize, d: Reg) -> Scan {
    // Minimum trip counts of loops entered (and not yet exited) in-scan.
    let mut open: Vec<u32> = Vec::new();
    // Depth (in `open`) at which a pending redefinition of `d` sits.
    let mut kill_depth: Option<usize> = None;
    for idx in s..e.min(program.items.len()) {
        match &program.items[idx] {
            Item::LoopBegin(t) => open.push(min_trips(t)),
            Item::LoopEnd => {
                if let Some(min) = open.pop() {
                    if kill_depth == Some(open.len() + 1) {
                        // The loop holding the only redefinition closed: if
                        // it can run zero trips the kill never happened.
                        kill_depth = if min == 0 { None } else { Some(open.len()) };
                    }
                }
            }
            Item::Bar => {}
            Item::Op(i) => {
                if kill_depth.is_none() {
                    if i.srcs().contains(&d) {
                        return Scan::Use;
                    }
                    if i.dst() == Some(d) {
                        kill_depth = Some(open.len());
                    }
                }
            }
        }
    }
    if kill_depth.is_some() {
        Scan::Killed
    } else {
        Scan::Neither
    }
}

fn min_trips(t: &TripCount) -> u32 {
    match *t {
        TripCount::Const(n) => n,
        TripCount::PerWarp { base, .. } => base,
    }
}

/// The NSU code a block's roles translate to, checked instruction by
/// instruction against the stored stream.
fn verify_nsu_code(program: &Program, block: &OffloadBlock) -> Vec<PartitionDiag> {
    let mut diags = Vec::new();
    let mut expected = vec![NsuInstr::Begin {
        regs_in: block.live_in.len() as u8,
    }];
    for idx in block.start..block.end {
        let i = op_at(program, idx);
        match block.roles[idx - block.start] {
            InstrRole::AddrCalc => {}
            InstrRole::Load => {
                if let Some(d) = i.dst() {
                    expected.push(NsuInstr::Ld { dst: d });
                }
            }
            InstrRole::Store => {
                if let Instr::St { val, .. } = i {
                    expected.push(NsuInstr::St { src: *val });
                }
            }
            InstrRole::AtNsu => {
                if matches!(i, Instr::Alu { .. }) {
                    expected.push(NsuInstr::Alu(i.clone()));
                }
            }
        }
    }
    expected.push(NsuInstr::End {
        regs_out: block.live_out.len() as u8,
    });
    if block.nsu_code != expected {
        let at = block
            .nsu_code
            .iter()
            .zip(&expected)
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| block.nsu_code.len().min(expected.len()));
        diags.push(diag(
            block,
            None,
            format!(
                "NSU code diverges from the role translation at slot {at} \
                 (stored {} instrs, roles imply {})",
                block.nsu_code.len(),
                expected.len()
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Operand};

    fn prog(items: Vec<Item>) -> Program {
        let mut p = Program::new("t", 1);
        p.items = items;
        p
    }

    /// Fig. 3(a): LD F1,[R9]; MUL F2,F0,F1; ADD R10,R11,R7; ST [R10],F2 —
    /// with a correct hand-built block.
    fn fig3() -> (Program, OffloadBlock) {
        let p = prog(vec![
            Item::Op(Instr::ld(Reg(1), Reg(9))),
            Item::Op(Instr::alu(
                AluOp::FMul,
                Reg(2),
                Operand::Reg(Reg(0)),
                Operand::Reg(Reg(1)),
            )),
            Item::Op(Instr::alu(
                AluOp::IAdd,
                Reg(10),
                Operand::Reg(Reg(11)),
                Operand::Reg(Reg(7)),
            )),
            Item::Op(Instr::st(Reg(2), Reg(10))),
        ]);
        let mul = match &p.items[1] {
            Item::Op(i) => i.clone(),
            _ => unreachable!(),
        };
        let b = OffloadBlock {
            id: 0,
            start: 0,
            end: 4,
            roles: vec![
                InstrRole::Load,
                InstrRole::AtNsu,
                InstrRole::AddrCalc,
                InstrRole::Store,
            ],
            live_in: vec![Reg(0)],
            live_out: vec![],
            nsu_code: vec![
                NsuInstr::Begin { regs_in: 1 },
                NsuInstr::Ld { dst: Reg(1) },
                NsuInstr::Alu(mul),
                NsuInstr::St { src: Reg(2) },
                NsuInstr::End { regs_out: 0 },
            ],
            nsu_pc: 0xd00,
            score: 100,
            indirect: false,
        };
        (p, b)
    }

    #[test]
    fn correct_block_is_clean() {
        let (p, b) = fig3();
        assert_eq!(verify_block(&p, &b), vec![]);
        assert_eq!(verify_blocks(&p, &[b]), vec![]);
    }

    #[test]
    fn corrupt_live_out_is_caught_by_name() {
        let (p, mut b) = fig3();
        b.live_out.push(Reg(2)); // nothing outside reads R2
        let diags = verify_block(&p, &b);
        assert!(
            diags
                .iter()
                .any(|d| d.detail.contains("live-out") && d.detail.contains("R2") && d.block == 0),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_live_in_is_caught() {
        let (p, mut b) = fig3();
        b.live_in.clear(); // the NSU MUL reads R0 from the GPU
        b.nsu_code[0] = NsuInstr::Begin { regs_in: 0 };
        let diags = verify_block(&p, &b);
        assert!(
            diags
                .iter()
                .any(|d| d.detail.contains("live-in is missing R0")),
            "{diags:?}"
        );
    }

    #[test]
    fn flipped_role_is_caught() {
        let (p, mut b) = fig3();
        b.roles[1] = InstrRole::AddrCalc; // the MUL is data compute
        let diags = verify_block(&p, &b);
        assert!(
            diags.iter().any(|d| d.item == Some(1)
                && d.detail.contains("AddrCalc")
                && d.detail.contains("AtNsu")),
            "{diags:?}"
        );
        // …and the flip also makes GPU-side work read the load result.
        assert!(
            diags.iter().any(|d| d.detail.contains("NSU-written R1")),
            "{diags:?}"
        );
    }

    #[test]
    fn load_as_store_is_rdf_wta_misclassification() {
        let (p, mut b) = fig3();
        b.roles[0] = InstrRole::Store;
        let diags = verify_block(&p, &b);
        assert!(
            diags
                .iter()
                .any(|d| d.item == Some(0) && d.detail.contains("RDF/WTA")),
            "{diags:?}"
        );
    }

    #[test]
    fn accumulator_backedge_requires_live_out() {
        // LoopBegin; LD R1; FADD R0 += R1; LoopEnd — no use after the loop,
        // but the next trip's CMD re-reads R0: it must come back in the ACK.
        let p = prog(vec![
            Item::Op(Instr::mov(Reg(0), Operand::Imm(0))),
            Item::Op(Instr::mov(Reg(9), Operand::Imm(0x40))),
            Item::LoopBegin(TripCount::Const(4)),
            Item::Op(Instr::ld(Reg(1), Reg(9))),
            Item::Op(Instr::alu(
                AluOp::FAdd,
                Reg(0),
                Operand::Reg(Reg(0)),
                Operand::Reg(Reg(1)),
            )),
            Item::LoopEnd,
        ]);
        let fadd = match &p.items[4] {
            Item::Op(i) => i.clone(),
            _ => unreachable!(),
        };
        let b = OffloadBlock {
            id: 0,
            start: 3,
            end: 5,
            roles: vec![InstrRole::Load, InstrRole::AtNsu],
            live_in: vec![Reg(0)],
            live_out: vec![], // wrong: stale accumulator on the GPU
            nsu_code: vec![
                NsuInstr::Begin { regs_in: 1 },
                NsuInstr::Ld { dst: Reg(1) },
                NsuInstr::Alu(fadd),
                NsuInstr::End { regs_out: 0 },
            ],
            nsu_pc: 0xd00,
            score: 1,
            indirect: false,
        };
        let diags = verify_block(&p, &b);
        assert!(
            diags
                .iter()
                .any(|d| d.detail.contains("live-out is missing R0")),
            "{diags:?}"
        );
    }

    #[test]
    fn zero_trip_loop_does_not_kill() {
        // After the block, R2 is redefined only inside a loop that may run
        // zero trips, then read — the original value can still escape.
        let p = prog(vec![
            Item::Op(Instr::mov(Reg(9), Operand::Imm(0x40))),
            Item::Op(Instr::ld(Reg(2), Reg(9))),
            Item::LoopBegin(TripCount::PerWarp { base: 0, spread: 4 }),
            Item::Op(Instr::mov(Reg(2), Operand::Imm(7))),
            Item::LoopEnd,
            Item::Op(Instr::st(Reg(2), Reg(9))),
        ]);
        assert_eq!(scan_range(&p, 2, 6, Reg(2)), Scan::Use);
        // A guaranteed-trip loop does kill.
        let p2 = prog(vec![
            Item::Op(Instr::mov(Reg(9), Operand::Imm(0x40))),
            Item::Op(Instr::ld(Reg(2), Reg(9))),
            Item::LoopBegin(TripCount::Const(4)),
            Item::Op(Instr::mov(Reg(2), Operand::Imm(7))),
            Item::LoopEnd,
            Item::Op(Instr::st(Reg(2), Reg(9))),
        ]);
        assert_eq!(scan_range(&p2, 2, 6, Reg(2)), Scan::Killed);
    }

    #[test]
    fn overlapping_blocks_and_code_regions_reported() {
        let (p, b) = fig3();
        let mut b2 = b.clone();
        b2.id = 1;
        let diags = verify_blocks(&p, &[b, b2]);
        assert!(
            diags.iter().any(|d| d.detail.contains("overlaps block 0")),
            "{diags:?}"
        );
    }

    #[test]
    fn spanning_a_loop_boundary_is_structural() {
        let (mut p, mut b) = fig3();
        p.items.push(Item::LoopBegin(TripCount::Const(2)));
        p.items.push(Item::Op(Instr::mov(Reg(5), Operand::Imm(1))));
        p.items.push(Item::LoopEnd);
        b.end = 6; // now covers the LoopBegin
        let diags = verify_block(&p, &b);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].detail.contains("basic block"), "{diags:?}");
    }

    #[test]
    fn corrupted_nsu_code_detected() {
        let (p, mut b) = fig3();
        b.nsu_code.remove(2); // drop the ALU translation
        let diags = verify_block(&p, &b);
        assert!(
            diags.iter().any(|d| d.detail.contains("NSU code diverges")),
            "{diags:?}"
        );
    }
}
