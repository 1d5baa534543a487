//! NSU timing model.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use ndp_common::config::SystemConfig;
use ndp_common::error::{PacketSummary, SimError};
use ndp_common::ids::{Cycle, HmcId, Node, OffloadId, OffloadToken};
use ndp_common::memmap::MemMap;
use ndp_common::packet::{LineAccess, Packet, PacketKind};
use ndp_common::port::OutPort;
use ndp_common::watchdog::TokenInFlight;
use ndp_isa::offload::{NsuInstr, OffloadBlock};

pub use ndp_common::port::CreditEvents;

struct CmdInfo {
    token: OffloadToken,
    id: OffloadId,
    block: u16,
    sm: u16,
    active: u8,
    mask: u32,
}

struct ReadEntry {
    arrived_mask: u32,
}

struct NsuWarp {
    token: OffloadToken,
    id: OffloadId,
    block: u16,
    sm: u16,
    active: u8,
    mask: u32,
    /// Index into the block's `nsu_code`.
    pc: usize,
    /// NSU cycle at which the next instruction may issue.
    next_free: u64,
    seq: u16,
    writes_outstanding: u32,
}

/// One near-data processing SIMD unit.
pub struct Nsu {
    pub id: HmcId,
    blocks: Arc<Vec<OffloadBlock>>,
    pc_to_block: HashMap<u64, u16>,
    slots: Vec<Option<NsuWarp>>,
    cmd_q: VecDeque<CmdInfo>,
    cmd_capacity: usize,
    read_buf: HashMap<(OffloadToken, u16), ReadEntry>,
    /// (expected packet count, arrived accesses) per store instruction.
    write_buf: HashMap<(OffloadToken, u16), (u8, Vec<LineAccess>)>,
    read_capacity: usize,
    write_capacity: usize,
    memmap: MemMap,
    sfu_lat: u64,
    /// Outgoing packets (DRAM writes, ACKs) — routed by the stack's logic
    /// layer (possibly across the memory network for remote vaults).
    pub out: OutPort,
    pub credits: CreditEvents,
    /// NSU cycle counter.
    nsu_now: u64,
    rr_cursor: usize,
    // --- Fig. 11 statistics ---
    /// Blocks whose code was executed here (I-cache footprint).
    icache_touched: HashSet<u16>,
    /// Σ occupied slots over ticks, and tick count, for average occupancy.
    pub occupied_sum: u64,
    pub ticks: u64,
    /// Warp-instructions executed.
    pub instrs: u64,
    /// Blocks completed on this NSU.
    pub blocks_done: u64,
}

impl Nsu {
    pub fn new(id: HmcId, cfg: &SystemConfig, blocks: Arc<Vec<OffloadBlock>>) -> Self {
        let pc_to_block = blocks.iter().map(|b| (b.nsu_pc, b.id as u16)).collect();
        Nsu {
            id,
            pc_to_block,
            slots: (0..cfg.nsu.warp_slots).map(|_| None).collect(),
            cmd_q: VecDeque::new(),
            cmd_capacity: cfg.nsu.cmd_entries,
            read_buf: HashMap::new(),
            write_buf: HashMap::new(),
            read_capacity: cfg.nsu.read_data_entries,
            write_capacity: cfg.nsu.write_addr_entries,
            memmap: MemMap::new(cfg),
            sfu_lat: 8,
            out: OutPort::unbounded(),
            credits: CreditEvents::default(),
            nsu_now: 0,
            rr_cursor: 0,
            icache_touched: HashSet::new(),
            occupied_sum: 0,
            ticks: 0,
            instrs: 0,
            blocks_done: 0,
            blocks,
        }
    }

    /// Structured delivery error with this NSU's identity attached.
    fn bad_delivery(&self, now: Cycle, summary: PacketSummary, detail: String) -> SimError {
        SimError::BadDelivery {
            component: format!("nsu{}", self.id.0),
            cycle: now,
            packet: summary,
            detail,
        }
    }

    /// Deliver a packet from the stack's logic layer. Protocol violations
    /// (buffer overflow past the credit bound, an ACK for an unknown warp,
    /// an unconsumable kind) come back as structured errors instead of
    /// panicking mid-simulation.
    pub fn deliver(&mut self, now: Cycle, p: Packet) -> Result<(), SimError> {
        let summary = PacketSummary::of(&p);
        match p.kind {
            PacketKind::OffloadCmd {
                token,
                id,
                nsu_pc,
                active,
                mask,
                ..
            } => {
                if self.cmd_q.len() >= self.cmd_capacity {
                    return Err(self.bad_delivery(
                        now,
                        summary,
                        "command buffer overflow — credit protocol violated".into(),
                    ));
                }
                let Some(&block) = self.pc_to_block.get(&nsu_pc) else {
                    return Err(self.bad_delivery(
                        now,
                        summary,
                        format!("unknown NSU code address {nsu_pc:#x}"),
                    ));
                };
                self.cmd_q.push_back(CmdInfo {
                    token,
                    id,
                    block,
                    sm: id.sm,
                    active,
                    mask,
                });
            }
            PacketKind::RdfResp { token, seq, access } => {
                let entry = self
                    .read_buf
                    .entry((token, seq))
                    .or_insert(ReadEntry { arrived_mask: 0 });
                entry.arrived_mask |= access.mask;
                if self.read_buf.len() > self.read_capacity {
                    return Err(self.bad_delivery(
                        now,
                        summary,
                        "read data buffer overflow — credit protocol violated".into(),
                    ));
                }
            }
            PacketKind::Rdf {
                token, seq, access, ..
            } => {
                // A header-only RDF arriving directly at the NSU is the
                // read-only-cache ablation path (§7.1 suggestion): the data
                // is already on the NSU, the packet just names the lanes.
                let entry = self
                    .read_buf
                    .entry((token, seq))
                    .or_insert(ReadEntry { arrived_mask: 0 });
                entry.arrived_mask |= access.mask;
            }
            PacketKind::Wta {
                token,
                seq,
                access,
                n_accesses,
                ..
            } => {
                let e = self
                    .write_buf
                    .entry((token, seq))
                    .or_insert((n_accesses, vec![]));
                e.1.push(access);
                if self.write_buf.len() > self.write_capacity {
                    return Err(self.bad_delivery(
                        now,
                        summary,
                        "write address buffer overflow — credit protocol violated".into(),
                    ));
                }
            }
            PacketKind::NsuWriteAck { token } => {
                for w in self.slots.iter_mut().flatten() {
                    if w.token == token {
                        if w.writes_outstanding == 0 {
                            return Err(self.bad_delivery(
                                now,
                                summary,
                                "write-ack underflow: no writes outstanding".into(),
                            ));
                        }
                        w.writes_outstanding -= 1;
                        return Ok(());
                    }
                }
                return Err(self.bad_delivery(now, summary, "write ack for unknown warp".into()));
            }
            _ => {
                return Err(self.bad_delivery(now, summary, "NSU cannot consume this kind".into()))
            }
        }
        Ok(())
    }

    /// Advance one NSU cycle (`now` is the SM-cycle timestamp used for
    /// outgoing packets).
    pub fn tick(&mut self, now: Cycle) {
        self.nsu_now += 1;
        self.ticks += 1;
        self.spawn();
        self.occupied_sum += self.slots.iter().filter(|s| s.is_some()).count() as u64;
        self.issue(now);
    }

    fn spawn(&mut self) {
        for i in 0..self.slots.len() {
            if self.slots[i].is_some() {
                continue;
            }
            let Some(cmd) = self.cmd_q.pop_front() else {
                break;
            };
            self.credits.cmd += 1; // command buffer entry drained
            self.icache_touched.insert(cmd.block);
            self.slots[i] = Some(NsuWarp {
                token: cmd.token,
                id: cmd.id,
                block: cmd.block,
                sm: cmd.sm,
                active: cmd.active,
                mask: cmd.mask,
                pc: 0,
                next_free: self.nsu_now,
                seq: 0,
                writes_outstanding: 0,
            });
        }
    }

    /// Single-issue, round-robin across warp slots (temporal SIMT, §4.5).
    fn issue(&mut self, now: Cycle) {
        let n = self.slots.len();
        for k in 0..n {
            let i = (self.rr_cursor + k) % n;
            if self.try_issue_slot(i, now) {
                self.rr_cursor = (i + 1) % n;
                return;
            }
        }
    }

    /// Attempt to issue the current instruction of slot `i`. Returns true if
    /// an instruction issued (or the warp retired this cycle).
    fn try_issue_slot(&mut self, i: usize, now: Cycle) -> bool {
        let blocks = Arc::clone(&self.blocks);
        let Some(w) = self.slots[i].as_mut() else {
            return false;
        };
        if w.next_free > self.nsu_now {
            return false;
        }
        let code = &blocks[w.block as usize].nsu_code;
        match &code[w.pc] {
            NsuInstr::Begin { .. } => {
                w.pc += 1;
                self.instrs += 1;
                true
            }
            NsuInstr::Alu(instr) => {
                let sfu = matches!(
                    instr,
                    ndp_isa::instr::Instr::Alu { op, .. } if op.is_sfu()
                );
                w.next_free = self.nsu_now + if sfu { self.sfu_lat } else { 1 };
                w.pc += 1;
                self.instrs += 1;
                true
            }
            NsuInstr::Ld { .. } => {
                let key = (w.token, w.seq);
                let complete = self
                    .read_buf
                    .get(&key)
                    .is_some_and(|e| e.arrived_mask & w.mask == w.mask);
                if !complete {
                    return false; // stall until RDF responses merge (§4.1.2)
                }
                self.read_buf.remove(&key);
                self.credits.read += 1;
                w.seq += 1;
                w.pc += 1;
                self.instrs += 1;
                true
            }
            NsuInstr::St { .. } => {
                let key = (w.token, w.seq);
                // All coalesced WTA packets of this store must have arrived.
                let complete = self
                    .write_buf
                    .get(&key)
                    .is_some_and(|(n, v)| v.len() == *n as usize);
                if !complete {
                    return false;
                }
                let (_, accesses) = self.write_buf.remove(&key).expect("checked");
                self.credits.write += 1;
                let token = w.token;
                w.writes_outstanding += accesses.len() as u32;
                w.seq += 1;
                w.pc += 1;
                self.instrs += 1;
                let nsu = self.id;
                for access in accesses {
                    let coord = self.memmap.decode(access.line);
                    self.out.push_back(Packet::new(
                        Node::Nsu(nsu.0),
                        Node::Vault(coord.hmc.0, coord.vault.0),
                        now,
                        PacketKind::NsuWrite {
                            token,
                            addr: access.line,
                            words: access.active_words(),
                        },
                    ));
                }
                true
            }
            NsuInstr::End { regs_out } => {
                if w.writes_outstanding > 0 {
                    return false; // wait for DRAM write acks (§4.1.2)
                }
                let ack = Packet::new(
                    Node::Nsu(self.id.0),
                    Node::Sm(w.sm),
                    now,
                    PacketKind::OffloadAck {
                        token: w.token,
                        id: w.id,
                        regs_out: *regs_out,
                        active: w.active,
                        values: vec![],
                    },
                );
                self.out.push_back(ack);
                self.instrs += 1;
                self.blocks_done += 1;
                self.slots[i] = None;
                true
            }
        }
    }

    /// Average warp-slot occupancy in `[0, 1]` (Fig. 11).
    pub fn avg_occupancy(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.occupied_sum as f64 / (self.ticks as f64 * self.slots.len() as f64)
        }
    }

    /// I-cache utilization in `[0, 1]`: bytes of distinct block code executed
    /// over the 4 KB I-cache (Fig. 11).
    pub fn icache_utilization(&self, icache_bytes: usize) -> f64 {
        let used: usize = self
            .icache_touched
            .iter()
            .map(|&b| self.blocks[b as usize].nsu_code_bytes())
            .sum();
        (used as f64 / icache_bytes as f64).min(1.0)
    }

    /// Anything still queued or running?
    pub fn busy(&self) -> bool {
        !self.cmd_q.is_empty() || self.slots.iter().any(|s| s.is_some()) || !self.out.is_empty()
    }

    /// Current depths of the three NSU buffers: `(cmd_q, read_data,
    /// write_addr)` entries (occupancy sampling).
    pub fn buffer_depths(&self) -> (usize, usize, usize) {
        (self.cmd_q.len(), self.read_buf.len(), self.write_buf.len())
    }

    /// Warp slots currently running a block instance (occupancy sampling).
    pub fn occupied_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Drain accumulated credit events.
    pub fn take_credits(&mut self) -> CreditEvents {
        std::mem::take(&mut self.credits)
    }

    /// Credit events accumulated but not yet drained? (Horizon of the
    /// credit side-channel: `take_credits` only does work when nonzero.)
    pub fn has_pending_credits(&self) -> bool {
        self.credits.cmd != 0 || self.credits.read != 0 || self.credits.write != 0
    }

    /// Quiescence horizon in *NSU ticks from now*: `Some(0)` means the very
    /// next tick could do work, `Some(d)` that the next `d` ticks are
    /// provably idle, `None` that no tick will do work until a packet is
    /// delivered. `tick` pre-increments the internal clock, so the next
    /// tick runs at `nsu_now + 1`; a warp with `next_free` beyond that is
    /// idle for `next_free - (nsu_now + 1)` ticks. Warps stalled on buffer
    /// merges or write ACKs wake only via `deliver`, which other horizons
    /// (link/edge) track, so they contribute `None`.
    pub fn next_work_delta(&self) -> Option<u64> {
        if !self.cmd_q.is_empty() {
            return Some(0); // conservative: spawn may or may not find a slot
        }
        let m = self.nsu_now + 1;
        let mut best: Option<u64> = None;
        for w in self.slots.iter().flatten() {
            let runnable = match &self.blocks[w.block as usize].nsu_code[w.pc] {
                NsuInstr::Begin { .. } | NsuInstr::Alu(_) => true,
                NsuInstr::Ld { .. } => self
                    .read_buf
                    .get(&(w.token, w.seq))
                    .is_some_and(|e| e.arrived_mask & w.mask == w.mask),
                NsuInstr::St { .. } => self
                    .write_buf
                    .get(&(w.token, w.seq))
                    .is_some_and(|(n, v)| v.len() == *n as usize),
                NsuInstr::End { .. } => w.writes_outstanding == 0,
            };
            if runnable {
                let d = w.next_free.saturating_sub(m);
                best = Some(best.map_or(d, |b: u64| b.min(d)));
                if best == Some(0) {
                    break;
                }
            }
        }
        best
    }

    /// Replay the bookkeeping `k` elided ticks would have done. On a cycle
    /// [`Nsu::next_work_delta`] proved idle, `tick` only advances the
    /// clock/tick counters and accumulates occupancy (no spawn — the
    /// command queue was empty, so occupancy is constant over the span; no
    /// issue — `try_issue_slot` is read-only when it declines).
    pub fn note_skipped(&mut self, k: u64) {
        self.nsu_now += k;
        self.ticks += k;
        self.occupied_sum += self.occupied_slots() as u64 * k;
    }

    /// Tokens resident in warp slots, with execution state (stall reports).
    pub fn resident_tokens(&self) -> Vec<TokenInFlight> {
        self.slots
            .iter()
            .flatten()
            .map(|w| TokenInFlight {
                token: w.token.0,
                state: format!(
                    "nsu{} slot: pc {}, {} writes outstanding",
                    self.id.0, w.pc, w.writes_outstanding
                ),
            })
            .collect()
    }
}

ndp_common::snap_value!(CmdInfo {
    token,
    id,
    block,
    sm,
    active,
    mask,
});
ndp_common::snap_value!(ReadEntry { arrived_mask });
ndp_common::snap_value!(NsuWarp {
    token,
    id,
    block,
    sm,
    active,
    mask,
    pc,
    next_free,
    seq,
    writes_outstanding,
});

ndp_common::snap_state!(Nsu {
    slots [each], cmd_q, read_buf, write_buf, out, credits, nsu_now, rr_cursor, icache_touched,
    occupied_sum, ticks, instrs, blocks_done;
    derived: id, blocks, pc_to_block, cmd_capacity, read_capacity, write_capacity, memmap,
        sfu_lat
});

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_isa::instr::{AluOp, Instr, Operand, Reg};
    use ndp_isa::offload::InstrRole;

    fn test_block() -> OffloadBlock {
        OffloadBlock {
            id: 0,
            start: 0,
            end: 3,
            roles: vec![InstrRole::Load, InstrRole::AtNsu, InstrRole::Store],
            live_in: vec![],
            live_out: vec![],
            nsu_code: vec![
                NsuInstr::Begin { regs_in: 0 },
                NsuInstr::Ld { dst: Reg(1) },
                NsuInstr::Alu(Instr::alu(
                    AluOp::FMul,
                    Reg(2),
                    Operand::Reg(Reg(1)),
                    Operand::Reg(Reg(1)),
                )),
                NsuInstr::St { src: Reg(2) },
                NsuInstr::End { regs_out: 0 },
            ],
            nsu_pc: 0xd00,
            score: 1,
            indirect: false,
        }
    }

    fn nsu() -> Nsu {
        Nsu::new(
            HmcId(0),
            &SystemConfig::default(),
            Arc::new(vec![test_block()]),
        )
    }

    fn cmd(token: u64) -> Packet {
        Packet::new(
            Node::Sm(0),
            Node::Nsu(0),
            0,
            PacketKind::OffloadCmd {
                token: OffloadToken(token),
                id: OffloadId {
                    sm: 0,
                    warp: 0,
                    seq: 0,
                },
                nsu_pc: 0xd00,
                regs_in: 0,
                active: 32,
                mask: u32::MAX,
                n_loads: 1,
                n_stores: 1,
            },
        )
    }

    fn full_access(line: u64) -> LineAccess {
        LineAccess {
            line,
            mask: u32::MAX,
            misaligned: false,
        }
    }

    fn rdf_resp(token: u64, seq: u16, access: LineAccess) -> Packet {
        Packet::new(
            Node::Vault(0, 0),
            Node::Nsu(0),
            0,
            PacketKind::RdfResp {
                token: OffloadToken(token),
                seq,
                access,
            },
        )
    }

    fn wta2(token: u64, seq: u16, access: LineAccess, n_accesses: u8) -> Packet {
        Packet::new(
            Node::Sm(0),
            Node::Nsu(0),
            0,
            PacketKind::Wta {
                token: OffloadToken(token),
                seq,
                access,
                target: Node::Nsu(0),
                n_accesses,
            },
        )
    }

    fn wta(token: u64, seq: u16, access: LineAccess) -> Packet {
        Packet::new(
            Node::Sm(0),
            Node::Nsu(0),
            0,
            PacketKind::Wta {
                token: OffloadToken(token),
                seq,
                access,
                target: Node::Nsu(0),
                n_accesses: 1,
            },
        )
    }

    #[test]
    fn full_block_lifecycle() {
        let mut n = nsu();
        n.deliver(0, cmd(1)).unwrap();
        n.deliver(0, rdf_resp(1, 0, full_access(0x1000))).unwrap();
        n.deliver(0, wta(1, 1, full_access(0x2000))).unwrap();
        let mut acked = false;
        for now in 0..200 {
            n.tick(now);
            while let Some(p) = n.out.pop_front() {
                match p.kind {
                    PacketKind::NsuWrite { token, words, .. } => {
                        assert_eq!(token, OffloadToken(1));
                        assert_eq!(words, 32);
                        // Ack the write.
                        n.deliver(
                            0,
                            Packet::new(
                                p.dst,
                                Node::Nsu(0),
                                now,
                                PacketKind::NsuWriteAck { token },
                            ),
                        )
                        .unwrap();
                    }
                    PacketKind::OffloadAck { token, .. } => {
                        assert_eq!(token, OffloadToken(1));
                        acked = true;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(acked);
        assert!(!n.busy());
        let c = n.take_credits();
        assert_eq!((c.cmd, c.read, c.write), (1, 1, 1));
        assert_eq!(n.blocks_done, 1);
    }

    #[test]
    fn load_stalls_until_all_responses_merge() {
        let mut n = nsu();
        n.deliver(0, cmd(2)).unwrap();
        // Two partial responses covering half the warp each.
        let mut a1 = full_access(0x1000);
        a1.mask = 0xffff;
        for now in 0..20 {
            n.tick(now);
        }
        assert!(n.out.is_empty(), "no progress before data");
        n.deliver(0, rdf_resp(2, 0, a1)).unwrap();
        for now in 20..40 {
            n.tick(now);
        }
        assert!(n.out.is_empty(), "half the lanes still missing");
        let mut a2 = full_access(0x1000);
        a2.mask = 0xffff_0000;
        n.deliver(0, rdf_resp(2, 0, a2)).unwrap();
        n.deliver(0, wta(2, 1, full_access(0x2000))).unwrap();
        let mut wrote = false;
        for now in 40..200 {
            n.tick(now);
            if let Some(p) = n.out.pop_front() {
                assert!(matches!(p.kind, PacketKind::NsuWrite { .. }));
                wrote = true;
                break;
            }
        }
        assert!(wrote);
    }

    #[test]
    fn end_waits_for_write_acks() {
        let mut n = nsu();
        n.deliver(0, cmd(3)).unwrap();
        n.deliver(0, rdf_resp(3, 0, full_access(0x1000))).unwrap();
        n.deliver(0, wta(3, 1, full_access(0x2000))).unwrap();
        let mut write_pkt = None;
        for now in 0..100 {
            n.tick(now);
            if let Some(p) = n.out.pop_front() {
                write_pkt = Some(p);
                break;
            }
        }
        let wp = write_pkt.expect("write emitted");
        // Without the ack, no ACK packet may appear.
        for now in 100..200 {
            n.tick(now);
        }
        assert!(n.out.is_empty(), "OFLD.END must wait for write acks");
        if let PacketKind::NsuWrite { token, .. } = wp.kind {
            n.deliver(
                0,
                Packet::new(wp.dst, Node::Nsu(0), 200, PacketKind::NsuWriteAck { token }),
            )
            .unwrap();
        }
        let mut acked = false;
        for now in 200..260 {
            n.tick(now);
            if let Some(p) = n.out.pop_front() {
                assert!(matches!(p.kind, PacketKind::OffloadAck { .. }));
                acked = true;
            }
        }
        assert!(acked);
    }

    #[test]
    fn divergent_store_fans_out_writes() {
        let mut n = nsu();
        n.deliver(0, cmd(4)).unwrap();
        n.deliver(0, rdf_resp(4, 0, full_access(0x1000))).unwrap();
        // Two WTA line accesses for one store instruction (divergent store).
        let mut h1 = full_access(0x2000);
        h1.mask = 0xffff;
        let mut h2 = full_access(0x8000);
        h2.mask = 0xffff_0000;
        n.deliver(0, wta2(4, 1, h1, 2)).unwrap();
        n.deliver(0, wta2(4, 1, h2, 2)).unwrap();
        let mut writes = 0;
        for now in 0..100 {
            n.tick(now);
            while let Some(p) = n.out.pop_front() {
                if matches!(p.kind, PacketKind::NsuWrite { .. }) {
                    writes += 1;
                }
            }
            if writes == 2 {
                break;
            }
        }
        assert_eq!(writes, 2);
        // One write-address buffer entry per store instruction.
        assert_eq!(n.take_credits().write, 1);
    }

    #[test]
    fn occupancy_and_icache_stats() {
        let mut n = nsu();
        n.deliver(0, cmd(5)).unwrap();
        n.deliver(0, rdf_resp(5, 0, full_access(0x1000))).unwrap();
        for now in 0..10 {
            n.tick(now);
        }
        assert!(n.avg_occupancy() > 0.0);
        let util = n.icache_utilization(4096);
        // 5 instructions × 8 B = 40 B of 4096.
        assert!((util - 40.0 / 4096.0).abs() < 1e-9);
    }

    #[test]
    fn skipping_idle_ticks_matches_ticking() {
        // A warp that runs Begin/Ld/Alu then stalls on its store data:
        // eliding the provably idle ticks must leave every counter (clock,
        // occupancy, instructions, outputs) identical to per-tick running.
        let prime = |n: &mut Nsu| {
            n.deliver(0, cmd(1)).unwrap();
            n.deliver(0, rdf_resp(1, 0, full_access(0x1000))).unwrap();
        };
        const END: u64 = 100;
        let mut ticked = nsu();
        prime(&mut ticked);
        for now in 0..END {
            ticked.tick(now);
        }
        let mut skipped = nsu();
        prime(&mut skipped);
        let mut t = 0u64;
        let mut elided = 0u64;
        while t < END {
            match skipped.next_work_delta() {
                Some(0) => {
                    skipped.tick(t);
                    t += 1;
                }
                Some(d) => {
                    let d = d.min(END - t);
                    skipped.note_skipped(d);
                    elided += d;
                    t += d;
                }
                None => {
                    skipped.note_skipped(END - t);
                    elided += END - t;
                    t = END;
                }
            }
        }
        assert!(elided > 50, "the stalled tail should dominate: {elided}");
        assert_eq!(ticked.ticks, skipped.ticks);
        assert_eq!(ticked.nsu_now, skipped.nsu_now);
        assert_eq!(ticked.occupied_sum, skipped.occupied_sum);
        assert_eq!(ticked.instrs, skipped.instrs);
        assert_eq!(ticked.out.len(), skipped.out.len());
        assert_eq!(ticked.occupied_slots(), skipped.occupied_slots());
    }

    #[test]
    fn many_commands_queue_within_capacity() {
        let mut n = nsu();
        for t in 0..10 {
            n.deliver(0, cmd(t)).unwrap();
        }
        // 10 commands (capacity) is fine; all eventually spawn.
        for now in 0..50 {
            n.tick(now);
        }
        assert_eq!(n.take_credits().cmd, 10);
    }
}
