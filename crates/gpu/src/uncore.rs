//! GPU uncore: address-sliced L2 cache (one 256 KB slice per GPU↔HMC link)
//! plus the on-die interconnect delay between SMs and slices.
//!
//! The slice probes baseline reads/writes and RDF packets: RDF hits ship the
//! cached words to the target NSU as RDF responses over the GPU link (§4.1
//! Fig. 6(a)); misses forward to the owning vault. Cache invalidations from
//! NSU writes (§4.2) land here.

use ndp_common::config::SystemConfig;
use ndp_common::ids::{Cycle, Node};
use ndp_common::packet::{Packet, PacketKind, NO_BLOCK};
use ndp_common::port::{InPort, OutPort};
use ndp_common::stats::CacheStats;

use crate::cache::{Cache, Probe};

/// Waiter for an outstanding L2 miss: the original requester + tag.
type L2Waiter = (Node, u64);

/// One L2 slice, fronting one GPU↔HMC link.
pub struct L2Slice {
    pub id: u8,
    cache: Cache<L2Waiter>,
    /// Arrivals from SMs, delayed by the on-die interconnect.
    in_q: InPort,
    /// Arrivals from the memory side (GPU link, down direction).
    from_mem: OutPort,
    /// Departures to the memory side (GPU link, up direction).
    pub to_mem: OutPort,
    /// Responses to SMs (delayed by the on-die interconnect or L2 hit
    /// latency; ready cycles are stamped per packet).
    pub to_sm: InPort,
    ondie_lat: Cycle,
    l2_lat: Cycle,
    line_bytes: u32,
    /// Probes served per cycle.
    throughput: usize,
    /// Writes forwarded to DRAM that have not been acknowledged yet.
    pub writes_outstanding: u64,
    /// (block, l2_hit) samples for RDF and block-attributed reads (§7.3).
    pub block_events: Vec<(u16, bool)>,
    /// Bytes through this slice (GPU on-die wire energy).
    pub ondie_bytes: u64,
    /// §4.1 RDF cache-probe behaviour (ablation knob).
    rdf_probes_cache: bool,
}

impl L2Slice {
    pub fn new(id: u8, cfg: &SystemConfig) -> Self {
        let slice_bytes = cfg.gpu.l2_bytes / cfg.l2_slices();
        L2Slice {
            id,
            cache: Cache::new(
                slice_bytes,
                cfg.gpu.l2_ways,
                cfg.gpu.line_bytes,
                cfg.gpu.l2_mshrs,
            ),
            in_q: InPort::new(16, 256),
            from_mem: OutPort::unbounded(),
            to_mem: OutPort::new(64),
            to_sm: InPort::unbounded(0),
            ondie_lat: 16,
            l2_lat: cfg.gpu.l2_hit_latency as Cycle,
            line_bytes: cfg.gpu.line_bytes as u32,
            throughput: 4,
            writes_outstanding: 0,
            block_events: vec![],
            ondie_bytes: 0,
            rdf_probes_cache: cfg.nsu.rdf_probes_gpu_cache,
        }
    }

    /// Can the slice take more SM-side packets this cycle?
    pub fn can_accept(&self) -> bool {
        self.in_q.can_accept()
    }

    /// A packet leaves an SM toward this slice.
    pub fn from_sm(&mut self, now: Cycle, p: Packet) {
        self.ondie_bytes += p.size as u64;
        self.in_q.push(now, p);
    }

    /// A packet arrives from the memory side.
    pub fn from_mem(&mut self, p: Packet) {
        self.from_mem.push_back(p);
    }

    /// Pop a response ready for an SM.
    pub fn pop_to_sm(&mut self, now: Cycle) -> Option<Packet> {
        self.to_sm.pop_ready(now)
    }

    pub fn stats(&self) -> CacheStats {
        self.cache.stats
    }

    pub fn is_idle(&self) -> bool {
        self.in_q.is_empty()
            && self.from_mem.is_empty()
            && self.to_mem.is_empty()
            && self.to_sm.is_empty()
    }

    /// Quiescence horizon: memory-side arrivals are processed same-cycle;
    /// SM-side arrivals wait for their interconnect latency stamp. `to_sm`
    /// is deliberately not a wake source here — draining it is the
    /// slice→SM edge's horizon, not the tick's. A backpressured or
    /// not-yet-ready tick is a pure no-op, so skipped cycles need no
    /// replay.
    pub fn next_work_at(&self, now: Cycle) -> Option<Cycle> {
        if !self.from_mem.is_empty() {
            return Some(now);
        }
        self.in_q.next_ready()
    }

    pub fn tick(&mut self, now: Cycle) {
        // Memory-side arrivals are lightweight; process all.
        while let Some(p) = self.from_mem.pop_front() {
            match p.kind {
                PacketKind::ReadResp { addr, bytes, .. } => {
                    for (node, tag) in self.cache.fill(addr) {
                        self.ondie_bytes += (bytes + 16) as u64;
                        self.to_sm.push_at(
                            now + self.ondie_lat,
                            Packet::new(
                                Node::L2(self.id),
                                node,
                                now,
                                PacketKind::ReadResp { addr, bytes, tag },
                            ),
                        );
                    }
                }
                PacketKind::WriteAck { .. } => {
                    self.writes_outstanding = self.writes_outstanding.saturating_sub(1);
                }
                PacketKind::CacheInval { addr } => {
                    self.cache.invalidate(addr & !(self.line_bytes as u64 - 1));
                }
                other => panic!("L2 cannot consume {other:?} from memory side"),
            }
        }

        // SM-side arrivals: up to `throughput` probes per cycle, stalling
        // when the memory-side output backs up (GPU-link backpressure).
        for _ in 0..self.throughput {
            if !self.to_mem.can_accept() {
                break;
            }
            let Some(p) = self.in_q.pop_ready(now) else {
                break;
            };
            self.process_sm_packet(now, p);
        }
    }

    fn process_sm_packet(&mut self, now: Cycle, p: Packet) {
        match p.kind {
            PacketKind::ReadReq {
                addr,
                bytes,
                tag,
                block,
            } => {
                let probe = self.cache.probe_read(addr, (p.src, tag));
                if block != NO_BLOCK {
                    self.block_events.push((block, probe == Probe::Hit));
                }
                match probe {
                    Probe::Hit => {
                        self.ondie_bytes += (bytes + 16) as u64;
                        self.to_sm.push_at(
                            now + self.l2_lat,
                            Packet::new(
                                Node::L2(self.id),
                                p.src,
                                now,
                                PacketKind::ReadResp { addr, bytes, tag },
                            ),
                        );
                    }
                    Probe::MissNew => {
                        let coord_dst = p.dst; // slice id == hmc id
                        let hmc = match coord_dst {
                            Node::L2(h) => h,
                            _ => self.id,
                        };
                        // Forward to the vault; the stack decodes the vault
                        // index from the address.
                        let vault = vault_of(addr, self.line_bytes);
                        self.to_mem.push_back(Packet::new(
                            Node::L2(self.id),
                            Node::Vault(hmc, vault),
                            now,
                            PacketKind::ReadReq {
                                addr,
                                bytes,
                                tag: 0,
                                block: NO_BLOCK,
                            },
                        ));
                    }
                    Probe::MissMerged => {}
                    Probe::MshrFull => {
                        // Retry next cycle: requeue at the front.
                        self.in_q.push_front_at(now, p);
                    }
                }
            }
            PacketKind::WriteReq { addr, words, .. } => {
                self.cache.write_touch(addr);
                self.writes_outstanding += 1;
                let vault = vault_of(addr, self.line_bytes);
                self.to_mem.push_back(Packet::new(
                    Node::L2(self.id),
                    Node::Vault(self.id, vault),
                    now,
                    PacketKind::WriteReq {
                        addr,
                        words,
                        tag: 0,
                    },
                ));
            }
            PacketKind::Rdf {
                token,
                seq,
                ref access,
                target,
                block,
                ..
            } => {
                // Probe without allocating or registering a waiter: the data
                // never comes back to the GPU on a miss.
                let hit = self.rdf_probes_cache && self.cache.contains(access.line);
                self.block_events.push((block, hit));
                if hit {
                    self.cache.stats.read_hits += 1;
                    self.to_mem.push_back(Packet::new(
                        Node::L2(self.id),
                        target,
                        now,
                        PacketKind::RdfResp {
                            token,
                            seq,
                            access: *access,
                        },
                    ));
                } else {
                    self.cache.stats.read_misses += 1;
                    self.to_mem.push_back(p);
                }
            }
            // CMD / WTA / SM-generated RDF responses pass through untouched.
            PacketKind::OffloadCmd { .. } | PacketKind::Wta { .. } | PacketKind::RdfResp { .. } => {
                self.to_mem.push_back(p)
            }
            other => panic!("L2 cannot consume {other:?} from SM side"),
        }
    }
}

ndp_common::snap_state!(L2Slice {
    cache, in_q, from_mem, to_mem, to_sm, writes_outstanding, block_events, ondie_bytes;
    derived: id, ondie_lat, l2_lat, line_bytes, throughput, rdf_probes_cache
});

/// Vault index of an address (line-interleaved, 16 vaults).
fn vault_of(addr: u64, line_bytes: u32) -> u8 {
    ((addr / line_bytes as u64) % 16) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice() -> L2Slice {
        L2Slice::new(0, &SystemConfig::default())
    }

    fn read_req(addr: u64, tag: u64) -> Packet {
        Packet::new(
            Node::Sm(1),
            Node::L2(0),
            0,
            PacketKind::ReadReq {
                addr,
                bytes: 128,
                tag,
                block: NO_BLOCK,
            },
        )
    }

    fn run(s: &mut L2Slice, from: Cycle, to: Cycle) -> Vec<(Cycle, Packet)> {
        let mut out = vec![];
        for now in from..to {
            s.tick(now);
            while let Some(p) = s.pop_to_sm(now) {
                out.push((now, p));
            }
        }
        out
    }

    #[test]
    fn miss_forwards_to_vault_and_fill_responds() {
        let mut s = slice();
        s.from_sm(0, read_req(0x1000, 7));
        run(&mut s, 0, 20);
        assert_eq!(s.to_mem.len(), 1);
        assert!(matches!(s.to_mem[0].dst, Node::Vault(0, _)));
        // Simulate the DRAM response.
        s.from_mem(Packet::new(
            Node::Vault(0, 0),
            Node::L2(0),
            20,
            PacketKind::ReadResp {
                addr: 0x1000,
                bytes: 128,
                tag: 0,
            },
        ));
        let got = run(&mut s, 20, 60);
        assert_eq!(got.len(), 1);
        match got[0].1.kind {
            PacketKind::ReadResp { tag, .. } => assert_eq!(tag, 7, "original tag restored"),
            _ => panic!(),
        }
        // Second access to the same line hits locally.
        s.from_sm(60, read_req(0x1000, 8));
        let got = run(&mut s, 60, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(s.stats().read_hits, 1);
    }

    #[test]
    fn merged_misses_fan_out_on_fill() {
        let mut s = slice();
        s.from_sm(0, read_req(0x2000, 1));
        s.from_sm(0, read_req(0x2000, 2));
        run(&mut s, 0, 20);
        assert_eq!(s.to_mem.len(), 1, "one DRAM fetch for two requesters");
        s.from_mem(Packet::new(
            Node::Vault(0, 0),
            Node::L2(0),
            20,
            PacketKind::ReadResp {
                addr: 0x2000,
                bytes: 128,
                tag: 0,
            },
        ));
        let got = run(&mut s, 20, 60);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn rdf_hit_ships_data_to_nsu() {
        let mut s = slice();
        // Warm the line.
        s.from_sm(0, read_req(0x3000, 1));
        run(&mut s, 0, 20);
        s.from_mem(Packet::new(
            Node::Vault(0, 0),
            Node::L2(0),
            0,
            PacketKind::ReadResp {
                addr: 0x3000,
                bytes: 128,
                tag: 0,
            },
        ));
        run(&mut s, 20, 40);
        s.to_mem.clear();
        // Now an RDF for the same line.
        let access = ndp_common::packet::LineAccess {
            line: 0x3000,
            mask: u32::MAX,
            misaligned: false,
        };
        s.from_sm(
            40,
            Packet::new(
                Node::Sm(0),
                Node::Vault(0, 0),
                40,
                PacketKind::Rdf {
                    token: ndp_common::ids::OffloadToken(1),
                    seq: 0,
                    access,
                    target: Node::Nsu(5),
                    block: 3,
                    cache_hit_data: false,
                },
            ),
        );
        run(&mut s, 40, 80);
        assert_eq!(s.to_mem.len(), 1);
        assert!(matches!(s.to_mem[0].kind, PacketKind::RdfResp { .. }));
        assert_eq!(s.to_mem[0].dst, Node::Nsu(5));
        assert_eq!(s.block_events, vec![(3, true)]);
    }

    #[test]
    fn rdf_miss_passes_through() {
        let mut s = slice();
        let access = ndp_common::packet::LineAccess {
            line: 0x9000,
            mask: 1,
            misaligned: false,
        };
        s.from_sm(
            0,
            Packet::new(
                Node::Sm(0),
                Node::Vault(0, 2),
                0,
                PacketKind::Rdf {
                    token: ndp_common::ids::OffloadToken(2),
                    seq: 0,
                    access,
                    target: Node::Nsu(1),
                    block: 0,
                    cache_hit_data: false,
                },
            ),
        );
        run(&mut s, 0, 30);
        assert_eq!(s.to_mem.len(), 1);
        assert!(matches!(s.to_mem[0].kind, PacketKind::Rdf { .. }));
        assert_eq!(s.block_events, vec![(0, false)]);
    }

    #[test]
    fn invalidation_drops_cached_line() {
        let mut s = slice();
        s.from_sm(0, read_req(0x4000, 1));
        run(&mut s, 0, 20);
        s.from_mem(Packet::new(
            Node::Vault(0, 0),
            Node::L2(0),
            0,
            PacketKind::ReadResp {
                addr: 0x4000,
                bytes: 128,
                tag: 0,
            },
        ));
        run(&mut s, 20, 40);
        s.from_mem(Packet::new(
            Node::Vault(0, 0),
            Node::L2(0),
            0,
            PacketKind::CacheInval { addr: 0x4000 },
        ));
        run(&mut s, 40, 45);
        // The next read misses again.
        s.from_sm(45, read_req(0x4000, 9));
        run(&mut s, 45, 70);
        assert_eq!(s.stats().read_misses, 2);
    }

    #[test]
    fn writes_count_outstanding_until_acked() {
        let mut s = slice();
        s.from_sm(
            0,
            Packet::new(
                Node::Sm(0),
                Node::L2(0),
                0,
                PacketKind::WriteReq {
                    addr: 0x5000,
                    words: 32,
                    tag: 0,
                },
            ),
        );
        run(&mut s, 0, 20);
        assert_eq!(s.writes_outstanding, 1);
        s.from_mem(Packet::new(
            Node::Vault(0, 0),
            Node::L2(0),
            0,
            PacketKind::WriteAck {
                addr: 0x5000,
                tag: 0,
            },
        ));
        run(&mut s, 20, 25);
        assert_eq!(s.writes_outstanding, 0);
    }
}
