//! Packetized message formats.
//!
//! The partitioned-execution protocol of §4 communicates exclusively through
//! packets (Fig. 4): offload command (CMD), read-and-forward (RDF), write
//! address (WTA), RDF response, DRAM write + write-ack, cache invalidation,
//! and offload acknowledgment (ACK). Baseline execution uses conventional
//! read/write request/response packets. Wire sizes follow the field layouts
//! of Fig. 4 so that link bandwidth and energy accounting are faithful.

use crate::ids::{Cycle, Node, OffloadId, OffloadToken};

/// Word size for register values and per-lane data words (bytes).
pub const WORD_BYTES: u32 = 4;

/// Sentinel `block` value for memory accesses outside any offload block.
pub const NO_BLOCK: u16 = u16::MAX;

/// Packet header bytes: offload packet ID / address / control information.
/// The HMC protocol uses 16-byte-granularity FLITs; we charge one FLIT of
/// header per packet.
pub const HEADER_BYTES: u32 = 16;

/// One coalesced access to a 128 B cache line, produced by the GPU's
/// coalescing unit for both baseline memory instructions and RDF/WTA
/// generation (§4.1.1 "Memory instruction"). A 16-byte value: the model
/// needs which lanes touch the line and whether they sit at their aligned
/// offsets, never a lane's byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAccess {
    /// Cache-line base address.
    pub line: u64,
    /// The lanes touching this line (bit *i* = lane *i*).
    pub mask: u32,
    /// §4.1.1 alignment rule: aligned iff lane *i* reads
    /// `line + i × WordSize`. Misaligned accesses append per-thread offsets
    /// to RDF/WTA packets.
    pub misaligned: bool,
}

impl LineAccess {
    /// Number of active words in this access.
    pub fn active_words(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Extra bytes appended to an RDF/WTA packet for a misaligned access:
    /// one offset byte per active thread (Fig. 4(b)).
    pub fn offset_overhead(&self) -> u32 {
        if self.misaligned {
            self.active_words()
        } else {
            0
        }
    }
}

crate::snap_value!(LineAccess {
    line,
    mask,
    misaligned
});

/// Payload variants. Wire size is computed by [`Packet::wire_size`].
#[derive(Debug, Clone)]
pub enum PacketKind {
    /// Baseline cache-miss read: fetch `bytes` at line `addr` from a vault.
    /// `tag` lets the requesting cache level match the response to its MSHR.
    /// `block` attributes the access to an offload block for the §7.3
    /// locality statistics (`NO_BLOCK` when outside any block).
    ReadReq {
        addr: u64,
        bytes: u32,
        tag: u64,
        block: u16,
    },
    /// Baseline read response carrying the data.
    ReadResp { addr: u64, bytes: u32, tag: u64 },
    /// Baseline write-through store: `words` 4-byte words within line `addr`.
    WriteReq { addr: u64, words: u32, tag: u64 },
    /// Baseline write acknowledgment.
    WriteAck { addr: u64, tag: u64 },

    /// Offload command (Fig. 4(a)): spawns a warp on the target NSU.
    OffloadCmd {
        token: OffloadToken,
        id: OffloadId,
        /// Start PC of the NSU code for this block (physical, §4.1.1).
        nsu_pc: u64,
        /// Live-in register values transferred to the NSU, one word per
        /// register per active thread.
        regs_in: u8,
        /// Active thread count (for register payload sizing).
        active: u8,
        /// Active thread mask (Fig. 4(a)) — the NSU uses it to detect when
        /// merged RDF responses cover the warp (§4.1.2).
        mask: u32,
        /// Loads / stores in the block (reserve read-data / write-address
        /// buffer entries).
        n_loads: u8,
        n_stores: u8,
    },
    /// Read-and-forward request (Fig. 4(b)): DRAM read whose response is
    /// forwarded to the target NSU instead of the GPU.
    Rdf {
        token: OffloadToken,
        seq: u16,
        access: LineAccess,
        /// The NSU that consumes the response.
        target: Node,
        /// Offload block this RDF belongs to (§7.3 locality statistics).
        block: u16,
        /// Set when the RDF hit in a GPU cache and this packet carries the
        /// cached data GPU→NSU (then its size includes the data words).
        cache_hit_data: bool,
    },
    /// RDF response (Fig. 4(c)): the accessed words, forwarded to the NSU.
    RdfResp {
        token: OffloadToken,
        seq: u16,
        access: LineAccess,
    },
    /// Write-address packet (Fig. 4(b)): physical store addresses for one
    /// line, sent GPU→NSU. `n_accesses` is how many WTA packets this store
    /// instruction coalesced into (the NSU must collect them all before
    /// issuing the write, mirroring the RDF merge rule of §4.1.2).
    Wta {
        token: OffloadToken,
        seq: u16,
        access: LineAccess,
        target: Node,
        n_accesses: u8,
    },
    /// NSU-generated DRAM write for an offloaded store (§4.1.2).
    NsuWrite {
        token: OffloadToken,
        addr: u64,
        words: u32,
    },
    /// Vault→NSU acknowledgment of an [`PacketKind::NsuWrite`].
    NsuWriteAck { token: OffloadToken },
    /// Vault→GPU cache invalidation after an NSU write (§4.2).
    CacheInval { addr: u64 },
    /// Offload acknowledgment (§4.1.2): NSU→GPU, carries live-out registers.
    OffloadAck {
        token: OffloadToken,
        id: OffloadId,
        regs_out: u8,
        active: u8,
        /// Functional values of the live-out registers (per register, per
        /// lane), so the GPU warp resumes with NSU-computed data.
        values: Vec<[u64; 32]>,
    },
}

impl PacketKind {
    /// Number of distinct packet kinds: the size of every per-kind
    /// accounting array. [`Packet::kind_index`] always returns `< COUNT`.
    pub const COUNT: usize = 12;
}

/// A packet in flight.
#[derive(Debug, Clone)]
pub struct Packet {
    pub src: Node,
    pub dst: Node,
    /// Bytes on the wire (header + payload), used for serialization delay,
    /// traffic accounting and link energy.
    pub size: u32,
    /// Cycle the packet was created (for latency statistics).
    pub birth: Cycle,
    pub kind: PacketKind,
}

impl Packet {
    pub fn new(src: Node, dst: Node, birth: Cycle, kind: PacketKind) -> Self {
        let size = Self::wire_size(&kind);
        Packet {
            src,
            dst,
            size,
            birth,
            kind,
        }
    }

    /// Wire size in bytes for each packet kind, per the Fig. 4 layouts.
    pub fn wire_size(kind: &PacketKind) -> u32 {
        match kind {
            PacketKind::ReadReq { .. } => HEADER_BYTES,
            PacketKind::ReadResp { bytes, .. } => HEADER_BYTES + bytes,
            PacketKind::WriteReq { words, .. } => HEADER_BYTES + words * WORD_BYTES,
            PacketKind::WriteAck { .. } => HEADER_BYTES / 2,
            PacketKind::OffloadCmd {
                regs_in, active, ..
            } => {
                // Shaded fields of Fig. 4(a): (register size) × (#regs) ×
                // (#active threads), present only when registers transfer.
                HEADER_BYTES + (*regs_in as u32) * WORD_BYTES * (*active as u32)
            }
            PacketKind::Rdf {
                access,
                cache_hit_data,
                ..
            } => {
                let data = if *cache_hit_data {
                    access.active_words() * WORD_BYTES
                } else {
                    0
                };
                HEADER_BYTES + access.offset_overhead() + data
            }
            PacketKind::RdfResp { access, .. } => {
                // Only the words actually accessed are included (§4.4).
                HEADER_BYTES + access.active_words() * WORD_BYTES
            }
            PacketKind::Wta { access, .. } => HEADER_BYTES + access.offset_overhead(),
            PacketKind::NsuWrite { words, .. } => HEADER_BYTES + words * WORD_BYTES,
            PacketKind::NsuWriteAck { .. } => HEADER_BYTES / 2,
            PacketKind::CacheInval { .. } => HEADER_BYTES,
            PacketKind::OffloadAck {
                regs_out, active, ..
            } => HEADER_BYTES + (*regs_out as u32) * WORD_BYTES * (*active as u32),
        }
    }

    /// Small integer id of the packet kind (stable, for per-kind traffic
    /// accounting in link statistics).
    pub fn kind_index(&self) -> usize {
        match self.kind {
            PacketKind::ReadReq { .. } => 0,
            PacketKind::ReadResp { .. } => 1,
            PacketKind::WriteReq { .. } => 2,
            PacketKind::WriteAck { .. } => 3,
            PacketKind::OffloadCmd { .. } => 4,
            PacketKind::Rdf { .. } => 5,
            PacketKind::RdfResp { .. } => 6,
            PacketKind::Wta { .. } => 7,
            PacketKind::NsuWrite { .. } => 8,
            PacketKind::NsuWriteAck { .. } => 9,
            PacketKind::CacheInval { .. } => 10,
            PacketKind::OffloadAck { .. } => 11,
        }
    }

    /// Human-readable name for [`Packet::kind_index`] slots.
    pub const KIND_NAMES: [&'static str; PacketKind::COUNT] = [
        "ReadReq",
        "ReadResp",
        "WriteReq",
        "WriteAck",
        "OffloadCmd",
        "Rdf",
        "RdfResp",
        "Wta",
        "NsuWrite",
        "NsuWriteAck",
        "CacheInval",
        "OffloadAck",
    ];

    /// The offload token this packet belongs to, for the NDP-protocol
    /// packets that carry one (tracing and transaction tracking).
    pub fn token(&self) -> Option<OffloadToken> {
        match self.kind {
            PacketKind::OffloadCmd { token, .. }
            | PacketKind::Rdf { token, .. }
            | PacketKind::RdfResp { token, .. }
            | PacketKind::Wta { token, .. }
            | PacketKind::NsuWrite { token, .. }
            | PacketKind::NsuWriteAck { token }
            | PacketKind::OffloadAck { token, .. } => Some(token),
            _ => None,
        }
    }

    /// True for the NDP-protocol packets introduced by the paper (used to
    /// separate protocol overhead from baseline traffic in reports).
    pub fn is_ndp(&self) -> bool {
        !matches!(
            self.kind,
            PacketKind::ReadReq { .. }
                | PacketKind::ReadResp { .. }
                | PacketKind::WriteReq { .. }
                | PacketKind::WriteAck { .. }
        )
    }
}

crate::snap_value!(Packet {
    src,
    dst,
    size,
    birth,
    kind
});

// Discriminants are `Packet::kind_index`.
crate::snap_value!(enum PacketKind {
    0 => ReadReq { addr, bytes, tag, block },
    1 => ReadResp { addr, bytes, tag },
    2 => WriteReq { addr, words, tag },
    3 => WriteAck { addr, tag },
    4 => OffloadCmd { token, id, nsu_pc, regs_in, active, mask, n_loads, n_stores },
    5 => Rdf { token, seq, access, target, block, cache_hit_data },
    6 => RdfResp { token, seq, access },
    7 => Wta { token, seq, access, target, n_accesses },
    8 => NsuWrite { token, addr, words },
    9 => NsuWriteAck { token },
    10 => CacheInval { addr },
    11 => OffloadAck { token, id, regs_out, active, values },
});

#[cfg(test)]
mod tests {
    use super::*;

    /// Lanes `0..n`.
    fn lanes(n: u8) -> u32 {
        (0..n).fold(0, |m, l| m | 1 << l)
    }

    #[test]
    fn line_access_is_a_16_byte_value() {
        assert_eq!(std::mem::size_of::<LineAccess>(), 16);
        let a = LineAccess {
            line: 0x1000,
            mask: 1 | (1 << 3) | (1 << 31),
            misaligned: false,
        };
        assert_eq!(a.active_words(), 3);
        assert_eq!(a.offset_overhead(), 0);
    }

    #[test]
    fn misaligned_access_pays_offset_bytes() {
        let a = LineAccess {
            line: 0x1000,
            mask: lanes(7),
            misaligned: true,
        };
        assert_eq!(a.offset_overhead(), 7);
    }

    #[test]
    fn read_response_carries_line() {
        let k = PacketKind::ReadResp {
            addr: 0,
            bytes: 128,
            tag: 0,
        };
        assert_eq!(Packet::wire_size(&k), HEADER_BYTES + 128);
    }

    #[test]
    fn rdf_response_only_carries_active_words() {
        // A divergent gather touching 1 word of a line ships 4 B, not 128 B —
        // the §4.4 bandwidth-saving property.
        let k = PacketKind::RdfResp {
            token: OffloadToken(1),
            seq: 0,
            access: LineAccess {
                line: 0x80,
                mask: 1 << 5,
                misaligned: true,
            },
        };
        assert_eq!(Packet::wire_size(&k), HEADER_BYTES + 4);
    }

    #[test]
    fn cmd_and_ack_scale_with_registers_and_threads() {
        let cmd = PacketKind::OffloadCmd {
            token: OffloadToken(0),
            id: OffloadId {
                sm: 0,
                warp: 0,
                seq: 0,
            },
            nsu_pc: 0xd08,
            regs_in: 2,
            active: 32,
            mask: u32::MAX,
            n_loads: 1,
            n_stores: 1,
        };
        assert_eq!(Packet::wire_size(&cmd), HEADER_BYTES + 2 * 4 * 32);
        let ack = PacketKind::OffloadAck {
            token: OffloadToken(0),
            id: OffloadId {
                sm: 0,
                warp: 0,
                seq: 0,
            },
            regs_out: 0,
            active: 32,
            values: vec![],
        };
        assert_eq!(Packet::wire_size(&ack), HEADER_BYTES);
    }

    #[test]
    fn rdf_cache_hit_ships_data_over_gpu_link() {
        // The BPROP pathology (§7.1): an RDF that hits in the GPU cache must
        // carry the cached words to the NSU, consuming GPU off-chip BW.
        let access = LineAccess {
            line: 0,
            mask: u32::MAX,
            misaligned: false,
        };
        let hit = PacketKind::Rdf {
            token: OffloadToken(0),
            seq: 0,
            access,
            target: Node::Nsu(0),
            block: 0,
            cache_hit_data: true,
        };
        let miss = PacketKind::Rdf {
            token: OffloadToken(0),
            seq: 0,
            access,
            target: Node::Nsu(0),
            block: 0,
            cache_hit_data: false,
        };
        assert_eq!(
            Packet::wire_size(&hit),
            Packet::wire_size(&miss) + 32 * WORD_BYTES
        );
    }

    #[test]
    fn ndp_classification() {
        let p = Packet::new(
            Node::Sm(0),
            Node::Vault(0, 0),
            0,
            PacketKind::ReadReq {
                addr: 0,
                bytes: 128,
                tag: 0,
                block: NO_BLOCK,
            },
        );
        assert!(!p.is_ndp());
        let q = Packet::new(
            Node::Vault(0, 0),
            Node::L2(0),
            0,
            PacketKind::CacheInval { addr: 0 },
        );
        assert!(q.is_ndp());
    }
}
