//! GPU-side NDP buffering: the per-SM pending/ready packet buffers and the
//! on-chip buffer manager that tracks NSU buffer credits per HMC (§4.1.1,
//! §4.3).

use std::collections::VecDeque;

use ndp_common::config::SystemConfig;
use ndp_common::credit::NsuCredits;
use ndp_common::ids::HmcId;
use ndp_common::packet::Packet;

/// The GPU's NDP buffer manager: per-HMC credit counts for the offload
/// command / read data / write address buffers on each NSU.
pub struct BufferManager {
    per_hmc: Vec<NsuCredits>,
}

impl BufferManager {
    pub fn new(cfg: &SystemConfig) -> Self {
        BufferManager {
            per_hmc: (0..cfg.hmc.num_hmcs)
                .map(|_| {
                    NsuCredits::new(
                        cfg.nsu.cmd_entries,
                        cfg.nsu.read_data_entries,
                        cfg.nsu.write_addr_entries,
                    )
                })
                .collect(),
        }
    }

    /// Reserve the NSU buffers one offload block instance needs.
    pub fn try_reserve(&mut self, hmc: HmcId, n_loads: usize, n_stores: usize) -> bool {
        self.per_hmc[hmc.0 as usize].try_reserve_block(n_loads, n_stores)
    }

    /// A command buffer entry drained (warp spawned on the NSU). `false` on
    /// over-release — a double credit return the system layer reports as an
    /// invariant violation.
    #[must_use]
    pub fn credit_cmd(&mut self, hmc: HmcId) -> bool {
        self.per_hmc[hmc.0 as usize].cmd.try_release(1)
    }

    /// Read-data entries consumed by an NSU load; `false` on over-release.
    #[must_use]
    pub fn credit_read(&mut self, hmc: HmcId, n: usize) -> bool {
        self.per_hmc[hmc.0 as usize].read_data.try_release(n)
    }

    /// Write-address entries consumed by an NSU store; `false` on
    /// over-release.
    #[must_use]
    pub fn credit_write(&mut self, hmc: HmcId, n: usize) -> bool {
        self.per_hmc[hmc.0 as usize].write_addr.try_release(n)
    }

    pub fn available(&self, hmc: HmcId) -> (usize, usize, usize) {
        let c = &self.per_hmc[hmc.0 as usize];
        (
            c.cmd.available(),
            c.read_data.available(),
            c.write_addr.available(),
        )
    }

    /// Credits currently reserved across all HMCs, per buffer class:
    /// `(cmd, read_data, write_addr)` — occupancy of the NSU buffers this
    /// manager guards, as seen from the GPU side.
    pub fn total_in_use(&self) -> (usize, usize, usize) {
        self.per_hmc.iter().fold((0, 0, 0), |acc, c| {
            (
                acc.0 + c.cmd.in_use(),
                acc.1 + c.read_data.in_use(),
                acc.2 + c.write_addr.in_use(),
            )
        })
    }
}

ndp_common::snap_state!(BufferManager { per_hmc [each] });

/// Per-SM pending + ready packet buffers (Table 2: 300 and 64 entries).
///
/// Packets whose target NSU is undetermined or whose buffer reservation has
/// not been granted wait in the *pending* buffer; granted packets move to
/// the *ready* buffer, from which they drain into the interconnect.
pub struct SmPacketBuffers {
    pending: VecDeque<Packet>,
    ready: VecDeque<Packet>,
    pending_cap: usize,
    ready_cap: usize,
    /// High-water marks for the §7.5 storage discussion.
    pub pending_peak: usize,
    pub ready_peak: usize,
}

impl SmPacketBuffers {
    pub fn new(cfg: &SystemConfig) -> Self {
        SmPacketBuffers {
            pending: VecDeque::new(),
            ready: VecDeque::new(),
            pending_cap: cfg.nsu.sm_pending_entries,
            ready_cap: cfg.nsu.sm_ready_entries,
            pending_peak: 0,
            ready_peak: 0,
        }
    }

    pub fn pending_has_room(&self, n: usize) -> bool {
        self.pending.len() + n <= self.pending_cap
    }

    pub fn push_pending(&mut self, p: Packet) {
        assert!(self.pending.len() < self.pending_cap, "pending overflow");
        self.pending.push_back(p);
        self.pending_peak = self.pending_peak.max(self.pending.len());
    }

    /// Move the front run of pending packets to ready (called once the
    /// warp's reservation is granted). Stops when the ready buffer fills.
    pub fn promote(&mut self, n: usize) -> usize {
        let mut moved = 0;
        while moved < n && !self.pending.is_empty() && self.ready.len() < self.ready_cap {
            let p = self.pending.pop_front().expect("nonempty");
            self.ready.push_back(p);
            moved += 1;
        }
        self.ready_peak = self.ready_peak.max(self.ready.len());
        moved
    }

    pub fn push_ready(&mut self, p: Packet) -> Result<(), Packet> {
        if self.ready.len() >= self.ready_cap {
            return Err(p);
        }
        self.ready.push_back(p);
        self.ready_peak = self.ready_peak.max(self.ready.len());
        Ok(())
    }

    pub fn ready_has_room(&self, n: usize) -> bool {
        self.ready.len() + n <= self.ready_cap
    }

    pub fn pop_ready(&mut self) -> Option<Packet> {
        self.ready.pop_front()
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.ready.is_empty()
    }
}

ndp_common::snap_state!(SmPacketBuffers {
    pending, ready, pending_peak, ready_peak;
    derived: pending_cap, ready_cap
});

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_common::ids::Node;
    use ndp_common::packet::PacketKind;

    fn pkt() -> Packet {
        Packet::new(
            Node::Sm(0),
            Node::Nsu(0),
            0,
            PacketKind::CacheInval { addr: 0 },
        )
    }

    #[test]
    fn manager_reserves_and_credits() {
        let cfg = SystemConfig::default();
        let mut m = BufferManager::new(&cfg);
        assert!(m.try_reserve(HmcId(0), 2, 1));
        assert_eq!(m.available(HmcId(0)), (9, 254, 255));
        assert!(m.credit_cmd(HmcId(0)));
        assert!(m.credit_read(HmcId(0), 2));
        assert!(m.credit_write(HmcId(0), 1));
        assert_eq!(m.available(HmcId(0)), (10, 256, 256));
        assert!(
            !m.credit_cmd(HmcId(0)),
            "over-release reported, not panicked"
        );
        assert_eq!(m.available(HmcId(0)), (10, 256, 256), "clamped at capacity");
    }

    #[test]
    fn cmd_entries_limit_concurrent_blocks() {
        let cfg = SystemConfig::default();
        let mut m = BufferManager::new(&cfg);
        for _ in 0..10 {
            assert!(m.try_reserve(HmcId(3), 0, 0));
        }
        assert!(!m.try_reserve(HmcId(3), 0, 0), "10 command entries");
        assert!(m.try_reserve(HmcId(4), 0, 0), "other stacks independent");
    }

    #[test]
    fn buffers_promote_in_order() {
        let cfg = SystemConfig::default();
        let mut b = SmPacketBuffers::new(&cfg);
        for _ in 0..5 {
            b.push_pending(pkt());
        }
        assert_eq!(b.promote(3), 3);
        assert_eq!(b.ready_len(), 3);
        assert_eq!(b.pending_len(), 2);
        assert!(b.pop_ready().is_some());
    }

    #[test]
    fn ready_capacity_bounds_promotion() {
        let mut cfg = SystemConfig::default();
        cfg.nsu.sm_ready_entries = 2;
        let mut b = SmPacketBuffers::new(&cfg);
        for _ in 0..5 {
            b.push_pending(pkt());
        }
        assert_eq!(b.promote(5), 2);
        assert!(!b.ready_has_room(1));
        assert!(b.push_ready(pkt()).is_err());
    }
}
