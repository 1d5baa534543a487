//! Bandwidth- and latency-modelled point-to-point link.
//!
//! Used for the 8 GPU↔HMC links (20 GB/s per direction), the 3 memory-network
//! links per HMC, and (with higher bandwidth) on-die connections. A link
//! serializes one packet at a time at its configured byte rate, then the
//! packet propagates for a fixed latency. A finite input queue provides
//! backpressure to the sender.

use std::collections::VecDeque;

use crate::ids::Cycle;
use crate::packet::{Packet, PacketKind};
use crate::port::Component;

/// Traffic statistics of one link direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Total bytes serialized.
    pub bytes: u64,
    /// Bytes belonging to NDP-protocol packets (CMD/RDF/WTA/ACK/inval/...).
    pub ndp_bytes: u64,
    /// Bytes belonging to cache-invalidation packets alone (§4.2 overhead).
    pub inval_bytes: u64,
    /// Packets delivered.
    pub packets: u64,
    /// Cycles during which the serializer was busy.
    pub busy_cycles: u64,
}

/// One direction of a link.
#[derive(Debug)]
pub struct Link {
    bytes_per_cycle: f64,
    latency: u32,
    capacity: usize,
    /// Packets waiting for the serializer (head may be partially sent).
    queue: VecDeque<(Packet, f64)>,
    /// Serialized packets in propagation: (delivery cycle, packet).
    flight: VecDeque<(Cycle, Packet)>,
    pub stats: LinkStats,
}

impl Link {
    /// `capacity` is the maximum number of packets that may wait for the
    /// serializer; senders must check [`Link::can_accept`] and stall
    /// otherwise.
    pub fn new(bytes_per_cycle: f64, latency: u32, capacity: usize) -> Self {
        assert!(bytes_per_cycle > 0.0, "link needs positive bandwidth");
        Link {
            bytes_per_cycle,
            latency,
            capacity,
            queue: VecDeque::new(),
            flight: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }

    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Number of packets waiting or in flight.
    pub fn in_transit(&self) -> usize {
        self.queue.len() + self.flight.len()
    }

    /// Enqueue a packet for transmission. Returns the packet back if the
    /// input queue is full (the caller must retry later).
    pub fn push(&mut self, p: Packet) -> Result<(), Packet> {
        if !self.can_accept() {
            return Err(p);
        }
        let rem = p.size as f64;
        self.queue.push_back((p, rem));
        Ok(())
    }

    /// Advance the serializer by one cycle.
    pub fn tick(&mut self, now: Cycle) {
        if self.queue.is_empty() {
            return;
        }
        self.stats.busy_cycles += 1;
        let mut budget = self.bytes_per_cycle;
        while budget > 0.0 {
            let Some(front) = self.queue.front_mut() else {
                break;
            };
            let take = budget.min(front.1);
            front.1 -= take;
            budget -= take;
            if front.1 <= 1e-9 {
                let (p, _) = self.queue.pop_front().expect("front exists");
                self.account(&p);
                self.flight.push_back((now + self.latency as Cycle + 1, p));
            }
        }
    }

    fn account(&mut self, p: &Packet) {
        self.stats.bytes += p.size as u64;
        self.stats.packets += 1;
        if p.is_ndp() {
            self.stats.ndp_bytes += p.size as u64;
        }
        if matches!(p.kind, PacketKind::CacheInval { .. }) {
            self.stats.inval_bytes += p.size as u64;
        }
    }

    /// Inspect the next delivered packet without removing it.
    pub fn peek_ready(&self, now: Cycle) -> Option<&Packet> {
        match self.flight.front() {
            Some(&(ready, ref p)) if ready <= now => Some(p),
            _ => None,
        }
    }

    /// Take the next delivered packet, if its propagation finished.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<Packet> {
        if let Some(&(ready, _)) = self.flight.front() {
            if ready <= now {
                return self.flight.pop_front().map(|(_, p)| p);
            }
        }
        None
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.flight.is_empty()
    }

    /// Delivery cycle of the oldest in-flight packet, `None` when nothing
    /// has finished serializing. Flights deliver in FIFO order, so this is
    /// the earliest cycle at which [`Link::pop_ready`] can succeed — the
    /// receive-side quiescence horizon (the serializer queue is the
    /// tick-side horizon, [`Component::next_work_at`]).
    pub fn next_delivery_at(&self) -> Option<Cycle> {
        self.flight.front().map(|&(ready, _)| ready)
    }
}

crate::snap_value!(LinkStats {
    bytes,
    ndp_bytes,
    inval_bytes,
    packets,
    busy_cycles,
});

// The serializer queue carries bit-exact partial-send remainders.
crate::snap_state!(Link { queue, flight, stats; derived: bytes_per_cycle, latency, capacity });

impl Component for Link {
    fn tick(&mut self, now: Cycle) {
        Link::tick(self, now);
    }

    // `tick` with an empty serializer queue is a pure no-op (early return
    // before any accounting), so skipped cycles need no `note_skipped`
    // replay and the horizon is simply queue occupancy.
    fn next_work_at(&self, now: Cycle) -> Option<Cycle> {
        if self.queue.is_empty() {
            None
        } else {
            Some(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Node;
    use crate::packet::PacketKind;

    fn pkt(bytes: u32) -> Packet {
        // ReadResp size = header + bytes; craft to the exact requested size.
        let body = bytes.saturating_sub(crate::packet::HEADER_BYTES);
        Packet::new(
            Node::Sm(0),
            Node::Hmc(0),
            0,
            PacketKind::ReadResp {
                addr: 0,
                bytes: body,
                tag: 0,
            },
        )
    }

    fn drain(link: &mut Link, until: Cycle) -> Vec<(Cycle, Packet)> {
        let mut out = vec![];
        for now in 0..until {
            link.tick(now);
            while let Some(p) = link.pop_ready(now) {
                out.push((now, p));
            }
        }
        out
    }

    #[test]
    fn serialization_delay_matches_bandwidth() {
        // 16 B/cycle, zero latency: a 32 B packet takes 2 cycles to serialize.
        let mut link = Link::new(16.0, 0, 8);
        link.push(pkt(32)).unwrap();
        let got = drain(&mut link, 10);
        assert_eq!(got.len(), 1);
        // Serialized during cycles 0..=1, delivered at 1 + 0 + 1 = 2.
        assert_eq!(got[0].0, 2);
    }

    #[test]
    fn latency_adds_to_serialization() {
        let mut link = Link::new(16.0, 5, 8);
        link.push(pkt(16)).unwrap();
        let got = drain(&mut link, 20);
        assert_eq!(got[0].0, 6); // done serializing at 0, +5 latency, +1
    }

    #[test]
    fn back_to_back_packets_pipeline() {
        // Two 16 B packets on a 16 B/cycle link leave one cycle apart.
        let mut link = Link::new(16.0, 0, 8);
        link.push(pkt(16)).unwrap();
        link.push(pkt(16)).unwrap();
        let got = drain(&mut link, 10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0 + 1, got[1].0);
    }

    #[test]
    fn throughput_is_bandwidth_limited() {
        // 10 packets × 160 B on a 16 B/cycle link: 1600 B / 16 = 100 cycles.
        let mut link = Link::new(16.0, 0, 16);
        for _ in 0..10 {
            link.push(pkt(160)).unwrap();
        }
        let got = drain(&mut link, 200);
        assert_eq!(got.len(), 10);
        let last = got.last().unwrap().0;
        assert!((100..=102).contains(&last), "last delivery at {last}");
    }

    #[test]
    fn finite_queue_applies_backpressure() {
        let mut link = Link::new(1.0, 0, 2);
        assert!(link.push(pkt(16)).is_ok());
        assert!(link.push(pkt(16)).is_ok());
        assert!(!link.can_accept());
        assert!(link.push(pkt(16)).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut link = Link::new(64.0, 0, 8);
        link.push(pkt(32)).unwrap();
        link.push(pkt(64)).unwrap();
        drain(&mut link, 10);
        assert_eq!(link.stats.packets, 2);
        assert_eq!(link.stats.bytes, 96);
        assert!(link.is_idle());
    }
}
