//! The memory network proper: bandwidth-modelled links on every hypercube
//! edge, per-hop dimension-order forwarding, and per-node delivery queues.

use ndp_common::ids::{Cycle, HmcId};
use ndp_common::link::Link;
use ndp_common::packet::Packet;
use ndp_common::port::OutPort;

use crate::topology::Topology;

/// The HMC↔HMC network.
pub struct MemNetwork {
    topo: Topology,
    /// `links[node][dim]`: directed link from `node` to `node ^ (1<<dim)`.
    links: Vec<Vec<Link>>,
    /// Packets that reached their destination stack, awaiting pickup by the
    /// stack's logic-layer crossbar.
    delivered: Vec<OutPort>,
}

impl MemNetwork {
    pub fn new(
        nodes: usize,
        bytes_per_cycle: f64,
        hop_latency: u32,
        queue_capacity: usize,
    ) -> Self {
        let topo = Topology::hypercube(nodes);
        let links = (0..nodes)
            .map(|_| {
                (0..topo.degree())
                    .map(|_| Link::new(bytes_per_cycle, hop_latency, queue_capacity))
                    .collect()
            })
            .collect();
        MemNetwork {
            topo,
            links,
            delivered: (0..nodes).map(|_| OutPort::unbounded()).collect(),
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Destination stack of a packet (panics for GPU-side destinations —
    /// those never enter the memory network).
    fn dst_hmc(p: &Packet) -> HmcId {
        p.dst
            .hmc()
            .expect("memory-network packet must target an HMC-resident node")
    }

    /// Can a packet be injected at `at` right now?
    pub fn can_inject(&self, at: HmcId, p: &Packet) -> bool {
        match self.topo.route_dim(at, Self::dst_hmc(p)) {
            None => true, // local delivery is always possible
            Some(d) => self.links[at.0 as usize][d as usize].can_accept(),
        }
    }

    /// Inject a packet at stack `at`. Returns it back on backpressure.
    pub fn inject(&mut self, at: HmcId, p: Packet) -> Result<(), Packet> {
        match self.topo.route_dim(at, Self::dst_hmc(&p)) {
            None => {
                self.delivered[at.0 as usize].push_back(p);
                Ok(())
            }
            Some(d) => self.links[at.0 as usize][d as usize].push(p),
        }
    }

    /// Advance all links one cycle and forward arrived packets (either into
    /// the next hop's link or into the delivery queue). Hop-by-hop
    /// backpressure: a packet whose next link is full stays at the arrival
    /// point and is retried next cycle.
    pub fn tick(&mut self, now: Cycle) {
        for node in 0..self.topo.nodes() {
            for d in 0..self.topo.degree() {
                self.links[node][d].tick(now);
            }
        }
        for node in 0..self.topo.nodes() {
            let at = HmcId(node as u8);
            for d in 0..self.topo.degree() {
                // Arrivals at `node` along dimension d come from the
                // neighbor's directed link of the same dimension.
                let from = self.topo.neighbor(at, d as u32);
                loop {
                    let decision = match self.links[from.0 as usize][d].peek_ready(now) {
                        None => break,
                        Some(p) => self.topo.route_dim(at, Self::dst_hmc(p)),
                    };
                    match decision {
                        None => {
                            let p = self.links[from.0 as usize][d]
                                .pop_ready(now)
                                .expect("peeked");
                            self.delivered[node].push_back(p);
                        }
                        Some(nd) => {
                            if !self.links[node][nd as usize].can_accept() {
                                break; // backpressure: retry next cycle
                            }
                            let p = self.links[from.0 as usize][d]
                                .pop_ready(now)
                                .expect("peeked");
                            self.links[node][nd as usize]
                                .push(p)
                                .expect("checked can_accept");
                        }
                    }
                }
            }
        }
    }

    /// Inspect the next packet delivered to stack `at` without removing it.
    pub fn peek_delivered(&self, at: HmcId) -> Option<&Packet> {
        self.delivered[at.0 as usize].front()
    }

    /// Take the next packet delivered to stack `at`.
    pub fn pop_delivered(&mut self, at: HmcId) -> Option<Packet> {
        self.delivered[at.0 as usize].pop_front()
    }

    /// Total bytes moved across all network links.
    pub fn total_bytes(&self) -> u64 {
        self.links.iter().flatten().map(|l| l.stats.bytes).sum()
    }

    /// True when no packet is queued, in flight, or awaiting pickup.
    pub fn is_idle(&self) -> bool {
        self.links.iter().flatten().all(|l| l.is_idle())
            && self.delivered.iter().all(|q| q.is_empty())
    }

    /// Packets currently anywhere in the network — queued or in flight on a
    /// link, or delivered but not yet popped (occupancy sampling).
    pub fn queued_packets(&self) -> usize {
        self.links
            .iter()
            .flatten()
            .map(|l| l.in_transit())
            .sum::<usize>()
            + self.delivered.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Any packet awaiting pickup in a delivery queue? (The horizon of the
    /// delivered→stack edge; delivery queues are plain FIFOs, so occupancy
    /// is the whole story.)
    pub fn has_delivered(&self) -> bool {
        self.delivered.iter().any(|q| !q.is_empty())
    }

    /// Quiescence horizon: a serializing link works every cycle; an
    /// all-in-flight network is idle until the earliest delivery; a
    /// drained network is quiescent. An idle tick touches nothing (empty
    /// links early-return, no ready flights to forward), so skipped cycles
    /// need no replay.
    pub fn next_work_at(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = None;
        for l in self.links.iter().flatten() {
            if let Some(c) = l.next_work_at(now) {
                return Some(c); // a busy serializer means work now
            }
            if let Some(c) = l.next_delivery_at() {
                horizon = Some(horizon.map_or(c, |h: Cycle| h.min(c)));
            }
        }
        horizon
    }
}

ndp_common::snap_state!(MemNetwork { links [grid], delivered [each]; derived: topo });

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_common::ids::Node;
    use ndp_common::packet::PacketKind;

    fn pkt(from: u8, to: u8) -> Packet {
        Packet::new(
            Node::Vault(from, 0),
            Node::Nsu(to),
            0,
            PacketKind::ReadResp {
                addr: 0,
                bytes: 112, // 128 B on the wire with the header
                tag: 0,
            },
        )
    }

    fn net() -> MemNetwork {
        // 16 B/cycle per link, 2-cycle hops, deep queues.
        MemNetwork::new(8, 16.0, 2, 64)
    }

    fn run(net: &mut MemNetwork, cycles: u64) -> Vec<(u64, HmcId, Packet)> {
        let mut out = vec![];
        for now in 0..cycles {
            net.tick(now);
            for h in 0..8u8 {
                while let Some(p) = net.pop_delivered(HmcId(h)) {
                    out.push((now, HmcId(h), p));
                }
            }
        }
        out
    }

    #[test]
    fn local_injection_delivers_immediately() {
        let mut net = net();
        net.inject(HmcId(3), pkt(3, 3)).unwrap();
        assert!(net.pop_delivered(HmcId(3)).is_some());
    }

    #[test]
    fn one_hop_delivery() {
        let mut net = net();
        net.inject(HmcId(0), pkt(0, 1)).unwrap();
        let got = run(&mut net, 50);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, HmcId(1));
        // 128 B at 16 B/cycle = 8 cycles serialize + 2 latency (+1 edge).
        assert!((10..=13).contains(&got[0].0), "arrived at {}", got[0].0);
        assert!(net.is_idle());
    }

    #[test]
    fn three_hop_diagonal_traverses_all_dimensions() {
        let mut net = net();
        net.inject(HmcId(0), pkt(0, 7)).unwrap();
        let got = run(&mut net, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, HmcId(7));
        // Three serialize+propagate hops.
        assert!(got[0].0 >= 30, "too fast: {}", got[0].0);
        // Each traversed link saw the packet once: total bytes = 3 × size.
        assert_eq!(net.total_bytes(), 3 * 128);
    }

    #[test]
    fn all_pairs_arrive() {
        let mut net = net();
        for a in 0..8u8 {
            for b in 0..8u8 {
                net.inject(HmcId(a), pkt(a, b)).unwrap();
            }
        }
        let got = run(&mut net, 2000);
        // 8 locals (delivered synchronously at inject) are popped by run()
        // too — but inject() put them in `delivered` before run() started.
        assert_eq!(got.len(), 64);
        assert!(net.is_idle());
    }

    #[test]
    fn contention_slows_but_preserves_packets() {
        let mut net = net();
        // 20 packets all crossing the same first-dimension link 0→1.
        for _ in 0..20 {
            while net.inject(HmcId(0), pkt(0, 1)).is_err() {
                // queue full: tick to drain
                net.tick(0);
            }
        }
        let got = run(&mut net, 2000);
        assert_eq!(got.len(), 20);
        // Bandwidth bound: 20 × 128 B at 16 B/cycle ≥ 160 cycles.
        assert!(got.last().unwrap().0 >= 160);
    }

    #[test]
    fn gpu_destination_rejected() {
        let mut net = net();
        let bad = Packet::new(
            Node::Vault(0, 0),
            Node::Sm(0),
            0,
            PacketKind::ReadResp {
                addr: 0,
                bytes: 0,
                tag: 0,
            },
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = net.inject(HmcId(0), bad);
        }));
        assert!(r.is_err(), "GPU-bound packets must not enter the memnet");
    }
}
