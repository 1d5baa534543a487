//! Deterministic seeded fault injection.
//!
//! Robustness machinery is only trustworthy if it is *tested against real
//! failures*. The fault injector perturbs the fabric at its single
//! packet-movement loop (`run_edge`): it can drop a packet in transit,
//! delay it at the head of its queue, duplicate it into the receiver, or
//! withhold NSU credit returns entirely (wedging the credit protocol).
//!
//! Decisions are **pure functions** of `(seed, edge, packet identity)` via
//! the counter-based [`unit_sample`](crate::rng::unit_sample) generator:
//! the same seed always produces the same fault schedule, independent of
//! evaluation order — so faulty runs are exactly reproducible and a fault
//! schedule can be replayed from its seed alone.
//!
//! Configure programmatically with [`FaultConfig`] or from the environment
//! (`NDP_FAULT_SEED`, `NDP_FAULT_DROP`, `NDP_FAULT_DUP`, `NDP_FAULT_DELAY_P`,
//! `NDP_FAULT_DELAY_CYCLES`, `NDP_FAULT_WITHHOLD_CREDITS`).

use serde::Serialize;

use crate::ids::{Cycle, Node};
use crate::packet::Packet;
use crate::rng::{splitmix64, unit_sample};

/// Per-fault-class RNG stream tags (xored with the edge index so the same
/// packet sees independent decisions on different edges).
const STREAM_DROP: u64 = 0xfa01;
const STREAM_DUP: u64 = 0xfa02;
const STREAM_DELAY: u64 = 0xfa03;

/// Knobs of the deterministic fault injector. All probabilities are per
/// (packet, edge) movement attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Seed of the fault schedule; same seed → same faults.
    pub seed: u64,
    /// Probability a packet vanishes in transit.
    pub drop_prob: f64,
    /// Probability a packet is delivered twice.
    pub dup_prob: f64,
    /// Probability a packet is held at the head of its queue.
    pub delay_prob: f64,
    /// How long a delayed packet is held (from its birth cycle).
    pub delay_cycles: Cycle,
    /// Discard all NSU credit returns: reserved buffer entries are never
    /// credited back, so the credit pools drain and the machine wedges.
    pub withhold_credits: bool,
}

impl FaultConfig {
    /// Any per-packet fault class enabled?
    pub fn any_packet_faults(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.delay_prob > 0.0
    }

    /// Anything at all enabled?
    pub fn is_active(&self) -> bool {
        self.any_packet_faults() || self.withhold_credits
    }

    /// Read the `NDP_FAULT_*` environment surface; `None` when no fault
    /// variable is set (the common case — faults fully disabled). A set but
    /// malformed variable is a typed [`crate::env::EnvError`] panic, never a
    /// silent fall-back to the default.
    pub fn from_env() -> Option<Self> {
        use crate::env::{flag_or_die, parse_or_die};
        let cfg = FaultConfig {
            seed: parse_or_die("NDP_FAULT_SEED").unwrap_or(0),
            drop_prob: parse_or_die("NDP_FAULT_DROP").unwrap_or(0.0),
            dup_prob: parse_or_die("NDP_FAULT_DUP").unwrap_or(0.0),
            delay_prob: parse_or_die("NDP_FAULT_DELAY_P").unwrap_or(0.0),
            delay_cycles: parse_or_die("NDP_FAULT_DELAY_CYCLES").unwrap_or(1_000),
            withhold_credits: flag_or_die("NDP_FAULT_WITHHOLD_CREDITS").unwrap_or(false),
        };
        cfg.is_active().then_some(cfg)
    }
}

/// What the injector does to one packet at one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    None,
    /// Remove the packet from the fabric without delivering it.
    Drop,
    /// Hold the packet at the head of its queue until `until`.
    Delay {
        until: Cycle,
    },
    /// Deliver the packet twice (if the receiver has room for both).
    Duplicate,
}

/// Injected-fault accounting (what actually happened, vs. the schedule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    pub dropped: u64,
    pub duplicated: u64,
    /// Head-of-line hold events (one per cycle a delayed packet blocked).
    pub delay_holds: u64,
    pub credits_withheld: u64,
}

/// Category of an injected fault, for accounting hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    Dropped,
    Duplicated,
    Held,
}

/// The injector: pure per-packet decisions plus occurrence counters.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    pub cfg: FaultConfig,
    pub stats: FaultStats,
}

fn node_key(n: Node) -> u64 {
    match n {
        Node::Sm(i) => 0x100 | i as u64,
        Node::L2(i) => 0x200 | i as u64,
        Node::Hmc(i) => 0x300 | i as u64,
        Node::Vault(h, v) => 0x400 | ((h as u64) << 8) | v as u64,
        Node::Nsu(i) => 0x500 | i as u64,
        Node::BufMgr => 0x600,
    }
}

/// A stable identity hash for one packet: src, dst, kind, size, and birth
/// cycle. Two distinct packets can collide, but collisions only mean they
/// share a fault decision — determinism is unaffected.
fn packet_key(p: &Packet) -> u64 {
    let mut k = node_key(p.src);
    k = splitmix64(k ^ node_key(p.dst).wrapping_mul(0x9e37));
    k = splitmix64(k ^ ((p.kind_index() as u64) << 32) ^ p.size as u64);
    splitmix64(k ^ p.birth.wrapping_mul(0x1000_0001))
}

impl FaultInjector {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            stats: FaultStats::default(),
        }
    }

    /// The (pure, deterministic) fault decision for one packet at one edge.
    /// `edge` distinguishes fabric edges so a duplicated packet is not
    /// re-duplicated at every subsequent hop by the same draw.
    pub fn decide(&self, edge: u64, p: &Packet) -> FaultAction {
        if !self.cfg.any_packet_faults() {
            return FaultAction::None;
        }
        let key = packet_key(p);
        let c = &self.cfg;
        if c.drop_prob > 0.0 && unit_sample(c.seed, STREAM_DROP ^ (edge << 16), key) < c.drop_prob {
            return FaultAction::Drop;
        }
        if c.dup_prob > 0.0 && unit_sample(c.seed, STREAM_DUP ^ (edge << 16), key) < c.dup_prob {
            return FaultAction::Duplicate;
        }
        if c.delay_prob > 0.0
            && unit_sample(c.seed, STREAM_DELAY ^ (edge << 16), key) < c.delay_prob
        {
            return FaultAction::Delay {
                until: p.birth + c.delay_cycles,
            };
        }
        FaultAction::None
    }

    /// Record that a fault actually happened (the schedule may name faults
    /// for packets that never exist; only occurrences count).
    pub fn note(&mut self, f: InjectedFault) {
        match f {
            InjectedFault::Dropped => self.stats.dropped += 1,
            InjectedFault::Duplicated => self.stats.duplicated += 1,
            InjectedFault::Held => self.stats.delay_holds += 1,
        }
    }
}

crate::snap_value!(FaultConfig {
    seed,
    drop_prob,
    dup_prob,
    delay_prob,
    delay_cycles,
    withhold_credits,
});
crate::snap_value!(FaultStats {
    dropped,
    duplicated,
    delay_holds,
    credits_withheld,
});
// Decisions are pure functions of `(seed, edge, packet)`, so the schedule
// and the occurrence counters replay the rest of a faulty run exactly.
crate::snap_value!(FaultInjector { cfg, stats });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn pkt(birth: Cycle, tag: u64) -> Packet {
        Packet::new(
            Node::Sm((tag % 7) as u16),
            Node::L2((tag % 5) as u8),
            birth,
            PacketKind::ReadReq {
                addr: tag * 128,
                bytes: 128,
                tag,
                block: crate::packet::NO_BLOCK,
            },
        )
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultConfig {
            seed: 1,
            drop_prob: 0.2,
            dup_prob: 0.2,
            delay_prob: 0.2,
            delay_cycles: 100,
            ..Default::default()
        });
        let b = FaultInjector::new(FaultConfig { seed: 2, ..a.cfg });
        let mut same = 0;
        let n = 500;
        for i in 0..n {
            let p = pkt(i, i);
            assert_eq!(a.decide(3, &p), a.decide(3, &p), "pure decision");
            if a.decide(3, &p) == b.decide(3, &p) {
                same += 1;
            }
        }
        assert!(same < n, "different seeds must differ somewhere");
    }

    #[test]
    fn edges_draw_independent_decisions() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 7,
            drop_prob: 0.5,
            ..Default::default()
        });
        let differing = (0..200)
            .filter(|&i| {
                let p = pkt(i, i);
                inj.decide(0, &p) != inj.decide(1, &p)
            })
            .count();
        assert!(differing > 20, "only {differing} differing decisions");
    }

    #[test]
    fn probabilities_are_roughly_honoured() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 11,
            drop_prob: 0.25,
            ..Default::default()
        });
        let n = 4000;
        let dropped = (0..n)
            .filter(|&i| inj.decide(0, &pkt(i, i * 31)) == FaultAction::Drop)
            .count();
        let frac = dropped as f64 / n as f64;
        assert!((0.18..0.32).contains(&frac), "drop fraction {frac}");
    }

    #[test]
    fn zero_config_never_faults() {
        let inj = FaultInjector::new(FaultConfig::default());
        assert!(!inj.cfg.is_active());
        for i in 0..100 {
            assert_eq!(inj.decide(0, &pkt(i, i)), FaultAction::None);
        }
    }

    #[test]
    fn delay_is_relative_to_birth() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 3,
            delay_prob: 1.0,
            delay_cycles: 64,
            ..Default::default()
        });
        match inj.decide(0, &pkt(100, 1)) {
            FaultAction::Delay { until } => assert_eq!(until, 164),
            other => panic!("expected delay, got {other:?}"),
        }
    }
}
