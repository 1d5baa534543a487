//! Protocol-invariant engine, and the one record of every offload
//! transaction.
//!
//! The partitioned-execution protocol (§4) is only correct if packets and
//! credits are conserved end-to-end: every CMD is matched by exactly one
//! delivered ACK, RDF data issued by the GPU is consumed by an NSU, WTA
//! packets all reach their NSU, NSU writes are acknowledged and invalidate
//! the GPU caches, and every buffer credit reserved is eventually returned.
//!
//! Every run checks all of it, fed from the fabric's single observation
//! site ([`Invariants::on_packet`]):
//!
//! * **The token table** — every `OffloadToken` in flight, with the cycle
//!   of each milestone it has passed (CMD issued → CMD at the NSU → last
//!   RDF → ACK out), and the id of every completed one. It catches
//!   duplicate or never-issued CMDs, orphan or duplicate ACKs, and data
//!   arriving after completion. The ACK delivery that completes a
//!   transaction hands its milestones to the caller, which feeds the
//!   observability layer's latency histograms.
//! * **Packet counters** — RDF, WTA, NSU-write and invalidation traffic,
//!   checked for conservation when the system drains
//!   ([`Invariants::check_drained`]), which also demands an empty table.
//!
//! Violations are recorded, not panicked: the run loop surfaces them as
//! structured `SimError::InvariantViolation` results.

use std::collections::{HashMap, HashSet};

use crate::error::SimError;
use crate::ids::{Cycle, OffloadToken};
use crate::obs::TraceSite;
use crate::packet::{Packet, PacketKind};
use crate::watchdog::{CounterSnapshot, TokenInFlight};

/// One offload transaction in flight: the cycle of each protocol milestone
/// it has passed. Which milestones are set is its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Txn {
    /// CMD left the SM.
    pub(crate) issued: Cycle,
    /// CMD arrived at the target NSU.
    pub(crate) at_nsu: Option<Cycle>,
    /// Latest RDF data at the NSU (`None` for a block that loads nothing).
    pub(crate) last_rdf: Option<Cycle>,
    /// ACK left the NSU.
    pub(crate) ack_out: Option<Cycle>,
}

impl Txn {
    fn phase(&self) -> &'static str {
        match (self.at_nsu, self.ack_out) {
            (None, _) => "Issued (CMD in flight to NSU)",
            (Some(_), None) => "AtNsu (executing / awaiting data)",
            (Some(_), Some(_)) => "AckSent (ACK in flight to GPU)",
        }
    }
}

/// The phase of a completed transaction, whose ACK reached the GPU.
const DONE: &str = "Done";

/// Cap on recorded violation messages (the first is what matters).
const MAX_VIOLATIONS: usize = 16;

/// The offload-token table plus the protocol's packet counters.
#[derive(Debug, Clone, Default)]
pub struct Invariants {
    /// Transactions in flight.
    live: HashMap<OffloadToken, Txn>,
    /// Completed transactions, by id only: enough to refuse a re-issued
    /// token and late data or ACKs for a finished block.
    done: HashSet<OffloadToken>,
    rdf_issued: u64,
    rdf_consumed: u64,
    wta_issued: u64,
    wta_consumed: u64,
    nsu_writes: u64,
    nsu_write_acks: u64,
    invals_delivered: u64,
    violations: Vec<String>,
}

impl Invariants {
    fn record(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    /// Record an externally detected violation (e.g. an orphan CacheInval
    /// noticed by the offload controller).
    pub fn record_external(&mut self, now: Cycle, detail: &str) {
        self.record(format!("cycle {now}: {detail}"));
    }

    /// `token`'s phase, or `None` if it was never issued.
    fn phase_of(&self, token: OffloadToken) -> Option<&'static str> {
        match self.live.get(&token) {
            Some(t) => Some(t.phase()),
            None => self.done.contains(&token).then_some(DONE),
        }
    }

    /// Record a packet that `token`'s phase does not allow: `seen` names
    /// it for a token in the table, `unseen` for one never issued.
    fn out_of_phase(&mut self, now: Cycle, token: OffloadToken, seen: &str, unseen: &str) {
        let t = token.0;
        let msg = match self.phase_of(token) {
            Some(phase) => format!("cycle {now}: {seen} token {t:#x} ({phase})"),
            None => format!("cycle {now}: {unseen} token {t:#x}"),
        };
        self.record(msg);
    }

    /// Feed one observed packet movement. Called from the fabric's single
    /// observation site; purely observational — never perturbs simulation.
    /// Returns the transaction that an ACK delivery completes.
    #[inline]
    pub fn on_packet(&mut self, now: Cycle, site: TraceSite, p: &Packet) -> Option<Txn> {
        match (site, &p.kind) {
            (TraceSite::SmEject, PacketKind::OffloadCmd { token, .. }) => {
                let fresh = Txn {
                    issued: now,
                    at_nsu: None,
                    last_rdf: None,
                    ack_out: None,
                };
                let was = match self.live.insert(*token, fresh) {
                    Some(old) => Some(old.phase()),
                    None => self.done.remove(token).then_some(DONE),
                };
                if let Some(phase) = was {
                    let t = token.0;
                    self.record(format!("cycle {now}: token {t:#x} re-issued while {phase}"));
                }
            }
            (TraceSite::ToNsu, PacketKind::OffloadCmd { token, .. }) => {
                match self.live.get_mut(token) {
                    Some(t) if t.at_nsu.is_none() => t.at_nsu = Some(now),
                    _ => self.out_of_phase(
                        now,
                        *token,
                        "duplicate CMD at NSU for",
                        "CMD at NSU for never-issued",
                    ),
                }
            }
            (TraceSite::SmEject, PacketKind::Rdf { .. } | PacketKind::RdfResp { .. }) => {
                self.rdf_issued += 1;
            }
            (TraceSite::ToNsu, PacketKind::Rdf { token, .. })
            | (TraceSite::ToNsu, PacketKind::RdfResp { token, .. }) => {
                self.rdf_consumed += 1;
                if let Some(txn) = self.live.get_mut(token) {
                    txn.last_rdf = Some(now);
                } else {
                    let t = token.0;
                    let whose = if self.done.contains(token) {
                        "completed"
                    } else {
                        "never-issued"
                    };
                    self.record(format!("cycle {now}: RDF data for {whose} token {t:#x}"));
                }
            }
            (TraceSite::SmEject, PacketKind::Wta { .. }) => self.wta_issued += 1,
            (TraceSite::ToNsu, PacketKind::Wta { token, .. }) => {
                self.wta_consumed += 1;
                if self.done.contains(token) {
                    let t = token.0;
                    self.record(format!("cycle {now}: WTA for completed token {t:#x}"));
                }
            }
            (TraceSite::FromNsu, PacketKind::NsuWrite { .. }) => self.nsu_writes += 1,
            (TraceSite::ToNsu, PacketKind::NsuWriteAck { .. }) => self.nsu_write_acks += 1,
            (TraceSite::GpuLinkDown, PacketKind::CacheInval { .. }) => {
                self.invals_delivered += 1;
            }
            (TraceSite::FromNsu, PacketKind::OffloadAck { token, .. }) => {
                match self.live.get_mut(token) {
                    Some(t) if t.at_nsu.is_some() && t.ack_out.is_none() => t.ack_out = Some(now),
                    _ => self.out_of_phase(
                        now,
                        *token,
                        "duplicate ACK emitted for",
                        "ACK emitted for never-issued",
                    ),
                }
            }
            (TraceSite::GpuLinkDown, PacketKind::OffloadAck { token, .. }) => {
                if self.live.get(token).is_some_and(|t| t.ack_out.is_some()) {
                    self.done.insert(*token);
                    return self.live.remove(token);
                }
                self.out_of_phase(
                    now,
                    *token,
                    "orphan ACK delivered for",
                    "orphan ACK delivered for never-issued",
                );
            }
            _ => {}
        }
        None
    }

    /// The first recorded violation, if any. Checked periodically by the
    /// run loop so violations abort the run promptly.
    pub fn first_violation(&self) -> Option<&str> {
        self.violations.first().map(String::as_str)
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Offload transactions whose ACK has reached the GPU.
    pub(crate) fn completed(&self) -> u64 {
        self.done.len() as u64
    }

    /// Offload transactions with a CMD out and no ACK back yet.
    pub(crate) fn inflight(&self) -> u64 {
        self.live.len() as u64
    }

    /// End-of-run conservation check: with the system drained, no token
    /// may be in flight, every counter pair must balance and no violation
    /// may be recorded.
    pub fn check_drained(&self, now: Cycle) -> Result<(), SimError> {
        let fail = |detail| Err(SimError::InvariantViolation { cycle: now, detail });
        if let Some(v) = self.first_violation() {
            return fail(v.to_string());
        }
        if let Some(t) = self.inflight_tokens().first() {
            return fail(format!(
                "{} offload tokens in flight after drain, first {:#x}: {}",
                self.live.len(),
                t.token,
                t.state
            ));
        }
        let pairs = [
            (
                "rdf_issued",
                self.rdf_issued,
                "rdf_consumed",
                self.rdf_consumed,
            ),
            (
                "wta_issued",
                self.wta_issued,
                "wta_consumed",
                self.wta_consumed,
            ),
            (
                "nsu_writes",
                self.nsu_writes,
                "nsu_write_acks",
                self.nsu_write_acks,
            ),
            (
                "nsu_writes",
                self.nsu_writes,
                "invals_delivered",
                self.invals_delivered,
            ),
        ];
        for (an, a, bn, b) in pairs {
            if a != b {
                return fail(format!("{an} ({a}) != {bn} ({b}) after drain"));
            }
        }
        Ok(())
    }

    /// Counter snapshot for stall reports. The CMD and ACK counts are
    /// counts over the token table: a token counts once it has passed the
    /// milestone.
    pub fn counters(&self) -> Vec<CounterSnapshot> {
        let done = self.completed();
        let past = |at: fn(&Txn) -> Option<Cycle>| {
            done + self.live.values().filter(|t| at(t).is_some()).count() as u64
        };
        [
            ("cmd_issued", done + self.inflight()),
            ("cmd_at_nsu", past(|t| t.at_nsu)),
            ("ack_emitted", past(|t| t.ack_out)),
            ("ack_delivered", done),
            ("rdf_issued", self.rdf_issued),
            ("rdf_consumed", self.rdf_consumed),
            ("wta_issued", self.wta_issued),
            ("wta_consumed", self.wta_consumed),
            ("nsu_writes", self.nsu_writes),
            ("nsu_write_acks", self.nsu_write_acks),
            ("invals_delivered", self.invals_delivered),
        ]
        .into_iter()
        .map(|(name, value)| CounterSnapshot { name, value })
        .collect()
    }

    /// Tokens in flight with their lifecycle state, by token. For stall
    /// reports.
    pub fn inflight_tokens(&self) -> Vec<TokenInFlight> {
        let mut v: Vec<TokenInFlight> = self
            .live
            .iter()
            .map(|(token, t)| TokenInFlight {
                token: token.0,
                state: t.phase().to_string(),
            })
            .collect();
        v.sort_by_key(|t| t.token);
        v
    }
}

crate::snap_value!(Txn {
    issued,
    at_nsu,
    last_rdf,
    ack_out,
});

crate::snap_state!(Invariants {
    live,
    done,
    rdf_issued,
    rdf_consumed,
    wta_issued,
    wta_consumed,
    nsu_writes,
    nsu_write_acks,
    invals_delivered,
    violations,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Node, OffloadId};
    use crate::packet::LineAccess;

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

    fn ack(token: u64) -> Packet {
        Packet::new(
            Node::Nsu(0),
            Node::Sm(0),
            0,
            PacketKind::OffloadAck {
                token: OffloadToken(token),
                id: OffloadId {
                    sm: 0,
                    warp: 0,
                    seq: 0,
                },
                regs_out: 0,
                active: 32,
                values: vec![],
            },
        )
    }

    fn rdf(token: u64) -> Packet {
        Packet::new(
            Node::Vault(0, 0),
            Node::Nsu(0),
            0,
            PacketKind::RdfResp {
                token: OffloadToken(token),
                seq: 0,
                access: LineAccess {
                    line: 0x1000,
                    mask: u32::MAX,
                    misaligned: false,
                },
            },
        )
    }

    fn wta(token: u64) -> Packet {
        Packet::new(
            Node::Sm(0),
            Node::Nsu(0),
            0,
            PacketKind::Wta {
                token: OffloadToken(token),
                seq: 0,
                access: LineAccess {
                    line: 0x2000,
                    mask: u32::MAX,
                    misaligned: false,
                },
                target: Node::Nsu(0),
                n_accesses: 1,
            },
        )
    }

    fn full_lifecycle(inv: &mut Invariants, token: u64) {
        inv.on_packet(1, TraceSite::SmEject, &cmd(token));
        inv.on_packet(2, TraceSite::ToNsu, &cmd(token));
        inv.on_packet(3, TraceSite::FromNsu, &ack(token));
        inv.on_packet(4, TraceSite::GpuLinkDown, &ack(token));
    }

    #[test]
    fn clean_lifecycle_has_no_violations_and_drains() {
        let mut inv = Invariants::default();
        full_lifecycle(&mut inv, 0x10);
        full_lifecycle(&mut inv, 0x11);
        assert_eq!(inv.first_violation(), None);
        assert!(inv.check_drained(100).is_ok());
        assert!(inv.inflight_tokens().is_empty());
    }

    #[test]
    fn duplicate_cmd_at_nsu_is_a_violation() {
        let mut inv = Invariants::default();
        inv.on_packet(1, TraceSite::SmEject, &cmd(0x7));
        inv.on_packet(2, TraceSite::ToNsu, &cmd(0x7));
        inv.on_packet(3, TraceSite::ToNsu, &cmd(0x7));
        let v = inv.first_violation().expect("violation recorded");
        assert!(v.contains("duplicate CMD"), "{v}");
    }

    #[test]
    fn orphan_ack_is_a_violation() {
        let mut inv = Invariants::default();
        inv.on_packet(5, TraceSite::GpuLinkDown, &ack(0x9));
        let v = inv.first_violation().expect("violation recorded");
        assert!(v.contains("orphan ACK"), "{v}");
    }

    /// Each token check the tests above leave out records exactly its own
    /// message: the offending packet arrives at cycle 5, after the first
    /// `steps` milestones of a clean lifecycle (4 is a completed token, 0 a
    /// never-issued one).
    #[test]
    fn each_token_check_records_its_message() {
        use TraceSite::{FromNsu, GpuLinkDown, SmEject, ToNsu};
        let cases: [(usize, TraceSite, Packet, &str); 6] = [
            (
                4,
                SmEject,
                cmd(0x30),
                "cycle 5: token 0x30 re-issued while Done",
            ),
            (
                4,
                ToNsu,
                rdf(0x30),
                "cycle 5: RDF data for completed token 0x30",
            ),
            (4, ToNsu, wta(0x30), "cycle 5: WTA for completed token 0x30"),
            (
                3,
                FromNsu,
                ack(0x30),
                "cycle 5: duplicate ACK emitted for token 0x30 (AckSent (ACK in flight to GPU))",
            ),
            (
                0,
                ToNsu,
                cmd(0x30),
                "cycle 5: CMD at NSU for never-issued token 0x30",
            ),
            (
                0,
                FromNsu,
                ack(0x30),
                "cycle 5: ACK emitted for never-issued token 0x30",
            ),
        ];
        let lifecycle = [
            (SmEject, cmd(0x30)),
            (ToNsu, cmd(0x30)),
            (FromNsu, ack(0x30)),
            (GpuLinkDown, ack(0x30)),
        ];
        for (steps, site, p, want) in cases {
            let mut inv = Invariants::default();
            for (cycle, (s, q)) in (1..).zip(&lifecycle[..steps]) {
                inv.on_packet(cycle, *s, q);
            }
            inv.on_packet(5, site, &p);
            assert_eq!(inv.violations(), [want]);
        }
    }

    /// The ACK delivery that completes a transaction returns its
    /// milestones; no other packet returns anything.
    #[test]
    fn completing_ack_returns_the_milestones() {
        let mut inv = Invariants::default();
        let steps = [
            (100, TraceSite::SmEject, cmd(0x7)),
            (140, TraceSite::ToNsu, cmd(0x7)),
            (180, TraceSite::ToNsu, rdf(0x7)),
            (220, TraceSite::ToNsu, rdf(0x7)),
            (300, TraceSite::FromNsu, ack(0x7)),
        ];
        for (now, site, p) in &steps {
            assert_eq!(inv.on_packet(*now, *site, p), None);
        }
        let txn = Txn {
            issued: 100,
            at_nsu: Some(140),
            last_rdf: Some(220),
            ack_out: Some(300),
        };
        let done = inv.on_packet(340, TraceSite::GpuLinkDown, &ack(0x7));
        assert_eq!(done, Some(txn));
        assert_eq!((inv.completed(), inv.inflight()), (1, 0));
    }

    #[test]
    fn imbalanced_counters_fail_drain_check() {
        let mut inv = Invariants::default();
        inv.on_packet(1, TraceSite::SmEject, &cmd(0x1));
        // CMD never reaches the NSU, no ACK ever delivered.
        let err = inv.check_drained(50).unwrap_err();
        assert!(matches!(err, SimError::InvariantViolation { .. }), "{err}");
    }

    #[test]
    fn inflight_tokens_report_lifecycle_state() {
        let mut inv = Invariants::default();
        inv.on_packet(1, TraceSite::SmEject, &cmd(0x20));
        inv.on_packet(2, TraceSite::ToNsu, &cmd(0x20));
        let t = inv.inflight_tokens();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].token, 0x20);
        assert!(t[0].state.contains("AtNsu"), "{}", t[0].state);
    }
}
