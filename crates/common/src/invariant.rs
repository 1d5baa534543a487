//! Protocol-invariant engine.
//!
//! The partitioned-execution protocol (§4) is only correct if packets and
//! credits are conserved end-to-end: every CMD is matched by exactly one
//! delivered ACK, RDF data issued by the GPU is consumed by an NSU, WTA
//! packets all reach their NSU, NSU writes are acknowledged and invalidate
//! the GPU caches, and every buffer credit reserved is eventually returned.
//!
//! Two tiers of checking, both fed from the fabric's single observation
//! site ([`Invariants::on_packet`]):
//!
//! * **Always-on counters** — one increment per observed packet; checked
//!   for conservation when the system drains ([`Invariants::check_drained`]).
//! * **Deep per-token checks** — a lifecycle state machine per
//!   `OffloadToken` (Issued → AtNsu → AckSent → Done) catching duplicate
//!   CMDs, orphan or duplicate ACKs (promoting the obs layer's orphan-ACK
//!   heuristic to a first-class violation), and data arriving after
//!   completion. Chosen per run by `ndp_core::RunOptions::deep_invariants`
//!   (on by default under `debug_assertions`).
//!
//! Violations are recorded, not panicked: the run loop surfaces them as
//! structured `SimError::InvariantViolation` results.

use std::collections::HashMap;

use crate::error::SimError;
use crate::ids::Cycle;
use crate::obs::TraceSite;
use crate::packet::{Packet, PacketKind};
use crate::watchdog::{CounterSnapshot, TokenInFlight};

/// Lifecycle of one offload transaction, advanced by observed packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenPhase {
    /// CMD left the SM.
    Issued,
    /// CMD arrived at the target NSU.
    AtNsu,
    /// ACK left the NSU.
    AckSent,
    /// ACK delivered back to the GPU.
    Done,
}

impl TokenPhase {
    fn name(self) -> &'static str {
        match self {
            TokenPhase::Issued => "Issued (CMD in flight to NSU)",
            TokenPhase::AtNsu => "AtNsu (executing / awaiting data)",
            TokenPhase::AckSent => "AckSent (ACK in flight to GPU)",
            TokenPhase::Done => "Done",
        }
    }
}

/// Cap on recorded violation messages (the first is what matters).
const MAX_VIOLATIONS: usize = 16;

/// Always-on protocol counters plus optional deep per-token checks.
#[derive(Debug, Clone)]
pub struct Invariants {
    deep: bool,
    cmd_issued: u64,
    cmd_at_nsu: u64,
    ack_emitted: u64,
    ack_delivered: u64,
    rdf_issued: u64,
    rdf_consumed: u64,
    wta_issued: u64,
    wta_consumed: u64,
    nsu_writes: u64,
    nsu_write_acks: u64,
    invals_delivered: u64,
    tokens: HashMap<u64, TokenPhase>,
    violations: Vec<String>,
}

impl Invariants {
    pub fn new(deep: bool) -> Self {
        Invariants {
            deep,
            cmd_issued: 0,
            cmd_at_nsu: 0,
            ack_emitted: 0,
            ack_delivered: 0,
            rdf_issued: 0,
            rdf_consumed: 0,
            wta_issued: 0,
            wta_consumed: 0,
            nsu_writes: 0,
            nsu_write_acks: 0,
            invals_delivered: 0,
            tokens: HashMap::new(),
            violations: Vec::new(),
        }
    }

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

    /// Feed one observed packet movement. Called from the fabric's single
    /// observation site; purely observational — never perturbs simulation.
    #[inline]
    pub fn on_packet(&mut self, now: Cycle, site: TraceSite, p: &Packet) {
        match (site, &p.kind) {
            (TraceSite::SmEject, PacketKind::OffloadCmd { token, .. }) => {
                self.cmd_issued += 1;
                if self.deep {
                    let t = token.0;
                    if let Some(phase) = self.tokens.insert(t, TokenPhase::Issued) {
                        self.record(format!(
                            "cycle {now}: token {t:#x} re-issued while {}",
                            phase.name()
                        ));
                    }
                }
            }
            (TraceSite::ToNsu, PacketKind::OffloadCmd { token, .. }) => {
                self.cmd_at_nsu += 1;
                if self.deep {
                    let t = token.0;
                    match self.tokens.get(&t).copied() {
                        Some(TokenPhase::Issued) => {
                            self.tokens.insert(t, TokenPhase::AtNsu);
                        }
                        Some(phase) => self.record(format!(
                            "cycle {now}: duplicate CMD at NSU for token {t:#x} ({})",
                            phase.name()
                        )),
                        None => self.record(format!(
                            "cycle {now}: CMD at NSU for never-issued token {t:#x}"
                        )),
                    }
                }
            }
            (TraceSite::SmEject, PacketKind::Rdf { .. } | PacketKind::RdfResp { .. }) => {
                self.rdf_issued += 1;
            }
            (TraceSite::ToNsu, PacketKind::Rdf { token, .. })
            | (TraceSite::ToNsu, PacketKind::RdfResp { token, .. }) => {
                self.rdf_consumed += 1;
                if self.deep {
                    let t = token.0;
                    match self.tokens.get(&t).copied() {
                        Some(TokenPhase::Done) => {
                            self.record(format!("cycle {now}: RDF data for completed token {t:#x}"))
                        }
                        Some(_) => {}
                        None => self.record(format!(
                            "cycle {now}: RDF data for never-issued token {t:#x}"
                        )),
                    }
                }
            }
            (TraceSite::SmEject, PacketKind::Wta { .. }) => self.wta_issued += 1,
            (TraceSite::ToNsu, PacketKind::Wta { token, .. }) => {
                self.wta_consumed += 1;
                if self.deep {
                    let t = token.0;
                    if self.tokens.get(&t).copied() == Some(TokenPhase::Done) {
                        self.record(format!("cycle {now}: WTA for completed token {t:#x}"));
                    }
                }
            }
            (TraceSite::FromNsu, PacketKind::NsuWrite { .. }) => self.nsu_writes += 1,
            (TraceSite::ToNsu, PacketKind::NsuWriteAck { .. }) => self.nsu_write_acks += 1,
            (TraceSite::GpuLinkDown, PacketKind::CacheInval { .. }) => {
                self.invals_delivered += 1;
            }
            (TraceSite::FromNsu, PacketKind::OffloadAck { token, .. }) => {
                self.ack_emitted += 1;
                if self.deep {
                    let t = token.0;
                    match self.tokens.get(&t).copied() {
                        Some(TokenPhase::AtNsu) => {
                            self.tokens.insert(t, TokenPhase::AckSent);
                        }
                        Some(phase) => self.record(format!(
                            "cycle {now}: duplicate ACK emitted for token {t:#x} ({})",
                            phase.name()
                        )),
                        None => self.record(format!(
                            "cycle {now}: ACK emitted for never-issued token {t:#x}"
                        )),
                    }
                }
            }
            (TraceSite::GpuLinkDown, PacketKind::OffloadAck { token, .. }) => {
                self.ack_delivered += 1;
                if self.deep {
                    let t = token.0;
                    match self.tokens.get(&t).copied() {
                        Some(TokenPhase::AckSent) => {
                            self.tokens.insert(t, TokenPhase::Done);
                        }
                        Some(phase) => self.record(format!(
                            "cycle {now}: orphan ACK delivered for token {t:#x} ({})",
                            phase.name()
                        )),
                        None => self.record(format!(
                            "cycle {now}: orphan ACK delivered for never-issued token {t:#x}"
                        )),
                    }
                }
            }
            _ => {}
        }
    }

    /// The first recorded violation, if any. Checked periodically by the
    /// run loop so deep violations abort the run promptly.
    pub fn first_violation(&self) -> Option<&str> {
        self.violations.first().map(String::as_str)
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// End-of-run conservation check: with the system drained, every
    /// counter pair must balance and no violation may be recorded.
    pub fn check_drained(&self, now: Cycle) -> Result<(), SimError> {
        if let Some(v) = self.first_violation() {
            return Err(SimError::InvariantViolation {
                cycle: now,
                detail: v.to_string(),
            });
        }
        let pairs: [(&str, u64, &str, u64); 6] = [
            ("cmd_issued", self.cmd_issued, "cmd_at_nsu", self.cmd_at_nsu),
            (
                "cmd_issued",
                self.cmd_issued,
                "ack_delivered",
                self.ack_delivered,
            ),
            (
                "ack_emitted",
                self.ack_emitted,
                "ack_delivered",
                self.ack_delivered,
            ),
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
        ];
        for (an, a, bn, b) in pairs {
            if a != b {
                return Err(SimError::InvariantViolation {
                    cycle: now,
                    detail: format!("{an} ({a}) != {bn} ({b}) after drain"),
                });
            }
        }
        if self.nsu_writes != self.invals_delivered {
            return Err(SimError::InvariantViolation {
                cycle: now,
                detail: format!(
                    "nsu_writes ({}) != invals_delivered ({}) after drain",
                    self.nsu_writes, self.invals_delivered
                ),
            });
        }
        Ok(())
    }

    /// Counter snapshot for stall reports.
    pub fn counters(&self) -> Vec<CounterSnapshot> {
        [
            ("cmd_issued", self.cmd_issued),
            ("cmd_at_nsu", self.cmd_at_nsu),
            ("ack_emitted", self.ack_emitted),
            ("ack_delivered", self.ack_delivered),
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

    /// Tokens not yet `Done`, with lifecycle state (deep mode only —
    /// empty otherwise). For stall reports.
    pub fn inflight_tokens(&self) -> Vec<TokenInFlight> {
        let mut v: Vec<TokenInFlight> = self
            .tokens
            .iter()
            .filter(|(_, ph)| **ph != TokenPhase::Done)
            .map(|(&token, ph)| TokenInFlight {
                token,
                state: ph.name().to_string(),
            })
            .collect();
        v.sort_by_key(|t| t.token);
        v
    }
}

crate::snap_value!(enum TokenPhase {
    0 => Issued,
    1 => AtNsu,
    2 => AckSent,
    3 => Done,
});

crate::snap_state!(Invariants {
    deep,
    cmd_issued,
    cmd_at_nsu,
    ack_emitted,
    ack_delivered,
    rdf_issued,
    rdf_consumed,
    wta_issued,
    wta_consumed,
    nsu_writes,
    nsu_write_acks,
    invals_delivered,
    tokens,
    violations,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Node, OffloadId, OffloadToken};

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

    fn full_lifecycle(inv: &mut Invariants, token: u64) {
        inv.on_packet(1, TraceSite::SmEject, &cmd(token));
        inv.on_packet(2, TraceSite::ToNsu, &cmd(token));
        inv.on_packet(3, TraceSite::FromNsu, &ack(token));
        inv.on_packet(4, TraceSite::GpuLinkDown, &ack(token));
    }

    #[test]
    fn clean_lifecycle_has_no_violations_and_drains() {
        let mut inv = Invariants::new(true);
        full_lifecycle(&mut inv, 0x10);
        full_lifecycle(&mut inv, 0x11);
        assert_eq!(inv.first_violation(), None);
        assert!(inv.check_drained(100).is_ok());
        assert!(inv.inflight_tokens().is_empty());
    }

    #[test]
    fn duplicate_cmd_at_nsu_is_a_violation() {
        let mut inv = Invariants::new(true);
        inv.on_packet(1, TraceSite::SmEject, &cmd(0x7));
        inv.on_packet(2, TraceSite::ToNsu, &cmd(0x7));
        inv.on_packet(3, TraceSite::ToNsu, &cmd(0x7));
        let v = inv.first_violation().expect("violation recorded");
        assert!(v.contains("duplicate CMD"), "{v}");
    }

    #[test]
    fn orphan_ack_is_a_violation() {
        let mut inv = Invariants::new(true);
        inv.on_packet(5, TraceSite::GpuLinkDown, &ack(0x9));
        let v = inv.first_violation().expect("violation recorded");
        assert!(v.contains("orphan ACK"), "{v}");
    }

    #[test]
    fn imbalanced_counters_fail_drain_check() {
        let mut inv = Invariants::new(false);
        inv.on_packet(1, TraceSite::SmEject, &cmd(0x1));
        // CMD never reaches the NSU, no ACK ever delivered.
        let err = inv.check_drained(50).unwrap_err();
        assert!(matches!(err, SimError::InvariantViolation { .. }), "{err}");
    }

    #[test]
    fn shallow_mode_skips_token_tracking_but_counts() {
        let mut inv = Invariants::new(false);
        inv.on_packet(5, TraceSite::GpuLinkDown, &ack(0x9));
        assert_eq!(inv.first_violation(), None, "no deep checks when shallow");
        // But the counter imbalance is still caught at drain.
        assert!(inv.check_drained(50).is_err());
    }

    #[test]
    fn inflight_tokens_report_lifecycle_state() {
        let mut inv = Invariants::new(true);
        inv.on_packet(1, TraceSite::SmEject, &cmd(0x20));
        inv.on_packet(2, TraceSite::ToNsu, &cmd(0x20));
        let t = inv.inflight_tokens();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].token, 0x20);
        assert!(t[0].state.contains("AtNsu"), "{}", t[0].state);
    }
}
