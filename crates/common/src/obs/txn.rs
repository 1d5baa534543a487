//! Per-offload-transaction lifecycle tracking.
//!
//! Every offload block instance is one transaction, keyed by its
//! [`OffloadToken`] (strictly increasing per SM, never reused). The tracker
//! timestamps the four observable protocol milestones —
//!
//! 1. CMD ejected by the SM (`cmd_issued`),
//! 2. CMD delivered to the target NSU (`cmd_at_nsu`),
//! 3. last RDF data delivered to the NSU (`rdf_at_nsu`),
//! 4. ACK emitted by the NSU (`ack_emitted`) and delivered back to the SM
//!    (`ack_delivered`)
//!
//! — and on completion folds the transaction into per-segment latency
//! histograms: command dispatch, RDF drain, NSU execute, ACK return, and
//! end-to-end round trip.

use std::collections::HashMap;

use crate::ids::{Cycle, OffloadToken};

use super::histogram::Histogram;

#[derive(Debug, Clone, Copy)]
struct Pending {
    issued: Cycle,
    at_nsu: Option<Cycle>,
    last_rdf: Option<Cycle>,
    ack_out: Option<Cycle>,
}

/// Tracks in-flight offload transactions and their segment latencies.
#[derive(Debug, Clone, Default)]
pub struct TxnTracker {
    pending: HashMap<OffloadToken, Pending>,
    /// CMD packets observed leaving an SM.
    pub issued: u64,
    /// ACKs matched back to a tracked CMD.
    pub completed: u64,
    /// ACKs with no matching CMD — a protocol bug if ever nonzero.
    pub orphan_acks: u64,
    /// SM CMD eject → full round trip back at the SM.
    pub end_to_end: Histogram,
    /// SM CMD eject → CMD delivered to the NSU.
    pub cmd_dispatch: Histogram,
    /// CMD at NSU → last RDF data at the NSU (zero for store-only blocks).
    pub rdf_drain: Histogram,
    /// Last RDF (or CMD arrival) → ACK emitted by the NSU.
    pub nsu_execute: Histogram,
    /// ACK emitted → ACK delivered to the SM.
    pub ack_return: Histogram,
}

impl TxnTracker {
    pub fn cmd_issued(&mut self, token: OffloadToken, now: Cycle) {
        self.issued += 1;
        self.pending.insert(
            token,
            Pending {
                issued: now,
                at_nsu: None,
                last_rdf: None,
                ack_out: None,
            },
        );
    }

    pub fn cmd_at_nsu(&mut self, token: OffloadToken, now: Cycle) {
        if let Some(t) = self.pending.get_mut(&token) {
            t.at_nsu = Some(now);
        }
    }

    pub fn rdf_at_nsu(&mut self, token: OffloadToken, now: Cycle) {
        if let Some(t) = self.pending.get_mut(&token) {
            t.last_rdf = Some(now);
        }
    }

    pub fn ack_emitted(&mut self, token: OffloadToken, now: Cycle) {
        if let Some(t) = self.pending.get_mut(&token) {
            t.ack_out = Some(now);
        }
    }

    pub fn ack_delivered(&mut self, token: OffloadToken, now: Cycle) {
        let Some(t) = self.pending.remove(&token) else {
            self.orphan_acks += 1;
            return;
        };
        self.completed += 1;
        self.end_to_end.record(now.saturating_sub(t.issued));
        let at_nsu = t.at_nsu.unwrap_or(t.issued);
        self.cmd_dispatch.record(at_nsu.saturating_sub(t.issued));
        let exec_from = t.last_rdf.unwrap_or(at_nsu);
        self.rdf_drain.record(exec_from.saturating_sub(at_nsu));
        let ack_out = t.ack_out.unwrap_or(now);
        self.nsu_execute.record(ack_out.saturating_sub(exec_from));
        self.ack_return.record(now.saturating_sub(ack_out));
    }

    /// Transactions with a CMD out but no ACK back yet.
    pub fn inflight(&self) -> usize {
        self.pending.len()
    }

    /// `(name, histogram)` for every segment, report order.
    pub fn segments(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("end_to_end", &self.end_to_end),
            ("cmd_dispatch", &self.cmd_dispatch),
            ("rdf_drain", &self.rdf_drain),
            ("nsu_execute", &self.nsu_execute),
            ("ack_return", &self.ack_return),
        ]
    }
}

crate::snap_value!(Pending {
    issued,
    at_nsu,
    last_rdf,
    ack_out,
});

crate::snap_state!(TxnTracker {
    pending,
    issued,
    completed,
    orphan_acks,
    end_to_end,
    cmd_dispatch,
    rdf_drain,
    nsu_execute,
    ack_return,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_transaction_full_lifecycle() {
        let mut t = TxnTracker::default();
        let tok = OffloadToken(7);
        t.cmd_issued(tok, 100);
        t.cmd_at_nsu(tok, 140);
        t.rdf_at_nsu(tok, 180);
        t.rdf_at_nsu(tok, 220);
        t.ack_emitted(tok, 300);
        t.ack_delivered(tok, 340);
        assert_eq!(t.issued, 1);
        assert_eq!(t.completed, 1);
        assert_eq!(t.inflight(), 0);
        assert_eq!(t.orphan_acks, 0);
        assert_eq!(t.end_to_end.max(), Some(240));
        assert_eq!(t.cmd_dispatch.max(), Some(40));
        assert_eq!(t.rdf_drain.max(), Some(80), "drain ends at the last RDF");
        assert_eq!(t.nsu_execute.max(), Some(80));
        assert_eq!(t.ack_return.max(), Some(40));
    }

    #[test]
    fn store_only_block_has_zero_rdf_drain() {
        let mut t = TxnTracker::default();
        let tok = OffloadToken(1);
        t.cmd_issued(tok, 0);
        t.cmd_at_nsu(tok, 50);
        t.ack_emitted(tok, 90);
        t.ack_delivered(tok, 120);
        assert_eq!(t.rdf_drain.max(), Some(0));
        assert_eq!(t.nsu_execute.max(), Some(40));
    }

    #[test]
    fn orphan_acks_are_counted_not_recorded() {
        let mut t = TxnTracker::default();
        t.ack_delivered(OffloadToken(9), 10);
        assert_eq!(t.orphan_acks, 1);
        assert_eq!(t.completed, 0);
        assert_eq!(t.end_to_end.count(), 0);
    }
}
