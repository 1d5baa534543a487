//! Per-segment latencies of completed offload transactions.
//!
//! The invariant engine's token table (`crate::invariant`) is the record of
//! every offload transaction. When an ACK delivery completes one, it hands
//! over the cycles of the four observable protocol milestones —
//!
//! 1. CMD ejected by the SM (`issued`),
//! 2. CMD delivered to the target NSU (`at_nsu`),
//! 3. last RDF data delivered to the NSU (`last_rdf`),
//! 4. ACK emitted by the NSU (`ack_out`), then delivered back to the SM
//!
//! — and [`TxnTracker::record`] folds them into per-segment latency
//! histograms: command dispatch, RDF drain, NSU execute, ACK return, and
//! end-to-end round trip.

use crate::ids::Cycle;
use crate::invariant::Txn;

use super::histogram::Histogram;

/// Segment latency histograms of completed offload transactions.
#[derive(Debug, Clone, Default)]
pub struct TxnTracker {
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
    /// Fold in transaction `t`, whose ACK reached its SM at `delivered`.
    pub fn record(&mut self, t: &Txn, delivered: Cycle) {
        self.end_to_end.record(delivered.saturating_sub(t.issued));
        let at_nsu = t.at_nsu.unwrap_or(t.issued);
        self.cmd_dispatch.record(at_nsu.saturating_sub(t.issued));
        let exec_from = t.last_rdf.unwrap_or(at_nsu);
        self.rdf_drain.record(exec_from.saturating_sub(at_nsu));
        let ack_out = t.ack_out.unwrap_or(delivered);
        self.nsu_execute.record(ack_out.saturating_sub(exec_from));
        self.ack_return.record(delivered.saturating_sub(ack_out));
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

crate::snap_state!(TxnTracker {
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
        let txn = Txn {
            issued: 100,
            at_nsu: Some(140),
            last_rdf: Some(220),
            ack_out: Some(300),
        };
        t.record(&txn, 340);
        assert_eq!(t.end_to_end.max(), Some(240));
        assert_eq!(t.cmd_dispatch.max(), Some(40));
        assert_eq!(t.rdf_drain.max(), Some(80), "drain ends at the last RDF");
        assert_eq!(t.nsu_execute.max(), Some(80));
        assert_eq!(t.ack_return.max(), Some(40));
    }

    #[test]
    fn store_only_block_has_zero_rdf_drain() {
        let mut t = TxnTracker::default();
        let txn = Txn {
            issued: 0,
            at_nsu: Some(50),
            last_rdf: None,
            ack_out: Some(90),
        };
        t.record(&txn, 120);
        assert_eq!(t.rdf_drain.max(), Some(0));
        assert_eq!(t.nsu_execute.max(), Some(40));
    }
}
