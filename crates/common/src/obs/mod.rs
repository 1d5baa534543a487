//! Unified simulator observability.
//!
//! One layer provides everything the figure drivers and performance work
//! need to see *inside* a run instead of just its scalar totals:
//!
//! * [`Histogram`] — log-bucketed latency distribution (p50/p90/p99/max);
//! * [`TimeSeries`] — bounded fixed-interval occupancy sampler;
//! * [`TxnTracker`] — latency histograms of the offload transactions the
//!   invariant engine's token table completes (CMD issue → RDF drain → NSU
//!   execute → ACK return);
//! * [`EventRing`] — the single protocol-event stream (also renders the
//!   Fig. 2 walkthrough, [`EventRing::render_instance`]);
//! * [`ObsReport`] — the serializable outcome, with a Chrome trace
//!   ([`ObsReport::chrome_trace`], loadable in Perfetto) and a flat
//!   metrics document ([`ObsReport::metrics`]), both serde types;
//! * [`perf`] — the simulator's *self*-profile: per-pipeline-stage host
//!   wall-time and idle-tick attribution, and its own Perfetto lane
//!   (`NDP_PERF`).
//!
//! Observation is one flag (`ndp_core::RunOptions::obs`), **off by
//! default**: a disabled [`Obs`] costs one branch per hook, records
//! nothing, and leaves every simulation result bit-identical to an
//! uninstrumented run. Its cadence and caps are the constants below.

pub mod chrome;
pub mod event;
pub mod histogram;
pub mod perf;
pub mod timeseries;
pub mod txn;

pub use chrome::{ChromeTrace, Metrics};
pub use event::{EventRing, TraceEvent, TraceSite};
pub use histogram::Histogram;
pub use perf::{Perf, PerfReport, StageOutcome, StagePerf};
pub use timeseries::TimeSeries;
pub use txn::TxnTracker;

use serde::{Deserialize, Serialize};

use crate::ids::Cycle;
use crate::invariant::{Invariants, Txn};
use crate::packet::Packet;

/// Cycles between occupancy samples.
pub const SAMPLE_INTERVAL: u64 = 512;
/// Max retained samples per time series (older data decimates).
pub const SERIES_CAP: usize = 512;
/// Max retained protocol events for trace export.
pub const EVENT_CAP: usize = 16384;

/// Live observability state for one simulated system.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    on: bool,
    pub txns: TxnTracker,
    pub events: EventRing,
    /// Occupancy series by name, in creation order. Names are owned so a
    /// restore rebuilds them without interning.
    series: Vec<(String, TimeSeries)>,
}

impl Obs {
    /// Observation on, or the zero-cost disabled layer whose every hook
    /// reduces to one branch.
    pub fn new(on: bool) -> Self {
        if !on {
            return Obs::default();
        }
        Obs {
            on,
            events: EventRing::with_limit(EVENT_CAP),
            ..Obs::default()
        }
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Is an occupancy sample due this cycle?
    #[inline]
    pub fn sample_due(&self, now: Cycle) -> bool {
        self.on && now.is_multiple_of(SAMPLE_INTERVAL)
    }

    /// Earliest cycle at or after `now` with a sample due — the quiescence
    /// horizon of the sampling side-channel. `None` when sampling is off.
    pub fn next_sample_at(&self, now: Cycle) -> Option<Cycle> {
        self.on.then(|| now.next_multiple_of(SAMPLE_INTERVAL))
    }

    /// Offer one occupancy sample to the named series (created on first
    /// use). Call once per series per due cycle.
    pub fn offer_sample(&mut self, name: &str, v: f64) {
        if !self.on {
            return;
        }
        match self.series.iter_mut().find(|(n, _)| n == name) {
            Some((_, ts)) => ts.offer(v),
            None => {
                let mut ts = TimeSeries::new(SERIES_CAP);
                ts.offer(v);
                self.series.push((name.to_string(), ts));
            }
        }
    }

    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ts)| ts)
    }

    /// Record a packet observed at a routing site in the event ring.
    #[inline]
    pub fn on_packet(&mut self, now: Cycle, site: TraceSite, p: &Packet) {
        if self.on {
            self.events.record(now, site, p);
        }
    }

    /// Record the segment latencies of transaction `t`, completed by an
    /// ACK delivered at `delivered`.
    pub fn txn_done(&mut self, t: &Txn, delivered: Cycle) {
        if self.on {
            self.txns.record(t, delivered);
        }
    }

    /// Fold the live state into a serializable report, with the
    /// transaction counts of the token table `tokens`.
    pub fn report(&self, tokens: &Invariants) -> ObsReport {
        ObsReport {
            sample_interval: SAMPLE_INTERVAL,
            txn_issued: tokens.completed() + tokens.inflight(),
            txn_completed: tokens.completed(),
            txn_inflight: tokens.inflight(),
            latency: self
                .txns
                .segments()
                .iter()
                .map(|(name, h)| SegmentLatency {
                    segment: name.to_string(),
                    latency: HistogramSummary::of(h),
                })
                .collect(),
            series: self
                .series
                .iter()
                .map(|(name, ts)| SeriesReport {
                    name: name.to_string(),
                    interval_cycles: SAMPLE_INTERVAL * ts.stride(),
                    samples: ts.samples().to_vec(),
                })
                .collect(),
            events: self.events.events().to_vec(),
            events_dropped: self.events.dropped(),
        }
    }
}

crate::snap_state!(Obs {
    on,
    txns,
    events,
    series
});

/// Percentile summary of one [`Histogram`] (all zero when empty).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean: f64,
    pub min: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl HistogramSummary {
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean: h.mean().unwrap_or(0.0),
            min: h.min().unwrap_or(0),
            p50: h.p50().unwrap_or(0),
            p90: h.p90().unwrap_or(0),
            p99: h.p99().unwrap_or(0),
            max: h.max().unwrap_or(0),
        }
    }
}

/// One named latency segment of the offload round trip.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SegmentLatency {
    pub segment: String,
    pub latency: HistogramSummary,
}

/// One named occupancy series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesReport {
    pub name: String,
    /// Cycles between retained samples (base interval × decimation stride).
    pub interval_cycles: u64,
    pub samples: Vec<f64>,
}

/// The serializable observability outcome of one run.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ObsReport {
    pub sample_interval: u64,
    pub txn_issued: u64,
    pub txn_completed: u64,
    pub txn_inflight: u64,
    pub latency: Vec<SegmentLatency>,
    pub series: Vec<SeriesReport>,
    /// The first [`EVENT_CAP`] protocol events of the run.
    pub events: Vec<TraceEvent>,
    /// Protocol events observed after the ring was full: `events` covers
    /// the whole run only when this is 0.
    pub events_dropped: u64,
}

impl ObsReport {
    pub fn segment(&self, name: &str) -> Option<&HistogramSummary> {
        self.latency
            .iter()
            .find(|s| s.segment == name)
            .map(|s| &s.latency)
    }

    pub fn find_series(&self, name: &str) -> Option<&SeriesReport> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Human-readable summary for terminal output.
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "offload transactions: {} issued, {} completed, {} in flight\n",
            self.txn_issued, self.txn_completed, self.txn_inflight
        ));
        out.push_str(&format!(
            "protocol events: {} recorded, {} dropped after the first {EVENT_CAP}\n",
            self.events.len(),
            self.events_dropped
        ));
        out.push_str(
            "latency (cycles)        count      mean       p50       p90       p99       max\n",
        );
        for s in &self.latency {
            let l = &s.latency;
            out.push_str(&format!(
                "  {:<20} {:>8} {:>9.1} {:>9} {:>9} {:>9} {:>9}\n",
                s.segment, l.count, l.mean, l.p50, l.p90, l.p99, l.max
            ));
        }
        out.push_str("occupancy series              samples  interval      last      peak\n");
        for s in &self.series {
            let last = s.samples.last().copied().unwrap_or(0.0);
            let peak = s.samples.iter().copied().fold(0.0f64, f64::max);
            out.push_str(&format!(
                "  {:<26} {:>9} {:>9} {:>9.1} {:>9.1}\n",
                s.name,
                s.samples.len(),
                s.interval_cycles,
                last,
                peak
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Node, OffloadId, OffloadToken};
    use crate::packet::PacketKind;

    fn cmd(token: u64) -> Packet {
        Packet::new(
            Node::Sm(0),
            Node::Nsu(1),
            0,
            PacketKind::OffloadCmd {
                token: OffloadToken(token),
                id: OffloadId {
                    sm: 0,
                    warp: 0,
                    seq: 0,
                },
                nsu_pc: 0,
                regs_in: 0,
                active: 32,
                mask: u32::MAX,
                n_loads: 1,
                n_stores: 0,
            },
        )
    }

    fn ack(token: u64) -> Packet {
        Packet::new(
            Node::Nsu(1),
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

    /// One packet through both observers, as `System::observe` feeds them.
    fn observe(o: &mut Obs, inv: &mut Invariants, now: Cycle, site: TraceSite, p: &Packet) {
        o.on_packet(now, site, p);
        if let Some(t) = inv.on_packet(now, site, p) {
            o.txn_done(&t, now);
        }
    }

    fn round_trip(o: &mut Obs, inv: &mut Invariants, token: u64) {
        observe(o, inv, 10, TraceSite::SmEject, &cmd(token));
        observe(o, inv, 30, TraceSite::ToNsu, &cmd(token));
        observe(o, inv, 90, TraceSite::FromNsu, &ack(token));
        observe(o, inv, 120, TraceSite::GpuLinkDown, &ack(token));
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let (mut o, mut inv) = (Obs::new(false), Invariants::default());
        assert!(!o.is_on());
        assert!(!o.sample_due(0));
        round_trip(&mut o, &mut inv, 1);
        o.offer_sample("q", 3.0);
        assert_eq!(o.txns.end_to_end.count(), 0);
        assert!(o.events.events().is_empty());
        assert!(o.series("q").is_none());
    }

    #[test]
    fn completed_transactions_drive_latencies() {
        let (mut o, mut inv) = (Obs::new(true), Invariants::default());
        round_trip(&mut o, &mut inv, 5);
        assert_eq!(o.txns.end_to_end.max(), Some(110));
        assert_eq!(o.events.events().len(), 4);
    }

    #[test]
    fn report_round_trip() {
        let (mut o, mut inv) = (Obs::new(true), Invariants::default());
        round_trip(&mut o, &mut inv, 1);
        observe(&mut o, &mut inv, 200, TraceSite::SmEject, &cmd(2));
        o.offer_sample("sm_ndp_pending", 2.0);
        o.offer_sample("sm_ndp_pending", 5.0);
        let r = o.report(&inv);
        assert_eq!((r.txn_issued, r.txn_completed, r.txn_inflight), (2, 1, 1));
        assert_eq!(r.segment("end_to_end").unwrap().max, 110);
        let s = r.find_series("sm_ndp_pending").unwrap();
        assert_eq!(s.samples, vec![2.0, 5.0]);
        assert!(r.summary_text().contains("end_to_end"));
    }
}
