//! Trace and metrics documents.
//!
//! [`ChromeTrace`] is the Chrome trace-event format, the
//! `{"traceEvents": [...]}` document that Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` load directly.
//! [`ObsReport::chrome_trace`] fills it with protocol events, as instant
//! events on one thread lane per routing site, and with occupancy series,
//! as counter tracks; timestamps are simulated SM cycles, mapped 1 cycle =
//! 1 µs of trace time. [`PerfReport::chrome_trace`] fills the same type
//! with the simulator's self-profile, a third lane.
//!
//! [`Metrics`] is the flat metrics document ([`ObsReport::metrics`]). All
//! of these are plain serde types: the caller serializes them (with
//! `serde_json`, which writes a non-finite float as `null`).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use super::perf::PerfReport;
use super::{HistogramSummary, ObsReport, TraceSite};

/// Version stamp of the flat metrics document. Bumped to 2 when the field
/// itself was introduced (v1 documents carry no version).
pub const METRICS_SCHEMA_VERSION: u32 = 2;

const PID_PROTOCOL: u32 = 0;
const PID_OCCUPANCY: u32 = 1;
const PID_PERF: u32 = 2;

/// A Chrome trace-event document.
#[allow(non_snake_case)] // the format's own key names
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeTrace {
    pub displayTimeUnit: String,
    pub traceEvents: Vec<ChromeEvent>,
}

/// One trace event. Its phase `ph` is `M` (metadata naming a process or
/// thread lane), `i` (an instant), `C` (a counter sample) or `X` (a span
/// of `dur` µs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    pub name: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cat: Option<String>,
    pub ph: String,
    /// An instant's scope (`t`: its thread lane).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub s: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ts: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dur: Option<u64>,
    pub pid: u32,
    pub tid: u32,
    pub args: Args,
}

/// An event's `args`. Each phase fills its own fields and leaves the rest
/// out of the document.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Args {
    /// `M`: the lane's name.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub name: Option<String>,
    /// `i`: where the packet was seen, its endpoints and size…
    #[serde(skip_serializing_if = "Option::is_none")]
    pub site: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub src: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dst: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub size: Option<u32>,
    /// …and its offload token, written as `null` for a packet outside the
    /// offload protocol (which a parse reads back as `None`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub token: Option<Option<u64>>,
    /// `C`: the sample.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub value: Option<f64>,
    /// `X`: the stage's counters (see [`super::StagePerf`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub invocations: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub gated: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub idle: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub moved: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub idle_frac: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub wall_frac: Option<f64>,
}

impl ChromeTrace {
    fn new(events: Vec<ChromeEvent>) -> Self {
        ChromeTrace {
            displayTimeUnit: "ms".to_string(),
            traceEvents: events,
        }
    }
}

impl ChromeEvent {
    /// An event of phase `ph` with no category, scope, time or args.
    fn new(name: &str, ph: &str, pid: u32, tid: u32) -> Self {
        ChromeEvent {
            name: name.to_string(),
            cat: None,
            ph: ph.to_string(),
            s: None,
            ts: None,
            dur: None,
            pid,
            tid,
            args: Args::default(),
        }
    }

    /// Metadata `meta` (`process_name` or `thread_name`) naming a lane.
    fn lane(meta: &str, pid: u32, tid: u32, name: &str) -> Self {
        ChromeEvent {
            args: Args {
                name: Some(name.to_string()),
                ..Args::default()
            },
            ..ChromeEvent::new(meta, "M", pid, tid)
        }
    }
}

/// The flat metrics document: offload-transaction counts, a latency
/// summary per round-trip segment and the samples of each occupancy
/// series, keyed by segment and series name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    pub schema_version: u32,
    /// Cycles between occupancy samples, before decimation.
    pub sample_interval: u64,
    pub txn: TxnCounts,
    pub latency_cycles: BTreeMap<String, HistogramSummary>,
    pub occupancy: BTreeMap<String, Samples>,
}

/// Offload transactions by state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TxnCounts {
    pub issued: u64,
    pub completed: u64,
    pub inflight: u64,
    pub orphan_acks: u64,
}

/// The retained samples of one occupancy series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Samples {
    /// Cycles between retained samples (base interval × decimation stride).
    pub interval_cycles: u64,
    pub samples: Vec<f64>,
}

impl ObsReport {
    /// The report as a Chrome trace (open in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut ev = vec![
            ChromeEvent::lane("process_name", PID_PROTOCOL, 0, "NDP protocol"),
            ChromeEvent::lane("process_name", PID_OCCUPANCY, 0, "queue occupancy"),
        ];
        for site in TraceSite::ALL {
            ev.push(ChromeEvent::lane(
                "thread_name",
                PID_PROTOCOL,
                site.index(),
                site.key(),
            ));
        }
        // Protocol events: one instant per observed packet movement.
        for e in &self.events {
            ev.push(ChromeEvent {
                cat: Some("packet".to_string()),
                s: Some("t".to_string()),
                ts: Some(e.cycle),
                args: Args {
                    site: Some(e.site.key().to_string()),
                    src: Some(format!("{:?}", e.src)),
                    dst: Some(format!("{:?}", e.dst)),
                    size: Some(e.size),
                    token: Some(e.token.map(|t| t.0)),
                    ..Args::default()
                },
                ..ChromeEvent::new(e.kind, "i", PID_PROTOCOL, e.site.index())
            });
        }
        // Occupancy series: counter events.
        for s in &self.series {
            for (i, &v) in s.samples.iter().enumerate() {
                ev.push(ChromeEvent {
                    ts: Some(i as u64 * s.interval_cycles),
                    args: Args {
                        value: Some(v),
                        ..Args::default()
                    },
                    ..ChromeEvent::new(&s.name, "C", PID_OCCUPANCY, 0)
                });
            }
        }
        ChromeTrace::new(ev)
    }

    /// The report as a flat metrics document.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            schema_version: METRICS_SCHEMA_VERSION,
            sample_interval: self.sample_interval,
            txn: TxnCounts {
                issued: self.txn_issued,
                completed: self.txn_completed,
                inflight: self.txn_inflight,
                orphan_acks: self.orphan_acks,
            },
            latency_cycles: self
                .latency
                .iter()
                .map(|s| (s.segment.clone(), s.latency))
                .collect(),
            occupancy: self
                .series
                .iter()
                .map(|s| {
                    let samples = Samples {
                        interval_cycles: s.interval_cycles,
                        samples: s.samples.clone(),
                    };
                    (s.name.clone(), samples)
                })
                .collect(),
        }
    }
}

impl PerfReport {
    /// The self-profile as a Chrome trace lane: one span per stage, as
    /// long as its estimated host wall time and laid end to end (a
    /// one-frame flame view of where host time goes). Open it in Perfetto
    /// beside the protocol trace.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut ev = vec![
            ChromeEvent::lane(
                "process_name",
                PID_PERF,
                0,
                "simulator perf (host wall time)",
            ),
            ChromeEvent::lane("thread_name", PID_PERF, 0, "stage wall time"),
        ];
        let mut ts = 0u64;
        for s in &self.stages {
            let dur = s.est_wall_ns / 1_000;
            ev.push(ChromeEvent {
                cat: Some("perf".to_string()),
                ts: Some(ts),
                dur: Some(dur),
                args: Args {
                    invocations: Some(s.invocations),
                    gated: Some(s.gated),
                    idle: Some(s.idle),
                    moved: Some(s.moved),
                    idle_frac: Some(s.idle_frac),
                    wall_frac: Some(s.wall_frac),
                    ..Args::default()
                },
                ..ChromeEvent::new(&s.name, "X", PID_PERF, 0)
            });
            ts += dur;
        }
        ChromeTrace::new(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Obs, TraceSite};
    use super::*;
    use crate::ids::{Node, OffloadId, OffloadToken};
    use crate::packet::{Packet, PacketKind};

    fn report_with_data() -> ObsReport {
        let mut o = Obs::new(true);
        let cmd = Packet::new(
            Node::Sm(3),
            Node::Nsu(1),
            0,
            PacketKind::OffloadCmd {
                token: OffloadToken(42),
                id: OffloadId {
                    sm: 3,
                    warp: 0,
                    seq: 0,
                },
                nsu_pc: 0,
                regs_in: 1,
                active: 32,
                mask: u32::MAX,
                n_loads: 2,
                n_stores: 1,
            },
        );
        o.on_packet(5, TraceSite::SmEject, &cmd);
        o.offer_sample("nsu_read_buf", 4.0);
        o.offer_sample("nsu_read_buf", 7.0);
        o.report()
    }

    /// Serialize `doc` and parse the text back into its own type.
    fn round_trip<T: Serialize + for<'de> Deserialize<'de>>(doc: &T) -> T {
        let text = serde_json::to_string(doc).unwrap();
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{e}: {text}"))
    }

    #[test]
    fn chrome_trace_is_structured_and_complete() {
        let trace = round_trip(&report_with_data().chrome_trace());
        assert_eq!(trace.displayTimeUnit, "ms");
        let phases: Vec<&str> = trace.traceEvents.iter().map(|e| e.ph.as_str()).collect();
        // Two process names, five site lanes, one packet, two samples.
        assert_eq!(phases, ["M", "M", "M", "M", "M", "M", "M", "i", "C", "C"]);
        let cmd = &trace.traceEvents[7];
        assert_eq!(
            (cmd.name.as_str(), cmd.ts, cmd.tid),
            ("OffloadCmd", Some(5), 0)
        );
        assert_eq!(cmd.args.site.as_deref(), Some("sm_eject"));
        assert_eq!(cmd.args.src.as_deref(), Some("Sm(3)"));
        assert_eq!(cmd.args.token, Some(Some(42)));
        let samples: Vec<(&str, Option<u64>, Option<f64>)> = trace.traceEvents[8..]
            .iter()
            .map(|e| (e.name.as_str(), e.ts, e.args.value))
            .collect();
        assert_eq!(
            samples,
            [
                ("nsu_read_buf", Some(0), Some(4.0)),
                ("nsu_read_buf", Some(512), Some(7.0))
            ]
        );
    }

    #[test]
    fn metrics_are_keyed_by_segment_and_series() {
        let r = report_with_data();
        let m = round_trip(&r.metrics());
        assert_eq!(m, r.metrics());
        assert_eq!(m.schema_version, METRICS_SCHEMA_VERSION);
        assert_eq!((m.txn.issued, m.txn.inflight), (1, 1));
        assert_eq!(m.latency_cycles.len(), r.latency.len());
        assert_eq!(m.latency_cycles["end_to_end"].count, 0);
        assert_eq!(m.occupancy["nsu_read_buf"].samples, [4.0, 7.0]);
    }

    #[test]
    fn perf_trace_lays_one_span_per_stage() {
        use super::super::perf::{Perf, StageOutcome};
        let mut p = Perf::new(true, vec!["tick:sms".into(), "edge:sm_out".into()]);
        for now in 0..6u64 {
            p.cycle_begin();
            p.stage(0, StageOutcome::Ticked);
            p.stage(1, StageOutcome::Routed(now % 2));
        }
        let trace = round_trip(&p.report(6).chrome_trace());
        let spans: Vec<&ChromeEvent> = trace.traceEvents.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "edge:sm_out");
        assert_eq!(
            (spans[1].args.invocations, spans[1].args.moved),
            (Some(6), Some(3))
        );
        // Laid end to end.
        assert_eq!(spans[1].ts, Some(spans[0].dur.unwrap()));
    }
}
