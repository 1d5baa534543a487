//! Trace and metrics exporters.
//!
//! [`chrome_trace_json`] renders an [`ObsReport`] as Chrome trace-event
//! JSON — the `{"traceEvents": [...]}` format that Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` load directly.
//! Protocol events become instant events on one thread lane per routing
//! site; occupancy series become counter tracks. Timestamps are in
//! simulated SM cycles, mapped 1 cycle = 1 µs of trace time.
//!
//! [`metrics_json`] renders the same report as a flat JSON document. Both
//! are hand-rolled (the report holds only numbers and static names), so
//! exporting needs no serializer framework.

use super::perf::PerfReport;
use super::{ObsReport, TraceSite};

/// Version stamp of the flat metrics document. Bumped to 2 when the field
/// itself was introduced (v1 documents carry no version).
pub const METRICS_SCHEMA_VERSION: u32 = 2;

/// Minimal JSON string escape (quotes, backslashes, control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON-safe float: finite values print as-is, anything else as null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

const PID_PROTOCOL: u32 = 0;
const PID_OCCUPANCY: u32 = 1;
const PID_PERF: u32 = 2;

/// Render a report as Chrome trace-event JSON.
pub fn chrome_trace_json(report: &ObsReport) -> String {
    let mut ev: Vec<String> = Vec::new();

    // Process / thread naming metadata.
    ev.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":{PID_PROTOCOL},"tid":0,"args":{{"name":"NDP protocol"}}}}"#
    ));
    ev.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":{PID_OCCUPANCY},"tid":0,"args":{{"name":"queue occupancy"}}}}"#
    ));
    for site in TraceSite::ALL {
        ev.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{PID_PROTOCOL},"tid":{},"args":{{"name":"{}"}}}}"#,
            site.index(),
            esc(site.key())
        ));
    }

    // Protocol events: one instant event per observed packet movement.
    for e in &report.events {
        let token = match e.token {
            Some(t) => format!("{}", t.0),
            None => "null".to_string(),
        };
        ev.push(format!(
            r#"{{"name":"{}","cat":"packet","ph":"i","s":"t","ts":{},"pid":{PID_PROTOCOL},"tid":{},"args":{{"site":"{}","src":"{}","dst":"{}","size":{},"token":{}}}}}"#,
            esc(e.kind),
            e.cycle,
            e.site.index(),
            esc(e.site.key()),
            esc(&format!("{:?}", e.src)),
            esc(&format!("{:?}", e.dst)),
            e.size,
            token
        ));
    }

    // Occupancy series: counter events.
    for s in &report.series {
        for (i, v) in s.samples.iter().enumerate() {
            ev.push(format!(
                r#"{{"name":"{}","ph":"C","ts":{},"pid":{PID_OCCUPANCY},"tid":0,"args":{{"value":{}}}}}"#,
                esc(&s.name),
                i as u64 * s.interval_cycles,
                num(*v)
            ));
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

/// Render the simulator's self-profile as Chrome trace-event JSON: a
/// third Perfetto lane next to the protocol and occupancy ones. Per-stage
/// estimated wall time renders as one span per stage laid end to end (a
/// one-frame flame view of where host time goes); heartbeats render as
/// counter tracks (cycles/sec and routing occupancy over sim cycles).
pub fn perf_chrome_trace_json(report: &PerfReport) -> String {
    let mut ev: Vec<String> = Vec::new();
    ev.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":{PID_PERF},"tid":0,"args":{{"name":"simulator perf (host wall time)"}}}}"#
    ));
    ev.push(format!(
        r#"{{"name":"thread_name","ph":"M","pid":{PID_PERF},"tid":0,"args":{{"name":"stage wall time"}}}}"#
    ));
    let mut ts = 0u64;
    for s in &report.stages {
        let dur_us = s.est_wall_ns / 1_000;
        ev.push(format!(
            r#"{{"name":"{}","cat":"perf","ph":"X","ts":{ts},"dur":{dur_us},"pid":{PID_PERF},"tid":0,"args":{{"invocations":{},"gated":{},"idle":{},"moved":{},"idle_frac":{},"wall_frac":{}}}}}"#,
            esc(&s.name),
            s.invocations,
            s.gated,
            s.idle,
            s.moved,
            num(s.idle_frac),
            num(s.wall_frac)
        ));
        ts += dur_us;
    }
    for hb in &report.heartbeats {
        ev.push(format!(
            r#"{{"name":"cycles_per_sec","ph":"C","ts":{},"pid":{PID_PERF},"tid":1,"args":{{"value":{}}}}}"#,
            hb.cycle,
            num(hb.cycles_per_sec)
        ));
        ev.push(format!(
            r#"{{"name":"route_occupancy","ph":"C","ts":{},"pid":{PID_PERF},"tid":1,"args":{{"value":{}}}}}"#,
            hb.cycle,
            num(hb.route_occupancy)
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

/// Render a report as a flat JSON metrics document.
pub fn metrics_json(report: &ObsReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {METRICS_SCHEMA_VERSION},\n"
    ));
    out.push_str(&format!(
        "  \"sample_interval\": {},\n  \"txn\": {{\"issued\": {}, \"completed\": {}, \"inflight\": {}, \"orphan_acks\": {}}},\n",
        report.sample_interval,
        report.txn_issued,
        report.txn_completed,
        report.txn_inflight,
        report.orphan_acks
    ));
    out.push_str("  \"latency_cycles\": {\n");
    let lat: Vec<String> = report
        .latency
        .iter()
        .map(|s| {
            let l = &s.latency;
            format!(
                "    \"{}\": {{\"count\": {}, \"mean\": {}, \"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                esc(&s.segment),
                l.count,
                num(l.mean),
                l.min,
                l.p50,
                l.p90,
                l.p99,
                l.max
            )
        })
        .collect();
    out.push_str(&lat.join(",\n"));
    out.push_str("\n  },\n  \"occupancy\": {\n");
    let ser: Vec<String> = report
        .series
        .iter()
        .map(|s| {
            let vals: Vec<String> = s.samples.iter().map(|v| num(*v)).collect();
            format!(
                "    \"{}\": {{\"interval_cycles\": {}, \"samples\": [{}]}}",
                esc(&s.name),
                s.interval_cycles,
                vals.join(", ")
            )
        })
        .collect();
    out.push_str(&ser.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
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

    /// A tiny structural JSON validator: verifies balanced braces/brackets
    /// outside strings and legal string escapes — enough to catch exporter
    /// formatting bugs without a parser dependency.
    fn check_json_structure(s: &str) {
        let mut depth: Vec<char> = Vec::new();
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth.push(c),
                '}' => assert_eq!(depth.pop(), Some('{'), "unbalanced brace"),
                ']' => assert_eq!(depth.pop(), Some('['), "unbalanced bracket"),
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert!(depth.is_empty(), "unclosed scopes: {depth:?}");
    }

    #[test]
    fn chrome_trace_is_structured_and_complete() {
        let r = report_with_data();
        let json = chrome_trace_json(&r);
        check_json_structure(&json);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"OffloadCmd\""));
        assert!(json.contains("\"ph\":\"C\""), "counter events present");
        assert!(json.contains("\"nsu_read_buf\""));
        assert!(json.contains("\"token\":42"));
    }

    #[test]
    fn metrics_json_is_structured_and_complete() {
        let r = report_with_data();
        let json = metrics_json(&r);
        check_json_structure(&json);
        assert!(json.contains("\"end_to_end\""));
        assert!(json.contains("\"nsu_read_buf\""));
        assert!(json.contains("\"issued\": 1"));
        assert!(
            json.contains(&format!("\"schema_version\": {METRICS_SCHEMA_VERSION}")),
            "metrics document must be versioned"
        );
    }

    #[test]
    fn perf_trace_is_structured_and_complete() {
        use super::super::perf::{Perf, PerfConfig, StageOutcome};
        let mut cfg = PerfConfig::on();
        cfg.heartbeat_interval = 2;
        let mut p = Perf::new(cfg, vec!["tick:sms".into(), "edge:sm_out".into()]);
        for now in 0..6u64 {
            p.cycle_begin(now);
            p.stage(0, StageOutcome::Ticked);
            p.stage(1, StageOutcome::Routed(now % 2));
        }
        let json = perf_chrome_trace_json(&p.report(6));
        check_json_structure(&json);
        assert!(json.contains("\"edge:sm_out\""));
        assert!(json.contains("\"ph\":\"X\""), "stage spans present");
        assert!(json.contains("\"cycles_per_sec\""), "heartbeat counters");
        assert!(json.contains("\"route_occupancy\""));
    }

    #[test]
    fn escapes_are_safe() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("\n"), "\\u000a");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(2.5), "2.5");
    }
}
