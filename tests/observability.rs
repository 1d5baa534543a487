//! Observability-layer integration tests: enabling observation must never
//! change simulation outcomes, and an enabled run must produce the full
//! report (latency segments, occupancy series, exportable trace).

use std::sync::Arc;

use standardized_ndp::common::obs::{ChromeTrace, Metrics, TraceSite};
use standardized_ndp::prelude::*;

const MAX: u64 = 30_000_000;

/// `w` on a small NaiveNDP machine, with the environment's run options and
/// observation on or off.
fn system(w: Workload, obs: bool) -> System {
    let mut cfg = SystemConfig::naive_ndp();
    cfg.gpu.num_sms = 8;
    let p = w.build(&Scale {
        warps: 64,
        iters: 4,
    });
    let mut opts = RunOptions::from_env().expect("valid NDP_* environment");
    opts.obs = obs;
    let kernel = Arc::new(compile(&p, &CompilerConfig::default()));
    System::build(cfg, kernel, &opts).expect("builtin workload builds")
}

#[test]
fn observation_is_invisible_to_the_simulation() {
    // The tentpole guarantee: obs hooks are read-only, so a run with
    // observability on is bit-identical (cycles, traffic, energy activity —
    // the whole RunResult) to the same run with it off.
    let off = system(Workload::Vadd, false).run(MAX).unwrap();
    let mut on = system(Workload::Vadd, true).run(MAX).unwrap();
    assert!(!off.timed_out && !on.timed_out);
    assert!(on.obs.is_some(), "enabled run must carry a report");
    on.obs = None;
    assert_eq!(on, off, "observability perturbed the simulation");
}

#[test]
fn enabled_run_reports_all_segments_and_series() {
    let r = system(Workload::Vadd, true).run(MAX).unwrap();
    assert!(!r.timed_out);
    let obs = r.obs.as_ref().expect("report present");

    // All five round-trip segments, fully populated.
    for seg in [
        "end_to_end",
        "cmd_dispatch",
        "rdf_drain",
        "nsu_execute",
        "ack_return",
    ] {
        let h = obs.segment(seg).unwrap_or_else(|| panic!("segment {seg}"));
        assert_eq!(h.count, obs.txn_completed, "{seg} records every txn");
        assert!(h.max >= h.p50, "{seg} ordering");
    }
    let e2e = obs.segment("end_to_end").expect("e2e");
    assert!(e2e.p99 >= e2e.p50 && e2e.p50 > 0);

    // The acceptance-criteria series: SM NDP buffers, NSU buffers, and at
    // least one link credit pool — plus the wider queue set.
    for name in [
        "sm_ndp_pending",
        "sm_ndp_ready",
        "nsu_cmd_queue",
        "nsu_read_data",
        "nsu_write_addr",
        "nsu_warp_slots",
        "credit_cmd_in_use",
        "credit_read_in_use",
        "credit_write_in_use",
        "gpu_link_up_in_transit",
        "gpu_link_down_in_transit",
        "vault_queued",
        "memnet_in_flight",
    ] {
        let s = obs
            .find_series(name)
            .unwrap_or_else(|| panic!("series {name}"));
        assert!(!s.samples.is_empty(), "{name} sampled");
        assert!(s.interval_cycles > 0, "{name} interval");
    }
    // A busy NDP run must actually exercise the credit pools.
    let cmd = obs.find_series("credit_cmd_in_use").expect("present");
    assert!(
        cmd.samples.iter().any(|&v| v > 0.0),
        "command credits never observed in use"
    );
}

#[test]
fn exporters_emit_wellformed_documents() {
    let r = system(Workload::Vadd, true).run(MAX).unwrap();
    let obs = r.obs.as_ref().expect("report present");

    let json = serde_json::to_string(&obs.chrome_trace()).unwrap();
    let trace: ChromeTrace = serde_json::from_str(&json).expect("trace parses");
    let count = |ph: &str| trace.traceEvents.iter().filter(|e| e.ph == ph).count();
    assert_eq!(count("M"), 2 + TraceSite::ALL.len(), "lane names");
    assert_eq!(count("i"), obs.events.len(), "one instant per packet");
    let samples: usize = obs.series.iter().map(|s| s.samples.len()).sum();
    assert_eq!(count("C"), samples, "one counter per occupancy sample");
    for kind in ["OffloadCmd", "OffloadAck"] {
        assert!(
            trace.traceEvents.iter().any(|e| e.name == kind),
            "{kind} instant"
        );
    }

    let json = serde_json::to_string_pretty(&obs.metrics()).unwrap();
    let metrics: Metrics = serde_json::from_str(&json).expect("metrics parse");
    assert_eq!(metrics, obs.metrics());
    assert_eq!(metrics.txn.completed, obs.txn_completed);
    assert_eq!(
        metrics.latency_cycles["end_to_end"],
        *obs.segment("end_to_end").expect("segment")
    );
    assert_eq!(
        metrics.occupancy["sm_ndp_pending"].samples,
        obs.find_series("sm_ndp_pending").expect("series").samples
    );

    let text = obs.summary_text();
    assert!(text.contains("end_to_end") && text.contains("sm_ndp_pending"));
}

#[test]
fn tracer_and_obs_share_one_event_stream() {
    // The Fig. 2 walkthrough is rendered from the obs event ring itself:
    // every event of the rendered instance is in the exported report.
    let mut sys = system(Workload::Vadd, true);
    sys.run_until(20_000).expect("clean prefix");
    let ring = sys.obs.events.clone();
    let token = ring.first_token().expect("an offload happened");
    let instance = ring.instance(token);
    assert!(instance.iter().all(|e| e.token == Some(token)));
    let text = ring.render_instance(token);
    assert!(
        text.contains("OffloadCmd") && text.contains("OffloadAck"),
        "{text}"
    );
    assert_eq!(text.lines().count(), 1 + instance.len(), "{text}");

    let r = sys.run(MAX).unwrap();
    let obs = r.obs.as_ref().expect("report present");
    assert!(
        instance.iter().all(|e| obs.events.contains(e)),
        "rendered events missing from the exported ring"
    );
}
