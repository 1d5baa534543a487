//! Integration tests for the perf self-profiling layer (DESIGN.md §11):
//! profiling must never change simulation outputs, the `NDP_PERF` knob
//! must arm it end to end, and the per-stage counters must account for
//! every pipeline pass.

use standardized_ndp::prelude::*;

const MAX: u64 = 10_000_000;

fn small_run(perf: Option<PerfConfig>) -> RunResult {
    let mut cfg = SystemConfig::ndp_dynamic_cache();
    cfg.gpu.num_sms = 8;
    let program = Workload::Vadd.build(&Scale {
        warps: 64,
        iters: 4,
    });
    let mut sys = System::new(cfg, &program);
    // Explicitly arm or disarm (overriding any ambient NDP_PERF): env vars
    // are process-global and tests run concurrently.
    sys.enable_perf(perf.unwrap_or_default());
    let r = sys.run(MAX).expect("no protocol violation");
    assert!(!r.timed_out);
    r
}

/// Profiling on vs off: the simulation result must be byte-identical in
/// its `{:#?}` rendering (the golden-file format). Wall times are host-
/// dependent, so the perf report is carried next to the result, never
/// inside its Debug output.
#[test]
fn profiling_keeps_sim_output_byte_identical() {
    let off = small_run(None);
    let mut on_cfg = PerfConfig::on();
    on_cfg.heartbeat_interval = 4096;
    let on = small_run(Some(on_cfg));
    assert!(off.perf.is_none(), "disarmed run must carry no perf report");
    assert!(on.perf.is_some(), "armed run must carry a perf report");
    assert_eq!(
        format!("{off:#?}"),
        format!("{on:#?}"),
        "profiling changed the golden-visible simulation output"
    );
    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.gpu_link_bytes, on.gpu_link_bytes);
    assert_eq!(off.nsu_instrs, on.nsu_instrs);
}

/// The typed env knob arms profiling through `System` construction.
#[test]
fn ndp_perf_env_knob_arms_profiling() {
    let mut cfg = SystemConfig::ndp_dynamic_cache();
    cfg.gpu.num_sms = 8;
    let program = Workload::Vadd.build(&Scale {
        warps: 64,
        iters: 4,
    });
    std::env::set_var("NDP_PERF", "1");
    let sys = System::new(cfg, &program);
    std::env::remove_var("NDP_PERF");
    let r = sys.run(MAX).expect("no protocol violation");
    let perf = r.perf.expect("NDP_PERF=1 must arm the profiler");
    assert_eq!(perf.cycles, r.cycles);
}

/// Counter completeness: every pipeline stage is reported exactly once
/// per simulated cycle (ran or gated), fractions stay in range, routing
/// stages move real work, and heartbeats track throughput.
#[test]
fn stage_counters_account_for_every_cycle() {
    let mut cfg = PerfConfig::on();
    cfg.heartbeat_interval = 512;
    let r = small_run(Some(cfg));
    let perf = r.perf.as_ref().expect("profiling was enabled");

    assert_eq!(perf.cycles, r.cycles);
    assert_eq!(perf.stages.len(), 20, "one entry per PIPELINE stage");
    for s in &perf.stages {
        assert_eq!(
            s.invocations + s.gated + s.skipped,
            r.cycles,
            "stage {} not accounted every cycle",
            s.name
        );
        assert!(
            (0.0..=1.0).contains(&s.skip_frac),
            "{}: skip_frac {}",
            s.name,
            s.skip_frac
        );
        assert!(
            (0.0..=1.0).contains(&s.idle_frac),
            "{}: idle_frac {}",
            s.name,
            s.idle_frac
        );
        assert!(
            (0.0..=1.0).contains(&s.wall_frac),
            "{}: wall_frac {}",
            s.name,
            s.wall_frac
        );
        assert!(s.idle <= s.routed, "{}: idle beyond invocations", s.name);
        assert!(
            s.moved == 0 || s.routed > 0,
            "{}: moved without routing",
            s.name
        );
    }
    // A Vadd run moves real traffic: some routing stage delivered packets,
    // and some gated stage exists (NSU-clock stages at a slower clock).
    assert!(
        perf.stages.iter().any(|s| s.moved > 0),
        "no stage moved packets"
    );
    let total_moved: u64 = perf.stages.iter().map(|s| s.moved).sum();
    assert!(total_moved > 0);
    // Event-driven core: with skipping on (the default) quiescent stages
    // must actually be elided, and the report must show it. Under
    // `NDP_NO_SKIP=1` (the CI per-cycle matrix leg) the same identity
    // above must hold with zero skips — every cycle fully ticked.
    let total_skipped: u64 = perf.stages.iter().map(|s| s.skipped).sum();
    let no_skip = standardized_ndp::common::env::flag_or_die("NDP_NO_SKIP").unwrap_or(false);
    if no_skip {
        assert_eq!(total_skipped, 0, "NDP_NO_SKIP run still skipped a stage");
    } else {
        assert!(total_skipped > 0, "no stage ever skipped a quiescent cycle");
    }

    // Ready-set scheduler telemetry (DESIGN.md §15): one occupancy entry
    // per SM, bounded by the warp-slot count, and a busy Vadd run must
    // have had real issue candidates on at least one SM.
    assert_eq!(perf.sm_ready_occupancy.len(), 8, "one entry per SM");
    for (i, occ) in perf.sm_ready_occupancy.iter().enumerate() {
        assert!(
            (0.0..=48.0).contains(occ),
            "sm{i}: occupancy {occ} outside slot bounds"
        );
    }
    assert!(
        perf.sm_ready_occupancy.iter().any(|&o| o > 0.0),
        "no SM ever had a ready warp"
    );
    // Blocked-verdict memo telemetry: per SM, the memo's answers are a
    // subset of the structural retries.
    assert_eq!(perf.sm_structural_retries.len(), 8, "one entry per SM");
    assert_eq!(perf.sm_memo_answers.len(), 8, "one entry per SM");
    for (i, (&retries, &answers)) in perf
        .sm_structural_retries
        .iter()
        .zip(&perf.sm_memo_answers)
        .enumerate()
    {
        assert!(
            answers <= retries,
            "sm{i}: {answers} memo answers exceed {retries} structural retries"
        );
    }

    assert!(
        !perf.heartbeats.is_empty(),
        "heartbeats expected at interval 512"
    );
    for hb in &perf.heartbeats {
        assert!(hb.cycle <= r.cycles);
        assert!(hb.cycles_per_sec > 0.0);
        assert!((0.0..=1.0).contains(&hb.route_occupancy));
    }
    assert!(perf.cycles_per_sec > 0.0);
    assert!(perf.wall_ns > 0);

    // The exporters accept the report.
    let table = perf.table_text();
    assert!(table.contains("stage"), "table lists stages:\n{table}");
    let json = perf.chrome_trace_json();
    assert!(json.contains("traceEvents"));
}
