//! `obs_report` — run one workload with the observability layer enabled and
//! export its transaction-latency / occupancy / protocol-event report.
//!
//! Usage: `obs_report [WORKLOAD] [CONFIG]`
//!
//! `WORKLOAD` is a Table-1 name (default `VADD`); `CONFIG` is one of the
//! Fig. 9 configuration names (default `NDP(Dyn)_Cache`). The run honours
//! the usual `NDP_WARPS` / `NDP_ITERS` / `NDP_EPOCH` scale variables.
//!
//! Outputs:
//!   - a latency/occupancy summary table on stdout,
//!   - a per-stage simulator-performance table on stdout (the perf
//!     self-profile is always enabled here; see DESIGN.md §11),
//!   - `obs_trace.json`  — Chrome trace-event JSON (load in Perfetto),
//!   - `obs_metrics.json` — flat metrics document for scripts,
//!   - `perf_trace.json` — the self-profile as a Perfetto lane.
//!
//! A run that hits the safety cycle cap exits 2 after writing them.

use std::sync::Arc;

use ndp_compiler::{compile, CompilerConfig};
use ndp_core::experiments::fig9_configs;
use ndp_core::system::System;
use ndp_core::RunOptions;
use ndp_workloads::{workload, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let w: Workload = match args.get(1) {
        Some(name) => workload(name).unwrap_or_else(|| {
            eprintln!("error: unknown workload {name:?}; Table-1 names: VADD, BFS, ...");
            std::process::exit(2);
        }),
        None => Workload::Vadd,
    };
    let cfg_name = args.get(2).map(String::as_str).unwrap_or("NDP(Dyn)_Cache");
    let mut cfg = fig9_configs()
        .into_iter()
        .find(|(n, _)| *n == cfg_name)
        .map(|(_, c)| c)
        .unwrap_or_else(|| {
            let names: Vec<&str> = fig9_configs().iter().map(|(n, _)| *n).collect();
            eprintln!("error: unknown config {cfg_name:?}; one of {names:?}");
            std::process::exit(2);
        });
    cfg.hill_climb.epoch_cycles = ndp_bench::harness_epoch();

    let program = w.build(&ndp_bench::harness_scale());
    let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
    // Observe and profile unconditionally: this binary exists to report,
    // and the strided timer keeps the profiling cost negligible.
    let opts = RunOptions {
        obs: true,
        perf: true,
        ..RunOptions::from_env().unwrap_or_else(|e| panic!("{e}"))
    };
    let r = System::build(cfg, kernel, &opts)
        .expect("builtin workload builds")
        .run(ndp_core::experiments::DEFAULT_MAX_CYCLES)
        .expect("no protocol violation");

    println!(
        "obs_report: {} / {} — {} cycles, {} offload blocks completed\n",
        w.name(),
        cfg_name,
        r.cycles,
        r.offloaded
    );
    let report = r.obs.as_ref().expect("observability was enabled");
    println!("{}", report.summary_text());

    let perf = r.perf.as_ref().expect("profiling was enabled");
    println!("{}", perf.table_text());

    let trace = serde_json::to_string(&report.chrome_trace());
    let metrics = serde_json::to_string_pretty(&report.metrics());
    let perf_trace = serde_json::to_string(&perf.chrome_trace());
    for (path, json) in [
        ("obs_trace.json", trace),
        ("obs_metrics.json", metrics),
        ("perf_trace.json", perf_trace),
    ] {
        std::fs::write(path, json.expect("documents serialize") + "\n")
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    println!(
        "wrote obs_trace.json and perf_trace.json (open in https://ui.perfetto.dev) \
         and obs_metrics.json"
    );

    if r.timed_out {
        eprintln!(
            "error: run timed out at the safety cycle cap ({} cycles); \
             the report covers a truncated run",
            r.cycles
        );
        std::process::exit(2);
    }
}
