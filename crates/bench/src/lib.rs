//! Benchmark & figure-regeneration harness.
//!
//! Binaries (one per paper table/figure — see DESIGN.md §4):
//! `table1`, `table2`, `fig5`, `fig7`, `fig8`, `fig9`, `fig10`, `fig11`,
//! `inval_traffic`, `bigger_gpu`, `nsu_freq`, `overhead`, plus `calibrate`
//! (quick whole-matrix sanity sweep). Criterion micro-benchmarks live in
//! `benches/`.

#![forbid(unsafe_code)]

pub mod baseline;

use ndp_core::experiments::{run_matrix, Matrix, DEFAULT_MAX_CYCLES};
use ndp_core::result::RunResult;
use ndp_workloads::{Scale, Workload};

/// Default evaluation scale for the harness binaries. Override with
/// `NDP_WARPS` / `NDP_ITERS` environment variables.
pub fn harness_scale() -> Scale {
    use ndp_common::env::parse_or_die;
    Scale {
        warps: parse_or_die("NDP_WARPS").unwrap_or(Scale::eval().warps),
        iters: parse_or_die("NDP_ITERS").unwrap_or(Scale::eval().iters),
    }
}

/// Run a config × workload matrix at the harness scale. The Algorithm 1
/// epoch length follows `NDP_EPOCH` (cycles) so that scaled-down runs still
/// span enough epochs for the hill climber to converge.
pub fn run(configs: &[(&str, ndp_common::SystemConfig)], workloads: &[Workload]) -> Matrix {
    let epoch: u64 = ndp_common::env::parse_or_die("NDP_EPOCH").unwrap_or(30_000);
    let configs: Vec<(&str, ndp_common::SystemConfig)> = configs
        .iter()
        .map(|(n, c)| {
            let mut c = c.clone();
            c.hill_climb.epoch_cycles = epoch;
            (*n, c)
        })
        .collect();
    run_matrix(&configs, workloads, &harness_scale(), DEFAULT_MAX_CYCLES)
}

/// Print a speedup-vs-baseline table for a matrix (Fig. 7/9 format) with a
/// GMEAN column.
pub fn print_speedups(m: &Matrix, baseline: &str) {
    let mut headers: Vec<&str> = vec!["Workload"];
    for c in &m.configs {
        headers.push(c);
    }
    let mut rows = vec![];
    for (wi, w) in m.workloads.iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        let b = m.config_index(baseline).expect("baseline present");
        for ci in 0..m.configs.len() {
            row.push(format!(
                "{:.3}",
                m.results[b][wi].cycles as f64 / m.results[ci][wi].cycles as f64
            ));
        }
        rows.push(row);
    }
    // GMEAN row.
    let mut gm = vec!["GMEAN".to_string()];
    for ci in 0..m.configs.len() {
        let sp = m.speedups(&m.configs[ci], baseline);
        gm.push(match ndp_common::stats::geomean(&sp) {
            Some(g) => format!("{g:.3}"),
            None => "n/a".to_string(),
        });
    }
    rows.push(gm);
    println!("{}", ndp_core::table::render(&headers, &rows));
    for row in m.results.iter().flatten() {
        if row.timed_out {
            println!("WARNING: {} / {} timed out", row.config, row.workload);
        }
    }
}

/// Surface timed-out runs loudly on stderr (the in-table WARNING lines are
/// easy to miss in redirected output) and return how many there were.
pub fn warn_timeouts(m: &Matrix) -> usize {
    let mut n = 0;
    for row in m.results.iter().flatten() {
        if row.timed_out {
            eprintln!(
                "error: run timed out at the safety cycle cap: {} / {} ({} cycles) — \
                 figures derived from it are invalid",
                row.config, row.workload, row.cycles
            );
            n += 1;
        }
    }
    if n > 0 {
        eprintln!("error: {n} run(s) timed out; set NDP_STRICT_TIMEOUT=1 to make this fatal");
    }
    n
}

/// Warn about timeouts and, when `NDP_STRICT_TIMEOUT=1` is set, exit
/// nonzero so CI and scripts cannot silently consume truncated results.
pub fn enforce_timeouts(m: &Matrix) {
    let n = warn_timeouts(m);
    let strict = ndp_common::env::flag_or_die("NDP_STRICT_TIMEOUT").unwrap_or(false);
    if n > 0 && strict {
        std::process::exit(2);
    }
}

/// Dump the raw matrix as JSON next to the textual table (for EXPERIMENTS.md
/// bookkeeping and regression diffs).
pub fn dump_json(path: &str, m: &Matrix) {
    #[derive(serde::Serialize)]
    struct Row<'a> {
        config: &'a str,
        workload: &'a str,
        cycles: u64,
        gpu_link_bytes: u64,
        memnet_bytes: u64,
        nsu_instrs: u64,
        offload_fraction: f64,
    }
    let rows: Vec<Row> = m
        .configs
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| {
            m.workloads
                .iter()
                .enumerate()
                .map(move |(wi, w)| (ci, c, wi, w))
        })
        .map(|(ci, c, wi, w)| {
            let r: &RunResult = &m.results[ci][wi];
            Row {
                config: c,
                workload: w.name(),
                cycles: r.cycles,
                gpu_link_bytes: r.gpu_link_bytes,
                memnet_bytes: r.memnet_bytes,
                nsu_instrs: r.nsu_instrs,
                offload_fraction: r.offload_fraction(),
            }
        })
        .collect();
    // Fail loudly: a figure run whose JSON silently vanishes poisons every
    // downstream regression diff.
    let s = serde_json::to_string_pretty(&rows)
        .unwrap_or_else(|e| panic!("could not serialize {path}: {e}"));
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(1);
    }
}
