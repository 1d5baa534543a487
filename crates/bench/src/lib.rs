//! Benchmark & figure-regeneration harness.
//!
//! Binaries (one per paper table/figure — see DESIGN.md §4):
//! `table1`, `table2`, `fig5`, `fig7`, `fig8`, `fig9`, `fig10`, `fig11`,
//! `inval_traffic`, `bigger_gpu`, `nsu_freq`, `overhead`, plus `calibrate`
//! (quick whole-matrix sanity sweep). Criterion micro-benchmarks live in
//! `benches/`.

#![forbid(unsafe_code)]

pub mod baseline;

use ndp_common::env::{self, EnvError};
use ndp_core::experiments::{run_matrix, Matrix, DEFAULT_MAX_CYCLES};
use ndp_core::result::RunResult;
use ndp_workloads::{Scale, Workload};

/// Where the harness reads its own variables from: the process
/// environment, or a fixed table in tests. (A run's own options are read by
/// `ndp_core::RunOptions::from_env`.)
type Lookup = fn(&str) -> Option<String>;

fn process_env(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

/// A harness variable's value, or `default` when unset. A malformed one
/// stops the binary: a misconfigured run must not proceed with defaults.
fn or_die<T>(parsed: Result<Option<T>, EnvError>, default: T) -> T {
    parsed.unwrap_or_else(|e| panic!("{e}")).unwrap_or(default)
}

/// Default evaluation scale for the harness binaries: `Scale::eval()`,
/// overridden by `NDP_WARPS` / `NDP_ITERS`.
pub fn harness_scale() -> Scale {
    scale_from(process_env)
}

/// The Algorithm 1 epoch length of harness runs: `NDP_EPOCH` cycles,
/// 30,000 by default, so that scaled-down runs still span enough epochs
/// for the hill climber to converge.
pub fn harness_epoch() -> u64 {
    epoch_from(process_env)
}

/// `NDP_STRICT_TIMEOUT=1`: a run that hits the safety cycle cap makes the
/// binary exit nonzero.
pub fn strict_timeouts() -> bool {
    strict_from(process_env)
}

fn epoch_from(get: Lookup) -> u64 {
    or_die(env::parse(get, "NDP_EPOCH"), 30_000)
}

fn strict_from(get: Lookup) -> bool {
    or_die(env::flag(get, "NDP_STRICT_TIMEOUT"), false)
}

fn scale_from(get: Lookup) -> Scale {
    let eval = Scale::eval();
    Scale {
        warps: or_die(env::parse(get, "NDP_WARPS"), eval.warps),
        iters: or_die(env::parse(get, "NDP_ITERS"), eval.iters),
    }
}

/// Run a config × workload matrix at the harness scale and epoch length
/// ([`harness_scale`], [`harness_epoch`]).
pub fn run(configs: &[(&str, ndp_common::SystemConfig)], workloads: &[Workload]) -> Matrix {
    let epoch = harness_epoch();
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
    if warn_timeouts(m) > 0 && strict_timeouts() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_variables_set_scale_epoch_and_strictness() {
        let unset: Lookup = |_| None;
        assert_eq!(scale_from(unset).warps, Scale::eval().warps);
        assert_eq!((epoch_from(unset), strict_from(unset)), (30_000, false));
        let set: Lookup = |k| {
            let v = [
                ("NDP_WARPS", "96"),
                ("NDP_ITERS", "2"),
                ("NDP_EPOCH", "5000"),
            ];
            v.iter().find(|v| v.0 == k).map(|v| v.1.to_string())
        };
        let s = scale_from(set);
        assert_eq!((s.warps, s.iters), (96, 2));
        assert_eq!(epoch_from(set), 5_000);
        assert!(strict_from(|_| Some("1".into())));
    }

    #[test]
    #[should_panic(expected = "NDP_WARPS")]
    fn malformed_harness_variable_is_fatal() {
        scale_from(|_| Some("96k".into()));
    }
}
