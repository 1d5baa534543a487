//! Experiment drivers: run workload × configuration matrices in parallel
//! and extract each figure's series. The actual printing lives in the
//! `ndp-bench` harness binaries.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use ndp_common::config::SystemConfig;
use ndp_common::error::SimError;
use ndp_compiler::{compile, CompilerConfig};
use ndp_workloads::{Scale, Workload, WORKLOADS};

use crate::checkpoint;
use crate::options::RunOptions;
use crate::result::RunResult;
use crate::system::System;

/// Safety cap: no evaluation run should need more cycles than this.
pub const DEFAULT_MAX_CYCLES: u64 = 40_000_000;

/// Run one workload under one configuration, with the run options of the
/// process environment ([`RunOptions::from_env`]). Protocol violations
/// panic here: experiment matrices have no error channel per cell, and a
/// violated invariant means the simulator itself is broken.
pub fn run_workload(w: Workload, cfg: SystemConfig, scale: &Scale, max_cycles: u64) -> RunResult {
    let opts = RunOptions::from_env().unwrap_or_else(|e| panic!("{e}"));
    let kernel = Arc::new(compile(&w.build(scale), &CompilerConfig::default()));
    let fresh = |cfg, kernel| {
        System::build(cfg, kernel, &opts).unwrap_or_else(|e| panic!("{}: {e}", w.name()))
    };
    // A resume source continues an interrupted run from its checkpoint
    // instead of starting fresh; fingerprint checks guarantee the file
    // matches this exact (workload, config) cell.
    let sys = match checkpoint::resume_path(opts.resume.as_deref(), w.name(), &cfg) {
        Some(path) => {
            let restored = checkpoint::read(&path)
                .and_then(|bytes| System::restore(cfg.clone(), Arc::clone(&kernel), &bytes, &opts));
            match restored {
                Ok(sys) => sys,
                // A kernel-fingerprint mismatch means the snapshot was taken
                // at a different problem scale (same workload and config cell
                // name); that is a stale cell, not corruption — start fresh.
                Err(SimError::BadCheckpoint {
                    check: "kernel", ..
                }) => fresh(cfg, kernel),
                Err(e) => panic!("{}: resume from {}: {e}", w.name(), path.display()),
            }
        }
        None => fresh(cfg, kernel),
    };
    let mut r = sys
        .run(max_cycles)
        .unwrap_or_else(|e| panic!("{}/{:?}: {e}", w.name(), "experiment"));
    r.workload = w.name().to_string();
    r
}

/// A configuration × workload result matrix.
pub struct Matrix {
    pub configs: Vec<String>,
    pub workloads: Vec<Workload>,
    /// `results[config][workload]`.
    pub results: Vec<Vec<RunResult>>,
}

impl Matrix {
    pub fn config_index(&self, name: &str) -> Option<usize> {
        self.configs.iter().position(|c| c == name)
    }

    /// Speedups of `config` over `baseline`, per workload.
    pub fn speedups(&self, config: &str, baseline: &str) -> Vec<f64> {
        let c = self.config_index(config).expect("unknown config");
        let b = self.config_index(baseline).expect("unknown baseline");
        (0..self.workloads.len())
            .map(|w| self.results[c][w].speedup_over(&self.results[b][w]))
            .collect()
    }
}

/// Run the full matrix, parallelized over (config, workload) pairs with a
/// simple work-stealing pool (std threads only).
pub fn run_matrix(
    configs: &[(&str, SystemConfig)],
    workloads: &[Workload],
    scale: &Scale,
    max_cycles: u64,
) -> Matrix {
    // Refuse a bad environment once, here, rather than in every worker.
    if let Err(e) = RunOptions::from_env() {
        panic!("{e}");
    }
    let jobs: Mutex<VecDeque<(usize, usize)>> = Mutex::new(
        (0..configs.len())
            .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
            .collect(),
    );
    let results: Vec<Vec<Mutex<Option<RunResult>>>> = (0..configs.len())
        .map(|_| (0..workloads.len()).map(|_| Mutex::new(None)).collect())
        .collect();
    let nthreads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(configs.len() * workloads.len());
    std::thread::scope(|scope| {
        for _ in 0..nthreads {
            scope.spawn(|| loop {
                let job = jobs.lock().expect("pool lock").pop_front();
                let Some((c, w)) = job else { break };
                let r = run_workload(workloads[w], configs[c].1.clone(), scale, max_cycles);
                *results[c][w].lock().expect("slot lock") = Some(r);
            });
        }
    });
    Matrix {
        configs: configs.iter().map(|(n, _)| n.to_string()).collect(),
        workloads: workloads.to_vec(),
        results: results
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|m| m.into_inner().expect("lock").expect("job ran"))
                    .collect()
            })
            .collect(),
    }
}

/// The §6 configurations (Figs. 7 and 8).
pub fn fig7_configs() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("Baseline", SystemConfig::baseline()),
        ("Baseline_MoreCore", SystemConfig::baseline_more_core()),
        ("NaiveNDP", SystemConfig::naive_ndp()),
    ]
}

/// The §7 configurations (Fig. 9): static ratios, dynamic, dynamic+cache.
pub fn fig9_configs() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("Baseline", SystemConfig::baseline()),
        ("Baseline_MoreCore", SystemConfig::baseline_more_core()),
        ("NDP(0.2)", SystemConfig::ndp_static(0.2)),
        ("NDP(0.4)", SystemConfig::ndp_static(0.4)),
        ("NDP(0.6)", SystemConfig::ndp_static(0.6)),
        ("NDP(0.8)", SystemConfig::ndp_static(0.8)),
        ("NDP(1.0)", SystemConfig::ndp_static(1.0)),
        ("NDP(Dyn)", SystemConfig::ndp_dynamic()),
        ("NDP(Dyn)_Cache", SystemConfig::ndp_dynamic_cache()),
    ]
}

/// The Fig. 10 energy configurations.
pub fn fig10_configs() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("Baseline", SystemConfig::baseline()),
        ("Baseline_MoreCore", SystemConfig::baseline_more_core()),
        ("NDP(Dyn)", SystemConfig::ndp_dynamic()),
        ("NDP(Dyn)_Cache", SystemConfig::ndp_dynamic_cache()),
    ]
}

/// All ten workloads (Table 1 order).
pub fn all_workloads() -> Vec<Workload> {
    WORKLOADS.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_matrix_runs_in_parallel() {
        let mut base = SystemConfig::baseline();
        base.gpu.num_sms = 4;
        let mut ndp = SystemConfig::naive_ndp();
        ndp.gpu.num_sms = 4;
        let scale = Scale {
            warps: 32,
            iters: 2,
        };
        let configs = [("Baseline", base), ("NaiveNDP", ndp)];
        let workloads = [Workload::Vadd, Workload::Sp];
        let m = run_matrix(&configs, &workloads, &scale, 2_000_000);
        assert_eq!(m.results.len(), 2);
        assert_eq!(m.results[0].len(), 2);
        for (row, (name, cfg)) in m.results.iter().zip(&configs) {
            for (r, &w) in row.iter().zip(&workloads) {
                assert!(!r.timed_out, "{} timed out", r.workload);
                assert!(r.cycles > 0);
                // The worker pool is the simulator's only multi-threaded
                // path: a pooled cell must match the same cell run alone.
                let solo = run_workload(w, cfg.clone(), &scale, 2_000_000);
                assert_eq!(
                    format!("{r:#?}"),
                    format!("{solo:#?}"),
                    "{name}/{}: pooled cell diverged from a solo run",
                    w.name()
                );
            }
        }
        let sp = m.speedups("NaiveNDP", "Baseline");
        assert_eq!(sp.len(), 2);
        assert!(sp.iter().all(|s| *s > 0.0));
    }
}
