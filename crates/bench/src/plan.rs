//! One experiment plan for the figure suite. Every figure declares its
//! cells (a workload under a `SystemConfig`) on one [`Plan`]; the plan
//! gives every cell the same Algorithm 1 epoch, simulates each distinct
//! cell once on `run_cells`' pool, and hands each figure its results.

use std::collections::HashMap;
use std::fmt;

use ndp_common::SystemConfig;
use ndp_core::checkpoint::config_fingerprint;
use ndp_core::experiments::{run_cells, Matrix, DEFAULT_MAX_CYCLES};
use ndp_core::RunResult;
use ndp_workloads::{Scale, Workload, WORKLOADS};

use crate::figures::Figure;

/// Renders a figure's text, after its heading, from the results of the
/// plan's cells.
pub(crate) type Render = Box<dyn FnOnce(&[RunResult], &mut String) -> fmt::Result>;

/// A declared cell: the index of its result.
pub(crate) type Cell = usize;

/// Every workload under each of a list of configurations, config-major.
pub(crate) struct Grid {
    configs: Vec<String>,
    cells: Vec<Cell>,
}

impl Grid {
    /// The grid's results as a matrix.
    pub(crate) fn matrix(&self, results: &[RunResult]) -> Matrix {
        let rows = self.cells.chunks(WORKLOADS.len());
        Matrix {
            configs: self.configs.clone(),
            workloads: WORKLOADS.to_vec(),
            results: rows
                .map(|row| row.iter().map(|&c| results[c].clone()).collect())
                .collect(),
        }
    }
}

/// The cells of a set of figures at one scale and one epoch.
pub struct Plan {
    scale: Scale,
    /// The Algorithm 1 epoch every cell starts from.
    pub(crate) epoch: u64,
    /// The safety cycle cap of every cell.
    pub(crate) max_cycles: u64,
    /// Distinct cells, in the order they were first declared.
    cells: Vec<(Workload, SystemConfig)>,
    index: HashMap<(Workload, u64), Cell>,
    declared: usize,
}

impl Plan {
    /// An empty plan whose cells run at `scale` with an Algorithm 1 epoch
    /// of `epoch` cycles.
    pub fn new(scale: Scale, epoch: u64) -> Plan {
        Plan {
            scale,
            epoch,
            max_cycles: DEFAULT_MAX_CYCLES,
            cells: Vec::new(),
            index: HashMap::new(),
            declared: 0,
        }
    }

    /// Declare `w` under `preset` with the plan's epoch.
    pub(crate) fn cell(&mut self, w: Workload, preset: SystemConfig) -> Cell {
        self.cell_with(w, preset, |_| {})
    }

    /// Declare `w` under `preset` with the plan's epoch, then `edit`. A
    /// cell that was declared before is not added again: both declarations
    /// get the same result.
    pub(crate) fn cell_with(
        &mut self,
        w: Workload,
        preset: SystemConfig,
        edit: impl FnOnce(&mut SystemConfig),
    ) -> Cell {
        let mut cfg = preset;
        cfg.hill_climb.epoch_cycles = self.epoch;
        edit(&mut cfg);
        self.declared += 1;
        let next = self.cells.len();
        let cell = *self
            .index
            .entry((w, config_fingerprint(&cfg)))
            .or_insert(next);
        if cell == next {
            self.cells.push((w, cfg));
        }
        cell
    }

    /// Declare every workload under each config, config-major. Each
    /// config gets the plan's epoch; a figure that sets its own epoch
    /// declares those cells with [`Plan::cell_with`].
    pub(crate) fn grid(&mut self, configs: &[(&str, SystemConfig)]) -> Grid {
        Grid {
            configs: configs.iter().map(|(n, _)| n.to_string()).collect(),
            cells: (configs.iter())
                .flat_map(|(_, c)| WORKLOADS.map(|w| self.cell(w, c.clone())))
                .collect(),
        }
    }

    /// Declare `figures`, simulate each distinct cell once, and render
    /// every figure.
    pub fn run(mut self, figures: &[&'static Figure]) -> Outcome {
        let renders: Vec<Render> = figures.iter().map(|f| (f.declare)(&mut self)).collect();
        let results = run_cells(self.cells.clone(), &self.scale, self.max_cycles);
        let timed_out = (self.cells.iter().zip(&results))
            .filter(|(_, r)| r.timed_out)
            .map(|((w, cfg), r)| {
                let fp = config_fingerprint(cfg);
                format!(
                    "{} under {} (config {fp:016x}) ran {} cycles",
                    w.name(),
                    r.config,
                    r.cycles
                )
            })
            .collect();
        let texts = (figures.iter().zip(renders))
            .map(|(f, render)| {
                let mut text = f.heading.to_string();
                render(&results, &mut text).expect("writing to a String cannot fail");
                (*f, text)
            })
            .collect();
        Outcome {
            declared: self.declared,
            simulated: self.cells.len(),
            texts,
            timed_out,
        }
    }
}

/// What a plan's run produced.
pub struct Outcome {
    /// Cells the figures declared, counting repeats.
    pub declared: usize,
    /// Distinct cells, each simulated once.
    pub simulated: usize,
    /// Every figure with its text, in the order they were given.
    pub texts: Vec<(&'static Figure, String)>,
    timed_out: Vec<String>,
}

impl Outcome {
    /// Every text after a line `==> NAME <==`.
    pub fn listing(&self) -> String {
        let listed = self
            .texts
            .iter()
            .map(|(f, text)| format!("==> {} <==\n{text}", f.name));
        listed.collect()
    }

    /// The texts as the sections of `REPORT.md`, titled from the registry.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "# Reproduction results\n\nGenerated by `figures --out` together with \
             the per-figure files in this directory.\n",
        );
        for (f, text) in &self.texts {
            out += &format!("\n## {}\n\n```text\n{}\n```\n", f.title, text.trim_end());
        }
        out
    }

    /// `Err` naming every cell that hit the safety cycle cap: figures
    /// derived from a truncated run are invalid.
    pub fn check(&self) -> Result<(), String> {
        if self.timed_out.is_empty() {
            return Ok(());
        }
        let (n, cells) = (self.timed_out.len(), self.timed_out.join("\n  "));
        Err(format!(
            "{n} cell(s) timed out at the safety cycle cap:\n  {cells}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::select;
    use ndp_common::config::OffloadPolicy;
    use std::collections::BTreeSet;

    const SMALL: Scale = Scale {
        warps: 32,
        iters: 1,
    };

    /// A plan at `epoch` with the named figures declared, or all of them
    /// when `names` is empty.
    fn declared(epoch: u64, names: &[&str]) -> Plan {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let mut plan = Plan::new(SMALL, epoch);
        for f in select(&names).expect("registered figures") {
            let _render = (f.declare)(&mut plan);
        }
        plan
    }

    #[test]
    fn each_distinct_cell_is_declared_once() {
        let plan = declared(2_000, &[]);
        assert_eq!((plan.declared, plan.cells.len()), (313, 152));
    }

    #[test]
    fn fig8_adds_no_cell_after_fig7() {
        assert_eq!(declared(2_000, &["fig7"]).cells.len(), 30);
        let plan = declared(2_000, &["fig7", "fig8"]);
        assert_eq!((plan.declared, plan.cells.len()), (60, 30));
    }

    #[test]
    fn the_epoch_is_applied_before_a_figures_own_edits() {
        let epochs = |epoch| {
            let plan = declared(epoch, &["ablate"]);
            let e: BTreeSet<u64> = plan
                .cells
                .iter()
                .map(|(_, c)| c.hill_climb.epoch_cycles)
                .collect();
            (plan.declared, plan.cells.len(), Vec::from_iter(e))
        };
        // The sweep's middle cell is the plain NDP(Dyn) cell.
        assert_eq!(epochs(2_000), (27, 24, vec![500, 2_000, 8_000]));
        assert_eq!(epochs(30_000), (27, 24, vec![7_500, 30_000, 120_000]));
    }

    #[test]
    fn a_name_filter_declares_only_that_figures_cells() {
        let plan = declared(2_000, &["fig11"]);
        assert_eq!(plan.cells.len(), 10);
        let dyn_cache = |c: &SystemConfig| c.offload == OffloadPolicy::DynamicCacheAware;
        assert!(plan.cells.iter().all(|(_, c)| dyn_cache(c)));
        let err = select(&["fig11".into(), "fig12".into()]).err();
        let err = err.expect("fig12 is not a figure");
        assert!(err.contains("\"fig12\"; one of: table1, table2"), "{err}");
    }

    #[test]
    fn a_timed_out_cell_fails_the_run_and_is_named() {
        let figures = select(&["bicg_fine".to_string()]).expect("registered");
        let mut plan = Plan::new(SMALL, 30_000);
        plan.max_cycles = 200;
        let out = plan.run(&figures);
        assert_eq!(out.simulated, 7);
        let err = out.check().expect_err("every cell hit a 200-cycle cap");
        assert!(err.starts_with("7 cell(s) timed out"), "{err}");
        let fp = config_fingerprint(&SystemConfig::baseline());
        let named = format!("BICG under Never (config {fp:016x}) ran 200 cycles");
        assert!(err.contains(&named), "{err}");
        let clean = Plan::new(SMALL, 30_000).run(&figures);
        assert_eq!(clean.check(), Ok(()));
    }
}
