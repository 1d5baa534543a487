//! Timed passes over a workload's cells, and the checks on their outputs.
//!
//! A pass runs every cell of the workload once. Each cell is timed from
//! outside through spans around the calls into the simulator's public
//! entry points; nothing inside the simulator is instrumented.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ndp_common::SystemConfig;
use ndp_compiler::{compile, CompiledKernel, CompilerConfig};
use ndp_core::experiments::{run_matrix, DEFAULT_MAX_CYCLES};
use ndp_core::{RunResult, System};
use ndp_workloads::{Scale, Workload};
use serde::Serialize;

use crate::expected::{key, Digest, Expected};
use crate::host;
use crate::layers::StageTable;
use crate::spans::Spans;
use crate::spec::{Kind, Spec, CKPT_EVERY};
use crate::stats::median;

/// Set-up samples of every cell taken before each pass. Spreading them
/// over the run keeps one burst of host noise from setting their median.
const SETUP_REPS_PER_PASS: usize = 3;

/// Span names of the calls that simulate.
pub const SIM_SPANS: [&str; 2] = ["core.system.run", "core.system.run_until"];

/// How a pass drives its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Mode {
    /// Build, compile, construct, `run` to completion.
    Plain,
    /// As `Plain`, with a snapshot + restore every `CKPT_EVERY` cycles,
    /// continuing on the restored `System`.
    Ckpt,
    /// All cells at once through `experiments::run_matrix`.
    Matrix,
}

/// Host time and simulated work of one cell in one pass. A matrix pass
/// has a single entry: its cells run concurrently and are timed together.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CellTime {
    pub wall_s: f64,
    /// Host seconds spent simulating: the `run`/`run_until` calls, or for
    /// a matrix every worker's share of its makespan.
    pub sim_s: f64,
    pub cycles: u64,
    /// GPU plus NSU warp instructions.
    pub instrs: u64,
}

/// One pass's timings.
#[derive(Debug, Clone, Serialize)]
pub struct Pass {
    pub id: u32,
    pub traced: bool,
    pub mode: Mode,
    pub wall_s: f64,
    pub cells: Vec<CellTime>,
    /// Run-queue wait summed over the process's threads (traced only).
    pub runq_wait_s: f64,
}

/// Counts cells attempted and failed, and says why each failure failed.
pub struct Checker<'a> {
    expected: &'a Expected,
    /// `seed0`, `seed1` or `smoke` when `expected` records this run.
    set: Option<String>,
    workload: &'static str,
    /// The first digest of every cell: later passes must reproduce it, and
    /// for `ckpt-dyn` it is the uninterrupted run a restored run must match.
    first: BTreeMap<String, Digest>,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> Checker<'a> {
    pub fn new(expected: &'a Expected, set: Option<String>, workload: &'static str) -> Self {
        Checker {
            expected,
            set,
            workload,
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn first(&self, cell: &str) -> Option<&Digest> {
        self.first.get(cell)
    }

    /// The first digest of every cell, keyed by `<config>/<kernel>`.
    pub fn digests(&self) -> &BTreeMap<String, Digest> {
        &self.first
    }

    /// Judge one cell's outcome; returns whether it passed.
    pub fn record(&mut self, cell: &str, outcome: &Result<RunResult, String>) -> bool {
        self.attempted += 1;
        let problem = match outcome {
            Err(e) => Some(e.clone()),
            Ok(r) if r.timed_out => Some("hit the simulated-cycle cap".to_string()),
            Ok(r) => {
                let got = Digest::of(r);
                let want = self.first.entry(cell.to_string()).or_insert(got);
                let recorded = self
                    .set
                    .as_ref()
                    .and_then(|set| self.expected.check(&key(set, self.workload, cell), &got));
                if *want != got {
                    Some(format!(
                        "digest {got:?} differs from the cell's first (uninterrupted) run {want:?}"
                    ))
                } else if recorded == Some(false) {
                    Some(format!("digest {got:?} differs from expected.json"))
                } else {
                    None
                }
            }
        };
        if let Some(p) = &problem {
            self.failed += 1;
            eprintln!("FAIL {} {cell}: {p}", self.workload);
        }
        problem.is_none()
    }
}

/// Everything one benchmark process measures about one workload.
pub struct Runner<'a> {
    pub spec: &'a Spec,
    pub spans: Spans,
    pub check: Checker<'a>,
    pub passes: Vec<Pass>,
    /// Set-up samples per cell: seconds of the whole sequence
    /// (`bench.setup`) and of each step in it, keyed by span name.
    pub setup: Vec<BTreeMap<&'static str, Vec<f64>>>,
    /// Stage tables of the traced, uninterrupted runs (a restored `System`
    /// starts a fresh table, so checkpointed runs are left out).
    pub stages: StageTable,
    /// The profiler's own wall time over the runs merged into `stages`.
    pub stage_run_ns: u64,
    /// Passes whose runs were merged into `stages`.
    pub stage_passes: u32,
    /// Size of every checkpoint image taken.
    pub images: Vec<u64>,
    /// Results of the first pass, for the simulated counts.
    pub results: Vec<RunResult>,
    /// Threads simulating at once.
    pub workers: usize,
}

impl<'a> Runner<'a> {
    pub fn new(spec: &'a Spec, check: Checker<'a>) -> Self {
        let cells = spec.cells().count();
        Runner {
            spec,
            spans: Spans::new(),
            check,
            passes: Vec::new(),
            setup: vec![BTreeMap::new(); cells],
            stages: StageTable::default(),
            stage_run_ns: 0,
            stage_passes: 0,
            images: Vec::new(),
            results: Vec::new(),
            workers: match spec.kind {
                // `run_matrix` sizes its pool the same way.
                Kind::SweepFig9 => host::nproc().min(cells),
                _ => 1,
            },
        }
    }

    /// The mode of the passes that are measured.
    pub fn measured_mode(&self) -> Mode {
        match self.spec.kind {
            Kind::SweepFig9 => Mode::Matrix,
            Kind::CkptDyn => Mode::Ckpt,
            Kind::GpuOnly | Kind::NdpNaive => Mode::Plain,
        }
    }

    /// Passes until the next one would end after `seconds` (at least one;
    /// with `traced`, at least one untraced/traced pair, the two
    /// alternating so the tracing overhead is measured on neighbours).
    pub fn run(&mut self, seconds: f64, traced: bool) {
        let start = Instant::now();
        if self.spec.kind == Kind::CkptDyn {
            // The uninterrupted reference every restored run must match.
            self.sample_setup(traced);
            self.pass(Mode::Plain, traced);
        }
        let mode = self.measured_mode();
        let t0 = Instant::now();
        let mut n = 0u32;
        loop {
            self.sample_setup(traced);
            self.pass(mode, traced && n % 2 == 1);
            n += 1;
            let per_pass = t0.elapsed() / n;
            if (!traced || n >= 2) && start.elapsed() + per_pass > Duration::from_secs_f64(seconds)
            {
                break;
            }
        }
    }

    /// `SETUP_REPS_PER_PASS` build → compile → construct samples of every
    /// cell, recorded as pass 0. The traced run also times the partition
    /// verifier on its own (construction runs it again), and reports no
    /// `setup_s`.
    fn sample_setup(&mut self, verify: bool) {
        let spec = self.spec;
        self.spans.set_pass(0);
        for _ in 0..SETUP_REPS_PER_PASS {
            for (i, (c, k)) in spec.cells().enumerate() {
                let (w, scale) = spec.kernels[k];
                let id = self.spans.enter("bench.setup");
                let sys = build(&mut self.spans, w, scale, &spec.configs[c].1, verify);
                self.spans.exit();
                // Tearing the machine down is not set-up.
                drop(sys);
                // The sample's span and, after it, its steps.
                for s in &self.spans.all()[id..] {
                    let secs = s.dur_ns() as f64 / 1e9;
                    self.setup[i].entry(s.name).or_default().push(secs);
                }
            }
        }
    }

    /// Sum over cells of each cell's median time in set-up step `step`
    /// (`bench.setup` for the whole sequence).
    pub fn setup_s(&self, step: &str) -> f64 {
        self.setup
            .iter()
            .map(|cell| cell.get(step).map_or(0.0, |s| median(s)))
            .sum()
    }

    /// Run every cell once in `mode` and judge the outputs.
    pub fn pass(&mut self, mode: Mode, traced: bool) {
        let id = self.passes.len() as u32 + 1;
        self.spans.set_pass(id);
        if traced {
            // Read by every `System` built during the pass: it arms the
            // stage table. It is the only `NDP_*` variable the benchmark
            // lets through, and only here.
            std::env::set_var("NDP_PERF", "1");
        }
        self.spans.enter("bench.pass");
        let (outcomes, runq_ns) = with_runq(traced, || match mode {
            Mode::Matrix => self.matrix_cells(),
            Mode::Plain | Mode::Ckpt => self.cells(mode, traced),
        });
        let wall_s = self.spans.exit();
        std::env::remove_var("NDP_PERF");

        let mut cells: Vec<CellTime> = Vec::new();
        let mut results = Vec::new();
        for (cell, span, outcome) in outcomes {
            if let Some(span) = span {
                cells.push(self.cell_time(span));
            }
            if self.check.record(&cell, &outcome) {
                let r = outcome.expect("recorded as passed");
                let t = cells.last_mut().expect("every pass times a span first");
                t.cycles += r.cycles;
                t.instrs += r.issue.issued + r.nsu_instrs;
                if traced && mode != Mode::Ckpt {
                    if let Some(p) = &r.perf {
                        self.stages.merge(&p.stages, &p.sm_ready_occupancy);
                        self.stage_run_ns += p.wall_ns;
                    }
                }
                results.push(r);
            }
        }
        if traced && mode != Mode::Ckpt {
            self.stage_passes += 1;
        }
        if self.results.is_empty() {
            self.results = results;
        }
        self.passes.push(Pass {
            id,
            traced,
            mode,
            wall_s,
            cells,
            runq_wait_s: runq_ns as f64 / 1e9,
        });
    }

    /// Wall time of span `span` and the simulating time inside it.
    fn cell_time(&self, span: usize) -> CellTime {
        let all = self.spans.all();
        let wall_s = all[span].dur_ns() as f64 / 1e9;
        let sim_s = if all[span].name == "core.experiments.run_matrix" {
            self.workers as f64 * wall_s
        } else {
            all.iter()
                .filter(|s| s.parent == Some(span) && SIM_SPANS.contains(&s.name))
                .map(|s| s.dur_ns() as f64 / 1e9)
                .sum()
        };
        CellTime {
            wall_s,
            sim_s,
            ..CellTime::default()
        }
    }

    /// One pass of `Plain` or `Ckpt` cells, one after another: every
    /// cell's name, its span, and its outcome.
    fn cells(&mut self, mode: Mode, traced: bool) -> Vec<CellOutcome> {
        let spec = self.spec;
        let mut out = Vec::new();
        for (c, k) in spec.cells() {
            let (name, cfg) = &spec.configs[c];
            let (w, scale) = spec.kernels[k];
            let cell = format!("{name}/{}", w.name());
            let reference = self.check.first(&cell).map(|d| d.cycles);
            let depth = self.spans.depth();
            let span = self.spans.enter("bench.cell");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.cell(w, scale, cfg, mode, traced, reference)
            }))
            .unwrap_or_else(|p| Err(panic_text(p)));
            self.spans.close_to(depth);
            out.push((cell, Some(span), outcome));
        }
        out
    }

    fn cell(
        &mut self,
        w: Workload,
        scale: Scale,
        cfg: &SystemConfig,
        mode: Mode,
        traced: bool,
        reference_cycles: Option<u64>,
    ) -> Result<RunResult, String> {
        let sp = &mut self.spans;
        let (mut sys, kernel) = build(sp, w, scale, cfg, traced)?;
        if mode == Mode::Ckpt {
            let end = reference_cycles.ok_or("no uninterrupted reference run to compare with")?;
            // `run_until` runs past completion, so the round trips stop
            // short of the cycle the uninterrupted run completed at.
            let mut target = CKPT_EVERY;
            while target < end {
                sp.time("core.system.run_until", || sys.run_until(target))
                    .map_err(|e| e.to_string())?;
                let image = sp.time("core.checkpoint.save", || sys.snapshot());
                self.images.push(image.len() as u64);
                sys = sp
                    .time("core.checkpoint.restore", || {
                        System::try_restore(cfg.clone(), Arc::clone(&kernel), &image)
                    })
                    .map_err(|e| e.to_string())?;
                if sys.cycle() != target {
                    return Err(format!(
                        "restored at cycle {}, saved at {target}",
                        sys.cycle()
                    ));
                }
                target += CKPT_EVERY;
            }
        }
        sp.time("core.system.run", || sys.run(DEFAULT_MAX_CYCLES))
            .map_err(|e| e.to_string())
    }

    /// One pass of the whole matrix through `run_matrix`'s worker pool.
    /// Only the first cell carries the matrix's span.
    fn matrix_cells(&mut self) -> Vec<CellOutcome> {
        let spec = self.spec;
        let kernels: Vec<Workload> = spec.kernels.iter().map(|(w, _)| *w).collect();
        let scale = spec.kernels[0].1;
        let span = self.spans.enter("core.experiments.run_matrix");
        let m = catch_unwind(|| run_matrix(&spec.configs, &kernels, &scale, DEFAULT_MAX_CYCLES));
        self.spans.exit();
        let m = m.map_err(panic_text);
        spec.cells()
            .enumerate()
            .map(|(i, (c, k))| {
                let cell = format!("{}/{}", spec.configs[c].0, kernels[k].name());
                let outcome = match &m {
                    Ok(m) => Ok(m.results[c][k].clone()),
                    Err(why) => Err(why.clone()),
                };
                (cell, (i == 0).then_some(span), outcome)
            })
            .collect()
    }
}

/// A cell's name, the span that times it (if it has its own), and what
/// it returned.
type CellOutcome = (String, Option<usize>, Result<RunResult, String>);

/// Build → compile → (verify) → construct one cell's machine, each step a
/// span. The explicit verify is traced only: construction verifies too,
/// and the untraced set-up must time exactly what users pay.
fn build(
    sp: &mut Spans,
    w: Workload,
    scale: Scale,
    cfg: &SystemConfig,
    verify: bool,
) -> Result<(System, Arc<CompiledKernel>), String> {
    let program = sp
        .time("workloads.build", || w.try_build(&scale))
        .map_err(|e| e.to_string())?;
    let kernel = Arc::new(sp.time("compiler.compile", || {
        compile(&program, &CompilerConfig::default())
    }));
    if verify {
        let diags = sp.time("isa.verify", || {
            ndp_isa::verify_blocks(&kernel.program, &kernel.blocks)
        });
        if let Some(d) = diags.first() {
            return Err(format!("offload partition rejected: {}", d.detail));
        }
    }
    let sys = sp
        .time("core.system.construct", || {
            System::try_with_kernel(cfg.clone(), Arc::clone(&kernel))
        })
        .map_err(|e| e.to_string())?;
    Ok((sys, kernel))
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    format!("panicked: {msg}")
}

/// Run `f`; with `on`, also return the run-queue wait its threads
/// accumulated. A sampler thread reads `/proc/self/task/*/schedstat`
/// every 20 ms, because pool workers exit before `f` returns.
fn with_runq<T>(on: bool, f: impl FnOnce() -> T) -> (T, u64) {
    if !on {
        return (f(), 0);
    }
    let base: BTreeMap<u64, u64> = host::runq_wait_ns().into_iter().collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut last = base.clone();
            loop {
                last.extend(host::runq_wait_ns());
                if stop.load(Ordering::SeqCst) {
                    return last;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let out = f();
        stop.store(true, Ordering::SeqCst);
        let last = sampler.join().expect("schedstat sampler does not panic");
        let wait = last
            .iter()
            .map(|(tid, ns)| ns.saturating_sub(base.get(tid).copied().unwrap_or(0)))
            .sum();
        (out, wait)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, cycles: u64) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            cycles,
            ..Default::default()
        }
    }

    #[test]
    fn mutated_expected_digest_fails_the_cell() {
        let r = result("VADD", 500);
        let mut e = Expected::default();
        let k = key("seed0", "gpu-only", "Baseline/VADD");
        e.cells.insert(k.clone(), Digest::of(&r));
        let mut ok = Checker::new(&e, Some("seed0".into()), "gpu-only");
        assert!(ok.record("Baseline/VADD", &Ok(r.clone())));
        assert_eq!((ok.attempted, ok.failed), (1, 0));

        e.cells.get_mut(&k).unwrap().cycles += 1;
        let mut bad = Checker::new(&e, Some("seed0".into()), "gpu-only");
        assert!(!bad.record("Baseline/VADD", &Ok(r)));
        assert_eq!((bad.attempted, bad.failed), (1, 1));
    }

    #[test]
    fn divergence_errors_and_timeouts_fail() {
        let e = Expected::default();
        let mut c = Checker::new(&e, None, "ckpt-dyn");
        assert!(c.record("X/VADD", &Ok(result("VADD", 500))));
        // A restored run that lands elsewhere than the uninterrupted one.
        assert!(!c.record("X/VADD", &Ok(result("VADD", 501))));
        assert!(!c.record("X/BFS", &Err("credit leak".into())));
        let mut t = result("BFS", 9);
        t.timed_out = true;
        assert!(!c.record("X/BFS", &Ok(t)));
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn runq_sampler_joins_and_reports() {
        let (v, _wait) = with_runq(true, || 7);
        assert_eq!(v, 7);
        assert_eq!(with_runq(false, || 1), (1, 0));
    }
}
