//! Throughput baseline for the core simulator (`BENCH_core.json`).
//!
//! A change to the core loop must keep two guarantees: the model's outputs
//! must not change (the golden determinism test pins that), and host
//! throughput must not regress (this module pins that). [`measure`] runs
//! a fixed workload set, records simulated-cycles-per-second plus the
//! per-stage idle fractions from the perf self-profile, and [`check`]
//! compares a fresh measurement against a committed baseline with a
//! tolerance band.
//!
//! The `bench_baseline` binary is the CLI for both directions:
//!
//! ```text
//! cargo run --release -p ndp-bench --bin bench_baseline -- --out BENCH_core.json
//! cargo run --release -p ndp-bench --bin bench_baseline -- --check BENCH_core.json
//! ```

use std::sync::Arc;
use std::time::Instant;

use ndp_common::obs::perf::StagePerf;
use ndp_common::SystemConfig;
use ndp_compiler::{compile, CompiledKernel, CompilerConfig};
use ndp_core::system::System;
use ndp_core::RunOptions;
use ndp_workloads::{Scale, Workload};
use serde::{Deserialize, Serialize};

/// Version stamp of the `BENCH_core.json` document. v2 added the
/// per-stage `skip_frac` column from the event-driven core; v3 added the
/// checkpoint cost columns (`ckpt_bytes`, `ckpt_save_ns`, `ckpt_restore_ns`).
pub const BENCH_SCHEMA_VERSION: u32 = 3;

/// One benchmark scenario: a configuration and a workload set at a fixed
/// scale, timed over `reps` repetitions (best rep wins, to shed scheduler
/// noise).
pub struct BenchSpec {
    pub name: &'static str,
    pub config_name: &'static str,
    pub workloads: &'static [Workload],
    pub scale: Scale,
    pub num_sms: usize,
    pub reps: u32,
}

impl BenchSpec {
    pub fn config(&self) -> SystemConfig {
        let mut cfg = match self.config_name {
            "ndp_dynamic_cache" => SystemConfig::ndp_dynamic_cache(),
            other => panic!("unknown bench config {other:?}"),
        };
        cfg.gpu.num_sms = self.num_sms;
        cfg
    }
}

/// The golden-test recipe: the `fig7_small` sweep's NDP column (8 SMs,
/// 64 warps × 4 iters over Vadd/Bfs/Bprop). Small enough for CI smoke.
pub fn fig7_small() -> BenchSpec {
    BenchSpec {
        name: "fig7_small",
        config_name: "ndp_dynamic_cache",
        workloads: &[Workload::Vadd, Workload::Bfs, Workload::Bprop],
        scale: Scale {
            warps: 64,
            iters: 4,
        },
        num_sms: 8,
        reps: 3,
    }
}

/// The same sweep at a heavier scale (16 SMs, 256 warps × 8 iters): long
/// enough that per-cycle overheads dominate setup costs, which is what the
/// cycle-skipping rework will move.
pub fn fig7_scale() -> BenchSpec {
    BenchSpec {
        name: "fig7_scale",
        config_name: "ndp_dynamic_cache",
        workloads: &[Workload::Vadd, Workload::Bfs, Workload::Bprop],
        scale: Scale {
            warps: 256,
            iters: 8,
        },
        num_sms: 16,
        reps: 2,
    }
}

/// Safety cap for baseline runs; mirrors the golden test's.
const MAX_CYCLES: u64 = 30_000_000;

fn kernel(spec: &BenchSpec, w: Workload) -> Arc<CompiledKernel> {
    Arc::new(compile(&w.build(&spec.scale), &CompilerConfig::default()))
}

/// A machine for one of `spec`'s workloads, run as the environment says
/// but with profiling set by `perf`, whatever `NDP_PERF` is.
fn system(spec: &BenchSpec, w: Workload, perf: bool) -> System {
    let opts = RunOptions {
        perf,
        ..RunOptions::from_env().unwrap_or_else(|e| panic!("{e}"))
    };
    System::build(spec.config(), kernel(spec, w), &opts).expect("builtin workload builds")
}

/// Run every workload of a spec once, uninstrumented, and return the total
/// simulated cycles. This is the timed body shared by [`measure`] and the
/// criterion `core` bench — keep it free of I/O and allocation beyond what
/// the simulation itself does.
pub fn run_once(spec: &BenchSpec) -> u64 {
    let mut cycles = 0u64;
    for &w in spec.workloads {
        // Profiling off: the throughput number must measure the
        // uninstrumented hot loop.
        let r = system(spec, w, false)
            .run(MAX_CYCLES)
            .expect("no protocol violation");
        assert!(!r.timed_out, "{}/{} timed out", spec.name, w.name());
        cycles += r.cycles;
    }
    cycles
}

/// Per-stage idle/wall attribution merged across a spec's workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageIdle {
    pub stage: String,
    /// Fraction of this stage's routing invocations that moved nothing.
    pub idle_frac: f64,
    /// Fraction of simulated cycles the quiescence layer proved this stage
    /// had no work and skipped it outright.
    pub skip_frac: f64,
    /// This stage's share of estimated host wall time.
    pub wall_frac: f64,
}

/// One measured scenario in the baseline document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    pub name: String,
    pub config: String,
    pub workloads: Vec<String>,
    pub warps: u32,
    pub iters: u32,
    pub reps: u32,
    /// Total simulated cycles of one rep — deterministic, so a mismatch
    /// against the baseline means the *model* changed, not the host.
    pub sim_cycles: u64,
    /// Best-rep wall time for the whole workload set.
    pub wall_ns: u64,
    /// `sim_cycles / wall_seconds` of the best rep.
    pub cycles_per_sec: f64,
    /// Size of one mid-run checkpoint image of the spec's first workload.
    pub ckpt_bytes: u64,
    /// Wall time to capture + seal that image (`System::snapshot`).
    pub ckpt_save_ns: u64,
    /// Wall time to verify + rebuild a `System` from it (`try_restore`).
    pub ckpt_restore_ns: u64,
    /// Per-stage idle and wall-time shares from one instrumented run.
    pub stage_idle: Vec<StageIdle>,
}

/// The committed baseline document (`BENCH_core.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    pub schema_version: u32,
    /// `git rev-parse --short=12 HEAD` at measurement time, or "unknown".
    pub git_rev: String,
    pub entries: Vec<BenchEntry>,
}

/// The current commit, for stamping baselines.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Merge per-stage reports from several runs: idle fractions weighted by
/// routing invocations, wall fractions by estimated stage wall time.
fn merge_stage_idle(reports: &[Vec<StagePerf>]) -> Vec<StageIdle> {
    let Some(first) = reports.first() else {
        return Vec::new();
    };
    let mut out: Vec<StageIdle> = Vec::with_capacity(first.len());
    let total_wall: u64 = reports
        .iter()
        .flat_map(|r| r.iter())
        .map(|s| s.est_wall_ns)
        .sum();
    for (i, s) in first.iter().enumerate() {
        let (mut idle, mut routed, mut wall) = (0u64, 0u64, 0u64);
        for r in reports {
            idle += r[i].idle;
            routed += r[i].routed;
            wall += r[i].est_wall_ns;
        }
        let (mut skipped, mut cycles) = (0u64, 0u64);
        for r in reports {
            skipped += r[i].skipped;
            cycles += r[i].invocations + r[i].gated + r[i].skipped;
        }
        out.push(StageIdle {
            stage: s.name.clone(),
            idle_frac: if routed == 0 {
                0.0
            } else {
                idle as f64 / routed as f64
            },
            skip_frac: if cycles == 0 {
                0.0
            } else {
                skipped as f64 / cycles as f64
            },
            wall_frac: if total_wall == 0 {
                0.0
            } else {
                wall as f64 / total_wall as f64
            },
        });
    }
    out
}

/// Measure one spec: best-of-`reps` uninstrumented wall time for the
/// throughput number, plus one profiled pass for the idle attribution
/// (counters are deterministic, so one pass suffices).
pub fn measure(spec: &BenchSpec) -> BenchEntry {
    let mut sim_cycles = 0u64;
    let mut best_ns = u64::MAX;
    for rep in 0..spec.reps.max(1) {
        let t0 = Instant::now();
        let cycles = run_once(spec);
        let ns = t0.elapsed().as_nanos() as u64;
        best_ns = best_ns.min(ns.max(1));
        if rep == 0 {
            sim_cycles = cycles;
        } else {
            assert_eq!(cycles, sim_cycles, "{}: nondeterministic rep", spec.name);
        }
    }

    let mut stage_reports = Vec::new();
    for &w in spec.workloads {
        let r = system(spec, w, true)
            .run(MAX_CYCLES)
            .expect("no protocol violation");
        stage_reports.push(r.perf.expect("profiling was enabled").stages);
    }

    // Checkpoint cost probe: snapshot the first workload mid-run and
    // restore the image, timing both directions. One sample per spec is
    // enough — the image size is deterministic and the save/restore cost
    // scales with machine shape, not with how long the run has gone.
    let (ckpt_bytes, ckpt_save_ns, ckpt_restore_ns) = {
        let w = spec.workloads[0];
        let kernel = kernel(spec, w);
        let mut sys = system(spec, w, false);
        sys.run_until(4_096).expect("no protocol violation");
        let t0 = Instant::now();
        let image = sys.snapshot();
        let save_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let restored =
            System::try_restore(spec.config(), kernel, &image).expect("own snapshot restores");
        let restore_ns = t1.elapsed().as_nanos() as u64;
        assert_eq!(restored.cycle(), sys.cycle(), "{}: resume cycle", spec.name);
        (image.len() as u64, save_ns, restore_ns)
    };

    BenchEntry {
        name: spec.name.to_string(),
        config: spec.config_name.to_string(),
        workloads: spec
            .workloads
            .iter()
            .map(|w| w.name().to_string())
            .collect(),
        warps: spec.scale.warps,
        iters: spec.scale.iters,
        reps: spec.reps,
        sim_cycles,
        wall_ns: best_ns,
        cycles_per_sec: sim_cycles as f64 / (best_ns as f64 / 1e9),
        ckpt_bytes,
        ckpt_save_ns,
        ckpt_restore_ns,
        stage_idle: merge_stage_idle(&stage_reports),
    }
}

/// Verdict for one baseline entry re-measured on the current tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntryCheck {
    pub name: String,
    pub baseline_cycles_per_sec: f64,
    pub current_cycles_per_sec: f64,
    /// `current / baseline` — below `1 - tolerance` is a regression.
    pub ratio: f64,
    /// Simulated cycle counts agree (they are deterministic; a mismatch
    /// means the model changed and the baseline must be re-blessed).
    pub sim_cycles_match: bool,
    pub ok: bool,
}

/// Outcome of comparing a fresh measurement against a committed baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckOutcome {
    pub schema_version: u32,
    pub tolerance: f64,
    pub baseline_git_rev: String,
    pub current_git_rev: String,
    /// The committed baseline carried no measurements yet (bootstrap
    /// document): nothing to gate against, so the check passes with a
    /// notice. Populate with `bench_baseline --out BENCH_core.json` on
    /// the reference machine and commit the result.
    pub bootstrap: bool,
    pub entries: Vec<EntryCheck>,
    pub ok: bool,
}

/// Compare `current` entries against their named counterparts in
/// `baseline`. Entries present only in the baseline are ignored (a check
/// may re-measure a subset); a current entry with no baseline counterpart
/// fails the check. An *empty* baseline is the bootstrap state: it gates
/// nothing and the check passes with `bootstrap` set.
pub fn check(baseline: &BenchBaseline, current: &BenchBaseline, tolerance: f64) -> CheckOutcome {
    if baseline.entries.is_empty() {
        return CheckOutcome {
            schema_version: BENCH_SCHEMA_VERSION,
            tolerance,
            baseline_git_rev: baseline.git_rev.clone(),
            current_git_rev: current.git_rev.clone(),
            bootstrap: true,
            entries: Vec::new(),
            ok: true,
        };
    }
    let mut entries = Vec::new();
    let mut all_ok = true;
    for cur in &current.entries {
        let base = baseline.entries.iter().find(|b| b.name == cur.name);
        let e = match base {
            None => {
                all_ok = false;
                EntryCheck {
                    name: cur.name.clone(),
                    baseline_cycles_per_sec: 0.0,
                    current_cycles_per_sec: cur.cycles_per_sec,
                    ratio: f64::INFINITY,
                    sim_cycles_match: false,
                    ok: false,
                }
            }
            Some(b) => {
                let ratio = cur.cycles_per_sec / b.cycles_per_sec;
                let sim_cycles_match = cur.sim_cycles == b.sim_cycles;
                let ok = sim_cycles_match && ratio >= 1.0 - tolerance;
                all_ok &= ok;
                EntryCheck {
                    name: cur.name.clone(),
                    baseline_cycles_per_sec: b.cycles_per_sec,
                    current_cycles_per_sec: cur.cycles_per_sec,
                    ratio,
                    sim_cycles_match,
                    ok,
                }
            }
        };
        entries.push(e);
    }
    all_ok &= !entries.is_empty();
    CheckOutcome {
        schema_version: BENCH_SCHEMA_VERSION,
        tolerance,
        baseline_git_rev: baseline.git_rev.clone(),
        current_git_rev: current.git_rev.clone(),
        bootstrap: false,
        entries,
        ok: all_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, cps: f64, sim: u64) -> BenchEntry {
        BenchEntry {
            name: name.to_string(),
            config: "ndp_dynamic_cache".to_string(),
            workloads: vec!["VADD".to_string()],
            warps: 64,
            iters: 4,
            reps: 3,
            sim_cycles: sim,
            wall_ns: 1_000_000,
            cycles_per_sec: cps,
            ckpt_bytes: 0,
            ckpt_save_ns: 0,
            ckpt_restore_ns: 0,
            stage_idle: Vec::new(),
        }
    }

    fn doc(entries: Vec<BenchEntry>) -> BenchBaseline {
        BenchBaseline {
            schema_version: BENCH_SCHEMA_VERSION,
            git_rev: "test".to_string(),
            entries,
        }
    }

    #[test]
    fn check_passes_within_tolerance() {
        let base = doc(vec![entry("a", 1000.0, 5000)]);
        let cur = doc(vec![entry("a", 900.0, 5000)]);
        let out = check(&base, &cur, 0.15);
        assert!(out.ok, "{out:?}");
        assert!(out.entries[0].sim_cycles_match);
    }

    #[test]
    fn check_fails_on_regression() {
        let base = doc(vec![entry("a", 1000.0, 5000)]);
        let cur = doc(vec![entry("a", 800.0, 5000)]);
        let out = check(&base, &cur, 0.15);
        assert!(!out.ok);
        assert!((out.entries[0].ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn check_fails_on_model_change() {
        // Same throughput, different simulated cycle count: the model
        // changed, so the committed baseline is stale.
        let base = doc(vec![entry("a", 1000.0, 5000)]);
        let cur = doc(vec![entry("a", 1000.0, 5001)]);
        let out = check(&base, &cur, 0.15);
        assert!(!out.ok);
        assert!(!out.entries[0].sim_cycles_match);
    }

    #[test]
    fn check_fails_on_unknown_entry_and_empty_current() {
        let base = doc(vec![entry("a", 1000.0, 5000)]);
        let cur = doc(vec![entry("new", 1000.0, 5000)]);
        assert!(!check(&base, &cur, 0.15).ok);
        assert!(
            !check(&base, &doc(vec![]), 0.15).ok,
            "empty check is not a pass"
        );
    }

    #[test]
    fn empty_baseline_is_bootstrap_pass() {
        // Nothing measured yet: the gate has nothing to hold against, and
        // must say so rather than fail every fresh checkout.
        let cur = doc(vec![entry("a", 1000.0, 5000)]);
        let out = check(&doc(vec![]), &cur, 0.15);
        assert!(out.ok, "{out:?}");
        assert!(out.bootstrap);
        assert!(out.entries.is_empty());
    }

    #[test]
    fn merge_weights_by_invocations_and_wall() {
        let a = vec![StagePerf {
            name: "edge:x".to_string(),
            invocations: 10,
            gated: 0,
            skipped: 10,
            idle: 4,
            moved: 6,
            routed: 10,
            est_wall_ns: 300,
            idle_frac: 0.4,
            skip_frac: 0.5,
            wall_frac: 1.0,
        }];
        let b = vec![StagePerf {
            name: "edge:x".to_string(),
            invocations: 30,
            gated: 0,
            skipped: 10,
            idle: 24,
            moved: 6,
            routed: 30,
            est_wall_ns: 100,
            idle_frac: 0.8,
            skip_frac: 0.25,
            wall_frac: 1.0,
        }];
        let merged = merge_stage_idle(&[a, b]);
        assert_eq!(merged.len(), 1);
        assert!((merged[0].idle_frac - 0.7).abs() < 1e-12, "{merged:?}");
        // 20 skipped cycles over (20 + 40) stage-cycles.
        assert!(
            (merged[0].skip_frac - 20.0 / 60.0).abs() < 1e-12,
            "{merged:?}"
        );
        assert!((merged[0].wall_frac - 1.0).abs() < 1e-12);
    }

    fn round_trip<T: Serialize + for<'a> Deserialize<'a>>(v: &T) -> T {
        serde_json::from_str(&serde_json::to_string_pretty(v).expect("serialize")).expect("parse")
    }

    #[test]
    fn documents_round_trip_through_serde_json() {
        let mut e = entry("fig7_small", 1_249_999.5, 1_234_567);
        e.ckpt_bytes = 262_144;
        e.stage_idle = vec![StageIdle {
            stage: "edge:sm_out".to_string(),
            idle_frac: 0.25,
            skip_frac: 0.5,
            wall_frac: 0.125,
        }];
        let d = doc(vec![e]);
        assert_eq!(round_trip(&d), d);
        let o = check(
            &d,
            &doc(vec![entry("fig7_small", 2_000_000.0, 1_234_567)]),
            0.15,
        );
        assert!(o.ok && !o.bootstrap, "{o:?}");
        assert_eq!(round_trip(&o), o);
    }

    #[test]
    fn malformed_input_is_an_error() {
        for raw in ["{ \"entries\": [", "not json", "{} trailing"] {
            assert!(serde_json::from_str::<BenchBaseline>(raw).is_err(), "{raw}");
        }
    }

    /// The committed trajectory record parses with the same reader
    /// `--check` uses.
    #[test]
    fn committed_baseline_parses() {
        let raw = include_str!("../../../BENCH_core.json");
        let d: BenchBaseline = serde_json::from_str(raw).expect("BENCH_core.json parses");
        assert_eq!(d.schema_version, BENCH_SCHEMA_VERSION);
        let small = d
            .entries
            .iter()
            .find(|e| e.name == "fig7_small")
            .expect("fig7_small entry");
        assert_eq!(small.sim_cycles, 9216);
        assert!(!small.stage_idle.is_empty());
    }
}
