//! `ndp_benchmark`: one workload per process, every metric by name.
//!
//! ```text
//! ndp_benchmark --workload W --seed S [--seconds N] [--trace [0|1]]
//! ndp_benchmark --smoke
//! ndp_benchmark --bless
//! ```
//!
//! The untraced run prints the end-to-end metrics; `--trace` (or
//! `--trace 1`) prints the per-layer metrics instead and writes
//! `spans.json`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exit status: 0 when
//! every output checked out, 1 when any cell failed, 2 on bad usage or a
//! set `NDP_*` variable. See README.md.

#![forbid(unsafe_code)]

mod expected;
mod host;
mod layers;
mod metrics;
mod run;
mod spans;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::process::exit;
use std::time::Instant;

use serde::Serialize;

use expected::{key, Expected};
use host::Manifest;
use metrics::{Metric, Metrics};
use run::{Checker, Mode, Runner};
use spec::{Kind, Size, Spec};

const USAGE: &str = "usage: ndp_benchmark --workload <gpu-only|ndp-naive|ckpt-dyn|sweep-fig9> \
                     --seed <n> [--seconds <n>] [--trace [0|1]]\n       \
                     ndp_benchmark --smoke | --bless";

/// Where the traced run writes its spans, relative to the current directory.
const SPANS_PATH: &str = "spans.json";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 20.0,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                a.workload = Some(Kind::parse(&w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => {
                a.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    a.trace = v == "1";
                }
            }
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_none() && !a.smoke && !a.bless {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// The simulator reads `NDP_*` variables when a `System` is built, so any
/// of them would change what is measured. Only `NDP_PERF` is tolerated,
/// and only with `--trace`, which arms it itself for the traced passes.
fn check_env(trace: bool) -> Result<(), String> {
    for (name, _) in std::env::vars_os() {
        let name = name.to_string_lossy();
        if name.starts_with("NDP_") && !(trace && name == "NDP_PERF") {
            return Err(format!(
                "{name} is set; the benchmark measures the default environment, unset it"
            ));
        }
    }
    Ok(())
}

/// The digest set `expected.json` records for `seed`, if any.
fn recorded_set(seed: u64) -> Option<String> {
    (seed <= 1).then(|| format!("seed{seed}"))
}

#[derive(Serialize)]
struct Outcome<'a> {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &'a BTreeMap<String, Metric>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2);
    });
    if let Err(e) = check_env(args.trace) {
        eprintln!("error: {e}");
        exit(2);
    }
    // Traced passes set it themselves; untraced ones must not see it.
    std::env::remove_var("NDP_PERF");
    if args.bless {
        bless();
    } else if args.smoke {
        exit(smoke());
    } else {
        exit(measure(&args));
    }
}

fn manifest(kind: Kind, seed: u64, workers: usize) -> Manifest {
    let (rev, dirty) = host::git_state();
    Manifest {
        rev,
        dirty,
        workload: kind.name().to_string(),
        seed,
        nproc: host::nproc(),
        workers,
        host: host::hostname(),
    }
}

fn measure(args: &Args) -> i32 {
    let kind = args.workload.expect("checked by parse_args");
    let spec = Spec::new(kind, Size::nominal(kind), args.seed);
    let expected = Expected::embedded();
    let set = recorded_set(args.seed);
    if set.is_none() {
        eprintln!(
            "note: expected.json records seeds 0 and 1 only; seed {} is checked for \
             determinism across passes and checkpoint equivalence",
            args.seed
        );
    }
    let mut runner = Runner::new(&spec, Checker::new(&expected, set, kind.name()));
    let manifest = manifest(kind, args.seed, runner.workers);
    println!(
        "manifest {}",
        serde_json::to_string(&manifest).expect("manifest serializes")
    );
    runner.run(args.seconds, args.trace);

    let mut correct = runner.check.failed == 0;
    let metrics = if args.trace {
        let m = metrics::per_layer(&runner);
        correct &= write_spans(&runner, &manifest, &m);
        m
    } else {
        metrics::end_to_end(&runner)
    };
    for p in &runner.passes {
        println!(
            "pass {:>2} {:?}{}: {:.3} s wall, {:.3} s simulating, {} cycles, {} instrs",
            p.id,
            p.mode,
            if p.traced { " traced" } else { "" },
            p.wall_s,
            p.cells.iter().map(|c| c.sim_s).sum::<f64>(),
            p.cells.iter().map(|c| c.cycles).sum::<u64>(),
            p.cells.iter().map(|c| c.instrs).sum::<u64>(),
        );
    }
    for (name, m) in &metrics {
        println!("{name:<34} {:>16.6} {}", m.value, m.unit);
    }
    let out = Outcome {
        correct,
        attempted: runner.check.attempted,
        failed: runner.check.failed,
        metrics: &metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&out).expect("outcome serializes")
    );
    if correct {
        0
    } else {
        1
    }
}

/// `spans.json`: every span with its self time, self time per span name
/// and pass, the per-cell self-time identity, and the merged stage table.
/// Returns whether every cell's self times add up to its span.
fn write_spans(r: &Runner, manifest: &Manifest, metrics: &Metrics) -> bool {
    #[derive(Serialize)]
    struct CellDoc {
        span: usize,
        outer_ns: u64,
        self_sum_ns: u64,
    }
    #[derive(Serialize)]
    struct StageDoc {
        layer: String,
        stage: ndp_common::obs::perf::StagePerf,
    }
    #[derive(Serialize)]
    struct Doc<'a> {
        manifest: &'a Manifest,
        passes: &'a [run::Pass],
        spans: &'a [spans::Span],
        /// Index-aligned with `spans`.
        self_ns: Vec<u64>,
        self_s: BTreeMap<String, BTreeMap<String, f64>>,
        cells: Vec<CellDoc>,
        stages: Vec<StageDoc>,
        metrics: &'a Metrics,
    }
    let all = r.spans.all();
    let cells: Vec<CellDoc> = ["bench.cell", "bench.pass"]
        .iter()
        .flat_map(|root| spans::subtree_sums(all, root))
        .map(|(span, outer_ns, self_sum_ns)| CellDoc {
            span,
            outer_ns,
            self_sum_ns,
        })
        .collect();
    let consistent = cells.iter().all(|c| c.outer_ns == c.self_sum_ns);
    if !consistent {
        eprintln!("FAIL spans: a cell's self times do not add up to its span");
    }
    let doc = Doc {
        manifest,
        passes: &r.passes,
        spans: all,
        self_ns: spans::self_times_ns(all),
        self_s: r
            .passes
            .iter()
            .map(|p| {
                let by_name = metrics::self_s_by_name(r, &[p.id]);
                (
                    format!("pass{}", p.id),
                    by_name
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                )
            })
            .collect(),
        cells,
        stages: r
            .stages
            .merged()
            .into_iter()
            .map(|stage| StageDoc {
                layer: layers::layer_of(&stage.name).to_string(),
                stage,
            })
            .collect(),
        metrics,
    };
    let text = serde_json::to_string_pretty(&doc).expect("spans serialize");
    if let Err(e) = std::fs::write(SPANS_PATH, text + "\n") {
        eprintln!("error: could not write {SPANS_PATH}: {e}");
        return false;
    }
    consistent
}

/// Every workload at the smoke size, one pass each, against the `smoke`
/// digests. Returns the exit status.
fn smoke() -> i32 {
    let expected = Expected::embedded();
    let mut failed = 0;
    for kind in Kind::ALL {
        let t0 = Instant::now();
        let spec = Spec::new(kind, Size::smoke(), 0);
        let mut runner = Runner::new(
            &spec,
            Checker::new(&expected, Some("smoke".into()), kind.name()),
        );
        runner.run(0.0, false);
        failed += runner.check.failed;
        println!(
            "smoke {:<10} {:>3} cells, {} failed, {:.2} s",
            kind.name(),
            runner.check.attempted,
            runner.check.failed,
            t0.elapsed().as_secs_f64()
        );
    }
    if failed == 0 {
        0
    } else {
        1
    }
}

/// Record the uninterrupted digest of every cell for seeds 0 and 1 and
/// for the smoke size, stamped with the tree they came from.
fn bless() {
    let (rev, dirty) = host::git_state();
    let none = Expected::default();
    let mut out = Expected {
        rev,
        dirty,
        cells: BTreeMap::new(),
    };
    let sets = [
        ("seed0", None, 0),
        ("seed1", None, 1),
        ("smoke", Some(Size::smoke()), 0),
    ];
    for (set, size, seed) in sets {
        for kind in Kind::ALL {
            let spec = Spec::new(kind, size.unwrap_or(Size::nominal(kind)), seed);
            let mut runner = Runner::new(&spec, Checker::new(&none, None, kind.name()));
            let mode = if kind == Kind::SweepFig9 {
                Mode::Matrix
            } else {
                Mode::Plain
            };
            runner.pass(mode, false);
            if runner.check.failed > 0 {
                eprintln!(
                    "error: {set}/{}: a cell failed; nothing written",
                    kind.name()
                );
                exit(1);
            }
            for (cell, d) in runner.check.digests() {
                out.cells.insert(key(set, kind.name(), cell), *d);
            }
            eprintln!("blessed {set}/{}", kind.name());
        }
    }
    if let Err(e) = out.write() {
        eprintln!("error: could not write {}: {e}", expected::PATH);
        exit(1);
    }
    println!("wrote {} digests to {}", out.cells.len(), expected::PATH);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload ckpt-dyn --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Kind::CkptDyn));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(
            !args("--workload gpu-only --seed 1 --trace 0")
                .unwrap()
                .trace
        );
        assert!(args("--trace --workload gpu-only").unwrap().trace);
        assert!(args("--workload gpu-only --trace").unwrap().trace);
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload gpu-only --seconds -1").is_err());
        assert!(args("--smoke").unwrap().smoke);
    }

    #[derive(serde::Deserialize)]
    struct Declared {
        name: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkFile {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    /// The metric names `BENCHMARK.json`, next to this package, declares.
    fn declared() -> (Vec<String>, Vec<String>) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let m: BenchmarkFile =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |v: Vec<Declared>| {
            let mut n: Vec<String> = v.into_iter().map(|d| d.name).collect();
            n.sort();
            n
        };
        (names(m.end_to_end), names(m.per_layer))
    }

    #[test]
    fn every_workload_reports_every_declared_metric() {
        let (e2e, layers) = declared();
        let none = Expected::default();
        for kind in Kind::ALL {
            let mut spec = Spec::new(kind, Size::smoke(), 0);
            spec.kernels.truncate(2);
            let mut untraced = Runner::new(&spec, Checker::new(&none, None, kind.name()));
            untraced.run(0.0, false);
            let mut traced = Runner::new(&spec, Checker::new(&none, None, kind.name()));
            traced.run(0.0, true);
            assert_eq!(
                untraced.check.failed + traced.check.failed,
                0,
                "{}",
                kind.name()
            );

            let m = metrics::end_to_end(&untraced);
            assert_eq!(
                m.keys().cloned().collect::<Vec<_>>(),
                e2e,
                "{}",
                kind.name()
            );
            assert!(m.values().all(|v| v.value > 0.0), "{}: {m:?}", kind.name());
            let m = metrics::per_layer(&traced);
            assert_eq!(
                m.keys().cloned().collect::<Vec<_>>(),
                layers,
                "{}",
                kind.name()
            );
            for name in [
                "core.system.run_s",
                "gpu.sm_s",
                "isa.verify_s",
                "core.system.construct_s",
            ] {
                assert!(m[name].value > 0.0, "{} {name}", kind.name());
            }
            assert_eq!(
                m["nsu.s"].value == 0.0,
                kind == Kind::GpuOnly,
                "{}",
                kind.name()
            );
            assert_eq!(
                m["core.checkpoint.samples"].value > 0.0,
                kind == Kind::CkptDyn,
                "{}",
                kind.name()
            );

            // Each cell's and pass's self times partition its span.
            let all = traced.spans.all();
            for root in ["bench.cell", "bench.pass"] {
                for (_, outer, sum) in spans::subtree_sums(all, root) {
                    assert_eq!(outer, sum, "{} {root}", kind.name());
                }
            }
        }
    }

    #[test]
    fn recorded_sets_are_seeds_zero_and_one() {
        assert_eq!(recorded_set(0).as_deref(), Some("seed0"));
        assert_eq!(recorded_set(1).as_deref(), Some("seed1"));
        assert_eq!(recorded_set(2), None);
    }
}
