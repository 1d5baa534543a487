//! `bench_ab` — a same-host A/B of the benchmark (`ndp_benchmark/`).
//!
//! Usage: `bench_ab REV [--seconds S]`
//!
//! Builds REV's `ndp_benchmark` from `git archive REV`, then the working
//! tree's from a copy of its files (tracked, or untracked and not ignored),
//! both at one path in a temporary directory, and runs ten alternating
//! parent/change pairs of every workload in `BENCHMARK.json`, S seconds per
//! run (by default `BENCHMARK.json`'s `run_seconds`). Ten is the A/B
//! procedure's minimum: with fewer, "nine tenths of the pairs" is one or two
//! runs and the parent's quartiles are those of a handful of samples. Pair i
//! uses seed i mod 2, and the parent runs first when i is even. Only the
//! workloads and end-to-end metrics that both sides' `BENCHMARK.json` list
//! are compared; one that only one side lists is named `new` or `gone` and
//! not compared. For each compared workload and metric it prints both
//! medians with their quartiles, the change/parent ratio, the pairs the
//! change won, the parent's IQR/median and a verdict, from the metric's
//! direction and bound in the change's `BENCHMARK.json`:
//!
//! - `regressed`: the change's median is worse than the parent's by more
//!   than the bound, the change lost at least nine tenths of the pairs,
//!   and the medians differ by more than the parent's interquartile range;
//! - `unresolved`: worse by more than the bound, but not both of the others;
//! - `gain`: the change won at least nine tenths of the pairs and its
//!   median is better by more than the parent's interquartile range;
//! - `ok`: anything else.
//!
//! A tied pair counts for neither side. A run fails when it exits non-zero,
//! prints `"correct":false` or `failed > 0`, or its last line is not a
//! result. Exits 0 when no row regressed and every run succeeded, 1
//! otherwise, and 2 on bad usage, on a REV whose tree has no
//! `ndp_benchmark/` or `BENCHMARK.json`, or when a build fails.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use serde::Deserialize;

const USAGE: &str = "usage: bench_ab REV [--seconds S]";

/// Parent/change pairs per workload.
const PAIRS: usize = 10;

/// The parts of `BENCHMARK.json` the A/B reads.
#[derive(Deserialize)]
struct Benchmark {
    run_seconds: f64,
    workloads: Vec<Workload>,
    end_to_end: Vec<EndToEnd>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    better: String,
    bound: f64,
}

/// Parses the `BENCHMARK.json` at `path`, which errors name.
fn parse_benchmark(path: &str, text: &str) -> Result<Benchmark, String> {
    let b: Benchmark = serde_json::from_str(text).map_err(|e| format!("{path}: {e:?}"))?;
    let bad = |m: &&EndToEnd| m.better != "higher" && m.better != "lower";
    match b.end_to_end.iter().find(bad) {
        Some(m) => Err(format!("{path}: {} is better {:?}", m.name, m.better)),
        None => Ok(b),
    }
}

/// Narrows `change` to the workloads and end-to-end metrics `parent` also
/// lists, since the parent's benchmark can neither run nor report the others,
/// and returns a line for each name that only one side lists.
fn shared(change: &mut Benchmark, parent: &Benchmark) -> Vec<String> {
    let names = |b: &Benchmark| -> [Vec<String>; 2] {
        let workloads = b.workloads.iter().map(|w| w.name.clone());
        let metrics = b.end_to_end.iter().map(|m| m.name.clone());
        [workloads.collect(), metrics.collect()]
    };
    let (c, p) = (names(change), names(parent));
    let mut notes = vec![];
    for (kind, c, p) in [("workload", &c[0], &p[0]), ("metric", &c[1], &p[1])] {
        for (these, other, what) in [(c, p, "new"), (p, c, "gone")] {
            let only = these.iter().filter(|n| !other.contains(n));
            notes.extend(only.map(|n| format!("{kind} {n}: {what}, not compared")));
        }
    }
    change.workloads.retain(|w| p[0].contains(&w.name));
    change.end_to_end.retain(|m| p[1].contains(&m.name));
    notes
}

/// The last line of a benchmark run.
#[derive(Deserialize)]
struct Outcome {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
}

/// The values of `metrics`, in order, from the last stdout line of the run
/// named `run`. A run that failed a cell or a check is an error.
fn parse_result(run: &str, stdout: &str, metrics: &[EndToEnd]) -> Result<Vec<f64>, String> {
    let last = stdout.lines().last().unwrap_or("");
    let o: Outcome = serde_json::from_str(last)
        .map_err(|e| format!("{run}: last line is not a result ({e:?}): {last:?}"))?;
    let (correct, failed) = (o.correct, o.failed);
    if !correct || failed > 0 {
        return Err(format!("{run}: correct {correct}, {failed} cells failed"));
    }
    let value = |m: &EndToEnd| o.metrics.get(&m.name).map(|v| v.value);
    (metrics.iter())
        .map(|m| value(m).ok_or(format!("{run}: no {} in its result", m.name)))
        .collect()
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Verdict {
    Ok,
    Gain,
    Unresolved,
    Regressed,
}

/// Linear-interpolated quantile `q` of `xs`, which is not empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| quantile(xs, q))
}

/// One metric on one workload over the pairs where both sides succeeded.
struct Comparison {
    parent: [f64; 3],
    change: [f64; 3],
    won: usize,
    pairs: usize,
    verdict: Verdict,
}

impl Comparison {
    /// `pairs` holds (parent, change) values and is not empty.
    fn new(pairs: &[(f64, f64)], metric: &EndToEnd) -> Comparison {
        let sign = if metric.better == "higher" { 1.0 } else { -1.0 };
        let (p, c): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        let (parent, change) = (quartiles(&p), quartiles(&c));
        let count =
            |pred: fn(f64) -> bool| pairs.iter().filter(|(p, c)| pred(sign * (c - p))).count();
        let (won, lost) = (count(|d| d > 0.0), count(|d| d < 0.0));
        // How far the change's median is better than the parent's, in the
        // metric's units; negative when it is worse.
        let shift = sign * (change[1] - parent[1]);
        let iqr = parent[2] - parent[0];
        let most = |k: usize| 10 * k >= 9 * pairs.len();
        let worse = -shift > metric.bound * parent[1].abs();
        let verdict = match (worse, most(lost) && -shift > iqr, most(won) && shift > iqr) {
            (true, true, _) => Verdict::Regressed,
            (true, false, _) => Verdict::Unresolved,
            (false, _, true) => Verdict::Gain,
            (false, _, false) => Verdict::Ok,
        };
        let pairs = pairs.len();
        Comparison {
            parent,
            change,
            won,
            pairs,
            verdict,
        }
    }

    /// One row of the table, in the columns of [`HEADER`].
    fn row(&self, workload: &str, metric: &str) -> String {
        let q = |v: [f64; 3]| format!("{} [{}, {}]", sig(v[1]), sig(v[0]), sig(v[2]));
        let (p, c) = (q(self.parent), q(self.change));
        let won = format!("{}/{}", self.won, self.pairs);
        let ratio = self.change[1] / self.parent[1];
        let spread = (self.parent[2] - self.parent[0]) / self.parent[1];
        let verdict = format!("{:?}", self.verdict).to_lowercase();
        format!(
            "{workload:<11}{metric:<18}{p:<31}{c:<31}{ratio:<15.3}{won:<7}{spread:<19.3}{verdict}"
        )
    }
}

const HEADER: &str =
    "workload   metric            parent median [q1, q3]         change median [q1, q3]         \
                      change/parent  won    parent IQR/median  verdict";

/// `x` with four significant digits.
fn sig(x: f64) -> String {
    let digits = (3.0 - x.abs().log10().floor()).clamp(0.0, 9.0) as usize;
    format!("{x:.digits$}")
}

/// Exit status: 1 on a regressed row or any failed run, else 0.
fn gate(verdicts: &[Verdict], failed_runs: usize) -> i32 {
    i32::from(verdicts.contains(&Verdict::Regressed) || failed_runs > 0)
}

/// `REV` and `--seconds`, if given.
fn parse_args(argv: &[String]) -> Result<(String, Option<f64>), String> {
    let seconds = match argv {
        [rev] if !rev.starts_with('-') => None,
        [rev, flag, s] if !rev.starts_with('-') && flag == "--seconds" => {
            let s: f64 = s.parse().map_err(|e| format!("--seconds: {e}"))?;
            let s = Some(s).filter(|s| *s >= 0.0 && s.is_finite());
            Some(s.ok_or("--seconds must be a finite number >= 0")?)
        }
        _ => return Err("expected REV, then optionally --seconds S".into()),
    };
    Ok((argv[0].clone(), seconds))
}

/// Removes the parent's tree when dropped, on failure too.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git").current_dir(root).args(args).output();
    let out = out.map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        let why = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), why.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Extracts `rev`'s tree into `dir`, which lies outside the checkout, so
/// that cargo reads only that tree's own `.cargo/config.toml` there, and
/// returns that tree's `BENCHMARK.json`.
fn extract(root: &Path, rev: &str, dir: &Path) -> Result<Benchmark, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let status = Command::new("sh")
        .current_dir(root)
        .args(["-c", r#"git archive --format=tar "$0" | tar -x -C "$1""#])
        .arg(rev)
        .arg(dir)
        .status()
        .map_err(|e| format!("sh: {e}"))?;
    if !status.success() || !dir.join("ndp_benchmark/Cargo.toml").is_file() {
        return Err(format!("{rev}: no ndp_benchmark/ in its tree"));
    }
    let path = format!("{rev}:BENCHMARK.json");
    let text = std::fs::read_to_string(dir.join("BENCHMARK.json"));
    parse_benchmark(&path, &text.map_err(|e| format!("{path}: {e}"))?)
}

/// Copies the working tree's files, tracked or untracked but not ignored,
/// into `dir`.
fn copy_worktree(root: &Path, dir: &Path) -> Result<(), String> {
    let files = git(root, &["ls-files", "-z", "-co", "--exclude-standard"])?;
    for file in files.split('\0').filter(|f| root.join(f).is_file()) {
        let to = dir.join(file);
        let copied = std::fs::create_dir_all(to.parent().unwrap_or(dir))
            .and_then(|()| std::fs::copy(root.join(file), &to));
        copied.map_err(|e| format!("{}: {e}", to.display()))?;
    }
    Ok(())
}

/// Builds the benchmark of the tree at `tree` into `target`, with cargo run
/// from `tree`, and returns the binary.
fn build(tree: &Path, target: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .current_dir(tree)
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path=ndp_benchmark/Cargo.toml")
        .arg("--target-dir")
        .arg(target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {}'s benchmark failed", tree.display()));
    }
    Ok(target.join("release/ndp_benchmark"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"));
    let ab = |(rev, seconds): (String, _)| ab(&rev, seconds);
    std::process::exit(args.and_then(ab).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    }));
}

/// The whole A/B; `Err` is a set-up failure (exit 2).
fn ab(rev: &str, seconds: Option<f64>) -> Result<i32, String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut bench = parse_benchmark("BENCHMARK.json", &text)?;
    let seconds = seconds.unwrap_or(bench.run_seconds);
    let commit = format!("{rev}^{{commit}}");
    let rev = git(&root, &["rev-parse", "--short=12", "--verify", &commit])?;

    let tmp = TempDir(std::env::temp_dir().join(format!("bench_ab-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&tmp.0);
    let t0 = Instant::now();
    // Both sides build at one path. The benchmark's path dependencies lie
    // outside its workspace, so cargo hashes their absolute paths into every
    // symbol name, and the same source built at two paths gives two
    // binaries whose code differs.
    let tree = tmp.0.join("tree");
    let notes = shared(&mut bench, &extract(&root, &rev, &tree)?);
    let parent = build(&tree, &tmp.0.join("parent"))?;
    std::fs::remove_dir_all(&tree).map_err(|e| format!("{}: {e}", tree.display()))?;
    copy_worktree(&root, &tree)?;
    let sides = [
        ("parent", parent),
        ("change", build(&tree, &tmp.0.join("change"))?),
    ];
    let metrics = &bench.end_to_end;
    eprintln!("built both sides in {:.1} s", t0.elapsed().as_secs_f64());

    // values[workload][pair][side]: the run's metrics, None if it failed.
    let mut values = vec![vec![]; bench.workloads.len()];
    let mut failed: [Vec<String>; 2] = Default::default();
    for pair in 0..PAIRS {
        let seed = pair % 2;
        for (w, Workload { name: workload }) in bench.workloads.iter().enumerate() {
            let (mut took, mut runs) = (vec![], [None, None]);
            for side in [pair % 2, 1 - pair % 2] {
                let (name, bin) = &sides[side];
                let run = format!("{name} {workload} pair {pair} seed {seed}");
                let t0 = Instant::now();
                let out = Command::new(bin)
                    .current_dir(&tmp.0)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .output();
                took.push(format!("{name} {:.1} s", t0.elapsed().as_secs_f64()));
                let result = match out {
                    Err(e) => Err(format!("{run}: {e}")),
                    Ok(o) if !o.status.success() => {
                        let stderr = String::from_utf8_lossy(&o.stderr);
                        let why = stderr.lines().last().unwrap_or("");
                        Err(format!("{run}: {}: {why}", o.status))
                    }
                    Ok(o) => parse_result(&run, &String::from_utf8_lossy(&o.stdout), metrics),
                };
                if let Err(e) = &result {
                    eprintln!("FAILED {e}");
                    failed[side].push(e.clone());
                }
                runs[side] = result.ok();
            }
            values[w].push(runs);
            let took = took.join(", ");
            eprintln!("pair {}/{PAIRS} seed {seed} {workload}: {took}", pair + 1);
        }
    }

    println!("parent {rev}, change the working tree; {PAIRS} pairs of {seconds} s runs");
    println!("{}", HEADER.trim_end());
    let mut verdicts = vec![];
    for (workload, runs) in bench.workloads.iter().zip(&values) {
        for (i, metric) in bench.end_to_end.iter().enumerate() {
            let both: Vec<(f64, f64)> = (runs.iter())
                .filter_map(|[p, c]| Some((p.as_ref()?[i], c.as_ref()?[i])))
                .collect();
            if both.is_empty() {
                println!("{} {}: no pair where both ran", workload.name, metric.name);
                continue;
            }
            let c = Comparison::new(&both, metric);
            println!("{}", c.row(&workload.name, &metric.name));
            verdicts.push(c.verdict);
        }
    }
    notes.iter().for_each(|n| println!("{n}"));
    for (side, failed) in ["parent", "change"].iter().zip(&failed) {
        println!("failed runs, {side}: {}", failed.len());
        failed.iter().for_each(|f| println!("  {f}"));
    }
    Ok(gate(&verdicts, failed[0].len() + failed[1].len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent's values: median 100, quartiles 99 and 101.
    const PARENT: [f64; 10] = [
        100.0, 99.0, 101.0, 98.0, 102.0, 100.0, 99.0, 101.0, 97.0, 103.0,
    ];

    /// Pairs of `PARENT` with the change at `factor` times each value.
    fn scaled(factor: f64) -> Vec<(f64, f64)> {
        PARENT.iter().map(|&p| (p, p * factor)).collect()
    }

    fn compare(pairs: &[(f64, f64)], better: &str) -> Comparison {
        let metric = format!(r#"{{"name":"m","better":"{better}","bound":0.25}}"#);
        Comparison::new(pairs, &serde_json::from_str(&metric).expect("a metric"))
    }

    fn verdict(pairs: &[(f64, f64)], better: &str) -> Verdict {
        compare(pairs, better).verdict
    }

    #[test]
    fn inside_the_bound_is_ok() {
        // Worse by 10% on every pair, against a bound of 25%.
        assert_eq!(verdict(&scaled(0.9), "higher"), Verdict::Ok);
        assert_eq!(verdict(&scaled(1.1), "lower"), Verdict::Ok);
    }

    #[test]
    fn worse_beyond_the_bound_on_nine_tenths_of_pairs_is_regressed() {
        let c = compare(&scaled(0.7), "higher");
        assert_eq!((c.verdict, c.won, c.pairs), (Verdict::Regressed, 0, 10));
        assert_eq!(verdict(&scaled(1.4), "lower"), Verdict::Regressed);
        // Nine of ten is enough.
        let (mut slower, mut larger) = (scaled(0.7), scaled(1.4));
        (slower[0].1, larger[0].1) = (200.0, 1.0);
        assert_eq!(verdict(&slower, "higher"), Verdict::Regressed);
        assert_eq!(verdict(&larger, "lower"), Verdict::Regressed);
    }

    #[test]
    fn worse_median_with_two_pairs_won_is_unresolved() {
        // The parent's two slowest runs fall in the pairs the change wins.
        let mut slower = vec![(100.0, 70.0); 8];
        slower.extend([(50.0, 70.0), (50.0, 70.0)]);
        let c = compare(&slower, "higher");
        assert_eq!((c.verdict, c.won), (Verdict::Unresolved, 2));
        let mut larger = vec![(100.0, 140.0); 8];
        larger.extend([(200.0, 140.0), (200.0, 140.0)]);
        assert_eq!(verdict(&larger, "lower"), Verdict::Unresolved);
    }

    #[test]
    fn worse_median_within_the_parents_spread_is_unresolved() {
        // Quartiles 50 and 150 around a median of 100: an IQR of 100.
        let mut parent = [50.0, 150.0].repeat(4);
        parent.extend([100.0, 100.0]);
        let by = |f: f64| -> Vec<(f64, f64)> { parent.iter().map(|&p| (p, p * f)).collect() };
        let c = compare(&by(0.7), "higher");
        assert_eq!((c.parent, c.won), ([50.0, 100.0, 150.0], 0));
        assert_eq!(c.verdict, Verdict::Unresolved);
        assert_eq!(verdict(&by(1.4), "lower"), Verdict::Unresolved);
    }

    #[test]
    fn gain_follows_the_guides_rule() {
        assert_eq!(verdict(&scaled(1.1), "higher"), Verdict::Gain);
        assert_eq!(verdict(&scaled(0.7), "lower"), Verdict::Gain);
        // Better on every pair, but by less than the parent's IQR of 2.
        assert_eq!(verdict(&scaled(1.01), "higher"), Verdict::Ok);
        // Eight pairs of ten won.
        let mut pairs = scaled(1.3);
        (pairs[0].1, pairs[1].1) = (50.0, 50.0);
        assert_eq!(verdict(&pairs, "higher"), Verdict::Ok);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let c = compare(&scaled(1.0), "higher");
        assert_eq!((c.won, c.verdict), (0, Verdict::Ok));
        // Eight losses and two ties: short of nine lost pairs.
        let mut pairs = scaled(0.7);
        (pairs[0].1, pairs[1].1) = (pairs[0].0, pairs[1].0);
        assert_eq!(verdict(&pairs, "higher"), Verdict::Unresolved);
        // Nine wins and one tie: still nine tenths won.
        pairs[1].1 = pairs[1].0 * 0.7;
        let c = compare(&pairs, "lower");
        assert_eq!((c.won, c.verdict), (9, Verdict::Gain));
    }

    #[test]
    fn a_failed_run_fails_the_gate_even_when_every_row_is_ok() {
        assert_eq!(gate(&[Verdict::Gain, Verdict::Unresolved], 0), 0);
        assert_eq!(gate(&[Verdict::Ok, Verdict::Ok], 1), 1);
        assert_eq!(gate(&[Verdict::Ok, Verdict::Regressed], 0), 1);
    }

    fn committed() -> Benchmark {
        let text = include_str!("../../../../BENCHMARK.json");
        parse_benchmark("BENCHMARK.json", text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn the_committed_benchmark_parses() {
        let b = committed();
        let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["gpu-only", "ndp-naive", "ckpt-dyn", "sweep-fig9"]);
        assert_eq!((b.end_to_end.len(), b.run_seconds), (5, 30.0));
        let up = r#"{"run_seconds":1,"workloads":[],"end_to_end":[{"name":"x","better":"up","bound":0}]}"#;
        let e = parse_benchmark("r:BENCHMARK.json", up).err();
        assert_eq!(e.as_deref(), Some(r#"r:BENCHMARK.json: x is better "up""#));
    }

    #[test]
    fn only_what_both_sides_list_is_compared() {
        // The change renames a workload and a metric.
        let (parent, mut change) = (committed(), committed());
        change.workloads[1].name = "mixed".into();
        change.end_to_end[3].name = "setup_ms".into();
        let notes = shared(&mut change, &parent);
        let names: Vec<&str> = change.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["gpu-only", "ckpt-dyn", "sweep-fig9"]);
        assert_eq!(change.end_to_end.len(), 4);
        let expected = [
            "workload mixed: new, not compared",
            "workload ndp-naive: gone, not compared",
            "metric setup_ms: new, not compared",
            "metric setup_s: gone, not compared",
        ];
        assert_eq!(notes, expected);
        let mut same = committed();
        assert!(shared(&mut same, &parent).is_empty());
        assert_eq!((same.workloads.len(), same.end_to_end.len()), (4, 5));
    }

    #[test]
    fn a_result_line_parses() {
        let metrics = committed().end_to_end;
        let values: Vec<String> = (metrics.iter().enumerate())
            .map(|(i, m)| format!(r#""{}":{{"value":{i}.5,"unit":"x"}}"#, m.name))
            .collect();
        let stdout = |correct: bool, failed: u32| {
            let head = format!(r#"{{"correct":{correct},"attempted":50,"failed":{failed}"#);
            format!(
                "manifest {{}}\nsetup_s 1 s\n{head},\"metrics\":{{{}}}}}\n",
                values.join(",")
            )
        };
        let run = "change ndp-naive pair 3 seed 1";
        let ok = parse_result(run, &stdout(true, 0), &metrics);
        assert_eq!(ok, Ok(vec![0.5, 1.5, 2.5, 3.5, 4.5]));
        // A run that checked out wrong is a failure, whatever its numbers.
        assert!(parse_result(run, &stdout(false, 0), &metrics).is_err());
        assert!(parse_result(run, &stdout(true, 2), &metrics).is_err());
    }

    #[test]
    fn a_malformed_last_line_names_its_run() {
        let metrics = committed().end_to_end;
        for stdout in ["", "manifest {}\npass 0: 3.1 s\n", "{\"correct\":true"] {
            let run = "change ndp-naive pair 3 seed 1";
            let e = parse_result(run, stdout, &metrics).expect_err(stdout);
            assert!(e.starts_with("change ndp-naive pair 3 seed 1: "), "{e}");
        }
    }

    #[test]
    fn arguments_are_rev_and_seconds() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert_eq!(args("HEAD^1 --seconds 0"), Ok(("HEAD^1".into(), Some(0.0))));
        assert_eq!(args("abc"), Ok(("abc".into(), None)));
        // Ten pairs is a constant, so `--pairs` is refused.
        for bad in ",--seconds 3,a b,a --seconds,a --seconds -1,a --pairs 10".split(',') {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
