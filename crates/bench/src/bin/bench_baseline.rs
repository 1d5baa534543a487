//! `bench_baseline` — measure core-simulator throughput and gate against
//! the committed `BENCH_core.json`.
//!
//! ```text
//! bench_baseline [--out PATH]        measure fig7_small + fig7_scale and
//!                                    write the baseline document
//!                                    (default: BENCH_core.json)
//! bench_baseline --check [PATH]      re-measure fig7_small and compare
//!                                    against the committed baseline;
//!                                    writes BENCH_check.json and exits 1
//!                                    on a regression
//! ```
//!
//! A check fails when current cycles/sec drops below `1 - TOLERANCE` of
//! the baseline, or when the deterministic simulated-cycle counts disagree
//! (the latter means the model changed and the baseline is stale — re-run
//! without `--check` and commit the new document).

use ndp_bench::baseline::{
    check, fig7_scale, fig7_small, git_rev, measure, BenchBaseline, BENCH_SCHEMA_VERSION,
};

/// Allowed throughput regression, as a fraction of the baseline.
const TOLERANCE: f64 = 0.15;

fn usage() -> ! {
    eprintln!("usage: bench_baseline [--out PATH] | bench_baseline --check [PATH]");
    std::process::exit(2);
}

fn measure_doc(specs: &[ndp_bench::baseline::BenchSpec]) -> BenchBaseline {
    BenchBaseline {
        schema_version: BENCH_SCHEMA_VERSION,
        git_rev: git_rev(),
        entries: specs
            .iter()
            .map(|s| {
                eprintln!(
                    "measuring {} ({} x{} warps={} iters={} reps={})...",
                    s.name,
                    s.config_name,
                    s.workloads.len(),
                    s.scale.warps,
                    s.scale.iters,
                    s.reps
                );
                measure(s)
            })
            .collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_core.json".to_string();
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--check" => {
                check_path = Some(match args.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        p.clone()
                    }
                    _ => "BENCH_core.json".to_string(),
                });
            }
            _ => usage(),
        }
        i += 1;
    }

    match check_path {
        None => {
            let doc = measure_doc(&[fig7_small(), fig7_scale()]);
            let json = serde_json::to_string_pretty(&doc).expect("serialize baseline");
            std::fs::write(&out_path, json + "\n").expect("write baseline");
            for e in &doc.entries {
                println!(
                    "{:12} {:>12} sim cycles  {:>10.0} cycles/sec  ({:.3} s best of {})",
                    e.name,
                    e.sim_cycles,
                    e.cycles_per_sec,
                    e.wall_ns as f64 / 1e9,
                    e.reps
                );
                println!(
                    "{:12} checkpoint: {} bytes, save {:.2} ms, restore {:.2} ms",
                    "",
                    e.ckpt_bytes,
                    e.ckpt_save_ns as f64 / 1e6,
                    e.ckpt_restore_ns as f64 / 1e6
                );
            }
            println!("wrote {out_path} (rev {})", doc.git_rev);
        }
        Some(path) => {
            let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("error: cannot read baseline {path}: {e}");
                std::process::exit(2);
            });
            let base: BenchBaseline = serde_json::from_str(&raw).unwrap_or_else(|e| {
                eprintln!("error: cannot parse baseline {path}: {e}");
                std::process::exit(2);
            });
            if base.schema_version != BENCH_SCHEMA_VERSION {
                eprintln!(
                    "error: baseline schema v{} != supported v{BENCH_SCHEMA_VERSION}",
                    base.schema_version
                );
                std::process::exit(2);
            }
            // The check re-measures only the small scenario: it is the CI
            // smoke gate, and fig7_scale exists for local deep runs.
            let cur = measure_doc(&[fig7_small()]);
            let outcome = check(&base, &cur, TOLERANCE);
            let json = serde_json::to_string_pretty(&outcome).expect("serialize check outcome");
            std::fs::write("BENCH_check.json", json + "\n").expect("write check outcome");
            if outcome.bootstrap {
                eprintln!(
                    "notice: {path} carries no measurements yet (bootstrap baseline); \
                     nothing gated. Populate it on the reference machine with \
                     `bench_baseline --out {path}` and commit the result."
                );
            }
            for e in &outcome.entries {
                println!(
                    "{:12} baseline {:>10.0} c/s  current {:>10.0} c/s  ratio {:.3}  sim_cycles {}  [{}]",
                    e.name,
                    e.baseline_cycles_per_sec,
                    e.current_cycles_per_sec,
                    e.ratio,
                    if e.sim_cycles_match { "match" } else { "MISMATCH" },
                    if e.ok { "ok" } else { "FAIL" }
                );
            }
            println!(
                "tolerance {:.0}%  baseline rev {}  current rev {}  -> {}",
                TOLERANCE * 100.0,
                outcome.baseline_git_rev,
                outcome.current_git_rev,
                if outcome.ok { "PASS" } else { "FAIL" }
            );
            if !outcome.ok {
                eprintln!(
                    "error: core throughput check failed (see BENCH_check.json); \
                     if the model intentionally changed, regenerate the baseline \
                     with `bench_baseline --out BENCH_core.json` and commit it"
                );
                std::process::exit(1);
            }
        }
    }
}
