//! Golden determinism test: a small fig7-scale sweep must produce exactly
//! the committed `RunResult`s, field for field.
//!
//! The simulator is a deterministic cycle-stepped model — same program,
//! same config, same outputs, on every host. This test pins that contract
//! so a refactor of the component wiring (or any "harmless" cleanup) cannot
//! silently change simulation outcomes. The golden file is the `{:#?}`
//! rendering of the results, which depends only on `std` Debug formatting.
//!
//! To re-bless after an *intentional* model change:
//!
//! ```text
//! NDP_BLESS=1 cargo test --test golden_determinism
//! git diff tests/golden/fig7_small.txt   # review before committing!
//! ```

use std::num::NonZeroU64;
use std::path::PathBuf;
use std::sync::Arc;

use standardized_ndp::common::env;
use standardized_ndp::prelude::*;

const MAX: u64 = 30_000_000;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("fig7_small.txt")
}

/// The fig7 sweep at test scale: every config column of the speedup figure
/// over a workload sample that exercises GPU-side caching (Vadd), irregular
/// access (Bfs), and the offload protocol (Bprop), each run under `opts`.
/// `check` sees every result before it is rendered.
fn sweep_with(opts: &RunOptions, check: impl Fn(&str, &mut RunResult)) -> String {
    let mut out = String::new();
    for (cname, cfg) in [
        ("baseline", SystemConfig::baseline()),
        ("naive_ndp", SystemConfig::naive_ndp()),
        ("ndp_dynamic_cache", SystemConfig::ndp_dynamic_cache()),
    ] {
        for w in [Workload::Vadd, Workload::Bfs, Workload::Bprop] {
            let mut cfg = cfg.clone();
            cfg.gpu.num_sms = 8;
            let p = w.build(&Scale {
                warps: 64,
                iters: 4,
            });
            let kernel = Arc::new(compile(&p, &CompilerConfig::default()));
            let mut r = System::build(cfg, kernel, opts)
                .expect("builtin workload builds")
                .run(MAX)
                .expect("no protocol violation");
            let name = format!("{cname} / {}", w.name());
            assert!(!r.timed_out, "{name} timed out");
            check(&name, &mut r);
            out.push_str(&format!("=== {name} ===\n{r:#?}\n"));
        }
    }
    out
}

/// The sweep under the environment's run options (CI's per-cycle and
/// deep-invariant legs reach it through them).
fn sweep() -> String {
    let opts = RunOptions::from_env().expect("valid NDP_* environment");
    sweep_with(&opts, |_, _| {})
}

fn assert_matches_golden(got: &str) {
    let path = golden_path();
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with NDP_BLESS=1 to create it",
            path.display()
        )
    });
    if got != want {
        // Find the first diverging line so the failure is readable without
        // dumping two multi-kilobyte blobs.
        let (mut line, mut a, mut b) = (0usize, "", "");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                (line, a, b) = (i + 1, g, w);
                break;
            }
        }
        panic!(
            "simulation output diverged from golden {} at line {line}:\n  golden: {b}\n  got:    {a}\n\
             (total: {} golden lines, {} current lines)\n\
             If this change is intentional, re-bless with NDP_BLESS=1.",
            path.display(),
            want.lines().count(),
            got.lines().count(),
        );
    }
}

#[test]
fn fig7_small_matches_golden() {
    let got = sweep();
    let path = golden_path();
    let bless = env::flag(|k| std::env::var(k).ok(), "NDP_BLESS").expect("NDP_BLESS is a flag");
    if bless == Some(true) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), got.len());
        return;
    }
    assert_matches_golden(&got);
}

/// Every run option on at once — observation, profiling, deep invariant
/// checks, per-cycle execution, periodic checkpoints and a stall-dump
/// directory — still reproduces the committed golden byte for byte, once
/// the one field observation adds (`RunResult::obs`) is dropped.
#[test]
fn fig7_small_matches_golden_with_every_option_on() {
    let dir = std::env::temp_dir().join(format!("ndp-golden-all-on-{}", std::process::id()));
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    let opts = RunOptions {
        skip: false,
        deep_invariants: true,
        obs: true,
        perf: true,
        checkpoint: Some((NonZeroU64::new(512).unwrap(), ckpt.clone())),
        stall_dump: Some(dir.join("stalls")),
        ..RunOptions::default()
    };
    let got = sweep_with(&opts, |name, r| {
        assert!(r.perf.is_some(), "{name}: profiling was on");
        assert!(r.obs.take().is_some(), "{name}: observation was on");
    });
    let saved = std::fs::read_dir(&ckpt).unwrap().count();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(saved, 9, "one periodic checkpoint file per cell");
    assert_matches_golden(&got);
}

/// Same sweep twice in one process must agree with itself — catches any
/// accidental dependence on global state, iteration order, or time.
#[test]
fn fig7_small_is_self_deterministic() {
    assert_eq!(sweep(), sweep(), "back-to-back runs diverged");
}
