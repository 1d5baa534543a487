//! Golden determinism tests: two small sweeps must produce exactly the
//! committed `RunResult`s, field for field. `fig7_small` covers every
//! configuration of the speedup figure on three kernels; `mshr_stalls`
//! covers all ten kernels on the Baseline GPU at a scale where most of
//! them stall on full L1 MSHR tables (nonzero `exec_unit_busy`). A third
//! golden, `figures_small`, holds the text of every table and figure as
//! the `figures` binary prints it at 32 warps × 1 iteration.
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
//! git diff tests/golden/   # review before committing!
//! ```

use std::num::NonZeroU64;
use std::path::PathBuf;
use std::sync::Arc;

use ndp_bench::{figures, Plan};
use standardized_ndp::common::env;
use standardized_ndp::prelude::*;

const MAX: u64 = 30_000_000;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.txt"))
}

/// `$TMPDIR/<name>-<pid>`, removed when dropped, so a test that fails an
/// assertion leaves nothing behind either.
struct TempDir(PathBuf);

fn temp_dir(name: &str) -> TempDir {
    TempDir(std::env::temp_dir().join(format!("{name}-{}", std::process::id())))
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `cfg` on `w` at `scale` under `opts` and render the result the
/// way the golden files hold it. `check` sees the result first.
fn cell(
    name: &str,
    cfg: SystemConfig,
    w: Workload,
    scale: &Scale,
    opts: &RunOptions,
    check: &impl Fn(&str, &mut RunResult),
) -> String {
    let p = w.build(scale);
    let kernel = Arc::new(compile(&p, &CompilerConfig::default()));
    let mut r = System::build(cfg, kernel, opts)
        .expect("builtin workload builds")
        .run(MAX)
        .expect("no protocol violation");
    assert!(!r.timed_out, "{name} timed out");
    check(name, &mut r);
    format!("=== {name} ===\n{r:#?}\n")
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
            let name = format!("{cname} / {}", w.name());
            let scale = Scale {
                warps: 64,
                iters: 4,
            };
            out.push_str(&cell(&name, cfg, w, &scale, opts, &check));
        }
    }
    out
}

/// All ten kernels on the 8-SM Baseline GPU at 256 warps × 2 iterations:
/// enough warps per SM that irregular loads fill the L1 MSHR tables, so
/// the MSHR-blocked retry path decides `exec_unit_busy` here.
fn mshr_sweep() -> String {
    let opts = RunOptions::from_env().expect("valid NDP_* environment");
    let scale = Scale {
        warps: 256,
        iters: 2,
    };
    let mut out = String::new();
    for w in WORKLOADS {
        let mut cfg = SystemConfig::baseline();
        cfg.gpu.num_sms = 8;
        let name = format!("baseline / {}", w.name());
        out.push_str(&cell(&name, cfg, w, &scale, &opts, &|_, _| {}));
    }
    out
}

/// The sweep under the environment's run options (CI's per-cycle leg
/// reaches it through them).
fn sweep() -> String {
    let opts = RunOptions::from_env().expect("valid NDP_* environment");
    sweep_with(&opts, |_, _| {})
}

/// Compare `got` with the committed golden `name`, or rewrite the golden
/// under `NDP_BLESS=1`.
fn check_golden(name: &str, got: &str) {
    let bless = env::flag(|k| std::env::var(k).ok(), "NDP_BLESS").expect("NDP_BLESS is a flag");
    if bless == Some(true) {
        let path = golden_path(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), got.len());
        return;
    }
    assert_matches_golden(name, got);
}

fn assert_matches_golden(name: &str, got: &str) {
    let path = golden_path(name);
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
    check_golden("fig7_small", &sweep());
}

/// The golden on which the MSHR-blocked retry path decides the no-issue
/// attribution: most cells must stall on full MSHR tables, or the file
/// stops guarding that path.
#[test]
fn mshr_stalls_matches_golden() {
    let got = mshr_sweep();
    let stalling = got
        .lines()
        .filter(|l| l.trim_start().starts_with("exec_unit_busy:"))
        .filter(|l| !l.trim_end().ends_with(" 0,"))
        .count();
    assert!(stalling >= 5, "only {stalling} of 10 cells stall on MSHRs");
    check_golden("mshr_stalls", &got);
}

/// Every run option on at once — observation, profiling, per-cycle
/// execution, periodic checkpoints and a stall-dump directory — still
/// reproduces the committed golden byte for byte, once the one field
/// observation adds (`RunResult::obs`) is dropped.
#[test]
fn fig7_small_matches_golden_with_every_option_on() {
    let tmp = temp_dir("ndp-golden-all-on");
    let ckpt = tmp.0.join("ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    let opts = RunOptions {
        skip: false,
        obs: true,
        perf: true,
        checkpoint: Some((NonZeroU64::new(512).unwrap(), ckpt.clone())),
        stall_dump: Some(tmp.0.join("stalls")),
        ..RunOptions::default()
    };
    let got = sweep_with(&opts, |name, r| {
        assert!(r.perf.is_some(), "{name}: profiling was on");
        assert!(r.obs.take().is_some(), "{name}: observation was on");
    });
    let saved = std::fs::read_dir(&ckpt).unwrap().count();
    assert_eq!(saved, 9, "one periodic checkpoint file per cell");
    assert_matches_golden("fig7_small", &got);
}

/// Every table and figure through one plan at the default epoch, under
/// the environment's run options.
#[test]
fn figures_small_matches_golden() {
    let small = Scale {
        warps: 32,
        iters: 1,
    };
    let out = Plan::new(small, 30_000).run(&figures::select(&[]).expect("no name to reject"));
    out.check().expect("no cell timed out");
    check_golden("figures_small", &out.listing());
}

/// Same sweep twice in one process must agree with itself — catches any
/// accidental dependence on global state, iteration order, or time.
#[test]
fn fig7_small_is_self_deterministic() {
    assert_eq!(sweep(), sweep(), "back-to-back runs diverged");
}
