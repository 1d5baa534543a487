//! Checkpoint/resume equivalence matrix and rejection tests.
//!
//! The contract under test: **a resumed run is byte-identical to an
//! uninterrupted one**. For every workload, snapshot cycle, execution mode
//! (per-cycle, event-driven) and fault schedule, snapshotting at cycle N,
//! dropping the live system, restoring from the serialized bytes and
//! running to completion must produce exactly the `{:#?}` rendering an
//! uninterrupted run produces — also when the resume runs in the other
//! execution mode, which the restore takes from its `RunOptions`, not from
//! the image. And the flip side: corrupted, truncated, version-bumped or
//! config-mismatched checkpoints are rejected with a typed
//! [`SimError::BadCheckpoint`] naming the failed check — never a panic,
//! never a silently wrong resume.

use std::path::PathBuf;
use std::sync::Arc;

use ndp_core::checkpoint;
use standardized_ndp::prelude::*;

const MAX: u64 = 30_000_000;

fn scale() -> Scale {
    Scale {
        warps: 32,
        iters: 2,
    }
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

#[derive(Debug, Clone, Copy)]
enum Mode {
    PerCycle,
    Event,
}

const MODES: [Mode; 2] = [Mode::PerCycle, Mode::Event];

fn small_ndp() -> SystemConfig {
    let mut cfg = SystemConfig::naive_ndp();
    cfg.gpu.num_sms = 8;
    cfg
}

/// A benign seeded fault schedule (delays only) that every workload
/// absorbs: the run still drains, but the injector's decision stream and
/// held packets are live state the checkpoint must carry.
fn delay_faults() -> FaultConfig {
    FaultConfig {
        seed: 7,
        delay_prob: 0.05,
        delay_cycles: 200,
        ..Default::default()
    }
}

/// The environment's run options in `mode`, under `faults`.
fn opts(mode: Mode, faults: Option<FaultConfig>) -> RunOptions {
    let mut o = RunOptions::from_env().expect("valid NDP_* environment");
    o.skip = matches!(mode, Mode::Event);
    o.faults = faults;
    o
}

fn fresh_with(cfg: &SystemConfig, w: Workload, opts: &RunOptions) -> System {
    System::build(cfg.clone(), kernel_for(w), opts).expect("builtin workload builds")
}

fn fresh(cfg: &SystemConfig, w: Workload, mode: Mode, faults: Option<FaultConfig>) -> System {
    fresh_with(cfg, w, &opts(mode, faults))
}

/// A fresh event-driven system with the observability layer on.
fn observed(cfg: &SystemConfig, w: Workload) -> System {
    let mut o = opts(Mode::Event, None);
    o.obs = true;
    fresh_with(cfg, w, &o)
}

fn kernel_for(w: Workload) -> Arc<ndp_compiler::CompiledKernel> {
    Arc::new(compile(&w.build(&scale()), &CompilerConfig::default()))
}

/// Snapshot a `save` run of `w` at `snap_at`, restore into a brand-new
/// system that runs in `resume` mode, run to completion, and demand the
/// exact golden rendering. The restore's options carry no faults: the
/// image supplies the schedule.
fn assert_resume_equivalent(
    cfg: &SystemConfig,
    w: Workload,
    (save, resume): (Mode, Mode),
    faults: Option<FaultConfig>,
    snap_at: u64,
    golden: &str,
) {
    let mut sys = fresh(cfg, w, save, faults);
    sys.run_until(snap_at)
        .expect("no violation before the snapshot point");
    let bytes = sys.snapshot();
    drop(sys); // the "interruption"

    let resumed = System::restore(cfg.clone(), kernel_for(w), &bytes, &opts(resume, None))
        .expect("pristine checkpoint accepted");
    let r = resumed.run(MAX).expect("no violation after resume");
    assert_eq!(
        format!("{r:#?}"),
        golden,
        "{}: saved {save:?} at cycle {snap_at}, resumed {resume:?}: diverged from the \
         uninterrupted run",
        w.name()
    );
}

/// Uninterrupted golden rendering for one (config, workload, mode, faults)
/// cell, plus the completion cycle (so snapshot points can be placed
/// strictly before the run drains).
fn golden(
    cfg: &SystemConfig,
    w: Workload,
    mode: Mode,
    faults: Option<FaultConfig>,
) -> (String, u64) {
    let r = fresh(cfg, w, mode, faults)
        .run(MAX)
        .expect("golden run clean");
    assert!(!r.timed_out, "{}/{mode:?} golden timed out", w.name());
    (format!("{r:#?}"), r.cycles)
}

/// Every workload, event-driven mode, two snapshot depths (¼ and ¾ of the
/// workload's own completion time).
#[test]
fn resume_is_byte_identical_for_all_workloads() {
    let cfg = small_ndp();
    for &w in WORKLOADS.iter() {
        let (gold, cycles) = golden(&cfg, w, Mode::Event, None);
        for snap_at in [cycles / 4, cycles * 3 / 4] {
            let modes = (Mode::Event, Mode::Event);
            assert_resume_equivalent(&cfg, w, modes, None, snap_at.max(1), &gold);
        }
    }
}

/// Both execution modes agree with each other *and* survive a mid-run
/// snapshot in either mode: the golden is taken per-cycle, and an image
/// saved in each mode resumes in each mode — per-cycle to event-driven and
/// the reverse included, because the mode is a run option the restore
/// takes, not part of the image.
#[test]
fn resume_is_byte_identical_across_execution_modes() {
    let cfg = small_ndp();
    for w in [Workload::Vadd, Workload::Bfs, Workload::Bprop] {
        let (gold, cycles) = golden(&cfg, w, Mode::PerCycle, None);
        for save in MODES {
            for resume in MODES {
                assert_resume_equivalent(&cfg, w, (save, resume), None, cycles / 3, &gold);
            }
        }
    }
}

/// A seeded fault schedule's decision stream, held packets and fault
/// statistics all survive the round trip, also into the other execution
/// mode: resumed runs replay the exact same faults the uninterrupted run
/// sees.
#[test]
fn resume_is_byte_identical_under_seeded_faults() {
    let cfg = small_ndp();
    let faults = Some(delay_faults());
    for w in [Workload::Vadd, Workload::Bfs] {
        for save in MODES {
            let (gold, cycles) = golden(&cfg, w, save, faults);
            for frac in [4u64, 2] {
                let snap_at = (cycles / frac).max(1);
                for resume in MODES {
                    assert_resume_equivalent(&cfg, w, (save, resume), faults, snap_at, &gold);
                }
            }
        }
    }
}

/// The baseline (NDP-off) configuration checkpoints too — no NSU state in
/// flight, but SM/cache/DRAM state still round-trips, also with warps
/// blocked on full MSHR tables.
#[test]
fn resume_is_byte_identical_for_baseline_config() {
    let mut cfg = SystemConfig::baseline();
    cfg.gpu.num_sms = 8;
    let (gold, cycles) = golden(&cfg, Workload::Vadd, Mode::Event, None);
    let modes = (Mode::Event, Mode::Event);
    assert_resume_equivalent(&cfg, Workload::Vadd, modes, None, cycles / 2, &gold);

    // No VADD warp ever waits on an MSHR. BFS and FWT at the `mshr_stalls`
    // golden's scale do: snapshot each where some warp's current load was
    // refused by a full MSHR table, so the image carries blocked warps'
    // wake cycles and booked stall counts.
    let scale = Scale {
        warps: 256,
        iters: 2,
    };
    let opts = opts(Mode::Event, None);
    for w in [Workload::Bfs, Workload::Fwt] {
        let kernel = Arc::new(compile(&w.build(&scale), &CompilerConfig::default()));
        let build = || System::build(cfg.clone(), kernel.clone(), &opts).expect("builds");
        let r = build().run(MAX).expect("golden run clean");
        assert!(r.issue.exec_unit_busy > 0, "{}: no MSHR stalls", w.name());
        let gold = format!("{r:#?}");
        for quarter in 1..=3 {
            let mut sys = build();
            let mut at = r.cycles * quarter / 4;
            sys.run_until(at).expect("clean prefix");
            while sys.mshr_blocked_warps() == 0 && at < r.cycles {
                at += 1;
                sys.run_until(at).expect("clean prefix");
            }
            assert!(
                sys.mshr_blocked_warps() > 0,
                "{}: no MSHR-blocked warp after cycle {}",
                w.name(),
                r.cycles * quarter / 4
            );
            let bytes = sys.snapshot();
            drop(sys);
            let resumed = System::restore(cfg.clone(), kernel.clone(), &bytes, &opts)
                .expect("pristine checkpoint accepted")
                .run(MAX)
                .expect("no violation after resume");
            assert_eq!(
                format!("{resumed:#?}"),
                gold,
                "{}: snapshot at cycle {at} with MSHR-blocked warps diverged",
                w.name()
            );
        }
    }
}

/// The observability layer is part of the result (`RunResult::obs`), so it
/// is part of the checkpoint: histograms, time-series and event rings
/// resume without a seam, and the image, not the restoring options, says
/// whether observation is on.
#[test]
fn observability_state_survives_resume() {
    let cfg = small_ndp();
    let w = Workload::Vadd;
    let gold = format!("{:#?}", observed(&cfg, w).run(MAX).expect("clean"));

    let mut sys = observed(&cfg, w);
    sys.run_until(1_024).expect("clean prefix");
    let bytes = sys.snapshot();
    drop(sys);
    let r = System::try_restore(cfg.clone(), kernel_for(w), &bytes)
        .expect("restore accepted")
        .run(MAX)
        .expect("clean tail");
    assert_eq!(format!("{r:#?}"), gold, "obs report diverged across resume");
}

/// Snapshotting is a pure read: the same prefix always serializes to the
/// same bytes, and taking a snapshot does not disturb the run that
/// continues afterwards.
#[test]
fn snapshots_are_deterministic_and_non_perturbing() {
    let cfg = small_ndp();
    let w = Workload::Kmn;
    let (gold, cycles) = golden(&cfg, w, Mode::Event, None);
    let snap_at = cycles / 2;
    let run_to = |cycle: u64| {
        let mut sys = fresh(&cfg, w, Mode::Event, None);
        sys.run_until(cycle).expect("clean prefix");
        sys
    };
    let a = run_to(snap_at).snapshot();
    let b = run_to(snap_at).snapshot();
    assert_eq!(a, b, "same prefix must serialize identically");

    let mut sys = fresh(&cfg, w, Mode::Event, None);
    sys.run_until(snap_at).expect("clean prefix");
    let _ = sys.snapshot(); // observe, then keep running the same system
    let r = sys.run(MAX).expect("clean tail");
    assert_eq!(
        format!("{r:#?}"),
        gold,
        "taking a snapshot perturbed the run"
    );
}

/// Restoring an image and snapshotting the restored machine gives back the
/// same bytes, for every workload under Baseline, NaiveNDP and
/// NDP(Dyn)_Cache with observability on. This catches a field that is
/// written but restored wrongly even when it never reaches the
/// `RunResult` the resume tests compare.
#[test]
fn restore_then_snapshot_reproduces_the_image() {
    for mut cfg in [
        SystemConfig::baseline(),
        SystemConfig::naive_ndp(),
        SystemConfig::ndp_dynamic_cache(),
    ] {
        cfg.gpu.num_sms = 8;
        for &w in WORKLOADS.iter() {
            let cycles = observed(&cfg, w).run(MAX).expect("clean run").cycles;
            let mut sys = observed(&cfg, w);
            sys.run_until(cycles / 2).expect("clean prefix");
            let image = sys.snapshot();
            let again = System::try_restore(cfg.clone(), kernel_for(w), &image)
                .expect("pristine image accepted")
                .snapshot();
            assert!(
                image == again,
                "{}/{:?}: restore then snapshot changed the image",
                w.name(),
                cfg.offload
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rejection: every corruption is a typed error, never a panic.
// ---------------------------------------------------------------------------

fn snapshot_bytes(cfg: &SystemConfig, w: Workload) -> Vec<u8> {
    let mut sys = fresh(cfg, w, Mode::Event, None);
    sys.run_until(1_024).expect("clean prefix");
    sys.snapshot()
}

fn expect_rejection(cfg: &SystemConfig, w: Workload, bytes: &[u8]) -> &'static str {
    match System::try_restore(cfg.clone(), kernel_for(w), bytes) {
        Err(SimError::BadCheckpoint { check, .. }) => check,
        Err(other) => panic!("expected BadCheckpoint, got {other}"),
        Ok(_) => panic!("corrupt checkpoint accepted"),
    }
}

/// Flip single bytes across the whole image: header flips fail their named
/// structural check, payload flips fail the checksum — and none of them
/// panic or restore.
#[test]
fn bit_flips_anywhere_are_rejected() {
    let cfg = small_ndp();
    let w = Workload::Vadd;
    let good = snapshot_bytes(&cfg, w);
    System::try_restore(cfg.clone(), kernel_for(w), &good).expect("pristine bytes accepted");
    for pos in (0..good.len()).step_by(97) {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        let check = expect_rejection(&cfg, w, &bad);
        assert!(
            !check.is_empty(),
            "flip at byte {pos} must name the failed check"
        );
    }
}

/// Truncations at every depth — mid-header, mid-payload, empty — are
/// length/magic errors, not panics.
#[test]
fn truncations_are_rejected() {
    let cfg = small_ndp();
    let w = Workload::Vadd;
    let good = snapshot_bytes(&cfg, w);
    for keep in [0, 1, 7, 19, checkpoint::HEADER_BYTES, good.len() - 1] {
        let check = expect_rejection(&cfg, w, &good[..keep]);
        assert!(matches!(check, "magic" | "schema" | "header" | "length"));
    }
    // Trailing garbage is a length mismatch, not silently ignored.
    let mut long = good;
    long.extend_from_slice(b"junk");
    assert_eq!(expect_rejection(&cfg, w, &long), "length");
}

/// A future or past schema version is refused by name, before any payload
/// decoding happens: a previous-version image (v5, whose link statistics
/// still carried a per-packet-kind byte array) is not misdecoded.
#[test]
fn schema_version_bump_is_rejected() {
    let cfg = small_ndp();
    let w = Workload::Vadd;
    let pristine = snapshot_bytes(&cfg, w);
    let current = checkpoint::SCHEMA_VERSION;
    for schema in [current - 1, current + 1] {
        let mut bytes = pristine.clone();
        // The schema u32 follows the u64 magic.
        bytes[8..12].copy_from_slice(&schema.to_le_bytes());
        assert_eq!(expect_rejection(&cfg, w, &bytes), "schema", "v{schema}");
    }
}

/// A schema-1 image — the layout with an FNV-1a payload checksum — is
/// refused on its schema, before the checksum could misreport it as
/// corruption.
#[test]
fn schema_1_image_is_rejected_by_schema_not_checksum() {
    let cfg = small_ndp();
    let w = Workload::Vadd;
    let mut bytes = snapshot_bytes(&cfg, w);
    let h = checkpoint::HEADER_BYTES;
    let v1_sum = ndp_common::snap::fnv1a(&bytes[h..]);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    bytes[h - 8..h].copy_from_slice(&v1_sum.to_le_bytes());
    assert_eq!(expect_rejection(&cfg, w, &bytes), "schema");
}

/// Every built-in workload's warps carry exactly the registers the kernel
/// names (1 + the highest one any instruction reads or writes), so
/// checkpoint images scale with the program, not with the ISA's 64.
#[test]
fn warp_register_files_are_program_sized() {
    for &w in WORKLOADS.iter() {
        let p = w.build(&scale());
        let highest = p
            .items
            .iter()
            .filter_map(|item| match item {
                ndp_isa::program::Item::Op(i) => {
                    i.srcs().into_iter().chain(i.dst()).map(|r| r.0).max()
                }
                _ => None,
            })
            .max()
            .expect("kernel has instructions");
        let exec = ndp_isa::exec::WarpExec::new(&p, 0, u32::MAX, 0);
        assert_eq!(exec.num_regs(), highest as usize + 1, "{}", w.name());
        assert!(exec.num_regs() < 64, "{} names every register", w.name());
    }
}

/// Restoring under a different configuration or kernel is refused by the
/// fingerprint checks — the state would not fit the rebuilt machine.
#[test]
fn config_and_kernel_mismatches_are_rejected() {
    let cfg = small_ndp();
    let bytes = snapshot_bytes(&cfg, Workload::Vadd);

    let mut other = cfg.clone();
    other.gpu.num_sms = 4;
    match System::try_restore(other, kernel_for(Workload::Vadd), &bytes) {
        Err(SimError::BadCheckpoint { check, .. }) => assert_eq!(check, "config"),
        Err(e) => panic!("expected BadCheckpoint[config], got {e}"),
        Ok(_) => panic!("config mismatch accepted"),
    }

    match System::try_restore(cfg.clone(), kernel_for(Workload::Bfs), &bytes) {
        Err(SimError::BadCheckpoint { check, .. }) => assert_eq!(check, "kernel"),
        Err(e) => panic!("expected BadCheckpoint[kernel], got {e}"),
        Ok(_) => panic!("kernel mismatch accepted"),
    }
}

/// A missing checkpoint file is a typed `read` failure.
#[test]
fn missing_file_is_a_typed_error() {
    let cfg = small_ndp();
    let path = std::path::Path::new("/nonexistent/ndp/resume.ndpckpt");
    match System::restore_from_file(cfg, kernel_for(Workload::Vadd), path) {
        Err(SimError::BadCheckpoint { check, .. }) => assert_eq!(check, "read"),
        Err(e) => panic!("expected BadCheckpoint[read], got {e}"),
        Ok(_) => panic!("missing file accepted"),
    }
}

/// Save-to-disk round trip through the atomic writer, exactly as the
/// periodic `NDP_CHECKPOINT_*` path writes it.
#[test]
fn file_round_trip_resumes_identically() {
    let cfg = small_ndp();
    let w = Workload::Fwt;
    let (gold, cycles) = golden(&cfg, w, Mode::Event, None);

    let tmp = temp_dir("ndp-ckpt-rt");
    let dir = &tmp.0;
    std::fs::create_dir_all(dir).unwrap();
    let file = dir.join("fwt.ndpckpt");

    let mut sys = fresh(&cfg, w, Mode::Event, None);
    sys.run_until(cycles / 2).expect("clean prefix");
    sys.save_checkpoint(&file).expect("atomic save");
    drop(sys);

    let r = System::restore_from_file(cfg.clone(), kernel_for(w), &file)
        .expect("file restore accepted")
        .run(MAX)
        .expect("clean tail");
    assert_eq!(format!("{r:#?}"), gold);
}

/// A wedged machine's watchdog post-mortem (`RunOptions::stall_dump`)
/// writes a checkpoint next to the stall report, and that checkpoint
/// restores into a system frozen at the stall cycle — the state a
/// post-mortem inspects.
#[test]
fn watchdog_stall_dumps_a_restorable_checkpoint() {
    let mut cfg = small_ndp();
    cfg.nsu.cmd_entries = 2;
    let w = Workload::Vadd;
    let tmp = temp_dir("ndp-stall-dump");
    let dir = &tmp.0;
    let _ = std::fs::remove_dir_all(dir);

    let mut wedge = opts(Mode::Event, None);
    wedge.watchdog = 4_096;
    wedge.stall_dump = Some(dir.clone());
    wedge.faults = Some(FaultConfig {
        withhold_credits: true,
        ..Default::default()
    });
    let r = fresh_with(&cfg, w, &wedge)
        .run(50_000)
        .expect("a wedge is a stall, not a violation");

    let stall = r.stall.as_deref().expect("watchdog fired");
    let dumped: Vec<_> = std::fs::read_dir(dir)
        .expect("dump directory created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(dumped.len(), 1, "exactly one post-mortem file: {dumped:?}");

    let restored =
        System::restore_from_file(cfg, kernel_for(w), &dumped[0]).expect("post-mortem restores");
    assert_eq!(
        restored.cycle(),
        stall.cycle,
        "post-mortem freezes the stall cycle"
    );
}
