//! Differential equivalence for the event-driven core (DESIGN.md §12).
//!
//! Quiescence-aware stage skipping and next-event time jumps are
//! *execution strategies*, not model changes: a skipping run must produce
//! byte-for-byte the same `RunResult` as an exhaustive per-cycle run —
//! same cycle count, same stall statistics, same byte totals, same fault
//! outcomes. These tests pin that contract across every workload, both
//! bench scales, and a fault-injection seed.
//!
//! Modes are selected with [`RunOptions::skip`] rather than `NDP_NO_SKIP`:
//! env vars are process-global and tests run concurrently.

use std::sync::Arc;

use standardized_ndp::prelude::*;

const MAX: u64 = 30_000_000;

/// `w` at `scale` on `cfg`, with the environment's run options (CI's
/// deep-invariant leg reaches the suite through them) as `tune` sets them.
fn system(cfg: SystemConfig, w: Workload, scale: &Scale, tune: impl Fn(&mut RunOptions)) -> System {
    let mut opts = RunOptions::from_env().expect("valid NDP_* environment");
    tune(&mut opts);
    let kernel = Arc::new(compile(&w.build(scale), &CompilerConfig::default()));
    System::build(cfg, kernel, &opts).expect("builtin workload builds")
}

fn run_mode(
    cfg: &SystemConfig,
    w: Workload,
    scale: &Scale,
    num_sms: usize,
    skip: bool,
) -> RunResult {
    let mut cfg = cfg.clone();
    cfg.gpu.num_sms = num_sms;
    let sys = system(cfg, w, scale, |o| o.skip = skip);
    let r = sys.run(MAX).expect("no protocol violation");
    assert!(!r.timed_out, "{} timed out", w.name());
    r
}

/// Per-cycle (skip off) and event-driven (skip on) runs must agree byte
/// for byte.
fn assert_equivalent(cfg: &SystemConfig, w: Workload, scale: &Scale, num_sms: usize) {
    let base = run_mode(cfg, w, scale, num_sms, false);
    let alt = run_mode(cfg, w, scale, num_sms, true);
    assert_eq!(base.cycles, alt.cycles, "{}: cycle count drifted", w.name());
    assert_eq!(
        format!("{base:#?}"),
        format!("{alt:#?}"),
        "{}: RunResult diverged between per-cycle and event-driven execution",
        w.name()
    );
}

const SMALL: Scale = Scale {
    warps: 64,
    iters: 4,
};
const SCALE: Scale = Scale {
    warps: 256,
    iters: 8,
};

/// Every workload at the fig7-small scale: skipping on vs off must be
/// byte-identical under the NDP config that exercises the full machine
/// (NSU clock domain, offload protocol, memory network).
#[test]
fn skip_equivalence_all_workloads_small() {
    for w in WORKLOADS {
        assert_equivalent(&SystemConfig::ndp_dynamic_cache(), w, &SMALL, 8);
    }
}

/// Every workload at the fig7-scale scale (16 SMs, 256 warps × 8 iters):
/// the long-idle-span regime where next-event jumps actually fire.
#[test]
fn skip_equivalence_all_workloads_scale() {
    for w in WORKLOADS {
        assert_equivalent(&SystemConfig::ndp_dynamic_cache(), w, &SCALE, 16);
    }
}

/// The gated-forever path (baseline: NSU stages never open) and the
/// always-offload path must also be skip-invariant.
#[test]
fn skip_equivalence_other_configs() {
    for cfg in [SystemConfig::baseline(), SystemConfig::naive_ndp()] {
        for w in [Workload::Vadd, Workload::Bfs, Workload::Bprop] {
            assert_equivalent(&cfg, w, &SMALL, 8);
        }
    }
}

/// Seeded fault injection replayed under both execution strategies: the
/// injector's decisions are pure functions of (seed, edge, packet), so the
/// exact same faults must fire whether cycles are ticked or jumped.
///
/// Two seeds: a delay-only schedule (protocol-transparent, the run drains
/// and the full `RunResult` including fault stats must be byte-identical)
/// and a drop/duplicate schedule (the protocol engine is *expected* to
/// object — but it must object identically in both modes).
#[test]
fn fault_seed_equivalence() {
    let outcome = |faults: FaultConfig, skip: bool| {
        let mut cfg = SystemConfig::ndp_dynamic_cache();
        cfg.gpu.num_sms = 8;
        let sys = system(cfg, Workload::Vadd, &SMALL, |o| {
            o.skip = skip;
            o.faults = Some(faults);
        });
        match sys.run(MAX) {
            Ok(r) => format!("OK\n{r:#?}"),
            Err(e) => format!("ERR\n{e:?}"),
        }
    };

    let delays = FaultConfig {
        seed: 0xFEED_5EED,
        delay_prob: 0.02,
        delay_cycles: 64,
        ..Default::default()
    };
    let base = outcome(delays, false);
    assert!(
        base.starts_with("OK") && base.contains("delay_holds"),
        "delay-only schedule must drain cleanly with faults recorded"
    );
    let lossy = FaultConfig {
        seed: 3,
        drop_prob: 0.005,
        dup_prob: 0.005,
        ..Default::default()
    };
    assert_eq!(base, outcome(delays, true), "delayed run diverged");
    assert_eq!(
        outcome(lossy, false),
        outcome(lossy, true),
        "lossy run outcome diverged"
    );
}
