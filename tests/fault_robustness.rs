//! Robustness-layer integration tests: the forward-progress watchdog, the
//! protocol-invariant engine, and the deterministic fault injector, working
//! together on a live system.
//!
//! The property under test: **no fault schedule produces a silent
//! `timed_out`**. Every run either completes cleanly, surfaces a typed
//! protocol violation (`Err(SimError)`), or aborts early with a structured
//! [`StallReport`] naming the starved resource.

use std::sync::Arc;

use standardized_ndp::prelude::*;

/// The small program on `cfg`, with the environment's run options (CI's
/// deep-invariant leg reaches the suite through them) as `tune` sets them.
fn system(cfg: SystemConfig, tune: impl FnOnce(&mut RunOptions)) -> System {
    let mut opts = RunOptions::from_env().expect("valid NDP_* environment");
    tune(&mut opts);
    let kernel = Arc::new(compile(&small_program(), &CompilerConfig::default()));
    System::build(cfg, kernel, &opts).expect("builtin workload builds")
}

fn small_ndp_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::naive_ndp();
    cfg.gpu.num_sms = 8;
    cfg
}

fn small_program() -> ndp_isa::program::Program {
    Workload::Vadd.build(&Scale {
        warps: 64,
        iters: 4,
    })
}

/// Withholding every NSU credit return must wedge the machine, and the
/// watchdog must catch the wedge quickly with a report naming the starved
/// credit pool — not spin silently to `max_cycles`.
#[test]
fn withheld_credits_wedge_is_detected_and_named() {
    let mut cfg = small_ndp_cfg();
    // Two command entries per HMC: the pools drain almost immediately once
    // returns stop, so the wedge (and its detection) happens early.
    cfg.nsu.cmd_entries = 2;
    let sys = system(cfg, |o| {
        o.watchdog = Some(4_096);
        o.faults = Some(FaultConfig {
            withhold_credits: true,
            ..Default::default()
        });
    });
    let r = sys
        .run(50_000)
        .expect("a wedge is a stall, not a violation");
    assert!(r.timed_out, "withheld credits must wedge the run");
    let stall = r.stall.as_deref().expect("watchdog attaches a StallReport");
    assert!(
        stall.cycle < 10_000,
        "wedge detected too late: cycle {}",
        stall.cycle
    );
    assert!(stall.stalled_for >= 4_096);
    let text = stall.to_string();
    assert!(
        text.contains("credit pool exhausted"),
        "report must name the starved credit pool:\n{text}"
    );
    assert!(
        !stall.credits.is_empty(),
        "exhausted pools must appear in the credit section"
    );
    assert!(
        stall.credits.iter().any(|c| c.in_use == c.capacity),
        "at least one pool fully drained: {:?}",
        stall.credits
    );
    let stats = r.faults.expect("injector armed → stats on the result");
    assert!(stats.credits_withheld > 0, "faults actually fired");
}

/// The no-silent-timeout property, over a family of seeded fault schedules
/// mixing drops, duplicates, and delays. Acceptable outcomes per seed:
///   1. `Err(SimError)` — a fault broke the protocol and the invariant
///      engine said exactly how;
///   2. clean completion — the machine absorbed the faults;
///   3. `timed_out` **with** a `StallReport` — the watchdog explained the
///      wedge.
///
/// A `timed_out` with no report is the one forbidden outcome.
#[test]
fn every_fault_schedule_ends_in_a_structured_outcome() {
    for seed in 0..8u64 {
        let sys = system(small_ndp_cfg(), |o| {
            o.watchdog = Some(30_000);
            o.deep_invariants = true;
            o.faults = Some(FaultConfig {
                seed,
                drop_prob: 0.01,
                dup_prob: 0.01,
                delay_prob: 0.05,
                delay_cycles: 500,
                ..Default::default()
            });
        });
        match sys.run(2_000_000) {
            Err(e) => {
                let msg = e.to_string();
                assert!(!msg.is_empty(), "seed {seed}: violation has a message");
            }
            Ok(r) if !r.timed_out => {
                assert!(r.stall.is_none(), "seed {seed}: clean run carries no stall");
                assert!(r.cycles > 0);
            }
            Ok(r) => {
                let stall = r
                    .stall
                    .as_deref()
                    .unwrap_or_else(|| panic!("seed {seed}: silent timeout — no StallReport"));
                assert!(
                    !stall.wait_for.is_empty(),
                    "seed {seed}: stall report must carry a wait-for summary"
                );
            }
        }
    }
}

/// Dropped packets are deterministic per seed: the same schedule produces
/// the same injected-fault counts on two independent runs.
#[test]
fn fault_schedules_replay_exactly_from_their_seed() {
    let run_once = || {
        let sys = system(small_ndp_cfg(), |o| {
            o.watchdog = Some(30_000);
            o.faults = Some(FaultConfig {
                seed: 3,
                drop_prob: 0.005,
                dup_prob: 0.005,
                ..Default::default()
            });
        });
        match sys.run(2_000_000) {
            Ok(r) => (true, r.faults.expect("injector armed")),
            Err(_) => (false, FaultStats::default()),
        }
    };
    let (ok_a, a) = run_once();
    let (ok_b, b) = run_once();
    assert_eq!(ok_a, ok_b, "same schedule, same outcome class");
    assert_eq!(a, b, "same schedule, same fault occurrence counts");
    if ok_a {
        assert!(
            a.dropped + a.duplicated > 0,
            "schedule at these probabilities should fire at least once: {a:?}"
        );
    }
}

/// With deep invariant checking and the watchdog armed but **no** faults,
/// a healthy run completes exactly as before: no stall report, no
/// violations, and the protocol counters balance at drain.
#[test]
fn clean_run_passes_deep_invariants_with_watchdog_armed() {
    let sys = system(small_ndp_cfg(), |o| {
        o.watchdog = Some(10_000);
        o.deep_invariants = true;
    });
    let r = sys.run(2_000_000).expect("clean run violates nothing");
    assert!(!r.timed_out, "healthy machine must drain");
    assert!(r.stall.is_none(), "no stall report on a clean run");
    assert!(r.offloaded > 0, "NDP path exercised");
}

/// Baseline (no NDP traffic) also stays clean under deep checks — the
/// invariant engine must not demand NDP counters from a machine that never
/// offloads.
#[test]
fn baseline_run_is_clean_under_deep_invariants() {
    let mut cfg = SystemConfig::baseline();
    cfg.gpu.num_sms = 8;
    let sys = system(cfg, |o| {
        o.watchdog = Some(10_000);
        o.deep_invariants = true;
    });
    let r = sys.run(2_000_000).expect("baseline violates nothing");
    assert!(!r.timed_out);
    assert!(r.stall.is_none());
}
