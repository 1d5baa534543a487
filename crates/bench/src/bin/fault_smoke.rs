//! `fault_smoke` — robustness smoke test: wedge the credit protocol on
//! purpose and verify the watchdog diagnoses it.
//!
//! The run arms the deterministic fault injector in withhold-credits mode
//! (every NSU credit return is discarded), shrinks the command buffer so
//! the pools drain almost immediately, and arms the forward-progress
//! watchdog. A healthy robustness layer aborts the run early and attaches
//! a [`StallReport`] naming the starved credit pool; the report is printed
//! in full.
//!
//! Exit status: `0` when the wedge was detected and correctly diagnosed,
//! `1` otherwise — so CI can gate on it.
//!
//! Usage: `fault_smoke` (no arguments).

use std::sync::Arc;

use ndp_common::config::SystemConfig;
use ndp_common::fault::FaultConfig;
use ndp_compiler::{compile, CompilerConfig};
use ndp_core::system::System;
use ndp_core::RunOptions;
use ndp_workloads::{Scale, Workload};

/// Watchdog threshold in cycles: far below the time the wedge leaves
/// before the cycle cap, far above any healthy quiet spell.
const THRESHOLD: u64 = 4_096;

fn main() {
    let mut cfg = SystemConfig::naive_ndp();
    cfg.gpu.num_sms = 8;
    cfg.nsu.cmd_entries = 2;
    let program = Workload::Vadd.build(&Scale {
        warps: 64,
        iters: 4,
    });

    let opts = RunOptions {
        watchdog: Some(THRESHOLD),
        faults: Some(FaultConfig {
            withhold_credits: true,
            ..Default::default()
        }),
        ..RunOptions::from_env().unwrap_or_else(|e| panic!("{e}"))
    };
    let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
    let sys = System::build(cfg, kernel, &opts).expect("builtin workload builds");

    println!(
        "fault_smoke: withholding all NSU credit returns, watchdog threshold {THRESHOLD} cycles"
    );
    let r = match sys.run(200_000) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: expected a stall, got a protocol violation: {e}");
            std::process::exit(1);
        }
    };

    let Some(stall) = r.stall.as_deref() else {
        eprintln!(
            "FAIL: run {} without a StallReport (cycles {})",
            if r.timed_out {
                "timed out"
            } else {
                "completed"
            },
            r.cycles
        );
        std::process::exit(1);
    };

    println!("{stall}");
    if let Some(f) = r.faults {
        println!(
            "injected faults: {} credit returns withheld",
            f.credits_withheld
        );
    }

    let named = stall.to_string().contains("credit pool exhausted");
    let drained = stall.credits.iter().any(|c| c.in_use == c.capacity);
    if !r.timed_out || !named || !drained {
        eprintln!(
            "FAIL: diagnosis incomplete (timed_out={}, pool named={named}, pool drained={drained})",
            r.timed_out
        );
        std::process::exit(1);
    }
    println!(
        "OK: wedge detected at cycle {} ({} cycles without progress)",
        stall.cycle, stall.stalled_for
    );
}
