//! Figure-regeneration harness. Every table and figure of the paper is a
//! [`figures::Figure`] that declares its simulation cells on one
//! [`Plan`]; the plan simulates each distinct cell once and every figure
//! renders its text from the results. The `figures` binary runs them (see
//! DESIGN.md §4). The simulator's host performance is measured by the
//! benchmark in `ndp_benchmark/`, which the `bench_ab` binary runs as a
//! same-host A/B of two revisions.

#![forbid(unsafe_code)]

pub mod figures;
mod plan;

pub use plan::{Outcome, Plan};

use ndp_common::env::{self, EnvError};
use ndp_workloads::Scale;

/// Where the harness reads its own variables from: the process
/// environment, or a fixed table in tests. (A run's own options are read by
/// `ndp_core::RunOptions::from_env`.)
type Lookup = fn(&str) -> Option<String>;

fn process_env(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

/// A harness variable's value, or `default` when unset. A malformed one
/// stops the binary: a misconfigured run must not proceed with defaults.
fn or_die<T>(parsed: Result<Option<T>, EnvError>, default: T) -> T {
    parsed.unwrap_or_else(|e| panic!("{e}")).unwrap_or(default)
}

/// The problem scale of `figures` and `obs_report` runs: `Scale::eval()`,
/// overridden by `NDP_WARPS` / `NDP_ITERS`.
pub fn harness_scale() -> Scale {
    scale_from(process_env)
}

/// The Algorithm 1 epoch length of harness runs: `NDP_EPOCH` cycles,
/// 30,000 by default, the paper's value (§7.2). A shorter epoch gives a run
/// more epochs: `run_all_results.sh` sets 2,000, which gives the recorded
/// scale's kernels (about 28,000 Baseline cycles each on average) enough
/// epochs for the hill climber to move.
pub fn harness_epoch() -> u64 {
    epoch_from(process_env)
}

fn epoch_from(get: Lookup) -> u64 {
    or_die(env::parse(get, "NDP_EPOCH"), 30_000)
}

fn scale_from(get: Lookup) -> Scale {
    let eval = Scale::eval();
    Scale {
        warps: or_die(env::parse(get, "NDP_WARPS"), eval.warps),
        iters: or_die(env::parse(get, "NDP_ITERS"), eval.iters),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_variables_set_scale_and_epoch() {
        let unset: Lookup = |_| None;
        assert_eq!(scale_from(unset).warps, Scale::eval().warps);
        assert_eq!(epoch_from(unset), 30_000);
        let set: Lookup = |k| {
            let v = [
                ("NDP_WARPS", "96"),
                ("NDP_ITERS", "2"),
                ("NDP_EPOCH", "5000"),
            ];
            v.iter().find(|v| v.0 == k).map(|v| v.1.to_string())
        };
        let s = scale_from(set);
        assert_eq!((s.warps, s.iters), (96, 2));
        assert_eq!(epoch_from(set), 5_000);
    }

    #[test]
    #[should_panic(expected = "NDP_WARPS")]
    fn malformed_harness_variable_is_fatal() {
        scale_from(|_| Some("96k".into()));
    }
}
