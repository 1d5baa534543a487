//! How a run executes, as one value: everything about a run that is not
//! its `SystemConfig`. A `System` takes it when built or restored.
//!
//! [`RunOptions::from_env`] is the only place the simulator reads `NDP_*`
//! variables. The convenience constructors (`System::new`,
//! `try_with_kernel`, `try_restore`, `restore_from_file`, `run_workload`,
//! `run_matrix`) call it on every use, so a variable set between two runs
//! reaches the second.

use std::num::NonZeroU64;
use std::path::PathBuf;
use std::sync::OnceLock;

use ndp_common::env::{self, EnvError};
use ndp_common::fault::FaultConfig;
use ndp_common::ids::Cycle;
use ndp_common::watchdog::DEFAULT_WATCHDOG_CYCLES;

/// Everything about a run that is not the machine.
///
/// `skip`, `perf`, `checkpoint`, `stall_dump` and `resume` never change a
/// `RunResult`. `faults`, `watchdog`, `deep_invariants` and `obs` can, so a
/// checkpoint image carries those four and a restore takes them from the
/// image, not from the options it is given.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Event-driven execution: quiescent stages are skipped and idle spans
    /// jumped over. Results are bit-identical either way; `NDP_NO_SKIP=1`
    /// selects exhaustive per-cycle ticking.
    pub skip: bool,
    /// Deep per-token protocol checks (`NDP_DEEP_INVARIANTS`; on by default
    /// in debug builds).
    pub deep_invariants: bool,
    /// Forward-progress watchdog threshold in cycles; `None` disables it.
    pub watchdog: Option<Cycle>,
    /// Seeded fault schedule; `None` or an inactive config injects nothing.
    pub faults: Option<FaultConfig>,
    /// The observability layer: latency histograms, occupancy series and
    /// the event ring (`RunResult::obs`).
    pub obs: bool,
    /// Perf self-profiling: the per-stage host-time table
    /// (`RunResult::perf`; `NDP_PERF`).
    pub perf: bool,
    /// Periodic checkpoints: the cadence in cycles and the target, a file
    /// or a directory of per-cell files (`NDP_CHECKPOINT_EVERY` and
    /// `NDP_CHECKPOINT_PATH`).
    pub checkpoint: Option<(NonZeroU64, PathBuf)>,
    /// Directory a watchdog stall dumps its post-mortem checkpoint into
    /// (`NDP_STALL_DUMP`).
    pub stall_dump: Option<PathBuf>,
    /// Checkpoint file, or per-cell directory, that `run_workload` resumes
    /// from instead of starting fresh (`NDP_RESUME`).
    pub resume: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            skip: true,
            deep_invariants: cfg!(debug_assertions),
            watchdog: Some(DEFAULT_WATCHDOG_CYCLES),
            faults: None,
            obs: false,
            perf: false,
            checkpoint: None,
            stall_dump: None,
            resume: None,
        }
    }
}

impl RunOptions {
    /// The defaults as the process environment overrides them. Any
    /// `NDP_`-prefixed name not in `ndp_common::env::KNOWN` is refused with
    /// a did-you-mean suggestion; the names are scanned once per process,
    /// while the values are looked up again on every call.
    pub fn from_env() -> Result<RunOptions, EnvError> {
        static NAMES: OnceLock<Result<(), EnvError>> = OnceLock::new();
        NAMES
            .get_or_init(|| {
                env::check_names(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()))
            })
            .clone()?;
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// The defaults as the variables `get` returns override them: the
    /// parsing half of [`RunOptions::from_env`], over any source.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<RunOptions, EnvError> {
        let d = RunOptions::default();
        let every = env::parse::<u64>(&get, "NDP_CHECKPOINT_EVERY")?.and_then(NonZeroU64::new);
        let checkpoint = match (every, env::path(&get, "NDP_CHECKPOINT_PATH")) {
            (Some(every), Some(path)) => Some((every, path)),
            (Some(_), None) => {
                return Err(EnvError {
                    var: "NDP_CHECKPOINT_EVERY".to_string(),
                    problem: "set without NDP_CHECKPOINT_PATH".to_string(),
                })
            }
            (None, _) => None,
        };
        Ok(RunOptions {
            skip: !env::flag(&get, "NDP_NO_SKIP")?.unwrap_or(false),
            deep_invariants: env::flag(&get, "NDP_DEEP_INVARIANTS")?.unwrap_or(d.deep_invariants),
            perf: env::flag(&get, "NDP_PERF")?.unwrap_or(d.perf),
            checkpoint,
            stall_dump: env::path(&get, "NDP_STALL_DUMP"),
            resume: env::path(&get, "NDP_RESUME"),
            ..d
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(vars: &[(&str, &str)]) -> Result<RunOptions, EnvError> {
        RunOptions::from_lookup(|k| vars.iter().find(|v| v.0 == k).map(|v| v.1.to_string()))
    }

    /// The defaults with one change.
    fn with(change: impl FnOnce(&mut RunOptions)) -> RunOptions {
        let mut o = RunOptions::default();
        change(&mut o);
        o
    }

    #[test]
    fn each_variable_sets_its_field() {
        let every = NonZeroU64::new(4096).unwrap();
        let cases: [(&[(&str, &str)], RunOptions); 11] = [
            (&[], RunOptions::default()),
            (&[("NDP_NO_SKIP", "1")], with(|o| o.skip = false)),
            (&[("NDP_NO_SKIP", "0")], with(|o| o.skip = true)),
            (
                &[("NDP_DEEP_INVARIANTS", "1")],
                with(|o| o.deep_invariants = true),
            ),
            (
                &[("NDP_DEEP_INVARIANTS", "0")],
                with(|o| o.deep_invariants = false),
            ),
            (&[("NDP_PERF", "true")], with(|o| o.perf = true)),
            (
                &[("NDP_STALL_DUMP", " d ")],
                with(|o| o.stall_dump = Some("d".into())),
            ),
            (
                &[("NDP_RESUME", "ckpt")],
                with(|o| o.resume = Some("ckpt".into())),
            ),
            (
                &[
                    ("NDP_CHECKPOINT_EVERY", "4096"),
                    ("NDP_CHECKPOINT_PATH", "c"),
                ],
                with(|o| o.checkpoint = Some((every, "c".into()))),
            ),
            // A path alone, or a zero cadence, saves nothing.
            (
                &[("NDP_CHECKPOINT_EVERY", "0"), ("NDP_CHECKPOINT_PATH", "c")],
                RunOptions::default(),
            ),
            // Read by the bench harness and the golden test, not by a run.
            (
                &[
                    ("NDP_WARPS", "1"),
                    ("NDP_ITERS", "1"),
                    ("NDP_EPOCH", "1"),
                    ("NDP_STRICT_TIMEOUT", "1"),
                    ("NDP_BLESS", "1"),
                ],
                RunOptions::default(),
            ),
        ];
        for (vars, want) in cases {
            assert_eq!(opts(vars), Ok(want), "{vars:?}");
        }
    }

    #[test]
    fn malformed_and_incomplete_settings_are_errors() {
        assert_eq!(opts(&[("NDP_PERF", "yes")]).unwrap_err().var, "NDP_PERF");
        let err = opts(&[("NDP_CHECKPOINT_EVERY", "4x2")]).unwrap_err();
        assert!(err.to_string().contains("4x2"), "{err}");
        let err = opts(&[("NDP_CHECKPOINT_EVERY", "4096")]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "NDP_CHECKPOINT_EVERY: set without NDP_CHECKPOINT_PATH"
        );
    }
}
