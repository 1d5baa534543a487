//! Centralized `NDP_*` environment-variable parsing.
//!
//! Every knob the simulator reads from the environment is declared in
//! [`KNOWN`] and parsed through the typed helpers here. Malformed values
//! produce a loud [`EnvError`] naming the variable and the offending text
//! instead of the silent `.ok()` fallbacks that used to be scattered across
//! `invariant.rs`, `fault.rs`, `system.rs` and the bench binaries.
//! `ndp-lint` additionally scans the process environment for unknown
//! `NDP_`-prefixed names and reports them as likely typos.

use std::fmt;
use std::str::FromStr;

/// A malformed environment variable: the name, the raw value, and what the
/// parser expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    pub var: &'static str,
    pub value: String,
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Parse `var` as a `T`. `Ok(None)` when unset; `Err` when set but
/// unparseable (never a silent fallback).
pub fn parse<T: FromStr>(var: &'static str) -> Result<Option<T>, EnvError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => match raw.trim().parse::<T>() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(EnvError {
                var,
                value: raw,
                expected: "a number",
            }),
        },
    }
}

/// Parse `var` as a boolean flag. Accepts `0`/`1`/`true`/`false`
/// (case-insensitive). `Ok(None)` when unset.
pub fn flag(var: &'static str) -> Result<Option<bool>, EnvError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "true" => Ok(Some(true)),
            "0" | "false" => Ok(Some(false)),
            _ => Err(EnvError {
                var,
                value: raw,
                expected: "0, 1, true or false",
            }),
        },
    }
}

/// [`parse`] for construction paths that have no `Result` channel: a
/// malformed value panics with the typed message (a misconfigured run must
/// not silently proceed with defaults).
pub fn parse_or_die<T: FromStr>(var: &'static str) -> Option<T> {
    match parse(var) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// [`flag`] with the same panic-on-malformed policy as [`parse_or_die`].
pub fn flag_or_die(var: &'static str) -> Option<bool> {
    match flag(var) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Read `var` as a free-form string (file-system paths and the like —
/// anything non-empty is valid, so there is no error channel). `None`
/// when unset or blank.
pub fn string(var: &'static str) -> Option<String> {
    std::env::var(var)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Every environment variable the simulator understands, with a one-line
/// description. `ndp-lint` treats any other `NDP_`-prefixed name as a
/// likely typo.
pub const KNOWN: &[(&str, &str)] = &[
    (
        "NDP_WATCHDOG",
        "forward-progress watchdog threshold in cycles (0 disables)",
    ),
    (
        "NDP_DEEP_INVARIANTS",
        "force deep per-token invariant checking on (1) or off (0)",
    ),
    ("NDP_FAULT_SEED", "fault-injector RNG seed (u64)"),
    ("NDP_FAULT_DROP", "per-packet drop probability (f64)"),
    ("NDP_FAULT_DUP", "per-packet duplication probability (f64)"),
    ("NDP_FAULT_DELAY_P", "per-packet delay probability (f64)"),
    (
        "NDP_FAULT_DELAY_CYCLES",
        "cycles a delayed packet is held (u64)",
    ),
    (
        "NDP_FAULT_WITHHOLD_CREDITS",
        "swallow NSU credit returns (wedge test)",
    ),
    ("NDP_WARPS", "bench harness warp-count override (u32)"),
    ("NDP_ITERS", "bench harness iteration-count override (u32)"),
    (
        "NDP_EPOCH",
        "offload-controller epoch override in cycles (u64)",
    ),
    (
        "NDP_STRICT_TIMEOUT",
        "bench harness: treat timeouts as fatal (flag)",
    ),
    (
        "NDP_BLESS",
        "golden-determinism test: rewrite the golden files (flag)",
    ),
    (
        "NDP_PERF",
        "enable the simulator's perf self-profiling layer (flag)",
    ),
    (
        "NDP_PERF_STRIDE",
        "pipeline passes between wall-clock-sampled passes (u64, default 64)",
    ),
    (
        "NDP_PERF_HEARTBEAT",
        "cycles between perf heartbeat snapshots (u64; 0 disables)",
    ),
    (
        "NDP_PERF_STDERR",
        "print each perf heartbeat to stderr as it is taken (flag)",
    ),
    (
        "NDP_PERF_TOL",
        "bench_baseline --check: allowed throughput regression fraction (f64, default 0.15)",
    ),
    (
        "NDP_NO_SKIP",
        "disable quiescence-aware stage skipping and next-event jumps (flag)",
    ),
    (
        "NDP_CHECKPOINT_EVERY",
        "cycles between periodic checkpoints (u64; 0 disables; requires NDP_CHECKPOINT_PATH)",
    ),
    (
        "NDP_CHECKPOINT_PATH",
        "checkpoint target: a file, or a directory for per-workload files",
    ),
    (
        "NDP_RESUME",
        "resume from a checkpoint file (or per-workload directory) instead of starting fresh",
    ),
    (
        "NDP_STALL_DUMP",
        "directory to dump a post-mortem checkpoint into when the watchdog fires",
    ),
];

/// `NDP_`-prefixed variables set in the process environment that are not in
/// [`KNOWN`], each paired with the closest known name (edit distance ≤ 3)
/// as a "did you mean" suggestion.
pub fn unknown_ndp_vars() -> Vec<(String, Option<&'static str>)> {
    let mut out: Vec<(String, Option<&'static str>)> = std::env::vars()
        .filter(|(name, _)| name.starts_with("NDP_"))
        .filter(|(name, _)| KNOWN.iter().all(|(k, _)| k != name))
        .map(|(name, _)| {
            let suggestion = KNOWN
                .iter()
                .map(|(k, _)| (*k, edit_distance(&name, k)))
                .filter(|(_, d)| *d <= 3)
                .min_by_key(|(_, d)| *d)
                .map(|(k, _)| k);
            (name, suggestion)
        })
        .collect();
    out.sort();
    out
}

/// Levenshtein distance, used only for typo suggestions on the handful of
/// `NDP_*` names — O(|a|·|b|) is fine at that scale.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var mutation is process-global; use names no other test reads and
    // restore afterwards.

    #[test]
    fn parse_typed_and_absent() {
        assert_eq!(parse::<u64>("NDP_TEST_UNSET_XYZ"), Ok(None));
        std::env::set_var("NDP_TEST_PARSE_A", "42");
        assert_eq!(parse::<u64>("NDP_TEST_PARSE_A"), Ok(Some(42)));
        std::env::set_var("NDP_TEST_PARSE_A", "4x2");
        let err = parse::<u64>("NDP_TEST_PARSE_A").unwrap_err();
        assert_eq!(err.var, "NDP_TEST_PARSE_A");
        assert!(err.to_string().contains("4x2"), "{err}");
        std::env::remove_var("NDP_TEST_PARSE_A");
    }

    #[test]
    fn flag_accepts_bool_spellings() {
        std::env::set_var("NDP_TEST_FLAG_B", "TRUE");
        assert_eq!(flag("NDP_TEST_FLAG_B"), Ok(Some(true)));
        std::env::set_var("NDP_TEST_FLAG_B", "0");
        assert_eq!(flag("NDP_TEST_FLAG_B"), Ok(Some(false)));
        std::env::set_var("NDP_TEST_FLAG_B", "yes");
        assert!(flag("NDP_TEST_FLAG_B").is_err());
        std::env::remove_var("NDP_TEST_FLAG_B");
    }

    #[test]
    fn typo_detection_suggests_nearest_known() {
        std::env::set_var("NDP_WATCHDOk", "100");
        let unknown = unknown_ndp_vars();
        let hit = unknown
            .iter()
            .find(|(name, _)| name == "NDP_WATCHDOk")
            .expect("typo var reported");
        assert_eq!(hit.1, Some("NDP_WATCHDOG"));
        std::env::remove_var("NDP_WATCHDOk");
    }

    #[test]
    fn typo_detection_covers_perf_knobs() {
        // The perf surface is registered: NDP_PERF itself is known (not a
        // typo), and a misspelled perf knob suggests the real one.
        assert!(KNOWN.iter().any(|(k, _)| *k == "NDP_PERF"));
        std::env::set_var("NDP_PERF_STRIDES", "32");
        let unknown = unknown_ndp_vars();
        let hit = unknown
            .iter()
            .find(|(name, _)| name == "NDP_PERF_STRIDES")
            .expect("typoed perf knob reported");
        assert_eq!(hit.1, Some("NDP_PERF_STRIDE"));
        std::env::remove_var("NDP_PERF_STRIDES");
    }

    #[test]
    fn typo_detection_covers_event_core_knobs() {
        // The event-driven-core surface is registered: the real name is
        // known (not a typo), and a misspelled knob suggests the real one.
        assert!(KNOWN.iter().any(|(n, _)| *n == "NDP_NO_SKIP"));
        std::env::set_var("NDP_NO_SKP", "1");
        let unknown = unknown_ndp_vars();
        let hit = unknown
            .iter()
            .find(|(name, _)| name == "NDP_NO_SKP")
            .expect("typoed event-core knob reported");
        assert_eq!(hit.1, Some("NDP_NO_SKIP"));
        std::env::remove_var("NDP_NO_SKP");
    }

    #[test]
    fn retired_threading_knob_is_reported_as_unknown() {
        // Intra-cycle threading was removed (DESIGN.md §16); a stale
        // script that still sets its knob must be flagged rather than
        // silently ignored. Spelled in two parts so that a search for the
        // retired name finds only the design note.
        let stale = ["NDP_", "PARALLEL"].concat();
        std::env::set_var(&stale, "1");
        let unknown = unknown_ndp_vars();
        std::env::remove_var(&stale);
        assert!(
            unknown.iter().any(|(name, _)| *name == stale),
            "{unknown:?}"
        );
    }

    #[test]
    fn typo_detection_covers_checkpoint_knobs() {
        // The checkpoint/resume surface is registered: the real names are
        // known (not typos), and a misspelled knob suggests the real one.
        for k in [
            "NDP_CHECKPOINT_EVERY",
            "NDP_CHECKPOINT_PATH",
            "NDP_RESUME",
            "NDP_STALL_DUMP",
        ] {
            assert!(KNOWN.iter().any(|(n, _)| *n == k), "{k} unregistered");
        }
        std::env::set_var("NDP_RESUM", "ckpt.bin");
        let unknown = unknown_ndp_vars();
        let hit = unknown
            .iter()
            .find(|(name, _)| name == "NDP_RESUM")
            .expect("typoed checkpoint knob reported");
        assert_eq!(hit.1, Some("NDP_RESUME"));
        std::env::remove_var("NDP_RESUM");
    }

    #[test]
    fn string_vars_pass_through_trimmed() {
        assert_eq!(string("NDP_TEST_STR_UNSET"), None);
        std::env::set_var("NDP_TEST_STR_C", "  /tmp/x.ckpt ");
        assert_eq!(string("NDP_TEST_STR_C").as_deref(), Some("/tmp/x.ckpt"));
        std::env::set_var("NDP_TEST_STR_C", "   ");
        assert_eq!(string("NDP_TEST_STR_C"), None, "blank counts as unset");
        std::env::remove_var("NDP_TEST_STR_C");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("NDP_WARP", "NDP_WARPS"), 1);
    }
}
