//! The `NDP_*` environment-variable registry and its typed parsers.
//!
//! Every variable the simulator and its harness understand is declared in
//! [`KNOWN`]. The parsers here are pure: each takes a lookup function and
//! never reads the process environment itself. The simulator reads its
//! environment in one place, `ndp_core::RunOptions::from_env`, which also
//! rejects any `NDP_`-prefixed name missing from [`KNOWN`] (see
//! [`check_names`]); the bench harness reads its own scale and epoch
//! variables through the same parsers.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// A rejected environment variable: its name and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    pub var: String,
    pub problem: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.var, self.problem)
    }
}

impl std::error::Error for EnvError {}

fn malformed(var: &str, raw: &str, expected: &str) -> EnvError {
    EnvError {
        var: var.to_string(),
        problem: format!("{raw:?} is not {expected}"),
    }
}

/// Parse `var` as a `T`. `Ok(None)` when unset; `Err` when set but
/// unparseable (never a silent fallback).
pub fn parse<T: FromStr>(
    get: impl Fn(&str) -> Option<String>,
    var: &str,
) -> Result<Option<T>, EnvError> {
    match get(var) {
        None => Ok(None),
        Some(raw) => match raw.trim().parse::<T>() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(malformed(var, &raw, "a number")),
        },
    }
}

/// Parse `var` as a boolean flag. Accepts `0`/`1`/`true`/`false`
/// (case-insensitive). `Ok(None)` when unset.
pub fn flag(get: impl Fn(&str) -> Option<String>, var: &str) -> Result<Option<bool>, EnvError> {
    match get(var) {
        None => Ok(None),
        Some(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "true" => Ok(Some(true)),
            "0" | "false" => Ok(Some(false)),
            _ => Err(malformed(var, &raw, "0, 1, true or false")),
        },
    }
}

/// Read `var` as a file-system path (anything non-empty is valid, so there
/// is no error channel). `None` when unset or blank.
pub fn path(get: impl Fn(&str) -> Option<String>, var: &str) -> Option<PathBuf> {
    get(var)
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// Every environment variable the simulator and its harness understand
/// (README.md describes each). Any other `NDP_`-prefixed name is refused.
pub const KNOWN: [&str; 10] = [
    // Run options, read by `ndp_core::RunOptions::from_env`.
    "NDP_NO_SKIP",
    "NDP_PERF",
    "NDP_CHECKPOINT_EVERY",
    "NDP_CHECKPOINT_PATH",
    "NDP_RESUME",
    "NDP_STALL_DUMP",
    // The bench harness's scale and epoch (`ndp_bench`).
    "NDP_WARPS",
    "NDP_ITERS",
    "NDP_EPOCH",
    // Re-blesses `tests/golden_determinism.rs`.
    "NDP_BLESS",
];

/// Refuse every `NDP_`-prefixed name that is not in [`KNOWN`], each with
/// the closest known name (edit distance ≤ 3) as a suggestion. A misspelled
/// or retired variable would otherwise do nothing, silently. The one error
/// names the first unknown variable (in sorted order) as `var`; its
/// `problem` continues with `; NAME: problem` for each of the others.
pub fn check_names(names: impl IntoIterator<Item = String>) -> Result<(), EnvError> {
    let mut unknown: Vec<String> = names
        .into_iter()
        .filter(|name| name.starts_with("NDP_") && !KNOWN.contains(&name.as_str()))
        .collect();
    unknown.sort();
    let mut unknown = unknown.into_iter().map(|var| {
        let problem = match KNOWN
            .iter()
            .map(|k| (*k, edit_distance(&var, k)))
            .filter(|(_, d)| *d <= 3)
            .min_by_key(|(_, d)| *d)
        {
            Some((k, _)) => format!("not a known variable (did you mean {k}?)"),
            None => "not a known variable (ndp_common::env::KNOWN lists them)".to_string(),
        };
        EnvError { var, problem }
    });
    let Some(mut err) = unknown.next() else {
        return Ok(());
    };
    for other in unknown {
        err.problem += &format!("; {other}");
    }
    Err(err)
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

    /// A lookup over a fixed table, standing in for the process
    /// environment.
    fn table<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            vars.iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.to_string())
        }
    }

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_typed_and_absent() {
        let get = table(&[("NDP_A", "42"), ("NDP_B", "4x2")]);
        assert_eq!(parse::<u64>(&get, "NDP_UNSET"), Ok(None));
        assert_eq!(parse::<u64>(&get, "NDP_A"), Ok(Some(42)));
        let err = parse::<u64>(&get, "NDP_B").unwrap_err();
        assert_eq!(err.var, "NDP_B");
        assert!(err.to_string().contains("4x2"), "{err}");
    }

    #[test]
    fn flag_accepts_bool_spellings() {
        for (raw, want) in [
            ("TRUE", true),
            ("1", true),
            ("0", false),
            (" false ", false),
        ] {
            assert_eq!(flag(table(&[("NDP_F", raw)]), "NDP_F"), Ok(Some(want)));
        }
        assert!(flag(table(&[("NDP_F", "yes")]), "NDP_F").is_err());
        assert_eq!(flag(table(&[]), "NDP_F"), Ok(None));
    }

    #[test]
    fn paths_pass_through_trimmed() {
        assert_eq!(path(table(&[]), "NDP_P"), None);
        assert_eq!(
            path(table(&[("NDP_P", "  /tmp/x.ckpt ")]), "NDP_P"),
            Some(PathBuf::from("/tmp/x.ckpt"))
        );
        assert_eq!(
            path(table(&[("NDP_P", "   ")]), "NDP_P"),
            None,
            "blank counts as unset"
        );
    }

    #[test]
    fn known_and_foreign_names_pass() {
        assert!(check_names(names(&KNOWN)).is_ok());
        assert!(
            check_names(names(&["PATH", "HOME", "CARGO_PKG_NAME"])).is_ok(),
            "only NDP_ names are checked"
        );
    }

    #[test]
    fn typo_detection_suggests_nearest_known() {
        for (typo, known) in [("NDP_NO_SKP", "NDP_NO_SKIP"), ("NDP_RESUM", "NDP_RESUME")] {
            let err = check_names(names(&["NDP_PERF", typo])).unwrap_err();
            assert_eq!(err.var, typo);
            assert!(
                err.problem.contains(&format!("did you mean {known}?")),
                "{err}"
            );
        }
        // Two typos at once: one error that names both, each with its own
        // suggestion, so fixing one does not just uncover the next.
        let err = check_names(names(&["NDP_RESUM", "NDP_PERF", "NDP_NO_SKP"])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "NDP_NO_SKP: not a known variable (did you mean NDP_NO_SKIP?); \
             NDP_RESUM: not a known variable (did you mean NDP_RESUME?)"
        );
    }

    #[test]
    fn typo_detection_covers_perf_knobs() {
        // NDP_PERF itself is known (not a typo), and a misspelling of it
        // suggests the real name.
        assert!(check_names(names(&["NDP_PERF"])).is_ok());
        let err = check_names(names(&["NDP_PREF"])).unwrap_err();
        assert_eq!(err.var, "NDP_PREF");
        assert!(err.problem.contains("did you mean NDP_PERF?"), "{err}");
    }

    #[test]
    fn retired_knobs_are_refused() {
        // A stale script's retired variable fails loudly instead of
        // silently doing nothing.
        for stale in [
            "NDP_PARALLEL",
            "NDP_WATCHDOG",
            "NDP_FAULT_DROP",
            "NDP_PERF_TOL",
            "NDP_DEEP_INVARIANTS",
        ] {
            assert_eq!(check_names(names(&[stale])).unwrap_err().var, stale);
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("NDP_WARP", "NDP_WARPS"), 1);
    }
}
