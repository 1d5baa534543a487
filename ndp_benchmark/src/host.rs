//! What produced a result (the manifest) and host-side readings from
//! `/proc`.

use std::process::Command;

use serde::Serialize;

/// Stamped on every output: which tree, which inputs, which host.
#[derive(Debug, Clone, Serialize)]
pub struct Manifest {
    pub rev: String,
    pub dirty: bool,
    pub workload: String,
    pub seed: u64,
    pub nproc: usize,
    pub workers: usize,
    pub host: String,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(rev, dirty)` of the git tree in the current directory, or
/// `("unknown", false)` outside one. Git is pointed at `./.git` so it never
/// climbs into a repository above the current directory.
pub fn git_state() -> (String, bool) {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(["--git-dir=.git", "--work-tree=."])
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            (rev, dirty)
        }
        _ => ("unknown".to_string(), false),
    }
}

pub fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run-queue wait of every live thread of this process, keyed by thread
/// id, in nanoseconds (second field of `/proc/self/task/*/schedstat`).
pub fn runq_wait_ns() -> Vec<(u64, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid = e.file_name().to_str()?.parse::<u64>().ok()?;
        let stat = std::fs::read_to_string(e.path().join("schedstat")).ok()?;
        let wait = stat.split_whitespace().nth(1)?.parse::<u64>().ok()?;
        Some((tid, wait))
    })
    .collect()
}
