//! Simulation statistics: traffic classes, cache counters, no-issue cycle
//! attribution (Fig. 8), and small numeric helpers for reports.

use serde::Serialize;

/// Where bytes moved — the four energy/traffic domains of Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// GPU↔HMC off-chip links (the scarce resource the paper protects).
    GpuLink,
    /// HMC↔HMC memory-network links.
    Memnet,
    /// Intra-HMC logic-layer crossbar (vaults ↔ I/O ↔ NSU).
    IntraHmc,
    /// On-die GPU interconnect (SM ↔ L2 slices).
    GpuOnDie,
}

/// Why an SM issue slot went unused in a cycle (Fig. 8 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoIssue {
    /// The required execution unit was busy.
    ExecUnitBusy,
    /// An operand was not ready (includes cache/DRAM latency).
    DependencyStall,
    /// No valid instruction: empty warp, synchronization, or — under NDP —
    /// warps blocked on an offload acknowledgment.
    WarpIdle,
}

/// Per-SM issue statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IssueStats {
    pub issued: u64,
    pub exec_unit_busy: u64,
    pub dependency_stall: u64,
    pub warp_idle: u64,
}

crate::snap_value!(IssueStats {
    issued,
    exec_unit_busy,
    dependency_stall,
    warp_idle
});

impl IssueStats {
    pub fn no_issue_total(&self) -> u64 {
        self.exec_unit_busy + self.dependency_stall + self.warp_idle
    }

    pub fn record_no_issue(&mut self, why: NoIssue) {
        match why {
            NoIssue::ExecUnitBusy => self.exec_unit_busy += 1,
            NoIssue::DependencyStall => self.dependency_stall += 1,
            NoIssue::WarpIdle => self.warp_idle += 1,
        }
    }

    pub fn merge(&mut self, other: &IssueStats) {
        self.issued += other.issued;
        self.exec_unit_busy += other.exec_unit_busy;
        self.dependency_stall += other.dependency_stall;
        self.warp_idle += other.warp_idle;
    }
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    pub read_hits: u64,
    pub read_misses: u64,
    pub writes: u64,
    pub invalidations: u64,
}

crate::snap_value!(CacheStats {
    read_hits,
    read_misses,
    writes,
    invalidations
});

impl CacheStats {
    pub fn read_accesses(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    pub fn read_hit_rate(&self) -> f64 {
        if self.read_accesses() == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.read_accesses() as f64
        }
    }

    pub fn merge(&mut self, o: &CacheStats) {
        self.read_hits += o.read_hits;
        self.read_misses += o.read_misses;
        self.writes += o.writes;
        self.invalidations += o.invalidations;
    }
}

/// DRAM activity counters (for energy: activations at 11.8 nJ/4 KB row,
/// column reads at 4 pJ/bit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DramStats {
    pub activations: u64,
    pub col_reads: u64,
    pub col_writes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
}

crate::snap_value!(DramStats {
    activations,
    col_reads,
    col_writes,
    read_bytes,
    write_bytes
});

impl DramStats {
    pub fn merge(&mut self, o: &DramStats) {
        self.activations += o.activations;
        self.col_reads += o.col_reads;
        self.col_writes += o.col_writes;
        self.read_bytes += o.read_bytes;
        self.write_bytes += o.write_bytes;
    }
}

/// Geometric mean (used for GMEAN columns). Returns `None` on an empty
/// slice or when any value is non-positive (where the geomean is
/// undefined), so sweep/report generation degrades to "n/a" instead of
/// aborting a whole run.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|&v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean. Returns `None` on an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_stats_attribution() {
        let mut s = IssueStats::default();
        s.record_no_issue(NoIssue::ExecUnitBusy);
        s.record_no_issue(NoIssue::DependencyStall);
        s.record_no_issue(NoIssue::DependencyStall);
        s.record_no_issue(NoIssue::WarpIdle);
        assert_eq!(s.no_issue_total(), 4);
        assert_eq!(s.dependency_stall, 2);
    }

    #[test]
    fn cache_hit_rate() {
        let s = CacheStats {
            read_hits: 45,
            read_misses: 55,
            ..Default::default()
        };
        assert!((s.read_hit_rate() - 0.45).abs() < 1e-12);
        assert_eq!(CacheStats::default().read_hit_rate(), 0.0);
    }

    #[test]
    fn geomean_matches_known_values() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_yield_none_not_panic() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = DramStats {
            activations: 1,
            col_reads: 2,
            col_writes: 3,
            read_bytes: 4,
            write_bytes: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.activations, 2);
        assert_eq!(a.write_bytes, 10);
    }
}
