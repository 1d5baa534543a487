//! Simulation results: everything the figure drivers need.

use ndp_common::fault::FaultStats;
use ndp_common::obs::perf::PerfReport;
use ndp_common::obs::ObsReport;
use ndp_common::stats::{CacheStats, DramStats, IssueStats};
use ndp_common::watchdog::StallReport;
use ndp_energy::{Activity, EnergyBreakdown, EnergyParams};
use serde::Serialize;

/// Aggregated outcome of one simulation run.
#[derive(Clone, Default, PartialEq, Serialize)]
pub struct RunResult {
    pub workload: String,
    pub config: String,
    /// Total SM cycles simulated.
    pub cycles: u64,
    /// True if the run hit the safety cycle cap instead of draining.
    pub timed_out: bool,
    pub issue: IssueStats,
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub dram: DramStats,
    /// GPU↔HMC link traffic (both directions).
    pub gpu_link_bytes: u64,
    /// NDP-protocol bytes on the GPU links.
    pub gpu_link_ndp_bytes: u64,
    /// Cache-invalidation bytes on the GPU links (§4.2 overhead).
    pub inval_bytes: u64,
    /// Memory-network traffic.
    pub memnet_bytes: u64,
    /// Logic-layer crossbar traffic.
    pub intra_hmc_bytes: u64,
    /// GPU on-die interconnect traffic.
    pub ondie_bytes: u64,
    /// Warp instructions executed on NSUs.
    pub nsu_instrs: u64,
    /// Block instances offered / offloaded.
    pub offered: u64,
    pub offloaded: u64,
    /// Average NSU warp occupancy in `[0,1]` (Fig. 11).
    pub nsu_occupancy: f64,
    /// NSU I-cache utilization in `[0,1]` (Fig. 11).
    pub nsu_icache_util: f64,
    /// Peak per-SM pending/ready buffer use (§7.5).
    pub sm_buffer_peaks: (usize, usize),
    /// Pieces for the energy model.
    pub activity: Activity,
    /// Observability report (latency histograms, occupancy time-series,
    /// protocol events) — `Some` only when observability was enabled.
    pub obs: Option<ObsReport>,
    /// Simulator self-profile (per-stage wall-time/idle attribution) —
    /// `Some` only when `RunOptions::perf` armed profiling. Never rendered by `Debug`: wall times are host-dependent,
    /// and golden byte comparisons must hold with profiling on.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub perf: Option<PerfReport>,
    /// Structured stall diagnosis — `Some` only when the forward-progress
    /// watchdog aborted the run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stall: Option<Box<StallReport>>,
    /// Injected-fault occurrence counts — `Some` only when the fault
    /// injector was armed for the run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultStats>,
}

/// Hand-rolled so `stall` and `faults` appear only when present:
/// golden-file `{:#?}` dumps of clean runs stay byte-identical to the
/// pre-watchdog format.
impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("RunResult");
        d.field("workload", &self.workload)
            .field("config", &self.config)
            .field("cycles", &self.cycles)
            .field("timed_out", &self.timed_out)
            .field("issue", &self.issue)
            .field("l1", &self.l1)
            .field("l2", &self.l2)
            .field("dram", &self.dram)
            .field("gpu_link_bytes", &self.gpu_link_bytes)
            .field("gpu_link_ndp_bytes", &self.gpu_link_ndp_bytes)
            .field("inval_bytes", &self.inval_bytes)
            .field("memnet_bytes", &self.memnet_bytes)
            .field("intra_hmc_bytes", &self.intra_hmc_bytes)
            .field("ondie_bytes", &self.ondie_bytes)
            .field("nsu_instrs", &self.nsu_instrs)
            .field("offered", &self.offered)
            .field("offloaded", &self.offloaded)
            .field("nsu_occupancy", &self.nsu_occupancy)
            .field("nsu_icache_util", &self.nsu_icache_util)
            .field("sm_buffer_peaks", &self.sm_buffer_peaks)
            .field("activity", &self.activity)
            .field("obs", &self.obs);
        if let Some(stall) = &self.stall {
            d.field("stall", stall);
        }
        if let Some(faults) = &self.faults {
            d.field("faults", faults);
        }
        d.finish()
    }
}

impl RunResult {
    /// Speedup of this run relative to a baseline run.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Invalidation traffic as a fraction of total GPU-link traffic (§4.2).
    pub fn inval_fraction(&self) -> f64 {
        if self.gpu_link_bytes == 0 {
            0.0
        } else {
            self.inval_bytes as f64 / self.gpu_link_bytes as f64
        }
    }

    /// Energy under the given parameters.
    pub fn energy(&self, params: &EnergyParams) -> EnergyBreakdown {
        ndp_energy::energy(params, &self.activity)
    }

    /// Effective offload ratio achieved.
    pub fn offload_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.offloaded as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let a = RunResult {
            cycles: 200,
            ..Default::default()
        };
        let mut b = RunResult {
            cycles: 100,
            ..Default::default()
        };
        assert_eq!(b.speedup_over(&a), 2.0);
        b.gpu_link_bytes = 1000;
        b.inval_bytes = 4;
        assert!((b.inval_fraction() - 0.004).abs() < 1e-12);
        b.offered = 10;
        b.offloaded = 4;
        assert!((b.offload_fraction() - 0.4).abs() < 1e-12);
    }
}
