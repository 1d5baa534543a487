//! Per-layer attribution of the simulator's own stage table.
//!
//! `NDP_PERF=1` arms the `PerfReport` stage table in every `System` built
//! while it is set. Its per-stage `est_wall_ns` is a strided extrapolation
//! whose sum can overshoot the measured run time by a third, so a layer's
//! host seconds are its share of the estimate (`wall_frac`) times the run
//! time the benchmark's own spans measured. Layer names are crate names.

use std::collections::BTreeMap;

use ndp_common::obs::perf::StagePerf;

/// The layer a pipeline stage's host time belongs to.
pub fn layer_of(stage: &str) -> &'static str {
    match stage {
        "tick:sms" => "gpu.sm",
        "edge:sm_out" => "gpu.ondie",
        "tick:slices" | "edge:slice_to_mem" | "edge:slice_to_sm" => "gpu.l2",
        "tick:uplinks" | "edge:up_link" | "tick:downlinks" | "edge:down_link" => "common.link",
        "tick:stacks" | "edge:stack_to_memnet" | "edge:stack_to_nsu" | "edge:stack_to_gpu" => "hmc",
        "tick:net" | "edge:net_delivered" => "memnet",
        "tick:nsus" | "edge:nsu_out" | "side:credits" => "nsu",
        "side:ctrl" | "side:sample" => "core.ctrl",
        _ => "unmapped",
    }
}

/// Every named layer [`layer_of`] returns, with the metric that reports
/// its host seconds.
pub const LAYER_METRICS: [(&str, &str); 8] = [
    ("gpu.sm", "gpu.sm_s"),
    ("gpu.ondie", "gpu.ondie_s"),
    ("gpu.l2", "gpu.l2_s"),
    ("common.link", "common.link_s"),
    ("hmc", "hmc.s"),
    ("memnet", "memnet.s"),
    ("nsu", "nsu.s"),
    ("core.ctrl", "core.ctrl_s"),
];

/// Stage counters summed over every profiled run.
#[derive(Debug, Clone, Default)]
pub struct StageTable {
    pub stages: BTreeMap<String, StagePerf>,
    /// Mean ready-set size per invoked SM cycle, over SMs and runs.
    pub ready_occupancy: Vec<f64>,
}

impl StageTable {
    pub fn merge(&mut self, stages: &[StagePerf], ready_occupancy: &[f64]) {
        for s in stages {
            let e = self
                .stages
                .entry(s.name.clone())
                .or_insert_with(|| StagePerf {
                    name: s.name.clone(),
                    invocations: 0,
                    gated: 0,
                    skipped: 0,
                    idle: 0,
                    moved: 0,
                    routed: 0,
                    est_wall_ns: 0,
                    idle_frac: 0.0,
                    skip_frac: 0.0,
                    wall_frac: 0.0,
                });
            e.invocations += s.invocations;
            e.gated += s.gated;
            e.skipped += s.skipped;
            e.idle += s.idle;
            e.moved += s.moved;
            e.routed += s.routed;
            e.est_wall_ns += s.est_wall_ns;
        }
        self.ready_occupancy.extend_from_slice(ready_occupancy);
    }

    /// The merged stages, their fractions recomputed from the summed
    /// counters.
    pub fn merged(&self) -> Vec<StagePerf> {
        let total = self.est_wall_ns();
        self.stages
            .values()
            .map(|s| StagePerf {
                idle_frac: ratio(s.idle, s.routed),
                skip_frac: ratio(s.skipped, s.invocations + s.gated + s.skipped),
                wall_frac: ratio(s.est_wall_ns, total),
                ..s.clone()
            })
            .collect()
    }

    pub fn est_wall_ns(&self) -> u64 {
        self.stages.values().map(|s| s.est_wall_ns).sum()
    }

    /// Each layer's share of the estimated stage time.
    pub fn layer_fracs(&self) -> BTreeMap<&'static str, f64> {
        let total = self.est_wall_ns();
        let mut out = BTreeMap::new();
        for s in self.stages.values() {
            *out.entry(layer_of(&s.name)).or_insert(0.0) += ratio(s.est_wall_ns, total);
        }
        out
    }

    /// Routing invocations that moved nothing, over all routing
    /// invocations: the fabric's wasted-attempt ratio.
    pub fn edge_idle_frac(&self) -> f64 {
        let idle = self.stages.values().map(|s| s.idle).sum();
        let routed = self.stages.values().map(|s| s.routed).sum();
        ratio(idle, routed)
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, est_wall_ns: u64, skipped: u64, idle: u64, routed: u64) -> StagePerf {
        StagePerf {
            name: name.to_string(),
            invocations: 100 - skipped,
            gated: 0,
            skipped,
            idle,
            moved: 0,
            routed,
            est_wall_ns,
            idle_frac: 0.0,
            skip_frac: 0.0,
            wall_frac: 0.0,
        }
    }

    #[test]
    fn layers_split_the_estimate() {
        let mut t = StageTable::default();
        t.merge(
            &[
                stage("tick:sms", 600, 50, 0, 0),
                stage("edge:up_link", 200, 0, 30, 100),
                stage("tick:nsus", 200, 100, 0, 0),
            ],
            &[2.0],
        );
        t.merge(&[stage("tick:sms", 0, 0, 0, 0)], &[4.0]);
        let f = t.layer_fracs();
        assert!((f["gpu.sm"] - 0.6).abs() < 1e-12);
        assert!((f["common.link"] - 0.2).abs() < 1e-12);
        assert!((f.values().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((t.edge_idle_frac() - 0.3).abs() < 1e-12);
        let sms = &t.merged()[2];
        assert_eq!(sms.name, "tick:sms");
        assert!((sms.wall_frac - 0.6).abs() < 1e-12 && (sms.skip_frac - 0.25).abs() < 1e-12);
        assert_eq!(layer_of("tick:future"), "unmapped");
        assert_eq!(t.ready_occupancy, vec![2.0, 4.0]);
    }
}
