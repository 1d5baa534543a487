//! End-to-end and per-layer metrics from a finished [`Runner`].

use std::collections::BTreeMap;

use ndp_core::RunResult;
use serde::Serialize;

use crate::host;
use crate::layers::{ratio, LAYER_METRICS};
use crate::run::{CellTime, Mode, Pass, Runner, SIM_SPANS};
use crate::spans::self_times_ns;
use crate::stats::{median, quantile, tail_percentile};

#[derive(Debug, Clone, Copy, Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

pub type Metrics = BTreeMap<String, Metric>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    // JSON has no NaN or infinity; a metric without samples reads 0.
    let value = if value.is_finite() { value } else { 0.0 };
    m.insert(name.to_string(), Metric { value, unit });
}

fn measured<'r>(r: &'r Runner, traced: bool) -> Vec<&'r Pass> {
    let mode = r.measured_mode();
    r.passes
        .iter()
        .filter(|p| p.mode == mode && p.traced == traced)
        .collect()
}

/// Sum over cells of each cell's fastest time `f` among `passes`. Every
/// pass does the same work, and noise on a shared host only ever slows a
/// cell down, so the fastest pass of each cell is its steadiest reading.
fn best_of(passes: &[&Pass], f: fn(&CellTime) -> f64) -> f64 {
    let n = passes.iter().map(|p| p.cells.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            passes
                .iter()
                .map(|p| f(&p.cells[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// What a user of the simulator sees, from the untraced passes: work per
/// host second of the whole job and of simulating alone, set-up time and
/// memory.
pub fn end_to_end(r: &Runner) -> Metrics {
    let passes = measured(r, false);
    let work = |f: fn(&CellTime) -> u64| {
        passes
            .first()
            .map_or(0, |p| p.cells.iter().map(f).sum::<u64>()) as f64
    };
    let (instrs, cycles) = (work(|c| c.instrs), work(|c| c.cycles));
    let mut m = Metrics::new();
    put(
        &mut m,
        "job_instrs_per_s",
        instrs / best_of(&passes, |c| c.wall_s),
        "1/s",
    );
    put(
        &mut m,
        "sim_instrs_per_s",
        instrs / best_of(&passes, |c| c.sim_s),
        "1/s",
    );
    put(
        &mut m,
        "sim_cycles_per_s",
        cycles / best_of(&passes, |c| c.sim_s),
        "1/s",
    );
    put(&mut m, "setup_s", r.setup_s("bench.setup"), "s");
    put(&mut m, "peak_rss_mb", host::peak_rss_mb(), "MB");
    m
}

/// Set-up steps, as `setup_s` measures them: the sum over cells of each
/// step's median over the set-up samples.
const SETUP_LAYERS: [(&str, &str); 4] = [
    ("workloads.build_s", "workloads.build"),
    ("compiler.compile_s", "compiler.compile"),
    ("isa.verify_s", "isa.verify"),
    ("core.system.construct_s", "core.system.construct"),
];

/// Span names whose self time in the traced passes is reported as a
/// layer's host seconds per pass.
const SPAN_LAYERS: [(&str, &[&str]); 4] = [
    ("core.checkpoint.save_s", &["core.checkpoint.save"]),
    ("core.checkpoint.restore_s", &["core.checkpoint.restore"]),
    (
        "core.experiments.run_matrix_s",
        &["core.experiments.run_matrix"],
    ),
    // The benchmark's own time between calls: digest checks and tearing
    // machines down.
    ("bench.self_s", &["bench.pass", "bench.cell"]),
];

/// Self seconds per span name, summed over the given passes.
pub fn self_s_by_name(r: &Runner, passes: &[u32]) -> BTreeMap<&'static str, f64> {
    let spans = r.spans.all();
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        if passes.contains(&s.pass) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
    }
    out
}

/// Per-layer numbers from the traced passes (and the simulated counts,
/// which every pass reproduces exactly). Host seconds are per traced pass.
pub fn per_layer(r: &Runner) -> Metrics {
    let mut m = Metrics::new();
    let traced = measured(r, true);
    let n = traced.len().max(1) as f64;
    let ids: Vec<u32> = traced.iter().map(|p| p.id).collect();
    let by_name = self_s_by_name(r, &ids);
    let span_s = |names: &[&str]| {
        names
            .iter()
            .map(|x| by_name.get(x).unwrap_or(&0.0))
            .sum::<f64>()
            / n
    };
    for (metric, names) in SPAN_LAYERS {
        put(&mut m, metric, span_s(names), "s");
    }
    for (metric, step) in SETUP_LAYERS {
        put(&mut m, metric, r.setup_s(step), "s");
    }

    // Time in the simulator proper: the run calls, or for a matrix the
    // profiler's own per-cell wall time.
    let stage_passes = f64::from(r.stage_passes.max(1));
    let stage_run_s = r.stage_run_ns as f64 / 1e9 / stage_passes;
    let run_s = if r.measured_mode() == Mode::Matrix {
        stage_run_s
    } else {
        span_s(&SIM_SPANS)
    };
    put(&mut m, "core.system.run_s", run_s, "s");
    let pool_util = if r.measured_mode() == Mode::Matrix {
        stage_run_s / (r.workers as f64 * span_s(&["core.experiments.run_matrix"]))
    } else {
        0.0
    };
    put(&mut m, "core.experiments.pool_util", pool_util, "frac");
    put(
        &mut m,
        "host.runq_wait_s",
        traced.iter().map(|p| p.runq_wait_s).sum::<f64>() / n,
        "s",
    );
    put(
        &mut m,
        "perf.overhead_frac",
        best_of(&traced, |c| c.wall_s) / best_of(&measured(r, false), |c| c.wall_s) - 1.0,
        "frac",
    );

    // The stage table, normalised to the measured run time.
    let fracs = r.stages.layer_fracs();
    for (layer, metric) in LAYER_METRICS {
        let frac = fracs.get(layer).copied().unwrap_or(0.0);
        put(&mut m, metric, frac * stage_run_s, "s");
    }
    let merged = r.stages.merged();
    for (metric, stage) in [
        ("gpu.sm_skip_frac", "tick:sms"),
        ("hmc.skip_frac", "tick:stacks"),
        ("nsu.skip_frac", "tick:nsus"),
        ("memnet.skip_frac", "tick:net"),
    ] {
        let skip = merged
            .iter()
            .find(|s| s.name == stage)
            .map_or(0.0, |s| s.skip_frac);
        put(&mut m, metric, skip, "frac");
    }
    put(
        &mut m,
        "gpu.sm_ready_occupancy",
        r.stages.ready_occupancy.iter().sum::<f64>() / r.stages.ready_occupancy.len().max(1) as f64,
        "warps",
    );
    put(
        &mut m,
        "core.fabric.edge_idle_frac",
        r.stages.edge_idle_frac(),
        "frac",
    );
    put(
        &mut m,
        "perf.est_over_measured",
        ratio(r.stages.est_wall_ns(), r.stage_run_ns),
        "ratio",
    );

    checkpoint(r, &mut m);
    counts(r, &mut m);
    m
}

/// Save and restore latency over every measured pass.
fn checkpoint(r: &Runner, m: &mut Metrics) {
    let mode = r.measured_mode();
    let ids: Vec<u32> = r
        .passes
        .iter()
        .filter(|p| p.mode == mode)
        .map(|p| p.id)
        .collect();
    let ms = |name: &str| -> Vec<f64> {
        ids.iter()
            .flat_map(|id| r.spans.durations(name, *id))
            .map(|s| s * 1e3)
            .collect()
    };
    let (save, restore) = (ms("core.checkpoint.save"), ms("core.checkpoint.restore"));
    let tail = tail_percentile(save.len());
    put(m, "core.checkpoint.samples", save.len() as f64, "count");
    put(m, "core.checkpoint.tail_pct", tail, "%");
    put(m, "core.checkpoint.save_ms_p50", median(&save), "ms");
    put(
        m,
        "core.checkpoint.save_ms_tail",
        quantile(&save, tail / 100.0),
        "ms",
    );
    put(m, "core.checkpoint.restore_ms_p50", median(&restore), "ms");
    put(
        m,
        "core.checkpoint.restore_ms_tail",
        quantile(&restore, tail / 100.0),
        "ms",
    );
    put(
        m,
        "core.checkpoint.image_bytes",
        r.images.iter().sum::<u64>() as f64 / r.images.len().max(1) as f64,
        "B",
    );
}

/// Simulated totals of one pass, summed over its cells: name, unit, and
/// the count taken from each cell's `RunResult`.
type Count = (&'static str, &'static str, fn(&RunResult) -> u64);
const COUNTS: [Count; 15] = [
    ("sim.cycles", "cycles", |x| x.cycles),
    ("gpu.warp_instrs", "count", |x| x.issue.issued),
    ("gpu.exec_busy", "cycles", |x| x.issue.exec_unit_busy),
    ("gpu.dep_stall", "cycles", |x| x.issue.dependency_stall),
    ("gpu.warp_idle", "cycles", |x| x.issue.warp_idle),
    ("common.link_bytes", "B", |x| x.gpu_link_bytes),
    ("common.link_ndp_bytes", "B", |x| x.gpu_link_ndp_bytes),
    ("common.link_inval_bytes", "B", |x| x.inval_bytes),
    ("hmc.xbar_bytes", "B", |x| x.intra_hmc_bytes),
    ("dram.activations", "count", |x| x.dram.activations),
    ("dram.bytes", "B", |x| {
        x.dram.read_bytes + x.dram.write_bytes
    }),
    ("memnet.bytes", "B", |x| x.memnet_bytes),
    ("nsu.warp_instrs", "count", |x| x.nsu_instrs),
    ("core.offload.offered", "count", |x| x.offered),
    ("core.offload.offloaded", "count", |x| x.offloaded),
];

/// Simulated counts of one pass. They are deterministic: a change that
/// only speeds the simulator up must leave every one of them identical.
fn counts(r: &Runner, m: &mut Metrics) {
    let sum = |f: fn(&RunResult) -> u64| r.results.iter().map(f).sum::<u64>();
    for (name, unit, f) in COUNTS {
        put(m, name, sum(f) as f64, unit);
    }
    let rate = |hits: fn(&RunResult) -> u64, all: fn(&RunResult) -> u64| ratio(sum(hits), sum(all));
    put(
        m,
        "gpu.l1_hit_rate",
        rate(|x| x.l1.read_hits, |x| x.l1.read_accesses()),
        "frac",
    );
    put(
        m,
        "gpu.l2_hit_rate",
        rate(|x| x.l2.read_hits, |x| x.l2.read_accesses()),
        "frac",
    );
    let row_misses = rate(
        |x| x.dram.activations,
        |x| x.dram.col_reads + x.dram.col_writes,
    );
    put(m, "dram.row_hit_rate", 1.0 - row_misses, "frac");
    put(
        m,
        "core.offload.ratio",
        rate(|x| x.offloaded, |x| x.offered),
        "frac",
    );
    let occupancy: f64 = r.results.iter().map(|x| x.nsu_occupancy).sum();
    put(
        m,
        "nsu.occupancy",
        occupancy / r.results.len().max(1) as f64,
        "frac",
    );
}
