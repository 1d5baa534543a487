//! Performance self-profiling: host wall-time and work attribution for
//! the simulator itself.
//!
//! The protocol-observability layer (the rest of `obs`) sees what the
//! *simulated machine* does; this module sees where the *simulator*
//! spends host time. Every pipeline stage of the fabric reports, each
//! cycle, what it did via [`StageOutcome`]; [`Perf`] folds that into
//! per-stage counters:
//!
//! * `invocations` — the stage ran (its clock gate was open);
//! * `gated` — the stage was skipped by its clock gate;
//! * `idle` — a routing stage ran but moved **zero** packets (the direct
//!   evidence for the event-driven/cycle-skipping rework: an idle tick is
//!   pure overhead an event queue would never pay);
//! * `moved` — packets the stage delivered;
//! * estimated wall time, from a **strided timer**: only every Nth
//!   pipeline pass is timestamped (21 `Instant::now` calls on a sampled
//!   pass, zero otherwise), and the sampled time is scaled back up by the
//!   observed sampling ratio. The hot loop is never timestamped every
//!   cycle.
//!
//! A periodic **heartbeat** snapshots throughput (cycles/sec since the
//! previous beat), the current sim cycle, and routing-stage occupancy —
//! the progress stream a future `ndp-serve` can forward to clients.
//!
//! Everything is off by default and *read-only*: enabling profiling never
//! changes simulated behaviour, and wall-clock readings never feed back
//! into the model. Because wall times are host-dependent, the perf report
//! is excluded from `RunResult`'s `Debug` rendering so golden-determinism
//! byte comparisons are unaffected (see `ndp-core::result`).

use std::collections::VecDeque;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::ids::Cycle;

/// Version stamp of [`PerfReport`]'s serialized form, so downstream
/// tooling (dashboards, `BENCH_core.json` diffing) can evolve. v2 added
/// the `skipped` counter and `skip_frac` from the event-driven core: the
/// per-stage accounting identity is now
/// `invocations + gated + skipped == cycles`. v3 added
/// `sm_ready_occupancy` — per-SM mean ready-set size from the ready-set
/// scheduler (DESIGN.md §15), the direct measure of how much issue-scan
/// work each invoked cycle actually holds. v4 added per-SM
/// `sm_structural_retries` and `sm_memo_answers`: issue attempts a full
/// MSHR table or output queue refused, and how many of those the
/// blocked-verdict memo answered without re-running the issue path.
pub const PERF_SCHEMA_VERSION: u32 = 4;

/// Profiling knobs. `Default` is fully disabled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfConfig {
    pub enabled: bool,
    /// Pipeline passes between wall-clock-sampled passes (the strided
    /// timer). `1` timestamps every pass; larger strides cost less.
    pub stride: u64,
    /// Simulated cycles between heartbeat snapshots (`0` disables).
    pub heartbeat_interval: u64,
    /// Max retained heartbeats (oldest are dropped).
    pub heartbeat_cap: usize,
    /// Print each heartbeat to stderr as it is taken (progress display
    /// for long sweeps; `NDP_PERF_STDERR`).
    pub stderr_heartbeat: bool,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            enabled: false,
            stride: 64,
            heartbeat_interval: 1 << 20,
            heartbeat_cap: 256,
            stderr_heartbeat: false,
        }
    }
}

impl PerfConfig {
    /// Enabled with default stride and heartbeat cadence.
    pub fn on() -> Self {
        PerfConfig {
            enabled: true,
            ..PerfConfig::default()
        }
    }

    /// The `NDP_PERF*` environment surface: `NDP_PERF` turns profiling
    /// on, `NDP_PERF_STRIDE` / `NDP_PERF_HEARTBEAT` / `NDP_PERF_STDERR`
    /// tune it. Malformed values die loudly (typed env policy).
    pub fn from_env() -> Self {
        let mut cfg = PerfConfig {
            enabled: crate::env::flag_or_die("NDP_PERF").unwrap_or(false),
            ..PerfConfig::default()
        };
        if let Some(s) = crate::env::parse_or_die::<u64>("NDP_PERF_STRIDE") {
            cfg.stride = s.max(1);
        }
        if let Some(h) = crate::env::parse_or_die::<u64>("NDP_PERF_HEARTBEAT") {
            cfg.heartbeat_interval = h;
        }
        cfg.stderr_heartbeat = crate::env::flag_or_die("NDP_PERF_STDERR").unwrap_or(false);
        cfg
    }
}

/// What one pipeline stage did in one cycle, reported by the fabric to
/// the profiler (`FabricCtx::stage_done`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// The stage's clock gate was closed; it did not run.
    Gated,
    /// A routing stage ran and moved this many packets. `Routed(0)` is an
    /// **idle tick**: the stage was polled but had no work.
    Routed(u64),
    /// A component-tick or side-channel stage ran.
    Ticked,
    /// The quiescence layer proved the stage had no work at this cycle
    /// and skipped it without invoking it.
    Skipped,
}

/// Live per-stage counters (internal; folded into [`StagePerf`]).
#[derive(Debug, Default, Clone, Copy)]
struct StageCounters {
    invocations: u64,
    gated: u64,
    /// Cycles the quiescence layer proved the stage workless (per-stage
    /// skips plus whole-system next-event jumps).
    skipped: u64,
    idle: u64,
    moved: u64,
    /// Invocations that were routing stages (`idle`'s denominator).
    routed: u64,
    /// Wall nanoseconds accumulated on sampled passes only.
    sampled_wall_ns: u64,
    /// Invocations that fell on a sampled pass.
    timed: u64,
}

/// One periodic telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Simulated cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Host wall nanoseconds since profiling started.
    pub wall_ns: u64,
    /// Simulated cycles per host second since the previous heartbeat.
    pub cycles_per_sec: f64,
    /// Fraction of routing-stage invocations since the previous heartbeat
    /// that moved at least one packet (1.0 = every polled edge had work;
    /// low values are the cycle-skipping headroom).
    pub route_occupancy: f64,
}

/// The profiler. One branch per hook when disabled.
#[derive(Debug, Clone, Default)]
pub struct Perf {
    cfg: PerfConfig,
    names: Vec<String>,
    stages: Vec<StageCounters>,
    /// Pipeline passes seen (drives the strided timer).
    passes: u64,
    /// Is the current pass wall-clock sampled?
    sampling: bool,
    /// Set on the first pass; all wall times are relative to it.
    start: Option<Instant>,
    /// Timestamp of the previous stage boundary within a sampled pass.
    mark: Option<Instant>,
    heartbeats: VecDeque<Heartbeat>,
    /// Counter snapshot at the previous heartbeat: (cycle, wall_ns,
    /// idle, routed).
    hb_prev: (u64, u64, u64, u64),
    /// Next cycle at (or after) which a heartbeat is due. A watermark
    /// rather than a `now % interval` test: next-event jumps can leap
    /// straight over a boundary, and the beat must then fire on the first
    /// executed cycle past it.
    next_hb: u64,
}

impl Perf {
    /// The zero-cost default: every hook reduces to one branch.
    pub fn disabled() -> Self {
        Perf::default()
    }

    /// A profiler for a pipeline whose stages carry the given display
    /// names (index-aligned with the fabric's stage list).
    pub fn new(cfg: PerfConfig, stage_names: Vec<String>) -> Self {
        let stages = vec![StageCounters::default(); stage_names.len()];
        Perf {
            cfg,
            names: stage_names,
            stages,
            next_hb: cfg.heartbeat_interval,
            ..Perf::default()
        }
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.cfg.enabled
    }

    pub fn config(&self) -> &PerfConfig {
        &self.cfg
    }

    /// Start-of-pipeline-pass hook: decides whether this pass is
    /// wall-clock sampled and takes a heartbeat when one is due. Call
    /// once per simulated cycle, before the fabric runs.
    #[inline]
    pub fn cycle_begin(&mut self, now: Cycle) {
        if !self.cfg.enabled {
            return;
        }
        let start = *self.start.get_or_insert_with(Instant::now);
        self.sampling = self.passes.is_multiple_of(self.cfg.stride.max(1));
        self.passes += 1;
        if self.sampling {
            self.mark = Some(Instant::now());
        }
        if self.cfg.heartbeat_interval > 0 && now >= self.next_hb {
            self.heartbeat(now, start);
            // Advance past `now` to the next interval boundary.
            self.next_hb = (now / self.cfg.heartbeat_interval + 1) * self.cfg.heartbeat_interval;
        }
    }

    /// Per-stage attribution hook: counters always (integer adds), wall
    /// time only on sampled passes.
    #[inline]
    pub fn stage(&mut self, idx: usize, outcome: StageOutcome) {
        if !self.cfg.enabled {
            return;
        }
        let c = &mut self.stages[idx];
        match outcome {
            // A gate skip costs ~nothing on the host; it is counted but
            // never timestamped (its time folds into the next stage).
            StageOutcome::Gated => {
                c.gated += 1;
                return;
            }
            // A quiescence skip is, like a gate skip, never timestamped:
            // its whole point is to cost nothing.
            StageOutcome::Skipped => {
                c.skipped += 1;
                return;
            }
            StageOutcome::Routed(n) => {
                c.invocations += 1;
                c.routed += 1;
                c.moved += n;
                if n == 0 {
                    c.idle += 1;
                }
            }
            StageOutcome::Ticked => c.invocations += 1,
        }
        if self.sampling {
            if let Some(mark) = self.mark {
                let t = Instant::now();
                let c = &mut self.stages[idx];
                c.sampled_wall_ns += t.duration_since(mark).as_nanos() as u64;
                c.timed += 1;
                self.mark = Some(t);
            }
        }
    }

    /// Account a next-event time jump for one stage: `gated` cycles were
    /// leapt over with the stage's clock gate closed, `skipped` with it
    /// open but provably workless. Keeps the per-stage identity
    /// `invocations + gated + skipped == cycles` exact across jumps.
    #[inline]
    pub fn jump(&mut self, idx: usize, gated: u64, skipped: u64) {
        if !self.cfg.enabled {
            return;
        }
        let c = &mut self.stages[idx];
        c.gated += gated;
        c.skipped += skipped;
    }

    fn heartbeat(&mut self, now: Cycle, start: Instant) {
        let wall_ns = start.elapsed().as_nanos() as u64;
        let idle: u64 = self.stages.iter().map(|c| c.idle).sum();
        let routed: u64 = self.stages.iter().map(|c| c.routed).sum();
        let (p_cycle, p_wall, p_idle, p_routed) = self.hb_prev;
        let d_wall = wall_ns.saturating_sub(p_wall);
        let cycles_per_sec = if d_wall > 0 {
            (now - p_cycle) as f64 * 1e9 / d_wall as f64
        } else {
            0.0
        };
        let d_routed = routed - p_routed;
        let route_occupancy = if d_routed > 0 {
            1.0 - (idle - p_idle) as f64 / d_routed as f64
        } else {
            0.0
        };
        let hb = Heartbeat {
            cycle: now,
            wall_ns,
            cycles_per_sec,
            route_occupancy,
        };
        if self.cfg.stderr_heartbeat {
            eprintln!(
                "[perf] cycle {now}: {cycles_per_sec:.0} cycles/s, \
                 route occupancy {route_occupancy:.3}"
            );
        }
        if self.heartbeats.len() >= self.cfg.heartbeat_cap.max(1) {
            self.heartbeats.pop_front();
        }
        self.heartbeats.push_back(hb);
        self.hb_prev = (now, wall_ns, idle, routed);
    }

    /// Fold the live counters into a serializable report. `cycles` is the
    /// total simulated-cycle count of the run.
    pub fn report(&self, cycles: u64) -> PerfReport {
        let wall_ns = self
            .start
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        let stages: Vec<StagePerf> = self
            .names
            .iter()
            .zip(self.stages.iter())
            .map(|(name, c)| {
                // Scale the sampled time back up by the realized sampling
                // ratio (robust even when the stride misses gated cycles).
                let est_wall_ns = if c.timed > 0 {
                    (c.sampled_wall_ns as f64 * c.invocations as f64 / c.timed as f64) as u64
                } else {
                    0
                };
                let total = c.invocations + c.gated + c.skipped;
                StagePerf {
                    name: name.clone(),
                    invocations: c.invocations,
                    gated: c.gated,
                    skipped: c.skipped,
                    idle: c.idle,
                    moved: c.moved,
                    routed: c.routed,
                    est_wall_ns,
                    idle_frac: if c.routed > 0 {
                        c.idle as f64 / c.routed as f64
                    } else {
                        0.0
                    },
                    skip_frac: if total > 0 {
                        c.skipped as f64 / total as f64
                    } else {
                        0.0
                    },
                    wall_frac: 0.0, // filled below once the total is known
                }
            })
            .collect();
        let total_est: u64 = stages.iter().map(|s| s.est_wall_ns).sum();
        let mut stages = stages;
        if total_est > 0 {
            for s in &mut stages {
                s.wall_frac = s.est_wall_ns as f64 / total_est as f64;
            }
        }
        PerfReport {
            schema_version: PERF_SCHEMA_VERSION,
            cycles,
            wall_ns,
            cycles_per_sec: if wall_ns > 0 {
                cycles as f64 * 1e9 / wall_ns as f64
            } else {
                0.0
            },
            sample_stride: self.cfg.stride,
            timed_passes: self.passes.div_ceil(self.cfg.stride.max(1)),
            stages,
            heartbeats: self.heartbeats.iter().copied().collect(),
            sm_ready_occupancy: Vec::new(),
            sm_structural_retries: Vec::new(),
            sm_memo_answers: Vec::new(),
        }
    }
}

/// Per-stage slice of a [`PerfReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePerf {
    pub name: String,
    pub invocations: u64,
    pub gated: u64,
    /// Cycles the quiescence layer skipped this stage (stage-level skips
    /// plus next-event jumps with the stage's gate open).
    pub skipped: u64,
    /// Routing-stage invocations that moved nothing.
    pub idle: u64,
    pub moved: u64,
    /// Routing-stage invocations (`idle`'s denominator; 0 for tick/side
    /// stages).
    pub routed: u64,
    /// Estimated total host wall time (sampled time × sampling ratio).
    pub est_wall_ns: u64,
    /// `idle / routed` (0 when the stage never routed).
    pub idle_frac: f64,
    /// `skipped / (invocations + gated + skipped)` — the fraction of
    /// simulated cycles the event-driven core never touched this stage.
    pub skip_frac: f64,
    /// Share of the total estimated stage wall time.
    pub wall_frac: f64,
}

/// The serializable self-profiling outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    pub schema_version: u32,
    /// Simulated cycles covered.
    pub cycles: u64,
    /// Host wall nanoseconds from the first profiled cycle to report time.
    pub wall_ns: u64,
    /// Whole-run throughput: simulated cycles per host second.
    pub cycles_per_sec: f64,
    /// Strided-timer stride the estimates were sampled at.
    pub sample_stride: u64,
    /// Pipeline passes that were wall-clock sampled.
    pub timed_passes: u64,
    pub stages: Vec<StagePerf>,
    pub heartbeats: Vec<Heartbeat>,
    /// Mean ready-set size per SM over its invoked issue cycles (index =
    /// SM id): how many warps were actual issue candidates when the
    /// scheduler ran. Filled by the simulator core after the run (the
    /// profiler itself never inspects components); empty when the model
    /// has no SMs or profiling predates v3.
    #[serde(default)]
    pub sm_ready_occupancy: Vec<f64>,
    /// Per SM: issue attempts refused because the MSHR table or the output
    /// queue lacked room (the per-visit cost a blocked warp pays, beside
    /// the scan cost `sm_ready_occupancy` measures). Empty before v4.
    #[serde(default)]
    pub sm_structural_retries: Vec<u64>,
    /// Per SM: how many of those refusals the blocked-verdict memo
    /// answered in O(1). Empty before v4.
    #[serde(default)]
    pub sm_memo_answers: Vec<u64>,
}

impl PerfReport {
    pub fn stage(&self, name: &str) -> Option<&StagePerf> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Chrome trace-event JSON of the perf lane (open in Perfetto
    /// alongside the protocol trace).
    pub fn chrome_trace_json(&self) -> String {
        super::chrome::perf_chrome_trace_json(self)
    }

    /// Human-readable per-stage attribution table.
    pub fn table_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "simulator self-profile: {} cycles in {:.3} s host time — {:.0} cycles/sec \
             (strided timer: every {} passes)\n",
            self.cycles,
            self.wall_ns as f64 / 1e9,
            self.cycles_per_sec,
            self.sample_stride
        ));
        out.push_str(
            "stage                    invoked     gated   skipped  skip%      idle  idle%      moved  est ms  wall%\n",
        );
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<22} {:>8} {:>9} {:>9} {:>5.1} {:>9} {:>5.1} {:>10} {:>7.1} {:>5.1}\n",
                s.name,
                s.invocations,
                s.gated,
                s.skipped,
                s.skip_frac * 100.0,
                s.idle,
                s.idle_frac * 100.0,
                s.moved,
                s.est_wall_ns as f64 / 1e6,
                s.wall_frac * 100.0
            ));
        }
        if !self.sm_ready_occupancy.is_empty() {
            let n = self.sm_ready_occupancy.len();
            let mean: f64 = self.sm_ready_occupancy.iter().sum::<f64>() / n as f64;
            let max = self
                .sm_ready_occupancy
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            out.push_str(&format!(
                "sm ready-set occupancy: mean {mean:.2} warps over {n} SMs (max {max:.2}) \
                 per invoked issue cycle\n"
            ));
        }
        if !self.sm_structural_retries.is_empty() {
            let retries: u64 = self.sm_structural_retries.iter().sum();
            let answers: u64 = self.sm_memo_answers.iter().sum();
            let max = self
                .sm_structural_retries
                .iter()
                .max()
                .copied()
                .unwrap_or(0);
            out.push_str(&format!(
                "sm structural retries: {retries} over {} SMs (max {max}), {answers} \
                 ({:.1}%) answered by the blocked-verdict memo\n",
                self.sm_structural_retries.len(),
                if retries > 0 {
                    answers as f64 * 100.0 / retries as f64
                } else {
                    0.0
                }
            ));
        }
        if let Some(hb) = self.heartbeats.last() {
            out.push_str(&format!(
                "last heartbeat: cycle {}, {:.0} cycles/s, route occupancy {:.3} \
                 ({} heartbeats retained)\n",
                hb.cycle,
                hb.cycles_per_sec,
                hb.route_occupancy,
                self.heartbeats.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf(cfg: PerfConfig) -> Perf {
        Perf::new(
            cfg,
            vec![
                "tick:toy".to_string(),
                "edge:toy".to_string(),
                "side:toy".to_string(),
            ],
        )
    }

    #[test]
    fn disabled_perf_records_nothing() {
        let mut p = Perf::disabled();
        assert!(!p.is_on());
        p.cycle_begin(0);
        p.stage(0, StageOutcome::Routed(3));
        let r = p.report(100);
        assert!(r.stages.is_empty());
        assert_eq!(r.cycles, 100);
        assert_eq!(r.wall_ns, 0);
    }

    #[test]
    fn idle_tick_accounting() {
        // A stage that moves nothing must count as idle, not active.
        let mut p = perf(PerfConfig::on());
        p.cycle_begin(0);
        p.stage(1, StageOutcome::Routed(0));
        p.cycle_begin(1);
        p.stage(1, StageOutcome::Routed(4));
        p.cycle_begin(2);
        p.stage(1, StageOutcome::Gated);
        p.cycle_begin(3);
        p.stage(0, StageOutcome::Ticked);
        let r = p.report(4);
        let edge = r.stage("edge:toy").unwrap();
        assert_eq!(edge.invocations, 2, "gated does not count as invoked");
        assert_eq!(edge.idle, 1, "Routed(0) is an idle tick");
        assert_eq!(edge.gated, 1);
        assert_eq!(edge.moved, 4);
        assert_eq!(edge.routed, 2);
        assert!((edge.idle_frac - 0.5).abs() < 1e-12);
        let tick = r.stage("tick:toy").unwrap();
        assert_eq!(tick.invocations, 1);
        assert_eq!(tick.idle, 0, "tick stages are never idle-counted");
        assert_eq!(tick.idle_frac, 0.0);
    }

    #[test]
    fn strided_timer_samples_every_nth_pass() {
        let mut cfg = PerfConfig::on();
        cfg.stride = 4;
        let mut p = perf(cfg);
        for now in 0..8u64 {
            p.cycle_begin(now);
            p.stage(0, StageOutcome::Ticked);
        }
        // Passes 0 and 4 were sampled.
        assert_eq!(p.stages[0].timed, 2);
        assert_eq!(p.stages[0].invocations, 8);
        let r = p.report(8);
        let s = r.stage("tick:toy").unwrap();
        // The estimate is scaled by the realized sampling ratio (8/2).
        assert!(s.est_wall_ns >= 4 * p.stages[0].sampled_wall_ns);
    }

    #[test]
    fn heartbeats_snapshot_throughput_and_occupancy() {
        let mut cfg = PerfConfig::on();
        cfg.heartbeat_interval = 10;
        cfg.heartbeat_cap = 2;
        let mut p = perf(cfg);
        for now in 0..35u64 {
            p.cycle_begin(now);
            // Edge stage busy 1 cycle in 5.
            p.stage(1, StageOutcome::Routed(u64::from(now % 5 == 0)));
        }
        let r = p.report(35);
        assert_eq!(r.heartbeats.len(), 2, "cap drops the oldest beat");
        let hb = r.heartbeats.last().unwrap();
        assert_eq!(hb.cycle, 30);
        assert!(hb.cycles_per_sec > 0.0);
        assert!(hb.route_occupancy > 0.0 && hb.route_occupancy < 0.5);
    }

    #[test]
    fn skipped_cycles_account_exactly() {
        // Per-stage skips and next-event jumps both land in `skipped`, and
        // the identity invocations + gated + skipped == cycles holds.
        let mut p = perf(PerfConfig::on());
        p.cycle_begin(0);
        p.stage(0, StageOutcome::Ticked);
        p.stage(1, StageOutcome::Routed(2));
        p.stage(2, StageOutcome::Gated);
        p.cycle_begin(1);
        p.stage(0, StageOutcome::Skipped);
        p.stage(1, StageOutcome::Skipped);
        p.stage(2, StageOutcome::Gated);
        // A jump over cycles 2..10: stage 2's gate stayed closed for 5 of
        // the 8 cycles, open-and-workless for 3.
        for idx in 0..2 {
            p.jump(idx, 0, 8);
        }
        p.jump(2, 5, 3);
        let r = p.report(10);
        for s in &r.stages {
            assert_eq!(
                s.invocations + s.gated + s.skipped,
                10,
                "{}: identity broken",
                s.name
            );
        }
        let tick = r.stage("tick:toy").unwrap();
        assert_eq!(tick.skipped, 9);
        assert!((tick.skip_frac - 0.9).abs() < 1e-12);
        let side = r.stage("side:toy").unwrap();
        assert_eq!((side.gated, side.skipped), (7, 3));
        let table = r.table_text();
        assert!(table.contains("skip%"), "{table}");
    }

    #[test]
    fn heartbeat_fires_after_a_jump_over_the_boundary() {
        let mut cfg = PerfConfig::on();
        cfg.heartbeat_interval = 10;
        let mut p = perf(cfg);
        p.cycle_begin(0);
        // Jump straight over the cycle-10 boundary; the first executed
        // cycle after it must carry the beat.
        p.cycle_begin(17);
        p.cycle_begin(18);
        let r = p.report(19);
        assert_eq!(r.heartbeats.len(), 1);
        assert_eq!(r.heartbeats[0].cycle, 17);
    }

    #[test]
    fn report_is_versioned_and_serializable() {
        let mut p = perf(PerfConfig::on());
        p.cycle_begin(0);
        p.stage(1, StageOutcome::Routed(2));
        let mut r = p.report(1);
        r.sm_ready_occupancy = vec![1.5, 0.25];
        r.sm_structural_retries = vec![40, 0];
        r.sm_memo_answers = vec![30, 0];
        assert_eq!(r.schema_version, PERF_SCHEMA_VERSION);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"schema_version\":4"));
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stages.len(), 3);
        assert_eq!(back.sm_ready_occupancy, vec![1.5, 0.25]);
        assert_eq!(back.sm_structural_retries, vec![40, 0]);
        assert_eq!(back.sm_memo_answers, vec![30, 0]);
        let table = r.table_text();
        assert!(table.contains("ready-set occupancy"), "{table}");
        assert!(
            table.contains("structural retries: 40 over 2 SMs (max 40), 30 (75.0%) answered"),
            "{table}"
        );
        // v3 reports (no retry counts) and v2 reports (no occupancy either)
        // still deserialize.
        let v3 = json.replace(
            ",\"sm_structural_retries\":[40,0],\"sm_memo_answers\":[30,0]",
            "",
        );
        assert_ne!(v3, json);
        let old: PerfReport = serde_json::from_str(&v3).unwrap();
        assert!(old.sm_structural_retries.is_empty() && old.sm_memo_answers.is_empty());
        let v2 = v3.replace(",\"sm_ready_occupancy\":[1.5,0.25]", "");
        assert_ne!(v2, v3);
        let old: PerfReport = serde_json::from_str(&v2).unwrap();
        assert!(old.sm_ready_occupancy.is_empty());
    }
}
