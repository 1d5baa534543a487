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
//! * `skipped` — the quiescence layer proved the stage workless;
//! * `idle` — a routing stage ran but moved **zero** packets (an idle tick
//!   is pure overhead the event-driven core tries never to pay);
//! * `moved` — packets the stage delivered;
//! * estimated wall time, from a **strided timer**: only every
//!   [`TIMER_STRIDE`]th pipeline pass is timestamped (21 `Instant::now`
//!   calls on a sampled pass, zero otherwise), and the sampled time is
//!   scaled back up by the observed sampling ratio. The hot loop is never
//!   timestamped every cycle.
//!
//! Profiling is one flag (`ndp_core::RunOptions::perf`), off by default,
//! and *read-only*: enabling it never changes simulated behaviour, and
//! wall-clock readings never feed back into the model. Because wall times
//! are host-dependent, the perf report is excluded from `RunResult`'s
//! `Debug` rendering so golden-determinism byte comparisons are unaffected
//! (see `ndp-core::result`).

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Version stamp of [`PerfReport`]'s serialized form, so downstream
/// tooling (dashboards, the benchmark's `spans.json`) can evolve. v2 added
/// the `skipped` counter and `skip_frac` from the event-driven core: the
/// per-stage accounting identity is now
/// `invocations + gated + skipped == cycles`. v3 added
/// `sm_ready_occupancy` — per-SM mean ready-set size from the ready-set
/// scheduler (DESIGN.md §15), the direct measure of how much issue-scan
/// work each invoked cycle actually holds. v4 added per-SM
/// `sm_structural_retries` and `sm_memo_answers`: issue attempts a full
/// MSHR table or output queue refused, and how many of those the
/// blocked-verdict memo answered without re-running the issue path. v5
/// dropped `heartbeats`: no run reached their 2^20-cycle cadence. v6 added
/// per-SM `sm_replayed_retries`: MSHR-blocked retries booked on cycles the
/// SM was not ticked.
pub const PERF_SCHEMA_VERSION: u32 = 6;

/// Pipeline passes between wall-clock-sampled passes (the strided timer).
pub const TIMER_STRIDE: u64 = 64;

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

/// The profiler. One branch per hook when disabled (the `Default`).
#[derive(Debug, Clone, Default)]
pub struct Perf {
    on: bool,
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
}

impl Perf {
    /// A profiler for a pipeline whose stages carry the given display
    /// names (index-aligned with the fabric's stage list).
    pub fn new(on: bool, stage_names: Vec<String>) -> Self {
        let stages = vec![StageCounters::default(); stage_names.len()];
        Perf {
            on,
            names: stage_names,
            stages,
            ..Perf::default()
        }
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start-of-pipeline-pass hook: decides whether this pass is
    /// wall-clock sampled. Call once per simulated cycle, before the
    /// fabric runs.
    #[inline]
    pub fn cycle_begin(&mut self) {
        if !self.on {
            return;
        }
        self.start.get_or_insert_with(Instant::now);
        self.sampling = self.passes.is_multiple_of(TIMER_STRIDE);
        self.passes += 1;
        if self.sampling {
            self.mark = Some(Instant::now());
        }
    }

    /// Per-stage attribution hook: counters always (integer adds), wall
    /// time only on sampled passes.
    #[inline]
    pub fn stage(&mut self, idx: usize, outcome: StageOutcome) {
        if !self.on {
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
        if !self.on {
            return;
        }
        let c = &mut self.stages[idx];
        c.gated += gated;
        c.skipped += skipped;
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
            sample_stride: TIMER_STRIDE,
            timed_passes: self.passes.div_ceil(TIMER_STRIDE),
            stages,
            sm_ready_occupancy: Vec::new(),
            sm_structural_retries: Vec::new(),
            sm_memo_answers: Vec::new(),
            sm_replayed_retries: Vec::new(),
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
    /// Per SM: retries of warps parked on an MSHR verdict that fell on
    /// cycles the SM was not ticked, booked as refused without being run.
    /// Not counted in `sm_structural_retries`. Empty before v6.
    #[serde(default)]
    pub sm_replayed_retries: Vec<u64>,
}

impl PerfReport {
    pub fn stage(&self, name: &str) -> Option<&StagePerf> {
        self.stages.iter().find(|s| s.name == name)
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
            let replayed: u64 = self.sm_replayed_retries.iter().sum();
            out.push_str(&format!(
                "sm structural retries: {retries} over {} SMs (max {max}), {answers} \
                 ({:.1}%) answered by the blocked-verdict memo; {replayed} more replayed \
                 without a tick\n",
                self.sm_structural_retries.len(),
                if retries > 0 {
                    answers as f64 * 100.0 / retries as f64
                } else {
                    0.0
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf() -> Perf {
        Perf::new(
            true,
            vec![
                "tick:toy".to_string(),
                "edge:toy".to_string(),
                "side:toy".to_string(),
            ],
        )
    }

    #[test]
    fn disabled_perf_records_nothing() {
        let mut p = Perf::default();
        assert!(!p.is_on());
        p.cycle_begin();
        p.stage(0, StageOutcome::Routed(3));
        let r = p.report(100);
        assert!(r.stages.is_empty());
        assert_eq!(r.cycles, 100);
        assert_eq!(r.wall_ns, 0);
    }

    #[test]
    fn idle_tick_accounting() {
        // A stage that moves nothing must count as idle, not active.
        let mut p = perf();
        p.cycle_begin();
        p.stage(1, StageOutcome::Routed(0));
        p.cycle_begin();
        p.stage(1, StageOutcome::Routed(4));
        p.cycle_begin();
        p.stage(1, StageOutcome::Gated);
        p.cycle_begin();
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
        let mut p = perf();
        let passes = 2 * TIMER_STRIDE;
        for _ in 0..passes {
            p.cycle_begin();
            p.stage(0, StageOutcome::Ticked);
        }
        // Passes 0 and TIMER_STRIDE were sampled.
        assert_eq!(p.stages[0].timed, 2);
        assert_eq!(p.stages[0].invocations, passes);
        let r = p.report(passes);
        assert_eq!((r.sample_stride, r.timed_passes), (TIMER_STRIDE, 2));
        let s = r.stage("tick:toy").unwrap();
        // The estimate is scaled by the realized sampling ratio.
        assert!(s.est_wall_ns >= TIMER_STRIDE * p.stages[0].sampled_wall_ns);
    }

    #[test]
    fn skipped_cycles_account_exactly() {
        // Per-stage skips and next-event jumps both land in `skipped`, and
        // the identity invocations + gated + skipped == cycles holds.
        let mut p = perf();
        p.cycle_begin();
        p.stage(0, StageOutcome::Ticked);
        p.stage(1, StageOutcome::Routed(2));
        p.stage(2, StageOutcome::Gated);
        p.cycle_begin();
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
    fn report_is_versioned_and_serializable() {
        let mut p = perf();
        p.cycle_begin();
        p.stage(1, StageOutcome::Routed(2));
        let mut r = p.report(1);
        r.sm_ready_occupancy = vec![1.5, 0.25];
        r.sm_structural_retries = vec![40, 0];
        r.sm_memo_answers = vec![30, 0];
        r.sm_replayed_retries = vec![7, 5];
        assert_eq!(r.schema_version, PERF_SCHEMA_VERSION);
        let json = serde_json::to_string(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let table = r.table_text();
        assert!(table.contains("ready-set occupancy"), "{table}");
        assert!(
            table.contains(
                "structural retries: 40 over 2 SMs (max 40), 30 (75.0%) answered by the \
                 blocked-verdict memo; 12 more replayed without a tick"
            ),
            "{table}"
        );
        // v5 reports (no replay counts), v3 reports (no retry counts
        // either) and v2 reports (no occupancy either) still deserialize.
        let v5 = json.replace(",\"sm_replayed_retries\":[7,5]", "");
        assert_ne!(v5, json);
        let old: PerfReport = serde_json::from_str(&v5).unwrap();
        assert!(old.sm_replayed_retries.is_empty());
        let v3 = v5.replace(
            ",\"sm_structural_retries\":[40,0],\"sm_memo_answers\":[30,0]",
            "",
        );
        assert_ne!(v3, v5);
        let old: PerfReport = serde_json::from_str(&v3).unwrap();
        assert!(old.sm_structural_retries.is_empty() && old.sm_memo_answers.is_empty());
        let v2 = v3.replace(",\"sm_ready_occupancy\":[1.5,0.25]", "");
        assert_ne!(v2, v3);
        let old: PerfReport = serde_json::from_str(&v2).unwrap();
        assert!(old.sm_ready_occupancy.is_empty());
    }
}
