//! Offload decision logic (§6–§7).
//!
//! Implements the [`ndp_gpu::NdpEnv`] trait for the system: per-instance
//! offload decisions under the five policies, NSU-buffer credit reservation
//! (§4.3), per-block cache-behaviour statistics, and the epoch-based
//! hill-climbing controller of Algorithm 1.

use ndp_common::config::{HillClimbConfig, OffloadPolicy, SystemConfig};
use ndp_common::ids::{Cycle, HmcId};
use ndp_common::rng::unit_sample;
use ndp_gpu::{BufferManager, NdpEnv};
use ndp_isa::offload::OffloadBlock;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Per-block runtime statistics feeding the §7.3 locality gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockStats {
    /// Cache lines touched by the block's loads (RDF packets generated, or
    /// their would-be count when running on the GPU).
    pub lines: u64,
    /// How many of those hit in the L1.
    pub l1_hits: u64,
    /// How many hit in an L2 slice.
    pub l2_hits: u64,
    /// Completed instances.
    pub instances: u64,
    /// Dynamic instructions retired inside the block (both modes).
    pub instrs: u64,
}

impl BlockStats {
    pub fn hit_rate(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            (self.l1_hits + self.l2_hits) as f64 / self.lines as f64
        }
    }

    pub fn lines_per_instance(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.lines as f64 / self.instances as f64
        }
    }
}

/// Hill-climbing state (Algorithm 1).
#[derive(Debug, Clone)]
struct HillClimb {
    cfg: HillClimbConfig,
    ratio: f64,
    step: f64,
    dir: f64,
    prev_ipc: Option<f64>,
    dir_change_history: VecDeque<bool>,
    next_epoch_end: Cycle,
    epoch_instrs: u64,
}

impl HillClimb {
    fn new(cfg: HillClimbConfig) -> Self {
        HillClimb {
            ratio: cfg.initial_ratio,
            step: cfg.initial_step,
            dir: 1.0,
            prev_ipc: None,
            dir_change_history: VecDeque::new(),
            next_epoch_end: cfg.epoch_cycles,
            epoch_instrs: 0,
            cfg,
        }
    }

    /// Algorithm 1, executed at each epoch boundary.
    fn epoch_end(&mut self) {
        let cur = self.epoch_instrs as f64 / self.cfg.epoch_cycles as f64;
        self.epoch_instrs = 0;
        let Some(prev) = self.prev_ipc else {
            self.prev_ipc = Some(cur);
            return;
        };
        if cur < prev {
            self.dir = -self.dir; // reverse direction if getting worse
            self.dir_change_history.push_back(true);
        } else {
            self.dir_change_history.push_back(false);
        }
        if self.dir_change_history.len() > self.cfg.window {
            self.dir_change_history.pop_front();
        }
        let n_changes = self.dir_change_history.iter().filter(|c| **c).count();
        if n_changes > self.cfg.window / 2 && self.cfg.step_min < self.step {
            self.step -= self.cfg.step_unit;
        } else if self.step < self.cfg.step_max {
            self.step += self.cfg.step_unit;
        }
        if self.cfg.step_unit <= self.ratio && self.ratio <= 1.0 - self.cfg.step_unit {
            self.ratio += self.dir * self.step;
        }
        self.ratio = self
            .ratio
            .clamp(self.cfg.step_unit, 1.0 - self.cfg.step_unit);
        self.prev_ipc = Some(cur);
    }
}

/// One NSU's §7.1 read-only cache directory. The FIFO order is the
/// state; the set indexes it and is rebuilt from it on restore.
#[derive(Debug, Clone, Default)]
struct RoDirectory {
    lines: HashSet<u64>,
    order: VecDeque<u64>,
}

impl RoDirectory {
    fn reindex(&mut self) {
        self.lines = self.order.iter().copied().collect();
    }
}

ndp_common::snap_state!(RoDirectory { order; derived: lines; after: reindex });

/// The system-level offload controller.
pub struct OffloadController {
    policy: OffloadPolicy,
    pub mgr: BufferManager,
    blocks: Arc<Vec<OffloadBlock>>,
    pub block_stats: Vec<BlockStats>,
    hc: HillClimb,
    seed: u64,
    decisions: u64,
    /// Total offloaded / total instances (for reports).
    pub offered: u64,
    pub offloaded: u64,
    line_bytes: f64,
    warp_width: f64,
    word_bytes: f64,
    /// In-flight WTA line counters per destination stack (§4.1 dynamic
    /// memory management: a page swap into stack *h* must wait until
    /// `wta_inflight[h] == 0`).
    pub wta_inflight: Vec<u64>,
    /// §7.1 extension: per-NSU read-only cache directory (lines already
    /// shipped), with FIFO replacement. Empty capacity disables it.
    ro_cache_lines: usize,
    ro_cache: Vec<RoDirectory>,
    /// NSU buffer capacities: a block needing more read-data / write-address
    /// entries than exist can never reserve and must run on the GPU.
    read_capacity: usize,
    write_capacity: usize,
}

impl OffloadController {
    pub fn new(cfg: &SystemConfig, blocks: Arc<Vec<OffloadBlock>>) -> Self {
        let n = blocks.len();
        OffloadController {
            policy: cfg.offload,
            mgr: BufferManager::new(cfg),
            block_stats: vec![BlockStats::default(); n],
            hc: HillClimb::new(cfg.hill_climb),
            seed: cfg.seed,
            decisions: 0,
            offered: 0,
            offloaded: 0,
            line_bytes: cfg.gpu.line_bytes as f64,
            warp_width: cfg.gpu.warp_width as f64,
            word_bytes: 4.0,
            wta_inflight: vec![0; cfg.hmc.num_hmcs],
            ro_cache_lines: cfg.nsu.readonly_cache_bytes / cfg.gpu.line_bytes,
            ro_cache: (0..cfg.hmc.num_hmcs)
                .map(|_| RoDirectory::default())
                .collect(),
            read_capacity: cfg.nsu.read_data_entries,
            write_capacity: cfg.nsu.write_addr_entries,
            blocks,
        }
    }

    /// Can this block ever fit the NSU buffers? (§4.3: a reservation larger
    /// than the buffer is unsatisfiable — the block must stay on the GPU.)
    fn fits_buffers(&self, block: u16) -> bool {
        let b = &self.blocks[block as usize];
        b.n_loads() <= self.read_capacity && b.n_stores() <= self.write_capacity
    }

    /// §4.1: may a new page be mapped into stack `hmc` right now? (All
    /// in-flight write addresses to that stack must have drained.)
    pub fn page_remap_safe(&self, hmc: HmcId) -> bool {
        self.wta_inflight[hmc.0 as usize] == 0
    }

    /// A cache-invalidation packet from stack `hmc` arrived at the GPU —
    /// one WTA's DRAM write completed. Returns `false` for an *orphan*
    /// invalidation (no matching in-flight WTA), which the caller reports
    /// to the invariant engine instead of silently tolerating.
    #[must_use]
    pub fn note_inval(&mut self, hmc: HmcId) -> bool {
        let c = &mut self.wta_inflight[hmc.0 as usize];
        let matched = *c > 0;
        *c = c.saturating_sub(1);
        matched
    }

    /// Called by the system once per cycle.
    pub fn on_cycle(&mut self, now: Cycle) {
        if matches!(
            self.policy,
            OffloadPolicy::Dynamic | OffloadPolicy::DynamicCacheAware
        ) && now >= self.hc.next_epoch_end
        {
            self.hc.epoch_end();
            self.hc.next_epoch_end = now + self.hc.cfg.epoch_cycles;
        }
    }

    /// Next cycle at which [`Self::on_cycle`] has real work: the upcoming
    /// epoch boundary for the dynamic policies, `None` for static policies
    /// (whose `on_cycle` is a pure no-op — quiescence horizon of the ctrl
    /// side-channel stage).
    pub fn next_epoch_at(&self) -> Option<Cycle> {
        match self.policy {
            OffloadPolicy::Dynamic | OffloadPolicy::DynamicCacheAware => {
                Some(self.hc.next_epoch_end)
            }
            _ => None,
        }
    }

    /// Current offload ratio (1.0 for Always, 0.0 for Never).
    pub fn current_ratio(&self) -> f64 {
        match self.policy {
            OffloadPolicy::Never => 0.0,
            OffloadPolicy::Always => 1.0,
            OffloadPolicy::Static(r) => r,
            OffloadPolicy::Dynamic | OffloadPolicy::DynamicCacheAware => self.hc.ratio,
        }
    }

    /// §7.3 cache-locality score of a block, in bytes of GPU off-chip
    /// traffic saved per warp instance. Positive ⇒ offloading helps.
    ///
    /// Net-traffic form of the paper's Benefit: missing lines offloaded are
    /// GPU-link bytes *saved* (they travel vault→NSU over the memory
    /// network), store data words are saved likewise (write-through cache,
    /// §7.3), while cache-*hitting* lines become bytes *spent* — an RDF hit
    /// ships the cached words GPU→NSU off-chip (§4.1), which is exactly why
    /// cache-friendly blocks (STN, the BPROP structure) lose. Register
    /// transfers charge per Eq. 1. See DESIGN.md for the delta vs. the
    /// paper's stated formula.
    pub fn locality_score(&self, block: u16) -> f64 {
        let s = &self.block_stats[block as usize];
        let b = &self.blocks[block as usize];
        if s.instances < 8 {
            return 1.0; // insufficient data: allow offloading to learn
        }
        let hit = s.hit_rate();
        let miss = 1.0 - hit;
        let lines = s.lines_per_instance();
        // Average words per line access: 32 for dense streams, ~1 for
        // divergent gathers (whose RDF responses only carry touched words).
        let words_per_line = if lines > 0.0 {
            (b.n_loads() as f64 * self.warp_width) / lines
        } else {
            self.warp_width
        };
        let benefit = lines * miss * self.line_bytes
            + b.n_stores() as f64 * self.warp_width * self.word_bytes;
        let hit_ship = lines * hit * words_per_line * self.word_bytes;
        let reg_overhead =
            (b.live_in.len() + b.live_out.len()) as f64 * self.word_bytes * self.warp_width;
        benefit - hit_ship - reg_overhead
    }

    /// Test/diagnostic hooks.
    #[doc(hidden)]
    pub fn debug_set_epoch_instrs(&mut self, n: u64) {
        self.hc.epoch_instrs = n;
    }

    #[doc(hidden)]
    pub fn debug_step(&self) -> f64 {
        self.hc.step
    }

    fn sample(&mut self, sm: u16, ratio: f64) -> bool {
        self.decisions += 1;
        unit_sample(self.seed, sm as u64, self.decisions) < ratio
    }
}

ndp_common::snap_value!(BlockStats {
    lines,
    l1_hits,
    l2_hits,
    instances,
    instrs,
});

ndp_common::snap_state!(HillClimb {
    ratio, step, dir, prev_ipc, dir_change_history, next_epoch_end, epoch_instrs;
    derived: cfg
});

// The decision counter drives the deterministic sampling stream.
ndp_common::snap_state!(OffloadController {
    mgr, block_stats [each], hc, decisions, offered, offloaded, wta_inflight [each],
    ro_cache [each];
    derived: policy, blocks, seed, line_bytes, warp_width, word_bytes, ro_cache_lines,
        read_capacity, write_capacity
});

impl NdpEnv for OffloadController {
    fn decide_offload(&mut self, sm: u16, block: u16) -> bool {
        self.offered += 1;
        if !self.fits_buffers(block) {
            return false;
        }
        let go = match self.policy {
            OffloadPolicy::Never => false,
            OffloadPolicy::Always => true,
            OffloadPolicy::Static(r) => self.sample(sm, r),
            OffloadPolicy::Dynamic => {
                let r = self.hc.ratio;
                self.sample(sm, r)
            }
            OffloadPolicy::DynamicCacheAware => {
                if self.locality_score(block) <= 0.0 {
                    false
                } else {
                    let r = self.hc.ratio;
                    self.sample(sm, r)
                }
            }
        };
        if go {
            self.offloaded += 1;
        }
        go
    }

    fn try_reserve(&mut self, hmc: HmcId, n_loads: usize, n_stores: usize) -> bool {
        self.mgr.try_reserve(hmc, n_loads, n_stores)
    }

    fn note_block_lines(&mut self, block: u16, lines: u32, l1_hits: u32) {
        let s = &mut self.block_stats[block as usize];
        s.lines += lines as u64;
        s.l1_hits += l1_hits as u64;
    }

    fn note_block_done(&mut self, block: u16, instrs: u32) {
        let s = &mut self.block_stats[block as usize];
        s.instances += 1;
        s.instrs += instrs as u64;
        self.hc.epoch_instrs += instrs as u64;
    }

    fn note_wta_line(&mut self, hmc: HmcId) {
        self.wta_inflight[hmc.0 as usize] += 1;
    }

    fn nsu_ro_cached(&mut self, nsu: HmcId, line: u64) -> bool {
        if self.ro_cache_lines == 0 {
            return false;
        }
        let dir = &mut self.ro_cache[nsu.0 as usize];
        if !dir.lines.insert(line) {
            return true;
        }
        dir.order.push_back(line);
        if dir.order.len() > self.ro_cache_lines {
            if let Some(evicted) = dir.order.pop_front() {
                dir.lines.remove(&evicted);
            }
        }
        false
    }
}

impl OffloadController {
    /// L2-level hit/miss samples reported by the uncore.
    pub fn note_l2_event(&mut self, block: u16, hit: bool) {
        if hit {
            self.block_stats[block as usize].l2_hits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_isa::offload::{InstrRole, NsuInstr};
    use ndp_isa::Reg;

    fn blocks() -> Arc<Vec<OffloadBlock>> {
        Arc::new(vec![OffloadBlock {
            id: 0,
            start: 0,
            end: 3,
            roles: vec![InstrRole::Load, InstrRole::AtNsu, InstrRole::Store],
            live_in: vec![],
            live_out: vec![],
            nsu_code: vec![
                NsuInstr::Begin { regs_in: 0 },
                NsuInstr::Ld { dst: Reg(0) },
                NsuInstr::St { src: Reg(0) },
                NsuInstr::End { regs_out: 0 },
            ],
            nsu_pc: 0xd00,
            score: 1,
            indirect: false,
        }])
    }

    fn ctl(policy: OffloadPolicy) -> OffloadController {
        let cfg = SystemConfig {
            offload: policy,
            ..Default::default()
        };
        OffloadController::new(&cfg, blocks())
    }

    #[test]
    fn never_and_always() {
        let mut c = ctl(OffloadPolicy::Never);
        assert!(!c.decide_offload(0, 0));
        let mut c = ctl(OffloadPolicy::Always);
        assert!(c.decide_offload(0, 0));
    }

    #[test]
    fn static_ratio_statistics() {
        let mut c = ctl(OffloadPolicy::Static(0.4));
        let n = 10_000;
        let yes = (0..n).filter(|_| c.decide_offload(3, 0)).count();
        let frac = yes as f64 / n as f64;
        assert!((frac - 0.4).abs() < 0.03, "observed {frac}");
    }

    #[test]
    fn hill_climb_moves_toward_better_throughput() {
        let mut c = ctl(OffloadPolicy::Dynamic);
        let epoch = c.hc.cfg.epoch_cycles;
        let r0 = c.current_ratio();
        // Feed epochs where throughput keeps rising: ratio should keep
        // moving in one direction.
        for e in 1..=6u64 {
            c.hc.epoch_instrs = 1000 * e;
            c.on_cycle(e * epoch);
        }
        let r1 = c.current_ratio();
        assert!(r1 > r0, "ratio should grow: {r0} → {r1}");
    }

    #[test]
    fn hill_climb_reverses_and_shrinks_step_on_oscillation() {
        let mut c = ctl(OffloadPolicy::Dynamic);
        let epoch = c.hc.cfg.epoch_cycles;
        // Monotonically degrading epochs: every epoch is worse than the
        // last and the direction flips each time. Algorithm 1 then drives
        // the step down to hover at the minimum (it bounces between
        // Step_min and Step_min + Step_unit by construction of the
        // if/else in the paper's listing).
        let start_step = c.hc.step;
        for e in 1..=12u64 {
            c.hc.epoch_instrs = 20_000 / e;
            c.on_cycle(e * epoch);
        }
        assert!(
            c.hc.step <= c.hc.cfg.step_min + c.hc.cfg.step_unit + 1e-9,
            "step = {}",
            c.hc.step
        );
        assert!(c.hc.step < start_step + 1e-9);
    }

    #[test]
    fn ratio_stays_in_bounds() {
        let mut c = ctl(OffloadPolicy::Dynamic);
        let epoch = c.hc.cfg.epoch_cycles;
        for e in 1..=50u64 {
            c.hc.epoch_instrs = 1000 * e; // monotone improvement
            c.on_cycle(e * epoch);
        }
        assert!(c.current_ratio() <= 0.95 + 1e-9);
        let mut c = ctl(OffloadPolicy::Dynamic);
        for e in 1..=50u64 {
            c.hc.epoch_instrs = 100_000 / e; // monotone degradation
            c.on_cycle(e * epoch);
        }
        assert!(c.current_ratio() >= 0.05 - 1e-9);
    }

    #[test]
    fn gate_suppresses_cache_friendly_blocks() {
        // A dense loads-only block (the STN regime: each load = 1 line,
        // full warp per line) whose lines mostly hit in the GPU caches:
        // shipping the cached words off-chip outweighs the miss savings.
        let mut c = ctl_loads_only(OffloadPolicy::DynamicCacheAware);
        for _ in 0..100 {
            c.note_block_done(0, 3);
        }
        c.note_block_lines(0, 200, 128); // 2 lines/instance, 64% hit
        assert!(c.locality_score(0) <= 0.0, "score {}", c.locality_score(0));
        assert!(!c.decide_offload(0, 0));
    }

    fn ctl_loads_only(policy: OffloadPolicy) -> OffloadController {
        let cfg = SystemConfig {
            offload: policy,
            ..Default::default()
        };
        let b = Arc::new(vec![OffloadBlock {
            id: 0,
            start: 0,
            end: 3,
            roles: vec![InstrRole::Load, InstrRole::Load, InstrRole::AtNsu],
            live_in: vec![],
            live_out: vec![],
            nsu_code: vec![
                NsuInstr::Begin { regs_in: 0 },
                NsuInstr::Ld { dst: Reg(0) },
                NsuInstr::Ld { dst: Reg(1) },
                NsuInstr::End { regs_out: 0 },
            ],
            nsu_pc: 0xd00,
            score: 1,
            indirect: false,
        }]);
        OffloadController::new(&cfg, b)
    }

    #[test]
    fn gate_allows_streaming_blocks() {
        let mut c = ctl_loads_only(OffloadPolicy::DynamicCacheAware);
        for _ in 0..100 {
            c.note_block_done(0, 3);
        }
        c.note_block_lines(0, 200, 4);
        assert!(c.locality_score(0) > 0.0);
    }

    #[test]
    fn gate_allows_divergent_gathers_even_with_hits() {
        // 32 lines per instance, 1 word each (BFS-style gather): even at a
        // 50% hit rate the misses dominate because hit shipping is 4 B/line
        // while each missing line saves 128 B of baseline fetch.
        let mut c = ctl_loads_only(OffloadPolicy::DynamicCacheAware);
        for _ in 0..100 {
            c.note_block_done(0, 1);
        }
        c.note_block_lines(0, 6400, 3200);
        assert!(c.locality_score(0) > 0.0);
    }

    #[test]
    fn ro_cache_directory_hits_after_first_ship() {
        let mut cfg = SystemConfig {
            offload: OffloadPolicy::Always,
            ..Default::default()
        };
        cfg.nsu.readonly_cache_bytes = 256; // two lines
        let mut c = OffloadController::new(&cfg, blocks());
        assert!(!c.nsu_ro_cached(HmcId(0), 0x1000), "first touch ships data");
        assert!(c.nsu_ro_cached(HmcId(0), 0x1000), "second touch is cached");
        assert!(!c.nsu_ro_cached(HmcId(1), 0x1000), "per-NSU directories");
        // FIFO eviction at two lines.
        assert!(!c.nsu_ro_cached(HmcId(0), 0x2000));
        assert!(!c.nsu_ro_cached(HmcId(0), 0x3000)); // evicts 0x1000
        assert!(!c.nsu_ro_cached(HmcId(0), 0x1000), "evicted line re-ships");
    }

    #[test]
    fn ro_cache_disabled_by_default() {
        let mut c = ctl(OffloadPolicy::Always);
        assert!(!c.nsu_ro_cached(HmcId(0), 0x1000));
        assert!(!c.nsu_ro_cached(HmcId(0), 0x1000), "stays off");
    }

    #[test]
    fn wta_counters_track_inflight_writes() {
        let mut c = ctl(OffloadPolicy::Always);
        assert!(c.page_remap_safe(HmcId(3)));
        c.note_wta_line(HmcId(3));
        c.note_wta_line(HmcId(3));
        c.note_wta_line(HmcId(5));
        assert!(!c.page_remap_safe(HmcId(3)));
        assert!(!c.page_remap_safe(HmcId(5)));
        assert!(c.page_remap_safe(HmcId(0)), "other stacks unaffected");
        assert!(c.note_inval(HmcId(3)));
        assert!(!c.page_remap_safe(HmcId(3)));
        assert!(c.note_inval(HmcId(3)));
        assert!(c.note_inval(HmcId(5)));
        assert!(!c.note_inval(HmcId(5)), "orphan inval reported");
        assert!(c.page_remap_safe(HmcId(3)));
        assert!(c.page_remap_safe(HmcId(5)));
    }

    #[test]
    fn gate_learns_before_judging() {
        let c = ctl(OffloadPolicy::DynamicCacheAware);
        assert!(c.locality_score(0) > 0.0, "no data yet ⇒ allow");
    }
}
