//! Streaming multiprocessor timing model with partitioned-execution support.
//!
//! Each SM holds up to 48 warp contexts, issues up to `issue_width`
//! instructions per cycle through a loose round-robin scheduler with a
//! per-register scoreboard, coalesces memory accesses, probes its private
//! L1D, and — for offloaded block instances — generates the CMD/RDF/WTA
//! packet streams of §4.1.1 through the pending/ready NDP buffers.
//!
//! No-issue cycles are attributed to the Fig. 8 categories: ExecUnitBusy
//! (structural hazard: unit taken, MSHR full, buffers full), DependencyStall
//! (operand not ready), WarpIdle (no runnable instruction — empty slots,
//! barriers, or warps blocked on offload acknowledgments).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ndp_common::bitset::BitSet;
use ndp_common::config::SystemConfig;
use ndp_common::error::{PacketSummary, SimError};
use ndp_common::ids::{Cycle, HmcId, Node, OffloadId, OffloadToken};
use ndp_common::memmap::MemMap;
use ndp_common::packet::{LineAccess, Packet, PacketKind};
use ndp_common::port::OutPort;
use ndp_common::snap::{self, SnapError, SnapReader, SnapState, SnapWriter};
use ndp_common::stats::{IssueStats, NoIssue};
use ndp_compiler::CompiledKernel;
use ndp_isa::exec::{StepLite, WarpExec};
use ndp_isa::instr::MemSpace;
use ndp_isa::offload::InstrRole;
use ndp_isa::program::Item;
use ndp_isa::Reg;

use crate::cache::{Cache, Probe};
use crate::coalesce::coalesce;
use crate::ndpbuf::SmPacketBuffers;

/// Environment the SM consults for offload decisions and reports block
/// statistics to. Implemented by the system-level offload controller.
pub trait NdpEnv {
    /// Should this offload-block instance be offloaded? Called once per
    /// instance at `OFLD.BEG`.
    fn decide_offload(&mut self, sm: u16, block: u16) -> bool;
    /// Reserve NSU buffers for a block (§4.3). All-or-nothing.
    fn try_reserve(&mut self, hmc: HmcId, n_loads: usize, n_stores: usize) -> bool;
    /// Cache-behaviour sample for one load instruction of a block: lines
    /// touched and how many hit in the L1 (L2 hits are reported by the
    /// uncore separately). Feeds the §7.3 locality gate.
    fn note_block_lines(&mut self, block: u16, lines: u32, l1_hits: u32);
    /// One block instance finished (either side); `instrs` is the block's
    /// instruction count — the throughput signal of Algorithm 1.
    fn note_block_done(&mut self, block: u16, instrs: u32);
    /// A WTA line was generated whose DRAM write will land in `hmc`
    /// (§4.1 "Handling dynamic memory management": the GPU tracks in-flight
    /// write addresses per stack so a page swap can wait for them).
    fn note_wta_line(&mut self, hmc: HmcId);
    /// §7.1 extension — the optional small read-only cache on each NSU:
    /// returns true when `line` is already resident in `nsu`'s read-only
    /// cache (the GPU marshals all data movement, so it can keep this
    /// directory); marks the line resident otherwise. Always false when
    /// the feature is disabled.
    fn nsu_ro_cached(&mut self, nsu: HmcId, line: u64) -> bool {
        let _ = (nsu, line);
        false
    }
}

/// Per-SM static parameters (derived from [`SystemConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct SmConfig {
    pub id: u16,
    pub warp_slots: usize,
    pub issue_width: usize,
    pub alu_lat: u32,
    pub sfu_lat: u32,
    pub l1_lat: u32,
    pub line_bytes: u32,
    pub word_bytes: u32,
    /// Warps per CTA (for barrier scope).
    pub warps_per_cta: u32,
    /// Max packets the SM ejects into the interconnect per cycle.
    pub eject_rate: usize,
    /// Output queue capacity (backpressure bound).
    pub out_capacity: usize,
    pub shared_lat: u32,
    /// §4.1 RDF cache-probe behaviour (ablation knob).
    pub rdf_probes_cache: bool,
}

impl SmConfig {
    pub fn from_system(id: u16, cfg: &SystemConfig) -> Self {
        SmConfig {
            id,
            warp_slots: cfg.gpu.warps_per_sm,
            issue_width: cfg.gpu.issue_width,
            alu_lat: cfg.gpu.alu_latency,
            sfu_lat: cfg.gpu.sfu_latency,
            l1_lat: cfg.gpu.l1_hit_latency,
            line_bytes: cfg.gpu.line_bytes as u32,
            word_bytes: 4,
            warps_per_cta: cfg.gpu.warps_per_cta,
            eject_rate: 2,
            out_capacity: 128,
            shared_lat: cfg.gpu.l1_hit_latency,
            rdf_probes_cache: cfg.nsu.rdf_probes_gpu_cache,
        }
    }
}

/// Offload context of a warp currently inside an offloaded block instance.
#[derive(Debug)]
struct OflCtx {
    block: u16,
    token: OffloadToken,
    target: Option<HmcId>,
    /// Sequence number of the next memory instruction (§4.1.1).
    seq: u16,
    reserved: bool,
    /// Packets staged until the reservation is granted (pending buffer).
    /// A deque: promotion drains from the front while issue appends at the
    /// back, and `Vec::remove(0)` made the drain quadratic in depth.
    staged: VecDeque<Packet>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    Ready,
    Barrier,
    WaitAck,
}

struct WarpSlot {
    exec: WarpExec,
    cta: u32,
    /// Scoreboard: the cycle each register's value is ready, one entry per
    /// register of `exec`'s program-sized register file.
    reg_ready: Vec<Cycle>,
    state: WState,
    ofl: Option<OflCtx>,
    /// Block the warp is currently passing through *without* offloading
    /// (for per-block stats parity).
    local_block: Option<u16>,
    /// Scheduler shortcut: the warp is known to be dependency-stalled until
    /// this cycle (`Cycle::MAX` while waiting on an outstanding load).
    wake_at: Cycle,
    /// Memoized coalesce result for the current memory instruction
    /// (`(executed-count, accesses)`), so repeated issue attempts under
    /// structural stalls don't redo the 32-lane grouping.
    coalesced: Option<(u64, Vec<LineAccess>)>,
    /// Why the instruction at `executed`-count `.0` last failed a
    /// structural check. While it still holds, a retry answers from it
    /// instead of re-running the issue path (DESIGN.md §15). Not
    /// serialized: `None` at spawn and restore.
    blocked: Option<(u64, Blocked)>,
}

/// A structural verdict that repeats until something it depends on
/// changes. Only loads and stores through the local L1 path get one.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// A local global load needed more MSHRs than were free. Only an L1
    /// fill can shrink the shortfall, and by at most two (it frees one
    /// MSHR and makes one line resident; an eviction only adds a line,
    /// an MSHR allocation only takes one), so the verdict holds while the
    /// SM's fill count is below `until_fills` (DESIGN.md §15).
    Mshr { until_fills: u64 },
    /// A local global load (`nap`) or store needed `need` output-queue
    /// entries that were not free.
    OutQueue { need: usize, nap: bool },
}

impl WarpSlot {
    /// The generated `snap`, with `wake` written for `wake_at`: the image
    /// holds a parked slot's wake cycle as polling would (`Sm::snap_at`).
    fn snap_waking_at(&self, wake: Cycle, w: &mut SnapWriter) {
        let WarpSlot {
            exec,
            cta,
            reg_ready,
            state,
            ofl,
            local_block,
            wake_at: _,
            coalesced,
            blocked: _,
        } = self;
        exec.snap(w);
        cta.snap(w);
        snap::snap_words(reg_ready, w);
        state.snap(w);
        ofl.snap(w);
        local_block.snap(w);
        wake.snap(w);
        coalesced.snap(w);
    }

    /// A warp at its first instruction, scoreboard sized to its register
    /// file.
    fn new(exec: WarpExec, cta: u32) -> Self {
        WarpSlot {
            reg_ready: vec![0; exec.num_regs()],
            exec,
            cta,
            state: WState::Ready,
            ofl: None,
            local_block: None,
            wake_at: 0,
            coalesced: None,
            blocked: None,
        }
    }
}

ndp_common::snap_value!(enum WState {
    0 => Ready,
    1 => Barrier,
    2 => WaitAck,
});
ndp_common::snap_value!(OflCtx {
    block,
    token,
    target,
    seq,
    reserved,
    staged,
});
// The blocked-verdict memo is `None` after a restore.
ndp_common::snap_state!(WarpSlot {
    exec, cta, reg_ready [words], state, ofl, local_block, wake_at, coalesced;
    derived: blocked
});
ndp_common::snap_value!(Inflight { slot, block });
ndp_common::snap_value!(LoadTrack {
    slot,
    inc,
    dst,
    remaining,
});

/// In-flight offload bookkeeping (per SM).
struct Inflight {
    slot: usize,
    block: u16,
}

struct LoadTrack {
    slot: usize,
    /// Slot incarnation at issue time — guards against a retired warp's
    /// slot being reused before a stale fill arrives.
    inc: u32,
    dst: Reg,
    remaining: u32,
}

/// One streaming multiprocessor.
pub struct Sm {
    pub cfg: SmConfig,
    kernel: Arc<CompiledKernel>,
    memmap: MemMap,
    slots: Vec<Option<WarpSlot>>,
    /// Per-slot incarnation counters (bumped on spawn).
    incarnation: Vec<u32>,
    /// Warps not yet launched: (global warp index, active mask, cta).
    launch_queue: VecDeque<(u32, u32, u32)>,
    l1d: Cache<u64>,
    load_tracks: HashMap<u64, LoadTrack>,
    next_track: u64,
    next_token: u64,
    inflight: HashMap<OffloadToken, Inflight>,
    buffers: SmPacketBuffers,
    /// Outgoing packets (cache traffic + granted NDP packets), drained by
    /// the fabric's SM-eject edge.
    pub out: OutPort,
    /// Barrier bookkeeping: cta → arrived count.
    barrier_arrived: HashMap<u32, u32>,
    /// cta → live warps resident.
    cta_alive: HashMap<u32, u32>,
    rr_cursor: usize,
    seed: u64,
    pub stats: IssueStats,
    /// Dynamic warp instructions issued inside offload blocks (either mode).
    pub block_instrs: u64,
    /// Warps that have fully completed (including ACK waits).
    pub warps_retired: u64,

    // ---- Incremental scheduler state (DESIGN.md §15) ----
    //
    // Everything below is derived from `slots` and maintained at the state-
    // transition sites, never rediscovered by per-cycle scans. None of it is
    // serialized: `restore` rebuilds it with `rebuild_sched`, keeping the
    // snapshot format byte-identical to the scan-based scheduler's.
    //
    /// Issue candidates: occupied slots in `Ready` state whose `wake_at` has
    /// passed (the wake-wheel moves slots here as their cycle arrives).
    sched_ready: BitSet,
    /// Dependency-stalled `Ready` slots as `(wake cycle, slot)`, sorted by
    /// descending wake cycle so the next due entry is `last()`; one entry
    /// per slot at most, so never more than `warp_slots`. Slots parked at
    /// `Cycle::MAX` (awaiting a load fill) are in neither structure —
    /// `deliver` wakes them directly.
    wake_wheel: Vec<(Cycle, usize)>,
    /// `Ready` slots an MSHR verdict refused, by the phase (`wake_at % 4`)
    /// of the cycles on which they retry. They are off the wheel and out
    /// of the horizon: a cycle the SM sits out books their retries'
    /// ExecUnitBusy (`note_skipped`), and a real tick moves the set of its
    /// phase into the ready set. A parked slot's `wake_at` lags the cycle
    /// polling would hold by whole periods of 4.
    parked: [BitSet; 4],
    /// L1 fills since construction or restore: the clock the MSHR verdicts
    /// (`Blocked::Mshr`) are kept against.
    l1_fills: u64,
    /// No parked slot's verdict expires before this fill count (a lower
    /// bound, made exact whenever a fill reaches it).
    parked_until_fills: u64,
    /// First cycle whose issue statistics are not yet in `stats`. The
    /// system ticks an SM only on cycles it has work; the cycles it sat
    /// out are booked when it is next ticked, delivered to or collected
    /// (`book_until`), and read through `issue_stats_until` by snapshots.
    booked: Cycle,
    /// Cycle of the most recent `service_wheel` call; every wheel key is
    /// strictly greater except transiently after a checkpoint restore.
    wheel_serviced_at: Cycle,
    /// Slots whose offload target is known but whose NSU-buffer reservation
    /// is still denied (`retry_reservations` candidates).
    retry_set: BitSet,
    /// Slots with a granted reservation and staged packets to promote
    /// (`promote_and_eject` candidates).
    promote_set: BitSet,
    /// Occupied slots in `Ready` state regardless of `wake_at` — the O(1)
    /// input to `note_skipped`'s stall attribution.
    ready_state_count: usize,
    /// Total staged packets across all offload contexts (pending-buffer
    /// admission check in `issue_rdf`/`issue_wta`).
    staged_total: usize,
    /// Perf-report surface: invoked issue cycles and the summed ready-set
    /// size over them (not model state; excluded from snapshots).
    ready_ticks: u64,
    ready_sum: u64,
    /// Perf-report surface: issue attempts refused by a full MSHR table or
    /// output queue, how many of them the blocked-verdict memo answered,
    /// and parked slots' retries booked on cycles the SM sat out instead
    /// of run (not model state; excluded from snapshots).
    structural_retries: u64,
    memo_answers: u64,
    replayed_retries: u64,
    /// Test-only fault: drop wake-wheel insertions so the consistency
    /// checker's detection of a missing update site can be demonstrated.
    #[doc(hidden)]
    pub sabotage_drop_wheel: bool,
    /// Test-only fault: L1 fills leave the fill count unchanged, so MSHR
    /// verdicts outlive the shortfall they were computed from and
    /// `check_blocked_memos` must say so.
    #[doc(hidden)]
    pub sabotage_skip_fill_count: bool,
}

impl Sm {
    pub fn new(cfg: SmConfig, sys: &SystemConfig, kernel: Arc<CompiledKernel>) -> Self {
        Sm {
            cfg,
            memmap: MemMap::new(sys),
            slots: (0..cfg.warp_slots).map(|_| None).collect(),
            incarnation: vec![0; cfg.warp_slots],
            launch_queue: VecDeque::new(),
            l1d: Cache::new(
                sys.gpu.l1d_bytes,
                sys.gpu.l1d_ways,
                sys.gpu.line_bytes,
                sys.gpu.l1d_mshrs,
            ),
            load_tracks: HashMap::new(),
            next_track: 0,
            next_token: 0,
            inflight: HashMap::new(),
            buffers: SmPacketBuffers::new(sys),
            out: OutPort::new(cfg.out_capacity),
            barrier_arrived: HashMap::new(),
            cta_alive: HashMap::new(),
            rr_cursor: 0,
            seed: sys.seed,
            stats: IssueStats::default(),
            block_instrs: 0,
            warps_retired: 0,
            sched_ready: BitSet::new(cfg.warp_slots),
            wake_wheel: Vec::new(),
            parked: std::array::from_fn(|_| BitSet::new(cfg.warp_slots)),
            l1_fills: 0,
            parked_until_fills: u64::MAX,
            booked: 0,
            wheel_serviced_at: 0,
            retry_set: BitSet::new(cfg.warp_slots),
            promote_set: BitSet::new(cfg.warp_slots),
            ready_state_count: 0,
            staged_total: 0,
            ready_ticks: 0,
            ready_sum: 0,
            structural_retries: 0,
            memo_answers: 0,
            replayed_retries: 0,
            sabotage_drop_wheel: false,
            sabotage_skip_fill_count: false,
            kernel,
        }
    }

    /// Queue a warp for execution on this SM.
    pub fn assign_warp(&mut self, warp_global: u32, active: u32, cta: u32) {
        self.launch_queue.push_back((warp_global, active, cta));
    }

    /// All warps retired and nothing in flight.
    pub fn is_done(&self) -> bool {
        self.launch_queue.is_empty()
            && self.slots.iter().all(|s| s.is_none())
            && self.load_tracks.is_empty()
            && self.inflight.is_empty()
            && self.out.is_empty()
            && self.buffers.is_empty()
    }

    pub fn l1_stats(&self) -> ndp_common::stats::CacheStats {
        self.l1d.stats
    }

    /// Rebuild every derived scheduler structure from `slots` (restore
    /// path). `Ready` slots with a nonzero finite `wake_at` all go to the
    /// wheel — possibly with an already-passed key, which the first
    /// `service_wheel` call drains — so no resume cycle is needed here.
    fn rebuild_sched(&mut self) {
        self.sched_ready.clear();
        self.wake_wheel.clear();
        self.parked.iter_mut().for_each(BitSet::clear);
        self.parked_until_fills = u64::MAX;
        self.wheel_serviced_at = 0;
        self.retry_set.clear();
        self.promote_set.clear();
        self.ready_state_count = 0;
        self.staged_total = 0;
        for i in 0..self.slots.len() {
            let Some(slot) = self.slots[i].as_ref() else {
                continue;
            };
            if slot.state == WState::Ready {
                self.ready_state_count += 1;
                if slot.wake_at == 0 {
                    self.sched_ready.insert(i);
                } else if slot.wake_at != Cycle::MAX {
                    self.wake_wheel.push((slot.wake_at, i));
                }
            }
            if let Some(ofl) = slot.ofl.as_ref() {
                self.staged_total += ofl.staged.len();
                if ofl.target.is_some() && !ofl.reserved {
                    self.retry_set.insert(i);
                }
                if ofl.reserved && !ofl.staged.is_empty() {
                    self.promote_set.insert(i);
                }
            }
        }
        self.wake_wheel
            .sort_unstable_by_key(|&(at, _)| std::cmp::Reverse(at));
    }

    /// Move every wheel slot whose wake cycle has arrived, and the parked
    /// slots of this cycle's phase, into the ready set. Runs at the top of
    /// each invoked tick; between ticks the horizon keeps the system from
    /// jumping past the earliest wheel key.
    fn service_wheel(&mut self, now: Cycle) {
        self.wheel_serviced_at = now;
        let phase = (now % 4) as usize;
        if !self.parked[phase].is_empty() {
            for i in self.parked[phase].iter() {
                // Polling would have napped it to exactly this cycle.
                self.slots[i]
                    .as_mut()
                    .expect("parked slot is resident")
                    .wake_at = now;
                self.sched_ready.insert(i);
            }
            self.parked[phase].clear();
        }
        while let Some(&(at, i)) = self.wake_wheel.last() {
            if at > now {
                break;
            }
            self.wake_wheel.pop();
            debug_assert!(
                matches!(&self.slots[i], Some(s) if s.state == WState::Ready),
                "wake-wheel slot must still be Ready"
            );
            self.sched_ready.insert(i);
        }
    }

    /// Remove slot `i` from whichever issue structure holds it (ready set,
    /// parked set, or wake-wheel entry at its current `wake_at`). Call
    /// *before* mutating the slot's `state` or `wake_at`.
    fn sched_detach(&mut self, i: usize) {
        if self.sched_ready.remove(i) {
            return;
        }
        let Some(slot) = self.slots[i].as_ref() else {
            return;
        };
        let at = slot.wake_at;
        if at == Cycle::MAX || self.parked[(at % 4) as usize].remove(i) {
            return;
        }
        let from = self.wake_wheel.partition_point(|&(c, _)| c > at);
        if let Some(k) = self.wake_wheel[from..]
            .iter()
            .take_while(|&&(c, _)| c == at)
            .position(|&(_, j)| j == i)
        {
            self.wake_wheel.remove(from + k);
        }
    }

    /// Re-file a `Ready` slot after its `wake_at` changed: issuable now →
    /// ready set, finite future wake → wheel, `Cycle::MAX` → parked until
    /// `deliver` wakes it.
    fn sched_attach(&mut self, i: usize, now: Cycle) {
        let Some(slot) = self.slots[i].as_ref() else {
            return;
        };
        if slot.state != WState::Ready {
            return;
        }
        let at = slot.wake_at;
        if at <= now {
            self.sched_ready.insert(i);
        } else if at != Cycle::MAX && !self.sabotage_drop_wheel {
            let pos = self.wake_wheel.partition_point(|&(c, _)| c >= at);
            self.wake_wheel.insert(pos, (at, i));
        }
    }

    /// A load fill (or barrier-independent wake) arrived for slot `i`:
    /// clear its stall and make it an issue candidate if it is `Ready`.
    fn wake_now(&mut self, i: usize) {
        self.sched_detach(i);
        let Some(slot) = self.slots[i].as_mut() else {
            return;
        };
        slot.wake_at = 0;
        if slot.state == WState::Ready {
            self.sched_ready.insert(i);
        }
    }

    /// Brute-force reference horizon: the pre-ready-set implementation that
    /// rescans every slot. Kept as the oracle the property suite diffs the
    /// incremental structures against. Parked slots are taken from the
    /// parked sets (`check_sched_consistency` and `check_blocked_memos`
    /// vouch for those), and never count.
    #[doc(hidden)]
    pub fn next_work_at_oracle(&self, now: Cycle) -> Option<Cycle> {
        if !self.launch_queue.is_empty() || !self.buffers.is_empty() {
            return Some(now);
        }
        let mut horizon: Option<Cycle> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            if let Some(ofl) = &slot.ofl {
                if ofl.target.is_some() && (!ofl.reserved || !ofl.staged.is_empty()) {
                    return Some(now);
                }
            }
            if slot.state == WState::Ready && self.parked_phase(i).is_none() {
                if slot.wake_at <= now {
                    return Some(now);
                }
                if slot.wake_at != Cycle::MAX {
                    horizon = Some(horizon.map_or(slot.wake_at, |h: Cycle| h.min(slot.wake_at)));
                }
            }
        }
        horizon
    }

    /// Diff every incremental scheduler structure against a brute-force
    /// full-slot rescan. Any stale or missing membership is reported with
    /// the structure's name — the oracle the randomized property test and
    /// the wake-wheel mutation test both lean on.
    #[doc(hidden)]
    pub fn check_sched_consistency(&self) -> Result<(), String> {
        let mut ready_count = 0usize;
        let mut staged = 0usize;
        let mut wheel_count = 0usize;
        let in_wheel = |i: usize, at: Cycle| self.wake_wheel.contains(&(at, i));
        let in_wheel_at_all = |i: usize| self.wake_wheel.iter().any(|&(_, j)| j == i);
        for (i, s) in self.slots.iter().enumerate() {
            let phases = self.parked.iter().filter(|p| p.contains(i)).count();
            if phases > 1 {
                return Err(format!("parked sets hold slot {i} in {phases} phases"));
            }
            let Some(slot) = s else {
                if phases > 0 {
                    return Err(format!("parked set contains empty slot {i}"));
                }
                if self.sched_ready.contains(i) {
                    return Err(format!("sched_ready contains empty slot {i}"));
                }
                if in_wheel_at_all(i) {
                    return Err(format!("wake_wheel contains empty slot {i}"));
                }
                if self.retry_set.contains(i) {
                    return Err(format!("retry_set contains empty slot {i}"));
                }
                if self.promote_set.contains(i) {
                    return Err(format!("promote_set contains empty slot {i}"));
                }
                continue;
            };
            if phases > 0 {
                self.check_parked(i, slot)?;
                ready_count += 1;
            } else if slot.state == WState::Ready {
                ready_count += 1;
                if slot.wake_at <= self.wheel_serviced_at {
                    if !self.sched_ready.contains(i) {
                        return Err(format!(
                            "sched_ready missing slot {i} (Ready, wake_at {} already serviced)",
                            slot.wake_at
                        ));
                    }
                    if in_wheel_at_all(i) {
                        return Err(format!("wake_wheel stale entry for ready slot {i}"));
                    }
                } else if slot.wake_at != Cycle::MAX {
                    if self.sched_ready.contains(i) {
                        return Err(format!(
                            "sched_ready stale entry for slot {i} (wake_at {} in the future)",
                            slot.wake_at
                        ));
                    }
                    if !in_wheel(i, slot.wake_at) {
                        return Err(format!(
                            "wake_wheel missing slot {i} at wake_at {} — a wake-wheel \
                             update site was dropped",
                            slot.wake_at
                        ));
                    }
                    wheel_count += 1;
                } else {
                    if self.sched_ready.contains(i) {
                        return Err(format!("sched_ready contains load-parked slot {i}"));
                    }
                    if in_wheel_at_all(i) {
                        return Err(format!("wake_wheel contains load-parked slot {i}"));
                    }
                }
            } else {
                if self.sched_ready.contains(i) {
                    return Err(format!("sched_ready contains non-Ready slot {i}"));
                }
                if in_wheel_at_all(i) {
                    return Err(format!("wake_wheel contains non-Ready slot {i}"));
                }
            }
            let (want_retry, want_promote) = slot.ofl.as_ref().map_or((false, false), |ofl| {
                staged += ofl.staged.len();
                (
                    ofl.target.is_some() && !ofl.reserved,
                    ofl.reserved && !ofl.staged.is_empty(),
                )
            });
            if self.retry_set.contains(i) != want_retry {
                return Err(format!(
                    "retry_set disagrees with rescan for slot {i} (expected {want_retry})"
                ));
            }
            if self.promote_set.contains(i) != want_promote {
                return Err(format!(
                    "promote_set disagrees with rescan for slot {i} (expected {want_promote})"
                ));
            }
        }
        if self.ready_state_count != ready_count {
            return Err(format!(
                "ready_state_count is {}, rescan says {ready_count}",
                self.ready_state_count
            ));
        }
        if self.staged_total != staged {
            return Err(format!(
                "staged_total is {}, rescan says {staged}",
                self.staged_total
            ));
        }
        if self.wake_wheel.len() != wheel_count {
            return Err(format!(
                "wake_wheel holds {} entries, rescan says {wheel_count}",
                self.wake_wheel.len()
            ));
        }
        if !self.wake_wheel.windows(2).all(|w| w[0].0 >= w[1].0) {
            return Err("wake_wheel is not sorted by descending wake cycle".to_string());
        }
        Ok(())
    }

    /// A parked slot is Ready, filed only under its `wake_at` phase, and
    /// holds an MSHR verdict that has not expired and that the parked
    /// bound does not overshoot.
    fn check_parked(&self, i: usize, slot: &WarpSlot) -> Result<(), String> {
        let fail = |why: String| Err(format!("parked slot {i} {why}"));
        if slot.state != WState::Ready {
            return fail("is not Ready".into());
        }
        if self.parked_phase(i) != Some((slot.wake_at % 4) as usize) {
            return fail(format!("is filed off its wake_at {} phase", slot.wake_at));
        }
        if self.sched_ready.contains(i) || self.wake_wheel.iter().any(|&(_, j)| j == i) {
            return fail("is also in sched_ready or wake_wheel".into());
        }
        match slot.blocked {
            Some((e, Blocked::Mshr { until_fills })) if e == slot.exec.executed => {
                if until_fills <= self.l1_fills {
                    fail(format!(
                        "outlived its MSHR verdict (until fill count {until_fills}, fill \
                         count {})",
                        self.l1_fills
                    ))
                } else if until_fills < self.parked_until_fills {
                    fail(format!(
                        "expires at fill count {until_fills}, before the parked bound {}",
                        self.parked_until_fills
                    ))
                } else {
                    Ok(())
                }
            }
            other => fail(format!("holds no MSHR verdict ({other:?})")),
        }
    }

    /// For every slot whose blocked-verdict memo would answer now (parked
    /// slots among them), recompute the verdict from scratch — operand
    /// readiness, output-queue room, and L1 residency of the memoized
    /// accesses against MSHR headroom — and name the slot and the reason
    /// on a disagreement. The oracle the scheduler property test runs
    /// every cycle, and the one the skipped-fill-count mutation test must
    /// trip.
    #[doc(hidden)]
    pub fn check_blocked_memos(&self, now: Cycle) -> Result<(), String> {
        for (i, s) in self.slots.iter().enumerate() {
            let Some(slot) = s else { continue };
            let Some((executed, b)) = slot.blocked else {
                continue;
            };
            if executed != slot.exec.executed || !self.still_blocked(b) {
                continue;
            }
            if slot.state != WState::Ready {
                return Err(format!("slot {i}: {b:?} memo held by a non-Ready warp"));
            }
            let at = self.operands_ready_at(i, slot.exec.pc());
            if at > now {
                return Err(format!(
                    "slot {i}: {b:?} memo would answer, but an operand is not ready \
                     until cycle {at} (now {now})"
                ));
            }
            let Some((key, accesses)) = &slot.coalesced else {
                return Err(format!("slot {i}: {b:?} memo without coalesced accesses"));
            };
            if *key != executed {
                return Err(format!(
                    "slot {i}: {b:?} memo at instruction {executed}, accesses at {key}"
                ));
            }
            match b {
                Blocked::OutQueue { need, .. } => {
                    if need != accesses.len()
                        || self.out.len() + accesses.len() <= self.cfg.out_capacity
                    {
                        return Err(format!(
                            "slot {i}: {b:?} memo, but {} lines fit in the output queue \
                             ({} of {} used)",
                            accesses.len(),
                            self.out.len(),
                            self.cfg.out_capacity
                        ));
                    }
                }
                Blocked::Mshr { until_fills } => {
                    let headroom = self
                        .l1d
                        .mshr_capacity()
                        .saturating_sub(self.l1d.mshr_used());
                    let new_lines = accesses
                        .iter()
                        .filter(|a| !self.l1d.contains(a.line))
                        .count();
                    if new_lines <= headroom {
                        return Err(format!(
                            "slot {i}: MSHR verdict held until fill count {until_fills} is \
                             stale at fill count {}: {new_lines} new lines fit in {headroom} \
                             free MSHRs",
                            self.l1_fills
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Does a blocked verdict still hold? The MSHR verdict holds until its
    /// fill count (see `Blocked::Mshr`); the output-queue verdict is
    /// rechecked directly.
    fn still_blocked(&self, b: Blocked) -> bool {
        match b {
            Blocked::Mshr { until_fills } => self.l1_fills < until_fills,
            Blocked::OutQueue { need, .. } => self.out.len() + need > self.cfg.out_capacity,
        }
    }

    /// Resident warps whose current instruction was last refused by a
    /// full MSHR table (test surface: the checkpoint suite snapshots where
    /// this is nonzero).
    #[doc(hidden)]
    pub fn mshr_blocked_warps(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(
                |s| matches!(s.blocked, Some((e, Blocked::Mshr { .. })) if e == s.exec.executed),
            )
            .count()
    }

    /// Attempts a full MSHR table or output queue refused, how many of
    /// them the blocked-verdict memo answered, and how many parked slots'
    /// retries were booked without a tick (perf-report surface).
    pub fn structural_retries(&self) -> (u64, u64, u64) {
        (
            self.structural_retries,
            self.memo_answers,
            self.replayed_retries,
        )
    }

    /// The phase of the parked set holding slot `i`, if any.
    fn parked_phase(&self, i: usize) -> Option<usize> {
        self.parked.iter().position(|p| p.contains(i))
    }

    /// Mean ready-set size per invoked issue cycle (perf-report surface).
    pub fn ready_occupancy(&self) -> f64 {
        if self.ready_ticks == 0 {
            0.0
        } else {
            self.ready_sum as f64 / self.ready_ticks as f64
        }
    }

    fn spawn_warps(&mut self) {
        if self.launch_queue.is_empty() {
            return;
        }
        for i in 0..self.slots.len() {
            if self.slots[i].is_none() {
                let Some((wg, active, cta)) = self.launch_queue.pop_front() else {
                    break;
                };
                *self.cta_alive.entry(cta).or_insert(0) += 1;
                self.incarnation[i] += 1;
                let exec = WarpExec::new(&self.kernel.program, wg, active, self.seed);
                self.slots[i] = Some(WarpSlot::new(exec, cta));
                self.ready_state_count += 1;
                self.sched_ready.insert(i);
            }
        }
    }

    /// Advance one cycle. Issues instructions, stages/promotes NDP packets,
    /// ejects packets into `out`.
    pub fn tick(&mut self, now: Cycle, env: &mut dyn NdpEnv) {
        self.book_until(now);
        self.booked = now + 1;
        self.service_wheel(now);
        self.spawn_warps();
        self.retry_reservations(env);
        self.issue(now, env);
        self.promote_and_eject();
    }

    /// Retry buffer reservations for warps whose target is known (§4.1.1:
    /// packets wait in the pending buffer until granted). Only `retry_set`
    /// members — target known, grant outstanding — are visited, in the same
    /// ascending slot order the full scan used.
    fn retry_reservations(&mut self, env: &mut dyn NdpEnv) {
        let mut from = 0;
        while let Some(i) = self.retry_set.next_at_or_after(from) {
            from = i + 1;
            let slot = self.slots[i].as_ref().expect("retry_set slot is resident");
            let ofl = slot.ofl.as_ref().expect("retry_set slot has offload ctx");
            let hmc = ofl.target.expect("retry_set slot has a target");
            let (n_loads, n_stores) = self.kernel.block_io[ofl.block as usize];
            if env.try_reserve(hmc, n_loads, n_stores) {
                let ofl = self.slots[i]
                    .as_mut()
                    .expect("checked")
                    .ofl
                    .as_mut()
                    .expect("checked");
                ofl.reserved = true;
                let has_staged = !ofl.staged.is_empty();
                self.retry_set.remove(i);
                if has_staged {
                    self.promote_set.insert(i);
                }
            }
        }
    }

    /// Move granted staged packets into the ready buffer and eject. Only
    /// `promote_set` members — reserved with staged packets — are visited,
    /// in the same ascending slot order the full scan used.
    fn promote_and_eject(&mut self) {
        let mut from = 0;
        while let Some(i) = self.promote_set.next_at_or_after(from) {
            from = i + 1;
            let slot = self.slots[i]
                .as_mut()
                .expect("promote_set slot is resident");
            let ofl = slot.ofl.as_mut().expect("promote_set slot has offload ctx");
            let target = ofl.target.expect("reserved implies target");
            while !ofl.staged.is_empty() && self.buffers.ready_has_room(1) {
                let mut p = ofl.staged.pop_front().expect("nonempty");
                retarget(&mut p, target);
                self.buffers.push_ready(p).expect("room checked");
                self.staged_total -= 1;
            }
            if ofl.staged.is_empty() {
                self.promote_set.remove(i);
            }
        }
        for _ in 0..self.cfg.eject_rate {
            if self.out.len() >= self.cfg.out_capacity {
                break;
            }
            match self.buffers.pop_ready() {
                Some(p) => self.out.push_back(p),
                None => break,
            }
        }
    }

    fn issue(&mut self, now: Cycle, env: &mut dyn NdpEnv) {
        let n = self.slots.len();
        let mut issued = 0usize;
        let mut alu_free = 2usize;
        let mut lsu_free = 1usize;
        let mut sfu_free = 1usize;
        let mut saw_exec_busy = false;
        let mut saw_dep = false;

        self.ready_ticks += 1;
        self.ready_sum += self.sched_ready.count() as u64;
        // Ready slots parked in the wake-wheel or on an outstanding load:
        // the full scan visited each and recorded a dependency stall. Only
        // consulted when nothing issues, exactly like the scanned flag.
        let deferred_dep = self.ready_state_count > self.sched_ready.count();

        // Round-robin scan over ready-set members only, replicating the
        // full scan's visit sequence exactly: position (rr_cursor + k) % n
        // for k in 0..n, with rr_cursor advancing past each issued slot.
        // The bitset jump elides the empty/stalled/blocked positions the
        // old loop `continue`d over; membership is re-read live, so slots
        // woken mid-scan (barrier release) are still visited.
        let mut k = 0usize;
        while k < n && issued < self.cfg.issue_width {
            let p = (self.rr_cursor + k) % n;
            let Some(i) = self
                .sched_ready
                .next_at_or_after(p)
                .or_else(|| self.sched_ready.next_at_or_after(0))
            else {
                break;
            };
            k += (i + n - p) % n;
            if k >= n {
                break;
            }
            match self.try_issue_warp(now, i, env, &mut alu_free, &mut lsu_free, &mut sfu_free) {
                IssueResult::Issued => {
                    issued += 1;
                    self.rr_cursor = (i + 1) % n;
                }
                IssueResult::ExecBusy => saw_exec_busy = true,
                IssueResult::DepStall => saw_dep = true,
                IssueResult::Idle => {}
            }
            k += 1;
        }

        if issued > 0 {
            self.stats.issued += issued as u64;
        } else if saw_exec_busy {
            self.stats.record_no_issue(NoIssue::ExecUnitBusy);
        } else if saw_dep || deferred_dep {
            self.stats.record_no_issue(NoIssue::DependencyStall);
        } else {
            self.stats.record_no_issue(NoIssue::WarpIdle);
        }
    }

    fn try_issue_warp(
        &mut self,
        now: Cycle,
        slot_idx: usize,
        env: &mut dyn NdpEnv,
        alu_free: &mut usize,
        lsu_free: &mut usize,
        sfu_free: &mut usize,
    ) -> IssueResult {
        // A retry of an instruction a structural check refused, with
        // nothing it depends on changed since: answer what the full path
        // below would, without re-running it (DESIGN.md §15).
        let slot = self.slots[slot_idx].as_ref().expect("checked");
        if let Some((executed, b)) = slot.blocked {
            if executed == slot.exec.executed && self.still_blocked(b) {
                self.structural_retries += 1;
                self.memo_answers += 1;
                if *lsu_free > 0 {
                    match b {
                        Blocked::Mshr { until_fills } => self.park(now, slot_idx, until_fills),
                        Blocked::OutQueue { nap: true, .. } => self.nap(now, slot_idx, now + 4),
                        Blocked::OutQueue { nap: false, .. } => {}
                    }
                }
                return IssueResult::ExecBusy;
            }
        }

        let slot = self.slots[slot_idx].as_mut().expect("checked");
        let step = slot.exec.current_lite(&self.kernel.program);

        // Warp finished?
        if matches!(step, StepLite::Done) {
            self.finish_warp(slot_idx);
            return IssueResult::Idle;
        }
        let idx = step.idx().expect("not done");

        // Block-boundary bookkeeping: entering a block?
        if slot.ofl.is_none() && slot.local_block.is_none() {
            if let Some(bid) = self.kernel.block_starting_at[idx] {
                if env.decide_offload(self.cfg.id, bid) {
                    let token = OffloadToken(((self.cfg.id as u64) << 40) | self.next_token);
                    self.next_token += 1;
                    let b = self.kernel.block(bid);
                    let active = slot.exec.active.count_ones() as u8;
                    let cmd = Packet::new(
                        Node::Sm(self.cfg.id),
                        Node::Nsu(0), // retargeted once the target is known
                        now,
                        PacketKind::OffloadCmd {
                            token,
                            id: OffloadId {
                                sm: self.cfg.id,
                                warp: slot_idx as u16,
                                seq: 0,
                            },
                            nsu_pc: b.nsu_pc,
                            regs_in: b.live_in.len() as u8,
                            active,
                            mask: slot.exec.active,
                            n_loads: self.kernel.block_io[bid as usize].0 as u8,
                            n_stores: self.kernel.block_io[bid as usize].1 as u8,
                        },
                    );
                    slot.ofl = Some(OflCtx {
                        block: bid,
                        token,
                        target: None,
                        seq: 0,
                        reserved: false,
                        staged: VecDeque::from([cmd]),
                    });
                    self.staged_total += 1;
                } else {
                    slot.local_block = Some(bid);
                }
            }
        }

        let role = slot
            .ofl
            .as_ref()
            .map(|o| self.kernel.block(o.block).role_of(idx))
            .unwrap_or(None);

        match step {
            StepLite::Done => unreachable!(),
            StepLite::Barrier { .. } => {
                // Barriers are outside offload blocks by construction.
                slot.state = WState::Barrier;
                let cta = slot.cta;
                slot.exec.advance(&self.kernel.program);
                self.sched_detach(slot_idx);
                self.ready_state_count -= 1;
                let arrived = self.barrier_arrived.entry(cta).or_insert(0);
                *arrived += 1;
                if *arrived >= *self.cta_alive.get(&cta).unwrap_or(&0) {
                    self.barrier_arrived.insert(cta, 0);
                    self.release_barrier(cta);
                }
                IssueResult::Issued
            }
            StepLite::Alu { op, dst, idx } => {
                match role {
                    Some(InstrRole::AtNsu) => {
                        // NOP on the GPU: consumes an issue slot only.
                        slot.exec.advance(&self.kernel.program);
                        self.block_instrs += 1;
                        self.after_instr(now, slot_idx, idx, env);
                        IssueResult::Issued
                    }
                    _ => {
                        // Normal ALU (includes AddrCalc inside blocks).
                        if !self.operands_ready(now, slot_idx, idx) {
                            return IssueResult::DepStall;
                        }
                        let (unit, lat) = if op.is_sfu() {
                            (sfu_free, self.cfg.sfu_lat)
                        } else {
                            (alu_free, self.cfg.alu_lat)
                        };
                        if *unit == 0 {
                            return IssueResult::ExecBusy;
                        }
                        *unit -= 1;
                        let slot = self.slots[slot_idx].as_mut().expect("checked");
                        slot.exec.advance(&self.kernel.program);
                        slot.reg_ready[dst.0 as usize] = now + lat as Cycle;
                        if self.kernel.role_map[idx].is_some() {
                            self.block_instrs += 1;
                        }
                        self.after_instr(now, slot_idx, idx, env);
                        IssueResult::Issued
                    }
                }
            }
            StepLite::Load {
                idx,
                dst,
                space,
                addr,
            } => {
                if *lsu_free == 0 {
                    return IssueResult::ExecBusy;
                }
                if !self.operands_ready(now, slot_idx, idx) {
                    return IssueResult::DepStall;
                }
                if space != MemSpace::Global {
                    // Scratchpad/constant: fixed-latency on-chip access.
                    *lsu_free -= 1;
                    let slot = self.slots[slot_idx].as_mut().expect("checked");
                    slot.exec.advance(&self.kernel.program);
                    slot.reg_ready[dst.0 as usize] = now + self.cfg.shared_lat as Cycle;
                    self.after_instr(now, slot_idx, idx, env);
                    return IssueResult::Issued;
                }
                let memo = self.take_coalesced(slot_idx, addr);
                let r = if role == Some(InstrRole::Load) {
                    self.issue_rdf(now, slot_idx, &memo.1, env)
                } else {
                    self.issue_local_load(now, slot_idx, idx, dst, &memo.1, env)
                };
                self.slots[slot_idx].as_mut().expect("checked").coalesced = Some(memo);
                if matches!(r, IssueResult::Issued) {
                    *lsu_free -= 1;
                    self.after_instr(now, slot_idx, idx, env);
                }
                r
            }
            StepLite::Store { idx, space, addr } => {
                if *lsu_free == 0 {
                    return IssueResult::ExecBusy;
                }
                if !self.operands_ready(now, slot_idx, idx) {
                    return IssueResult::DepStall;
                }
                if space != MemSpace::Global {
                    *lsu_free -= 1;
                    let slot = self.slots[slot_idx].as_mut().expect("checked");
                    slot.exec.advance(&self.kernel.program);
                    self.after_instr(now, slot_idx, idx, env);
                    return IssueResult::Issued;
                }
                let memo = self.take_coalesced(slot_idx, addr);
                let r = if role == Some(InstrRole::Store) {
                    self.issue_wta(now, slot_idx, &memo.1, env)
                } else {
                    self.issue_local_store(now, slot_idx, idx, &memo.1)
                };
                self.slots[slot_idx].as_mut().expect("checked").coalesced = Some(memo);
                if matches!(r, IssueResult::Issued) {
                    *lsu_free -= 1;
                    self.after_instr(now, slot_idx, idx, env);
                }
                r
            }
        }
    }

    /// Scoreboard: the cycle at which the GPU-relevant source operands are
    /// all ready. Inside an offloaded block, NSU-produced values (load dsts,
    /// `@NSU` results) are not waited on by the GPU (only address chains
    /// matter); a store's data register is likewise skipped when offloaded.
    fn operands_ready_at(&self, slot_idx: usize, idx: usize) -> Cycle {
        let slot = self.slots[slot_idx].as_ref().expect("checked");
        let Item::Op(instr) = &self.kernel.program.items[idx] else {
            return 0;
        };
        let offloaded_role = slot
            .ofl
            .as_ref()
            .and_then(|o| self.kernel.block(o.block).role_of(idx));
        let ready = |r: Reg| slot.reg_ready[r.0 as usize];
        match offloaded_role {
            Some(InstrRole::Load) | Some(InstrRole::Store) => {
                instr.addr_reg().map(ready).unwrap_or(0)
            }
            Some(InstrRole::AtNsu) => 0,
            _ => {
                let mut at = 0;
                instr.for_each_src(|r| at = at.max(ready(r)));
                at
            }
        }
    }

    /// Scoreboard check; on a stall, memoize the wake-up cycle so the
    /// scheduler skips this warp until its operands can be ready.
    fn operands_ready(&mut self, now: Cycle, slot_idx: usize, idx: usize) -> bool {
        let at = self.operands_ready_at(slot_idx, idx);
        if at <= now {
            true
        } else {
            self.sched_detach(slot_idx);
            self.slots[slot_idx].as_mut().expect("checked").wake_at = at;
            self.sched_attach(slot_idx, now);
            false
        }
    }

    /// Structural-hazard backoff: skip this warp for a few cycles (output
    /// queues rarely free up within one cycle). The wake slot is cleared by
    /// `deliver` when a fill arrives anyway.
    fn nap(&mut self, now: Cycle, slot_idx: usize, until: Cycle) {
        self.sched_detach(slot_idx);
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        slot.wake_at = slot.wake_at.max(until);
        self.sched_attach(slot_idx, now);
    }

    /// The MSHR-refused counterpart of `nap`: the slot would retry every 4
    /// cycles from `now + 4` and be refused until the fill count reaches
    /// `until_fills`, so it waits in the parked set of its phase instead
    /// (see the `parked` field).
    fn park(&mut self, now: Cycle, slot_idx: usize, until_fills: u64) {
        self.sched_detach(slot_idx);
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        debug_assert!(slot.wake_at <= now, "only issue candidates are refused");
        slot.wake_at = now + 4;
        self.parked[(now % 4) as usize].insert(slot_idx);
        self.parked_until_fills = self.parked_until_fills.min(until_fills);
    }

    /// A fill reached the bound of some parked slots: their verdicts may
    /// no longer hold, so each rejoins the wheel at the next cycle of its
    /// phase after `now`, where polling would retry it.
    fn unpark_freed(&mut self, now: Cycle) {
        let mut bound = u64::MAX;
        for phase in 0..4 {
            let mut from = 0;
            while let Some(i) = self.parked[phase].next_at_or_after(from) {
                from = i + 1;
                let slot = self.slots[i].as_mut().expect("parked slot is resident");
                let Some((_, Blocked::Mshr { until_fills })) = slot.blocked else {
                    unreachable!("parked slots hold an MSHR verdict");
                };
                if until_fills > self.l1_fills {
                    bound = bound.min(until_fills);
                    continue;
                }
                self.parked[phase].remove(i);
                slot.wake_at = next_in_phase(now + 1, phase as Cycle);
                self.sched_attach(i, now);
            }
        }
        self.parked_until_fills = bound;
    }

    /// A structural check refused the current instruction: count the
    /// retry and remember the verdict for the next attempt.
    fn refuse(&mut self, slot_idx: usize, why: Blocked) {
        self.structural_retries += 1;
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        slot.blocked = Some((slot.exec.executed, why));
    }

    /// Coalesce with memoization keyed on the warp's dynamic instruction
    /// count (stable across repeated issue attempts of the same instr).
    /// The memo moves out of the slot for the attempt; the caller puts it
    /// back, so a stalled warp's retries neither regroup 32 lanes nor copy
    /// the accesses.
    fn take_coalesced(&mut self, slot_idx: usize, addr: Reg) -> (u64, Vec<LineAccess>) {
        let word = self.cfg.word_bytes;
        let line = self.cfg.line_bytes;
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        let key = slot.exec.executed;
        match slot.coalesced.take() {
            Some(memo) if memo.0 == key => memo,
            _ => (
                key,
                coalesce(slot.exec.reg(addr), slot.exec.active, word, line),
            ),
        }
    }

    /// Post-issue bookkeeping: block exit detection.
    fn after_instr(&mut self, now: Cycle, slot_idx: usize, idx: usize, env: &mut dyn NdpEnv) {
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        if let Some(ofl) = slot.ofl.as_ref() {
            let b = self.kernel.block(ofl.block);
            if idx + 1 == b.end {
                // OFLD.END: block until the ACK returns (§4.1.1). The warp
                // can context-switch — other warps keep the SM busy.
                let token = ofl.token;
                let block = ofl.block;
                slot.state = WState::WaitAck;
                self.sched_detach(slot_idx);
                self.ready_state_count -= 1;
                self.inflight.insert(
                    token,
                    Inflight {
                        slot: slot_idx,
                        block,
                    },
                );
                let _ = now;
            }
        } else if let Some(bid) = slot.local_block {
            let b = self.kernel.block(bid);
            if idx + 1 == b.end {
                slot.local_block = None;
                env.note_block_done(bid, (b.end - b.start) as u32);
            }
        }
    }

    /// Offloaded load: generate RDF packets (§4.1.1). The L1 is probed
    /// first; hits ship the cached words straight to the NSU as RDF
    /// responses (consuming GPU off-chip bandwidth — the §7.1 BPROP effect).
    fn issue_rdf(
        &mut self,
        now: Cycle,
        slot_idx: usize,
        accesses: &[LineAccess],
        env: &mut dyn NdpEnv,
    ) -> IssueResult {
        let n = accesses.len();
        // Pending-buffer capacity check (shared across warps).
        if !self
            .buffers
            .pending_has_room(self.staged_total.saturating_add(n))
        {
            return IssueResult::ExecBusy;
        }

        // Determine target from the first memory instruction (most-accessed
        // stack wins, first on ties — Fig. 5 policy). A fresh target makes
        // the slot a reservation-retry candidate.
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        let ofl = slot.ofl.as_mut().expect("role implies offload ctx");
        let newly_targeted = ofl.target.is_none();
        if newly_targeted {
            ofl.target = Some(pick_target(accesses, &self.memmap));
        }
        let target = ofl.target.expect("set above");
        let token = ofl.token;
        let seq = ofl.seq;
        ofl.seq += 1;
        if newly_targeted {
            self.retry_set.insert(slot_idx);
        }

        let ofl_block_id = ofl_block(self.slots[slot_idx].as_ref());
        let mut l1_hits = 0u32;
        let mut staged = vec![];
        for &access in accesses {
            // Probe-only L1 lookup: no MSHR, the data never returns here.
            let hit = self.cfg.rdf_probes_cache && self.l1d.contains(access.line);
            if hit {
                self.l1d.stats.read_hits += 1;
                l1_hits += 1;
                if env.nsu_ro_cached(target, access.line) {
                    // §7.1 read-only NSU cache: the data is already there —
                    // send a header-only reference instead of the words.
                    staged.push(Packet::new(
                        Node::Sm(self.cfg.id),
                        Node::Nsu(target.0),
                        now,
                        PacketKind::Rdf {
                            token,
                            seq,
                            access,
                            target: Node::Nsu(target.0),
                            block: ofl_block_id,
                            cache_hit_data: false,
                        },
                    ));
                    continue;
                }
                staged.push(Packet::new(
                    Node::Sm(self.cfg.id),
                    Node::Nsu(target.0),
                    now,
                    PacketKind::RdfResp { token, seq, access },
                ));
            } else {
                self.l1d.stats.read_misses += 1;
                let coord = self.memmap.decode(access.line);
                staged.push(Packet::new(
                    Node::Sm(self.cfg.id),
                    Node::Vault(coord.hmc.0, coord.vault.0),
                    now,
                    PacketKind::Rdf {
                        token,
                        seq,
                        access,
                        target: Node::Nsu(target.0),
                        block: ofl_block_id,
                        cache_hit_data: hit,
                    },
                ));
            }
        }
        env.note_block_lines(ofl_block(self.slots[slot_idx].as_ref()), n as u32, l1_hits);
        let added = staged.len();
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        slot.exec.advance(&self.kernel.program);
        let ofl = slot.ofl.as_mut().expect("ctx");
        ofl.staged.extend(staged);
        let promotable = ofl.reserved;
        self.staged_total += added;
        if promotable {
            self.promote_set.insert(slot_idx);
        }
        self.block_instrs += 1;
        IssueResult::Issued
    }

    /// Offloaded store: generate WTA packets carrying physical addresses.
    fn issue_wta(
        &mut self,
        now: Cycle,
        slot_idx: usize,
        accesses: &[LineAccess],
        env: &mut dyn NdpEnv,
    ) -> IssueResult {
        let n = accesses.len();
        if !self
            .buffers
            .pending_has_room(self.staged_total.saturating_add(n))
        {
            return IssueResult::ExecBusy;
        }
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        let ofl = slot.ofl.as_mut().expect("role implies offload ctx");
        let newly_targeted = ofl.target.is_none();
        if newly_targeted {
            ofl.target = Some(pick_target(accesses, &self.memmap));
        }
        let target = ofl.target.expect("set");
        let token = ofl.token;
        let seq = ofl.seq;
        ofl.seq += 1;
        let reserved = ofl.reserved;
        let n_accesses = accesses.len() as u8;
        let mut wta_hmcs = Vec::with_capacity(accesses.len());
        for &access in accesses {
            wta_hmcs.push(self.memmap.hmc_of(access.line));
            ofl.staged.push_back(Packet::new(
                Node::Sm(self.cfg.id),
                Node::Nsu(target.0),
                now,
                PacketKind::Wta {
                    token,
                    seq,
                    access,
                    target: Node::Nsu(target.0),
                    n_accesses,
                },
            ));
        }
        slot.exec.advance(&self.kernel.program);
        self.staged_total += n;
        if newly_targeted {
            self.retry_set.insert(slot_idx);
        }
        if reserved {
            self.promote_set.insert(slot_idx);
        }
        self.block_instrs += 1;
        for h in wta_hmcs {
            env.note_wta_line(h);
        }
        IssueResult::Issued
    }

    /// Baseline load through L1 (+ L2/DRAM on miss).
    fn issue_local_load(
        &mut self,
        now: Cycle,
        slot_idx: usize,
        idx: usize,
        dst: Reg,
        accesses: &[LineAccess],
        env: &mut dyn NdpEnv,
    ) -> IssueResult {
        // Structural checks first: we need room for worst-case misses.
        let misses_possible = accesses.len();
        if self.out.len() + misses_possible > self.cfg.out_capacity {
            self.refuse(
                slot_idx,
                Blocked::OutQueue {
                    need: misses_possible,
                    nap: true,
                },
            );
            self.nap(now, slot_idx, now + 4);
            return IssueResult::ExecBusy;
        }
        // MSHR room for new misses (conservative: a resident probe per
        // line). Every line is counted: the shortfall says how many fills
        // the verdict outlives.
        let headroom = self
            .l1d
            .mshr_capacity()
            .saturating_sub(self.l1d.mshr_used());
        let new_lines = accesses
            .iter()
            .filter(|a| !self.l1d.contains(a.line))
            .count();
        if new_lines > headroom {
            let until_fills = self.l1_fills + ((new_lines - headroom) as u64).div_ceil(2);
            self.refuse(slot_idx, Blocked::Mshr { until_fills });
            self.park(now, slot_idx, until_fills);
            return IssueResult::ExecBusy;
        }

        let track_id = self.next_track;
        self.next_track += 1;
        let mut remaining = 0u32;
        let mut l1_hits = 0u32;
        let n_lines = accesses.len() as u32;
        for access in accesses {
            match self.l1d.probe_read(access.line, track_id) {
                Probe::Hit => l1_hits += 1,
                Probe::MissMerged => remaining += 1,
                Probe::MissNew => {
                    remaining += 1;
                    self.out.push_back(Packet::new(
                        Node::Sm(self.cfg.id),
                        Node::L2(self.memmap.hmc_of(access.line).0),
                        now,
                        PacketKind::ReadReq {
                            addr: access.line,
                            bytes: self.cfg.line_bytes,
                            tag: ((self.cfg.id as u64) << 40) | track_id,
                            block: self.kernel.role_map[idx]
                                .map(|(b, _)| b)
                                .unwrap_or(ndp_common::packet::NO_BLOCK),
                        },
                    ));
                }
                Probe::MshrFull => unreachable!("capacity pre-checked"),
            }
        }

        // Per-block cache statistics also accumulate for non-offloaded
        // instances so the §7.3 gate can observe locality either way.
        if let Some((bid, InstrRole::Load)) = self.kernel.role_map[idx] {
            env.note_block_lines(bid, n_lines, l1_hits);
        }

        let slot = self.slots[slot_idx].as_mut().expect("checked");
        slot.exec.advance(&self.kernel.program);
        if remaining == 0 {
            slot.reg_ready[dst.0 as usize] = now + self.cfg.l1_lat as Cycle;
        } else {
            slot.reg_ready[dst.0 as usize] = Cycle::MAX;
            let inc = self.incarnation[slot_idx];
            self.load_tracks.insert(
                track_id,
                LoadTrack {
                    slot: slot_idx,
                    inc,
                    dst,
                    remaining,
                },
            );
        }
        if self.kernel.role_map[idx].is_some() {
            self.block_instrs += 1;
        }
        IssueResult::Issued
    }

    /// Baseline write-through store.
    fn issue_local_store(
        &mut self,
        now: Cycle,
        slot_idx: usize,
        idx: usize,
        accesses: &[LineAccess],
    ) -> IssueResult {
        if self.out.len() + accesses.len() > self.cfg.out_capacity {
            self.refuse(
                slot_idx,
                Blocked::OutQueue {
                    need: accesses.len(),
                    nap: false,
                },
            );
            return IssueResult::ExecBusy;
        }
        for access in accesses {
            self.l1d.write_touch(access.line);
            self.out.push_back(Packet::new(
                Node::Sm(self.cfg.id),
                Node::L2(self.memmap.hmc_of(access.line).0),
                now,
                PacketKind::WriteReq {
                    addr: access.line,
                    words: access.active_words(),
                    tag: 0,
                },
            ));
        }
        let slot = self.slots[slot_idx].as_mut().expect("checked");
        slot.exec.advance(&self.kernel.program);
        if self.kernel.role_map[idx].is_some() {
            self.block_instrs += 1;
        }
        IssueResult::Issued
    }

    /// Release every Barrier-state warp of `cta` back into the ready set.
    /// All of them are immediately issuable: a warp only reaches `Barrier`
    /// by issuing its BAR, so its `wake_at` predates that issue cycle.
    fn release_barrier(&mut self, cta: u32) {
        for i in 0..self.slots.len() {
            let Some(s) = self.slots[i].as_mut() else {
                continue;
            };
            if s.cta == cta && s.state == WState::Barrier {
                s.state = WState::Ready;
                self.ready_state_count += 1;
                self.sched_ready.insert(i);
            }
        }
    }

    fn finish_warp(&mut self, slot_idx: usize) {
        self.sched_detach(slot_idx);
        self.retry_set.remove(slot_idx);
        self.promote_set.remove(slot_idx);
        let slot = self.slots[slot_idx].take().expect("checked");
        debug_assert_eq!(
            slot.state,
            WState::Ready,
            "warps finish from the issue scan"
        );
        self.ready_state_count -= 1;
        self.staged_total -= slot.ofl.as_ref().map_or(0, |o| o.staged.len());
        if let Some(alive) = self.cta_alive.get_mut(&slot.cta) {
            *alive -= 1;
            // Release barrier waiters if this warp's exit satisfies the CTA.
            let cta = slot.cta;
            let arrived = self.barrier_arrived.get(&cta).copied().unwrap_or(0);
            if *alive > 0 && arrived >= *alive {
                self.barrier_arrived.insert(cta, 0);
                self.release_barrier(cta);
            }
        }
        self.warps_retired += 1;
    }

    /// Deliver an inbound packet (L1 fill or offload ACK). Cycle `now` is
    /// booked first: its issue statistics predate the packet.
    pub fn deliver(&mut self, now: Cycle, p: Packet, env: &mut dyn NdpEnv) -> Result<(), SimError> {
        self.book_until(now + 1);
        match p.kind {
            PacketKind::ReadResp { addr, tag, .. } => {
                let track_id = tag & 0xff_ffff_ffff;
                let waiters = self.l1d.fill(addr);
                if !self.sabotage_skip_fill_count {
                    self.l1_fills += 1;
                }
                if self.l1_fills >= self.parked_until_fills {
                    self.unpark_freed(now);
                }
                debug_assert!(waiters.contains(&track_id) || waiters.is_empty());
                for w in waiters {
                    if let Some(t) = self.load_tracks.get_mut(&w) {
                        t.remaining -= 1;
                        if t.remaining == 0 {
                            let (slot_idx, inc, dst) = (t.slot, t.inc, t.dst);
                            self.load_tracks.remove(&w);
                            if self.incarnation[slot_idx] == inc {
                                if let Some(slot) = self.slots[slot_idx].as_mut() {
                                    slot.reg_ready[dst.0 as usize] = now + 2;
                                    // A late fill (after a write-after-write)
                                    // can un-ready an operand the memo saw
                                    // ready.
                                    slot.blocked = None;
                                }
                                self.wake_now(slot_idx);
                            }
                        }
                    }
                }
            }
            PacketKind::OffloadAck { token, .. } => {
                let Some(inf) = self.inflight.remove(&token) else {
                    return Ok(());
                };
                let b = self.kernel.block(inf.block);
                env.note_block_done(inf.block, (b.end - b.start) as u32);
                if let Some(slot) = self.slots[inf.slot].as_mut() {
                    debug_assert_eq!(slot.state, WState::WaitAck);
                    // Live-out registers become visible now.
                    for r in &b.live_out {
                        slot.reg_ready[r.0 as usize] = now + 2;
                    }
                    slot.blocked = None;
                    let leftover = slot.ofl.as_ref().map_or(0, |o| o.staged.len());
                    slot.ofl = None;
                    slot.state = WState::Ready;
                    slot.wake_at = 0;
                    self.staged_total -= leftover;
                    self.retry_set.remove(inf.slot);
                    self.promote_set.remove(inf.slot);
                    self.ready_state_count += 1;
                    self.sched_ready.insert(inf.slot);
                }
            }
            _ => {
                return Err(SimError::BadDelivery {
                    component: format!("sm{}", self.cfg.id),
                    cycle: now,
                    packet: PacketSummary::of(&p),
                    detail: "SM cannot consume this packet kind".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Human-readable wait states of resident warps, for stall diagnosis.
    /// One line per non-ready warp: what it waits on and for how long.
    pub fn wait_summary(&self, now: Cycle) -> Vec<String> {
        let mut lines = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            match slot.state {
                WState::Ready => {}
                WState::Barrier => lines.push(format!(
                    "sm{} slot{i}: at barrier (cta {})",
                    self.cfg.id, slot.cta
                )),
                WState::WaitAck => {
                    let token = slot.ofl.as_ref().map(|o| o.token.0);
                    lines.push(format!(
                        "sm{} slot{i}: waiting for OffloadAck (token {:?}, since wake_at {}, now {now})",
                        self.cfg.id, token, slot.wake_at
                    ));
                }
            }
        }
        lines
    }

    /// Occupied warp slots (for utilization reporting).
    pub fn resident_warps(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Peak pending/ready buffer usage (§7.5).
    pub fn buffer_peaks(&self) -> (usize, usize) {
        (self.buffers.pending_peak, self.buffers.ready_peak)
    }

    /// Current pending/ready NDP buffer depths (occupancy sampling).
    pub fn ndp_buffer_depths(&self) -> (usize, usize) {
        (self.buffers.pending_len(), self.buffers.ready_len())
    }

    /// Quiescence horizon (the contract is
    /// [`ndp_common::port::FabricCtx::stage_horizon`]'s): the earliest
    /// cycle a tick could spawn, reserve, issue, promote, or eject
    /// anything. O(1): every act-now condition is a maintained membership
    /// set (the launch queue, the NDP buffers, `sched_ready`, `retry_set`
    /// and `promote_set`), and the only deferrals — dependency-stalled
    /// warps with a known wake cycle — sit in the wake-wheel, whose first
    /// key is the exact horizon. Warps blocked on a barrier or an offload
    /// ACK wake via packet delivery or a sibling warp's issue, both visible
    /// to other horizons, so they contribute `None`.
    pub fn next_work_at(&self, now: Cycle) -> Option<Cycle> {
        if !self.launch_queue.is_empty()
            || !self.buffers.is_empty()
            || !self.sched_ready.is_empty()
            || !self.retry_set.is_empty()
            || !self.promote_set.is_empty()
        {
            return Some(now);
        }
        // `max(now)` covers not-yet-serviced keys right after a restore.
        self.wake_wheel.last().map(|&(at, _)| at.max(now))
    }

    /// Book the issue statistics of the `k` cycles from `from` that the SM
    /// sat out. On such a cycle, with nothing due by [`Sm::next_work_at`],
    /// `issue` would attempt only the parked slots of the cycle's phase,
    /// each refused by its MSHR verdict and parked again: ExecUnitBusy.
    /// With none due, a resident Ready warp means DependencyStall, and
    /// otherwise WarpIdle. Everything else in `tick` is a no-op on such
    /// cycles.
    fn note_skipped(&mut self, from: Cycle, k: u64) {
        let mut stats = self.stats;
        self.replayed_retries += self.skipped_into(&mut stats, from, k);
        self.stats = stats;
    }

    /// `note_skipped` into `stats`; returns the parked retries replayed.
    fn skipped_into(&self, stats: &mut IssueStats, from: Cycle, k: u64) -> u64 {
        let (mut busy, mut replayed) = (0, 0);
        for (phase, set) in self.parked.iter().enumerate() {
            if !set.is_empty() {
                // Cycles of this phase in [from, from + k).
                let upto = |end: Cycle| (end + 3 - phase as Cycle) / 4;
                let n = upto(from + k) - upto(from);
                busy += n;
                replayed += n * set.count() as u64;
            }
        }
        stats.exec_unit_busy += busy;
        if self.ready_state_count > 0 {
            stats.dependency_stall += k - busy;
        } else {
            stats.warp_idle += k - busy;
        }
        replayed
    }

    /// Book every cycle before `end` that is not booked yet.
    pub fn book_until(&mut self, end: Cycle) {
        if end > self.booked {
            self.note_skipped(self.booked, end - self.booked);
            self.booked = end;
        }
    }

    /// Issue statistics with every cycle before `end` booked: what
    /// [`Sm::book_until`] would leave in `stats`, without booking.
    pub fn issue_stats_until(&self, end: Cycle) -> IssueStats {
        let mut stats = self.stats;
        if end > self.booked {
            self.skipped_into(&mut stats, self.booked, end - self.booked);
        }
        stats
    }
}

/// The first cycle at or after `from` whose phase (`cycle % 4`) is `phase`.
fn next_in_phase(from: Cycle, phase: Cycle) -> Cycle {
    from + (phase + 4 - from % 4) % 4
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueResult {
    Issued,
    ExecBusy,
    DepStall,
    Idle,
}

/// Fix up a staged packet once the target NSU is known.
fn retarget(p: &mut Packet, target: HmcId) {
    match &mut p.kind {
        PacketKind::OffloadCmd { .. } => p.dst = Node::Nsu(target.0),
        PacketKind::Wta { target: t, .. } => {
            *t = Node::Nsu(target.0);
            p.dst = Node::Nsu(target.0);
        }
        PacketKind::Rdf { target: t, .. } => {
            *t = Node::Nsu(target.0);
            // dst (the vault) already set at generation.
        }
        PacketKind::RdfResp { .. } => p.dst = Node::Nsu(target.0),
        _ => {}
    }
}

/// Target-NSU policy: the stack with the most accesses from the first
/// memory instruction (first one on ties) — §4.1.1 / Fig. 5.
fn pick_target(accesses: &[LineAccess], memmap: &MemMap) -> HmcId {
    let mut counts: HashMap<HmcId, (usize, usize)> = HashMap::new(); // hmc → (count, first_idx)
    for (i, a) in accesses.iter().enumerate() {
        let h = memmap.hmc_of(a.line);
        let e = counts.entry(h).or_insert((0, i));
        e.0 += 1;
    }
    counts
        .into_iter()
        .max_by(|(_, (c1, f1)), (_, (c2, f2))| c1.cmp(c2).then(f2.cmp(f1)))
        .map(|(h, _)| h)
        .expect("nonempty accesses")
}

fn ofl_block(slot: Option<&WarpSlot>) -> u16 {
    slot.and_then(|s| s.ofl.as_ref())
        .map(|o| o.block)
        .unwrap_or(0)
}

/// Written by hand because a warp slot's executor is built from the
/// kernel before its state is restored into it, the scheduler indices are
/// rebuilt afterwards, and the image is taken as of the system's clock,
/// which the SM does not keep. `cfg`, `kernel`, `memmap` and `seed` come
/// from construction; everything below `warps_retired` is derived
/// (scheduler indices, booking) or host-side telemetry.
impl Sm {
    /// Write the SM as the polling scheduler would hold it at cycle `now`
    /// (the next cycle to run): issue statistics booked through `now - 1`,
    /// and each parked slot waking at the first cycle `>= now` of its
    /// phase.
    pub fn snap_at(&self, now: Cycle, w: &mut SnapWriter) {
        let Sm {
            cfg: _,
            kernel: _,
            memmap: _,
            slots,
            incarnation,
            launch_queue,
            l1d,
            load_tracks,
            next_track,
            next_token,
            inflight,
            buffers,
            out,
            barrier_arrived,
            cta_alive,
            rr_cursor,
            seed: _,
            stats: _,
            block_instrs,
            warps_retired,
            sched_ready: _,
            wake_wheel: _,
            parked: _,
            l1_fills: _,
            parked_until_fills: _,
            booked: _,
            wheel_serviced_at: _,
            retry_set: _,
            promote_set: _,
            ready_state_count: _,
            staged_total: _,
            ready_ticks: _,
            ready_sum: _,
            structural_retries: _,
            memo_answers: _,
            replayed_retries: _,
            sabotage_drop_wheel: _,
            sabotage_skip_fill_count: _,
        } = self;
        w.len(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            w.bool(slot.is_some());
            if let Some(slot) = slot {
                match self.parked_phase(i) {
                    Some(phase) => slot.snap_waking_at(next_in_phase(now, phase as Cycle), w),
                    None => slot.snap(w),
                }
            }
        }
        snap::snap_each(incarnation, w);
        launch_queue.snap(w);
        l1d.snap(w);
        load_tracks.snap(w);
        next_track.snap(w);
        next_token.snap(w);
        inflight.snap(w);
        buffers.snap(w);
        out.snap(w);
        barrier_arrived.snap(w);
        cta_alive.snap(w);
        rr_cursor.snap(w);
        // `stats` booked through `now - 1`.
        self.issue_stats_until(now).snap(w);
        block_instrs.snap(w);
        warps_retired.snap(w);
    }

    /// Restore an image [`Sm::snap_at`] wrote at cycle `now`.
    pub fn restore_at(&mut self, now: Cycle, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        snap::expect_count(r, "Sm.slots", self.slots.len())?;
        for slot in &mut self.slots {
            *slot = if r.bool()? {
                let exec = WarpExec::new(&self.kernel.program, 0, 0, self.seed);
                let mut s = WarpSlot::new(exec, 0);
                s.restore(r)?;
                Some(s)
            } else {
                None
            };
        }
        snap::restore_each(&mut self.incarnation, r, "Sm.incarnation")?;
        self.launch_queue.restore(r)?;
        self.l1d.restore(r)?;
        self.load_tracks.restore(r)?;
        self.next_track.restore(r)?;
        self.next_token.restore(r)?;
        self.inflight.restore(r)?;
        self.buffers.restore(r)?;
        self.out.restore(r)?;
        self.barrier_arrived.restore(r)?;
        self.cta_alive.restore(r)?;
        self.rr_cursor.restore(r)?;
        self.stats.restore(r)?;
        self.block_instrs.restore(r)?;
        self.warps_retired.restore(r)?;
        self.booked = now;
        self.rebuild_sched();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_compiler::{compile, CompilerConfig};
    use ndp_isa::instr::{AluOp, Instr, Operand};
    use ndp_isa::program::{Item, Program, TripCount};

    /// Test double for the offload controller.
    struct MockEnv {
        offload: bool,
        reserve: bool,
        lines: Vec<(u16, u32, u32)>,
        done: Vec<(u16, u32)>,
        wta: Vec<HmcId>,
    }

    impl MockEnv {
        fn new(offload: bool) -> Self {
            MockEnv {
                offload,
                reserve: true,
                lines: vec![],
                done: vec![],
                wta: vec![],
            }
        }
    }

    impl NdpEnv for MockEnv {
        fn decide_offload(&mut self, _sm: u16, _block: u16) -> bool {
            self.offload
        }
        fn try_reserve(&mut self, _hmc: HmcId, _l: usize, _s: usize) -> bool {
            self.reserve
        }
        fn note_block_lines(&mut self, b: u16, l: u32, h: u32) {
            self.lines.push((b, l, h));
        }
        fn note_block_done(&mut self, b: u16, i: u32) {
            self.done.push((b, i));
        }
        fn note_wta_line(&mut self, h: HmcId) {
            self.wta.push(h);
        }
    }

    /// `out[tid] = a[tid] * a[tid]` — one 3-instruction offload block.
    fn tiny_kernel() -> Program {
        let mut p = Program::new("t", 4);
        let t = |r: u8| Operand::Reg(Reg(r));
        p.items = vec![
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(1),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(0x10_0000),
            )),
            Item::Op(Instr::ld(Reg(2), Reg(1))),
            Item::Op(Instr::alu(AluOp::FMul, Reg(3), t(2), t(2))),
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(4),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(0x20_0000),
            )),
            Item::Op(Instr::st(Reg(3), Reg(4))),
        ];
        p
    }

    fn mk_sm(program: &Program) -> Sm {
        let sys = SystemConfig::default();
        let kernel = Arc::new(compile(program, &CompilerConfig::default()));
        Sm::new(SmConfig::from_system(0, &sys), &sys, kernel)
    }

    #[test]
    fn baseline_load_goes_through_l1_and_misses() {
        let p = tiny_kernel();
        let mut sm = mk_sm(&p);
        let mut env = MockEnv::new(false);
        sm.assign_warp(0, u32::MAX, 0);
        for now in 0..20 {
            sm.tick(now, &mut env);
        }
        // The unit-stride load coalesces to one line and misses the cold L1.
        let reads: Vec<&Packet> = sm
            .out
            .iter()
            .filter(|p| matches!(p.kind, PacketKind::ReadReq { .. }))
            .collect();
        assert_eq!(reads.len(), 1);
        assert_eq!(sm.l1_stats().read_misses, 1);
        // Block stats accumulate even without offloading (§7.3 parity).
        assert_eq!(env.lines, vec![(0, 1, 0)]);
    }

    #[test]
    fn baseline_warp_completes_after_fill() {
        let p = tiny_kernel();
        let mut sm = mk_sm(&p);
        let mut env = MockEnv::new(false);
        sm.assign_warp(0, u32::MAX, 0);
        let mut fill_sent = false;
        for now in 0..400 {
            sm.tick(now, &mut env);
            if !fill_sent {
                if let Some(req) = sm.out.pop_front() {
                    if let PacketKind::ReadReq { addr, tag, .. } = req.kind {
                        sm.deliver(
                            now,
                            Packet::new(
                                Node::L2(0),
                                Node::Sm(0),
                                now,
                                PacketKind::ReadResp {
                                    addr,
                                    bytes: 128,
                                    tag,
                                },
                            ),
                            &mut env,
                        )
                        .unwrap();
                        fill_sent = true;
                    }
                }
            }
        }
        assert_eq!(sm.warps_retired, 1);
        assert_eq!(env.done, vec![(0, 5)], "block completion reported");
        // The store left as a write-through packet.
        assert!(sm
            .out
            .iter()
            .any(|p| matches!(p.kind, PacketKind::WriteReq { .. })));
    }

    #[test]
    fn offloaded_block_emits_cmd_rdf_wta_and_blocks() {
        let p = tiny_kernel();
        let mut sm = mk_sm(&p);
        let mut env = MockEnv::new(true);
        sm.assign_warp(0, u32::MAX, 0);
        for now in 0..100 {
            sm.tick(now, &mut env);
        }
        let kinds: Vec<usize> = sm.out.iter().map(|p| p.kind_index()).collect();
        // CMD(4), RDF(5), WTA(7) — in protocol order.
        assert_eq!(kinds, vec![4, 5, 7], "{kinds:?}");
        assert_eq!(env.wta.len(), 1, "one WTA line registered");
        assert_eq!(sm.warps_retired, 0, "warp blocked at OFLD.END");
        assert!(!sm.is_done());
        // The ACK releases it.
        let token = match sm.out[0].kind {
            PacketKind::OffloadCmd { token, .. } => token,
            ref other => panic!("{other:?}"),
        };
        sm.deliver(
            100,
            Packet::new(
                Node::Nsu(0),
                Node::Sm(0),
                100,
                PacketKind::OffloadAck {
                    token,
                    id: OffloadId {
                        sm: 0,
                        warp: 0,
                        seq: 0,
                    },
                    regs_out: 0,
                    active: 32,
                    values: vec![],
                },
            ),
            &mut env,
        )
        .unwrap();
        for now in 101..160 {
            sm.tick(now, &mut env);
        }
        assert_eq!(sm.warps_retired, 1);
        assert_eq!(env.done, vec![(0, 5)], "whole block range counted");
    }

    #[test]
    fn reservation_denial_keeps_packets_staged() {
        let p = tiny_kernel();
        let mut sm = mk_sm(&p);
        let mut env = MockEnv::new(true);
        env.reserve = false;
        sm.assign_warp(0, u32::MAX, 0);
        for now in 0..100 {
            sm.tick(now, &mut env);
        }
        assert!(sm.out.is_empty(), "no credits ⇒ nothing leaves the SM");
        // Granting credits releases the stream.
        env.reserve = true;
        for now in 100..200 {
            sm.tick(now, &mut env);
        }
        assert_eq!(sm.out.len(), 3, "CMD + RDF + WTA after grant");
    }

    #[test]
    fn late_fill_after_write_after_write_clears_the_blocked_memo() {
        // r1 is loaded, then overwritten by an ALU op while the load is
        // outstanding (the scoreboard does not order writes), and the
        // store through r1 is refused by the full output queue. The late
        // fill marks r1 not ready again, so the memo must go: the store's
        // next attempt is a dependency stall, not the memo's ExecBusy.
        let mut p = Program::new("waw", 4);
        let addr = |dst: u8, base: u64| {
            Instr::alu3(
                AluOp::IMad,
                Reg(dst),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(base),
            )
        };
        p.items = vec![
            Item::Op(addr(2, 0x10_0000)),
            Item::Op(Instr::ld(Reg(1), Reg(2))),
            Item::Op(addr(1, 0x20_0000)),
            Item::Op(Instr::st(Reg(2), Reg(1))),
        ];
        let sys = SystemConfig::default();
        let kernel = Arc::new(compile(&p, &CompilerConfig::default()));
        let mut cfg = SmConfig::from_system(0, &sys);
        cfg.out_capacity = 1;
        let mut sm = Sm::new(cfg, &sys, kernel);
        let mut env = MockEnv::new(false);
        sm.assign_warp(0, u32::MAX, 0);
        let mut now = 0;
        while sm.slots[0].as_ref().is_none_or(|s| s.blocked.is_none()) {
            assert!(now < 100, "the store was never refused");
            sm.tick(now, &mut env);
            now += 1;
        }
        // The load's request still fills the queue; answer it now.
        let PacketKind::ReadReq { addr, tag, .. } = sm.out[0].kind else {
            panic!("the load's request is queued");
        };
        let resp = PacketKind::ReadResp {
            addr,
            bytes: 128,
            tag,
        };
        sm.deliver(
            now,
            Packet::new(Node::L2(0), Node::Sm(0), now, resp),
            &mut env,
        )
        .unwrap();
        sm.check_blocked_memos(now + 1).unwrap();
        let dep_before = sm.stats.dependency_stall;
        sm.tick(now + 1, &mut env);
        assert_eq!(sm.stats.dependency_stall, dep_before + 1);
    }

    #[test]
    fn parked_slot_image_differs_only_in_its_wake_cycle() {
        let p = tiny_kernel();
        let mut sm = mk_sm(&p);
        let mut env = MockEnv::new(false);
        sm.assign_warp(0, u32::MAX, 0);
        for now in 0..8 {
            sm.tick(now, &mut env);
        }
        let slot = sm.slots[0].as_ref().expect("resident");
        let image = |wake: Option<Cycle>| {
            let mut w = SnapWriter::new();
            match wake {
                Some(c) => slot.snap_waking_at(c, &mut w),
                None => slot.snap(&mut w),
            }
            w.into_bytes()
        };
        assert_eq!(image(Some(slot.wake_at)), image(None));
        assert_ne!(image(Some(slot.wake_at + 4)), image(None));
    }

    #[test]
    fn barrier_synchronizes_cta() {
        let mut p = Program::new("bar", 2);
        p.items = vec![
            Item::Op(Instr::mov(Reg(0), Operand::Tid)),
            Item::LoopBegin(TripCount::PerWarp { base: 1, spread: 8 }),
            Item::Op(Instr::alu(
                AluOp::IAdd,
                Reg(0),
                Operand::Reg(Reg(0)),
                Operand::Imm(1),
            )),
            Item::LoopEnd,
            Item::Bar,
            Item::Op(Instr::mov(Reg(1), Operand::Imm(7))),
        ];
        let mut sm = mk_sm(&p);
        let mut env = MockEnv::new(false);
        sm.assign_warp(0, u32::MAX, 0);
        sm.assign_warp(1, u32::MAX, 0);
        for now in 0..200 {
            sm.tick(now, &mut env);
        }
        assert_eq!(sm.warps_retired, 2, "both warps pass the barrier");
    }

    #[test]
    fn no_issue_cycles_attributed() {
        let p = tiny_kernel();
        let mut sm = mk_sm(&p);
        let mut env = MockEnv::new(false);
        sm.assign_warp(0, u32::MAX, 0);
        for now in 0..100 {
            sm.tick(now, &mut env);
        }
        // The warp is stalled on its outstanding load most of the time.
        assert!(sm.stats.dependency_stall > 0);
        assert!(sm.stats.issued >= 2);
    }

    #[test]
    fn empty_sm_counts_warp_idle() {
        let p = tiny_kernel();
        let mut sm = mk_sm(&p);
        let mut env = MockEnv::new(false);
        for now in 0..10 {
            sm.tick(now, &mut env);
        }
        assert_eq!(sm.stats.warp_idle, 10);
        assert!(sm.is_done());
    }

    #[test]
    fn divergent_rdf_fans_out_per_line() {
        // One load with a data-dependent divergent address pattern.
        let mut p = Program::new("gather", 1);
        p.items = vec![
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(1),
                Operand::Tid,
                Operand::Imm(4),
                Operand::Imm(0x10_0000),
            )),
            Item::Op(Instr::ld(Reg(2), Reg(1))), // direct
            Item::Op(Instr::alu(
                AluOp::And,
                Reg(3),
                Operand::Reg(Reg(2)),
                Operand::Imm(0xffff),
            )),
            Item::Op(Instr::alu3(
                AluOp::IMad,
                Reg(4),
                Operand::Reg(Reg(3)),
                Operand::Imm(4),
                Operand::Imm(0x20_0000),
            )),
            Item::Op(Instr::ld(Reg(5), Reg(4))), // indirect → §4.4 block
            Item::Op(Instr::st(Reg(5), Reg(1))),
        ];
        let kernel = compile(&p, &CompilerConfig::default());
        assert!(kernel.blocks.iter().any(|b| b.indirect));
        let sys = SystemConfig::default();
        let mut sm = Sm::new(SmConfig::from_system(0, &sys), &sys, Arc::new(kernel));
        let mut env = MockEnv::new(true);
        sm.assign_warp(0, u32::MAX, 0);
        // Serve the direct load so the gather's address materializes.
        for now in 0..600 {
            sm.tick(now, &mut env);
            let fills: Vec<(u64, u64)> = sm
                .out
                .iter()
                .filter_map(|p| match p.kind {
                    PacketKind::ReadReq { addr, tag, .. } => Some((addr, tag)),
                    _ => None,
                })
                .collect();
            sm.out
                .retain(|p| !matches!(p.kind, PacketKind::ReadReq { .. }));
            for (addr, tag) in fills {
                sm.deliver(
                    now,
                    Packet::new(
                        Node::L2(0),
                        Node::Sm(0),
                        now,
                        PacketKind::ReadResp {
                            addr,
                            bytes: 128,
                            tag,
                        },
                    ),
                    &mut env,
                )
                .unwrap();
            }
        }
        let rdf_count = sm
            .out
            .iter()
            .filter(|p| matches!(p.kind, PacketKind::Rdf { .. }))
            .count();
        assert!(
            rdf_count > 8,
            "divergent gather should fan out to many lines, got {rdf_count}"
        );
    }

    #[test]
    fn pick_target_prefers_most_accessed_stack() {
        let sys = SystemConfig::default();
        let mm = MemMap::new(&sys);
        // Construct accesses: 1 line on some stack A, 2 lines on stack B.
        let mut lines_by_hmc: HashMap<u8, Vec<u64>> = HashMap::new();
        for i in 0..4096u64 {
            let line = i * 128;
            lines_by_hmc
                .entry(mm.hmc_of(line).0)
                .or_default()
                .push(line);
        }
        let (&a, la) = lines_by_hmc.iter().next().expect("nonempty");
        let (&b, lb) = lines_by_hmc
            .iter()
            .find(|(h, v)| **h != a && v.len() >= 2)
            .expect("two stacks");
        let acc = |line: u64| LineAccess {
            line,
            mask: 1,
            misaligned: false,
        };
        let accesses = vec![acc(la[0]), acc(lb[0]), acc(lb[1])];
        assert_eq!(pick_target(&accesses, &mm), HmcId(b));
        // Tie → first access wins.
        let accesses = vec![acc(la[0]), acc(lb[0])];
        assert_eq!(pick_target(&accesses, &mm), HmcId(a));
    }
}
