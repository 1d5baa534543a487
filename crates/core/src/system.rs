//! Full-system wiring and the main simulation loop.

use std::fs;
use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use ndp_common::config::{OffloadPolicy, SystemConfig};
use ndp_common::error::{PacketSummary, SimError};
use ndp_common::fault::{FaultAction, FaultConfig, FaultInjector, InjectedFault};
use ndp_common::ids::{Cycle, HmcId, Node};
use ndp_common::invariant::Invariants;
use ndp_common::link::Link;
use ndp_common::obs::perf::{Perf, StageOutcome};
use ndp_common::obs::{Obs, TraceSite};
use ndp_common::packet::{Packet, PacketKind};
use ndp_common::port::{Component, Edge, Fabric, FabricCtx, Op, Stage};
use ndp_common::snap::{self, SnapError, SnapReader, SnapState};
use ndp_common::watchdog::{
    CreditBalance, QueueDepth, StallReport, Watchdog, DEFAULT_WATCHDOG_CYCLES,
};
use ndp_compiler::{compile, CompiledKernel, CompilerConfig};
use ndp_energy::Activity;
use ndp_gpu::sm::{Sm, SmConfig};
use ndp_gpu::uncore::L2Slice;
use ndp_hmc::HmcStack;
use ndp_isa::program::Program;
use ndp_memnet::MemNetwork;
use ndp_nsu::Nsu;

use crate::checkpoint;
use crate::offload::OffloadController;
use crate::options::RunOptions;
use crate::result::RunResult;

// Section tags of the checkpoint payload, in `System::snapshot` order. A
// reader that drifts out of sync fails on the next tag with a named error
// instead of misdecoding everything downstream.
const SEC_CLOCK: u16 = 0x10;
const SEC_SMS: u16 = 0x11;
const SEC_SLICES: u16 = 0x12;
const SEC_LINKS: u16 = 0x13;
const SEC_STACKS: u16 = 0x14;
const SEC_NET: u16 = 0x15;
const SEC_NSUS: u16 = 0x16;
const SEC_CTRL: u16 = 0x17;
const SEC_INVARIANTS: u16 = 0x18;
const SEC_WATCHDOG: u16 = 0x19;
const SEC_FAULTS: u16 = 0x1a;
const SEC_OBS: u16 = 0x1b;

/// The simulated machine.
pub struct System {
    pub cfg: SystemConfig,
    pub kernel: Arc<CompiledKernel>,
    /// Checkpoint-header fingerprints of (`cfg`, `kernel`), computed at
    /// most once per machine and reused by every save. Lazy, because
    /// construction is on the set-up path of every run and most runs never
    /// save; a restored machine starts with the ones its image was checked
    /// against.
    fp: OnceLock<checkpoint::Fingerprints>,
    sms: Vec<Sm>,
    slices: Vec<L2Slice>,
    /// GPU→HMC links (up) and HMC→GPU links (down), one pair per stack.
    up: Vec<Link>,
    down: Vec<Link>,
    stacks: Vec<HmcStack>,
    net: MemNetwork,
    nsus: Vec<Nsu>,
    pub ctrl: OffloadController,
    /// Observability layer (latency histograms, occupancy time-series, the
    /// event ring that also renders Fig. 2 walkthroughs); off unless
    /// [`RunOptions::obs`].
    pub obs: Obs,
    /// Perf self-profiling layer (per-stage wall-time/idle attribution);
    /// off unless [`RunOptions::perf`] arms it.
    /// Read-only: it never changes simulated behaviour.
    pub perf: Perf,
    /// Protocol-invariant engine, fed from the fabric's observation site.
    invariants: Invariants,
    /// Forward-progress watchdog (`None` disables).
    watchdog: Option<Watchdog>,
    /// Deterministic fault injector (`None` = no faults, the default).
    faults: Option<FaultInjector>,
    now: Cycle,
    ndp_on: bool,
    nsu_div: u64,
    /// Event-driven stage skipping ([`RunOptions::skip`]): quiescent
    /// stages report `Skipped` instead of running, and `run_inner` jumps
    /// `now` over whole-system idle spans. Results are bit-identical
    /// either way — only wall-clock changes.
    skip: bool,
    /// Periodic-checkpoint cadence and target ([`RunOptions::checkpoint`]).
    autosave: Option<(NonZeroU64, PathBuf)>,
    /// Post-mortem checkpoint directory ([`RunOptions::stall_dump`]).
    stall_dump: Option<PathBuf>,
}

impl System {
    /// Compile `program` and build a system for it under `cfg`, with the
    /// run options of the process environment ([`RunOptions::from_env`]).
    /// Panics where [`System::try_with_kernel`] would return an error.
    pub fn new(cfg: SystemConfig, program: &Program) -> Self {
        let kernel = Arc::new(compile(program, &CompilerConfig::default()));
        Self::try_with_kernel(cfg, kernel).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Static verification gate of every construction path: Pass 1 diffs
    /// each offload block's annotations against the program text, Pass 2
    /// checks the lifted fabric graph. The first finding comes back as a
    /// [`SimError::BadPartition`] / [`SimError::BadFabric`].
    fn verify_static(cfg: &SystemConfig, kernel: &CompiledKernel) -> Result<(), SimError> {
        if let Some(d) = ndp_isa::verify_blocks(&kernel.program, &kernel.blocks)
            .into_iter()
            .next()
        {
            return Err(SimError::BadPartition {
                kernel: kernel.program.name.to_string(),
                location: d.location(),
                detail: d.detail,
            });
        }
        if let Some(d) = crate::fabric_model::fabric_graph(cfg)
            .check()
            .into_iter()
            .next()
        {
            return Err(SimError::BadFabric {
                check: d.check,
                detail: d.detail,
            });
        }
        Ok(())
    }

    /// [`System::build`] with the run options of the process environment
    /// ([`RunOptions::from_env`]).
    pub fn try_with_kernel(
        cfg: SystemConfig,
        kernel: Arc<CompiledKernel>,
    ) -> Result<Self, SimError> {
        Self::build(cfg, kernel, &RunOptions::from_env()?)
    }

    /// Build a system for one compiled kernel under one configuration,
    /// run as `opts` says. Both static verification passes (ndp-lint's
    /// Pass 1 over the offload blocks, Pass 2 over the lifted fabric
    /// pipeline) run first; a rejection is the error.
    pub fn build(
        cfg: SystemConfig,
        kernel: Arc<CompiledKernel>,
        opts: &RunOptions,
    ) -> Result<Self, SimError> {
        Self::verify_static(&cfg, &kernel)?;
        let ndp_on = cfg.offload != OffloadPolicy::Never;
        let blocks = Arc::new(kernel.blocks.clone());
        let bpc = cfg.bytes_per_cycle(cfg.gpu.link_gbps);
        let link_lat = cfg.gpu.link_latency;
        let mut sms = Vec::with_capacity(cfg.gpu.num_sms);
        for i in 0..cfg.gpu.num_sms {
            sms.push(Sm::new(
                SmConfig::from_system(i as u16, &cfg),
                &cfg,
                Arc::clone(&kernel),
            ));
        }
        // Assign warps to SMs in CTA-contiguous chunks.
        let warps_per_cta = cfg.gpu.warps_per_cta;
        for wg in 0..kernel.program.num_warps {
            let cta = wg / warps_per_cta;
            let sm = (cta as usize) % cfg.gpu.num_sms;
            sms[sm].assign_warp(wg, u32::MAX, cta);
        }
        let slices = (0..cfg.l2_slices())
            .map(|i| L2Slice::new(i as u8, &cfg))
            .collect();
        let up = (0..cfg.hmc.num_hmcs)
            .map(|_| Link::new(bpc, link_lat, cfg.gpu.link_queue_capacity))
            .collect();
        let down = (0..cfg.hmc.num_hmcs)
            .map(|_| Link::new(bpc, link_lat, cfg.gpu.link_queue_capacity))
            .collect();
        let stacks = (0..cfg.hmc.num_hmcs)
            .map(|i| HmcStack::new(HmcId(i as u8), &cfg))
            .collect();
        let net = MemNetwork::new(
            cfg.hmc.num_hmcs,
            cfg.bytes_per_cycle(cfg.hmc.link_gbps),
            cfg.hmc.memnet_hop_latency,
            cfg.hmc.memnet_queue_capacity,
        );
        let nsus = (0..cfg.hmc.num_hmcs)
            .map(|i| Nsu::new(HmcId(i as u8), &cfg, Arc::clone(&blocks)))
            .collect();
        let ctrl = OffloadController::new(&cfg, blocks);
        let nsu_div = cfg.nsu_divider();
        Ok(System {
            cfg,
            kernel,
            fp: OnceLock::new(),
            sms,
            slices,
            up,
            down,
            stacks,
            net,
            nsus,
            ctrl,
            obs: Obs::new(opts.obs),
            perf: Perf::new(opts.perf, stage_names()),
            invariants: Invariants::new(opts.deep_invariants),
            watchdog: opts.watchdog.map(|t| Watchdog::new(t, &Tx::NAMES)),
            faults: opts
                .faults
                .filter(FaultConfig::is_active)
                .map(FaultInjector::new),
            now: 0,
            ndp_on,
            nsu_div,
            skip: opts.skip,
            autosave: opts.checkpoint.clone(),
            stall_dump: opts.stall_dump.clone(),
        })
    }

    /// One SM-clock cycle: execute the fabric pipeline, surfacing any
    /// protocol violation detected during it.
    pub fn try_tick(&mut self) -> Result<(), SimError> {
        let now = self.now;
        self.perf.cycle_begin();
        Fabric { stages: PIPELINE }.tick(self, now)?;
        self.now += 1;
        // Stack interiors tick through the infallible `Component` trait;
        // poll their parked errors.
        for st in &mut self.stacks {
            if let Some(e) = st.take_error() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// One SM-clock cycle; panics on a protocol violation (driver loops
    /// that want structured errors use [`System::try_tick`] or
    /// [`System::run`]).
    pub fn tick(&mut self) {
        if let Err(e) = self.try_tick() {
            panic!("protocol violation: {e}");
        }
    }

    /// Push one occupancy sample of every hot queue into the time-series
    /// set. Called on the observability sampling interval only.
    fn sample_occupancy(&mut self) {
        let (mut pend, mut ready) = (0usize, 0usize);
        for sm in &self.sms {
            let (p, r) = sm.ndp_buffer_depths();
            pend += p;
            ready += r;
        }
        self.obs.offer_sample("sm_ndp_pending", pend as f64);
        self.obs.offer_sample("sm_ndp_ready", ready as f64);

        let (mut cmd, mut rd, mut wr, mut slots) = (0usize, 0usize, 0usize, 0usize);
        for n in &self.nsus {
            let (c, r, w) = n.buffer_depths();
            cmd += c;
            rd += r;
            wr += w;
            slots += n.occupied_slots();
        }
        self.obs.offer_sample("nsu_cmd_queue", cmd as f64);
        self.obs.offer_sample("nsu_read_data", rd as f64);
        self.obs.offer_sample("nsu_write_addr", wr as f64);
        self.obs.offer_sample("nsu_warp_slots", slots as f64);

        let (cc, cr, cw) = self.ctrl.mgr.total_in_use();
        self.obs.offer_sample("credit_cmd_in_use", cc as f64);
        self.obs.offer_sample("credit_read_in_use", cr as f64);
        self.obs.offer_sample("credit_write_in_use", cw as f64);

        let up: usize = self.up.iter().map(|l| l.in_transit()).sum();
        let down: usize = self.down.iter().map(|l| l.in_transit()).sum();
        self.obs.offer_sample("gpu_link_up_in_transit", up as f64);
        self.obs
            .offer_sample("gpu_link_down_in_transit", down as f64);

        let vq: usize = self.stacks.iter().map(|s| s.queued_requests()).sum();
        self.obs.offer_sample("vault_queued", vq as f64);
        self.obs
            .offer_sample("memnet_in_flight", self.net.queued_packets() as f64);
    }

    /// The current simulated cycle.
    pub fn cycle(&self) -> Cycle {
        self.now
    }

    /// Everything drained?
    pub fn is_done(&self) -> bool {
        self.sms.iter().all(|s| s.is_done())
            && self
                .slices
                .iter()
                .all(|s| s.is_idle() && s.writes_outstanding == 0)
            && self.up.iter().all(|l| l.is_idle())
            && self.down.iter().all(|l| l.is_idle())
            && self.stacks.iter().all(|s| !s.busy())
            && self.net.is_idle()
            && self.nsus.iter().all(|n| !n.busy())
    }

    /// The main loop of [`System::run`].
    ///
    /// Checks, on the same 256-cycle boundary the drain check always ran
    /// on: recorded invariant violations (surfaced as `Err`), completion,
    /// and — only while work is outstanding — the forward-progress
    /// watchdog, which aborts the run early with a structured
    /// [`StallReport`] instead of spinning silently to the cycle cap.
    fn run_inner(&mut self, max_cycles: u64) -> Result<Outcome, SimError> {
        // Periodic checkpoints: the cadence and this run's file. A resumed
        // run picks the cadence up mid-stream instead of re-saving cycles
        // the interrupted run already covered.
        let autosave = self.autosave.as_ref().map(|(every, target)| {
            let name = self.kernel.program.name;
            let file = checkpoint::file_for(target, name, self.fingerprints().config);
            (every.get(), file)
        });
        let mut last_save = self.now;
        let mut out = Outcome {
            timed_out: true,
            stall: None,
        };
        // The boundary checks sit at the *top* of the loop so they also run
        // at the entry cycle: a system restored from a checkpoint re-enters
        // here mid-run (possibly already drained, or mid-stall), and must
        // check/complete at exactly the cycle the uninterrupted run did.
        loop {
            if self.now.is_multiple_of(256) {
                if let Some(v) = self.invariants.first_violation() {
                    return Err(SimError::InvariantViolation {
                        cycle: self.now,
                        detail: v.to_string(),
                    });
                }
                if self.is_done() {
                    out.timed_out = false;
                    break;
                }
                // Periodic checkpoints ride the same boundary as the
                // drain/watchdog checks: the first one at or after each
                // multiple of the cadence, so per-cycle and event-driven
                // runs save at identical cycles. Reading state only — a
                // save never perturbs the simulation.
                if let Some((every, file)) = &autosave {
                    if self.now / every > last_save / every {
                        last_save = self.now;
                        self.save_checkpoint(file)?;
                    }
                }
                let instrs: u64 = self.sms.iter().map(|s| s.stats.issued).sum::<u64>()
                    + self.nsus.iter().map(|n| n.instrs).sum::<u64>();
                if let Some(w) = &mut self.watchdog {
                    w.note_instrs(self.now, instrs);
                    if let Some(stalled_for) = w.stalled_for(self.now) {
                        out.stall = Some(Box::new(self.build_stall_report(stalled_for)));
                        if let Some(dir) = &self.stall_dump {
                            self.dump_stall_checkpoint(dir);
                        }
                        break;
                    }
                }
            }
            if self.now >= max_cycles {
                break;
            }
            if self.skip {
                if let Some(j) = self.jump_target(max_cycles) {
                    self.account_jump(j);
                    self.now = j;
                    continue;
                }
            }
            self.try_tick()?;
        }
        if out.timed_out && out.stall.is_none() && self.is_done() {
            out.timed_out = false;
        }
        if !out.timed_out {
            self.check_conservation()?;
        }
        Ok(out)
    }

    /// Next-event jump target: `Some(j)` when *no* pipeline stage has work
    /// at `now`, where `j > now` is the earliest cycle anything could
    /// happen — the minimum stage horizon, capped at the next 256-cycle
    /// check boundary (so invariant/done/watchdog checks run at exactly
    /// the cycles a per-cycle run checks them) and at `max_cycles`.
    /// `None` means some stage has work now: tick normally.
    fn jump_target(&self, max_cycles: u64) -> Option<Cycle> {
        let now = self.now;
        let next_check = (now / 256 + 1) * 256;
        let mut target = next_check.min(max_cycles);
        for idx in 0..PIPELINE.len() {
            match self.stage_horizon(now, idx) {
                Some(c) if c <= now => return None,
                Some(c) => target = target.min(c),
                None => {}
            }
        }
        Some(target)
    }

    /// Book the span `[self.now, j)` as elided: per-stage perf accounting
    /// (`gated` for closed NSU-clock cycles, `skipped` otherwise) and
    /// component stat replay via `note_skipped`, exactly as if each cycle
    /// had been ticked and every stage had reported Gated/Skipped.
    fn account_jump(&mut self, j: Cycle) {
        let now = self.now;
        let span = j - now;
        // Open NSU-clock cycles in [now, j): multiples of nsu_div.
        let open = if self.ndp_on {
            j.div_ceil(self.nsu_div) - now.div_ceil(self.nsu_div)
        } else {
            0
        };
        for (idx, stage) in PIPELINE.iter().enumerate() {
            let (gated, skipped) = match stage.gate {
                Gate::Always => (0, span),
                Gate::NsuClock => (span - open, open),
            };
            self.perf.jump(idx, gated, skipped);
            if skipped > 0 {
                self.note_stage_skipped(idx, skipped);
            }
        }
    }

    /// Replay `k` skipped invocations of stage `idx` into the components
    /// whose per-cycle tick has observable idle effects (SM stall stats,
    /// stack clock-domain crossing, NSU tick counters). Every other
    /// stage's idle tick is a pure no-op.
    fn note_stage_skipped(&mut self, idx: usize, k: u64) {
        match &PIPELINE[idx].op {
            Op::Tick(Comp::Sms) => {
                for sm in &mut self.sms {
                    sm.note_skipped(k);
                }
            }
            Op::Tick(Comp::Stacks) => {
                for st in &mut self.stacks {
                    Component::note_skipped(st, k);
                }
            }
            Op::Tick(Comp::Nsus) => {
                for n in &mut self.nsus {
                    n.note_skipped(k);
                }
            }
            _ => {}
        }
    }

    /// Drained-system conservation: protocol counters balance and every
    /// NSU buffer credit has been returned.
    fn check_conservation(&self) -> Result<(), SimError> {
        self.invariants.check_drained(self.now)?;
        let (cmd, read, write) = self.ctrl.mgr.total_in_use();
        if (cmd, read, write) != (0, 0, 0) {
            return Err(SimError::CreditLeak {
                cycle: self.now,
                cmd,
                read,
                write,
            });
        }
        Ok(())
    }

    /// Run to completion (or the safety cap) and collect results.
    ///
    /// `Err` is a protocol violation; a timeout or watchdog stall is
    /// `Ok` with `timed_out=true` (and `stall=Some(..)` when the watchdog
    /// fired).
    pub fn run(mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        let out = self.run_inner(max_cycles)?;
        Ok(self.collect(out))
    }

    fn collect(self, out: Outcome) -> RunResult {
        let mut r = RunResult {
            workload: self.kernel.program.name.to_string(),
            config: format!("{:?}", self.cfg.offload),
            cycles: self.now,
            timed_out: out.timed_out,
            stall: out.stall,
            faults: self.faults.as_ref().map(|f| f.stats),
            ..Default::default()
        };
        for sm in &self.sms {
            r.issue.merge(&sm.stats);
            r.l1.merge(&sm.l1_stats());
            let (p, q) = sm.buffer_peaks();
            r.sm_buffer_peaks.0 = r.sm_buffer_peaks.0.max(p);
            r.sm_buffer_peaks.1 = r.sm_buffer_peaks.1.max(q);
        }
        for s in &self.slices {
            r.l2.merge(&s.stats());
            r.ondie_bytes += s.ondie_bytes;
        }
        for st in &self.stacks {
            r.dram.merge(&st.dram_stats());
            r.intra_hmc_bytes += st.intra_bytes;
        }
        for l in self.up.iter().chain(self.down.iter()) {
            r.gpu_link_bytes += l.stats.bytes;
            r.gpu_link_ndp_bytes += l.stats.ndp_bytes;
            r.inval_bytes += l.stats.inval_bytes;
        }
        r.memnet_bytes = self.net.total_bytes();
        let mut occ = 0.0;
        let mut icu = 0.0;
        for n in &self.nsus {
            r.nsu_instrs += n.instrs;
            occ += n.avg_occupancy();
            icu += n.icache_utilization(self.cfg.nsu.icache_bytes);
        }
        r.nsu_occupancy = occ / self.nsus.len() as f64;
        r.nsu_icache_util = icu / self.nsus.len() as f64;
        r.offered = self.ctrl.offered;
        r.offloaded = self.ctrl.offloaded;

        r.activity = Activity {
            seconds: self.now as f64 / (self.cfg.gpu.sm_clock_mhz as f64 * 1e6),
            gpu_instrs: r.issue.issued,
            nsu_instrs: r.nsu_instrs,
            l1_accesses: r.l1.read_accesses() + r.l1.writes,
            l2_accesses: r.l2.read_accesses() + r.l2.writes,
            ondie_bytes: r.ondie_bytes,
            gpu_link_bytes: r.gpu_link_bytes,
            memnet_bytes: r.memnet_bytes,
            intra_hmc_bytes: r.intra_hmc_bytes,
            dram_activations: r.dram.activations,
            dram_bytes: r.dram.read_bytes + r.dram.write_bytes,
            num_nsus: if self.ndp_on { self.nsus.len() } else { 0 },
            num_hmcs: self.stacks.len(),
            memnet_powered: self.ndp_on,
        };
        if self.obs.is_on() {
            r.obs = Some(self.obs.report());
        }
        if self.perf.is_on() {
            let mut perf = self.perf.report(self.now);
            perf.sm_ready_occupancy = self.sms.iter().map(|sm| sm.ready_occupancy()).collect();
            (perf.sm_structural_retries, perf.sm_memo_answers) =
                self.sms.iter().map(|sm| sm.structural_retries()).unzip();
            r.perf = Some(perf);
        }
        r
    }

    /// Snapshot the whole machine at the moment the watchdog fired: every
    /// non-empty queue, credit-pool balances, in-flight offload tokens with
    /// lifecycle state, protocol counters, and a wait-for summary naming
    /// what starved resources are blocked on.
    fn build_stall_report(&self, stalled_for: Cycle) -> StallReport {
        fn push(queues: &mut Vec<QueueDepth>, name: String, depth: usize) {
            if depth > 0 {
                queues.push(QueueDepth { name, depth });
            }
        }
        let mut queues = Vec::new();
        for (i, sm) in self.sms.iter().enumerate() {
            push(&mut queues, format!("sm{i}.out"), sm.out.len());
            let (pend, ready) = sm.ndp_buffer_depths();
            push(&mut queues, format!("sm{i}.ndp_pending"), pend);
            push(&mut queues, format!("sm{i}.ndp_ready"), ready);
        }
        for (i, s) in self.slices.iter().enumerate() {
            push(&mut queues, format!("l2_{i}.to_mem"), s.to_mem.len());
            push(&mut queues, format!("l2_{i}.to_sm"), s.to_sm.len());
        }
        for (i, l) in self.up.iter().enumerate() {
            push(&mut queues, format!("up_link{i}"), l.in_transit());
        }
        for (i, l) in self.down.iter().enumerate() {
            push(&mut queues, format!("down_link{i}"), l.in_transit());
        }
        for (i, st) in self.stacks.iter().enumerate() {
            push(&mut queues, format!("hmc{i}.queued"), st.queued_requests());
        }
        push(&mut queues, "memnet".to_string(), self.net.queued_packets());
        for (i, n) in self.nsus.iter().enumerate() {
            let (cmd, rd, wr) = n.buffer_depths();
            push(&mut queues, format!("nsu{i}.cmd_queue"), cmd);
            push(&mut queues, format!("nsu{i}.read_data"), rd);
            push(&mut queues, format!("nsu{i}.write_addr"), wr);
            push(
                &mut queues,
                format!("nsu{i}.warp_slots"),
                n.occupied_slots(),
            );
        }

        let caps = [
            ("cmd", self.cfg.nsu.cmd_entries),
            ("read", self.cfg.nsu.read_data_entries),
            ("write", self.cfg.nsu.write_addr_entries),
        ];
        let mut credits = Vec::new();
        let mut wait_for = Vec::new();
        for h in 0..self.stacks.len() {
            let avail = self.ctrl.mgr.available(HmcId(h as u8));
            for ((pool, cap), avail) in caps.iter().zip([avail.0, avail.1, avail.2]) {
                let in_use = cap.saturating_sub(avail);
                if in_use > 0 {
                    credits.push(CreditBalance {
                        pool: format!("hmc{h}.{pool}"),
                        in_use,
                        capacity: *cap,
                    });
                }
                if avail == 0 && *cap > 0 {
                    wait_for.push(format!(
                        "hmc{h}: NSU {pool} credit pool exhausted (0 of {cap} available) — \
                         senders starve on edge stack_to_nsu"
                    ));
                }
            }
        }
        for sm in &self.sms {
            wait_for.extend(sm.wait_summary(self.now));
        }
        if let Some(f) = &self.faults {
            if f.cfg.withhold_credits {
                wait_for.push(format!(
                    "fault injector withheld {} credit returns (withhold_credits)",
                    f.stats.credits_withheld
                ));
            }
        }
        if wait_for.is_empty() {
            wait_for.push("no waiting component identified".to_string());
        }

        let mut tokens = self.invariants.inflight_tokens();
        for n in &self.nsus {
            tokens.extend(n.resident_tokens());
        }

        StallReport {
            cycle: self.now,
            stalled_for,
            threshold: self.watchdog.as_ref().map_or(0, |w| w.threshold()),
            edges: self
                .watchdog
                .as_ref()
                .map_or_else(Vec::new, |w| w.edges().to_vec()),
            queues,
            credits,
            tokens,
            protocol: self.invariants.counters(),
            wait_for,
        }
    }

    /// Serialize the complete mutable machine state into a versioned,
    /// checksummed checkpoint image (the full file contents, header
    /// included).
    ///
    /// Included: the clock, every SM (warp contexts,
    /// scoreboards, L1 + MSHRs, NDP buffers, output queue), every L2
    /// slice, both GPU link directions, every HMC stack (vault queues,
    /// DRAM bank timing, port FIFOs), the memory network, every
    /// NSU (warp slots, command/read/write buffers, credits), the offload
    /// controller (credit pools, hill climber, WTA counters), the
    /// protocol-invariant engine, the watchdog, the fault injector, and
    /// the observability layer (it feeds `RunResult`).
    ///
    /// Deliberately excluded — rebuilt by fresh construction on restore:
    /// the config, the compiled kernel and everything derived from them
    /// (capacities, timings, memory map, topology), both guarded by
    /// header fingerprints; and the run options that never change a
    /// `RunResult` (execution mode, perf self-profiler, checkpoint
    /// cadence, stall dump), which the restore takes from its
    /// [`RunOptions`].
    pub fn snapshot(&self) -> Vec<u8> {
        let System {
            cfg: _,
            kernel: _,
            fp: _,
            sms,
            slices,
            up,
            down,
            stacks,
            net,
            nsus,
            ctrl,
            obs,
            perf: _,
            invariants,
            watchdog,
            faults,
            now,
            ndp_on: _,
            nsu_div: _,
            skip: _,
            autosave: _,
            stall_dump: _,
        } = self;
        let mut w = checkpoint::writer();
        w.tag(SEC_CLOCK);
        now.snap(&mut w);
        w.tag(SEC_SMS);
        snap::snap_each(sms, &mut w);
        w.tag(SEC_SLICES);
        snap::snap_each(slices, &mut w);
        w.tag(SEC_LINKS);
        snap::snap_each(up, &mut w);
        snap::snap_each(down, &mut w);
        w.tag(SEC_STACKS);
        snap::snap_each(stacks, &mut w);
        w.tag(SEC_NET);
        net.snap(&mut w);
        w.tag(SEC_NSUS);
        snap::snap_each(nsus, &mut w);
        w.tag(SEC_CTRL);
        ctrl.snap(&mut w);
        w.tag(SEC_INVARIANTS);
        invariants.snap(&mut w);
        w.tag(SEC_WATCHDOG);
        w.bool(watchdog.is_some());
        if let Some(wd) = watchdog {
            wd.snap(&mut w);
        }
        w.tag(SEC_FAULTS);
        faults.snap(&mut w);
        w.tag(SEC_OBS);
        obs.snap(&mut w);
        checkpoint::seal(self.fingerprints(), *now, w)
    }

    /// [`System::restore`] with the run options of the process
    /// environment ([`RunOptions::from_env`]).
    pub fn try_restore(
        cfg: SystemConfig,
        kernel: Arc<CompiledKernel>,
        bytes: &[u8],
    ) -> Result<System, SimError> {
        Self::restore(cfg, kernel, bytes, &RunOptions::from_env()?)
    }

    /// Rebuild a system from a checkpoint image taken by
    /// [`System::snapshot`] under exactly this (config, kernel) pair.
    ///
    /// The image supplies everything that can change the `RunResult`:
    /// machine state, and with it the fault schedule, the watchdog, the
    /// invariant depth and the observability layer. `opts` supplies the
    /// rest, so an image saved per-cycle can resume event-driven.
    ///
    /// The machine is first constructed fresh (re-deriving every
    /// config/kernel-dependent shape), then overwritten component by
    /// component. Any mismatch — magic, schema version, config or kernel
    /// fingerprint, truncation, checksum, or a payload that does not fit
    /// the constructed shapes — comes back as a typed
    /// [`SimError::BadCheckpoint`]; corrupt input never panics and never
    /// resumes silently wrong.
    pub fn restore(
        cfg: SystemConfig,
        kernel: Arc<CompiledKernel>,
        bytes: &[u8],
        opts: &RunOptions,
    ) -> Result<System, SimError> {
        let fp = checkpoint::Fingerprints::of(&cfg, &kernel);
        let (header, payload) = checkpoint::open(bytes, fp)?;
        let mut sys = System::build(cfg, kernel, opts)?;
        sys.fp = OnceLock::from(fp);
        let mut r = SnapReader::new(payload);
        sys.restore_payload(&mut r)
            .and_then(|()| r.finish())
            .map_err(|e| checkpoint::bad("decode", e.0))?;
        if sys.now != header.cycle {
            return Err(checkpoint::bad(
                "cycle",
                format!(
                    "header says cycle {}, payload carries cycle {}",
                    header.cycle, sys.now
                ),
            ));
        }
        Ok(sys)
    }

    fn fingerprints(&self) -> checkpoint::Fingerprints {
        *self
            .fp
            .get_or_init(|| checkpoint::Fingerprints::of(&self.cfg, &self.kernel))
    }

    /// Overwrite the freshly constructed machine from a verified payload.
    fn restore_payload(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag(SEC_CLOCK, "clock")?;
        self.now.restore(r)?;
        r.tag(SEC_SMS, "sms")?;
        snap::restore_each(&mut self.sms, r, "System.sms")?;
        r.tag(SEC_SLICES, "slices")?;
        snap::restore_each(&mut self.slices, r, "System.slices")?;
        r.tag(SEC_LINKS, "links")?;
        snap::restore_each(&mut self.up, r, "System.up")?;
        snap::restore_each(&mut self.down, r, "System.down")?;
        r.tag(SEC_STACKS, "stacks")?;
        snap::restore_each(&mut self.stacks, r, "System.stacks")?;
        r.tag(SEC_NET, "memnet")?;
        self.net.restore(r)?;
        r.tag(SEC_NSUS, "nsus")?;
        snap::restore_each(&mut self.nsus, r, "System.nsus")?;
        r.tag(SEC_CTRL, "offload controller")?;
        self.ctrl.restore(r)?;
        r.tag(SEC_INVARIANTS, "invariants")?;
        self.invariants.restore(r)?;
        r.tag(SEC_WATCHDOG, "watchdog")?;
        self.watchdog = if r.bool()? {
            let mut wd = Watchdog::new(DEFAULT_WATCHDOG_CYCLES, &Tx::NAMES);
            wd.restore(r)?;
            Some(wd)
        } else {
            None
        };
        r.tag(SEC_FAULTS, "faults")?;
        self.faults.restore(r)?;
        r.tag(SEC_OBS, "obs")?;
        self.obs.restore(r)
    }

    /// Snapshot to `path` atomically (temp file + rename), so an
    /// interruption mid-save leaves the previous complete checkpoint
    /// intact.
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), SimError> {
        checkpoint::write_atomic(path, &self.snapshot())
            .map_err(|e| checkpoint::bad("write", format!("{}: {e}", path.display())))
    }

    /// [`System::try_restore`] from a file on disk.
    pub fn restore_from_file(
        cfg: SystemConfig,
        kernel: Arc<CompiledKernel>,
        path: &Path,
    ) -> Result<System, SimError> {
        Self::try_restore(cfg, kernel, &checkpoint::read(path)?)
    }

    /// Advance to exactly `target` using the session's execution strategy
    /// (per-cycle or event-driven), without the completion/watchdog checks
    /// of [`System::run`] — the "interrupt the run at cycle N" hook the
    /// checkpoint tests and external drivers use before snapshotting.
    pub fn run_until(&mut self, target: Cycle) -> Result<(), SimError> {
        while self.now < target {
            if self.skip {
                if let Some(j) = self.jump_target(target) {
                    self.account_jump(j);
                    self.now = j;
                    continue;
                }
            }
            self.try_tick()?;
        }
        Ok(())
    }

    /// Best-effort post-mortem snapshot next to a watchdog stall report
    /// ([`RunOptions::stall_dump`]). A write failure is reported on stderr but
    /// never masks the stall report itself.
    fn dump_stall_checkpoint(&self, dir: &Path) {
        let file = dir.join(format!(
            "stall-{}-cycle{}.{}",
            self.kernel.program.name,
            self.now,
            checkpoint::EXTENSION
        ));
        let res = fs::create_dir_all(dir)
            .and_then(|()| checkpoint::write_atomic(&file, &self.snapshot()));
        match res {
            Ok(()) => eprintln!(
                "watchdog stall: post-mortem checkpoint at {}",
                file.display()
            ),
            Err(e) => eprintln!("watchdog stall: post-mortem checkpoint failed: {e}"),
        }
    }
}

/// What `run_inner` resolved: drained, hit the cap, or stalled.
struct Outcome {
    timed_out: bool,
    stall: Option<Box<StallReport>>,
}

/// A kind of transmit port, replicated across lanes (one lane per SM,
/// slice, link, stack or NSU). Together with [`Rx`] these name every
/// structural edge of the machine.
#[derive(Debug, Clone, Copy)]
pub enum Tx {
    /// SM output queues → on-die interconnect.
    SmOut,
    /// L2 slice memory-side outputs → up links.
    SliceToMem,
    /// Up-link deliveries → stack logic layers.
    UpLink,
    /// Stack outputs → memory network.
    StackToMemnet,
    /// Stack outputs → local NSU.
    StackToNsu,
    /// Stack outputs → down links.
    StackToGpu,
    /// Memory-network deliveries → destination stack logic layers.
    NetDelivered,
    /// NSU outputs → local stack logic layers.
    NsuOut,
    /// Down-link deliveries → L2 slices or SMs.
    DownLink,
    /// L2 slice responses → SMs.
    SliceToSm,
}

impl Tx {
    /// Stable edge names, in [`Tx::index`] order — watchdog edge labels
    /// and fault-stream identifiers.
    pub const NAMES: [&'static str; 10] = [
        "sm_out",
        "slice_to_mem",
        "up_link",
        "stack_to_memnet",
        "stack_to_nsu",
        "stack_to_gpu",
        "net_delivered",
        "nsu_out",
        "down_link",
        "slice_to_sm",
    ];

    pub const fn index(self) -> usize {
        match self {
            Tx::SmOut => 0,
            Tx::SliceToMem => 1,
            Tx::UpLink => 2,
            Tx::StackToMemnet => 3,
            Tx::StackToNsu => 4,
            Tx::StackToGpu => 5,
            Tx::NetDelivered => 6,
            Tx::NsuOut => 7,
            Tx::DownLink => 8,
            Tx::SliceToSm => 9,
        }
    }

    pub const fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// One concrete receiver in the routing table.
#[derive(Debug, Clone, Copy)]
pub enum Rx {
    /// SM-side input of an L2 slice.
    Slice(usize),
    UpLink(usize),
    /// Logic layer of a stack.
    Stack(usize),
    /// Memory-network injection point at a stack.
    Net(usize),
    Nsu(usize),
    DownLink(usize),
    /// Memory-side input of an L2 slice.
    SliceFromMem(usize),
    Sm(usize),
}

/// A component group ticked by one pipeline stage.
#[derive(Debug, Clone, Copy)]
pub enum Comp {
    Sms,
    Slices,
    UpLinks,
    Stacks,
    Net,
    Nsus,
    DownLinks,
}

/// Clock gate of a pipeline stage.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    Always,
    /// NSU clock domain: SM clock / divider, and only when NDP is on.
    NsuClock,
}

/// Non-packet side channels run as pipeline stages.
#[derive(Debug, Clone, Copy)]
pub enum SideChannel {
    /// NSU buffer-credit returns to the GPU's buffer manager (§4.3).
    Credits,
    /// Offload-controller epochs.
    Ctrl,
    /// Occupancy sampling (observability only; never feeds back).
    Sample,
}

const fn stage(op: Op<System>) -> Stage<System> {
    Stage {
        gate: Gate::Always,
        op,
    }
}

/// Display names for the PIPELINE stages, index-aligned with the stage
/// list — the perf layer's attribution labels (`tick:sms`, `edge:sm_out`,
/// `side:credits`, ...).
pub(crate) fn stage_names() -> Vec<String> {
    PIPELINE
        .iter()
        .map(|s| match &s.op {
            Op::Tick(c) => format!("tick:{}", format!("{c:?}").to_lowercase()),
            Op::Route(e) => format!("edge:{}", e.tx.name()),
            Op::Side(sc) => format!("side:{}", format!("{sc:?}").to_lowercase()),
        })
        .collect()
}

const fn edge(tx: Tx, site: Option<TraceSite>) -> Op<System> {
    Op::Route(Edge { tx, site })
}

/// The whole machine, one SM cycle, as data: tick a component group, move
/// packets across a routing-table edge, or run a side channel — in this
/// order. The stage order preserves the original hand-rolled phase order
/// exactly (SMs → slices → up links → stacks → memnet → NSUs → down links
/// → slice responses → controller).
pub(crate) const PIPELINE: &[Stage<System>] = &[
    stage(Op::Tick(Comp::Sms)),
    stage(edge(Tx::SmOut, Some(TraceSite::SmEject))),
    stage(Op::Tick(Comp::Slices)),
    stage(edge(Tx::SliceToMem, None)),
    stage(Op::Tick(Comp::UpLinks)),
    stage(edge(Tx::UpLink, Some(TraceSite::GpuLinkUp))),
    stage(Op::Tick(Comp::Stacks)),
    stage(edge(Tx::StackToMemnet, None)),
    stage(edge(Tx::StackToNsu, Some(TraceSite::ToNsu))),
    stage(edge(Tx::StackToGpu, None)),
    stage(Op::Tick(Comp::Net)),
    stage(edge(Tx::NetDelivered, None)),
    Stage {
        gate: Gate::NsuClock,
        op: Op::Tick(Comp::Nsus),
    },
    Stage {
        gate: Gate::NsuClock,
        op: edge(Tx::NsuOut, Some(TraceSite::FromNsu)),
    },
    Stage {
        gate: Gate::NsuClock,
        op: Op::Side(SideChannel::Credits),
    },
    stage(Op::Tick(Comp::DownLinks)),
    stage(edge(Tx::DownLink, Some(TraceSite::GpuLinkDown))),
    stage(edge(Tx::SliceToSm, None)),
    stage(Op::Side(SideChannel::Ctrl)),
    stage(Op::Side(SideChannel::Sample)),
];

impl FabricCtx for System {
    type Tx = Tx;
    type Rx = Rx;
    type Comp = Comp;
    type Gate = Gate;
    type Side = SideChannel;

    fn lanes(&self, tx: Tx) -> usize {
        match tx {
            Tx::SmOut => self.sms.len(),
            Tx::SliceToMem | Tx::SliceToSm => self.slices.len(),
            Tx::UpLink => self.up.len(),
            Tx::DownLink => self.down.len(),
            Tx::StackToMemnet | Tx::StackToNsu | Tx::StackToGpu | Tx::NetDelivered => {
                self.stacks.len()
            }
            Tx::NsuOut => self.nsus.len(),
        }
    }

    fn gate_open(&self, gate: Gate, now: Cycle) -> bool {
        match gate {
            Gate::Always => true,
            Gate::NsuClock => self.ndp_on && now.is_multiple_of(self.nsu_div),
        }
    }

    fn peek(&self, now: Cycle, tx: Tx, lane: usize) -> Option<&Packet> {
        match tx {
            Tx::SmOut => self.sms[lane].out.front(),
            Tx::SliceToMem => self.slices[lane].to_mem.front(),
            Tx::UpLink => self.up[lane].peek_ready(now),
            Tx::StackToMemnet => self.stacks[lane].to_memnet.front(),
            Tx::StackToNsu => self.stacks[lane].to_nsu.front(),
            Tx::StackToGpu => self.stacks[lane].to_gpu.front(),
            Tx::NetDelivered => self.net.peek_delivered(HmcId(lane as u8)),
            Tx::NsuOut => self.nsus[lane].out.front(),
            Tx::DownLink => self.down[lane].peek_ready(now),
            Tx::SliceToSm => self.slices[lane].to_sm.peek_ready(now),
        }
    }

    fn route(&self, now: Cycle, tx: Tx, lane: usize, p: &Packet) -> Result<Rx, SimError> {
        let unroutable = || SimError::Unroutable {
            edge: tx.name(),
            cycle: now,
            packet: PacketSummary::of(p),
        };
        Ok(match tx {
            // On-die interconnect: reads/writes address a slice directly;
            // NDP-protocol packets go to the slice fronting the stack that
            // owns their destination. Anything else is a routing bug.
            Tx::SmOut => match p.dst {
                Node::L2(h) => Rx::Slice(h as usize),
                other => match other.hmc() {
                    Some(h) => Rx::Slice(h.0 as usize),
                    None => return Err(unroutable()),
                },
            },
            Tx::SliceToMem => Rx::UpLink(lane),
            Tx::UpLink => Rx::Stack(lane),
            // The memory network only carries HMC-resident destinations.
            Tx::StackToMemnet => match p.dst.hmc() {
                Some(_) => Rx::Net(lane),
                None => return Err(unroutable()),
            },
            Tx::StackToNsu => Rx::Nsu(lane),
            Tx::StackToGpu => Rx::DownLink(lane),
            Tx::NetDelivered => Rx::Stack(lane),
            Tx::NsuOut => Rx::Stack(lane),
            Tx::DownLink => match p.dst {
                Node::L2(_) => Rx::SliceFromMem(lane),
                Node::Sm(s) => Rx::Sm(s as usize),
                _ => return Err(unroutable()),
            },
            Tx::SliceToSm => match p.dst {
                Node::Sm(i) => Rx::Sm(i as usize),
                _ => return Err(unroutable()),
            },
        })
    }

    fn can_accept(&self, rx: Rx, p: &Packet) -> bool {
        match rx {
            Rx::Slice(h) => self.slices[h].can_accept(),
            Rx::UpLink(h) => self.up[h].can_accept(),
            Rx::Net(h) => self.net.can_inject(HmcId(h as u8), p),
            Rx::DownLink(h) => self.down[h].can_accept(),
            // Stack logic layers, NSU inputs, slice memory-side inputs and
            // SM delivery are always-ready (their capacity is governed by
            // upstream credit/backpressure protocols).
            Rx::Stack(_) | Rx::Nsu(_) | Rx::SliceFromMem(_) | Rx::Sm(_) => true,
        }
    }

    fn pop(&mut self, now: Cycle, tx: Tx, lane: usize) -> Packet {
        match tx {
            Tx::SmOut => self.sms[lane].out.pop_front(),
            Tx::SliceToMem => self.slices[lane].to_mem.pop_front(),
            Tx::UpLink => self.up[lane].pop_ready(now),
            Tx::StackToMemnet => self.stacks[lane].to_memnet.pop_front(),
            Tx::StackToNsu => self.stacks[lane].to_nsu.pop_front(),
            Tx::StackToGpu => self.stacks[lane].to_gpu.pop_front(),
            Tx::NetDelivered => self.net.pop_delivered(HmcId(lane as u8)),
            Tx::NsuOut => self.nsus[lane].out.pop_front(),
            Tx::DownLink => self.down[lane].pop_ready(now),
            Tx::SliceToSm => self.slices[lane].pop_to_sm(now),
        }
        .expect("peeked head exists")
    }

    fn accept(&mut self, now: Cycle, rx: Rx, p: Packet) -> Result<(), SimError> {
        match rx {
            Rx::Slice(h) => self.slices[h].from_sm(now, p),
            Rx::UpLink(h) => self.up[h].push(p).expect("checked can_accept"),
            Rx::Stack(h) => self.stacks[h].accept(p),
            Rx::Net(h) => self
                .net
                .inject(HmcId(h as u8), p)
                .expect("checked can_inject"),
            Rx::Nsu(h) => self.nsus[h].deliver(now, p)?,
            Rx::DownLink(h) => self.down[h].push(p).expect("checked can_accept"),
            Rx::SliceFromMem(h) => {
                if matches!(p.kind, PacketKind::CacheInval { .. }) {
                    // §4.1: an in-flight write address drained. An orphan
                    // invalidation (no matching WTA) is an invariant
                    // violation, not a silent saturating decrement.
                    if !self.ctrl.note_inval(HmcId(h as u8)) {
                        self.invariants.record_external(
                            now,
                            &format!("orphan CacheInval at hmc{h} (no in-flight WTA)"),
                        );
                    }
                }
                self.slices[h].from_mem(p)
            }
            Rx::Sm(s) => self.sms[s].deliver(now, p, &mut self.ctrl)?,
        }
        Ok(())
    }

    fn tick_comp(&mut self, now: Cycle, comp: Comp) {
        // Per-component skip: a stage runs whenever *any* member has work,
        // but members that are individually quiescent take the (cheaper)
        // `note_skipped` path instead of a full tick. Same conservative
        // horizon contract as stage-level skipping, at member granularity.
        let skip = self.skip;
        match comp {
            Comp::Sms => {
                for sm in &mut self.sms {
                    if skip && sm.next_work_at(now).is_none_or(|c| c > now) {
                        sm.note_skipped(1);
                    } else {
                        sm.tick(now, &mut self.ctrl);
                    }
                }
            }
            Comp::Slices => {
                for s in &mut self.slices {
                    if skip && Component::next_work_at(s, now).is_none_or(|c| c > now) {
                        Component::note_skipped(s, 1);
                        continue;
                    }
                    Component::tick(s, now);
                    for (block, hit) in s.block_events.drain(..) {
                        self.ctrl.note_l2_event(block, hit);
                    }
                }
            }
            Comp::UpLinks => {
                for l in &mut self.up {
                    if skip && Component::next_work_at(l, now).is_none_or(|c| c > now) {
                        Component::note_skipped(l, 1);
                    } else {
                        Component::tick(l, now);
                    }
                }
            }
            Comp::Stacks => {
                for st in &mut self.stacks {
                    if !skip || Component::next_work_at(st, now) == Some(now) {
                        Component::tick(st, now);
                    } else {
                        Component::note_skipped(st, 1);
                    }
                }
            }
            Comp::Net => Component::tick(&mut self.net, now),
            Comp::Nsus => {
                // `Comp::Nsus` only runs on open NSU-clock cycles, so the
                // member-level probe is in the NSU's own domain: delta 0 =
                // work on this open cycle.
                for n in &mut self.nsus {
                    if !skip || n.next_work_delta() == Some(0) {
                        Component::tick(n, now);
                    } else {
                        // Inherent method: replays the NSU clock and
                        // occupancy accounting (the Component default is a
                        // no-op).
                        n.note_skipped(1);
                    }
                }
            }
            Comp::DownLinks => {
                for l in &mut self.down {
                    if skip && Component::next_work_at(l, now).is_none_or(|c| c > now) {
                        Component::note_skipped(l, 1);
                    } else {
                        Component::tick(l, now);
                    }
                }
            }
        }
    }

    fn side(&mut self, now: Cycle, side: SideChannel) {
        match side {
            SideChannel::Credits => {
                let withhold = self.faults.as_ref().is_some_and(|f| f.cfg.withhold_credits);
                for h in 0..self.nsus.len() {
                    let c = self.nsus[h].take_credits();
                    if withhold {
                        // Fault injection: the returns are consumed but
                        // never credited back — the pools drain and the
                        // machine wedges (watchdog coverage test).
                        let n = (c.cmd + c.read + c.write) as u64;
                        if n > 0 {
                            if let Some(f) = &mut self.faults {
                                f.stats.credits_withheld += n;
                            }
                        }
                        continue;
                    }
                    // Over-release (a double credit return, e.g. from a
                    // duplicated packet) clamps the pool and is reported as
                    // an invariant violation instead of crashing the run.
                    let mut ok = true;
                    for _ in 0..c.cmd {
                        ok &= self.ctrl.mgr.credit_cmd(HmcId(h as u8));
                    }
                    if c.read > 0 {
                        ok &= self.ctrl.mgr.credit_read(HmcId(h as u8), c.read as usize);
                    }
                    if c.write > 0 {
                        ok &= self.ctrl.mgr.credit_write(HmcId(h as u8), c.write as usize);
                    }
                    if !ok {
                        self.invariants.record_external(
                            now,
                            &format!(
                                "credit over-release at hmc{h}: NSU returned more \
                                 credits than the GPU-side pools had outstanding"
                            ),
                        );
                    }
                }
            }
            SideChannel::Ctrl => self.ctrl.on_cycle(now),
            SideChannel::Sample => {
                if self.obs.sample_due(now) {
                    self.sample_occupancy();
                }
            }
        }
    }

    fn observe(&mut self, now: Cycle, site: TraceSite, p: &Packet) {
        self.obs.on_packet(now, site, p);
        self.invariants.on_packet(now, site, p);
    }

    fn fault(&self, _now: Cycle, tx: Tx, p: &Packet) -> FaultAction {
        match &self.faults {
            Some(f) => f.decide(tx.index() as u64, p),
            None => FaultAction::None,
        }
    }

    fn note_fault(&mut self, _now: Cycle, fault: InjectedFault) {
        if let Some(f) = &mut self.faults {
            f.note(fault);
        }
    }

    fn moved(&mut self, now: Cycle, tx: Tx) {
        if let Some(w) = &mut self.watchdog {
            w.note_move(now, tx.index());
        }
    }

    fn stage_done(&mut self, _now: Cycle, idx: usize, outcome: StageOutcome) {
        if matches!(outcome, StageOutcome::Skipped) {
            self.note_stage_skipped(idx, 1);
        }
        self.perf.stage(idx, outcome);
    }

    fn skip_enabled(&self) -> bool {
        self.skip
    }

    /// Quiescence horizon of one pipeline stage: earliest cycle ≥ `now` at
    /// which the stage could do real work, `None` if no future work is
    /// reachable without new input. Conservative: may report earlier than
    /// the true next event (spurious run = exact idle tick), never later.
    ///
    /// NSU-clock stages align their horizon up to the next open divided
    /// cycle, and report `None` outright when NDP is off (gate never
    /// opens) — this makes the same function valid both mid-tick (where
    /// the gate is already known open) and from [`System::jump_target`]
    /// at arbitrary cycles.
    fn stage_horizon(&self, now: Cycle, idx: usize) -> Option<Cycle> {
        fn min_over(it: impl Iterator<Item = Option<Cycle>>) -> Option<Cycle> {
            it.flatten().min()
        }
        let nsu_open = |d: u64| {
            if self.ndp_on {
                Some(now.next_multiple_of(self.nsu_div) + d * self.nsu_div)
            } else {
                None
            }
        };
        match &PIPELINE[idx].op {
            Op::Tick(c) => match c {
                Comp::Sms => min_over(self.sms.iter().map(|s| s.next_work_at(now))),
                Comp::Slices => {
                    min_over(self.slices.iter().map(|s| Component::next_work_at(s, now)))
                }
                Comp::UpLinks => min_over(self.up.iter().map(|l| Component::next_work_at(l, now))),
                Comp::Stacks => {
                    min_over(self.stacks.iter().map(|s| Component::next_work_at(s, now)))
                }
                Comp::Net => Component::next_work_at(&self.net, now),
                Comp::Nsus => min_over(
                    self.nsus
                        .iter()
                        .map(|n| n.next_work_delta().and_then(&nsu_open)),
                ),
                Comp::DownLinks => {
                    min_over(self.down.iter().map(|l| Component::next_work_at(l, now)))
                }
            },
            // Edge horizons are occupancy-driven: a queued head means work
            // now; latency-stamped lanes (links, the slice→SM return path)
            // expose their earliest ready cycle instead.
            Op::Route(e) => match e.tx {
                Tx::SmOut => self.sms.iter().any(|s| !s.out.is_empty()).then_some(now),
                Tx::SliceToMem => self
                    .slices
                    .iter()
                    .any(|s| !s.to_mem.is_empty())
                    .then_some(now),
                Tx::UpLink => min_over(self.up.iter().map(|l| l.next_delivery_at())),
                Tx::StackToMemnet => self
                    .stacks
                    .iter()
                    .any(|s| !s.to_memnet.is_empty())
                    .then_some(now),
                Tx::StackToNsu => self
                    .stacks
                    .iter()
                    .any(|s| !s.to_nsu.is_empty())
                    .then_some(now),
                Tx::StackToGpu => self
                    .stacks
                    .iter()
                    .any(|s| !s.to_gpu.is_empty())
                    .then_some(now),
                Tx::NetDelivered => self.net.has_delivered().then_some(now),
                Tx::NsuOut => {
                    if self.nsus.iter().any(|n| !n.out.is_empty()) {
                        nsu_open(0)
                    } else {
                        None
                    }
                }
                Tx::DownLink => min_over(self.down.iter().map(|l| l.next_delivery_at())),
                Tx::SliceToSm => min_over(self.slices.iter().map(|s| s.to_sm.next_ready())),
            },
            Op::Side(s) => match s {
                SideChannel::Credits => {
                    if self.nsus.iter().any(|n| n.has_pending_credits()) {
                        nsu_open(0)
                    } else {
                        None
                    }
                }
                SideChannel::Ctrl => self.ctrl.next_epoch_at(),
                SideChannel::Sample => self.obs.next_sample_at(now),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_workloads::{Scale, Workload};

    fn small(cfg: SystemConfig, w: Workload) -> RunResult {
        let mut c = cfg;
        c.gpu.num_sms = 8;
        if matches!(c.offload, OffloadPolicy::Never) {
            // keep NSUs idle
        }
        let p = w.build(&Scale {
            warps: 64,
            iters: 4,
        });
        System::new(c, &p)
            .run(2_000_000)
            .expect("no protocol violation")
    }

    #[test]
    fn baseline_vadd_completes() {
        let r = small(SystemConfig::baseline(), Workload::Vadd);
        assert!(!r.timed_out, "baseline VADD did not drain");
        assert!(r.cycles > 0);
        assert!(r.issue.issued > 0);
        assert!(r.gpu_link_bytes > 0, "streams must touch DRAM");
        assert_eq!(r.nsu_instrs, 0, "no NDP in baseline");
        assert_eq!(r.offloaded, 0);
    }

    #[test]
    fn naive_ndp_vadd_completes_and_uses_nsus() {
        let r = small(SystemConfig::naive_ndp(), Workload::Vadd);
        assert!(!r.timed_out, "NDP VADD did not drain");
        assert!(r.nsu_instrs > 0, "blocks must run on NSUs");
        assert!(r.offloaded > 0);
        assert!(r.memnet_bytes > 0, "cross-stack RDF responses expected");
        assert!(r.nsu_occupancy > 0.0);
    }

    #[test]
    fn ndp_reduces_gpu_link_traffic_for_streaming() {
        let base = small(SystemConfig::baseline(), Workload::Vadd);
        let ndp = small(SystemConfig::naive_ndp(), Workload::Vadd);
        assert!(
            ndp.gpu_link_bytes < base.gpu_link_bytes / 2,
            "NDP should slash GPU link bytes: {} vs {}",
            ndp.gpu_link_bytes,
            base.gpu_link_bytes
        );
    }

    #[test]
    fn indirect_workload_completes_under_ndp() {
        let r = small(SystemConfig::naive_ndp(), Workload::Bfs);
        assert!(!r.timed_out, "BFS did not drain");
        assert!(r.offloaded > 0);
    }

    #[test]
    fn barrier_workload_completes() {
        let r = small(SystemConfig::baseline(), Workload::Bprop);
        assert!(!r.timed_out, "BPROP did not drain");
    }

    #[test]
    fn wta_counters_drain_by_completion() {
        // §4.1: when the system is drained, no write addresses are in
        // flight anywhere — a page swap into any stack would be safe.
        let mut cfg = SystemConfig::naive_ndp();
        cfg.gpu.num_sms = 8;
        let p = Workload::Vadd.build(&ndp_workloads::Scale {
            warps: 64,
            iters: 4,
        });
        let mut sys = System::new(cfg, &p);
        let mut saw_unsafe = false;
        for _ in 0..2_000_000u64 {
            sys.tick();
            if sys.ctrl.wta_inflight.iter().any(|c| *c > 0) {
                saw_unsafe = true;
            }
            if sys.is_done() {
                break;
            }
        }
        assert!(sys.is_done(), "run did not drain");
        assert!(saw_unsafe, "offloaded stores must register in-flight WTAs");
        for h in 0..8u8 {
            assert!(
                sys.ctrl.page_remap_safe(ndp_common::ids::HmcId(h)),
                "stack {h} still has in-flight WTAs after drain"
            );
        }
    }

    #[test]
    fn invalidation_traffic_present_only_with_ndp() {
        let base = small(SystemConfig::baseline(), Workload::Vadd);
        assert_eq!(base.inval_bytes, 0);
        let ndp = small(SystemConfig::naive_ndp(), Workload::Vadd);
        assert!(ndp.inval_bytes > 0, "NSU writes must invalidate GPU cache");
        // §4.2 quantifies the overhead against the workload's baseline
        // off-chip traffic: it must be a small fraction.
        let frac = ndp.inval_bytes as f64 / base.gpu_link_bytes as f64;
        assert!(frac < 0.05, "inval overhead vs baseline traffic: {frac}");
    }
}
