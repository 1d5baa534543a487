//! Oracle property test for the incremental SM scheduler (DESIGN.md §15).
//!
//! The ready set, wake-wheel, retry/promote membership sets, and the cached
//! counters behind `Sm::next_work_at` are all *derived* state, updated at
//! warp state-transition sites. A stale membership bit cannot fail a unit
//! test directly — it only surfaces later as a timing divergence the
//! equivalence suite can't localize. So this suite drives a real `Sm`
//! through randomized offload/reservation/fill/ACK schedules and, **every
//! cycle**, diffs the incremental structures against a brute-force
//! full-slot rescan (`check_sched_consistency`) and the O(1) horizon
//! against the retired full-scan implementation (`next_work_at_oracle`).
//!
//! Small MSHR tables, small output queues and a drain of a random number
//! of packets per cycle put warps under structural backpressure, so the
//! blocked-verdict memos — among them every parked warp's MSHR verdict —
//! are recomputed from scratch every cycle too (`check_blocked_memos`).
//! A twin SM driven through the same schedule is ticked only on cycles
//! its horizon says are due, as the event-driven system ticks SMs; its
//! lazily booked issue statistics must equal the every-cycle SM's.

use proptest::prelude::*;
use standardized_ndp::common::ids::{Node, OffloadId};
use standardized_ndp::common::packet::{Packet, PacketKind};
use standardized_ndp::common::SystemConfig;
use standardized_ndp::compiler::{compile, CompilerConfig};
use standardized_ndp::gpu::{NdpEnv, Sm, SmConfig};
use standardized_ndp::workloads::{Scale, Workload, WORKLOADS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic xorshift coin-flipper standing in for the offload
/// controller: random offload decisions and random credit denials exercise
/// every retry/promote transition site.
struct RandEnv {
    x: u64,
    offload_pct: u64,
    reserve_pct: u64,
}

impl RandEnv {
    fn new(seed: u64, offload_pct: u64, reserve_pct: u64) -> Self {
        RandEnv {
            x: seed | 1,
            offload_pct,
            reserve_pct,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn flip(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

impl NdpEnv for RandEnv {
    fn decide_offload(&mut self, _sm: u16, _block: u16) -> bool {
        let p = self.offload_pct;
        self.flip(p)
    }
    fn try_reserve(
        &mut self,
        _hmc: standardized_ndp::common::ids::HmcId,
        _l: usize,
        _s: usize,
    ) -> bool {
        let p = self.reserve_pct;
        self.flip(p)
    }
    fn note_block_lines(&mut self, _b: u16, _l: u32, _h: u32) {}
    fn note_block_done(&mut self, _b: u16, _i: u32) {}
    fn note_wta_line(&mut self, _h: standardized_ndp::common::ids::HmcId) {}
}

/// Stand-in for the memory system and the NSUs: answers read requests
/// and (unless dropped) offload commands after randomized delays; writes,
/// RDF and WTA packets are sunk.
struct Responder {
    fill_delay: u64,
    ack_delay: u64,
    drop_ack_pct: u64,
    /// `(due cycle, packet)` responses not yet delivered.
    inbox: Vec<(u64, Packet)>,
}

impl Responder {
    fn new(fill_delay: u64, ack_delay: u64, drop_ack_pct: u64) -> Self {
        Responder {
            fill_delay,
            ack_delay,
            drop_ack_pct,
            inbox: Vec::new(),
        }
    }

    /// Take up to `drain` packets out of `sm.out`, then deliver every
    /// response due at `now`.
    fn cycle(&mut self, sm: &mut Sm, env: &mut RandEnv, now: u64, drain: u64) {
        for _ in 0..drain {
            let Some(p) = sm.out.pop_front() else { break };
            match p.kind {
                PacketKind::ReadReq { addr, tag, .. } => {
                    let d = 1 + env.next() % self.fill_delay.max(1);
                    self.inbox.push((
                        now + d,
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
                    ));
                }
                PacketKind::OffloadCmd { token, .. } if !env.flip(self.drop_ack_pct) => {
                    let d = 1 + env.next() % self.ack_delay.max(1);
                    self.inbox.push((
                        now + d,
                        Packet::new(
                            Node::Nsu(0),
                            Node::Sm(0),
                            now,
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
                    ));
                }
                _ => {}
            }
        }
        let mut due = Vec::new();
        self.inbox.retain(|(at, p)| {
            if *at <= now {
                due.push(p.clone());
                false
            } else {
                true
            }
        });
        for p in due {
            sm.deliver(now, p, env).expect("deliver");
        }
    }
}

/// Blocked-verdict memo answers, and parked retries the twin booked
/// without a tick, summed over every case of the property below.
static MEMO_ANSWERS: AtomicU64 = AtomicU64::new(0);
static REPLAYED: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random warp-state trajectories: the incremental scheduler state must
    /// match a full-slot rescan after every single cycle, the O(1)
    /// horizon must equal the brute-force one at every query point, every
    /// memo that would answer must agree with a from-scratch verdict, and
    /// an SM ticked only when due must book the same issue statistics as
    /// one ticked every cycle.
    fn sched_matches_rescan_under_backpressure(
        seed in any::<u64>(),
        wl_idx in 0usize..64,
        warps in 1u32..6,
        iters in 1u32..3,
        offload_pct in 0u64..=100,
        reserve_pct in 20u64..=100,
        fill_delay in 1u64..40,
        ack_delay in 1u64..80,
        drop_ack_pct in 0u64..30,
        mshrs in 1usize..6,
        out_capacity in 4usize..40,
        max_drain in 1u64..4,
    ) {
        let wl = WORKLOADS[wl_idx % WORKLOADS.len()];
        let program = wl.build(&Scale { warps, iters });
        let mut sys = SystemConfig::default();
        sys.gpu.l1d_mshrs = mshrs;
        let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
        let mut cfg = SmConfig::from_system(0, &sys);
        cfg.out_capacity = out_capacity;
        let mut sm = Sm::new(cfg, &sys, kernel.clone());
        let mut twin = Sm::new(cfg, &sys, kernel);
        let mut env = RandEnv::new(seed, offload_pct, reserve_pct);
        let mut twin_env = RandEnv::new(seed, offload_pct, reserve_pct);
        for w in 0..warps {
            sm.assign_warp(w, u32::MAX, w / 2);
            twin.assign_warp(w, u32::MAX, w / 2);
        }

        let mut responder = Responder::new(fill_delay, ack_delay, drop_ack_pct);
        let mut twin_responder = Responder::new(fill_delay, ack_delay, drop_ack_pct);
        for now in 0..2_000u64 {
            for s in [&sm, &twin] {
                s.check_sched_consistency().unwrap_or_else(|e| panic!("{e}"));
                s.check_blocked_memos(now).unwrap_or_else(|e| panic!("{e}"));
                prop_assert_eq!(
                    s.next_work_at(now),
                    s.next_work_at_oracle(now),
                    "horizon diverged from full-scan oracle at cycle {}",
                    now
                );
            }
            sm.tick(now, &mut env);
            if twin.next_work_at(now).is_some_and(|c| c <= now) {
                twin.tick(now, &mut twin_env);
            }
            let drain = env.next() % (max_drain + 1);
            responder.cycle(&mut sm, &mut env, now, drain);
            let drain = twin_env.next() % (max_drain + 1);
            twin_responder.cycle(&mut twin, &mut twin_env, now, drain);
            prop_assert_eq!(
                sm.stats,
                twin.issue_stats_until(now + 1),
                "the SM ticked only when due booked different stats by cycle {}",
                now
            );
            if sm.is_done() && responder.inbox.is_empty() {
                break;
            }
        }
        sm.check_sched_consistency().unwrap_or_else(|e| panic!("{e}"));
        MEMO_ANSWERS.fetch_add(sm.structural_retries().1, Ordering::SeqCst);
        REPLAYED.fetch_add(twin.structural_retries().2, Ordering::SeqCst);
    }
}

/// The property above, plus guards that its backpressure axes still reach
/// the memo and the parked sets: if no case ever had a retry answered from
/// a memo, the per-cycle `check_blocked_memos` calls would be checking
/// nothing, and if the twin never booked a parked retry, the stats
/// comparison would not cover parking.
#[test]
fn incremental_sched_matches_full_rescan() {
    MEMO_ANSWERS.store(0, Ordering::SeqCst);
    REPLAYED.store(0, Ordering::SeqCst);
    sched_matches_rescan_under_backpressure();
    assert!(
        MEMO_ANSWERS.load(Ordering::SeqCst) > 0,
        "no blocked-verdict memo answered in any case"
    );
    assert!(
        REPLAYED.load(Ordering::SeqCst) > 0,
        "no parked retry was booked without a tick in any case"
    );
}

/// Mutation test: disable one wake-wheel update site (via the test-only
/// sabotage knob) and demand the consistency checker catch the stale
/// membership *by name* — proving the oracle actually guards every site.
#[test]
fn dropped_wake_wheel_update_is_caught_by_name() {
    let program = Workload::Vadd.build(&Scale { warps: 2, iters: 2 });
    let sys = SystemConfig::default();
    let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
    let mut sm = Sm::new(SmConfig::from_system(0, &sys), &sys, kernel);
    sm.sabotage_drop_wheel = true;
    let mut env = RandEnv::new(7, 0, 100);
    sm.assign_warp(0, u32::MAX, 0);
    sm.assign_warp(1, u32::MAX, 0);
    for now in 0..200 {
        sm.tick(now, &mut env);
        if let Err(msg) = sm.check_sched_consistency() {
            assert!(
                msg.contains("wake_wheel"),
                "checker must name the stale structure, got: {msg}"
            );
            return;
        }
    }
    panic!("dropped wake-wheel update site was never caught");
}

/// Mutation test: L1 fills that leave the fill count unchanged make MSHR
/// verdicts outlive the shortfall they were computed from, and keep their
/// warps parked. The memo oracle must report it, naming the fill count.
#[test]
fn skipped_fill_count_is_caught_by_name() {
    let program = Workload::Vadd.build(&Scale { warps: 4, iters: 2 });
    let mut sys = SystemConfig::default();
    sys.gpu.l1d_mshrs = 1;
    let kernel = Arc::new(compile(&program, &CompilerConfig::default()));
    let mut sm = Sm::new(SmConfig::from_system(0, &sys), &sys, kernel);
    sm.sabotage_skip_fill_count = true;
    let mut env = RandEnv::new(7, 0, 100);
    for w in 0..4 {
        sm.assign_warp(w, u32::MAX, w / 2);
    }
    let mut responder = Responder::new(8, 1, 0);
    for now in 0..400 {
        if let Err(msg) = sm.check_blocked_memos(now) {
            assert!(
                msg.contains("fill count"),
                "checker must name the stale fill count, got: {msg}"
            );
            return;
        }
        sm.tick(now, &mut env);
        responder.cycle(&mut sm, &mut env, now, u64::MAX);
    }
    panic!("a fill that skipped the fill count was never caught");
}
