//! Simulation fabric: typed ports and a declarative routing pipeline.
//!
//! Every structural queue in the simulator is one of two port types:
//!
//! * [`OutPort`] — a bounded egress FIFO. The owning component pushes
//!   packets in; the fabric pops them toward a receiver. Capacity is the
//!   backpressure bound: senders must check [`OutPort::can_accept`].
//! * [`InPort`] — a latency-stamped ingress FIFO. Each packet carries the
//!   cycle at which it becomes visible; the head is popped only once ready
//!   (head-of-line ordering is preserved even if a later entry stamps an
//!   earlier ready cycle).
//!
//! Inter-component traffic is executed by a [`Fabric`]: a declarative list
//! of [`Stage`]s, each either ticking a component ([`Op::Tick`]), moving
//! packets across one edge of the routing table ([`Op::Route`]), or running
//! a non-packet side channel ([`Op::Side`]). All edges share one movement
//! loop, [`run_edge`], which applies uniform head-of-line backpressure and
//! is the single site where packets are observed ([`FabricCtx::observe`]).
//! Components plug in by exposing their ports through a [`FabricCtx`]
//! implementation and appearing in the pipeline's stage list.

use std::collections::VecDeque;
use std::ops::Index;

use crate::error::SimError;
use crate::fault::{FaultAction, InjectedFault};
use crate::ids::Cycle;
use crate::obs::perf::StageOutcome;
use crate::obs::TraceSite;
use crate::packet::Packet;

/// Buffer-entry releases to piggyback back to the GPU's buffer manager
/// (§4.3). Drained each NSU cycle by a fabric side-channel stage; carries
/// no wire traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct CreditEvents {
    pub cmd: u32,
    pub read: u32,
    pub write: u32,
}

crate::snap_value!(CreditEvents { cmd, read, write });

/// A bounded egress FIFO: the component pushes, the fabric pops.
///
/// Capacity is the uniform backpressure bound. Pushing past capacity is a
/// protocol violation (senders must gate on [`OutPort::can_accept`]) and
/// trips a debug assertion.
#[derive(Debug, Clone)]
pub struct OutPort {
    q: VecDeque<Packet>,
    capacity: usize,
}

impl OutPort {
    pub fn new(capacity: usize) -> Self {
        OutPort {
            q: VecDeque::new(),
            capacity,
        }
    }

    /// A port with no backpressure bound (drained unconditionally every
    /// cycle by the fabric, so depth stays transient).
    pub fn unbounded() -> Self {
        OutPort::new(usize::MAX)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Room for one more packet?
    pub fn can_accept(&self) -> bool {
        self.q.len() < self.capacity
    }

    pub fn push_back(&mut self, p: Packet) {
        debug_assert!(
            self.q.len() < self.capacity,
            "OutPort overflow: capacity {} exceeded",
            self.capacity
        );
        self.q.push_back(p);
    }

    pub fn pop_front(&mut self) -> Option<Packet> {
        self.q.pop_front()
    }

    pub fn front(&self) -> Option<&Packet> {
        self.q.front()
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.q.iter()
    }

    pub fn clear(&mut self) {
        self.q.clear()
    }

    pub fn retain(&mut self, f: impl FnMut(&Packet) -> bool) {
        self.q.retain(f)
    }
}

crate::snap_state!(OutPort { q; derived: capacity });

impl Index<usize> for OutPort {
    type Output = Packet;
    fn index(&self, i: usize) -> &Packet {
        &self.q[i]
    }
}

/// A latency-stamped ingress FIFO: each entry becomes visible at its ready
/// cycle, and the head gates everything behind it (head-of-line order).
#[derive(Debug, Clone)]
pub struct InPort {
    q: VecDeque<(Cycle, Packet)>,
    latency: Cycle,
    capacity: usize,
}

impl InPort {
    pub fn new(latency: Cycle, capacity: usize) -> Self {
        InPort {
            q: VecDeque::new(),
            latency,
            capacity,
        }
    }

    pub fn unbounded(latency: Cycle) -> Self {
        InPort::new(latency, usize::MAX)
    }

    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Room for one more packet?
    pub fn can_accept(&self) -> bool {
        self.q.len() < self.capacity
    }

    /// Enqueue with the port's configured latency.
    pub fn push(&mut self, now: Cycle, p: Packet) {
        self.push_at(now + self.latency, p);
    }

    /// Enqueue with an explicit ready cycle (ports whose delay varies per
    /// packet, e.g. an L2 hit vs. an on-die forward).
    pub fn push_at(&mut self, ready: Cycle, p: Packet) {
        debug_assert!(
            self.q.len() < self.capacity,
            "InPort overflow: capacity {} exceeded",
            self.capacity
        );
        self.q.push_back((ready, p));
    }

    /// Requeue at the head (retry-next-cycle, e.g. an MSHR-full probe).
    pub fn push_front_at(&mut self, ready: Cycle, p: Packet) {
        self.q.push_front((ready, p));
    }

    /// The head packet, if its ready cycle has arrived.
    pub fn peek_ready(&self, now: Cycle) -> Option<&Packet> {
        match self.q.front() {
            Some(&(ready, ref p)) if ready <= now => Some(p),
            _ => None,
        }
    }

    /// Take the head packet, if its ready cycle has arrived.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<Packet> {
        match self.q.front() {
            Some(&(ready, _)) if ready <= now => self.q.pop_front().map(|(_, p)| p),
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &(Cycle, Packet)> {
        self.q.iter()
    }

    /// Ready cycle of the head entry, or `None` when empty. Because the
    /// head gates everything behind it, this is exactly the earliest cycle
    /// at which `pop_ready` can succeed — the port's quiescence horizon.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.q.front().map(|&(ready, _)| ready)
    }
}

crate::snap_state!(InPort { q; derived: latency, capacity });

/// The machine a [`Fabric`] executes over: port lookup, the routing table,
/// acceptance (backpressure), component ticking, side channels, and the one
/// packet-observation hook.
///
/// `Tx` names a *kind* of transmit port replicated across `lanes(tx)`
/// parallel instances; `Rx` names one concrete receiver. `Comp` names a
/// component group to tick, `Gate` a clock-enable predicate, and `Side` a
/// non-packet side channel (credit returns, controller epochs, sampling).
pub trait FabricCtx {
    type Tx: Copy;
    type Rx: Copy;
    type Comp: Copy;
    type Gate: Copy;
    type Side: Copy;

    /// Number of parallel lanes of a transmit port kind.
    fn lanes(&self, tx: Self::Tx) -> usize;
    /// Is a gated stage active this cycle?
    fn gate_open(&self, gate: Self::Gate, now: Cycle) -> bool;
    /// Head-of-line packet of one transmit lane, if ready this cycle.
    fn peek(&self, now: Cycle, tx: Self::Tx, lane: usize) -> Option<&Packet>;
    /// Routing table: the receiver of a packet at a transmit-lane head.
    /// Must return a structured error on unroutable packets — never
    /// misroute silently.
    fn route(
        &self,
        now: Cycle,
        tx: Self::Tx,
        lane: usize,
        p: &Packet,
    ) -> Result<Self::Rx, SimError>;
    /// May the receiver take this packet now? (Uniform backpressure.)
    fn can_accept(&self, rx: Self::Rx, p: &Packet) -> bool;
    /// Remove the head packet of a transmit lane (only after a successful
    /// `peek` + `can_accept` in the same cycle).
    fn pop(&mut self, now: Cycle, tx: Self::Tx, lane: usize) -> Packet;
    /// Hand a packet to its receiver. Errors are protocol violations
    /// detected at delivery (overflow past a credit bound, an ACK for an
    /// unknown warp, an unconsumable packet kind).
    fn accept(&mut self, now: Cycle, rx: Self::Rx, p: Packet) -> Result<(), SimError>;
    /// Advance one component group by one cycle.
    fn tick_comp(&mut self, now: Cycle, comp: Self::Comp);
    /// Run one non-packet side channel.
    fn side(&mut self, now: Cycle, side: Self::Side);
    /// Observation hook: called exactly once per packet movement on edges
    /// with a [`TraceSite`], from [`run_edge`] only.
    fn observe(&mut self, now: Cycle, site: TraceSite, p: &Packet);

    /// Fault-injection hook: the injector's decision for the packet at the
    /// head of a lane. The default never faults; a machine carrying a
    /// [`FaultInjector`](crate::fault::FaultInjector) forwards to it.
    fn fault(&self, _now: Cycle, _tx: Self::Tx, _p: &Packet) -> FaultAction {
        FaultAction::None
    }
    /// An injected fault actually occurred (accounting).
    fn note_fault(&mut self, _now: Cycle, _fault: InjectedFault) {}
    /// A packet crossed this edge (forward-progress hook for watchdogs).
    fn moved(&mut self, _now: Cycle, _tx: Self::Tx) {}
    /// Per-stage attribution hook: called exactly once per pipeline stage
    /// per [`Fabric::tick`], with the stage's index and what it did (ran,
    /// was clock-gated, was skipped as quiescent, or routed N packets).
    /// The perf self-profiling layer hangs off this; the default is a
    /// no-op.
    fn stage_done(&mut self, _now: Cycle, _idx: usize, _outcome: StageOutcome) {}

    /// Is quiescence-aware stage skipping on? When `false` (the default)
    /// [`Fabric::tick`] runs every gate-open stage unconditionally and
    /// never consults [`FabricCtx::stage_horizon`].
    fn skip_enabled(&self) -> bool {
        false
    }

    /// Quiescence horizon of pipeline stage `idx`: the earliest cycle at
    /// or after `now` at which running the stage could do observable work.
    /// `None` means the stage is drained (no queued, in-flight, or
    /// scheduled work); `Some(c)` with `c > now` means it is provably idle
    /// until `c`.
    ///
    /// The contract is *conservative*: a horizon may be earlier than the
    /// true next-work cycle (a spurious wake costs one exact, idle run)
    /// but must never be later — the event-driven core skips stages on its
    /// strength. A component whose idle tick advances internal clocks or
    /// accumulates statistics must replay that bookkeeping for the skipped
    /// cycles, so a skipped run is bit-identical to a ticked one. The
    /// default `Some(now)` makes every stage "busy now", i.e. never
    /// skipped.
    fn stage_horizon(&self, now: Cycle, _idx: usize) -> Option<Cycle> {
        Some(now)
    }
}

/// One edge of the routing table: a transmit port kind, plus the trace
/// site at which its traffic is observed (if any).
pub struct Edge<C: FabricCtx> {
    pub tx: C::Tx,
    pub site: Option<TraceSite>,
}

/// What one pipeline stage does.
pub enum Op<C: FabricCtx> {
    /// Advance a component group.
    Tick(C::Comp),
    /// Move packets across one routing-table edge.
    Route(Edge<C>),
    /// Run a non-packet side channel.
    Side(C::Side),
}

/// One stage of the fabric pipeline, with its clock gate.
pub struct Stage<C: FabricCtx> {
    pub gate: C::Gate,
    pub op: Op<C>,
}

/// What `run_edge` resolved to do with one lane-head packet.
enum Step<R> {
    /// Lane empty, or head not ready, or receiver backpressure, or an
    /// injected delay holding the head: stop draining this lane.
    Stall,
    /// Injected delay is holding the head (counts as a fault occurrence).
    Hold,
    /// Injected drop: the packet vanishes in transit.
    Drop,
    /// Normal delivery; `dup` requests a second injected copy.
    Deliver { rx: R, dup: bool },
}

/// Move packets across one edge: for every lane, drain the head packet
/// into its routed receiver until the lane empties or the receiver exerts
/// backpressure. This is the *only* packet-movement loop in the simulator,
/// the single site at which [`FabricCtx::observe`] fires, and the single
/// site at which faults are injected ([`FabricCtx::fault`]): a dropped
/// packet is popped but never delivered or observed (it vanishes on the
/// wire, so downstream conservation counters see the loss); a delayed
/// packet holds its queue head; a duplicated packet is delivered and
/// observed twice.
///
/// Returns the number of packets delivered (accepted duplicates included;
/// dropped packets excluded) — the fabric's per-stage work count.
pub fn run_edge<C: FabricCtx>(ctx: &mut C, now: Cycle, edge: &Edge<C>) -> Result<u64, SimError> {
    let mut delivered = 0u64;
    for lane in 0..ctx.lanes(edge.tx) {
        loop {
            let step = match ctx.peek(now, edge.tx, lane) {
                None => Step::Stall,
                Some(p) => match ctx.fault(now, edge.tx, p) {
                    FaultAction::Delay { until } if now < until => Step::Hold,
                    FaultAction::Drop => Step::Drop,
                    action => {
                        let rx = ctx.route(now, edge.tx, lane, p)?;
                        if ctx.can_accept(rx, p) {
                            Step::Deliver {
                                rx,
                                dup: action == FaultAction::Duplicate,
                            }
                        } else {
                            Step::Stall // head-of-line backpressure
                        }
                    }
                },
            };
            match step {
                Step::Stall => break,
                Step::Hold => {
                    ctx.note_fault(now, InjectedFault::Held);
                    break; // held head gates the lane, like backpressure
                }
                Step::Drop => {
                    let _lost = ctx.pop(now, edge.tx, lane);
                    ctx.note_fault(now, InjectedFault::Dropped);
                    // Deliberately neither observed nor counted as progress.
                }
                Step::Deliver { rx, dup } => {
                    let p = ctx.pop(now, edge.tx, lane);
                    ctx.moved(now, edge.tx);
                    if let Some(site) = edge.site {
                        ctx.observe(now, site, &p);
                    }
                    let copy = dup.then(|| p.clone());
                    ctx.accept(now, rx, p)?;
                    delivered += 1;
                    if let Some(copy) = copy {
                        // The duplicate needs its own slot; skip it if the
                        // receiver filled up on the original.
                        if ctx.can_accept(rx, &copy) {
                            ctx.note_fault(now, InjectedFault::Duplicated);
                            if let Some(site) = edge.site {
                                ctx.observe(now, site, &copy);
                            }
                            ctx.accept(now, rx, copy)?;
                            delivered += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(delivered)
}

/// A declarative pipeline over a [`FabricCtx`]: executes its stages in
/// order, once per call, skipping stages whose gate is closed.
pub struct Fabric<'a, C: FabricCtx> {
    pub stages: &'a [Stage<C>],
}

impl<C: FabricCtx> Fabric<'_, C> {
    pub fn tick(&self, ctx: &mut C, now: Cycle) -> Result<(), SimError> {
        let skip = ctx.skip_enabled();
        for (idx, stage) in self.stages.iter().enumerate() {
            if !ctx.gate_open(stage.gate, now) {
                ctx.stage_done(now, idx, StageOutcome::Gated);
                continue;
            }
            // Quiescence skip: a stage provably without work this cycle is
            // elided. `stage_done(Skipped)` still fires so (a) the perf
            // identity `invocations + gated + skipped == cycles` holds and
            // (b) the ctx can replay any unconditional per-tick bookkeeping
            // (see `FabricCtx::stage_horizon`).
            if skip && !matches!(ctx.stage_horizon(now, idx), Some(c) if c <= now) {
                ctx.stage_done(now, idx, StageOutcome::Skipped);
                continue;
            }
            match &stage.op {
                Op::Tick(c) => {
                    ctx.tick_comp(now, *c);
                    ctx.stage_done(now, idx, StageOutcome::Ticked);
                }
                Op::Route(e) => {
                    let moved = run_edge(ctx, now, e)?;
                    ctx.stage_done(now, idx, StageOutcome::Routed(moved));
                }
                Op::Side(s) => {
                    ctx.side(now, *s);
                    ctx.stage_done(now, idx, StageOutcome::Ticked);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Node;
    use crate::packet::PacketKind;

    fn pkt(tag: u64) -> Packet {
        Packet::new(
            Node::Sm(0),
            Node::L2(0),
            0,
            PacketKind::ReadReq {
                addr: 0x1000,
                bytes: 128,
                tag,
                block: crate::packet::NO_BLOCK,
            },
        )
    }

    fn tag_of(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::ReadReq { tag, .. } => tag,
            _ => unreachable!(),
        }
    }

    #[test]
    fn outport_is_fifo_with_capacity() {
        let mut p = OutPort::new(2);
        assert!(p.can_accept());
        p.push_back(pkt(1));
        p.push_back(pkt(2));
        assert!(!p.can_accept());
        assert_eq!(p.len(), 2);
        assert_eq!(tag_of(&p[0]), 1);
        assert_eq!(tag_of(p.front().unwrap()), 1);
        assert_eq!(tag_of(&p.pop_front().unwrap()), 1);
        assert_eq!(tag_of(&p.pop_front().unwrap()), 2);
        assert!(p.is_empty());
    }

    #[test]
    fn inport_gates_on_ready_cycle() {
        let mut p = InPort::new(5, usize::MAX);
        p.push(10, pkt(1)); // ready at 15
        assert!(p.peek_ready(14).is_none());
        assert!(p.pop_ready(14).is_none());
        assert_eq!(tag_of(p.peek_ready(15).unwrap()), 1);
        assert_eq!(tag_of(&p.pop_ready(15).unwrap()), 1);
    }

    #[test]
    fn inport_head_of_line_blocks_ready_followers() {
        let mut p = InPort::new(0, usize::MAX);
        p.push_at(20, pkt(1));
        p.push_at(5, pkt(2)); // ready earlier, but behind the head
        assert!(p.pop_ready(10).is_none(), "head not ready gates the queue");
        assert_eq!(tag_of(&p.pop_ready(20).unwrap()), 1);
        assert_eq!(tag_of(&p.pop_ready(20).unwrap()), 2);
    }

    #[test]
    fn inport_push_front_retries_first() {
        let mut p = InPort::new(0, usize::MAX);
        p.push_at(0, pkt(1));
        p.push_at(0, pkt(2));
        let head = p.pop_ready(0).unwrap();
        p.push_front_at(0, head);
        assert_eq!(tag_of(&p.pop_ready(0).unwrap()), 1, "requeued head first");
    }

    /// A two-lane, one-receiver toy machine for exercising `run_edge`,
    /// with an optional scripted fault schedule keyed by packet tag.
    struct Toy {
        tx: Vec<OutPort>,
        rx: OutPort,
        observed: usize,
        faults: std::collections::HashMap<u64, FaultAction>,
        dropped: usize,
        duplicated: usize,
        held: usize,
        moves: usize,
        fail_route: bool,
        gate_closed: bool,
        skip: bool,
        horizon: Option<Cycle>,
        outcomes: Vec<(usize, StageOutcome)>,
    }

    impl Toy {
        fn new(lanes: usize, rx_capacity: usize) -> Self {
            Toy {
                tx: (0..lanes).map(|_| OutPort::unbounded()).collect(),
                rx: OutPort::new(rx_capacity),
                observed: 0,
                faults: Default::default(),
                dropped: 0,
                duplicated: 0,
                held: 0,
                moves: 0,
                fail_route: false,
                gate_closed: false,
                skip: false,
                horizon: Some(0),
                outcomes: Vec::new(),
            }
        }
    }

    impl FabricCtx for Toy {
        type Tx = ();
        type Rx = ();
        type Comp = ();
        type Gate = ();
        type Side = ();

        fn lanes(&self, _: ()) -> usize {
            self.tx.len()
        }
        fn gate_open(&self, _: (), _: Cycle) -> bool {
            !self.gate_closed
        }
        fn peek(&self, _: Cycle, _: (), lane: usize) -> Option<&Packet> {
            self.tx[lane].front()
        }
        fn route(&self, now: Cycle, _: (), _: usize, p: &Packet) -> Result<(), SimError> {
            if self.fail_route {
                return Err(SimError::Unroutable {
                    edge: "toy",
                    cycle: now,
                    packet: crate::error::PacketSummary::of(p),
                });
            }
            Ok(())
        }
        fn can_accept(&self, _: (), _: &Packet) -> bool {
            self.rx.can_accept()
        }
        fn pop(&mut self, _: Cycle, _: (), lane: usize) -> Packet {
            self.tx[lane].pop_front().expect("peeked")
        }
        fn accept(&mut self, _: Cycle, _: (), p: Packet) -> Result<(), SimError> {
            self.rx.push_back(p);
            Ok(())
        }
        fn tick_comp(&mut self, _: Cycle, _: ()) {}
        fn side(&mut self, _: Cycle, _: ()) {}
        fn observe(&mut self, _: Cycle, _: TraceSite, _: &Packet) {
            self.observed += 1;
        }
        fn fault(&self, _: Cycle, _: (), p: &Packet) -> FaultAction {
            self.faults
                .get(&tag_of(p))
                .copied()
                .unwrap_or(FaultAction::None)
        }
        fn note_fault(&mut self, _: Cycle, f: InjectedFault) {
            match f {
                InjectedFault::Dropped => self.dropped += 1,
                InjectedFault::Duplicated => self.duplicated += 1,
                InjectedFault::Held => self.held += 1,
            }
        }
        fn moved(&mut self, _: Cycle, _: ()) {
            self.moves += 1;
        }
        fn stage_done(&mut self, _: Cycle, idx: usize, outcome: StageOutcome) {
            self.outcomes.push((idx, outcome));
        }
        fn skip_enabled(&self) -> bool {
            self.skip
        }
        fn stage_horizon(&self, _: Cycle, _: usize) -> Option<Cycle> {
            self.horizon
        }
    }

    const SITE: Option<TraceSite> = Some(TraceSite::SmEject);

    #[test]
    fn run_edge_respects_backpressure_and_observes_each_move() {
        let mut toy = Toy::new(2, 3);
        for i in 0..4 {
            toy.tx[0].push_back(pkt(i));
            toy.tx[1].push_back(pkt(10 + i));
        }
        let edge = Edge { tx: (), site: SITE };
        let n = run_edge(&mut toy, 0, &edge).unwrap();
        assert_eq!(n, 3, "run_edge reports the packets it delivered");
        assert_eq!(toy.rx.len(), 3, "receiver capacity caps the cycle");
        assert_eq!(toy.observed, 3, "one observation per movement");
        assert_eq!(toy.moves, 3, "one progress note per movement");
        // Lane 0 drains before lane 1 gets a turn; order within the
        // receiver reflects the lane sweep.
        let tags: Vec<u64> = toy.rx.iter().map(tag_of).collect();
        assert_eq!(tags, vec![0, 1, 2]);
        // Draining the receiver lets the rest through, in lane order.
        toy.rx.clear();
        run_edge(&mut toy, 1, &edge).unwrap();
        let tags: Vec<u64> = toy.rx.iter().map(tag_of).collect();
        assert_eq!(tags, vec![3, 10, 11]);
    }

    #[test]
    fn dropped_packet_vanishes_unobserved() {
        let mut toy = Toy::new(1, 8);
        for i in 0..3 {
            toy.tx[0].push_back(pkt(i));
        }
        toy.faults.insert(1, FaultAction::Drop);
        let edge = Edge { tx: (), site: SITE };
        let n = run_edge(&mut toy, 0, &edge).unwrap();
        assert_eq!(n, 2, "a dropped packet is not counted as delivered");
        let tags: Vec<u64> = toy.rx.iter().map(tag_of).collect();
        assert_eq!(tags, vec![0, 2], "dropped packet never delivered");
        assert_eq!(toy.dropped, 1);
        assert_eq!(toy.observed, 2, "a drop is not observed");
        assert_eq!(toy.moves, 2, "a drop is not progress");
    }

    #[test]
    fn delayed_packet_holds_the_lane_then_flows() {
        let mut toy = Toy::new(1, 8);
        toy.tx[0].push_back(pkt(0)); // birth 0
        toy.tx[0].push_back(pkt(1));
        toy.faults.insert(0, FaultAction::Delay { until: 5 });
        let edge = Edge { tx: (), site: SITE };
        run_edge(&mut toy, 0, &edge).unwrap();
        assert!(toy.rx.is_empty(), "held head gates the whole lane");
        assert_eq!(toy.held, 1);
        run_edge(&mut toy, 5, &edge).unwrap();
        let tags: Vec<u64> = toy.rx.iter().map(tag_of).collect();
        assert_eq!(tags, vec![0, 1], "order preserved after the hold");
    }

    #[test]
    fn duplicated_packet_is_delivered_and_observed_twice() {
        let mut toy = Toy::new(1, 8);
        toy.tx[0].push_back(pkt(7));
        toy.faults.insert(7, FaultAction::Duplicate);
        let edge = Edge { tx: (), site: SITE };
        let n = run_edge(&mut toy, 0, &edge).unwrap();
        assert_eq!(n, 2, "an accepted duplicate counts as a delivery");
        let tags: Vec<u64> = toy.rx.iter().map(tag_of).collect();
        assert_eq!(tags, vec![7, 7]);
        assert_eq!(toy.duplicated, 1);
        assert_eq!(toy.observed, 2);
    }

    #[test]
    fn fabric_reports_stage_outcomes_in_stage_order() {
        let mut toy = Toy::new(1, 8);
        toy.tx[0].push_back(pkt(1));
        toy.tx[0].push_back(pkt(2));
        let fabric = Fabric {
            stages: &[
                Stage {
                    gate: (),
                    op: Op::Tick(()),
                },
                Stage {
                    gate: (),
                    op: Op::Route(Edge { tx: (), site: SITE }),
                },
                Stage {
                    gate: (),
                    op: Op::Side(()),
                },
            ],
        };
        fabric.tick(&mut toy, 0).unwrap();
        assert_eq!(
            toy.outcomes,
            vec![
                (0, StageOutcome::Ticked),
                (1, StageOutcome::Routed(2)),
                (2, StageOutcome::Ticked),
            ]
        );
        // Empty lane: the routing stage is an idle tick, not a move.
        toy.outcomes.clear();
        fabric.tick(&mut toy, 1).unwrap();
        assert_eq!(toy.outcomes[1], (1, StageOutcome::Routed(0)));
        // Closed gate: every stage reports Gated and does nothing.
        toy.outcomes.clear();
        toy.gate_closed = true;
        toy.tx[0].push_back(pkt(3));
        fabric.tick(&mut toy, 2).unwrap();
        assert_eq!(
            toy.outcomes,
            vec![
                (0, StageOutcome::Gated),
                (1, StageOutcome::Gated),
                (2, StageOutcome::Gated),
            ]
        );
        assert_eq!(toy.tx[0].len(), 1, "gated routing stage moved nothing");
    }

    #[test]
    fn quiescent_stages_are_skipped_only_when_enabled() {
        let stages = [
            Stage {
                gate: (),
                op: Op::Tick(()),
            },
            Stage {
                gate: (),
                op: Op::Route(Edge { tx: (), site: SITE }),
            },
        ];
        let fabric = Fabric { stages: &stages };

        // Horizon in the future but skipping off: stages run normally.
        let mut toy = Toy::new(1, 8);
        toy.tx[0].push_back(pkt(1));
        toy.horizon = Some(100);
        fabric.tick(&mut toy, 0).unwrap();
        assert_eq!(
            toy.outcomes,
            vec![(0, StageOutcome::Ticked), (1, StageOutcome::Routed(1))]
        );

        // Skipping on + future horizon: both stages report Skipped and the
        // routing stage moves nothing.
        let mut toy = Toy::new(1, 8);
        toy.tx[0].push_back(pkt(1));
        toy.skip = true;
        toy.horizon = Some(100);
        fabric.tick(&mut toy, 0).unwrap();
        assert_eq!(
            toy.outcomes,
            vec![(0, StageOutcome::Skipped), (1, StageOutcome::Skipped)]
        );
        assert_eq!(toy.tx[0].len(), 1, "skipped routing stage moved nothing");

        // Drained (`None`) also skips; a horizon that has arrived runs.
        toy.outcomes.clear();
        toy.horizon = None;
        fabric.tick(&mut toy, 1).unwrap();
        assert_eq!(toy.outcomes[0], (0, StageOutcome::Skipped));
        toy.outcomes.clear();
        toy.horizon = Some(2);
        fabric.tick(&mut toy, 2).unwrap();
        assert_eq!(
            toy.outcomes,
            vec![(0, StageOutcome::Ticked), (1, StageOutcome::Routed(1))]
        );

        // A closed gate wins over skipping: Gated, not Skipped.
        toy.outcomes.clear();
        toy.gate_closed = true;
        fabric.tick(&mut toy, 3).unwrap();
        assert_eq!(toy.outcomes[0], (0, StageOutcome::Gated));
    }

    #[test]
    fn inport_next_ready_is_the_head_ready_cycle() {
        let mut p = InPort::new(0, usize::MAX);
        assert_eq!(p.next_ready(), None);
        p.push_at(20, pkt(1));
        p.push_at(5, pkt(2)); // behind the head: cannot pop before 20
        assert_eq!(p.next_ready(), Some(20));
    }

    #[test]
    fn duplicate_respects_receiver_capacity() {
        let mut toy = Toy::new(1, 1);
        toy.tx[0].push_back(pkt(7));
        toy.faults.insert(7, FaultAction::Duplicate);
        let edge = Edge { tx: (), site: SITE };
        run_edge(&mut toy, 0, &edge).unwrap();
        assert_eq!(toy.rx.len(), 1, "no overflow: duplicate skipped");
        assert_eq!(toy.duplicated, 0, "skipped duplicate is not counted");
    }

    #[test]
    fn route_errors_propagate_out_of_run_edge() {
        let mut toy = Toy::new(1, 8);
        toy.tx[0].push_back(pkt(0));
        toy.fail_route = true;
        let edge = Edge { tx: (), site: SITE };
        let err = run_edge(&mut toy, 3, &edge).unwrap_err();
        assert!(
            matches!(err, SimError::Unroutable { cycle: 3, .. }),
            "{err}"
        );
        assert_eq!(toy.tx[0].len(), 1, "packet stays queued on error");
    }
}
