//! Criterion benchmarks of the core simulator loop, paired with the
//! `bench_baseline` binary: the `core` group times the same fig7 scenarios
//! that `BENCH_core.json` records, and the `fabric` group isolates the
//! packet-movement primitive (`run_edge` over typed ports) that every
//! fabric edge runs on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::time::Duration;

use ndp_bench::baseline::{fig7_scale, fig7_small, run_once};
use ndp_common::error::SimError;
use ndp_common::ids::{Cycle, Node};
use ndp_common::obs::TraceSite;
use ndp_common::packet::{Packet, PacketKind, NO_BLOCK};
use ndp_common::port::{run_edge, Edge, FabricCtx, OutPort};

fn bench_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("core");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(8));
    let small = fig7_small();
    g.bench_function("fig7_small", |b| b.iter(|| black_box(run_once(&small))));
    let scale = fig7_scale();
    g.measurement_time(Duration::from_secs(15));
    g.bench_function("fig7_scale", |b| b.iter(|| black_box(run_once(&scale))));
    g.finish();
}

/// Minimal fabric machine: N transmit lanes draining into one bounded
/// receive queue — the same shape as every edge of the real pipeline, with
/// no model behind it, so the measurement is the movement loop itself.
struct Rig {
    tx: Vec<OutPort>,
    rx: OutPort,
}

impl FabricCtx for Rig {
    type Tx = ();
    type Rx = ();
    type Comp = ();
    type Gate = ();
    type Side = ();

    fn lanes(&self, _: ()) -> usize {
        self.tx.len()
    }
    fn gate_open(&self, _: (), _: Cycle) -> bool {
        true
    }
    fn peek(&self, _: Cycle, _: (), lane: usize) -> Option<&Packet> {
        self.tx[lane].front()
    }
    fn route(&self, _: Cycle, _: (), _: usize, _: &Packet) -> Result<(), SimError> {
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
    fn observe(&mut self, _: Cycle, _: TraceSite, _: &Packet) {}
}

fn pkt(tag: u64) -> Packet {
    Packet::new(
        Node::Sm(0),
        Node::L2(0),
        0,
        PacketKind::ReadReq {
            addr: 0x1000 + tag * 128,
            bytes: 128,
            tag,
            block: NO_BLOCK,
        },
    )
}

fn loaded_rig(lanes: usize, depth: u64) -> Rig {
    let mut rig = Rig {
        tx: (0..lanes).map(|_| OutPort::unbounded()).collect(),
        rx: OutPort::unbounded(),
    };
    for lane in 0..lanes {
        for i in 0..depth {
            rig.tx[lane].push_back(pkt(lane as u64 * depth + i));
        }
    }
    rig
}

fn bench_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    let edge = Edge::<Rig> { tx: (), site: None };

    // Full drain: 8 lanes × 64 packets through one edge.
    g.bench_function("run_edge_drain_8x64", |b| {
        b.iter_batched(
            || loaded_rig(8, 64),
            |mut rig| {
                let moved = run_edge(&mut rig, 0, &edge).expect("routable");
                black_box(moved)
            },
            BatchSize::SmallInput,
        )
    });

    // Idle scan: the per-cycle cost of an edge with nothing to move —
    // exactly what the cycle-skipping rework wants to eliminate.
    g.bench_function("run_edge_idle_64_lanes", |b| {
        let mut rig = loaded_rig(64, 0);
        b.iter(|| {
            let moved = run_edge(&mut rig, 0, &edge).expect("routable");
            black_box(moved)
        })
    });

    // Port churn: push/pop through one bounded queue.
    g.bench_function("outport_churn", |b| {
        let mut port = OutPort::new(16);
        let mut tag = 0u64;
        b.iter(|| {
            while port.can_accept() {
                port.push_back(pkt(tag));
                tag += 1;
            }
            while let Some(p) = port.pop_front() {
                black_box(p.birth);
            }
        })
    });

    g.finish();
}

criterion_group!(core_benches, bench_core, bench_fabric);
criterion_main!(core_benches);
