//! Pass 2 of the `ndp-lint` verification suite: lift the const fabric
//! [`PIPELINE`](crate::system) into a static
//! [`FabricGraph`](ndp_common::analysis::FabricGraph) and check it.
//!
//! The lifted graph is *derived from the same constants the simulator
//! executes*: the node set mirrors the components `System` wires together,
//! each `Op::Route` stage in the pipeline contributes its edge(s), the
//! credit-release site is present exactly when the pipeline contains the
//! `SideChannel::Credits` stage, and pool capacities come from the live
//! `SystemConfig`. Dropping a pipeline stage or misrouting a packet kind
//! therefore shows up as a named [`GraphDiag`] before a single cycle runs.
//!
//! What each edge may carry and what each node consumes is written down
//! here as kind masks, checked against `Packet::KIND_NAMES` order by the
//! tests below. This is the one deliberate redundancy of the model — the
//! masks are the *specification* the routing table is diffed against, so
//! they must not be computed from the routing code itself.

use ndp_common::analysis::{
    kind_bit, CreditPoolSpec, FabricGraph, GraphEdge, GraphNode, KindMask, SkipSpec, WakeSourceSpec,
};
use ndp_common::config::SystemConfig;
use ndp_common::port::{Op, Stage};

use crate::system::{Comp, SideChannel, System, Tx};

/// Kind indices in [`Packet::KIND_NAMES`] order (guarded by a test).
const READ_REQ: usize = 0;
const READ_RESP: usize = 1;
const WRITE_REQ: usize = 2;
const WRITE_ACK: usize = 3;
const OFFLOAD_CMD: usize = 4;
const RDF: usize = 5;
const RDF_RESP: usize = 6;
const WTA: usize = 7;
const NSU_WRITE: usize = 8;
const NSU_WRITE_ACK: usize = 9;
const CACHE_INVAL: usize = 10;
const OFFLOAD_ACK: usize = 11;

/// Everything an SM (or the L2's SM side) sends toward memory: demand
/// reads/writes plus the NDP protocol's GPU→NSU packets (§4.1).
const GPU_UP: KindMask = kind_bit(READ_REQ)
    | kind_bit(WRITE_REQ)
    | kind_bit(OFFLOAD_CMD)
    | kind_bit(RDF)
    | kind_bit(RDF_RESP)
    | kind_bit(WTA);

/// Stack → GPU return traffic over the down links.
const GPU_DOWN: KindMask =
    kind_bit(READ_RESP) | kind_bit(WRITE_ACK) | kind_bit(CACHE_INVAL) | kind_bit(OFFLOAD_ACK);

/// Inter-stack traffic on the memory network (RDF forwards and the NSU
/// remote-write protocol).
const MEMNET: KindMask = kind_bit(RDF_RESP) | kind_bit(NSU_WRITE) | kind_bit(NSU_WRITE_ACK);

/// Stack → local NSU deliveries.
const TO_NSU: KindMask = kind_bit(OFFLOAD_CMD)
    | kind_bit(RDF)
    | kind_bit(RDF_RESP)
    | kind_bit(WTA)
    | kind_bit(NSU_WRITE_ACK);

/// The credit acquire site: the SM reserves NSU buffer entries at
/// `OFLD.BEG` issue, before the CMD packet enters the fabric (§4.3).
pub const ACQUIRE_SITE: &str = "sm:ofld_beg";
/// The credit release site: the `SideChannel::Credits` pipeline stage
/// drains NSU releases back to the GPU's buffer manager.
pub const RELEASE_SITE: &str = "side:credits";

/// The static node set of the machine, with what each node *originates*
/// (emits as new packets) and what it *terminally consumes*. Forwarded
/// kinds are neither: they appear on the in- and out-edges only.
fn nodes() -> Vec<GraphNode> {
    vec![
        GraphNode {
            name: "sm",
            emits: GPU_UP,
            consumes: kind_bit(READ_RESP) | kind_bit(OFFLOAD_ACK),
        },
        GraphNode {
            name: "l2_slice",
            // Hits answer reads; RDF hits synthesize the response the
            // vault would have produced (§4.2).
            emits: kind_bit(READ_RESP) | kind_bit(RDF_RESP),
            // Write-through acks and §4.1 invalidations die at the slice.
            consumes: kind_bit(WRITE_ACK) | kind_bit(CACHE_INVAL),
        },
        GraphNode {
            name: "up_link",
            emits: 0,
            consumes: 0,
        },
        GraphNode {
            name: "stack",
            emits: kind_bit(READ_RESP)
                | kind_bit(WRITE_ACK)
                | kind_bit(RDF_RESP)
                | kind_bit(NSU_WRITE_ACK)
                | kind_bit(CACHE_INVAL),
            consumes: kind_bit(READ_REQ)
                | kind_bit(WRITE_REQ)
                | kind_bit(RDF)
                | kind_bit(NSU_WRITE),
        },
        GraphNode {
            name: "memnet",
            emits: 0,
            consumes: 0,
        },
        GraphNode {
            name: "nsu",
            emits: kind_bit(NSU_WRITE) | kind_bit(OFFLOAD_ACK),
            consumes: TO_NSU,
        },
        GraphNode {
            name: "down_link",
            emits: 0,
            consumes: 0,
        },
    ]
}

/// The edge(s) one `Op::Route` pipeline stage contributes to the graph.
///
/// `Tx::DownLink` fans out by destination (L2 slices vs. SMs), so it lifts
/// to two graph edges with disjoint kind masks. `bounded` mirrors
/// `FabricCtx::can_accept`: true exactly for the receivers with a finite
/// acceptance bound (slice SM-side input, links, memnet injection).
/// `credit_protected` marks the one edge whose receiver occupancy is
/// governed by the §4.3 reservation protocol instead of backpressure.
fn edges_of(tx: Tx) -> Vec<GraphEdge> {
    let e = |name, from, to, kinds, bounded, credit_protected| GraphEdge {
        name,
        from,
        to,
        kinds,
        bounded,
        credit_protected,
    };
    match tx {
        Tx::SmOut => vec![e("sm_out", "sm", "l2_slice", GPU_UP, true, false)],
        Tx::SliceToMem => vec![e(
            "slice_to_mem",
            "l2_slice",
            "up_link",
            GPU_UP,
            true,
            false,
        )],
        Tx::UpLink => vec![e("up_link", "up_link", "stack", GPU_UP, false, false)],
        Tx::StackToMemnet => vec![e("stack_to_memnet", "stack", "memnet", MEMNET, true, false)],
        Tx::StackToNsu => vec![e("stack_to_nsu", "stack", "nsu", TO_NSU, false, true)],
        Tx::StackToGpu => vec![e(
            "stack_to_gpu",
            "stack",
            "down_link",
            GPU_DOWN,
            true,
            false,
        )],
        Tx::NetDelivered => vec![e("net_delivered", "memnet", "stack", MEMNET, false, false)],
        Tx::NsuOut => vec![e(
            "nsu_out",
            "nsu",
            "stack",
            kind_bit(NSU_WRITE) | kind_bit(OFFLOAD_ACK),
            false,
            false,
        )],
        Tx::DownLink => vec![
            e(
                "down_link",
                "down_link",
                "l2_slice",
                kind_bit(READ_RESP) | kind_bit(WRITE_ACK) | kind_bit(CACHE_INVAL),
                false,
                false,
            ),
            e(
                "down_link_to_sm",
                "down_link",
                "sm",
                kind_bit(OFFLOAD_ACK),
                false,
                false,
            ),
        ],
        Tx::SliceToSm => vec![e(
            "slice_to_sm",
            "l2_slice",
            "sm",
            kind_bit(READ_RESP),
            false,
            false,
        )],
    }
}

/// The quiescence contract of one `Op::Tick` stage (DESIGN.md §12): which
/// node it advances and which in-edges its `stage_horizon` accounting
/// watches for new arrivals. `check_quiescence` diffs the watch list
/// against the lifted edge set — an in-edge missing here means a packet
/// could be delivered to a sleeping component and never wake it.
fn skip_spec_of(c: Comp) -> SkipSpec {
    let (stage, node, watches) = match c {
        Comp::Sms => ("tick:sms", "sm", vec!["down_link_to_sm", "slice_to_sm"]),
        Comp::Slices => ("tick:slices", "l2_slice", vec!["sm_out", "down_link"]),
        Comp::UpLinks => ("tick:uplinks", "up_link", vec!["slice_to_mem"]),
        Comp::Stacks => (
            "tick:stacks",
            "stack",
            vec!["up_link", "net_delivered", "nsu_out"],
        ),
        Comp::Net => ("tick:net", "memnet", vec!["stack_to_memnet"]),
        Comp::Nsus => ("tick:nsus", "nsu", vec!["stack_to_nsu"]),
        Comp::DownLinks => ("tick:downlinks", "down_link", vec!["stack_to_gpu"]),
    };
    // Internal wake sources the stage's horizon observes, mirrored from the
    // components' WAKE_SOURCES consts (diffed against the registry by
    // check_quiescence, so a drift in either direction is a lint error).
    let wakes = match c {
        Comp::Sms => ndp_gpu::Sm::WAKE_SOURCES.to_vec(),
        Comp::Stacks => ndp_hmc::HmcStack::WAKE_SOURCES.to_vec(),
        _ => vec![],
    };
    SkipSpec {
        stage,
        node,
        watches,
        wakes,
    }
}

/// The wake-source registry of the machine: each component class that
/// maintains internal deferred-work structures exports them as a
/// `WAKE_SOURCES` const next to the code that updates them; lifting pulls
/// those consts here so the quiescence pass sees the *implementation's*
/// list, not a copy.
fn wake_sources() -> Vec<WakeSourceSpec> {
    let mut v = Vec::new();
    for name in ndp_gpu::Sm::WAKE_SOURCES {
        v.push(WakeSourceSpec { node: "sm", name });
    }
    for name in ndp_hmc::HmcStack::WAKE_SOURCES {
        v.push(WakeSourceSpec {
            node: "stack",
            name,
        });
    }
    v
}

/// Lift an arbitrary stage list. Separated from [`fabric_graph`] so tests
/// can lift mutated pipelines.
fn lift(cfg: &SystemConfig, stages: &[Stage<System>]) -> FabricGraph {
    let mut g = FabricGraph {
        nodes: nodes(),
        wake_sources: wake_sources(),
        ..Default::default()
    };
    // The acquire side of the reservation protocol is SM issue logic, not
    // a pipeline stage; it exists whenever the machine does.
    g.sites.push(ACQUIRE_SITE);
    for st in stages {
        match &st.op {
            Op::Tick(c) => g.skip_specs.push(skip_spec_of(*c)),
            Op::Route(e) => g.edges.extend(edges_of(e.tx)),
            Op::Side(SideChannel::Credits) => g.sites.push(RELEASE_SITE),
            Op::Side(_) => {}
        }
    }
    for (name, capacity) in [
        ("nsu_cmd", cfg.nsu.cmd_entries),
        ("nsu_read_data", cfg.nsu.read_data_entries),
        ("nsu_write_addr", cfg.nsu.write_addr_entries),
    ] {
        g.pools.push(CreditPoolSpec {
            name: name.to_string(),
            capacity,
            acquire: ACQUIRE_SITE,
            release: RELEASE_SITE,
        });
    }
    g
}

/// The static graph of the machine `System::build` constructs for
/// `cfg`, lifted from the executable `PIPELINE` constant.
pub fn fabric_graph(cfg: &SystemConfig) -> FabricGraph {
    lift(cfg, crate::system::PIPELINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_common::port::Edge as PortEdge;
    use ndp_common::port::Op as PortOp;
    use ndp_common::Packet;

    #[test]
    fn kind_indices_match_packet_kind_names() {
        for (idx, want) in [
            (READ_REQ, "ReadReq"),
            (READ_RESP, "ReadResp"),
            (WRITE_REQ, "WriteReq"),
            (WRITE_ACK, "WriteAck"),
            (OFFLOAD_CMD, "OffloadCmd"),
            (RDF, "Rdf"),
            (RDF_RESP, "RdfResp"),
            (WTA, "Wta"),
            (NSU_WRITE, "NsuWrite"),
            (NSU_WRITE_ACK, "NsuWriteAck"),
            (CACHE_INVAL, "CacheInval"),
            (OFFLOAD_ACK, "OffloadAck"),
        ] {
            assert_eq!(Packet::KIND_NAMES[idx], want, "kind index {idx} drifted");
        }
    }

    #[test]
    fn lifted_pipeline_is_clean_for_every_preset() {
        for (name, cfg) in [
            ("baseline", SystemConfig::baseline()),
            ("naive_ndp", SystemConfig::naive_ndp()),
            ("ndp_static", SystemConfig::ndp_static(0.5)),
            ("ndp_dynamic", SystemConfig::ndp_dynamic()),
            ("ndp_dynamic_cache", SystemConfig::ndp_dynamic_cache()),
        ] {
            let diags = fabric_graph(&cfg).check();
            assert!(diags.is_empty(), "{name}: {:?}", diags);
        }
    }

    #[test]
    fn every_tx_edge_appears_in_the_lifted_graph() {
        let g = fabric_graph(&SystemConfig::baseline());
        for name in Tx::NAMES {
            assert!(
                g.edges.iter().any(|e| e.name == name),
                "pipeline edge {name} missing from lifted graph"
            );
        }
        // Plus the destination-split half of the down link.
        assert!(g.edges.iter().any(|e| e.name == "down_link_to_sm"));
    }

    #[test]
    fn dropping_the_nsu_edge_breaks_routing() {
        let mut g = fabric_graph(&SystemConfig::ndp_dynamic());
        assert!(g.remove_edge("stack_to_nsu"));
        let diags = g.check();
        assert!(
            diags
                .iter()
                .any(|d| d.check == "routing" && d.detail.contains("OffloadCmd")),
            "{diags:?}"
        );
    }

    #[test]
    fn every_tick_stage_has_a_skip_spec_with_perf_aligned_name() {
        let g = fabric_graph(&SystemConfig::ndp_dynamic());
        let names = crate::system::stage_names();
        let ticks: Vec<_> = names.iter().filter(|n| n.starts_with("tick:")).collect();
        assert_eq!(
            g.skip_specs.len(),
            ticks.len(),
            "one quiescence spec per tick stage"
        );
        for spec in &g.skip_specs {
            assert!(
                ticks.iter().any(|n| n.as_str() == spec.stage),
                "spec stage {:?} is not a perf tick label",
                spec.stage
            );
        }
    }

    #[test]
    fn forgetting_an_in_edge_watch_is_a_quiescence_bug() {
        // A stack that doesn't watch the up link would sleep through GPU
        // demand traffic arriving while it is quiescent.
        let mut g = fabric_graph(&SystemConfig::ndp_dynamic());
        assert!(g.remove_watch("tick:stacks", "up_link"));
        let diags = g.check();
        assert!(
            diags.iter().any(|d| d.check == "quiescence"
                && d.detail.contains("tick:stacks")
                && d.detail.contains("up_link")),
            "{diags:?}"
        );
    }

    #[test]
    fn dropping_a_wake_wheel_declaration_is_caught_by_name() {
        // Simulates an SM horizon that stopped observing the wake-wheel:
        // the registry (lifted from Sm::WAKE_SOURCES) still lists it, so
        // the quiescence pass must flag the blind spot by name.
        let mut g = fabric_graph(&SystemConfig::ndp_dynamic());
        assert!(g.remove_wake("tick:sms", "sm:wake_wheel"));
        let diags = g.check();
        assert!(
            diags.iter().any(|d| d.check == "quiescence"
                && d.detail.contains("tick:sms")
                && d.detail.contains("sm:wake_wheel")),
            "{diags:?}"
        );
    }

    #[test]
    fn stack_wake_sources_are_registered_and_declared() {
        let g = fabric_graph(&SystemConfig::ndp_dynamic());
        let spec = g
            .skip_specs
            .iter()
            .find(|s| s.stage == "tick:stacks")
            .expect("stacks spec");
        for name in ndp_hmc::HmcStack::WAKE_SOURCES {
            assert!(spec.wakes.contains(name), "missing {name}");
            assert!(
                g.wake_sources
                    .iter()
                    .any(|s| s.node == "stack" && s.name == *name),
                "unregistered {name}"
            );
        }
    }

    #[test]
    fn dropping_the_credit_stage_is_an_unpaired_pool() {
        let cfg = SystemConfig::ndp_dynamic();
        let no_credits: Vec<Stage<System>> = crate::system::PIPELINE
            .iter()
            .filter(|s| !matches!(s.op, PortOp::Side(SideChannel::Credits)))
            .map(|s| Stage {
                gate: s.gate,
                op: match &s.op {
                    PortOp::Tick(c) => PortOp::Tick(*c),
                    PortOp::Route(e) => PortOp::Route(PortEdge {
                        tx: e.tx,
                        site: e.site,
                    }),
                    PortOp::Side(s) => PortOp::Side(*s),
                },
            })
            .collect();
        let diags = lift(&cfg, &no_credits).check();
        assert!(
            diags
                .iter()
                .any(|d| d.check == "credit" && d.detail.contains("side:credits")),
            "{diags:?}"
        );
    }
}
