//! Static fabric-graph analysis (Pass 2 of the verification suite).
//!
//! The simulator's routing pipeline is data (`ndp-core`'s const `PIPELINE`
//! of stages and edges). This module gives that data a static meaning: a
//! [`FabricGraph`] of component nodes, the packet kinds each originates and
//! terminally consumes, the edges packets travel, and the credit pools that
//! bound NSU buffers. [`FabricGraph::check`] then proves, before a single
//! cycle simulates:
//!
//! - **routing completeness** — every (producer, [`PacketKind`]) pair can
//!   reach a node that consumes that kind;
//! - **no dead-end deliveries** — no edge hands a kind to a node that
//!   neither consumes nor forwards it;
//! - **credit acquire/release pairing** — every bounded pool has both a
//!   reservation site and a release site (a missing release stage is the
//!   withheld-credit wedge the runtime watchdog can only catch after the
//!   machine has already stalled);
//! - **wait-for acyclicity** — the subgraph of bounded, non-credit-protected
//!   edges is cycle-free, the structural precondition for
//!   backpressure-induced deadlock;
//! - **quiescence soundness** — every skippable tick stage's work horizon
//!   observes each in-edge and internal wake source of its node.
//!
//! [`PacketKind`]: crate::packet::PacketKind

use std::collections::VecDeque;
use std::fmt;

use crate::packet::{Packet, PacketKind};

/// Bitmask over the [`PacketKind`] universe, bit `i` = kind index `i`
/// (the order of [`Packet::KIND_NAMES`]).
pub type KindMask = u16;

/// Mask with every packet kind set.
pub const ALL_KINDS: KindMask = (1 << PacketKind::COUNT) - 1;

/// Mask for one kind index.
pub const fn kind_bit(kind_index: usize) -> KindMask {
    1 << kind_index
}

fn kind_names(mask: KindMask) -> String {
    let names: Vec<&str> = (0..PacketKind::COUNT)
        .filter(|i| mask & kind_bit(*i) != 0)
        .map(|i| Packet::KIND_NAMES[i])
        .collect();
    names.join("|")
}

/// One component class of the machine (lanes collapsed: every SM behaves
/// identically for routing purposes, so one node stands for all of them).
#[derive(Debug, Clone)]
pub struct GraphNode {
    pub name: &'static str,
    /// Kinds this node originates (injects into the fabric).
    pub emits: KindMask,
    /// Kinds this node terminally consumes (packet leaves the fabric here).
    pub consumes: KindMask,
}

/// One routing-table edge, lifted from a `Route` stage of the pipeline.
#[derive(Debug, Clone)]
pub struct GraphEdge {
    pub name: &'static str,
    pub from: &'static str,
    pub to: &'static str,
    /// Kinds this edge may legally carry.
    pub kinds: KindMask,
    /// The receiver has finite capacity and may refuse delivery
    /// (backpressure propagates to the sender).
    pub bounded: bool,
    /// An end-to-end credit protocol guarantees the receiver can always
    /// drain what was admitted, so this edge cannot sustain a wait-for
    /// cycle.
    pub credit_protected: bool,
}

/// A bounded credit pool with its reservation and release sites. Sites are
/// names from [`FabricGraph::sites`]; a pool whose release site is absent
/// from the lifted pipeline is a statically detectable wedge.
#[derive(Debug, Clone)]
pub struct CreditPoolSpec {
    pub name: String,
    pub capacity: usize,
    pub acquire: &'static str,
    pub release: &'static str,
}

/// Quiescence declaration of one skippable tick stage: the component node
/// it advances and the in-edges whose deliveries its work horizon
/// observes. The event-driven core may skip a stage only while its
/// horizon says "no work"; that is sound only if every path by which work
/// can *arrive* at the component is visible to the horizon. A stage that
/// fails to watch one of its node's in-edges could sleep through a
/// delivery — a statically detectable progress bug.
#[derive(Debug, Clone)]
pub struct SkipSpec {
    /// Pipeline stage name (e.g. `tick:stacks`).
    pub stage: &'static str,
    /// The [`GraphNode`] this stage ticks.
    pub node: &'static str,
    /// Edge names whose deliveries the stage's quiescence horizon sees
    /// (via the occupancy of the queues those edges fill).
    pub watches: Vec<&'static str>,
    /// Names of the component's *internal* wake sources its horizon
    /// observes — the maintained structures (ready sets, wake-wheels,
    /// membership sets) that can hold deferred work between ticks. Must
    /// cover every [`WakeSourceSpec`] registered for `node`: a source the
    /// horizon doesn't observe is deferred work the event-driven core
    /// could sleep through, exactly like an unwatched in-edge.
    pub wakes: Vec<&'static str>,
}

/// One internal wake source a component registers (its `WAKE_SOURCES`
/// const): a named structure whose occupancy can make `next_work_at`
/// return work on a future tick without any new packet delivery. The
/// quiescence pass cross-checks the registry against the [`SkipSpec`]
/// declarations in both directions — a registered-but-undeclared source
/// is a horizon blind spot; a declared-but-unregistered name is a phantom
/// claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeSourceSpec {
    /// The [`GraphNode`] whose component owns the source.
    pub node: &'static str,
    /// Source name, conventionally `component:structure`
    /// (e.g. `sm:wake_wheel`).
    pub name: &'static str,
}

/// The machine's communication structure as a static graph.
#[derive(Debug, Clone, Default)]
pub struct FabricGraph {
    pub nodes: Vec<GraphNode>,
    pub edges: Vec<GraphEdge>,
    pub pools: Vec<CreditPoolSpec>,
    /// Non-edge protocol sites present in the lifted pipeline (credit
    /// reservation points, side-channel stages). Pool acquire/release
    /// fields must name one of these.
    pub sites: Vec<&'static str>,
    /// Quiescence declarations of the skippable tick stages. Empty means
    /// the pipeline predates (or opts out of) event-driven skipping and
    /// the quiescence check vacuously passes.
    pub skip_specs: Vec<SkipSpec>,
    /// Registry of internal wake sources, lifted from the components'
    /// `WAKE_SOURCES` consts (see [`WakeSourceSpec`]).
    pub wake_sources: Vec<WakeSourceSpec>,
}

/// One finding of [`FabricGraph::check`], naming the check family and the
/// node/edge/kind involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDiag {
    pub check: &'static str,
    pub detail: String,
}

impl fmt::Display for GraphDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

impl FabricGraph {
    fn node(&self, name: &str) -> Option<&GraphNode> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Remove the named edge; `true` if it existed. Mutation-test hook (and
    /// the way `ndp-lint --drop-edge` simulates a missing pipeline stage).
    pub fn remove_edge(&mut self, name: &str) -> bool {
        let before = self.edges.len();
        self.edges.retain(|e| e.name != name);
        self.edges.len() != before
    }

    /// Remove the named protocol site; `true` if it existed.
    pub fn remove_site(&mut self, name: &str) -> bool {
        let before = self.sites.len();
        self.sites.retain(|s| *s != name);
        self.sites.len() != before
    }

    /// Remove one watched edge from a stage's quiescence declaration;
    /// `true` if it was present. Mutation-test hook: the resulting graph
    /// must fail [`FabricGraph::check`] with a `quiescence` diagnostic.
    pub fn remove_watch(&mut self, stage: &str, edge: &str) -> bool {
        let Some(spec) = self.skip_specs.iter_mut().find(|s| s.stage == stage) else {
            return false;
        };
        let before = spec.watches.len();
        spec.watches.retain(|w| *w != edge);
        spec.watches.len() != before
    }

    /// Remove one declared wake source from a stage's quiescence
    /// declaration; `true` if it was present. Mutation-test hook (and the
    /// way `ndp-lint --drop-wake` simulates a horizon that stopped
    /// observing a maintained structure): the resulting graph must fail
    /// [`FabricGraph::check`] with a `quiescence` diagnostic naming the
    /// source.
    pub fn remove_wake(&mut self, stage: &str, source: &str) -> bool {
        let Some(spec) = self.skip_specs.iter_mut().find(|s| s.stage == stage) else {
            return false;
        };
        let before = spec.wakes.len();
        spec.wakes.retain(|w| *w != source);
        spec.wakes.len() != before
    }

    /// Run every static check; an empty result means the graph is
    /// well-formed.
    pub fn check(&self) -> Vec<GraphDiag> {
        let mut diags = Vec::new();
        self.check_structure(&mut diags);
        // Structural breakage (dangling endpoints) makes the reachability
        // results meaningless; report it alone.
        if !diags.is_empty() {
            return diags;
        }
        self.check_routing(&mut diags);
        self.check_dead_ends(&mut diags);
        self.check_credits(&mut diags);
        self.check_wait_cycles(&mut diags);
        self.check_quiescence(&mut diags);
        diags
    }

    /// Quiescence soundness of the event-driven core: every declared
    /// skippable tick stage must reference a real node, watch only real
    /// edges, and watch *every* in-edge of its node — an unwatched arrival
    /// path means the skip logic could sleep through a delivery and stall
    /// a live machine.
    fn check_quiescence(&self, diags: &mut Vec<GraphDiag>) {
        for spec in &self.skip_specs {
            if self.node(spec.node).is_none() {
                diags.push(GraphDiag {
                    check: "quiescence",
                    detail: format!(
                        "skip spec for stage {:?} ticks unknown node {:?}",
                        spec.stage, spec.node
                    ),
                });
                continue;
            }
            for w in &spec.watches {
                if !self.edges.iter().any(|e| e.name == *w) {
                    diags.push(GraphDiag {
                        check: "quiescence",
                        detail: format!("stage {:?} watches unknown edge {:?}", spec.stage, w),
                    });
                }
            }
            for e in self.edges.iter().filter(|e| e.to == spec.node) {
                if !spec.watches.contains(&e.name) {
                    diags.push(GraphDiag {
                        check: "quiescence",
                        detail: format!(
                            "skippable stage {:?} does not watch in-edge {:?} of {:?} — \
                             a packet delivered there could be slept through",
                            spec.stage, e.name, spec.node
                        ),
                    });
                }
            }
            // Internal wake sources, both directions: every registered
            // source must be declared (else the horizon has a blind spot),
            // and every declared name must be registered (else the spec
            // claims a phantom structure and would mask a rename).
            for w in &spec.wakes {
                if !self
                    .wake_sources
                    .iter()
                    .any(|s| s.node == spec.node && s.name == *w)
                {
                    diags.push(GraphDiag {
                        check: "quiescence",
                        detail: format!(
                            "stage {:?} declares unregistered wake source {:?} \
                             (not in {:?}'s WAKE_SOURCES)",
                            spec.stage, w, spec.node
                        ),
                    });
                }
            }
            for s in self.wake_sources.iter().filter(|s| s.node == spec.node) {
                if !spec.wakes.contains(&s.name) {
                    diags.push(GraphDiag {
                        check: "quiescence",
                        detail: format!(
                            "skippable stage {:?} does not observe wake source {:?} of {:?} — \
                             deferred work parked there could be slept through",
                            spec.stage, s.name, spec.node
                        ),
                    });
                }
            }
        }
    }

    fn check_structure(&self, diags: &mut Vec<GraphDiag>) {
        for (i, n) in self.nodes.iter().enumerate() {
            if self.nodes[..i].iter().any(|m| m.name == n.name) {
                diags.push(GraphDiag {
                    check: "structure",
                    detail: format!("duplicate node {:?}", n.name),
                });
            }
        }
        for e in &self.edges {
            for end in [e.from, e.to] {
                if self.node(end).is_none() {
                    diags.push(GraphDiag {
                        check: "structure",
                        detail: format!("edge {:?} references unknown node {:?}", e.name, end),
                    });
                }
            }
            if e.kinds == 0 {
                diags.push(GraphDiag {
                    check: "structure",
                    detail: format!("edge {:?} carries no packet kinds", e.name),
                });
            }
        }
    }

    /// Every kind a node emits must reach, via edges that carry it, some
    /// node that consumes it.
    fn check_routing(&self, diags: &mut Vec<GraphDiag>) {
        for n in &self.nodes {
            for k in 0..PacketKind::COUNT {
                let bit = kind_bit(k);
                if n.emits & bit == 0 {
                    continue;
                }
                if !self.kind_reaches_sink(n.name, bit) {
                    diags.push(GraphDiag {
                        check: "routing",
                        detail: format!(
                            "{} emitted at {} cannot reach any consumer \
                             (no path over edges carrying {})",
                            Packet::KIND_NAMES[k],
                            n.name,
                            Packet::KIND_NAMES[k],
                        ),
                    });
                }
            }
        }
    }

    fn kind_reaches_sink(&self, start: &str, bit: KindMask) -> bool {
        let mut seen = vec![start];
        let mut frontier = VecDeque::from([start]);
        while let Some(at) = frontier.pop_front() {
            if self.node(at).is_some_and(|n| n.consumes & bit != 0) {
                return true;
            }
            for e in self.edges.iter().filter(|e| e.from == at) {
                if e.kinds & bit != 0 && !seen.contains(&e.to) {
                    seen.push(e.to);
                    frontier.push_back(e.to);
                }
            }
        }
        false
    }

    /// No edge may deliver a kind to a node that neither consumes nor
    /// forwards it (the runtime would panic with a `BadDelivery`).
    fn check_dead_ends(&self, diags: &mut Vec<GraphDiag>) {
        for e in &self.edges {
            let Some(to) = self.node(e.to) else { continue };
            let forwarded: KindMask = self
                .edges
                .iter()
                .filter(|f| f.from == e.to)
                .fold(0, |m, f| m | f.kinds);
            let stuck = e.kinds & !(to.consumes | forwarded);
            if stuck != 0 {
                diags.push(GraphDiag {
                    check: "dead-end",
                    detail: format!(
                        "edge {} delivers {} to {} which neither consumes nor forwards it",
                        e.name,
                        kind_names(stuck),
                        e.to,
                    ),
                });
            }
        }
    }

    /// Every bounded pool needs both its acquire and its release site
    /// present; a pool that is only ever drawn down wedges the machine.
    fn check_credits(&self, diags: &mut Vec<GraphDiag>) {
        for p in self.pools.iter().filter(|p| p.capacity > 0) {
            for (role, site) in [("acquire", p.acquire), ("release", p.release)] {
                if !self.sites.contains(&site) && self.edges.iter().all(|e| e.name != site) {
                    diags.push(GraphDiag {
                        check: "credit",
                        detail: format!(
                            "credit pool {} (capacity {}) has no {} site: {:?} is absent \
                             from the pipeline — reserved entries could never return",
                            p.name, p.capacity, role, site,
                        ),
                    });
                }
            }
        }
    }

    /// Bounded, non-credit-protected edges must form a DAG: a cycle of
    /// such edges is the structural precondition for a backpressure
    /// deadlock (each hop waiting on the next's finite buffer).
    fn check_wait_cycles(&self, diags: &mut Vec<GraphDiag>) {
        let blocking: Vec<&GraphEdge> = self
            .edges
            .iter()
            .filter(|e| e.bounded && !e.credit_protected)
            .collect();
        // Iterative DFS with colors over the node set.
        let mut color: Vec<u8> = vec![0; self.nodes.len()]; // 0 white, 1 grey, 2 black
        let idx = |name: &str| self.nodes.iter().position(|n| n.name == name);
        for start in 0..self.nodes.len() {
            if color[start] != 0 {
                continue;
            }
            // Stack of (node, path-so-far) keeps the cycle nameable.
            let mut stack: Vec<(usize, Vec<usize>)> = vec![(start, vec![start])];
            while let Some((at, path)) = stack.pop() {
                if color[at] == 2 {
                    continue;
                }
                color[at] = 2;
                for e in blocking.iter().filter(|e| idx(e.from) == Some(at)) {
                    let Some(to) = idx(e.to) else { continue };
                    if let Some(pos) = path.iter().position(|&n| n == to) {
                        let cycle: Vec<&str> = path[pos..]
                            .iter()
                            .map(|&n| self.nodes[n].name)
                            .chain([self.nodes[to].name])
                            .collect();
                        diags.push(GraphDiag {
                            check: "wait-cycle",
                            detail: format!(
                                "bounded edges form a wait-for cycle: {} \
                                 (deadlock precondition; no credit protocol breaks it)",
                                cycle.join(" -> "),
                            ),
                        });
                        return; // one cycle is enough to fail the check
                    }
                    let mut next = path.clone();
                    next.push(to);
                    stack.push((to, next));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FabricGraph {
        // a --req--> b --resp--> a, with a credit pool on b's buffer.
        FabricGraph {
            nodes: vec![
                GraphNode {
                    name: "a",
                    emits: kind_bit(0),
                    consumes: kind_bit(1),
                },
                GraphNode {
                    name: "b",
                    emits: kind_bit(1),
                    consumes: kind_bit(0),
                },
            ],
            edges: vec![
                GraphEdge {
                    name: "fwd",
                    from: "a",
                    to: "b",
                    kinds: kind_bit(0),
                    bounded: true,
                    credit_protected: true,
                },
                GraphEdge {
                    name: "bwd",
                    from: "b",
                    to: "a",
                    kinds: kind_bit(1),
                    bounded: false,
                    credit_protected: false,
                },
            ],
            pools: vec![CreditPoolSpec {
                name: "b.buf".into(),
                capacity: 4,
                acquire: "reserve",
                release: "credits",
            }],
            sites: vec!["reserve", "credits"],
            skip_specs: vec![],
            wake_sources: vec![],
        }
    }

    #[test]
    fn well_formed_graph_is_clean() {
        assert_eq!(tiny().check(), vec![]);
    }

    #[test]
    fn dropped_edge_breaks_routing() {
        let mut g = tiny();
        assert!(g.remove_edge("fwd"));
        let diags = g.check();
        assert!(
            diags.iter().any(|d| d.check == "routing"
                && d.detail.contains("ReadReq")
                && d.detail.contains("a")),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_release_site_is_a_wedge() {
        let mut g = tiny();
        assert!(g.remove_site("credits"));
        let diags = g.check();
        assert!(
            diags
                .iter()
                .any(|d| d.check == "credit" && d.detail.contains("b.buf")),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_end_delivery_detected() {
        let mut g = tiny();
        g.nodes[1].consumes = 0; // b no longer consumes ReadReq
        let diags = g.check();
        assert!(diags.iter().any(|d| d.check == "dead-end"), "{diags:?}");
        assert!(diags.iter().any(|d| d.check == "routing"), "{diags:?}");
    }

    #[test]
    fn bounded_cycle_detected() {
        let mut g = tiny();
        g.edges[0].credit_protected = false;
        g.edges[1].bounded = true;
        let diags = g.check();
        let cyc = diags
            .iter()
            .find(|d| d.check == "wait-cycle")
            .expect("cycle reported");
        assert!(cyc.detail.contains("a -> b -> a") || cyc.detail.contains("b -> a -> b"));
    }

    fn with_specs(mut g: FabricGraph) -> FabricGraph {
        g.skip_specs = vec![
            SkipSpec {
                stage: "tick:a",
                node: "a",
                watches: vec!["bwd"],
                wakes: vec!["a:wheel"],
            },
            SkipSpec {
                stage: "tick:b",
                node: "b",
                watches: vec!["fwd"],
                wakes: vec![],
            },
        ];
        g.wake_sources = vec![WakeSourceSpec {
            node: "a",
            name: "a:wheel",
        }];
        g
    }

    #[test]
    fn complete_skip_specs_are_clean() {
        assert_eq!(with_specs(tiny()).check(), vec![]);
    }

    #[test]
    fn unwatched_in_edge_is_a_quiescence_bug() {
        let mut g = with_specs(tiny());
        assert!(g.remove_watch("tick:b", "fwd"));
        assert!(
            !g.remove_watch("tick:b", "fwd"),
            "second removal is a no-op"
        );
        let diags = g.check();
        assert!(
            diags.iter().any(|d| d.check == "quiescence"
                && d.detail.contains("tick:b")
                && d.detail.contains("fwd")),
            "{diags:?}"
        );
    }

    #[test]
    fn unobserved_wake_source_is_a_quiescence_bug() {
        let mut g = with_specs(tiny());
        assert!(g.remove_wake("tick:a", "a:wheel"));
        assert!(!g.remove_wake("tick:a", "a:wheel"), "second removal no-op");
        let diags = g.check();
        assert!(
            diags.iter().any(|d| d.check == "quiescence"
                && d.detail.contains("tick:a")
                && d.detail.contains("a:wheel")),
            "{diags:?}"
        );
    }

    #[test]
    fn phantom_wake_declaration_detected() {
        let mut g = with_specs(tiny());
        g.skip_specs[1].wakes.push("b:ghost_wheel");
        let diags = g.check();
        assert!(
            diags.iter().any(|d| d.check == "quiescence"
                && d.detail.contains("unregistered wake source")
                && d.detail.contains("b:ghost_wheel")),
            "{diags:?}"
        );
    }

    #[test]
    fn skip_spec_endpoints_must_exist() {
        let mut g = with_specs(tiny());
        g.skip_specs.push(SkipSpec {
            stage: "tick:ghost",
            node: "ghost",
            watches: vec![],
            wakes: vec![],
        });
        g.skip_specs[0].watches.push("no_such_edge");
        let diags = g.check();
        assert!(
            diags
                .iter()
                .any(|d| d.check == "quiescence" && d.detail.contains("unknown node")),
            "{diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.check == "quiescence" && d.detail.contains("no_such_edge")),
            "{diags:?}"
        );
    }

    #[test]
    fn dangling_edge_reported_structurally() {
        let mut g = tiny();
        g.edges[0].to = "ghost";
        let diags = g.check();
        assert!(diags.iter().all(|d| d.check == "structure"), "{diags:?}");
        assert!(diags[0].detail.contains("ghost"));
    }
}
