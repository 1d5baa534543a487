//! Shared substrate for the SC'17 "Standardized NDP for GPUs" reproduction.
//!
//! This crate holds everything that more than one simulator component needs:
//! node/packet identifiers, the Table-2 system configuration, the packetized
//! message formats of the partitioned-execution protocol (Fig. 4), a
//! bandwidth-modelled link primitive, credit pools for the NSU buffer
//! reservation scheme (§4.3), deterministic value/hash functions used to
//! synthesize memory contents, the page→HMC mapping (§5, random 4 KB
//! page interleaving), the unified observability layer ([`obs`]:
//! latency histograms, occupancy time-series, protocol event tracing and
//! Chrome-trace export), and the robustness layer: structured simulation
//! errors ([`error`]), the forward-progress watchdog and stall reports
//! ([`watchdog`]), the protocol-invariant engine ([`invariant`]), and the
//! deterministic fault injector ([`fault`]). The static-verification layer
//! lives in [`analysis`] (fabric-graph checks) and [`env`] (the registry
//! of known `NDP_*` variables and their pure, typed parsers).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod bitset;
pub mod config;
pub mod credit;
pub mod env;
pub mod error;
pub mod fault;
pub mod ids;
pub mod invariant;
pub mod link;
pub mod memmap;
pub mod obs;
pub mod packet;
pub mod port;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod watchdog;

pub use analysis::{CreditPoolSpec, FabricGraph, GraphDiag, GraphEdge, GraphNode, WakeSourceSpec};
pub use bitset::BitSet;
pub use config::SystemConfig;
pub use error::{PacketSummary, SimError};
pub use fault::{FaultAction, FaultConfig, FaultInjector, FaultStats, InjectedFault};
pub use ids::{Cycle, HmcId, Node, OffloadToken, SmId, VaultId};
pub use invariant::Invariants;
pub use packet::{Packet, PacketKind};
pub use port::{Component, Fabric, FabricCtx, InPort, OutPort};
pub use watchdog::{StallReport, Watchdog, DEFAULT_WATCHDOG_CYCLES};
