//! Full-system simulator and offload-decision machinery — the paper's
//! primary contribution assembled from the substrate crates.
//!
//! * [`system::System`] wires 64 SMs + sliced L2 + 8 GPU links + 8 HMC
//!   stacks + the 3-D hypercube memory network + 8 NSUs into one
//!   cycle-stepped simulation.
//! * [`offload::OffloadController`] makes per-instance offload decisions:
//!   never / always / static ratio (§7.1), hill-climbing dynamic ratio
//!   (Algorithm 1, §7.2), and the cache-locality-aware gate (§7.3).
//! * [`options::RunOptions`] is everything about a run that is not the
//!   machine: execution mode, checks, faults, observation, checkpoints.
//! * [`experiments`] regenerates every table and figure of the evaluation.
//! * [`fabric_model`] lifts the executable fabric pipeline into a static
//!   graph for ndp-lint's Pass 2 checks; `System` construction runs both
//!   static verification passes and rejects ill-formed machines.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod experiments;
pub mod fabric_model;
pub mod fig5;
pub mod offload;
pub mod options;
pub mod result;
pub mod system;
pub mod table;

pub use fabric_model::fabric_graph;
pub use offload::OffloadController;
pub use options::RunOptions;
pub use result::RunResult;
pub use system::System;
