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
//!
//! `System` construction runs the static partition verifier
//! (`ndp_isa::verify_blocks`) and rejects a kernel whose offload-block
//! annotations disagree with its program text.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod experiments;
pub mod fig5;
pub mod offload;
pub mod options;
pub mod result;
pub mod system;
pub mod table;

pub use offload::OffloadController;
pub use options::RunOptions;
pub use result::RunResult;
pub use system::System;
