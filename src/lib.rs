//! # standardized-ndp
//!
//! A full reproduction of *"Toward Standardized Near-Data Processing with
//! Unrestricted Data Placement for GPUs"* (Kim, Chatterjee, O'Connor, Hsieh —
//! SC'17) as a Rust workspace: a cycle-level GPU + HMC-stack simulator with
//! the paper's partitioned-execution NDP mechanism, offload-block compiler,
//! hill-climbing dynamic offload controller, cache-locality-aware gating,
//! energy model, and the ten evaluated workloads.
//!
//! This facade crate re-exports the workspace's public API; the runnable
//! entry points live in `examples/` (quickstart and scenario binaries) and
//! in the `ndp-bench` crate (the `figures` binary regenerates every paper
//! table and figure).
//!
//! ## Quickstart
//!
//! ```
//! use standardized_ndp::prelude::*;
//!
//! // Build the Fig. 2 vector-addition kernel at a small scale.
//! let scale = Scale { warps: 64, iters: 4 };
//! let program = Workload::Vadd.build(&scale);
//!
//! // Simulate it on the baseline and on the NDP system.
//! let mut cfg = SystemConfig::baseline();
//! cfg.gpu.num_sms = 8;
//! let base = System::new(cfg.clone(), &program).run(10_000_000).unwrap();
//! cfg.offload = OffloadPolicy::Static(0.6);
//! let ndp = System::new(cfg, &program).run(10_000_000).unwrap();
//!
//! assert!(!base.timed_out && !ndp.timed_out);
//! // The NDP run keeps the vector data off the GPU links.
//! assert!(ndp.gpu_link_bytes < base.gpu_link_bytes);
//! ```

#![forbid(unsafe_code)]

pub use ndp_common as common;
pub use ndp_compiler as compiler;
pub use ndp_core as core_sim;
pub use ndp_dram as dram;
pub use ndp_energy as energy;
pub use ndp_gpu as gpu;
pub use ndp_hmc as hmc;
pub use ndp_isa as isa;
pub use ndp_memnet as memnet;
pub use ndp_nsu as nsu;
pub use ndp_workloads as workloads;

/// The commonly-used types in one import.
pub mod prelude {
    pub use ndp_common::config::{OffloadPolicy, SystemConfig};
    pub use ndp_common::error::SimError;
    pub use ndp_common::fault::{FaultConfig, FaultStats};
    pub use ndp_common::obs::{Obs, ObsReport, PerfReport};
    pub use ndp_common::watchdog::StallReport;
    pub use ndp_compiler::{compile, CompilerConfig};
    pub use ndp_core::experiments::{run_matrix, run_workload};
    pub use ndp_core::{RunOptions, RunResult, System};
    pub use ndp_energy::{energy, Activity, EnergyParams};
    pub use ndp_workloads::{Scale, Workload, WORKLOADS};
}
