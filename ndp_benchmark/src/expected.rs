//! Output checks: per-cell result digests and the recorded expectations.
//!
//! `expected.json` holds the digests of every cell for seeds 0 and 1 and
//! for `--smoke`, compiled into the binary. `--bless` rewrites it; only a
//! change that alters the modelled design should need to.

use std::collections::BTreeMap;

use ndp_core::RunResult;
use serde::{Deserialize, Serialize};

/// Where `--bless` writes, and what the binary embeds.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
const EMBEDDED: &str = include_str!("../expected.json");

/// The simulated outcome of one cell, reduced to the counts that any
/// change of the modelled behaviour moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Digest {
    pub cycles: u64,
    pub warp_instrs: u64,
    pub nsu_instrs: u64,
    pub gpu_link_bytes: u64,
    pub memnet_bytes: u64,
    pub dram_bytes: u64,
    pub offloaded: u64,
}

impl Digest {
    pub fn of(r: &RunResult) -> Digest {
        Digest {
            cycles: r.cycles,
            warp_instrs: r.issue.issued,
            nsu_instrs: r.nsu_instrs,
            gpu_link_bytes: r.gpu_link_bytes,
            memnet_bytes: r.memnet_bytes,
            dram_bytes: r.dram.read_bytes + r.dram.write_bytes,
            offloaded: r.offloaded,
        }
    }
}

/// The recorded digests, stamped with the tree they were taken from.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    pub rev: String,
    pub dirty: bool,
    /// Keyed by [`key`].
    pub cells: BTreeMap<String, Digest>,
}

/// `expected.json` as written: the cells as a list, in key order.
#[derive(Serialize, Deserialize)]
struct File {
    rev: String,
    dirty: bool,
    cells: Vec<(String, Digest)>,
}

/// Cell key: `<set>/<workload>/<cell>`, where the set is `seed0`, `seed1`
/// or `smoke` and the cell is `<config>/<kernel>`.
pub fn key(set: &str, workload: &str, cell: &str) -> String {
    format!("{set}/{workload}/{cell}")
}

impl Expected {
    pub fn embedded() -> Expected {
        let f: File = serde_json::from_str(EMBEDDED).expect("expected.json is valid");
        Expected {
            rev: f.rev,
            dirty: f.dirty,
            cells: f.cells.into_iter().collect(),
        }
    }

    /// `None` when nothing is recorded for the cell (a seed other than 0
    /// or 1); otherwise whether `got` matches the record.
    pub fn check(&self, key: &str, got: &Digest) -> Option<bool> {
        self.cells.get(key).map(|want| want == got)
    }

    pub fn write(&self) -> std::io::Result<()> {
        let f = File {
            rev: self.rev.clone(),
            dirty: self.dirty,
            cells: self.cells.iter().map(|(k, d)| (k.clone(), *d)).collect(),
        };
        let text = serde_json::to_string_pretty(&f).expect("digests serialize");
        std::fs::write(PATH, text + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_record_covers_every_set() {
        let e = Expected::embedded();
        for set in ["seed0", "seed1", "smoke"] {
            for w in ["gpu-only", "ndp-naive", "ckpt-dyn"] {
                let n = e
                    .cells
                    .keys()
                    .filter(|k| k.starts_with(&format!("{set}/{w}/")))
                    .count();
                assert_eq!(n, 10, "{set}/{w}");
            }
            let sweep = format!("{set}/sweep-fig9/");
            assert_eq!(
                e.cells.keys().filter(|k| k.starts_with(&sweep)).count(),
                90,
                "{set}"
            );
        }
    }
}
