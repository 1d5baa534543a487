//! The four workloads: which machine, which kernels, at which scale.
//!
//! All use the paper's 64-SM / 8-HMC machine (the sweep halves the SMs,
//! like Fig. 9's recorded runs), all ten Table-1 kernels, and the
//! dynamic-policy epoch `run_all_results.sh` records with. The kernels
//! take no seed; the benchmark's seed only perturbs each kernel's
//! iteration count around the nominal scale. It leaves the warp count
//! alone: a warp count that is not a whole number of CTAs per SM leaves a
//! tail of SMs running alone, which moved the host time per simulated
//! instruction by up to ±12% between seeds on a 2-core host.

use ndp_common::SystemConfig;
use ndp_core::experiments::fig9_configs;
use ndp_workloads::{Scale, Workload, WORKLOADS};

/// Hill-climbing epoch of the dynamic policies, as `run_all_results.sh`
/// sets it through `NDP_EPOCH` (that variable itself must stay unset).
pub const EPOCH_CYCLES: u64 = 2000;

/// Simulated cycles between checkpoint round trips in `ckpt-dyn`.
pub const CKPT_EVERY: u64 = 2048;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Baseline GPU, offload off: SMs, caches, links and DRAM do all the
    /// work and the NDP path does none.
    GpuOnly,
    /// Every offload block offloaded: NSUs, memory network, credits and
    /// ACKs at full load.
    NdpNaive,
    /// NDP(Dyn)_Cache, snapshot + restore every `CKPT_EVERY` cycles.
    CkptDyn,
    /// Fig. 9's nine configurations through `experiments::run_matrix`.
    SweepFig9,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::GpuOnly,
        Kind::NdpNaive,
        Kind::CkptDyn,
        Kind::SweepFig9,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GpuOnly => "gpu-only",
            Kind::NdpNaive => "ndp-naive",
            Kind::CkptDyn => "ckpt-dyn",
            Kind::SweepFig9 => "sweep-fig9",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Problem size before the seed's perturbation.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub warps: u32,
    pub iters: u32,
    pub num_sms: usize,
}

impl Size {
    /// `gpu-only` runs at the recorded scale of EXPERIMENTS.md (1024 warps
    /// × 8 iterations). The others run at half the warps (the sweep also
    /// on half the SMs, like Fig. 9's recorded runs) so that a pass takes
    /// about 5 s on a 2-core host: a run then fits several passes, and the
    /// best-of-passes rates shed the bursts of a shared host.
    pub fn nominal(kind: Kind) -> Size {
        let (warps, num_sms) = match kind {
            Kind::GpuOnly => (1024, 64),
            Kind::NdpNaive | Kind::CkptDyn => (512, 64),
            Kind::SweepFig9 => (256, 32),
        };
        Size {
            warps,
            iters: 8,
            num_sms,
        }
    }

    /// `--smoke`: every workload small enough for a quick self-check.
    pub fn smoke() -> Size {
        Size {
            warps: 64,
            iters: 2,
            num_sms: 8,
        }
    }
}

/// One workload instance: the configurations and the per-kernel scales.
pub struct Spec {
    pub kind: Kind,
    pub configs: Vec<(&'static str, SystemConfig)>,
    pub kernels: Vec<(Workload, Scale)>,
}

impl Spec {
    pub fn new(kind: Kind, size: Size, seed: u64) -> Spec {
        let configs: Vec<(&'static str, SystemConfig)> = match kind {
            Kind::GpuOnly => vec![("Baseline", SystemConfig::baseline())],
            Kind::NdpNaive => vec![("NaiveNDP", SystemConfig::naive_ndp())],
            Kind::CkptDyn => vec![("NDP(Dyn)_Cache", SystemConfig::ndp_dynamic_cache())],
            Kind::SweepFig9 => fig9_configs(),
        };
        let configs = configs
            .into_iter()
            .map(|(name, mut cfg)| {
                cfg.gpu.num_sms = size.num_sms;
                cfg.hill_climb.epoch_cycles = EPOCH_CYCLES;
                (name, cfg)
            })
            .collect();
        let kernels = WORKLOADS
            .iter()
            .enumerate()
            .map(|(k, &w)| {
                // `run_matrix` takes one scale for every cell, so the
                // sweep's kernels share the first kernel's draw.
                let draw = if kind == Kind::SweepFig9 { 0 } else { k as u64 };
                let scale = Scale {
                    warps: size.warps,
                    iters: scaled(size.iters, seed, draw),
                };
                (w, scale)
            })
            .collect();
        Spec {
            kind,
            configs,
            kernels,
        }
    }

    /// Every (config, kernel) cell, config-major like `run_matrix`.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.configs.len()).flat_map(move |c| (0..self.kernels.len()).map(move |k| (c, k)))
    }
}

/// The `k`-th output of the splitmix64 generator seeded with `seed`.
pub fn splitmix64(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw `k` under `seed` of a count around `nominal`: `nominal` itself at
/// seed 0, otherwise a whole number in [7/8, 9/8] × `nominal`.
pub fn scaled(nominal: u32, seed: u64, k: u64) -> u32 {
    if seed == 0 {
        return nominal;
    }
    let lo = (nominal * 7).div_ceil(8);
    let hi = nominal * 9 / 8;
    lo + (splitmix64(seed, k) % u64::from(hi - lo + 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_nominal_and_others_stay_in_band() {
        assert_eq!(scaled(8, 0, 3), 8);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 1..200 {
            for k in 0..10 {
                let n = scaled(8, seed, k);
                assert!((7..=9).contains(&n), "seed {seed} k {k}: {n}");
                assert_eq!(n, scaled(8, seed, k), "deterministic");
                seen.insert(n);
            }
        }
        // Every value of the band is reachable, and kernels draw apart.
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert!((1..10).any(|k| scaled(8, 1, 0) != scaled(8, 1, k)));
        assert!((896..=1152).contains(&scaled(1024, 5, 0)));
    }

    #[test]
    fn splitmix64_matches_reference_stream() {
        // First outputs of splitmix64 seeded with 0 (Vigna's reference).
        assert_eq!(splitmix64(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0, 1), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn specs_cover_the_paper_machine() {
        let s = Spec::new(Kind::SweepFig9, Size::nominal(Kind::SweepFig9), 9);
        assert_eq!(s.configs.len(), 9);
        assert_eq!(s.cells().count(), 90);
        assert!(s
            .configs
            .iter()
            .all(|(_, c)| c.gpu.num_sms == 32 && c.hill_climb.epoch_cycles == EPOCH_CYCLES));
        let first = s.kernels[0].1;
        assert!(s
            .kernels
            .iter()
            .all(|(_, sc)| sc.warps == 256 && sc.iters == first.iters));
        let g = Spec::new(Kind::GpuOnly, Size::nominal(Kind::GpuOnly), 0);
        assert!(g
            .kernels
            .iter()
            .all(|(_, sc)| sc.warps == 1024 && sc.iters == 8));
        assert_eq!(g.configs[0].1.gpu.num_sms, 64);
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
    }
}
