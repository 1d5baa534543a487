//! Property-based tests over the core data structures and invariants,
//! spanning crate boundaries.

use proptest::prelude::*;
use standardized_ndp::common::memmap::MemMap;
use standardized_ndp::common::packet::{LineAccess, Packet, PacketKind};
use standardized_ndp::common::SystemConfig;
use standardized_ndp::gpu::coalesce;
use standardized_ndp::memnet::Topology;

proptest! {
    /// Coalescing partitions the active lanes exactly: every active lane
    /// appears in exactly one line access, the one of its address's line.
    #[test]
    fn coalesce_partitions_active_lanes(
        base in 0u64..1u64 << 40,
        offsets in prop::collection::vec(0u64..1 << 16, 32),
        active in any::<u32>(),
    ) {
        let mut addrs = [0u64; 32];
        for (i, o) in offsets.iter().enumerate() {
            addrs[i] = base + o * 4;
        }
        let accesses = coalesce(&addrs, active, 4, 128);
        let mut seen = 0u32;
        for a in &accesses {
            for lane in (0..32).filter(|l| a.mask & (1 << l) != 0) {
                prop_assert_eq!(addrs[lane] & !127, a.line, "lane outside its line");
                prop_assert_eq!(seen & (1 << lane), 0, "lane duplicated");
                seen |= 1 << lane;
            }
        }
        prop_assert_eq!(seen, active, "active lanes not partitioned");
        // Lines are unique.
        let mut lines: Vec<u64> = accesses.iter().map(|a| a.line).collect();
        lines.sort_unstable();
        lines.dedup();
        prop_assert_eq!(lines.len(), accesses.len());
    }

    /// The §4.1.1 alignment rule: an access is aligned iff every lane reads
    /// `line + lane×4`.
    #[test]
    fn coalesce_alignment_rule(start_lane in 0usize..32, n in 1usize..32) {
        let mut addrs = [0u64; 32];
        let mut active = 0u32;
        let hi = (start_lane + n).min(32);
        for (lane, addr) in addrs.iter_mut().enumerate().take(hi).skip(start_lane) {
            *addr = 0x1000 + lane as u64 * 4;
            active |= 1 << lane;
        }
        let accesses = coalesce(&addrs, active, 4, 128);
        prop_assert_eq!(accesses.len(), 1);
        prop_assert!(!accesses[0].misaligned, "formula satisfied ⇒ aligned");
    }

    /// Page→HMC mapping is total, stable, and respects page granularity.
    #[test]
    fn memmap_is_page_stable(page in 0u64..1 << 30, off1 in 0u64..4096, off2 in 0u64..4096) {
        let m = MemMap::new(&SystemConfig::default());
        let a = page * 4096 + off1;
        let b = page * 4096 + off2;
        prop_assert_eq!(m.hmc_of(a), m.hmc_of(b));
        prop_assert!(m.hmc_of(a).0 < 8);
        let c = m.decode(a);
        prop_assert!(c.vault.0 < 16);
        prop_assert!(c.bank < 16);
    }

    /// Dimension-order routing always takes a minimal path and terminates.
    #[test]
    fn hypercube_routing_is_minimal(a in 0u8..8, b in 0u8..8) {
        use standardized_ndp::common::ids::HmcId;
        let t = Topology::hypercube(8);
        let path = t.path(HmcId(a), HmcId(b));
        prop_assert_eq!(path.len() as u32, t.hops(HmcId(a), HmcId(b)));
        if let Some(last) = path.last() {
            prop_assert_eq!(*last, HmcId(b));
        } else {
            prop_assert_eq!(a, b);
        }
    }

    /// RDF response wire size is monotone in the touched-word count and
    /// never exceeds header + full line (the §4.4 saving).
    #[test]
    fn rdf_response_size_bounded(words in 1usize..=32) {
        use standardized_ndp::common::ids::OffloadToken;
        let access = LineAccess {
            line: 0,
            mask: (0..words).fold(0, |m, l| m | 1 << l),
            misaligned: false,
        };
        let size = Packet::wire_size(&PacketKind::RdfResp {
            token: OffloadToken(0),
            seq: 0,
            access,
        });
        prop_assert_eq!(size, 16 + 4 * words as u32);
        prop_assert!(size <= 16 + 128);
    }

    /// Synthetic memory contents are pure: same (seed, addr) ⇒ same value;
    /// the executor and the NSU side always agree.
    #[test]
    fn mem_value_is_pure(seed in any::<u64>(), addr in any::<u64>()) {
        use standardized_ndp::common::rng::mem_value;
        prop_assert_eq!(mem_value(seed, addr), mem_value(seed, addr));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Credit pools never go negative or exceed capacity across arbitrary
    /// reserve/release sequences.
    #[test]
    fn credits_stay_bounded(ops in prop::collection::vec((0usize..4, 1usize..8), 1..200)) {
        use standardized_ndp::common::credit::CreditPool;
        let mut pool = CreditPool::new(16);
        let mut outstanding = 0usize;
        for (op, n) in ops {
            match op {
                0 | 1 => {
                    if pool.try_reserve(n) {
                        outstanding += n;
                    }
                }
                _ => {
                    let back = n.min(outstanding);
                    if back > 0 {
                        pool.release(back);
                        outstanding -= back;
                    }
                }
            }
            prop_assert!(pool.available() <= 16);
            prop_assert_eq!(pool.available() + outstanding, 16);
        }
    }
}

// Guard against inert property testing: an offline-stubbed `proptest!` once
// expanded to nothing, so every property "passed" without executing a single
// assertion. The macro (real or shimmed) generates a directly callable
// `fn`, so count the executions and fail tier-1 if the bodies ever stop
// running.
mod proptest_is_not_inert {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        // Per thread: the harness also runs `counted_property` as a test of
        // its own, possibly at the same time on another thread.
        static CASES_RUN: Cell<u32> = const { Cell::new(0) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn counted_property(_x in 0u64..8) {
            CASES_RUN.set(CASES_RUN.get() + 1);
        }
    }

    #[test]
    fn proptest_bodies_actually_execute() {
        CASES_RUN.set(0);
        counted_property();
        assert_eq!(
            CASES_RUN.get(),
            64,
            "proptest! did not execute its body for every configured case — \
             property coverage is silently gone"
        );
    }
}
