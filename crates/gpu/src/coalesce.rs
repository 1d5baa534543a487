//! Memory access coalescing (§4.1.1 "Memory instruction").
//!
//! Groups the per-lane byte addresses of a warp memory instruction into
//! accesses at cache-line (128 B) granularity, classifying each as aligned
//! (lane *i* reads `line + i × WordSize`) or misaligned — misaligned
//! accesses append per-thread offsets to RDF/WTA packets (Fig. 4(b)).

use ndp_common::packet::LineAccess;
use ndp_isa::{LaneValues, WARP_WIDTH};

/// Coalesce one warp memory instruction into line accesses, ordered by
/// first-touching lane (deterministic).
pub fn coalesce(
    addrs: &LaneValues,
    active: u32,
    word_bytes: u32,
    line_bytes: u32,
) -> Vec<LineAccess> {
    debug_assert!(line_bytes.is_power_of_two());
    let line_mask = !(line_bytes as u64 - 1);
    let mut out: Vec<LineAccess> = Vec::with_capacity(2);
    for (lane, &addr) in addrs.iter().enumerate().take(WARP_WIDTH) {
        if active & (1 << lane) == 0 {
            continue;
        }
        let line = addr & line_mask;
        let misaligned = addr != line + lane as u64 * word_bytes as u64;
        match out.iter_mut().find(|a| a.line == line) {
            Some(a) => {
                a.mask |= 1 << lane;
                a.misaligned |= misaligned;
            }
            None => out.push(LineAccess {
                line,
                mask: 1 << lane,
                misaligned,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u32 = u32::MAX;

    fn unit_stride(base: u64) -> LaneValues {
        let mut a = [0u64; WARP_WIDTH];
        for (l, v) in a.iter_mut().enumerate() {
            *v = base + 4 * l as u64;
        }
        a
    }

    #[test]
    fn unit_stride_coalesces_to_one_aligned_line() {
        let acc = coalesce(&unit_stride(0x1000), ALL, 4, 128);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].line, 0x1000);
        assert_eq!(acc[0].active_words(), 32);
        assert!(!acc[0].misaligned);
    }

    #[test]
    fn offset_stride_spans_two_misaligned_lines() {
        // base 0x1010: lanes 0..27 in line 0x1000, 28..31 in 0x1080; lane i
        // is not at line + i*4.
        let acc = coalesce(&unit_stride(0x1010), ALL, 4, 128);
        assert_eq!(acc.len(), 2);
        assert!(acc.iter().all(|a| a.misaligned));
        assert_eq!(acc.iter().map(|a| a.active_words()).sum::<u32>(), 32);
    }

    #[test]
    fn strided_access_fans_out() {
        let mut a = [0u64; WARP_WIDTH];
        for (l, v) in a.iter_mut().enumerate() {
            *v = 0x4000 + 128 * l as u64; // one lane per line
        }
        let acc = coalesce(&a, ALL, 4, 128);
        assert_eq!(acc.len(), 32, "fully divergent");
        for x in &acc {
            assert_eq!(x.active_words(), 1);
        }
        // Lane 0 happens to be at offset 0 = line + 0×4 → aligned by the
        // formula; all other lanes are misaligned singletons.
        assert_eq!(acc.iter().filter(|a| a.misaligned).count(), 31);
    }

    #[test]
    fn inactive_lanes_skipped() {
        let acc = coalesce(&unit_stride(0), 0b101, 4, 128);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].mask, 0b101);
        // Lane i at line + i×4 satisfies the §4.1.1 formula even with an
        // incomplete mask — the offsets are still implied by lane index.
        assert!(!acc[0].misaligned);
    }

    #[test]
    fn broadcast_same_address() {
        let a = [0x7000u64; WARP_WIDTH];
        let acc = coalesce(&a, ALL, 4, 128);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].active_words(), 32);
        assert!(acc[0].misaligned, "all lanes at offset 0");
    }

    #[test]
    fn no_active_lanes_yields_nothing() {
        assert!(coalesce(&unit_stride(0), 0, 4, 128).is_empty());
    }

    #[test]
    fn deterministic_order_by_first_touch() {
        let mut a = unit_stride(0x1000);
        a[0] = 0x9000; // lane 0 touches a later line first
        let acc = coalesce(&a, ALL, 4, 128);
        assert_eq!(acc[0].line, 0x9000);
        assert_eq!(acc[1].line, 0x1000);
    }
}
