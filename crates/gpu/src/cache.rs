//! Set-associative cache with MSHRs (write-through, no write-allocate —
//! the policy the paper assumes for GPU on-chip caches, §5).
//!
//! Generic over the waiter payload `W` attached to outstanding misses so
//! both the per-SM L1 (waking load-tracking entries) and the L2 slices
//! (waking per-SM response fan-out) reuse it.

use std::collections::HashMap;

use ndp_common::snap::Snap;
use ndp_common::stats::CacheStats;

/// Result of a read probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present.
    Hit,
    /// Miss; a new MSHR was allocated — the caller must send a fill request.
    MissNew,
    /// Miss on a line already being fetched; waiter merged, no new request.
    MissMerged,
    /// Miss, but the MSHR table is full; the access must be retried.
    MshrFull,
}

#[derive(Debug, Clone, Copy)]
struct LineState {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// A cache array + MSHR table.
pub struct Cache<W> {
    sets: Vec<Vec<LineState>>,
    set_mask: u64,
    line_shift: u32,
    mshrs: HashMap<u64, Vec<W>>,
    mshr_capacity: usize,
    use_clock: u64,
    pub stats: CacheStats,
}

impl<W> Cache<W> {
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize, mshrs: usize) -> Self {
        let lines = capacity_bytes / line_bytes;
        let sets = (lines / ways).max(1);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets: (0..sets)
                .map(|_| {
                    vec![
                        LineState {
                            tag: 0,
                            valid: false,
                            last_use: 0
                        };
                        ways
                    ]
                })
                .collect(),
            set_mask: sets as u64 - 1,
            line_shift: line_bytes.trailing_zeros(),
            mshrs: HashMap::new(),
            mshr_capacity: mshrs,
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn index(&self, line_addr: u64) -> (usize, u64) {
        let blk = line_addr >> self.line_shift;
        (
            (blk & self.set_mask) as usize,
            blk >> self.set_mask.count_ones(),
        )
    }

    /// Is the line resident? (No stats side effects, no LRU update.)
    pub fn contains(&self, line_addr: u64) -> bool {
        let (set, tag) = self.index(line_addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Probe for a read. On a hit the LRU state is refreshed. On a miss the
    /// waiter is recorded in the MSHR for `fill` to return later.
    pub fn probe_read(&mut self, line_addr: u64, waiter: W) -> Probe {
        self.use_clock += 1;
        let (set, tag) = self.index(line_addr);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            l.last_use = self.use_clock;
            self.stats.read_hits += 1;
            return Probe::Hit;
        }
        self.stats.read_misses += 1;
        if let Some(ws) = self.mshrs.get_mut(&line_addr) {
            ws.push(waiter);
            return Probe::MissMerged;
        }
        if self.mshrs.len() >= self.mshr_capacity {
            // Don't count the retry storm as repeated misses.
            self.stats.read_misses -= 1;
            return Probe::MshrFull;
        }
        self.mshrs.insert(line_addr, vec![waiter]);
        Probe::MissNew
    }

    /// Install a fetched line and return the waiters to wake.
    pub fn fill(&mut self, line_addr: u64) -> Vec<W> {
        self.use_clock += 1;
        let (set, tag) = self.index(line_addr);
        if !self.sets[set].iter().any(|l| l.valid && l.tag == tag) {
            // Evict LRU.
            let clock = self.use_clock;
            let victim = self.sets[set]
                .iter_mut()
                .min_by_key(|l| if l.valid { l.last_use } else { 0 })
                .expect("nonzero ways");
            victim.tag = tag;
            victim.valid = true;
            victim.last_use = clock;
        }
        self.mshrs.remove(&line_addr).unwrap_or_default()
    }

    /// Write-through, no-allocate: refresh the line if present (the write
    /// updates it in place), never fetches.
    pub fn write_touch(&mut self, line_addr: u64) {
        self.use_clock += 1;
        self.stats.writes += 1;
        let (set, tag) = self.index(line_addr);
        let clock = self.use_clock;
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            l.last_use = clock;
        }
    }

    /// Invalidate a line (NSU write coherence, §4.2).
    pub fn invalidate(&mut self, line_addr: u64) {
        let (set, tag) = self.index(line_addr);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            l.valid = false;
            self.stats.invalidations += 1;
        }
    }

    /// Outstanding misses.
    pub fn mshr_used(&self) -> usize {
        self.mshrs.len()
    }

    /// MSHR table capacity.
    pub fn mshr_capacity(&self) -> usize {
        self.mshr_capacity
    }
}

ndp_common::snap_value!(LineState {
    tag,
    valid,
    last_use
});

ndp_common::snap_state!(Cache<W: Snap> {
    sets [grid], mshrs, use_clock, stats;
    derived: set_mask, line_shift, mshr_capacity
});

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> Cache<u32> {
        // 4 KB, 4-way, 128 B lines, 4 MSHRs → 8 sets.
        Cache::new(4096, 4, 128, 4)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache();
        assert_eq!(c.probe_read(0x1000, 1), Probe::MissNew);
        assert_eq!(c.probe_read(0x1000, 2), Probe::MissMerged);
        let w = c.fill(0x1000);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(c.probe_read(0x1000, 3), Probe::Hit);
        assert_eq!(c.stats.read_hits, 1);
        assert_eq!(c.stats.read_misses, 2);
    }

    #[test]
    fn mshr_capacity_limits_outstanding_lines() {
        let mut c = cache();
        for i in 0..4u64 {
            assert_eq!(c.probe_read(0x1000 + i * 128, i as u32), Probe::MissNew);
        }
        assert_eq!(c.probe_read(0x9000, 9), Probe::MshrFull);
        c.fill(0x1000);
        assert_eq!(c.probe_read(0x9000, 9), Probe::MissNew);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = cache();
        // Fill one set (stride = sets × line = 1 KB) beyond associativity.
        for i in 0..5u64 {
            let a = i * 1024;
            c.probe_read(a, 0);
            c.fill(a);
        }
        assert!(!c.contains(0), "LRU way evicted");
        for i in 1..5u64 {
            assert!(c.contains(i * 1024));
        }
    }

    #[test]
    fn hits_refresh_lru() {
        let mut c = cache();
        for i in 0..4u64 {
            c.probe_read(i * 1024, 0);
            c.fill(i * 1024);
        }
        // Touch line 0 so line 1 becomes LRU.
        assert_eq!(c.probe_read(0, 0), Probe::Hit);
        c.probe_read(5 * 1024, 0);
        c.fill(5 * 1024);
        assert!(c.contains(0));
        assert!(!c.contains(1024));
    }

    #[test]
    fn write_through_does_not_allocate() {
        let mut c = cache();
        c.write_touch(0x2000);
        assert!(!c.contains(0x2000));
        assert_eq!(c.stats.writes, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = cache();
        c.probe_read(0x1000, 0);
        c.fill(0x1000);
        c.invalidate(0x1000);
        assert!(!c.contains(0x1000));
        assert_eq!(c.stats.invalidations, 1);
        // Invalidating an absent line is a no-op.
        c.invalidate(0x7000);
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn only_fills_shrink_an_mshr_shortfall_and_by_at_most_two() {
        // The SM's MSHR verdict memo rests on this: for a fixed set of
        // lines, non-resident lines minus free MSHRs never drops except on
        // a fill, and a fill drops it by at most two.
        let pool: Vec<u64> = (0..10).map(|i| i * 1024).collect(); // one set
        let watched = &pool[..6];
        let shortfall = |c: &Cache<u32>| {
            let new_lines = watched.iter().filter(|&&l| !c.contains(l)).count() as i64;
            new_lines - (c.mshr_capacity() - c.mshr_used()) as i64
        };
        let mut c = cache();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = pool[(x % 10) as usize];
            let before = shortfall(&c);
            let fill = match (x >> 32) % 4 {
                0 => {
                    c.probe_read(line, 0);
                    false
                }
                1 => {
                    c.fill(line);
                    true
                }
                2 => {
                    c.write_touch(line);
                    false
                }
                _ => {
                    c.invalidate(line);
                    false
                }
            };
            let floor = if fill { before - 2 } else { before };
            assert!(shortfall(&c) >= floor, "shortfall fell below {floor}");
        }
    }

    #[test]
    fn duplicate_fill_is_harmless() {
        let mut c = cache();
        c.probe_read(0x1000, 7);
        assert_eq!(c.fill(0x1000), vec![7]);
        assert!(c.fill(0x1000).is_empty());
        assert!(c.contains(0x1000));
    }
}
