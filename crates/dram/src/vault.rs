//! FR-FCFS vault controller.
//!
//! First-Ready, First-Come-First-Served (Table 2): among queued requests,
//! prefer the oldest whose bank has the needed row open and can issue now;
//! otherwise fall back to the oldest request overall. One request is
//! scheduled per DRAM cycle; the vault's shared data bus serializes column
//! bursts, bounding per-vault bandwidth at `burst_bytes / tCCD`.

use std::collections::BinaryHeap;

use ndp_common::config::{DramTiming, HmcConfig};
use ndp_common::snap::Snap;
use ndp_common::stats::DramStats;

/// A vault memory request.
#[derive(Debug, Clone)]
pub struct VaultRequest<T> {
    pub bank: u8,
    pub row: u64,
    /// Bytes to transfer (rounded up to whole bursts).
    pub bytes: u32,
    pub is_write: bool,
    /// Opaque payload returned on completion.
    pub payload: T,
}

struct Done<T> {
    at: u64,
    seq: u64,
    req: VaultRequest<T>,
}

impl<T> PartialEq for Done<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Done<T> {}
impl<T> PartialOrd for Done<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Done<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by completion time (reverse ordering).
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// One vault: FR-FCFS queue + banks + shared data bus.
pub struct VaultController<T> {
    queue: Vec<VaultRequest<T>>,
    banks: Vec<crate::bank::Bank>,
    timing: DramTiming,
    capacity: usize,
    burst_bytes: u32,
    bus_free: u64,
    done: BinaryHeap<Done<T>>,
    seq: u64,
    pub stats: DramStats,
}

impl<T> VaultController<T> {
    pub fn new(cfg: &HmcConfig) -> Self {
        VaultController {
            queue: Vec::with_capacity(cfg.vault_queue),
            banks: (0..cfg.banks_per_vault)
                .map(|_| crate::bank::Bank::new())
                .collect(),
            timing: cfg.timing,
            capacity: cfg.vault_queue,
            burst_bytes: cfg.burst_bytes as u32,
            bus_free: 0,
            done: BinaryHeap::new(),
            seq: 0,
            stats: DramStats::default(),
        }
    }

    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.capacity
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Outstanding work (queued + scheduled-but-not-complete).
    pub fn busy(&self) -> bool {
        !self.queue.is_empty() || !self.done.is_empty()
    }

    /// Enqueue a request. Callers must check [`Self::can_accept`]; pushing
    /// past capacity returns the request back.
    pub fn push(&mut self, req: VaultRequest<T>) -> Result<(), VaultRequest<T>> {
        if !self.can_accept() {
            return Err(req);
        }
        assert!((req.bank as usize) < self.banks.len(), "bank out of range");
        self.queue.push(req);
        Ok(())
    }

    /// FR-FCFS pick: oldest ready row-hit within the scheduler's scan
    /// window, else oldest request. Real schedulers bound the associative
    /// search; a 16-deep window also keeps simulation cost linear.
    fn pick(&self, now: u64) -> Option<usize> {
        const SCAN_WINDOW: usize = 16;
        let mut fallback = None;
        for (i, r) in self.queue.iter().take(SCAN_WINDOW).enumerate() {
            let bank = &self.banks[r.bank as usize];
            if bank.is_row_hit(r.row) && bank.earliest_cas(now, r.row, &self.timing) <= now {
                return Some(i);
            }
            if fallback.is_none() {
                fallback = Some(i);
            }
        }
        fallback
    }

    /// Advance one DRAM cycle: schedule at most one request.
    pub fn tick(&mut self, now: u64) {
        let Some(i) = self.pick(now) else { return };
        let req = self.queue.remove(i);
        let bursts = req.bytes.div_ceil(self.burst_bytes).max(1);
        let bank = &mut self.banks[req.bank as usize];
        let sched = bank.schedule(
            now,
            req.row,
            bursts,
            req.is_write,
            self.bus_free,
            &self.timing,
        );
        self.bus_free = sched.cas_at + self.timing.t_ccd as u64 * bursts as u64;
        if sched.activated {
            self.stats.activations += 1;
        }
        if req.is_write {
            self.stats.col_writes += bursts as u64;
            self.stats.write_bytes += (bursts * self.burst_bytes) as u64;
        } else {
            self.stats.col_reads += bursts as u64;
            self.stats.read_bytes += (bursts * self.burst_bytes) as u64;
        }
        self.seq += 1;
        self.done.push(Done {
            at: sched.data_done,
            seq: self.seq,
            req,
        });
    }

    /// Pop the next completed request at or before `now`.
    pub fn pop_done(&mut self, now: u64) -> Option<VaultRequest<T>> {
        if self.done.peek().is_some_and(|d| d.at <= now) {
            return self.done.pop().map(|d| d.req);
        }
        None
    }

    /// Completion cycle of the earliest scheduled request still in flight,
    /// `None` when nothing is scheduled (quiescence horizon of a vault with
    /// an empty request queue).
    pub fn next_done_at(&self) -> Option<u64> {
        self.done.peek().map(|d| d.at)
    }
}

ndp_common::snap_value!(VaultRequest<T: Snap> {
    bank,
    row,
    bytes,
    is_write,
    payload,
});
ndp_common::snap_value!(Done<T: Snap> { at, seq, req });

ndp_common::snap_state!(VaultController<T: Snap> {
    queue, banks [each], bus_free, done, seq, stats;
    derived: timing, capacity, burst_bytes
});

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VaultController<u32> {
        VaultController::new(&HmcConfig::default())
    }

    fn req(bank: u8, row: u64, payload: u32) -> VaultRequest<u32> {
        VaultRequest {
            bank,
            row,
            bytes: 128,
            is_write: false,
            payload,
        }
    }

    fn run_from(v: &mut VaultController<u32>, from: u64, to: u64) -> Vec<(u64, u32)> {
        let mut out = vec![];
        for now in from..to {
            v.tick(now);
            while let Some(r) = v.pop_done(now) {
                out.push((now, r.payload));
            }
        }
        out
    }

    fn run(v: &mut VaultController<u32>, cycles: u64) -> Vec<(u64, u32)> {
        run_from(v, 0, cycles)
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let mut v = vc();
        v.push(req(0, 5, 1)).unwrap();
        let done = run(&mut v, 100);
        assert_eq!(done.len(), 1);
        // tRCD(9) + tCL(9) + 4 bursts × tCCD(4) = 34.
        assert_eq!(done[0].0, 34);
        assert_eq!(v.stats.activations, 1);
        assert_eq!(v.stats.col_reads, 4);
        assert_eq!(v.stats.read_bytes, 128);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits() {
        let mut v = vc();
        // Open row 5 on bank 0 first.
        v.push(req(0, 5, 0)).unwrap();
        for now in 0..40 {
            v.tick(now);
            let _ = v.pop_done(now);
        }
        // Now queue: conflict (row 9) is older, hit (row 5) is younger.
        v.push(req(0, 9, 1)).unwrap();
        v.push(req(0, 5, 2)).unwrap();
        let done = run_from(&mut v, 40, 400);
        assert_eq!(done[0].1, 2, "row hit bypasses older conflict");
        assert_eq!(done[1].1, 1);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut v = vc();
        for i in 0..64 {
            assert!(v.push(req((i % 16) as u8, i as u64, i)).is_ok());
        }
        assert!(!v.can_accept());
        assert!(v.push(req(0, 0, 99)).is_err());
    }

    #[test]
    fn bus_serializes_parallel_banks() {
        // 16 requests across 16 banks: limited by the shared bus at
        // 4 bursts × tCCD = 16 cycles each ⇒ ≥ 256 cycles of bus time.
        let mut v = vc();
        for b in 0..16u8 {
            v.push(req(b, 1, b as u32)).unwrap();
        }
        let done = run(&mut v, 1000);
        assert_eq!(done.len(), 16);
        let last = done.last().unwrap().0;
        assert!(last >= 16 * 16, "bus not modelled: done at {last}");
        // And bank parallelism means it's far better than serial row cycles.
        assert!(last < 16 * 50, "no bank overlap: {last}");
    }

    #[test]
    fn writes_count_separately() {
        let mut v = vc();
        v.push(VaultRequest {
            bank: 0,
            row: 1,
            bytes: 32,
            is_write: true,
            payload: 7,
        })
        .unwrap();
        run(&mut v, 100);
        assert_eq!(v.stats.col_writes, 1);
        assert_eq!(v.stats.write_bytes, 32);
        assert_eq!(v.stats.col_reads, 0);
    }

    #[test]
    fn row_hits_avoid_activation() {
        let mut v = vc();
        for i in 0..8 {
            v.push(req(0, 5, i)).unwrap();
        }
        run(&mut v, 1000);
        assert_eq!(v.stats.activations, 1, "one ACT then row hits");
    }
}
