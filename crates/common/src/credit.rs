//! Credit-based buffer management (§4.3, "Deadlock Prevention").
//!
//! The GPU-side NDP buffer manager keeps credit counts for the three NSU
//! buffer classes in every HMC — offload command, read data, and write
//! address buffers. An SM's reservation request at `OFLD.BEG` is granted only
//! if all three classes have sufficient credits; the NSU returns credits
//! (piggybacked on other packets, hence free on the wire) as entries drain.

use crate::snap::{SnapError, SnapReader, SnapState, SnapWriter};

/// A single credit pool with a hard capacity.
#[derive(Debug, Clone, Copy)]
pub struct CreditPool {
    available: usize,
    capacity: usize,
}

impl CreditPool {
    pub fn new(capacity: usize) -> Self {
        CreditPool {
            available: capacity,
            capacity,
        }
    }

    pub fn available(&self) -> usize {
        self.available
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Credits currently reserved (occupancy of the buffer this pool
    /// guards) — what the observability sampler plots over time.
    pub fn in_use(&self) -> usize {
        self.capacity - self.available
    }

    /// Try to reserve `n` credits; all-or-nothing.
    pub fn try_reserve(&mut self, n: usize) -> bool {
        if self.available >= n {
            self.available -= n;
            true
        } else {
            false
        }
    }

    /// Return `n` credits, clamped at capacity. `false` signals an
    /// over-release (a double credit return — e.g. from a duplicated
    /// packet), which the caller reports as an invariant violation.
    #[must_use]
    pub fn try_release(&mut self, n: usize) -> bool {
        if self.available + n > self.capacity {
            self.available = self.capacity;
            return false;
        }
        self.available += n;
        true
    }

    /// Return `n` credits. Panics if that would exceed capacity — a protocol
    /// bug (double release) rather than a runtime condition.
    pub fn release(&mut self, n: usize) {
        assert!(
            self.available + n <= self.capacity,
            "credit over-release: {} + {} > {}",
            self.available,
            n,
            self.capacity
        );
        self.available += n;
    }
}

/// Per-HMC credit state for the three NSU buffer classes.
#[derive(Debug, Clone)]
pub struct NsuCredits {
    pub cmd: CreditPool,
    pub read_data: CreditPool,
    pub write_addr: CreditPool,
}

impl NsuCredits {
    pub fn new(cmd: usize, read_data: usize, write_addr: usize) -> Self {
        NsuCredits {
            cmd: CreditPool::new(cmd),
            read_data: CreditPool::new(read_data),
            write_addr: CreditPool::new(write_addr),
        }
    }

    /// Reserve the buffers an offload block needs: 1 command slot,
    /// `n_loads` read-data entries and `n_stores` write-address entries.
    /// All-or-nothing: partial reservations are rolled back so the pools
    /// never leak credits when a reservation fails (deadlock freedom).
    pub fn try_reserve_block(&mut self, n_loads: usize, n_stores: usize) -> bool {
        if !self.cmd.try_reserve(1) {
            return false;
        }
        if !self.read_data.try_reserve(n_loads) {
            self.cmd.release(1);
            return false;
        }
        if !self.write_addr.try_reserve(n_stores) {
            self.cmd.release(1);
            self.read_data.release(n_loads);
            return false;
        }
        true
    }

    /// Release all buffers of a finished block (ACK received at the GPU).
    pub fn release_block(&mut self, n_loads: usize, n_stores: usize) {
        self.cmd.release(1);
        self.read_data.release(n_loads);
        self.write_addr.release(n_stores);
    }
}

/// The balance is the state; capacity comes from construction. A decoded
/// balance above capacity is structurally impossible and rejected.
impl SnapState for CreditPool {
    fn snap(&self, w: &mut SnapWriter) {
        let CreditPool {
            available,
            capacity: _,
        } = self;
        w.usize(*available);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let available = r.usize()?;
        if available > self.capacity {
            return Err(SnapError(format!(
                "credit balance {available} exceeds pool capacity {}",
                self.capacity
            )));
        }
        self.available = available;
        Ok(())
    }
}

crate::snap_state!(NsuCredits {
    cmd,
    read_data,
    write_addr
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut p = CreditPool::new(4);
        assert!(p.try_reserve(3));
        assert_eq!(p.available(), 1);
        assert_eq!(p.in_use(), 3);
        assert!(!p.try_reserve(2));
        p.release(3);
        assert_eq!(p.available(), 4);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "credit over-release")]
    fn over_release_panics() {
        let mut p = CreditPool::new(2);
        p.release(1);
    }

    #[test]
    fn block_reservation_is_atomic() {
        // cmd=1, read=4, write=1: a block needing 2 stores must fail and
        // leave every pool untouched.
        let mut c = NsuCredits::new(1, 4, 1);
        assert!(!c.try_reserve_block(2, 2));
        assert_eq!(c.cmd.available(), 1);
        assert_eq!(c.read_data.available(), 4);
        assert_eq!(c.write_addr.available(), 1);
        assert!(c.try_reserve_block(4, 1));
        assert!(!c.try_reserve_block(0, 0), "cmd slot exhausted");
        c.release_block(4, 1);
        assert!(c.try_reserve_block(0, 0));
    }
}
