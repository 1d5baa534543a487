//! Per-bank DRAM state machine.
//!
//! Tracks the open row and the earliest cycles at which the next
//! activate / column / precharge command may issue, enforcing
//! tRP / tRCD / tCL / tRAS / tWR / tCCD from Table 2.

use ndp_common::config::DramTiming;

/// Outcome of scheduling one request on a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankSchedule {
    /// Cycle the first column command issues.
    pub cas_at: u64,
    /// Cycle the last data beat is on the bus (request completion).
    pub data_done: u64,
    /// Whether a row activation was required (row miss or closed row).
    pub activated: bool,
}

/// One DRAM bank.
#[derive(Debug, Clone)]
pub struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the next ACT may issue (tRC spacing).
    next_act: u64,
    /// Earliest cycle the next column command may issue.
    next_cas: u64,
    /// Earliest cycle a precharge may issue (tRAS after ACT, tWR after a
    /// write burst).
    next_pre: u64,
}

impl Bank {
    pub fn new() -> Self {
        Bank {
            open_row: None,
            next_act: 0,
            next_cas: 0,
            next_pre: 0,
        }
    }

    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// True if `row` currently hits in the row buffer.
    pub fn is_row_hit(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }

    /// Earliest cycle a column command for `row` could issue at/after `now`
    /// (used by FR-FCFS to prefer ready row hits).
    pub fn earliest_cas(&self, now: u64, row: u64, t: &DramTiming) -> u64 {
        if self.is_row_hit(row) {
            now.max(self.next_cas)
        } else {
            let pre_at = if self.open_row.is_some() {
                now.max(self.next_pre)
            } else {
                now
            };
            let act_at = (pre_at
                + if self.open_row.is_some() {
                    t.t_rp as u64
                } else {
                    0
                })
            .max(self.next_act);
            act_at + t.t_rcd as u64
        }
    }

    /// Schedule a request of `bursts` column commands on this bank,
    /// additionally constrained by the vault data bus being free at
    /// `bus_free`. Returns the schedule and updates bank state.
    pub fn schedule(
        &mut self,
        now: u64,
        row: u64,
        bursts: u32,
        is_write: bool,
        bus_free: u64,
        t: &DramTiming,
    ) -> BankSchedule {
        let activated = !self.is_row_hit(row);
        let mut cas_at = self.earliest_cas(now, row, t);
        if activated {
            // Commit the precharge/activate this path implies.
            let act_at = cas_at - t.t_rcd as u64;
            self.next_act = act_at + (t.t_ras + t.t_rp) as u64; // tRC
            self.next_pre = act_at + t.t_ras as u64;
            self.open_row = Some(row);
        }
        cas_at = cas_at.max(bus_free);
        let burst_time = t.t_ccd as u64 * bursts as u64;
        let data_done = cas_at + t.t_cl as u64 + burst_time;
        self.next_cas = cas_at + burst_time;
        if is_write {
            // Write recovery before a future precharge.
            self.next_pre = self.next_pre.max(data_done + t.t_wr as u64);
        }
        BankSchedule {
            cas_at,
            data_done,
            activated,
        }
    }
}

ndp_common::snap_value!(Bank {
    open_row,
    next_act,
    next_cas,
    next_pre,
});

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::default()
    }

    #[test]
    fn closed_row_pays_rcd() {
        let mut b = Bank::new();
        let s = b.schedule(0, 7, 1, false, 0, &t());
        assert!(s.activated);
        assert_eq!(s.cas_at, 9, "tRCD");
        assert_eq!(s.data_done, 9 + 9 + 4, "CAS + tCL + 1 burst");
        assert_eq!(b.open_row(), Some(7));
    }

    #[test]
    fn row_hit_is_fast() {
        let mut b = Bank::new();
        b.schedule(0, 7, 1, false, 0, &t());
        let s = b.schedule(20, 7, 1, false, 0, &t());
        assert!(!s.activated);
        assert_eq!(s.cas_at, 20);
        assert_eq!(s.data_done, 20 + 9 + 4);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut b = Bank::new();
        b.schedule(0, 7, 1, false, 0, &t());
        // Conflict at cycle 100: PRE (respecting tRAS, long past) + tRP +
        // tRCD before CAS.
        let s = b.schedule(100, 8, 1, false, 0, &t());
        assert!(s.activated);
        assert_eq!(s.cas_at, 100 + 9 + 9, "tRP + tRCD");
        assert_eq!(b.open_row(), Some(8));
    }

    #[test]
    fn tras_delays_early_conflict() {
        let mut b = Bank::new();
        b.schedule(0, 7, 1, false, 0, &t());
        // Immediately conflicting: precharge must wait until tRAS = 24
        // after the ACT at 0.
        let s = b.schedule(1, 8, 1, false, 0, &t());
        assert_eq!(s.cas_at, 24 + 9 + 9);
    }

    #[test]
    fn ccd_spaces_back_to_back_hits() {
        let mut b = Bank::new();
        let s1 = b.schedule(0, 7, 4, false, 0, &t());
        let s2 = b.schedule(s1.cas_at, 7, 4, false, 0, &t());
        assert_eq!(s2.cas_at, s1.cas_at + 16, "4 bursts × tCCD");
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut b = Bank::new();
        let w = b.schedule(0, 7, 1, true, 0, &t());
        let s = b.schedule(w.data_done, 8, 1, false, 0, &t());
        // PRE cannot issue before data_done + tWR.
        assert!(s.cas_at >= w.data_done + 12 + 9 + 9);
    }

    #[test]
    fn bus_contention_defers_cas() {
        let mut b = Bank::new();
        b.schedule(0, 7, 1, false, 0, &t());
        let s = b.schedule(20, 7, 1, false, 500, &t());
        assert_eq!(s.cas_at, 500);
    }
}
