//! Forward-progress watchdog and stall reporting.
//!
//! A deadlocked simulation used to spin silently to `max_cycles` and come
//! back as a bare `timed_out=true`. The watchdog tracks the last cycle at
//! which *anything* made progress — a packet crossing any fabric edge, or
//! an instruction retiring on an SM or NSU — and, once no progress has been
//! seen for a threshold while work is still outstanding, the run aborts
//! early with a [`StallReport`]: every non-empty queue, the credit-pool
//! balances, the in-flight offload tokens and their lifecycle state, and a
//! wait-for summary naming what each starved resource is blocked on.

use std::fmt;

use serde::Serialize;

use crate::ids::Cycle;

/// Default no-progress threshold (SM cycles) before the watchdog fires.
/// Override per run with `ndp_core::RunOptions::watchdog`.
pub const DEFAULT_WATCHDOG_CYCLES: Cycle = 100_000;

/// Per-edge movement record: how often and how recently packets crossed
/// one transmit edge of the fabric.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdgeProgress {
    pub name: &'static str,
    pub moves: u64,
    pub last_move: Option<Cycle>,
}

/// Tracks forward progress across the whole machine.
#[derive(Debug, Clone)]
pub struct Watchdog {
    threshold: Cycle,
    last_progress: Cycle,
    last_instrs: u64,
    edges: Vec<EdgeProgress>,
}

impl Watchdog {
    /// `edge_names` label the fabric's transmit edges; `note_move` indexes
    /// into the same order.
    pub fn new(threshold: Cycle, edge_names: &'static [&'static str]) -> Self {
        Watchdog {
            threshold,
            last_progress: 0,
            last_instrs: 0,
            edges: edge_names
                .iter()
                .map(|&name| EdgeProgress {
                    name,
                    moves: 0,
                    last_move: None,
                })
                .collect(),
        }
    }

    pub fn threshold(&self) -> Cycle {
        self.threshold
    }

    /// A packet crossed edge `edge` this cycle.
    #[inline]
    pub fn note_move(&mut self, now: Cycle, edge: usize) {
        self.last_progress = now;
        let e = &mut self.edges[edge];
        e.moves += 1;
        e.last_move = Some(now);
    }

    /// Periodic instruction-retirement snapshot: counts as progress when
    /// the total grew since the last snapshot.
    pub fn note_instrs(&mut self, now: Cycle, total_instrs: u64) {
        if total_instrs > self.last_instrs {
            self.last_instrs = total_instrs;
            self.last_progress = now;
        }
    }

    /// Cycles since the last progress, if it meets the threshold.
    pub fn stalled_for(&self, now: Cycle) -> Option<Cycle> {
        let idle = now.saturating_sub(self.last_progress);
        (idle >= self.threshold).then_some(idle)
    }

    pub fn edges(&self) -> &[EdgeProgress] {
        &self.edges
    }
}

// Edge names are static fabric labels, supplied again by `Watchdog::new`.
crate::snap_state!(EdgeProgress { moves, last_move; derived: name });
crate::snap_state!(Watchdog { threshold, last_progress, last_instrs, edges [each] });

/// Depth of one named queue at stall time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueueDepth {
    pub name: String,
    pub depth: usize,
}

/// One credit pool's balance at stall time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CreditBalance {
    pub pool: String,
    pub in_use: usize,
    pub capacity: usize,
}

/// One in-flight offload token and where it is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TokenInFlight {
    pub token: u64,
    pub state: String,
}

/// One protocol counter snapshot (from the invariant engine).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSnapshot {
    pub name: &'static str,
    pub value: u64,
}

/// Structured explanation of a forward-progress stall, attached to
/// `RunResult` when the watchdog aborts a run.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct StallReport {
    /// Cycle at which the watchdog fired.
    pub cycle: Cycle,
    /// Cycles since the last observed progress.
    pub stalled_for: Cycle,
    /// The configured no-progress threshold.
    pub threshold: Cycle,
    /// Movement history of every fabric edge.
    pub edges: Vec<EdgeProgress>,
    /// Every non-empty queue in the machine, by name.
    pub queues: Vec<QueueDepth>,
    /// Credit pools with outstanding reservations.
    pub credits: Vec<CreditBalance>,
    /// Offload tokens still in flight, with lifecycle state.
    pub tokens: Vec<TokenInFlight>,
    /// Protocol-counter snapshot from the invariant engine.
    pub protocol: Vec<CounterSnapshot>,
    /// Human-readable wait-for summary: what each starved component or
    /// resource is blocked on.
    pub wait_for: Vec<String>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== STALL at cycle {} (no progress for {} cycles, threshold {}) ===",
            self.cycle, self.stalled_for, self.threshold
        )?;
        writeln!(f, "wait-for:")?;
        for w in &self.wait_for {
            writeln!(f, "  - {w}")?;
        }
        if !self.queues.is_empty() {
            writeln!(f, "non-empty queues:")?;
            for q in &self.queues {
                writeln!(f, "  {:<28} {}", q.name, q.depth)?;
            }
        }
        if !self.credits.is_empty() {
            writeln!(f, "credit pools with outstanding entries:")?;
            for c in &self.credits {
                writeln!(f, "  {:<28} {}/{} in use", c.pool, c.in_use, c.capacity)?;
            }
        }
        if !self.tokens.is_empty() {
            writeln!(f, "in-flight offload tokens:")?;
            for t in &self.tokens {
                writeln!(f, "  {:#014x}  {}", t.token, t.state)?;
            }
        }
        if !self.protocol.is_empty() {
            writeln!(f, "protocol counters:")?;
            for c in &self.protocol {
                writeln!(f, "  {:<28} {}", c.name, c.value)?;
            }
        }
        writeln!(f, "edge movement (moves, last move cycle):")?;
        for e in &self.edges {
            match e.last_move {
                Some(c) => writeln!(f, "  {:<20} {:>10}  last {}", e.name, e.moves, c)?,
                None => writeln!(f, "  {:<20} {:>10}  never", e.name, e.moves)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: &[&str] = &["a", "b"];

    #[test]
    fn fires_only_after_threshold_without_progress() {
        let mut w = Watchdog::new(100, EDGES);
        w.note_move(50, 0);
        assert_eq!(w.stalled_for(149), None);
        assert_eq!(w.stalled_for(150), Some(100));
        w.note_move(150, 1);
        assert_eq!(w.stalled_for(249), None);
        assert_eq!(w.edges()[1].moves, 1);
        assert_eq!(w.edges()[1].last_move, Some(150));
    }

    #[test]
    fn instruction_retirement_counts_as_progress() {
        let mut w = Watchdog::new(100, EDGES);
        w.note_instrs(90, 5);
        assert_eq!(w.stalled_for(189), None);
        // Same total again: not progress.
        w.note_instrs(189, 5);
        assert_eq!(w.stalled_for(190), Some(100));
        // Growth is progress.
        w.note_instrs(190, 6);
        assert_eq!(w.stalled_for(289), None);
    }

    #[test]
    fn report_renders_all_sections() {
        let r = StallReport {
            cycle: 9000,
            stalled_for: 4096,
            threshold: 4096,
            edges: vec![EdgeProgress {
                name: "sm_out",
                moves: 12,
                last_move: Some(4904),
            }],
            queues: vec![QueueDepth {
                name: "sm0.out".into(),
                depth: 3,
            }],
            credits: vec![CreditBalance {
                pool: "hmc0.cmd".into(),
                in_use: 2,
                capacity: 2,
            }],
            tokens: vec![TokenInFlight {
                token: 0x42,
                state: "WaitAck (SM side)".into(),
            }],
            protocol: vec![CounterSnapshot {
                name: "cmd_issued",
                value: 7,
            }],
            wait_for: vec!["sm0: 2 warps waiting on NSU buffer credits".into()],
        };
        let text = format!("{r}");
        for needle in [
            "STALL at cycle 9000",
            "sm0.out",
            "hmc0.cmd",
            "2/2 in use",
            "cmd_issued",
            "sm_out",
            "waiting on NSU buffer credits",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
