//! Structured simulation errors.
//!
//! Protocol bugs used to surface as bare `panic!`s scattered across the
//! crates, or as a silent `timed_out=true` after burning all the way to the
//! cycle cap. Every failure the fabric can detect is now a [`SimError`]
//! variant carrying the component, cycle, and packet context needed to
//! debug it — `System::run` returns `Result<RunResult, SimError>` and the
//! fabric propagates these from the routing table, the delivery paths, and
//! the invariant engine.

use std::fmt;

use crate::env::EnvError;
use crate::ids::{Cycle, Node};
use crate::packet::Packet;

/// A compact, owned description of a packet for error and stall reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSummary {
    pub src: Node,
    pub dst: Node,
    pub kind: &'static str,
    pub size: u32,
    pub birth: Cycle,
    pub token: Option<u64>,
}

impl PacketSummary {
    pub fn of(p: &Packet) -> Self {
        PacketSummary {
            src: p.src,
            dst: p.dst,
            kind: Packet::KIND_NAMES[p.kind_index()],
            size: p.size,
            birth: p.birth,
            token: p.token().map(|t| t.0),
        }
    }
}

impl fmt::Display for PacketSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:?}->{:?} ({} B, born {}",
            self.kind, self.src, self.dst, self.size, self.birth
        )?;
        if let Some(t) = self.token {
            write!(f, ", token {t:#x}")?;
        }
        write!(f, ")")
    }
}

/// Everything that can go structurally wrong in a simulation run.
///
/// Timeouts and watchdog stalls are *not* errors — they come back as
/// `Ok(RunResult)` with `timed_out=true` (and a `StallReport` when the
/// watchdog fired). `SimError` is reserved for protocol violations the
/// machine model itself forbids.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The routing table has no receiver for a packet at a transmit edge.
    Unroutable {
        edge: &'static str,
        cycle: Cycle,
        packet: PacketSummary,
    },
    /// A component was handed a packet it cannot consume, or consuming it
    /// violated the component's protocol (buffer overflow past the credit
    /// bound, an ACK for an unknown warp, ...).
    BadDelivery {
        component: String,
        cycle: Cycle,
        packet: PacketSummary,
        detail: String,
    },
    /// A protocol invariant failed (CMD/ACK pairing, RDF conservation,
    /// per-token lifecycle legality, credit conservation at drain).
    InvariantViolation { cycle: Cycle, detail: String },
    /// The system drained but NSU buffer credits were never returned.
    CreditLeak {
        cycle: Cycle,
        cmd: usize,
        read: usize,
        write: usize,
    },
    /// No address in the searched range decodes to the requested stack and
    /// vault under the page map.
    NoAddrForVault {
        hmc: u8,
        vault: u8,
        pages_searched: u64,
    },
    /// A workload kernel failed ISA validation.
    InvalidKernel { name: String, detail: String },
    /// The static partition verifier (Pass 1) rejected an offload-block
    /// annotation at construction time. `location` names the block and item
    /// range, `detail` the failed check.
    BadPartition {
        kernel: String,
        location: String,
        detail: String,
    },
    /// The static fabric-graph checker (Pass 2) found the lifted pipeline
    /// ill-formed (unroutable kind, dead-end delivery, unpaired credit
    /// pool, or a bounded wait-for cycle).
    BadFabric { check: &'static str, detail: String },
    /// A checkpoint could not be restored: corrupt bytes (bad magic,
    /// checksum mismatch, truncation), an incompatible schema version, or
    /// a config/kernel fingerprint that does not match the machine the
    /// restore was attempted on. `check` names the failed gate, `detail`
    /// carries the byte-level context. Restores never panic and never
    /// resume silently wrong.
    BadCheckpoint { check: &'static str, detail: String },
    /// An `NDP_*` environment variable was refused while reading the run
    /// options: unknown (misspelled or retired), malformed, or set without
    /// the variable it needs.
    BadEnv(EnvError),
}

impl From<EnvError> for SimError {
    fn from(e: EnvError) -> Self {
        SimError::BadEnv(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unroutable {
                edge,
                cycle,
                packet,
            } => write!(
                f,
                "cycle {cycle}: unroutable packet at edge {edge}: {packet}"
            ),
            SimError::BadDelivery {
                component,
                cycle,
                packet,
                detail,
            } => write!(f, "cycle {cycle}: {component}: {detail} ({packet})"),
            SimError::InvariantViolation { cycle, detail } => {
                write!(f, "cycle {cycle}: protocol invariant violated: {detail}")
            }
            SimError::CreditLeak {
                cycle,
                cmd,
                read,
                write,
            } => write!(
                f,
                "cycle {cycle}: credit leak at drain: {cmd} cmd / {read} read / {write} write \
                 entries never returned"
            ),
            SimError::NoAddrForVault {
                hmc,
                vault,
                pages_searched,
            } => write!(
                f,
                "no address decodes to hmc {hmc} vault {vault} in the first {pages_searched} pages"
            ),
            SimError::InvalidKernel { name, detail } => {
                write!(f, "kernel {name} invalid: {detail}")
            }
            SimError::BadPartition {
                kernel,
                location,
                detail,
            } => write!(
                f,
                "kernel {kernel}: offload partition invalid at {location}: {detail}"
            ),
            SimError::BadFabric { check, detail } => {
                write!(f, "fabric graph invalid [{check}]: {detail}")
            }
            SimError::BadCheckpoint { check, detail } => {
                write!(f, "checkpoint rejected [{check}]: {detail}")
            }
            SimError::BadEnv(e) => write!(f, "environment rejected: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    #[test]
    fn summary_carries_token_and_kind() {
        let p = Packet::new(
            Node::Sm(3),
            Node::Nsu(1),
            42,
            PacketKind::NsuWriteAck {
                token: crate::ids::OffloadToken(0xbeef),
            },
        );
        let s = PacketSummary::of(&p);
        assert_eq!(s.kind, "NsuWriteAck");
        assert_eq!(s.token, Some(0xbeef));
        assert_eq!(s.birth, 42);
        let text = format!("{s}");
        assert!(text.contains("NsuWriteAck"), "{text}");
        assert!(text.contains("0xbeef"), "{text}");
    }

    #[test]
    fn errors_render_with_context() {
        let p = Packet::new(
            Node::Sm(0),
            Node::BufMgr,
            7,
            PacketKind::WriteAck { addr: 0, tag: 0 },
        );
        let e = SimError::Unroutable {
            edge: "sm_out",
            cycle: 9,
            packet: PacketSummary::of(&p),
        };
        let text = format!("{e}");
        assert!(
            text.contains("sm_out") && text.contains("cycle 9"),
            "{text}"
        );
        let e = SimError::CreditLeak {
            cycle: 1,
            cmd: 2,
            read: 0,
            write: 5,
        };
        assert!(format!("{e}").contains("2 cmd"));
    }
}
