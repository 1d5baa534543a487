//! Protocol event recording: the single tracing substrate.
//!
//! A [`TraceEvent`] is one packet observed at one of the system's routing
//! sites; an [`EventRing`] is a bounded recorder of them. The Fig. 2
//! walkthrough ([`EventRing::render_instance`]), the transaction-latency
//! tracker and the Chrome-trace exporter all consume this one event
//! stream — there is no second tracing path.

use serde::Serialize;

use crate::ids::{Cycle, Node, OffloadToken};
use crate::packet::Packet;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Where in the system a packet was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceSite {
    /// Ejected from an SM into the on-die interconnect.
    SmEject,
    /// Delivered up a GPU link into a stack's logic layer.
    GpuLinkUp,
    /// Handed from a stack's logic layer to its NSU.
    ToNsu,
    /// Emitted by an NSU back into its stack.
    FromNsu,
    /// Delivered down a GPU link to the GPU.
    GpuLinkDown,
}

impl TraceSite {
    pub fn name(&self) -> &'static str {
        match self {
            TraceSite::SmEject => "SM→icnt",
            TraceSite::GpuLinkUp => "link↑→HMC",
            TraceSite::ToNsu => "xbar→NSU",
            TraceSite::FromNsu => "NSU→xbar",
            TraceSite::GpuLinkDown => "link↓→GPU",
        }
    }

    /// ASCII identifier (Chrome-trace thread names, JSON keys).
    pub fn key(&self) -> &'static str {
        match self {
            TraceSite::SmEject => "sm_eject",
            TraceSite::GpuLinkUp => "gpu_link_up",
            TraceSite::ToNsu => "to_nsu",
            TraceSite::FromNsu => "from_nsu",
            TraceSite::GpuLinkDown => "gpu_link_down",
        }
    }

    /// Stable small index (Chrome-trace `tid` lanes).
    pub fn index(&self) -> u32 {
        match self {
            TraceSite::SmEject => 0,
            TraceSite::GpuLinkUp => 1,
            TraceSite::ToNsu => 2,
            TraceSite::FromNsu => 3,
            TraceSite::GpuLinkDown => 4,
        }
    }

    pub const ALL: [TraceSite; 5] = [
        TraceSite::SmEject,
        TraceSite::GpuLinkUp,
        TraceSite::ToNsu,
        TraceSite::FromNsu,
        TraceSite::GpuLinkDown,
    ];
}

/// One observed packet movement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    pub cycle: Cycle,
    pub site: TraceSite,
    pub src: Node,
    pub dst: Node,
    pub size: u32,
    pub kind: &'static str,
    /// Offload token, for NDP-protocol packets.
    pub token: Option<OffloadToken>,
}

/// Bounded event recorder (disabled ⇒ zero overhead beyond a branch).
/// Once `limit` events are held it keeps the first ones and counts the
/// rest, so a truncated trace says how much it lost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventRing {
    events: Vec<TraceEvent>,
    limit: usize,
    /// Events offered after the ring was full.
    dropped: u64,
}

impl EventRing {
    pub fn with_limit(limit: usize) -> Self {
        EventRing {
            events: Vec::with_capacity(limit.min(4096)),
            limit,
            dropped: 0,
        }
    }

    #[inline]
    pub fn is_on(&self) -> bool {
        self.limit > 0
    }

    #[inline]
    pub fn record(&mut self, cycle: Cycle, site: TraceSite, p: &Packet) {
        if !self.is_on() {
            return;
        }
        if self.events.len() >= self.limit {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            cycle,
            site,
            src: p.src,
            dst: p.dst,
            size: p.size,
            kind: Packet::KIND_NAMES[p.kind_index()],
            token: p.token(),
        });
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events offered while the ring was full, and so not recorded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All events belonging to one offload-block instance, in order.
    pub fn instance(&self, token: OffloadToken) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.token == Some(token))
            .collect()
    }

    /// The first offload token observed, if any.
    pub fn first_token(&self) -> Option<OffloadToken> {
        self.events.iter().find_map(|e| e.token)
    }

    /// Render one instance's message flow in the style of Fig. 2(b).
    pub fn render_instance(&self, token: OffloadToken) -> String {
        let mut out = format!(
            "offload instance {token:?} — partitioned-execution message flow (Fig. 2(b)):\n"
        );
        for (i, e) in self.instance(token).iter().enumerate() {
            out.push_str(&format!(
                "  {:>2}. cycle {:>6}  {:<11} {:<12} {:?} → {:?}  ({} B)\n",
                i + 1,
                e.cycle,
                e.site.name(),
                e.kind,
                e.src,
                e.dst,
                e.size
            ));
        }
        out
    }
}

crate::snap_value!(enum TraceSite {
    0 => SmEject,
    1 => GpuLinkUp,
    2 => ToNsu,
    3 => FromNsu,
    4 => GpuLinkDown,
});

/// `kind` travels as its index into [`Packet::KIND_NAMES`], so decoding
/// re-points it at the static name.
impl Snap for TraceEvent {
    fn encode(&self, w: &mut SnapWriter) {
        let TraceEvent {
            cycle,
            site,
            src,
            dst,
            size,
            kind,
            token,
        } = self;
        cycle.encode(w);
        site.encode(w);
        src.encode(w);
        dst.encode(w);
        size.encode(w);
        let ki = Packet::KIND_NAMES
            .iter()
            .position(|n| n == kind)
            .expect("event kind is a KIND_NAMES entry");
        w.u8(ki as u8);
        token.encode(w);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TraceEvent {
            cycle: Snap::decode(r)?,
            site: Snap::decode(r)?,
            src: Snap::decode(r)?,
            dst: Snap::decode(r)?,
            size: Snap::decode(r)?,
            kind: {
                let ki = r.u8()? as usize;
                Packet::KIND_NAMES
                    .get(ki)
                    .copied()
                    .ok_or_else(|| SnapError(format!("unknown packet kind index {ki}")))?
            },
            token: Snap::decode(r)?,
        })
    }
}

crate::snap_state!(EventRing {
    limit,
    events,
    dropped
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = EventRing::default();
        let p = Packet::new(
            Node::Sm(0),
            Node::L2(0),
            0,
            PacketKind::CacheInval { addr: 0 },
        );
        r.record(1, TraceSite::SmEject, &p);
        assert!(r.events().is_empty());
        assert!(!r.is_on());
    }

    #[test]
    fn limit_caps_recording() {
        let mut r = EventRing::with_limit(3);
        let p = Packet::new(
            Node::Sm(0),
            Node::L2(0),
            0,
            PacketKind::CacheInval { addr: 0 },
        );
        for i in 0..10 {
            r.record(i, TraceSite::SmEject, &p);
        }
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.dropped(), 7, "the surplus is counted, not lost");
        assert_eq!(r.events()[2].cycle, 2, "the first events are kept");
    }
}
