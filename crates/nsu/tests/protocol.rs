//! Property tests: the NSU protocol state machine under randomized packet
//! arrival orders.

use ndp_common::config::SystemConfig;
use ndp_common::ids::{HmcId, Node, OffloadId, OffloadToken};
use ndp_common::packet::{LineAccess, Packet, PacketKind};
use ndp_isa::instr::Reg;
use ndp_isa::offload::{InstrRole, NsuInstr, OffloadBlock};
use ndp_nsu::Nsu;
use proptest::prelude::*;
use std::sync::Arc;

fn block() -> OffloadBlock {
    OffloadBlock {
        id: 0,
        start: 0,
        end: 2,
        roles: vec![InstrRole::Load, InstrRole::Store],
        live_in: vec![],
        live_out: vec![],
        nsu_code: vec![
            NsuInstr::Begin { regs_in: 0 },
            NsuInstr::Ld { dst: Reg(1) },
            NsuInstr::St { src: Reg(1) },
            NsuInstr::End { regs_out: 0 },
        ],
        nsu_pc: 0xd00,
        score: 1,
        indirect: false,
    }
}

fn cmd(token: u64) -> Packet {
    Packet::new(
        Node::Sm(0),
        Node::Nsu(0),
        0,
        PacketKind::OffloadCmd {
            token: OffloadToken(token),
            id: OffloadId {
                sm: 0,
                warp: 0,
                seq: 0,
            },
            nsu_pc: 0xd00,
            regs_in: 0,
            active: 32,
            mask: u32::MAX,
            n_loads: 1,
            n_stores: 1,
        },
    )
}

fn rdf_resp(token: u64, lanes: std::ops::Range<u8>) -> Packet {
    Packet::new(
        Node::Vault(0, 0),
        Node::Nsu(0),
        0,
        PacketKind::RdfResp {
            token: OffloadToken(token),
            seq: 0,
            access: LineAccess {
                line: 0x1000,
                mask: lanes.fold(0, |m, l| m | 1 << l),
                misaligned: false,
            },
        },
    )
}

fn wta(token: u64) -> Packet {
    Packet::new(
        Node::Sm(0),
        Node::Nsu(0),
        0,
        PacketKind::Wta {
            token: OffloadToken(token),
            seq: 1,
            access: LineAccess {
                line: 0x2000,
                mask: u32::MAX,
                misaligned: false,
            },
            target: Node::Nsu(0),
            n_accesses: 1,
        },
    )
}

proptest! {
    /// Whatever order the CMD / split RDF responses / WTA arrive in, the
    /// block completes exactly once, all credits return, and the write is
    /// issued exactly once.
    #[test]
    fn any_arrival_order_completes(order in Just(()).prop_perturb(|_, mut rng| {
        let mut idx: Vec<usize> = (0..4).collect();
        // Fisher–Yates with the proptest RNG.
        for i in (1..idx.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            idx.swap(i, j);
        }
        idx
    })) {
        let mut nsu = Nsu::new(HmcId(0), &SystemConfig::default(), Arc::new(vec![block()]));
        let packets: Vec<Packet> = vec![
            cmd(7),
            rdf_resp(7, 0..16),
            rdf_resp(7, 16..32),
            wta(7),
        ];
        for &i in &order {
            nsu.deliver(0, packets[i].clone()).unwrap();
        }
        let mut writes = 0;
        let mut acks = 0;
        for now in 0..10_000u64 {
            nsu.tick(now);
            while let Some(p) = nsu.out.pop_front() {
                match p.kind {
                    PacketKind::NsuWrite { token, .. } => {
                        writes += 1;
                        nsu.deliver(
                            now,
                            Packet::new(p.dst, Node::Nsu(0), now, PacketKind::NsuWriteAck { token }),
                        )
                        .unwrap();
                    }
                    PacketKind::OffloadAck { .. } => acks += 1,
                    ref other => prop_assert!(false, "unexpected {other:?}"),
                }
            }
            if acks == 1 {
                break;
            }
        }
        prop_assert_eq!(writes, 1);
        prop_assert_eq!(acks, 1);
        prop_assert!(!nsu.busy());
        let c = nsu.take_credits();
        prop_assert_eq!((c.cmd, c.read, c.write), (1, 1, 1));
    }
}
