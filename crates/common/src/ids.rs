//! Identifier newtypes shared across the simulator.

use serde::Serialize;

/// Simulation time, measured in GPU SM cycles (700 MHz in the default
/// configuration). Other clock domains (DRAM at 666 MHz, NSU at 350/175 MHz)
/// are derived from this timebase with per-component dividers.
pub type Cycle = u64;

/// Streaming-multiprocessor index on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SmId(pub u16);

/// 3D-stacked memory device (HMC) index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HmcId(pub u8);

/// Vault index within an HMC (16 vaults per stack in the default config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VaultId(pub u8);

/// The *offload packet ID* of Fig. 4: `(SM ID, warp ID, sequence number)`.
///
/// All partitioned-execution packets belonging to the same offload-block
/// instance share `sm`/`warp`; `seq` identifies the memory instruction
/// within the block (the command packet and the first load/store use 0, each
/// subsequent memory instruction increments it, §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OffloadId {
    pub sm: u16,
    pub warp: u16,
    pub seq: u16,
}

/// A unique token for one *instance* of an offload block.
///
/// The architectural identifier is [`OffloadId`]; the token is the
/// simulator-internal handle (strictly increasing, never reused) used to
/// index in-flight offload state without worrying about (sm, warp) reuse
/// across completed blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct OffloadToken(pub u64);

/// Addressable endpoints of the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Node {
    /// A GPU streaming multiprocessor.
    Sm(u16),
    /// The L2 cache slice associated with GPU↔HMC link `n` (one per HMC).
    L2(u8),
    /// The logic-layer crossbar of HMC `n` (routing entity of a stack).
    Hmc(u8),
    /// A vault controller: (hmc, vault).
    Vault(u8, u8),
    /// The near-data-processing SIMD unit on the logic layer of HMC `n`.
    Nsu(u8),
    /// The GPU-side NDP buffer manager (credit bookkeeping, §4.3).
    BufMgr,
}

impl Node {
    /// The HMC a node physically lives in, if any.
    pub fn hmc(&self) -> Option<HmcId> {
        match *self {
            Node::Hmc(h) | Node::Vault(h, _) | Node::Nsu(h) => Some(HmcId(h)),
            _ => None,
        }
    }

    /// True for nodes located on the GPU die.
    pub fn on_gpu(&self) -> bool {
        matches!(self, Node::Sm(_) | Node::L2(_) | Node::BufMgr)
    }
}

crate::snap_value!(HmcId(u8));
crate::snap_value!(OffloadId { sm, warp, seq });
crate::snap_value!(OffloadToken(u64));
crate::snap_value!(enum Node {
    0 => Sm(i),
    1 => L2(i),
    2 => Hmc(i),
    3 => Vault(h, v),
    4 => Nsu(i),
    5 => BufMgr,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_hmc_extraction() {
        assert_eq!(Node::Vault(3, 7).hmc(), Some(HmcId(3)));
        assert_eq!(Node::Nsu(5).hmc(), Some(HmcId(5)));
        assert_eq!(Node::Hmc(1).hmc(), Some(HmcId(1)));
        assert_eq!(Node::Sm(0).hmc(), None);
        assert_eq!(Node::L2(2).hmc(), None);
    }

    #[test]
    fn node_gpu_location() {
        assert!(Node::Sm(12).on_gpu());
        assert!(Node::L2(0).on_gpu());
        assert!(Node::BufMgr.on_gpu());
        assert!(!Node::Hmc(0).on_gpu());
        assert!(!Node::Vault(0, 0).on_gpu());
        assert!(!Node::Nsu(0).on_gpu());
    }
}
