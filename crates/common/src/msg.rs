//! Coherence message classes and their on-wire sizes.
//!
//! The paper reports interconnect traffic in *total bytes communicated*
//! (Figures 2, 3). Every protocol action in the simulator enumerates the
//! messages it puts on the network; the NoC model sums their byte sizes.
//!
//! Sizing follows the usual convention: a control message is one 8-byte flit
//! header (address + opcode + ids), a data message is header + 64-byte block.
//! The ZeroDEV eviction notices that carry the low `3 + log2(N)` (or
//! `4 + N`) reconstruction bits of a fused block are one byte larger than a
//! plain control message — the "negligible overhead" the paper describes.

/// The class of a coherence / memory message, used for traffic accounting.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgClass {
    /// Core request to the home LLC bank (GetS / GetX / Upgrade).
    Request,
    /// Home forwarding a request to an owner or sharer core.
    Forward,
    /// Invalidation sent to a sharer core.
    Invalidation,
    /// Dataless acknowledgement (inv-ack, busy-clear, upgrade response).
    Ack,
    /// Data response carrying a full cache block.
    Data,
    /// Clean eviction notice from a core (E or S state, dataless).
    EvictNotice,
    /// Clean eviction notice carrying fused-block reconstruction bits
    /// (ZeroDEV: E-state evictions, and last-sharer retrieval in FuseAll).
    EvictNoticeBits,
    /// Dirty writeback from a core carrying the full block.
    Writeback,
    /// LLC-to-memory-controller read request.
    MemRead,
    /// Memory-controller-to-LLC read data.
    MemReadData,
    /// LLC-to-memory-controller write (block writeback).
    MemWrite,
    /// ZeroDEV directory-entry writeback to home memory (WB_DE, carries a
    /// prepared 64-byte block with the entry in the source socket's segment).
    WbDirEntry,
    /// ZeroDEV directory-entry read request to home memory (GET_DE).
    GetDirEntry,
    /// "Directory entry not found" negative acknowledgement (DENF_NACK).
    DenfNack,
    /// Inter-socket request/response control traffic.
    SocketCtrl,
    /// Inter-socket data traffic (full block).
    SocketData,
}

/// All message classes, in a stable order (for printing traffic breakdowns).
pub const ALL_CLASSES: [MsgClass; 16] = [
    MsgClass::Request,
    MsgClass::Forward,
    MsgClass::Invalidation,
    MsgClass::Ack,
    MsgClass::Data,
    MsgClass::EvictNotice,
    MsgClass::EvictNoticeBits,
    MsgClass::Writeback,
    MsgClass::MemRead,
    MsgClass::MemReadData,
    MsgClass::MemWrite,
    MsgClass::WbDirEntry,
    MsgClass::GetDirEntry,
    MsgClass::DenfNack,
    MsgClass::SocketCtrl,
    MsgClass::SocketData,
];

impl MsgClass {
    /// Bytes in one control flit header (address + opcode + ids): the size of
    /// every dataless message.
    pub const CTRL_BYTES: u64 = 8;
    /// Bytes in the payload of a data-carrying message: one cache block.
    pub const BLOCK_BYTES: u64 = 64;
    /// Bytes in a full data message: header plus one cache block.
    pub const DATA_BYTES: u64 = Self::CTRL_BYTES + Self::BLOCK_BYTES;
    /// Bytes in a ZeroDEV eviction notice that carries fused-block
    /// reconstruction bits: one byte more than a plain control message.
    pub const EVICT_BITS_BYTES: u64 = Self::CTRL_BYTES + 1;

    /// On-wire size of one message of this class, in bytes.
    ///
    /// ```
    /// use zerodev_common::MsgClass;
    /// assert_eq!(MsgClass::Request.bytes(), MsgClass::CTRL_BYTES);
    /// assert_eq!(MsgClass::Data.bytes(), MsgClass::DATA_BYTES);
    /// assert!(MsgClass::EvictNoticeBits.bytes() > MsgClass::EvictNotice.bytes());
    /// ```
    pub fn bytes(self) -> u64 {
        match self {
            MsgClass::Request
            | MsgClass::Forward
            | MsgClass::Invalidation
            | MsgClass::Ack
            | MsgClass::EvictNotice
            | MsgClass::MemRead
            | MsgClass::GetDirEntry
            | MsgClass::DenfNack
            | MsgClass::SocketCtrl => Self::CTRL_BYTES,
            MsgClass::EvictNoticeBits => Self::EVICT_BITS_BYTES,
            MsgClass::Data
            | MsgClass::Writeback
            | MsgClass::MemReadData
            | MsgClass::MemWrite
            | MsgClass::WbDirEntry
            | MsgClass::SocketData => Self::DATA_BYTES,
        }
    }

    /// A short stable label for printing.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Request => "req",
            MsgClass::Forward => "fwd",
            MsgClass::Invalidation => "inv",
            MsgClass::Ack => "ack",
            MsgClass::Data => "data",
            MsgClass::EvictNotice => "evict",
            MsgClass::EvictNoticeBits => "evict+b",
            MsgClass::Writeback => "wb",
            MsgClass::MemRead => "mrd",
            MsgClass::MemReadData => "mrd-d",
            MsgClass::MemWrite => "mwr",
            MsgClass::WbDirEntry => "wb_de",
            MsgClass::GetDirEntry => "get_de",
            MsgClass::DenfNack => "denf",
            MsgClass::SocketCtrl => "sk-c",
            MsgClass::SocketData => "sk-d",
        }
    }

    /// Index of this class within [`ALL_CLASSES`].
    pub fn index(self) -> usize {
        ALL_CLASSES
            .iter()
            .position(|&c| c == self)
            .expect("class listed")
    }

    /// Virtual-network rank for deadlock analysis (DESIGN.md §12).
    ///
    /// Serving a message may only generate messages of equal or higher
    /// rank, so a full network always drains toward the response VN:
    /// 0 = core-originated requests and notices, 1 = home-generated
    /// probes, 2 = memory commands, 3 = responses. `zerodev-lint` parses
    /// this table and checks the extracted consumes→emits graph against
    /// it. No edge descends: a `DenfNack` is served by H's resend with the
    /// entry (`SocketData`, rank 3).
    pub const fn vnet(self) -> u8 {
        match self {
            MsgClass::Request
            | MsgClass::EvictNotice
            | MsgClass::EvictNoticeBits
            | MsgClass::Writeback => 0,
            MsgClass::Forward | MsgClass::Invalidation | MsgClass::SocketCtrl => 1,
            MsgClass::MemRead
            | MsgClass::MemWrite
            | MsgClass::GetDirEntry
            | MsgClass::WbDirEntry => 2,
            MsgClass::Data
            | MsgClass::Ack
            | MsgClass::MemReadData
            | MsgClass::SocketData
            | MsgClass::DenfNack => 3,
        }
    }
}

/// Compile-time exhaustiveness guard for [`ALL_CLASSES`]: the match below
/// is exhaustive over `MsgClass`, so adding a variant without extending
/// (and correctly ordering) the dispatch table fails this constant's
/// evaluation instead of silently skipping the new class in traffic
/// breakdowns.
const fn variant_ordinal(c: MsgClass) -> usize {
    match c {
        MsgClass::Request => 0,
        MsgClass::Forward => 1,
        MsgClass::Invalidation => 2,
        MsgClass::Ack => 3,
        MsgClass::Data => 4,
        MsgClass::EvictNotice => 5,
        MsgClass::EvictNoticeBits => 6,
        MsgClass::Writeback => 7,
        MsgClass::MemRead => 8,
        MsgClass::MemReadData => 9,
        MsgClass::MemWrite => 10,
        MsgClass::WbDirEntry => 11,
        MsgClass::GetDirEntry => 12,
        MsgClass::DenfNack => 13,
        MsgClass::SocketCtrl => 14,
        MsgClass::SocketData => 15,
    }
}

const _: () = {
    assert!(ALL_CLASSES.len() == variant_ordinal(MsgClass::SocketData) + 1);
    let mut i = 0;
    while i < ALL_CLASSES.len() {
        assert!(
            variant_ordinal(ALL_CLASSES[i]) == i,
            "ALL_CLASSES must list every MsgClass exactly once, in declaration order"
        );
        i += 1;
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_sane() {
        for c in ALL_CLASSES {
            assert!(c.bytes() >= 8, "{c:?} too small");
            assert!(!c.label().is_empty());
        }
        assert_eq!(MsgClass::Data.bytes(), 72);
    }

    #[test]
    fn evict_bits_overhead_is_one_byte() {
        assert_eq!(
            MsgClass::EvictNoticeBits.bytes() - MsgClass::EvictNotice.bytes(),
            1
        );
    }

    #[test]
    fn indexing_round_trips() {
        for (i, c) in ALL_CLASSES.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn vnet_ranks_cover_expected_networks() {
        // Rank 0 holds exactly the core-originated classes; responses are
        // all top-rank so they can always sink at a core.
        assert_eq!(MsgClass::Request.vnet(), 0);
        assert_eq!(MsgClass::Writeback.vnet(), 0);
        assert_eq!(MsgClass::Forward.vnet(), 1);
        assert_eq!(MsgClass::MemRead.vnet(), 2);
        assert_eq!(MsgClass::Data.vnet(), 3);
        assert_eq!(MsgClass::DenfNack.vnet(), 3);
        for c in ALL_CLASSES {
            assert!(c.vnet() <= 3);
        }
    }
}
