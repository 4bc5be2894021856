//! The PANIC lightweight chain header.
//!
//! §3.1.2: "When a message is processed by the RMT pipeline, instead of
//! only looking up the next hop, a chain of engine destinations is found
//! and added as a lightweight message header. These addresses are then
//! matched on at each engine without requiring an additional heavyweight
//! pipeline traversal."
//!
//! The chain header is the keystone of the logical switch: it is what
//! lets a message hop engine→engine over the on-chip network while only
//! paying the heavyweight pipeline's latency once. It carries, per hop,
//! the destination [`EngineId`] and the [`Slack`] budget the logical
//! scheduler uses to order competing messages (§3.1.3).
//!
//! The header has a real wire encoding because it occupies real channel
//! bytes: on-NIC bandwidth accounting (Table 3) must include it.

use std::fmt;

/// The on-NIC address of an engine: a tile in the on-chip network.
///
/// `EngineId` is a *logical* address; the NoC maps it to mesh
/// coordinates. Keeping the two separate lets the same chain program run
/// on any topology/placement (one of the paper's §6 open questions).
///
/// ## Remote addresses (rack fabric)
///
/// A chain hop may target an engine on *another* NIC in a rack fabric
/// (§5: RDMA-style remote engine hops). Remote addresses reuse the
/// same 16 bits — and therefore the same 6-byte wire encoding — by
/// carving the id space:
///
/// ```text
/// bit 15      : remote flag (0 = local tile, 1 = fabric address)
/// bits 14..10 : destination NIC index within the fabric (0..=31)
/// bits  9..0  : engine id local to that NIC           (0..=1023)
/// ```
///
/// Local NICs never allocate ids with bit 15 set (tile ids count up
/// from zero), so a remote address can never collide with a local
/// tile. See `docs/FABRIC.md` for the full remote-hop lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EngineId(pub u16);

impl EngineId {
    /// Remote-address flag bit.
    const REMOTE_BIT: u16 = 0x8000;
    /// Bit offset of the NIC index within a remote address.
    const NIC_SHIFT: u16 = 10;
    /// Largest NIC index a remote address can carry (5 bits).
    pub const MAX_FABRIC_NIC: usize = 31;
    /// Largest local engine id a remote address can carry (10 bits).
    pub const MAX_REMOTE_LOCAL: u16 = 0x3FF;

    /// The fabric address of engine `local` on fabric member `nic`.
    ///
    /// # Panics
    /// If `nic` exceeds [`EngineId::MAX_FABRIC_NIC`], or `local` is
    /// itself remote or exceeds [`EngineId::MAX_REMOTE_LOCAL`] — both
    /// statically preventable (the PV701 lint checks fabric specs).
    #[must_use]
    pub fn remote(nic: usize, local: EngineId) -> EngineId {
        assert!(
            nic <= Self::MAX_FABRIC_NIC,
            "fabric NIC index {nic} exceeds {}",
            Self::MAX_FABRIC_NIC
        );
        assert!(
            local.0 <= Self::MAX_REMOTE_LOCAL,
            "engine id {local} does not fit a remote address"
        );
        EngineId(Self::REMOTE_BIT | ((nic as u16) << Self::NIC_SHIFT) | local.0)
    }

    /// True when this address targets an engine on another NIC.
    #[must_use]
    pub fn is_remote(self) -> bool {
        self.0 & Self::REMOTE_BIT != 0
    }

    /// The fabric member index of a remote address, `None` for local.
    #[must_use]
    pub fn remote_nic(self) -> Option<usize> {
        self.is_remote()
            .then_some(usize::from((self.0 >> Self::NIC_SHIFT) & 0x1F))
    }

    /// The NIC-local engine id, with any remote addressing stripped.
    /// Identity for local addresses.
    #[must_use]
    pub fn local_part(self) -> EngineId {
        EngineId(self.0 & Self::MAX_REMOTE_LOCAL)
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.remote_nic() {
            Some(nic) => write!(f, "E{}@N{nic}", self.local_part().0),
            None => write!(f, "E{}", self.0),
        }
    }
}

/// Broad classes of engine, mirroring Figure 3c's tile legend. Used for
/// placement, for reporting, and by workloads that address "any engine
/// of class X".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineClass {
    /// Ethernet MAC + PHY port.
    EthernetPort,
    /// RMT pipeline segment (heavyweight pipeline tile).
    Rmt,
    /// DMA engine (host memory reads/writes).
    Dma,
    /// PCIe engine (doorbells, interrupts).
    Pcie,
    /// Embedded CPU core.
    Core,
    /// FPGA region.
    Fpga,
    /// Fixed-function ASIC offload.
    Asic,
    /// RDMA engine.
    Rdma,
}

impl fmt::Display for EngineClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineClass::EthernetPort => "eth",
            EngineClass::Rmt => "rmt",
            EngineClass::Dma => "dma",
            EngineClass::Pcie => "pcie",
            EngineClass::Core => "core",
            EngineClass::Fpga => "fpga",
            EngineClass::Asic => "asic",
            EngineClass::Rdma => "rdma",
        };
        f.write_str(s)
    }
}

/// A slack budget in cycles: how long this message can afford to wait at
/// the engine before it risks missing its end-to-end deadline.
///
/// Smaller slack = more urgent. Computed by the RMT pipeline (§3.1.3)
/// and consumed by each engine's local priority queue — the
/// Least-Slack-Time-First discipline of Mittal et al. \[25\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slack(pub u32);

impl Slack {
    /// Effectively-infinite slack: bulk traffic that never preempts.
    pub const BULK: Slack = Slack(u32::MAX);
    /// Zero slack: must go next.
    pub const URGENT: Slack = Slack(0);

    /// Consumes `waited` cycles of budget, saturating at zero.
    #[must_use]
    pub fn spend(self, waited: u32) -> Slack {
        if self == Slack::BULK {
            // Bulk never becomes urgent by waiting.
            Slack::BULK
        } else {
            Slack(self.0.saturating_sub(waited))
        }
    }
}

impl fmt::Display for Slack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Slack::BULK {
            f.write_str("bulk")
        } else {
            write!(f, "{}cy", self.0)
        }
    }
}

/// One hop in an offload chain: destination engine plus the slack budget
/// at that engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Which engine processes the message at this step.
    pub engine: EngineId,
    /// Slack budget at that engine.
    pub slack: Slack,
}

/// Chain capacity, as a module const so the inline array below can name
/// it; re-exported as [`ChainHeader::MAX_HOPS`].
const MAX_HOPS: usize = 16;

/// Filler value for unused inline slots — never observable through the
/// public API, which only ever exposes `hops[..len]`.
const FILLER: Hop = Hop {
    engine: EngineId(0),
    slack: Slack::BULK,
};

/// The chain header: an ordered list of hops and a cursor.
///
/// The cursor (`next`) is advanced by each engine's local lookup table
/// after it finishes processing; when the cursor passes the last hop the
/// chain is complete. A chain may end with an RMT engine as its last
/// hop — that is how "the RMT pipeline includes itself as a nexthop...so
/// that it can generate the remainder of the chain" (§3.1.2) is encoded.
///
/// Hops are stored **inline** (a fixed `[Hop; MAX_HOPS]` array, mirroring
/// the fixed-size header a real NIC would carve out of the message) so
/// that building, cloning, and dropping a chain never touches the heap —
/// a requirement of the zero-allocation steady-state tick loop (see
/// `docs/PERF.md`). Equality and `Debug` consider only the live prefix.
#[derive(Clone)]
pub struct ChainHeader {
    hops: [Hop; MAX_HOPS],
    len: u8,
    next: u8,
}

impl Default for ChainHeader {
    fn default() -> ChainHeader {
        ChainHeader {
            hops: [FILLER; MAX_HOPS],
            len: 0,
            next: 0,
        }
    }
}

impl PartialEq for ChainHeader {
    fn eq(&self, other: &ChainHeader) -> bool {
        self.next == other.next && self.hops() == other.hops()
    }
}

impl Eq for ChainHeader {}

impl fmt::Debug for ChainHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChainHeader")
            .field("hops", &self.hops())
            .field("next", &self.next)
            .finish()
    }
}

/// Chain parse/validity errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// Decoded byte stream was shorter than its own length field claims.
    Truncated,
    /// A chain longer than [`ChainHeader::MAX_HOPS`] was requested.
    TooLong,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Truncated => f.write_str("chain header truncated"),
            ChainError::TooLong => f.write_str("chain exceeds MAX_HOPS"),
        }
    }
}

impl std::error::Error for ChainError {}

impl ChainHeader {
    /// Maximum chain length. Table 3's longest sustainable average chain
    /// is 8.80 hops; 16 gives headroom for explicit experiments beyond
    /// the sustainable point.
    pub const MAX_HOPS: usize = MAX_HOPS;

    /// Bytes per encoded hop: 2 (engine) + 4 (slack).
    pub const HOP_BYTES: usize = 6;
    /// Fixed bytes: 1 (hop count) + 1 (cursor).
    pub const FIXED_BYTES: usize = 2;

    /// An empty chain (message goes nowhere further).
    #[must_use]
    pub fn empty() -> ChainHeader {
        ChainHeader::default()
    }

    /// Builds a chain from hops (allocation-free: the slice is copied
    /// into the header's inline storage).
    ///
    /// # Errors
    /// [`ChainError::TooLong`] if more than [`Self::MAX_HOPS`] hops.
    pub fn from_slice(hops: &[Hop]) -> Result<ChainHeader, ChainError> {
        if hops.len() > Self::MAX_HOPS {
            return Err(ChainError::TooLong);
        }
        let mut h = ChainHeader::default();
        h.hops[..hops.len()].copy_from_slice(hops);
        h.len = hops.len() as u8;
        Ok(h)
    }

    /// Builds a chain from hops.
    ///
    /// # Errors
    /// [`ChainError::TooLong`] if more than [`Self::MAX_HOPS`] hops.
    pub fn new(hops: Vec<Hop>) -> Result<ChainHeader, ChainError> {
        ChainHeader::from_slice(&hops)
    }

    /// Convenience: a chain visiting `engines` in order, all with the
    /// same `slack`.
    pub fn uniform(engines: &[EngineId], slack: Slack) -> Result<ChainHeader, ChainError> {
        if engines.len() > Self::MAX_HOPS {
            return Err(ChainError::TooLong);
        }
        let mut h = ChainHeader::default();
        for (slot, &engine) in h.hops.iter_mut().zip(engines) {
            *slot = Hop { engine, slack };
        }
        h.len = engines.len() as u8;
        Ok(h)
    }

    /// The hop the message should travel to next, if any.
    #[must_use]
    pub fn current(&self) -> Option<Hop> {
        self.hops().get(usize::from(self.next)).copied()
    }

    /// Advances the cursor past the current hop (called by the engine's
    /// local lookup table when processing completes) and returns the new
    /// current hop.
    pub fn advance(&mut self) -> Option<Hop> {
        if self.next < self.len {
            self.next += 1;
        }
        self.current()
    }

    /// True when every hop has been visited.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.next >= self.len
    }

    /// Hops remaining (including the current one).
    #[must_use]
    pub fn remaining(&self) -> usize {
        usize::from(self.len - self.next)
    }

    /// Total hops in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True if the chain has no hops at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All hops (visited and pending).
    #[must_use]
    pub fn hops(&self) -> &[Hop] {
        &self.hops[..usize::from(self.len)]
    }

    /// Appends hops produced by a later pipeline pass (the "RMT includes
    /// itself as a nexthop" continuation pattern).
    ///
    /// # Errors
    /// [`ChainError::TooLong`] if the result would exceed `MAX_HOPS`.
    pub fn extend(&mut self, more: &[Hop]) -> Result<(), ChainError> {
        let len = usize::from(self.len);
        if len + more.len() > Self::MAX_HOPS {
            return Err(ChainError::TooLong);
        }
        self.hops[len..len + more.len()].copy_from_slice(more);
        self.len = (len + more.len()) as u8;
        Ok(())
    }

    /// Rewrites every *pending* hop (cursor position onward) addressed
    /// to `from` so it targets `to` instead, returning how many hops
    /// were rewritten. Visited hops are history and left untouched.
    ///
    /// This is the failover primitive: when the watchdog marks an
    /// engine DOWN, the remaining chain steps of affected messages are
    /// re-pointed at a live replica of the same offload type without a
    /// second heavyweight pipeline pass — the chain header stays the
    /// lightweight, locally-patchable structure §3.1.2 intends.
    pub fn rewrite_pending(&mut self, from: EngineId, to: EngineId) -> usize {
        let mut rewritten = 0;
        for hop in &mut self.hops[usize::from(self.next)..usize::from(self.len)] {
            if hop.engine == from {
                hop.engine = to;
                rewritten += 1;
            }
        }
        rewritten
    }

    /// Rewrites every *pending* remote hop addressed to member
    /// `from_nic` so it targets the same local engine on `to_nic`
    /// instead, returning how many hops were rewritten.
    ///
    /// This is the fabric-failover primitive: when a member NIC
    /// crashes, the ToR re-points the remaining chain steps of
    /// affected messages at a replica member that declares the same
    /// engine set — the member-level analogue of
    /// [`ChainHeader::rewrite_pending`]. Local hops and remote hops
    /// addressed to other members are untouched.
    pub fn rewrite_pending_nic(&mut self, from_nic: usize, to_nic: usize) -> usize {
        let mut rewritten = 0;
        for hop in &mut self.hops[usize::from(self.next)..usize::from(self.len)] {
            if hop.engine.remote_nic() == Some(from_nic) {
                hop.engine = EngineId::remote(to_nic, hop.engine.local_part());
                rewritten += 1;
            }
        }
        rewritten
    }

    /// Rewrites the *current* hop's engine to `to`, returning the old
    /// address. `None` (and no change) when the chain is complete.
    ///
    /// This is the fabric-ingress primitive: a message arriving over an
    /// inter-NIC link carries a remote-encoded current hop
    /// ([`EngineId::is_remote`]); the receiving NIC localizes exactly
    /// that hop before injecting the message into its own mesh. Only
    /// the current hop is touched — later hops may legitimately
    /// address *other* NICs (or re-address this one) and stay encoded
    /// until their own delivery.
    pub fn localize_current(&mut self, to: EngineId) -> Option<EngineId> {
        let hop = self.hops.get_mut(usize::from(self.next))?;
        if self.next >= self.len {
            return None;
        }
        let old = hop.engine;
        hop.engine = to;
        Some(old)
    }

    /// Size of the encoded header in bytes — this is charged against
    /// channel bandwidth when the message is flitted.
    ///
    /// Only *pending* hops ride the wire: each engine's local lookup
    /// table strips its own entry as it matches (§3.1.2), so messages
    /// shrink as they progress through their chains. Consumed hops are
    /// retained in memory for diagnostics but cost no bandwidth.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        Self::FIXED_BYTES + self.remaining() * Self::HOP_BYTES
    }

    /// Encodes the *pending* hops to bytes (count, reserved cursor
    /// byte, then per-hop engine + slack, all big-endian) — the wire
    /// representation after visited entries were stripped.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes());
        out.push(self.remaining() as u8);
        out.push(0);
        for hop in &self.hops[usize::from(self.next)..usize::from(self.len)] {
            out.extend_from_slice(&hop.engine.0.to_be_bytes());
            out.extend_from_slice(&hop.slack.0.to_be_bytes());
        }
        out
    }

    /// Decodes from bytes, returning the header and bytes consumed.
    pub fn decode(data: &[u8]) -> Result<(ChainHeader, usize), ChainError> {
        if data.len() < Self::FIXED_BYTES {
            return Err(ChainError::Truncated);
        }
        let count = data[0] as usize;
        let next = data[1] as usize;
        if count > Self::MAX_HOPS {
            return Err(ChainError::TooLong);
        }
        let need = Self::FIXED_BYTES + count * Self::HOP_BYTES;
        if data.len() < need {
            return Err(ChainError::Truncated);
        }
        let mut h = ChainHeader::default();
        for i in 0..count {
            let off = Self::FIXED_BYTES + i * Self::HOP_BYTES;
            let engine = EngineId(u16::from_be_bytes([data[off], data[off + 1]]));
            let slack = Slack(u32::from_be_bytes([
                data[off + 2],
                data[off + 3],
                data[off + 4],
                data[off + 5],
            ]));
            h.hops[i] = Hop { engine, slack };
        }
        h.len = count as u8;
        h.next = next.min(count) as u8;
        Ok((h, need))
    }
}

impl fmt::Display for ChainHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, hop) in self.hops().iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            if i == usize::from(self.next) {
                write!(f, "*")?;
            }
            write!(f, "{}", hop.engine)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_addresses_round_trip() {
        for nic in [0usize, 1, 17, 31] {
            for local in [0u16, 1, 511, 1023] {
                let addr = EngineId::remote(nic, EngineId(local));
                assert!(addr.is_remote());
                assert_eq!(addr.remote_nic(), Some(nic));
                assert_eq!(addr.local_part(), EngineId(local));
            }
        }
    }

    #[test]
    fn local_addresses_are_not_remote() {
        for id in [0u16, 1, 1023, 0x7FFF] {
            let e = EngineId(id);
            assert!(!e.is_remote());
            assert_eq!(e.remote_nic(), None);
        }
        // Ids below the remote-local mask localize to themselves.
        assert_eq!(EngineId(42).local_part(), EngineId(42));
    }

    #[test]
    fn remote_display_names_the_nic() {
        assert_eq!(EngineId::remote(3, EngineId(7)).to_string(), "E7@N3");
        assert_eq!(EngineId(7).to_string(), "E7");
    }

    #[test]
    #[should_panic(expected = "fabric NIC index")]
    fn remote_rejects_oversized_nic_index() {
        let _ = EngineId::remote(32, EngineId(0));
    }

    #[test]
    fn remote_hops_survive_the_wire_encoding() {
        let remote = EngineId::remote(2, EngineId(5));
        let mut h = ChainHeader::new(vec![
            Hop {
                engine: remote,
                slack: Slack(80),
            },
            Hop {
                engine: EngineId(3),
                slack: Slack(40),
            },
        ])
        .unwrap();
        let (decoded, _) = ChainHeader::decode(&h.encode()).unwrap();
        assert_eq!(decoded.hops()[0].engine, remote);
        assert!(decoded.hops()[0].engine.is_remote());

        // Fabric ingress: localize exactly the current hop.
        assert_eq!(h.localize_current(EngineId(5)), Some(remote));
        assert_eq!(h.current().unwrap().engine, EngineId(5));
        assert_eq!(h.hops()[1].engine, EngineId(3), "later hops untouched");
        h.advance();
        h.advance();
        assert_eq!(h.localize_current(EngineId(9)), None, "complete chain");
    }

    fn chain3() -> ChainHeader {
        ChainHeader::new(vec![
            Hop {
                engine: EngineId(4),
                slack: Slack(100),
            },
            Hop {
                engine: EngineId(9),
                slack: Slack(50),
            },
            Hop {
                engine: EngineId(1),
                slack: Slack::BULK,
            },
        ])
        .unwrap()
    }

    #[test]
    fn cursor_walks_the_chain() {
        let mut c = chain3();
        assert_eq!(c.current().unwrap().engine, EngineId(4));
        assert_eq!(c.remaining(), 3);
        assert!(!c.is_complete());

        assert_eq!(c.advance().unwrap().engine, EngineId(9));
        assert_eq!(c.advance().unwrap().engine, EngineId(1));
        assert_eq!(c.advance(), None);
        assert!(c.is_complete());
        assert_eq!(c.remaining(), 0);
        // Advancing past the end stays complete.
        assert_eq!(c.advance(), None);
    }

    #[test]
    fn empty_chain_is_complete() {
        let c = ChainHeader::empty();
        assert!(c.is_complete());
        assert!(c.is_empty());
        assert_eq!(c.current(), None);
        assert_eq!(c.wire_bytes(), 2);
    }

    #[test]
    fn encode_strips_visited_hops() {
        let mut c = chain3();
        c.advance();
        let bytes = c.encode();
        assert_eq!(bytes.len(), c.wire_bytes());
        assert_eq!(bytes.len(), 2 + 2 * ChainHeader::HOP_BYTES);
        let (decoded, used) = ChainHeader::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        // The decoded header holds only the pending hops, cursor at 0.
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded.current().unwrap().engine, EngineId(9));
        assert_eq!(decoded.hops()[1].engine, EngineId(1));
    }

    #[test]
    fn decode_rejects_truncation() {
        let c = chain3();
        let bytes = c.encode();
        assert_eq!(
            ChainHeader::decode(&bytes[..bytes.len() - 1]),
            Err(ChainError::Truncated)
        );
        assert_eq!(ChainHeader::decode(&[]), Err(ChainError::Truncated));
        assert_eq!(ChainHeader::decode(&[1]), Err(ChainError::Truncated));
    }

    #[test]
    fn decode_rejects_oversized_count() {
        let data = [200u8, 0];
        assert_eq!(ChainHeader::decode(&data), Err(ChainError::TooLong));
    }

    #[test]
    fn max_hops_enforced() {
        let hops: Vec<Hop> = (0..17)
            .map(|i| Hop {
                engine: EngineId(i),
                slack: Slack(0),
            })
            .collect();
        assert_eq!(ChainHeader::new(hops), Err(ChainError::TooLong));
    }

    #[test]
    fn extend_appends_and_respects_cap() {
        let mut c = ChainHeader::uniform(&[EngineId(1)], Slack(10)).unwrap();
        c.extend(&[Hop {
            engine: EngineId(2),
            slack: Slack(5),
        }])
        .unwrap();
        assert_eq!(c.len(), 2);
        let too_many: Vec<Hop> = (0..16)
            .map(|i| Hop {
                engine: EngineId(i),
                slack: Slack(0),
            })
            .collect();
        assert_eq!(c.extend(&too_many), Err(ChainError::TooLong));
        // Failed extend leaves the chain unchanged.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn rewrite_pending_skips_visited_hops() {
        // Chain E4 -> E9 -> E1; advance past E4, then fail E4 over to
        // E9: the visited E4 hop must stay, pending hops must change.
        let mut c =
            ChainHeader::uniform(&[EngineId(4), EngineId(9), EngineId(4)], Slack(10)).unwrap();
        c.advance();
        assert_eq!(c.rewrite_pending(EngineId(4), EngineId(7)), 1);
        assert_eq!(c.hops()[0].engine, EngineId(4), "visited hop untouched");
        assert_eq!(c.hops()[2].engine, EngineId(7), "pending hop rewritten");
        assert_eq!(c.rewrite_pending(EngineId(99), EngineId(0)), 0);
        // Rewriting at the current hop works too.
        assert_eq!(c.rewrite_pending(EngineId(9), EngineId(7)), 1);
        assert_eq!(c.current().unwrap().engine, EngineId(7));
    }

    #[test]
    fn rewrite_pending_nic_repoints_only_that_member() {
        // Chain: local E4 -> remote(2, E9) -> remote(1, E9) ->
        // remote(2, E1); fail member 2 over to member 3.
        let mut c = ChainHeader::uniform(
            &[
                EngineId(4),
                EngineId::remote(2, EngineId(9)),
                EngineId::remote(1, EngineId(9)),
                EngineId::remote(2, EngineId(1)),
            ],
            Slack(10),
        )
        .unwrap();
        assert_eq!(c.rewrite_pending_nic(2, 3), 2);
        assert_eq!(c.hops()[0].engine, EngineId(4), "local hop untouched");
        assert_eq!(c.hops()[1].engine, EngineId::remote(3, EngineId(9)));
        assert_eq!(
            c.hops()[2].engine,
            EngineId::remote(1, EngineId(9)),
            "other member untouched"
        );
        assert_eq!(c.hops()[3].engine, EngineId::remote(3, EngineId(1)));
        // Visited hops are history.
        c.advance();
        assert_eq!(c.rewrite_pending_nic(3, 0), 2, "only pending hops");
        assert_eq!(c.hops()[1].engine, EngineId::remote(0, EngineId(9)));
    }

    #[test]
    fn slack_spend_saturates_and_bulk_is_sticky() {
        assert_eq!(Slack(100).spend(30), Slack(70));
        assert_eq!(Slack(10).spend(30), Slack(0));
        assert_eq!(Slack::BULK.spend(u32::MAX), Slack::BULK);
        assert_eq!(Slack::URGENT.spend(1), Slack(0));
    }

    #[test]
    fn wire_bytes_matches_encoding_and_shrinks() {
        for n in 0..=ChainHeader::MAX_HOPS {
            let engines: Vec<EngineId> = (0..n as u16).map(EngineId).collect();
            let mut c = ChainHeader::uniform(&engines, Slack(1)).unwrap();
            assert_eq!(c.encode().len(), c.wire_bytes());
            assert_eq!(c.wire_bytes(), 2 + 6 * n);
            if n > 0 {
                c.advance();
                assert_eq!(c.wire_bytes(), 2 + 6 * (n - 1));
                assert_eq!(c.encode().len(), c.wire_bytes());
            }
        }
    }

    #[test]
    fn display_marks_cursor() {
        let mut c = chain3();
        c.advance();
        let s = c.to_string();
        assert_eq!(s, "[E4 -> *E9 -> E1]");
        assert_eq!(Slack(5).to_string(), "5cy");
        assert_eq!(Slack::BULK.to_string(), "bulk");
        assert_eq!(EngineId(3).to_string(), "E3");
        assert_eq!(EngineClass::Dma.to_string(), "dma");
    }
}
