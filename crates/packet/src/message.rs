//! [`Message`] — the single unit of work everywhere in the NIC.
//!
//! §3.1: "even messages between different on-NIC engines and offloads
//! that are not Ethernet packets can be treated as if they were ...
//! reading transmit descriptors, writing an incoming packet to main
//! memory, and processing an RDMA request ... are all treated as
//! packets." One unified message type is what lets PANIC run one
//! unified on-chip network instead of five separate ones (the Tile-GX
//! contrast in footnote 1).

use bytes::Bytes;
use sim_core::time::{ByteSize, Cycle};

use crate::chain::{ChainHeader, EngineId, Slack};

/// Unique message identity, assigned at injection. Purely diagnostic:
/// no model behaviour may branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// The tenant (application/container/VM) a message belongs to.
/// Scheduler policies key on this (§3.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u16);

/// Coarse priority class assigned by policy; refines into a slack value
/// by the RMT pipeline's slack computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Latency-sensitive traffic (small RPCs, descriptor fetches).
    Latency,
    /// Ordinary traffic.
    #[default]
    Normal,
    /// Bulk/background traffic that must never delay the other classes.
    Bulk,
}

/// What a message *is* — which determines which engines can process it
/// and how the pipeline parses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// An Ethernet frame (RX from the wire or TX toward it). Payload is
    /// real wire bytes starting at the Ethernet header.
    EthernetFrame,
    /// A DMA read request (e.g. descriptor fetch, cache fill). Payload
    /// is a 16-byte descriptor: host address + length.
    DmaRead,
    /// A DMA write request (e.g. packet to host memory, log append).
    DmaWrite,
    /// Completion notification for an earlier DMA request.
    DmaCompletion,
    /// A doorbell/interrupt message to or from the PCIe engine.
    PcieEvent,
    /// An RDMA work element generated on-NIC (§3.2's cached-GET reply).
    RdmaWork,
    /// Anything engine-specific that doesn't fit above (still switched
    /// and scheduled like every other message).
    Internal,
}

impl MessageKind {
    /// True for kinds that must never be dropped (§6: "important
    /// messages like DMA requests for descriptors are never dropped").
    /// The scheduler treats these as lossless-class by default.
    #[must_use]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            MessageKind::DmaRead
                | MessageKind::DmaWrite
                | MessageKind::DmaCompletion
                | MessageKind::PcieEvent
        )
    }
}

/// The unified message.
///
/// A message carries: identity and provenance, the payload bytes, the
/// PANIC chain header (where it still has to go), the descriptor the
/// last pipeline pass wrote (priority, receive queue, pass count),
/// tenant metadata, and the injection timestamp for latency
/// measurement. The parsed header vector is *not* here: the PHV lives
/// in the pipeline's scratch for the duration of a pass and never
/// crosses the NoC.
#[derive(Debug, Clone)]
pub struct Message {
    /// Unique id (diagnostic only).
    pub id: MessageId,
    /// What the message is.
    pub kind: MessageKind,
    /// Payload bytes. For frames these are genuine wire bytes.
    pub payload: Bytes,
    /// Remaining offload chain (§3.1.2). Routing consults
    /// `chain.current()`.
    pub chain: ChainHeader,
    /// Cycle the message entered the NIC (for end-to-end latency).
    pub injected_at: Cycle,
    /// Receive descriptor queue the last pipeline pass selected (the
    /// low 32 bits of `Field::MetaRxQueue`); 0 until a program sets
    /// one. The DMA engine delivers to ring `rx_queue % queues`.
    pub rx_queue: u32,
    /// Number of heavyweight-pipeline passes so far (§3.1.2 targets one
    /// for plaintext, two for encrypted).
    pub pipeline_passes: u16,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Coarse priority class.
    pub priority: Priority,
    /// Engine that injected the message into the NIC.
    pub source: EngineId,
}

// A `Message` is moved by value about 27 times per NoC leg (NoC slab →
// portal → pipeline → slab → tile queue → service → emit), and so is
// every type that carries one. LLVM moves a value of at most 128 bytes
// with inline loads and stores on the workspace's baseline x86-64
// target and calls `memcpy` above that; the call, not the bytes, is what
// costs (docs/PERF.md §16). So a `Message` is 120 bytes: id 8 + `Bytes`
// 24 + `ChainHeader` 64 + stamp 8 + the 12 bytes of descriptor fields
// above, which leaves a word for the tag or stamp of each carrier
// (`noc::network::InFlight`, `engines::engine::Output`,
// `engines::tile::Emit`, `rmt::pipeline::PipelineOutput`,
// `sched::queue::Queued`, the tenancy queues' entries), each pinned at
// 128. A new field shows up at compile time in all of them.
const _: () = assert!(std::mem::size_of::<Message>() <= 120);

impl Message {
    /// Starts building a message.
    #[must_use]
    pub fn builder(id: MessageId, kind: MessageKind) -> MessageBuilder {
        MessageBuilder {
            msg: Message {
                id,
                kind,
                payload: Bytes::new(),
                chain: ChainHeader::empty(),
                injected_at: Cycle::ZERO,
                rx_queue: 0,
                pipeline_passes: 0,
                tenant: TenantId::default(),
                priority: Priority::default(),
                source: EngineId(0),
            },
        }
    }

    /// Total bytes this message occupies on an on-chip channel: payload
    /// plus the encoded chain header. This is the size Table 3's
    /// bandwidth accounting charges.
    #[must_use]
    pub fn wire_size(&self) -> ByteSize {
        ByteSize((self.payload.len() + self.chain.wire_bytes()) as u64)
    }

    /// The engine this message should be delivered to next, if its
    /// chain is not complete.
    #[must_use]
    pub fn next_engine(&self) -> Option<EngineId> {
        self.chain.current().map(|h| h.engine)
    }

    /// Slack budget at the current chain hop; [`Slack::BULK`] when the
    /// chain carries none (un-scheduled messages never preempt).
    #[must_use]
    pub fn current_slack(&self) -> Slack {
        self.chain.current().map_or(Slack::BULK, |h| h.slack)
    }

    /// End-to-end latency if the message completed at `now`.
    #[must_use]
    pub fn latency_at(&self, now: Cycle) -> sim_core::time::Cycles {
        now.since(self.injected_at)
    }

    /// A cheap, allocation-free placeholder message.
    ///
    /// Used by [`crate::flit::MessagePool`] to swap a real message out
    /// of a recycled box without a fresh heap allocation: the empty
    /// payload ([`Bytes::new`]) and empty chain hold no storage. The id
    /// is `u64::MAX` so a placeholder that leaks into the datapath is
    /// conspicuous in traces; no model may ever process one.
    #[must_use]
    pub fn placeholder() -> Message {
        Message::builder(MessageId(u64::MAX), MessageKind::Internal).build()
    }
}

/// Builder for [`Message`] — keeps call sites readable as metadata
/// fields accrete.
#[derive(Debug)]
pub struct MessageBuilder {
    msg: Message,
}

impl MessageBuilder {
    /// Sets the payload bytes.
    #[must_use]
    pub fn payload(mut self, payload: Bytes) -> Self {
        self.msg.payload = payload;
        self
    }

    /// Sets the offload chain.
    #[must_use]
    pub fn chain(mut self, chain: ChainHeader) -> Self {
        self.msg.chain = chain;
        self
    }

    /// Sets the owning tenant.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.msg.tenant = tenant;
        self
    }

    /// Sets the priority class.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.msg.priority = priority;
        self
    }

    /// Sets the injecting engine.
    #[must_use]
    pub fn source(mut self, source: EngineId) -> Self {
        self.msg.source = source;
        self
    }

    /// Sets the injection timestamp.
    #[must_use]
    pub fn injected_at(mut self, at: Cycle) -> Self {
        self.msg.injected_at = at;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> Message {
        self.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Hop;

    fn msg_with_chain() -> Message {
        let chain = ChainHeader::new(vec![
            Hop {
                engine: EngineId(7),
                slack: Slack(40),
            },
            Hop {
                engine: EngineId(2),
                slack: Slack(10),
            },
        ])
        .unwrap();
        Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(Bytes::from_static(&[0u8; 64]))
            .chain(chain)
            .tenant(TenantId(3))
            .priority(Priority::Latency)
            .source(EngineId(0))
            .injected_at(Cycle(100))
            .build()
    }

    #[test]
    fn builder_sets_everything() {
        let m = msg_with_chain();
        assert_eq!(m.id, MessageId(1));
        assert_eq!(m.kind, MessageKind::EthernetFrame);
        assert_eq!(m.tenant, TenantId(3));
        assert_eq!(m.priority, Priority::Latency);
        assert_eq!(m.injected_at, Cycle(100));
        assert_eq!(m.pipeline_passes, 0);
        assert_eq!(m.rx_queue, 0);
    }

    #[test]
    fn wire_size_includes_chain_header() {
        let m = msg_with_chain();
        // 64 payload + (2 fixed + 2*6 hops) chain bytes.
        assert_eq!(m.wire_size(), ByteSize(64 + 14));
    }

    #[test]
    fn next_engine_and_slack_follow_cursor() {
        let mut m = msg_with_chain();
        assert_eq!(m.next_engine(), Some(EngineId(7)));
        assert_eq!(m.current_slack(), Slack(40));
        m.chain.advance();
        assert_eq!(m.next_engine(), Some(EngineId(2)));
        assert_eq!(m.current_slack(), Slack(10));
        m.chain.advance();
        assert_eq!(m.next_engine(), None);
        assert_eq!(m.current_slack(), Slack::BULK);
    }

    #[test]
    fn latency_measures_from_injection() {
        let m = msg_with_chain();
        assert_eq!(m.latency_at(Cycle(150)).count(), 50);
    }

    #[test]
    fn control_kinds_are_lossless_class() {
        assert!(MessageKind::DmaRead.is_control());
        assert!(MessageKind::DmaWrite.is_control());
        assert!(MessageKind::DmaCompletion.is_control());
        assert!(MessageKind::PcieEvent.is_control());
        assert!(!MessageKind::EthernetFrame.is_control());
        assert!(!MessageKind::RdmaWork.is_control());
        assert!(!MessageKind::Internal.is_control());
    }

    #[test]
    fn priority_orders_latency_first() {
        assert!(Priority::Latency < Priority::Normal);
        assert!(Priority::Normal < Priority::Bulk);
    }
}
