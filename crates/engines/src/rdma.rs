//! The RDMA engine: CPU-bypass replies for cached GETs.
//!
//! §3.2: "if the request ... hits in the on-NIC application cache, it
//! will be forwarded to an RDMA engine. This RDMA engine will then
//! issue DMA requests (via the pipeline) to read the value, generate
//! the packet headers for the response, and then inject this new
//! response into the pipeline, where it will be switched to the
//! Ethernet port for transmission."
//!
//! Implemented exactly as that two-step dance:
//!
//! 1. On [`MessageKind::RdmaWork`]: park the original frame, emit a
//!    [`MessageKind::DmaRead`] whose chain is `[dma, rdma]` — the
//!    completion routes back here without a pipeline pass.
//! 2. On [`MessageKind::DmaCompletion`]: match the tag, build the
//!    reply frame (addresses swapped, op = Reply, value attached) and
//!    hand it to the pipeline, which switches it to the Ethernet port.

use bytes::Bytes;
use packet::chain::{ChainHeader, EngineClass, EngineId};
use packet::kvs::KvsFrame;
use packet::message::{Message, MessageKind};
use sim_core::time::{Cycle, Cycles};
use std::collections::HashMap;

use crate::dma::DmaDescriptor;
use crate::engine::{Offload, Output};
use crate::kvs_cache::RdmaWorkDesc;

/// The RDMA engine.
pub struct RdmaEngine {
    name: String,
    self_id: EngineId,
    dma: EngineId,
    next_tag: u64,
    /// Parked request frames awaiting their DMA completion, by tag.
    pending: HashMap<u64, Bytes>,
    /// Per-work fixed cost.
    work_cycles: u64,
    /// Replies generated.
    pub replies: u64,
    /// Completions that matched no pending work (protocol errors).
    pub orphan_completions: u64,
}

impl std::fmt::Debug for RdmaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaEngine")
            .field("name", &self.name)
            .field("pending", &self.pending.len())
            .field("replies", &self.replies)
            .finish_non_exhaustive()
    }
}

impl RdmaEngine {
    /// Builds the engine. `self_id` must be this engine's tile address
    /// (used to route completions back); `dma` the DMA engine's.
    #[must_use]
    pub fn new(name: impl Into<String>, self_id: EngineId, dma: EngineId) -> RdmaEngine {
        RdmaEngine {
            name: name.into(),
            self_id,
            dma,
            next_tag: 1,
            pending: HashMap::new(),
            work_cycles: 16,
            replies: 0,
            orphan_completions: 0,
        }
    }
}

impl Offload for RdmaEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn class(&self) -> EngineClass {
        EngineClass::Rdma
    }

    fn service_time(&self, _msg: &Message) -> Cycles {
        Cycles(self.work_cycles)
    }

    fn process_into(&mut self, msg: &mut Message, _now: Cycle, out: &mut Vec<Output>) {
        match msg.kind {
            MessageKind::RdmaWork => {
                let Some(work) = RdmaWorkDesc::decode(&msg.payload) else {
                    out.push(Output::Consumed);
                    return;
                };
                let tag = self.next_tag;
                self.next_tag += 1;
                self.pending.insert(tag, work.frame);
                let desc = DmaDescriptor {
                    addr: work.addr,
                    len: work.len,
                    tag,
                    data: Bytes::new(),
                };
                msg.kind = MessageKind::DmaRead;
                msg.payload = desc.encode();
                // Chain [dma, rdma]: the completion comes straight back
                // here over the mesh — no pipeline pass (§3.1.2's
                // lightweight chaining), and the DMA hop inherits the
                // request's urgency.
                let slack = msg.current_slack();
                msg.chain = ChainHeader::uniform(&[self.dma, self.self_id], slack).expect("2 hops");
                out.push(Output::ForwardTo(self.dma));
            }
            MessageKind::DmaCompletion => {
                if msg.payload.len() < 8 {
                    self.orphan_completions += 1;
                    out.push(Output::Consumed);
                    return;
                }
                let tag = u64::from_be_bytes(msg.payload[0..8].try_into().expect("8 bytes"));
                let value = msg.payload.slice(8..);
                let Some(frame) = self.pending.remove(&tag) else {
                    self.orphan_completions += 1;
                    out.push(Output::Consumed);
                    return;
                };
                match KvsFrame::parse(&frame) {
                    Some(request) => {
                        self.replies += 1;
                        msg.kind = MessageKind::EthernetFrame;
                        msg.payload = request.reply(value);
                        msg.chain = ChainHeader::empty();
                        // "inject this new response into the pipeline".
                        out.push(Output::ToPipeline);
                    }
                    None => {
                        self.orphan_completions += 1;
                        out.push(Output::Consumed);
                    }
                }
            }
            _ => out.push(Output::Forward),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::chain::Slack;
    use packet::headers::Ipv4Addr;
    use packet::kvs::{KvsOp, KvsRequest};
    use packet::message::MessageId;
    use workloads::frames::FrameFactory;

    const SELF: EngineId = EngineId(11);
    const DMA: EngineId = EngineId(9);

    const CLIENT: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 9);

    fn request_frame() -> Bytes {
        let get = KvsRequest::get(4, 77, key_placeholder()).encode();
        FrameFactory::for_nic_port(0).inbound_udp(CLIENT, 3333, 6379, &get, 0)
    }

    const fn key_placeholder() -> u64 {
        0xabcd
    }

    fn work_msg() -> Message {
        let work = RdmaWorkDesc {
            addr: 0x9000,
            len: 5,
            frame: request_frame(),
        };
        Message::builder(MessageId(1), MessageKind::RdmaWork)
            .payload(work.encode())
            .chain(ChainHeader::uniform(&[SELF], Slack(40)).unwrap())
            .build()
    }

    #[test]
    fn work_issues_dma_read_with_return_chain() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let mut m = work_msg();
        let out = e.process(&mut m, Cycle(0));
        assert!(matches!(out[0], Output::ForwardTo(DMA)), "{out:?}");
        assert_eq!(m.kind, MessageKind::DmaRead);
        let desc = DmaDescriptor::decode(&m.payload).unwrap();
        assert_eq!(desc.addr, 0x9000);
        assert_eq!(desc.len, 5);
        assert_eq!(desc.tag, 1);
        // Chain routes the completion back to this engine.
        assert_eq!(m.chain.hops()[0].engine, DMA);
        assert_eq!(m.chain.hops()[1].engine, SELF);
        // Slack inherited from the request.
        assert_eq!({ m.chain.hops()[0].slack }, Slack(40));
        assert_eq!(e.pending.len(), 1);
    }

    #[test]
    fn completion_builds_addressed_reply() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let _ = e.process(&mut work_msg(), Cycle(0));
        // Craft the completion the DMA engine would send: tag + value.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_be_bytes());
        payload.extend_from_slice(b"VALUE");
        let mut m = Message::builder(MessageId(2), MessageKind::DmaCompletion)
            .payload(Bytes::from(payload))
            .build();
        let out = e.process(&mut m, Cycle(10));
        assert!(matches!(out[0], Output::ToPipeline), "{out:?}");
        assert_eq!(m.kind, MessageKind::EthernetFrame);
        // Reply is addressed back to the requester.
        let get = KvsFrame::parse(&request_frame()).unwrap();
        let f = KvsFrame::parse(&m.payload).unwrap();
        assert_eq!(f.eth.dst, get.eth.src);
        assert_eq!((f.ip.src, f.ip.dst), (get.ip.dst, CLIENT));
        assert_eq!(f.udp.dst_port, 3333);
        let reply = f.request;
        assert_eq!(reply.op, KvsOp::Reply);
        assert_eq!(reply.key, key_placeholder());
        assert_eq!(reply.request_id, 77);
        assert_eq!(&reply.value[..], b"VALUE");
        assert_eq!(e.replies, 1);
        assert_eq!(e.pending.len(), 0);
    }

    #[test]
    fn orphan_completion_is_counted_and_consumed() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let mut payload = Vec::new();
        payload.extend_from_slice(&99u64.to_be_bytes());
        let mut completion = Message::builder(MessageId(2), MessageKind::DmaCompletion)
            .payload(Bytes::from(payload))
            .build();
        assert!(matches!(
            e.process(&mut completion, Cycle(0))[0],
            Output::Consumed
        ));
        assert_eq!(e.orphan_completions, 1);
    }

    #[test]
    fn truncated_work_is_consumed() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let mut m = Message::builder(MessageId(1), MessageKind::RdmaWork)
            .payload(Bytes::from_static(&[1, 2]))
            .build();
        assert!(matches!(e.process(&mut m, Cycle(0))[0], Output::Consumed));
    }

    #[test]
    fn concurrent_works_use_distinct_tags() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let (mut m1, mut m2) = (work_msg(), work_msg());
        let _ = e.process(&mut m1, Cycle(0));
        let _ = e.process(&mut m2, Cycle(1));
        let tag = |m: &Message| DmaDescriptor::decode(&m.payload).unwrap().tag;
        assert_ne!(tag(&m1), tag(&m2));
        assert_eq!(e.pending.len(), 2);
    }

    #[test]
    fn other_kinds_pass_through() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let mut m = Message::builder(MessageId(1), MessageKind::Internal).build();
        assert!(matches!(e.process(&mut m, Cycle(0))[0], Output::Forward));
    }
}
