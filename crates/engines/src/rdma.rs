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
use packet::headers::{build_udp_frame, EthernetHeader, Ipv4Header, UdpHeader};
use packet::kvs::KvsRequest;
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

    /// Work elements currently awaiting DMA data.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Builds the reply frame for `frame` carrying `value`: L2/L3/L4
    /// addresses swapped, KVS op rewritten to Reply.
    fn build_reply(frame: &[u8], value: Bytes) -> Option<Bytes> {
        let (eth, n1) = EthernetHeader::parse(frame).ok()?;
        let (ip, n2) = Ipv4Header::parse(&frame[n1..]).ok()?;
        let (udp, n3) = UdpHeader::parse(&frame[n1 + n2..]).ok()?;
        let req = KvsRequest::decode(&frame[n1 + n2 + n3..]).ok()?;
        let reply = req.reply_with(value);
        Some(build_udp_frame(
            EthernetHeader {
                dst: eth.src,
                src: eth.dst,
                ethertype: eth.ethertype,
            },
            Ipv4Header {
                tos: ip.tos,
                total_len: 0,
                ident: ip.ident,
                ttl: 64,
                protocol: 0,
                src: ip.dst,
                dst: ip.src,
            },
            UdpHeader {
                src_port: udp.dst_port,
                dst_port: udp.src_port,
                len: 0,
                checksum: 0,
            },
            &reply.encode(),
        ))
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

    fn process_into(&mut self, msg: Message, _now: Cycle, out: &mut Vec<Output>) {
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
                let mut read = msg;
                read.kind = MessageKind::DmaRead;
                read.payload = desc.encode();
                // Chain [dma, rdma]: the completion comes straight back
                // here over the mesh — no pipeline pass (§3.1.2's
                // lightweight chaining), and the DMA hop inherits the
                // request's urgency.
                let slack = read.current_slack();
                read.chain =
                    ChainHeader::uniform(&[self.dma, self.self_id], slack).expect("2 hops");
                out.push(Output::ForwardTo(self.dma, read));
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
                match Self::build_reply(&frame, value) {
                    Some(reply_frame) => {
                        self.replies += 1;
                        let mut reply = msg;
                        reply.kind = MessageKind::EthernetFrame;
                        reply.payload = reply_frame;
                        reply.chain = ChainHeader::empty();
                        // "inject this new response into the pipeline".
                        out.push(Output::ToPipeline(reply));
                    }
                    None => {
                        self.orphan_completions += 1;
                        out.push(Output::Consumed);
                    }
                }
            }
            _ => out.push(Output::Forward(msg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::chain::Slack;
    use packet::headers::{ethertype, Ipv4Addr, MacAddr};
    use packet::kvs::KvsOp;
    use packet::message::MessageId;

    const SELF: EngineId = EngineId(11);
    const DMA: EngineId = EngineId(9);

    fn request_frame() -> Bytes {
        build_udp_frame(
            EthernetHeader {
                dst: MacAddr::for_port(0),
                src: MacAddr::for_port(7),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 0,
                total_len: 0,
                ident: 3,
                ttl: 60,
                protocol: 0,
                src: Ipv4Addr::new(172, 16, 0, 9),
                dst: Ipv4Addr::new(10, 0, 0, 2),
            },
            UdpHeader {
                src_port: 3333,
                dst_port: 6379,
                len: 0,
                checksum: 0,
            },
            &KvsRequest::get(4, 77, key_placeholder()).encode(),
        )
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
        let out = e.process(work_msg(), Cycle(0));
        match &out[0] {
            Output::ForwardTo(dest, m) => {
                assert_eq!(*dest, DMA);
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
            }
            other => panic!("expected ForwardTo dma, got {other:?}"),
        }
        assert_eq!(e.in_flight(), 1);
    }

    #[test]
    fn completion_builds_addressed_reply() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let _ = e.process(work_msg(), Cycle(0));
        // Craft the completion the DMA engine would send: tag + value.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_be_bytes());
        payload.extend_from_slice(b"VALUE");
        let completion = Message::builder(MessageId(2), MessageKind::DmaCompletion)
            .payload(Bytes::from(payload))
            .build();
        let out = e.process(completion, Cycle(10));
        match &out[0] {
            Output::ToPipeline(m) => {
                assert_eq!(m.kind, MessageKind::EthernetFrame);
                // Reply is addressed back to the requester.
                let (eth, n1) = EthernetHeader::parse(&m.payload).unwrap();
                assert_eq!(eth.dst, MacAddr::for_port(7));
                let (ip, n2) = Ipv4Header::parse(&m.payload[n1..]).unwrap();
                assert_eq!(ip.dst, Ipv4Addr::new(172, 16, 0, 9));
                assert_eq!(ip.src, Ipv4Addr::new(10, 0, 0, 2));
                let (udp, n3) = UdpHeader::parse(&m.payload[n1 + n2..]).unwrap();
                assert_eq!(udp.dst_port, 3333);
                let reply = KvsRequest::decode(&m.payload[n1 + n2 + n3..]).unwrap();
                assert_eq!(reply.op, KvsOp::Reply);
                assert_eq!(reply.key, key_placeholder());
                assert_eq!(reply.request_id, 77);
                assert_eq!(&reply.value[..], b"VALUE");
            }
            other => panic!("expected ToPipeline reply, got {other:?}"),
        }
        assert_eq!(e.replies, 1);
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    fn orphan_completion_is_counted_and_consumed() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let mut payload = Vec::new();
        payload.extend_from_slice(&99u64.to_be_bytes());
        let completion = Message::builder(MessageId(2), MessageKind::DmaCompletion)
            .payload(Bytes::from(payload))
            .build();
        assert!(matches!(
            e.process(completion, Cycle(0))[0],
            Output::Consumed
        ));
        assert_eq!(e.orphan_completions, 1);
    }

    #[test]
    fn truncated_work_is_consumed() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let m = Message::builder(MessageId(1), MessageKind::RdmaWork)
            .payload(Bytes::from_static(&[1, 2]))
            .build();
        assert!(matches!(e.process(m, Cycle(0))[0], Output::Consumed));
    }

    #[test]
    fn concurrent_works_use_distinct_tags() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let o1 = e.process(work_msg(), Cycle(0));
        let o2 = e.process(work_msg(), Cycle(1));
        let tag = |o: &Output| match o {
            Output::ForwardTo(_, m) => DmaDescriptor::decode(&m.payload).unwrap().tag,
            _ => panic!("expected ForwardTo"),
        };
        assert_ne!(tag(&o1[0]), tag(&o2[0]));
        assert_eq!(e.in_flight(), 2);
    }

    #[test]
    fn other_kinds_pass_through() {
        let mut e = RdmaEngine::new("rdma", SELF, DMA);
        let m = Message::builder(MessageId(1), MessageKind::Internal).build();
        assert!(matches!(e.process(m, Cycle(0))[0], Output::Forward(_)));
    }
}
