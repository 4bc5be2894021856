//! The on-NIC KVS cache engine.
//!
//! §2.2: "the NIC can cache the location of values for hot keys and
//! use DMA to directly return replies, completely bypassing the CPU."
//! Note the paper's precision: the cache holds *locations*, not
//! values — the value lives in host memory and the RDMA engine fetches
//! it. This engine implements exactly that:
//!
//! * **GET hit** → the message becomes an [`MessageKind::RdmaWork`]
//!   element (host address + length + the original frame, so the reply
//!   can be addressed) and is routed to the RDMA engine by the local
//!   lookup table — no pipeline traversal.
//! * **GET miss** → the frame continues to the DMA engine for host
//!   delivery, exactly as an uncached NIC would behave.
//! * **SET** → the value is appended to the host log via a DMA write;
//!   the location enters the cache only when the write *completion*
//!   returns (chain `[dma, cache]`), avoiding the read-after-write
//!   hazard where a racing GET would RDMA-read unwritten bytes
//!   (write-through, §3.2's "append the value in the SET to a log").
//! * **DEL** → the location is invalidated and the request goes to the
//!   host.

use bytes::{BufMut, Bytes, BytesMut};
use packet::chain::{ChainHeader, EngineClass, EngineId};
use packet::kvs::{KvsFrame, KvsOp};
use packet::message::{Message, MessageKind};
use sim_core::time::{Cycle, Cycles};
use std::collections::{HashMap, VecDeque};

use crate::dma::DmaDescriptor;
use crate::engine::{Offload, Output};

/// An RDMA work element's payload: host location + the original frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RdmaWorkDesc {
    /// Host address of the value.
    pub addr: u64,
    /// Value length.
    pub len: u32,
    /// The original request frame (for reply addressing).
    pub frame: Bytes,
}

impl RdmaWorkDesc {
    /// Fixed header size.
    pub const HEADER: usize = 12;

    /// Encodes the work element.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(Self::HEADER + self.frame.len());
        out.put_u64(self.addr);
        out.put_u32(self.len);
        out.put_slice(&self.frame);
        out.freeze()
    }

    /// Decodes a work element.
    #[must_use]
    pub fn decode(data: &[u8]) -> Option<RdmaWorkDesc> {
        if data.len() < Self::HEADER {
            return None;
        }
        Some(RdmaWorkDesc {
            addr: u64::from_be_bytes(data[0..8].try_into().ok()?),
            len: u32::from_be_bytes(data[8..12].try_into().ok()?),
            frame: Bytes::copy_from_slice(&data[Self::HEADER..]),
        })
    }
}

/// The location cache: key → (host address, length), FIFO eviction.
#[derive(Debug)]
struct LocationCache {
    entries: HashMap<u64, (u64, u32)>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl LocationCache {
    fn new(capacity: usize) -> LocationCache {
        LocationCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn get(&self, key: u64) -> Option<(u64, u32)> {
        self.entries.get(&key).copied()
    }

    fn insert(&mut self, key: u64, addr: u64, len: u32) {
        if self.entries.insert(key, (addr, len)).is_none() {
            self.order.push_back(key);
            while self.entries.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        }
    }

    fn remove(&mut self, key: u64) {
        self.entries.remove(&key);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The KVS cache engine.
pub struct KvsCacheEngine {
    name: String,
    cache: LocationCache,
    /// Where cache hits go.
    rdma: EngineId,
    /// Where misses / host-bound requests go.
    dma: EngineId,
    /// Own engine id (for building DMA-write chains).
    self_id: EngineId,
    /// Host log region for SET values: slot `key % slots`.
    log_base: u64,
    slot_size: u32,
    slots: u64,
    /// Per-request fixed cost in cycles.
    lookup_cycles: u64,
    /// SET locations awaiting their DMA write completion, keyed by the
    /// completion tag (the KVS request id).
    pending_installs: HashMap<u64, (u64, u64, u32)>,
    /// Hits / misses / sets / deletes served.
    pub hits: u64,
    /// GET misses forwarded to the host.
    pub misses: u64,
    /// SETs written through.
    pub sets: u64,
    /// DELs processed.
    pub dels: u64,
}

impl std::fmt::Debug for KvsCacheEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvsCacheEngine")
            .field("name", &self.name)
            .field("entries", &self.cache.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish_non_exhaustive()
    }
}

impl KvsCacheEngine {
    /// Builds a cache of `capacity` locations. `rdma`/`dma` are the
    /// local lookup table's two routes. Values are logged to host
    /// slots of `slot_size` bytes starting at `log_base`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        self_id: EngineId,
        capacity: usize,
        rdma: EngineId,
        dma: EngineId,
    ) -> KvsCacheEngine {
        KvsCacheEngine {
            name: name.into(),
            cache: LocationCache::new(capacity.max(1)),
            rdma,
            dma,
            self_id,
            log_base: 0x4000_0000,
            slot_size: 1024,
            slots: 1 << 20,
            lookup_cycles: 2,
            pending_installs: HashMap::new(),
            hits: 0,
            misses: 0,
            sets: 0,
            dels: 0,
        }
    }

    /// Host address of the log slot for `key`.
    ///
    /// Keys are namespaced `tenant << 32 | rank` (see
    /// `workloads::kvs`), so the slot index interleaves the low 10
    /// bits of each half: collision-free for up to 1024 tenants x
    /// 1024 hot keys, which bounds every scenario in this repo.
    #[must_use]
    pub fn slot_addr(&self, key: u64) -> u64 {
        let tenant = (key >> 32) & 0x3ff;
        let rank = key & 0x3ff;
        let index = (tenant << 10 | rank) % self.slots;
        self.log_base + index * u64::from(self.slot_size)
    }

    /// Pre-installs a cache entry (experiment setup).
    pub fn install(&mut self, key: u64, addr: u64, len: u32) {
        self.cache.insert(key, addr, len);
    }
}

impl Offload for KvsCacheEngine {
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
        EngineClass::Fpga
    }

    fn service_time(&self, _msg: &Message) -> Cycles {
        Cycles(self.lookup_cycles)
    }

    fn process_into(&mut self, msg: &mut Message, _now: Cycle, out: &mut Vec<Output>) {
        if msg.kind == MessageKind::DmaCompletion {
            // A SET's log write finished: the location is now safe to
            // serve, so install it.
            if msg.payload.len() >= 8 {
                let tag = u64::from_be_bytes(msg.payload[0..8].try_into().expect("8 bytes"));
                if let Some((key, addr, len)) = self.pending_installs.remove(&tag) {
                    self.cache.insert(key, addr, len);
                }
            }
            out.push(Output::Consumed);
            return;
        }
        if msg.kind != MessageKind::EthernetFrame {
            out.push(Output::Forward);
            return;
        }
        let Some(req) = KvsFrame::parse(&msg.payload).map(|f| f.request) else {
            // Not KVS traffic: continue along the chain untouched.
            out.push(Output::Forward);
            return;
        };
        match req.op {
            KvsOp::Get => match self.cache.get(req.key) {
                Some((addr, len)) => {
                    self.hits += 1;
                    let work = RdmaWorkDesc {
                        addr,
                        len,
                        frame: msg.payload.clone(),
                    };
                    msg.kind = MessageKind::RdmaWork;
                    msg.payload = work.encode();
                    out.push(Output::ForwardTo(self.rdma));
                }
                None => {
                    self.misses += 1;
                    out.push(Output::ForwardTo(self.dma));
                }
            },
            KvsOp::Set => {
                self.sets += 1;
                let addr = self.slot_addr(req.key);
                let len = req.value.len().min(self.slot_size as usize) as u32;
                // Do NOT install yet: a GET racing the in-flight write
                // would read unwritten bytes. The completion comes back
                // here (chain [dma, cache]) and installs.
                self.pending_installs
                    .insert(u64::from(req.request_id), (req.key, addr, len));
                let desc = DmaDescriptor {
                    addr,
                    len,
                    tag: u64::from(req.request_id),
                    data: req.value.slice(..len as usize),
                };
                msg.kind = MessageKind::DmaWrite;
                msg.payload = desc.encode();
                msg.chain = ChainHeader::uniform(&[self.dma, self.self_id], msg.current_slack())
                    .expect("2 hops");
                out.push(Output::ForwardTo(self.dma));
            }
            KvsOp::Del => {
                self.dels += 1;
                self.cache.remove(req.key);
                out.push(Output::ForwardTo(self.dma));
            }
            KvsOp::Reply => out.push(Output::Forward),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::chain::Slack;
    use packet::kvs::KvsRequest;
    use packet::message::MessageId;
    use workloads::frames::FrameFactory;

    const KVS_PORT: u16 = 6379;
    const RDMA: EngineId = EngineId(11);
    const DMA: EngineId = EngineId(9);
    const SELF: EngineId = EngineId(10);

    fn frame_for(req: &KvsRequest) -> Bytes {
        let client = FrameFactory::lan_client_ip(1);
        FrameFactory::for_nic_port(0).inbound_udp(client, 555, KVS_PORT, &req.encode(), 0)
    }

    fn engine() -> KvsCacheEngine {
        KvsCacheEngine::new("kvs", SELF, 4, RDMA, DMA)
    }

    /// The outputs of processing `msg` at `now`, and what it became.
    fn process(e: &mut KvsCacheEngine, mut msg: Message, now: u64) -> (Vec<Output>, Message) {
        let out = e.process(&mut msg, Cycle(now));
        (out, msg)
    }

    fn msg_of(frame: Bytes) -> Message {
        Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(frame)
            .chain(ChainHeader::uniform(&[SELF], Slack(50)).unwrap())
            .build()
    }

    #[test]
    fn get_hit_becomes_rdma_work() {
        let mut e = engine();
        e.install(42, 0x9000, 16);
        let req = KvsRequest::get(1, 7, 42);
        let frame = frame_for(&req);
        let (out, m) = process(&mut e, msg_of(frame.clone()), 0);
        assert!(matches!(out[0], Output::ForwardTo(RDMA)), "{out:?}");
        assert_eq!(m.kind, MessageKind::RdmaWork);
        let work = RdmaWorkDesc::decode(&m.payload).unwrap();
        assert_eq!(work.addr, 0x9000);
        assert_eq!(work.len, 16);
        assert_eq!(&work.frame[..], &frame[..]);
        assert_eq!(e.hits, 1);
    }

    #[test]
    fn get_miss_goes_to_host() {
        let mut e = engine();
        let req = KvsRequest::get(1, 7, 999);
        let (out, m) = process(&mut e, msg_of(frame_for(&req)), 0);
        assert!(matches!(out[0], Output::ForwardTo(DMA)), "{out:?}");
        assert_eq!(m.kind, MessageKind::EthernetFrame);
        assert_eq!(e.misses, 1);
    }

    #[test]
    fn set_installs_only_after_write_completion() {
        let mut e = engine();
        let req = KvsRequest::set(1, 7, 5, Bytes::from_static(b"hello"));
        let (out, m) = process(&mut e, msg_of(frame_for(&req)), 0);
        assert!(matches!(out[0], Output::ForwardTo(DMA)), "{out:?}");
        assert_eq!(m.kind, MessageKind::DmaWrite);
        let desc = DmaDescriptor::decode(&m.payload).unwrap();
        assert_eq!(desc.addr, e.slot_addr(5));
        assert_eq!(&desc.data[..], b"hello");
        // Completion routes back to the cache engine.
        assert_eq!(m.chain.hops()[0].engine, DMA);
        assert_eq!(m.chain.hops()[1].engine, SELF);
        // A GET racing the in-flight write must MISS (read-after-write
        // hazard avoidance).
        let get = KvsRequest::get(1, 8, 5);
        let (out, _) = process(&mut e, msg_of(frame_for(&get)), 1);
        assert!(matches!(out[0], Output::ForwardTo(DMA)));
        assert_eq!(e.misses, 1);

        // The DMA write completion installs the entry.
        let completion = Message::builder(MessageId(9), MessageKind::DmaCompletion)
            .payload(Bytes::copy_from_slice(&7u64.to_be_bytes()))
            .build();
        assert!(matches!(
            process(&mut e, completion, 2).0[0],
            Output::Consumed
        ));

        // Now the GET hits.
        let get = KvsRequest::get(1, 9, 5);
        let (out, m) = process(&mut e, msg_of(frame_for(&get)), 3);
        assert!(matches!(out[0], Output::ForwardTo(RDMA)));
        assert_eq!(m.kind, MessageKind::RdmaWork);
        assert_eq!(e.sets, 1);
        assert_eq!(e.hits, 1);
    }

    #[test]
    fn del_invalidates() {
        let mut e = engine();
        e.install(5, 0x100, 8);
        let del = KvsRequest {
            op: KvsOp::Del,
            tenant: 1,
            request_id: 9,
            key: 5,
            value: Bytes::new(),
        };
        let _ = process(&mut e, msg_of(frame_for(&del)), 0);
        assert_eq!(e.dels, 1);
        let get = KvsRequest::get(1, 10, 5);
        let (out, _) = process(&mut e, msg_of(frame_for(&get)), 1);
        assert!(matches!(out[0], Output::ForwardTo(DMA)));
        assert_eq!(e.misses, 1);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut e = engine(); // capacity 4
        for k in 0..6u64 {
            e.install(k, k * 0x100, 8);
        }
        assert_eq!(e.cache.len(), 4);
        // Keys 0 and 1 evicted.
        assert!(e.cache.get(0).is_none());
        assert!(e.cache.get(1).is_none());
        assert!(e.cache.get(5).is_some());
    }

    #[test]
    fn non_kvs_traffic_continues_chain() {
        let mut e = engine();
        let mut m = msg_of(Bytes::from_static(b"not a frame"));
        m.chain = ChainHeader::uniform(&[SELF, DMA], Slack(1)).unwrap();
        let (out, _) = process(&mut e, m, 0);
        assert!(matches!(out[0], Output::Forward));
    }

    #[test]
    fn work_desc_roundtrip() {
        let w = RdmaWorkDesc {
            addr: 1,
            len: 2,
            frame: Bytes::from_static(b"f"),
        };
        assert_eq!(RdmaWorkDesc::decode(&w.encode()), Some(w));
        assert_eq!(RdmaWorkDesc::decode(&[1, 2]), None);
    }
}
