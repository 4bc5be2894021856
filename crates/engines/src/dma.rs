//! The DMA engine: the NIC's window into host memory.
//!
//! §3.1.1 makes a point of treating the DMA engine as just another
//! engine on the mesh, and §3.2 leans on its *variable* service time:
//! "Due to possible memory contention from applications on the main
//! CPU, the DMA engine has variable performance and may become a
//! bottleneck." The contention model here is deterministic-pseudo-
//! random (keyed by message id) so runs stay reproducible.
//!
//! Three message kinds are served:
//!
//! * [`MessageKind::DmaRead`] — descriptor in the payload; produces a
//!   [`MessageKind::DmaCompletion`] carrying the data, forwarded along
//!   the request's remaining chain (that is how an RDMA engine gets
//!   its value back).
//! * [`MessageKind::DmaWrite`] — writes the descriptor's data; the
//!   completion carries just the tag.
//! * [`MessageKind::EthernetFrame`] — host delivery of a packet: the
//!   frame is written to the receive-ring region chosen by the
//!   pipeline and egresses to the host; a [`MessageKind::PcieEvent`] is
//!   forwarded to the PCIe engine for interrupt generation (§3.2).
//!
//! The ring choice arrives as a descriptor field, not a header vector:
//! the PHV never leaves the pipeline, which stores the low 32 bits of
//! `Field::MetaRxQueue` in [`Message::rx_queue`] (0 when no stage set
//! one, or when the frame never went through a pass), and this engine
//! delivers to ring `rx_queue % queues`.
//!
//! A ring is a ring: ring `q` owns `rx_ring_stride` bytes of host
//! memory and its write address wraps there (a payload that straddles
//! the end lands in two runs), so a long run neither spills into ring
//! `q + 1` nor grows host memory by a page per 4 KiB delivered.
//! [`DmaEngine::ring_fill`] stays cumulative. No simulated result reads
//! ring memory — service time, completions and egress depend on the
//! payload's length, never on where it landed — so every report is
//! byte-identical to the unwrapped cursor's.

use bytes::{BufMut, Bytes, BytesMut};
use packet::chain::{EngineClass, EngineId};
use packet::message::{Message, MessageKind};
use sim_core::rng::SplitMix64;
use sim_core::time::{Cycle, Cycles};

use crate::engine::{EgressKind, MsgIdGen, Offload, Output};
use crate::host::HostMemory;

/// A DMA read/write descriptor, as carried in message payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// Host address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Correlation tag echoed in the completion.
    pub tag: u64,
    /// Data to write (empty for reads).
    pub data: Bytes,
}

impl DmaDescriptor {
    /// Fixed header size: addr + len + tag.
    pub const HEADER: usize = 8 + 4 + 8;

    /// Encodes the descriptor (header + data).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(Self::HEADER + self.data.len());
        out.put_u64(self.addr);
        out.put_u32(self.len);
        out.put_u64(self.tag);
        out.put_slice(&self.data);
        out.freeze()
    }

    /// Decodes a descriptor, or `None` if truncated.
    #[must_use]
    pub fn decode(data: &[u8]) -> Option<DmaDescriptor> {
        if data.len() < Self::HEADER {
            return None;
        }
        Some(DmaDescriptor {
            addr: u64::from_be_bytes(data[0..8].try_into().ok()?),
            len: u32::from_be_bytes(data[8..12].try_into().ok()?),
            tag: u64::from_be_bytes(data[12..20].try_into().ok()?),
            data: Bytes::copy_from_slice(&data[Self::HEADER..]),
        })
    }
}

/// DMA engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct DmaConfig {
    /// Fixed PCIe round-trip cost per operation, in cycles.
    pub base_latency: Cycles,
    /// Transfer rate: payload bytes moved per cycle.
    pub bytes_per_cycle: u64,
    /// Probability (percent, 0-100) that an operation suffers host
    /// memory contention.
    pub contention_pct: u8,
    /// Extra cycles a contended operation costs.
    pub contention_extra: Cycles,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            // ~120ns occupancy per operation at 500MHz. Real DMA
            // engines pipeline several PCIe transactions; a single-
            // server model must use the per-op *occupancy*, not the
            // full round-trip latency, or it under-provisions by the
            // pipelining factor.
            base_latency: Cycles(60),
            bytes_per_cycle: 64, // 256 Gbps at 500MHz
            contention_pct: 0,
            contention_extra: Cycles(0),
        }
    }
}

/// The DMA engine.
pub struct DmaEngine {
    name: String,
    config: DmaConfig,
    host: HostMemory,
    ids: MsgIdGen,
    /// PCIe engine to notify after host deliveries (None = no
    /// interrupts, pure polling mode).
    pcie: Option<EngineId>,
    /// Base address of receive-ring region; ring `q` lives at
    /// `rx_ring_base + q * rx_ring_stride`.
    rx_ring_base: u64,
    rx_ring_stride: u64,
    /// Per-ring cumulative bytes delivered; the write offset is this
    /// modulo `rx_ring_stride`.
    rx_cursor: Vec<u64>,
    /// Completed reads / writes / deliveries.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Frames delivered to host rings.
    pub deliveries: u64,
}

impl std::fmt::Debug for DmaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmaEngine")
            .field("name", &self.name)
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish_non_exhaustive()
    }
}

impl DmaEngine {
    /// Builds a DMA engine with `rings` receive rings. `engine_id`
    /// seeds the generated-message id space; `pcie` (if any) receives
    /// interrupt events after host deliveries.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        engine_id: u16,
        config: DmaConfig,
        rings: usize,
        pcie: Option<EngineId>,
    ) -> DmaEngine {
        DmaEngine {
            name: name.into(),
            config,
            host: HostMemory::new(0x4000_0000),
            ids: MsgIdGen::for_engine(engine_id),
            pcie,
            rx_ring_base: 0x1000_0000,
            rx_ring_stride: 0x10_0000,
            rx_cursor: vec![0; rings.max(1)],
            reads: 0,
            writes: 0,
            deliveries: 0,
        }
    }

    /// Direct access to host memory, for experiment setup (e.g.
    /// pre-populating the KVS store) and verification.
    pub fn host_mut(&mut self) -> &mut HostMemory {
        &mut self.host
    }

    /// Bytes written into ring `q` so far.
    #[must_use]
    pub fn ring_fill(&self, q: usize) -> u64 {
        self.rx_cursor.get(q).copied().unwrap_or(0)
    }

    /// Deterministic contention draw for an operation: keyed on the
    /// message id so the same run always sees the same stalls.
    fn contention(&self, id: u64) -> Cycles {
        if self.config.contention_pct == 0 {
            return Cycles::ZERO;
        }
        let roll = SplitMix64::new(id ^ 0xD3A_0001).next_u64() % 100;
        if (roll as u8) < self.config.contention_pct {
            self.config.contention_extra
        } else {
            Cycles::ZERO
        }
    }

    fn transfer_cycles(&self, bytes: u64) -> Cycles {
        Cycles(bytes.div_ceil(self.config.bytes_per_cycle.max(1)))
    }
}

impl Offload for DmaEngine {
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
        EngineClass::Dma
    }

    fn service_time(&self, msg: &Message) -> Cycles {
        let bytes = match msg.kind {
            MessageKind::DmaRead => {
                DmaDescriptor::decode(&msg.payload).map_or(0, |d| u64::from(d.len))
            }
            _ => msg.payload.len() as u64,
        };
        self.config.base_latency + self.transfer_cycles(bytes) + self.contention(msg.id.0)
    }

    fn process_into(&mut self, msg: Message, _now: Cycle, out: &mut Vec<Output>) {
        match msg.kind {
            MessageKind::DmaRead => {
                let Some(desc) = DmaDescriptor::decode(&msg.payload) else {
                    out.push(Output::Consumed);
                    return;
                };
                self.reads += 1;
                let len = desc.len as usize;
                let mut completion = BytesMut::with_capacity(8 + len);
                completion.put_u64(desc.tag);
                self.host.read_into(desc.addr, len, &mut completion);
                let mut fwd = msg;
                fwd.kind = MessageKind::DmaCompletion;
                fwd.payload = completion.freeze();
                out.push(Output::Forward(fwd));
            }
            MessageKind::DmaWrite => {
                let Some(desc) = DmaDescriptor::decode(&msg.payload) else {
                    out.push(Output::Consumed);
                    return;
                };
                self.writes += 1;
                self.host.write(desc.addr, &desc.data);
                let mut completion = BytesMut::with_capacity(8);
                completion.put_u64(desc.tag);
                let mut fwd = msg;
                fwd.kind = MessageKind::DmaCompletion;
                fwd.payload = completion.freeze();
                out.push(Output::Forward(fwd));
            }
            MessageKind::EthernetFrame => {
                // Host delivery: append to the ring the pipeline chose.
                let q = msg.rx_queue as usize % self.rx_cursor.len();
                let ring = self.rx_ring_base + q as u64 * self.rx_ring_stride;
                let mut rest = &msg.payload[..];
                while !rest.is_empty() {
                    let off = self.rx_cursor[q] % self.rx_ring_stride;
                    let room = self.rx_ring_stride - off;
                    let (run, tail) = rest.split_at((rest.len() as u64).min(room) as usize);
                    self.host.write(ring + off, run);
                    self.rx_cursor[q] += run.len() as u64;
                    rest = tail;
                }
                self.deliveries += 1;

                if let Some(pcie) = self.pcie {
                    let event = Message::builder(self.ids.next_id(), MessageKind::PcieEvent)
                        .tenant(msg.tenant)
                        .priority(msg.priority)
                        .injected_at(msg.injected_at)
                        .build();
                    out.push(Output::ForwardTo(pcie, event));
                }
                out.push(Output::Egress(EgressKind::Host, msg));
            }
            _ => out.push(Output::Forward(msg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::chain::{ChainHeader, Slack};
    use packet::message::MessageId;

    fn dma() -> DmaEngine {
        DmaEngine::new("dma", 9, DmaConfig::default(), 4, Some(EngineId(13)))
    }

    fn read_msg(id: u64, addr: u64, len: u32, chain: &[u16]) -> Message {
        let engines: Vec<EngineId> = chain.iter().map(|&e| EngineId(e)).collect();
        Message::builder(MessageId(id), MessageKind::DmaRead)
            .payload(
                DmaDescriptor {
                    addr,
                    len,
                    tag: id * 10,
                    data: Bytes::new(),
                }
                .encode(),
            )
            .chain(ChainHeader::uniform(&engines, Slack(100)).unwrap())
            .build()
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = DmaDescriptor {
            addr: 0xdead_beef,
            len: 128,
            tag: 42,
            data: Bytes::from_static(b"xyz"),
        };
        assert_eq!(DmaDescriptor::decode(&d.encode()), Some(d));
        assert_eq!(DmaDescriptor::decode(&[0u8; 10]), None);
    }

    #[test]
    fn read_returns_completion_with_data() {
        let mut dma = dma();
        let addr = dma.host_mut().alloc(64);
        dma.host_mut().write(addr, b"the value bytes");
        let msg = read_msg(1, addr, 15, &[9, 11]); // chain: dma(9) -> rdma(11)
        let out = dma.process(msg, Cycle(0));
        assert_eq!(out.len(), 1);
        match &out[0] {
            Output::Forward(m) => {
                assert_eq!(m.kind, MessageKind::DmaCompletion);
                assert_eq!(&m.payload[0..8], &10u64.to_be_bytes());
                assert_eq!(&m.payload[8..], b"the value bytes");
            }
            other => panic!("expected Forward, got {other:?}"),
        }
        assert_eq!(dma.reads, 1);
    }

    #[test]
    fn write_persists_and_completes() {
        let mut dma = dma();
        let desc = DmaDescriptor {
            addr: 0x5000_0000,
            len: 4,
            tag: 7,
            data: Bytes::from_static(b"data"),
        };
        let msg = Message::builder(MessageId(2), MessageKind::DmaWrite)
            .payload(desc.encode())
            .build();
        let out = dma.process(msg, Cycle(0));
        assert!(matches!(&out[0], Output::Forward(m) if m.kind == MessageKind::DmaCompletion));
        assert_eq!(dma.host_mut().read(0x5000_0000, 4), b"data");
        assert_eq!(dma.writes, 1);
    }

    #[test]
    fn frame_delivery_writes_ring_and_notifies_pcie() {
        let mut dma = dma();
        let mut msg = Message::builder(MessageId(3), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0xAB; 100]))
            .build();
        msg.rx_queue = 2;
        let out = dma.process(msg, Cycle(0));
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[0],
            Output::ForwardTo(dest, m) if *dest == EngineId(13) && m.kind == MessageKind::PcieEvent
        ));
        assert!(matches!(&out[1], Output::Egress(EgressKind::Host, _)));
        assert_eq!(dma.deliveries, 1);
        assert_eq!(dma.ring_fill(2), 100);
        assert_eq!(dma.ring_fill(0), 0);
    }

    #[test]
    fn ring_is_rx_queue_modulo_rings() {
        // Four rings. A frame no pipeline pass described lands in ring
        // 0; a descriptor past the ring count wraps.
        let mut dma = dma();
        for (id, rx_queue, len) in [(1, None, 10), (2, Some(6), 20), (3, Some(u32::MAX), 30)] {
            let mut msg = Message::builder(MessageId(id), MessageKind::EthernetFrame)
                .payload(Bytes::from(vec![0xCD; len]))
                .build();
            if let Some(q) = rx_queue {
                msg.rx_queue = q;
            }
            dma.process(msg, Cycle(0));
        }
        let fills: Vec<u64> = (0..4).map(|q| dma.ring_fill(q)).collect();
        assert_eq!(fills, [10, 0, 20, 30]);
    }

    #[test]
    fn ring_wraps_at_its_stride() {
        let mut dma = dma();
        let (base, stride) = (dma.rx_ring_base, dma.rx_ring_stride);
        let deliver = |dma: &mut DmaEngine, id: u64, q: u32, fill: u8, len: usize| {
            let mut msg = Message::builder(MessageId(id), MessageKind::EthernetFrame)
                .payload(Bytes::from(vec![fill; len]))
                .build();
            msg.rx_queue = q;
            dma.process(msg, Cycle(0));
        };
        // Ring 1 first; then more than two laps of ring 0 in frames
        // whose length does not divide the stride, so some straddle.
        deliver(&mut dma, 1, 1, 0x11, 300);
        let frames = 2 * stride / 1500 + 1;
        for i in 0..frames {
            deliver(&mut dma, 2 + i, 0, 0xA0 | (i % 16) as u8, 1500);
        }
        let total = frames * 1500;
        assert!(total > 2 * stride);
        assert_eq!(dma.ring_fill(0), total, "fill stays cumulative");
        assert_eq!(dma.ring_fill(1), 300);
        let pages = (stride / 4096) as usize;
        assert_eq!(
            dma.host_mut().resident_pages(),
            pages + 1,
            "ring 0 + 1 page"
        );
        assert_eq!(dma.host_mut().read(base + stride, 300), vec![0x11; 300]);
        assert_eq!(dma.host_mut().read(base + stride + 300, 8), vec![0; 8]);
        // The last frame straddles the ring's end: its head sits at
        // the top of the ring, its tail back at the base.
        let last = 0xA0 | ((frames - 1) % 16) as u8;
        let end = total % stride;
        assert!(end < 1500, "the last frame crossed the ring's end");
        let head = (1500 - end) as usize;
        assert_eq!(
            dma.host_mut().read(base, end as usize),
            vec![last; end as usize]
        );
        assert_eq!(
            dma.host_mut().read(base + stride - head as u64, head),
            vec![last; head]
        );
    }

    #[test]
    fn service_time_scales_with_length() {
        let dma = dma();
        let short = read_msg(1, 0, 32, &[9]);
        let long = read_msg(2, 0, 4096, &[9]);
        let st_short = dma.service_time(&short);
        let st_long = dma.service_time(&long);
        // base 60 + 1 vs base 60 + 64.
        assert_eq!(st_short, Cycles(61));
        assert_eq!(st_long, Cycles(124));
        assert!(st_long > st_short);
    }

    #[test]
    fn contention_is_deterministic_and_probabilistic() {
        let cfg = DmaConfig {
            contention_pct: 50,
            contention_extra: Cycles(1000),
            ..DmaConfig::default()
        };
        let dma = DmaEngine::new("dma", 9, cfg, 1, None);
        let mut slow = 0;
        for id in 0..1000 {
            let m = read_msg(id, 0, 32, &[9]);
            let st = dma.service_time(&m);
            // Same id, same service time.
            assert_eq!(dma.service_time(&m), st);
            if st.count() > 500 {
                slow += 1;
            }
        }
        assert!((350..650).contains(&slow), "contention rate off: {slow}");
    }

    #[test]
    fn truncated_descriptor_is_consumed() {
        let mut dma = dma();
        let msg = Message::builder(MessageId(1), MessageKind::DmaRead)
            .payload(Bytes::from_static(&[1, 2, 3]))
            .build();
        assert!(matches!(dma.process(msg, Cycle(0))[0], Output::Consumed));
    }

    #[test]
    fn polling_mode_has_no_pcie_event() {
        let mut dma = DmaEngine::new("dma", 9, DmaConfig::default(), 1, None);
        let msg = Message::builder(MessageId(3), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0; 10]))
            .build();
        let out = dma.process(msg, Cycle(0));
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Output::Egress(EgressKind::Host, _)));
    }
}
