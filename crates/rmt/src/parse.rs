//! The programmable parser: a parse graph walked over real bytes.
//!
//! RMT parsers (Figure 3b) are programmed as a graph: each state
//! extracts one header, writes its fields into the PHV, and selects the
//! next state from an extracted field. We model exactly that — the
//! graph is *data*, so programs can extend or restrict what the NIC
//! parses without code changes, and the same graph drives the deparser
//! (which must know the layer layout to patch bytes back).

use packet::headers::{
    ethertype, ipproto, EspHeader, EthernetHeader, Ipv4Header, TcpHeader, UdpHeader,
};
use packet::kvs::KvsRequest;
use packet::phv::{Field, Phv};

/// Header kinds a parse state can extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Ethernet II.
    Ethernet,
    /// IPv4 (checksum-verified).
    Ipv4,
    /// UDP.
    Udp,
    /// TCP.
    Tcp,
    /// IPSec ESP — a terminal layer: everything after it is ciphertext.
    Esp,
    /// The KVS application header.
    Kvs,
}

impl Layer {
    /// Encoded size of this layer's header.
    #[must_use]
    pub fn header_size(self) -> usize {
        match self {
            Layer::Ethernet => EthernetHeader::SIZE,
            Layer::Ipv4 => Ipv4Header::SIZE,
            Layer::Udp => UdpHeader::SIZE,
            Layer::Tcp => TcpHeader::SIZE,
            Layer::Esp => EspHeader::SIZE,
            Layer::Kvs => KvsRequest::HEADER_SIZE,
        }
    }

    /// The PHV fields [`ParseGraph::parse`] writes when this layer is
    /// recognized. Static metadata used by the verifier's def-use check
    /// (PV202): a field is "defined" in the parser iff some reachable
    /// layer lists it here.
    #[must_use]
    pub fn fields(self) -> &'static [Field] {
        match self {
            Layer::Ethernet => &[Field::EthDst, Field::EthSrc, Field::EthType],
            Layer::Ipv4 => &[
                Field::IpTos,
                Field::IpTotalLen,
                Field::IpIdent,
                Field::IpTtl,
                Field::IpProto,
                Field::IpSrc,
                Field::IpDst,
            ],
            Layer::Udp => &[Field::L4SrcPort, Field::L4DstPort],
            Layer::Tcp => &[Field::L4SrcPort, Field::L4DstPort, Field::TcpFlags],
            Layer::Esp => &[Field::EspSpi, Field::EspSeq],
            Layer::Kvs => &[
                Field::KvsOp,
                Field::KvsTenant,
                Field::KvsKey,
                Field::KvsRequestId,
            ],
        }
    }
}

/// A transition: from `layer`, when the selector field equals `value`,
/// continue parsing `next`.
#[derive(Debug, Clone, Copy)]
struct Transition {
    from: Layer,
    value: u64,
    next: Layer,
}

/// A parse graph: the start layer plus transitions.
///
/// The selector field of each layer is fixed by the protocol (the field
/// a real parser would key its TCAM on): Ethernet → EtherType, IPv4 →
/// protocol, UDP → destination port. TCP, ESP and KVS are terminal.
#[derive(Debug, Clone)]
pub struct ParseGraph {
    start: Layer,
    transitions: Vec<Transition>,
}

/// Everything the parser learned about a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOutcome {
    /// Extracted fields.
    pub phv: Phv,
    /// Layers recognized, in order, with their byte offsets.
    pub layers: Vec<(Layer, usize)>,
    /// Offset of the first byte after the last parsed header — the
    /// packet's opaque payload as far as the pipeline is concerned.
    pub payload_offset: usize,
}

impl Default for ParseOutcome {
    /// An outcome describing "nothing parsed": empty PHV, no layers,
    /// payload at offset zero. Use as the reusable target of
    /// [`ParseGraph::parse_into`].
    fn default() -> ParseOutcome {
        ParseOutcome {
            phv: Phv::new(),
            layers: Vec::new(),
            payload_offset: 0,
        }
    }
}

impl ParseOutcome {
    /// True if `layer` was recognized.
    #[must_use]
    pub fn has_layer(&self, layer: Layer) -> bool {
        self.layers.iter().any(|&(l, _)| l == layer)
    }
}

impl ParseGraph {
    /// An empty graph starting at `start` with no transitions: parses a
    /// single layer.
    #[must_use]
    pub fn starting_at(start: Layer) -> ParseGraph {
        ParseGraph {
            start,
            transitions: Vec::new(),
        }
    }

    /// Adds a transition: from `from`, when its selector equals
    /// `value`, continue at `next`.
    #[must_use]
    pub fn with_edge(mut self, from: Layer, value: u64, next: Layer) -> ParseGraph {
        self.transitions.push(Transition { from, value, next });
        self
    }

    /// The standard graph used by the PANIC programs:
    /// Ethernet → IPv4 → {UDP → KVS (on `kvs_port`), TCP, ESP}.
    #[must_use]
    pub fn standard(kvs_port: u16) -> ParseGraph {
        ParseGraph::starting_at(Layer::Ethernet)
            .with_edge(Layer::Ethernet, u64::from(ethertype::IPV4), Layer::Ipv4)
            .with_edge(Layer::Ipv4, u64::from(ipproto::UDP), Layer::Udp)
            .with_edge(Layer::Ipv4, u64::from(ipproto::TCP), Layer::Tcp)
            .with_edge(Layer::Ipv4, u64::from(ipproto::ESP), Layer::Esp)
            .with_edge(Layer::Udp, u64::from(kvs_port), Layer::Kvs)
    }

    /// The start layer.
    #[must_use]
    pub fn start(&self) -> Layer {
        self.start
    }

    /// All transitions as `(from, selector value, next)` triples —
    /// read-only structural access for static analysis (cycle
    /// detection, layer reachability).
    pub fn edges(&self) -> impl Iterator<Item = (Layer, u64, Layer)> + '_ {
        self.transitions.iter().map(|t| (t.from, t.value, t.next))
    }

    fn next_layer(&self, from: Layer, selector: u64) -> Option<Layer> {
        self.transitions
            .iter()
            .find(|t| t.from == from && t.value == selector)
            .map(|t| t.next)
    }

    /// Walks the graph over `data`, extracting fields. Parsing stops —
    /// without error — at the first unrecognized or truncated layer;
    /// whatever was extracted so far stands (hardware parsers behave
    /// the same way: unknown payloads are just opaque bytes).
    ///
    /// A checksum-invalid IPv4 header *does* stop the walk: the field
    /// extraction cannot be trusted. Callers see the absence of
    /// [`Field::IpSrc`] etc. and can route the packet to an error path.
    #[must_use]
    pub fn parse(&self, data: &[u8]) -> ParseOutcome {
        let mut out = ParseOutcome::default();
        self.parse_into(data, &mut out);
        out
    }

    /// [`ParseGraph::parse`] into a caller-owned, reusable
    /// [`ParseOutcome`] (reset first). Once `out.layers` has grown to
    /// the working set's deepest header stack this performs **no heap
    /// allocation** — the hot-path variant the RMT pipeline's
    /// per-message scratch uses (see `docs/PERF.md`).
    pub fn parse_into(&self, data: &[u8], out: &mut ParseOutcome) {
        out.phv = Phv::new();
        out.layers.clear();
        let mut offset = 0usize;
        let mut layer = self.start;
        while let Some((sel_a, sel_b)) =
            self.extract(layer, &data[offset.min(data.len())..], &mut out.phv)
        {
            out.layers.push((layer, offset));
            offset += layer.header_size();
            // L4 layers branch on either port (a KVS *reply* carries the
            // service port as its source), so each layer may offer a
            // secondary selector.
            match self
                .next_layer(layer, sel_a)
                .or_else(|| self.next_layer(layer, sel_b))
            {
                Some(next) => layer = next,
                None => break,
            }
        }
        out.payload_offset = offset;
    }

    /// Extracts one layer at the front of `data` into `phv`, returning
    /// the (primary, secondary) selector values for the next
    /// transition, or `None` if the layer did not parse.
    fn extract(&self, layer: Layer, data: &[u8], phv: &mut Phv) -> Option<(u64, u64)> {
        extract_layer(layer, data, phv)
    }
}

/// Extracts one layer at the front of `data` into `phv`, returning the
/// (primary, secondary) selector values for the next transition, or
/// `None` if the layer did not parse. Shared by the interpreted
/// [`ParseGraph`] walk and the compiled parser
/// ([`crate::compile::CompiledProgram`]) so both extract byte-identical
/// fields.
pub(crate) fn extract_layer(layer: Layer, data: &[u8], phv: &mut Phv) -> Option<(u64, u64)> {
    {
        match layer {
            Layer::Ethernet => {
                let (h, _) = EthernetHeader::parse(data).ok()?;
                let mac_u64 =
                    |m: [u8; 6]| u64::from_be_bytes([0, 0, m[0], m[1], m[2], m[3], m[4], m[5]]);
                phv.set(Field::EthDst, mac_u64(h.dst.0));
                phv.set(Field::EthSrc, mac_u64(h.src.0));
                phv.set(Field::EthType, u64::from(h.ethertype));
                let sel = u64::from(h.ethertype);
                Some((sel, sel))
            }
            Layer::Ipv4 => {
                let (h, _) = Ipv4Header::parse(data).ok()?;
                phv.set(Field::IpTos, u64::from(h.tos));
                phv.set(Field::IpTotalLen, u64::from(h.total_len));
                phv.set(Field::IpIdent, u64::from(h.ident));
                phv.set(Field::IpTtl, u64::from(h.ttl));
                phv.set(Field::IpProto, u64::from(h.protocol));
                phv.set(Field::IpSrc, u64::from(h.src.as_u32()));
                phv.set(Field::IpDst, u64::from(h.dst.as_u32()));
                let sel = u64::from(h.protocol);
                Some((sel, sel))
            }
            Layer::Udp => {
                let (h, _) = UdpHeader::parse(data).ok()?;
                phv.set(Field::L4SrcPort, u64::from(h.src_port));
                phv.set(Field::L4DstPort, u64::from(h.dst_port));
                Some((u64::from(h.dst_port), u64::from(h.src_port)))
            }
            Layer::Tcp => {
                let (h, _) = TcpHeader::parse(data).ok()?;
                phv.set(Field::L4SrcPort, u64::from(h.src_port));
                phv.set(Field::L4DstPort, u64::from(h.dst_port));
                phv.set(Field::TcpFlags, u64::from(h.flags));
                Some((u64::from(h.dst_port), u64::from(h.src_port)))
            }
            Layer::Esp => {
                let (h, _) = EspHeader::parse(data).ok()?;
                phv.set(Field::EspSpi, u64::from(h.spi));
                phv.set(Field::EspSeq, u64::from(h.seq));
                // Terminal: everything beyond is ciphertext.
                Some((0, 0))
            }
            Layer::Kvs => {
                let r = KvsRequest::decode(data).ok()?;
                phv.set(
                    Field::KvsOp,
                    u64::from(match r.op {
                        packet::kvs::KvsOp::Get => 1u8,
                        packet::kvs::KvsOp::Set => 2,
                        packet::kvs::KvsOp::Del => 3,
                        packet::kvs::KvsOp::Reply => 4,
                    }),
                );
                phv.set(Field::KvsTenant, u64::from(r.tenant));
                phv.set(Field::KvsKey, r.key);
                phv.set(Field::KvsRequestId, u64::from(r.request_id));
                Some((0, 0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use packet::headers::{build_esp_frame, build_udp_frame, Ipv4Addr, MacAddr};
    use packet::kvs::KvsRequest;

    const KVS_PORT: u16 = 6379;

    fn eth() -> EthernetHeader {
        EthernetHeader {
            dst: MacAddr::for_port(0),
            src: MacAddr::for_port(1),
            ethertype: ethertype::IPV4,
        }
    }

    fn ip() -> Ipv4Header {
        Ipv4Header {
            tos: 4,
            total_len: 0,
            ident: 1,
            ttl: 63,
            protocol: 0,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 9),
        }
    }

    fn kvs_frame() -> Bytes {
        let req = KvsRequest::get(7, 123, 0xfeed);
        build_udp_frame(
            eth(),
            ip(),
            UdpHeader {
                src_port: 5555,
                dst_port: KVS_PORT,
                len: 0,
                checksum: 0,
            },
            &req.encode(),
        )
    }

    #[test]
    fn parses_full_kvs_stack() {
        let g = ParseGraph::standard(KVS_PORT);
        let out = g.parse(&kvs_frame());
        assert!(out.has_layer(Layer::Ethernet));
        assert!(out.has_layer(Layer::Ipv4));
        assert!(out.has_layer(Layer::Udp));
        assert!(out.has_layer(Layer::Kvs));
        assert_eq!(out.phv.get(Field::EthType), Some(0x0800));
        assert_eq!(out.phv.get(Field::IpProto), Some(17));
        assert_eq!(out.phv.get(Field::IpDst), Some(0xc0a80109));
        assert_eq!(out.phv.get(Field::L4DstPort), Some(u64::from(KVS_PORT)));
        assert_eq!(out.phv.get(Field::KvsOp), Some(1));
        assert_eq!(out.phv.get(Field::KvsTenant), Some(7));
        assert_eq!(out.phv.get(Field::KvsKey), Some(0xfeed));
        assert_eq!(out.phv.get(Field::KvsRequestId), Some(123));
        // Payload offset: 14 + 20 + 8 + 17 (KVS header).
        assert_eq!(out.payload_offset, 59);
        assert_eq!(out.layers.last(), Some(&(Layer::Kvs, 42)));
    }

    #[test]
    fn udp_to_other_port_stops_at_udp() {
        let g = ParseGraph::standard(KVS_PORT);
        let frame = build_udp_frame(
            eth(),
            ip(),
            UdpHeader {
                src_port: 1,
                dst_port: 80,
                len: 0,
                checksum: 0,
            },
            b"hello",
        );
        let out = g.parse(&frame);
        assert!(out.has_layer(Layer::Udp));
        assert!(!out.has_layer(Layer::Kvs));
        assert_eq!(out.payload_offset, 42);
        assert!(!out.phv.has(Field::KvsOp));
    }

    #[test]
    fn esp_is_terminal_and_hides_inner_bytes() {
        let g = ParseGraph::standard(KVS_PORT);
        let frame = build_esp_frame(eth(), ip(), EspHeader { spi: 77, seq: 3 }, &[0x42; 24]);
        let out = g.parse(&frame);
        assert!(out.has_layer(Layer::Esp));
        assert_eq!(out.phv.get(Field::EspSpi), Some(77));
        // Nothing beyond ESP parsed: the inner headers stay opaque —
        // this is why encrypted packets need a second pipeline pass
        // after the IPSec engine decrypts (§3.1.2).
        assert!(!out.phv.has(Field::L4DstPort));
        assert_eq!(out.payload_offset, 14 + 20 + 8);
    }

    #[test]
    fn corrupt_ip_checksum_stops_extraction() {
        let g = ParseGraph::standard(KVS_PORT);
        let mut frame = kvs_frame().to_vec();
        frame[20] ^= 0x5a; // corrupt inside the IP header
        let out = g.parse(&frame);
        assert!(out.has_layer(Layer::Ethernet));
        assert!(!out.has_layer(Layer::Ipv4));
        assert!(!out.phv.has(Field::IpSrc));
        assert_eq!(out.payload_offset, 14);
    }

    #[test]
    fn truncated_frame_parses_prefix_only() {
        let g = ParseGraph::standard(KVS_PORT);
        let frame = kvs_frame();
        let out = g.parse(&frame[..20]); // cuts into the IP header
        assert!(out.has_layer(Layer::Ethernet));
        assert!(!out.has_layer(Layer::Ipv4));
    }

    #[test]
    fn non_ip_ethertype_stops_at_ethernet() {
        let g = ParseGraph::standard(KVS_PORT);
        let mut e = eth();
        e.ethertype = ethertype::ARP;
        let frame = build_udp_frame(
            e,
            ip(),
            UdpHeader {
                src_port: 0,
                dst_port: 0,
                len: 0,
                checksum: 0,
            },
            b"",
        );
        let out = g.parse(&frame);
        assert_eq!(out.layers.len(), 1);
        assert_eq!(out.phv.get(Field::EthType), Some(u64::from(ethertype::ARP)));
    }

    #[test]
    fn custom_graph_single_layer() {
        // A graph that only parses Ethernet: a pure L2 switch program.
        let g = ParseGraph::starting_at(Layer::Ethernet);
        let out = g.parse(&kvs_frame());
        assert_eq!(out.layers.len(), 1);
        assert_eq!(out.payload_offset, 14);
    }

    #[test]
    fn tcp_branch_extracts_flags() {
        let g = ParseGraph::standard(KVS_PORT);
        // Hand-build an Eth+IP+TCP frame.
        let mut ip_h = ip();
        ip_h.protocol = ipproto::TCP;
        ip_h.total_len = (Ipv4Header::SIZE + TcpHeader::SIZE) as u16;
        let mut buf = bytes::BytesMut::new();
        eth().emit(&mut buf);
        ip_h.emit(&mut buf);
        TcpHeader {
            src_port: 9,
            dst_port: 443,
            seq: 1,
            ack: 2,
            flags: 0x12,
            window: 100,
            checksum: 0,
        }
        .emit(&mut buf);
        let out = g.parse(&buf);
        assert!(out.has_layer(Layer::Tcp));
        assert_eq!(out.phv.get(Field::TcpFlags), Some(0x12));
        assert_eq!(out.phv.get(Field::L4DstPort), Some(443));
    }

    #[test]
    fn layer_header_sizes() {
        assert_eq!(Layer::Ethernet.header_size(), 14);
        assert_eq!(Layer::Ipv4.header_size(), 20);
        assert_eq!(Layer::Udp.header_size(), 8);
        assert_eq!(Layer::Tcp.header_size(), 20);
        assert_eq!(Layer::Esp.header_size(), 8);
        assert_eq!(Layer::Kvs.header_size(), 17);
    }
}
