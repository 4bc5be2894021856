//! Property-based tests on the core data structures and invariants,
//! spanning crates (which is why they live at the workspace root).

use bytes::Bytes;
use proptest::prelude::*;

use packet::chain::{ChainHeader, EngineId, Hop, Slack};
use packet::headers::{
    build_udp_frame, ethertype, internet_checksum, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr,
    UdpHeader,
};
use packet::kvs::KvsRequest;
use packet::message::{Message, MessageId, MessageKind};
use packet::Flit;
use rmt::parse::ParseGraph;
use sched::pifo::Pifo;
use sim_core::stats::Histogram;

fn arb_hop() -> impl Strategy<Value = Hop> {
    (any::<u16>(), any::<u32>()).prop_map(|(e, s)| Hop {
        engine: EngineId(e),
        slack: Slack(s),
    })
}

proptest! {
    /// Chain encode/decode is the identity on pending hops, at any
    /// cursor position.
    #[test]
    fn chain_roundtrip(hops in proptest::collection::vec(arb_hop(), 0..=16), advances in 0usize..20) {
        let mut chain = ChainHeader::new(hops).unwrap();
        for _ in 0..advances {
            let _ = chain.advance();
        }
        let bytes = chain.encode();
        prop_assert_eq!(bytes.len(), chain.wire_bytes());
        let (decoded, used) = ChainHeader::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded.len(), chain.remaining());
        // Pending hops survive byte-for-byte.
        let pending: Vec<Hop> = {
            let mut c = chain.clone();
            let mut v = Vec::new();
            while let Some(h) = c.current() {
                v.push(h);
                c.advance();
            }
            v
        };
        prop_assert_eq!(decoded.hops(), &pending[..]);
    }

    /// Any KVS request round-trips through its wire encoding.
    #[test]
    fn kvs_roundtrip(tenant in any::<u16>(), id in any::<u32>(), key in any::<u64>(),
                     value in proptest::collection::vec(any::<u8>(), 0..512)) {
        let req = KvsRequest::set(tenant, id, key, Bytes::from(value));
        let decoded = KvsRequest::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    /// Emitted IPv4 headers always checksum to zero and reparse to the
    /// same header, for arbitrary field values.
    #[test]
    fn ipv4_emit_parse(tos in any::<u8>(), len in any::<u16>(), ident in any::<u16>(),
                       ttl in any::<u8>(), proto in any::<u8>(), src in any::<u32>(), dst in any::<u32>()) {
        let h = Ipv4Header {
            tos,
            total_len: len,
            ident,
            ttl,
            protocol: proto,
            src: Ipv4Addr::from_u32(src),
            dst: Ipv4Addr::from_u32(dst),
        };
        let mut buf = bytes::BytesMut::new();
        h.emit(&mut buf);
        prop_assert_eq!(internet_checksum(&buf), 0);
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        prop_assert_eq!(parsed, h);
    }

    /// The toy ESP transform is invertible for arbitrary inner frames
    /// and keys, and never invertible under the wrong key (tag check).
    #[test]
    fn ipsec_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..256),
                       key in any::<u64>(), seq in any::<u32>()) {
        use engines::ipsec::{decrypt_frame, encrypt_frame, SecurityAssoc, TunnelConfig};
        let tunnel = TunnelConfig {
            sa: SecurityAssoc { spi: 7, key },
            outer_src_mac: MacAddr::for_port(0),
            outer_dst_mac: MacAddr::for_port(1),
            outer_src_ip: Ipv4Addr::new(1, 2, 3, 4),
            outer_dst_ip: Ipv4Addr::new(5, 6, 7, 8),
        };
        let inner = build_udp_frame(
            EthernetHeader {
                dst: MacAddr::for_port(2),
                src: MacAddr::for_port(3),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 0, total_len: 0, ident: 0, ttl: 64, protocol: 0,
                src: Ipv4Addr::new(10, 0, 0, 1), dst: Ipv4Addr::new(10, 0, 0, 2),
            },
            UdpHeader { src_port: 1, dst_port: 2, len: 0, checksum: 0 },
            &payload,
        );
        let outer = encrypt_frame(&inner, &tunnel, seq);
        let mut sas = std::collections::HashMap::new();
        sas.insert(7u32, SecurityAssoc { spi: 7, key });
        prop_assert_eq!(&decrypt_frame(&outer, &sas).unwrap()[..], &inner[..]);
        let mut wrong = std::collections::HashMap::new();
        wrong.insert(7u32, SecurityAssoc { spi: 7, key: key.wrapping_add(1) });
        prop_assert!(decrypt_frame(&outer, &wrong).is_none());
    }

    /// Flit segmentation: flit count matches ceil(bits/width), exactly
    /// one head and one tail, sequence numbers dense, and the message
    /// survives in the tail.
    #[test]
    fn flit_segmentation(payload_len in 0usize..4096, width_pow in 5u32..9) {
        let width = 1u64 << width_pow; // 32..256 bits
        let msg = Message::builder(MessageId(1), MessageKind::Internal)
            .payload(Bytes::from(vec![0u8; payload_len]))
            .build();
        let wire_bits = msg.wire_size().bits();
        let flits = Flit::segment(msg, EngineId(3), width);
        let expect = wire_bits.div_ceil(width).max(1) as usize;
        prop_assert_eq!(flits.len(), expect);
        prop_assert_eq!(flits.iter().filter(|f| f.kind.is_head()).count(), 1);
        prop_assert_eq!(flits.iter().filter(|f| f.kind.is_tail()).count(), 1);
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.seq as usize, i);
            prop_assert_eq!(f.total as usize, expect);
        }
        let tail = flits.into_iter().next_back().unwrap();
        prop_assert_eq!(tail.into_message().payload.len(), payload_len);
    }

    /// PIFO pop order equals a stable sort by rank of the pushes.
    #[test]
    fn pifo_is_a_stable_priority_queue(ranks in proptest::collection::vec(0u64..50, 1..200)) {
        let mut pifo = Pifo::new();
        for (i, &r) in ranks.iter().enumerate() {
            pifo.push(r, i);
        }
        let mut expect: Vec<(u64, usize)> = ranks.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&(r, i)| (r, i));
        let mut got = Vec::new();
        while let Some(i) = pifo.pop() {
            got.push(i);
        }
        prop_assert_eq!(got, expect.into_iter().map(|(_, i)| i).collect::<Vec<_>>());
    }

    /// Histogram quantiles are within the documented 7% relative error
    /// of exact order statistics for arbitrary sample sets.
    #[test]
    fn histogram_quantile_error_bound(mut samples in proptest::collection::vec(1u64..1_000_000, 10..500)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for &q in &[0.5f64, 0.9, 0.99] {
            let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
            let exact = samples[idx] as f64;
            let got = h.quantile(q) as f64;
            prop_assert!(
                (got - exact).abs() <= exact * 0.07 + 1.0,
                "q={} got {} exact {}", q, got, exact
            );
        }
        prop_assert_eq!(h.min(), samples[0]);
        prop_assert_eq!(h.max(), *samples.last().unwrap());
    }

    /// The standard parse graph never panics on arbitrary bytes and
    /// never claims layers beyond the input length.
    #[test]
    fn parser_is_total(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let g = ParseGraph::standard(6379);
        let out = g.parse(&data);
        prop_assert!(out.payload_offset <= data.len().max(out.payload_offset));
        // Each recognized layer's header must fit inside the input.
        for (layer, off) in &out.layers {
            prop_assert!(off + layer.header_size() <= data.len(),
                "layer {:?} at {} overruns {} bytes", layer, off, data.len());
        }
    }

    /// Deparse(parse(x)) == x for generated UDP frames with arbitrary
    /// ports and payloads (identity when the PHV is unmodified).
    #[test]
    fn deparse_identity(src_port in any::<u16>(), dst_port in any::<u16>(),
                        payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let frame = build_udp_frame(
            EthernetHeader {
                dst: MacAddr::for_port(0),
                src: MacAddr::for_port(1),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 3, total_len: 0, ident: 9, ttl: 61, protocol: 0,
                src: Ipv4Addr::new(10, 0, 0, 1), dst: Ipv4Addr::new(10, 0, 0, 2),
            },
            UdpHeader { src_port, dst_port, len: 0, checksum: 0 },
            &payload,
        );
        let g = ParseGraph::standard(6379);
        let out = g.parse(&frame);
        let rebuilt = rmt::deparse::deparse(&frame, &out, &out.phv);
        prop_assert_eq!(&rebuilt[..], &frame[..]);
    }
}
