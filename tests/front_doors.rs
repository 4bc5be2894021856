//! The byte front doors: every decoder that reads bytes from outside
//! the NIC — a frame's headers, the frame walks down to IPv4, UDP and
//! a KVS request, its chain header, a KVS request, a DMA descriptor,
//! an RDMA work element — returns its typed error or `None` on any
//! input: arbitrary bytes, a valid encoding cut short, or a valid
//! encoding with one byte flipped. Never a panic, and never a header
//! that claims more bytes than it was given.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use engines::dma::DmaDescriptor;
use engines::kvs_cache::RdmaWorkDesc;
use packet::chain::{ChainHeader, EngineId, Hop, Slack};
use packet::headers::{
    parse_ipv4, parse_udp, EspHeader, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr, TcpHeader,
    UdpHeader,
};
use packet::kvs::{KvsFrame, KvsRequest};
use sim_core::rng::SplitMix64;
use workloads::frames::FrameFactory;

/// Every front door on one input. A decoder that accepts must not
/// claim to have consumed, or to carry, more than `data` holds.
fn check(data: &[u8]) {
    if let Ok((chain, used)) = ChainHeader::decode(data) {
        assert!(used <= data.len(), "{data:?}");
        assert!(chain.encode().len() <= used, "{data:?}");
    }
    let used = [
        EthernetHeader::parse(data).map(|(_, n)| n).ok(),
        Ipv4Header::parse(data).map(|(_, n)| n).ok(),
        UdpHeader::parse(data).map(|(_, n)| n).ok(),
        TcpHeader::parse(data).map(|(_, n)| n).ok(),
        EspHeader::parse(data).map(|(_, n)| n).ok(),
        parse_ipv4(data).map(|(.., n)| n),
        parse_udp(data).map(|(.., n)| n),
    ];
    for n in used.into_iter().flatten() {
        assert!(n <= data.len(), "{data:?}");
    }
    if let Some(f) = KvsFrame::parse(data) {
        let headers = EthernetHeader::SIZE + Ipv4Header::SIZE + UdpHeader::SIZE;
        assert!(headers + f.request.wire_size() <= data.len(), "{data:?}");
    }
    if let Ok(req) = KvsRequest::decode(data) {
        assert!(req.wire_size() <= data.len(), "{data:?}");
    }
    if let Some(d) = DmaDescriptor::decode(data) {
        assert_eq!(DmaDescriptor::HEADER + d.data.len(), data.len());
    }
    if let Some(w) = RdmaWorkDesc::decode(data) {
        assert_eq!(RdmaWorkDesc::HEADER + w.frame.len(), data.len());
    }
}

/// Bytes drawn from `rng`, `len` of them.
fn noise(rng: &mut SplitMix64, len: usize) -> Bytes {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Kinds of valid encoding [`valid`] draws from.
const FRONT_DOORS: usize = 10;

/// An Ethernet/IPv4/UDP frame carrying a KVS request, its fields drawn
/// from `r`: what [`parse_ipv4`], [`parse_udp`] and [`KvsFrame::parse`]
/// all accept.
fn kvs_frame(r: &mut impl FnMut() -> u64) -> Bytes {
    let (client, src_port, dst_port) = (Ipv4Addr::from_u32(r() as u32), r() as u16, r() as u16);
    let value = noise(&mut SplitMix64::new(r()), (r() % 64) as usize);
    let request = KvsRequest::set(r() as u16, r() as u32, r(), value).encode();
    FrameFactory::for_nic_port(r() as u32).inbound_udp(client, src_port, dst_port, &request, 0)
}

/// One valid encoding of front door `which`, its fields drawn from
/// `seed`.
fn valid(which: usize, seed: u64) -> Bytes {
    let mut rng = SplitMix64::new(seed);
    let mut r = || rng.next_u64();
    let mut out = BytesMut::new();
    match which % FRONT_DOORS {
        0 => {
            let hops = (0..r() % 17)
                .map(|_| Hop {
                    engine: EngineId(r() as u16),
                    slack: Slack(r() as u32),
                })
                .collect();
            let mut chain = ChainHeader::new(hops).expect("at most MAX_HOPS");
            for _ in 0..r() % 3 {
                chain.advance();
            }
            return Bytes::from(chain.encode());
        }
        1 => EthernetHeader {
            dst: MacAddr::for_port(r() as u32),
            src: MacAddr::for_port(r() as u32),
            ethertype: r() as u16,
        }
        .emit(&mut out),
        2 => Ipv4Header {
            tos: r() as u8,
            total_len: r() as u16,
            ident: r() as u16,
            ttl: r() as u8,
            protocol: r() as u8,
            src: Ipv4Addr::from_u32(r() as u32),
            dst: Ipv4Addr::from_u32(r() as u32),
        }
        .emit(&mut out),
        3 => UdpHeader {
            src_port: r() as u16,
            dst_port: r() as u16,
            len: r() as u16,
            checksum: r() as u16,
        }
        .emit(&mut out),
        4 => TcpHeader {
            src_port: r() as u16,
            dst_port: r() as u16,
            seq: r() as u32,
            ack: r() as u32,
            flags: r() as u8,
            window: r() as u16,
            checksum: r() as u16,
        }
        .emit(&mut out),
        5 => EspHeader {
            spi: r() as u32,
            seq: r() as u32,
        }
        .emit(&mut out),
        6 => {
            let len = (r() % 96) as usize;
            let (tenant, id, key) = (r() as u16, r() as u32, r());
            let value = noise(&mut SplitMix64::new(r()), len);
            return KvsRequest::set(tenant, id, key, value).encode();
        }
        7 => {
            let len = (r() % 64) as usize;
            let (addr, tag) = (r(), r());
            let data = noise(&mut SplitMix64::new(r()), len);
            return DmaDescriptor {
                addr,
                len: len as u32,
                tag,
                data,
            }
            .encode();
        }
        8 => {
            let len = (r() % 96) as usize;
            let addr = r();
            let frame = noise(&mut SplitMix64::new(r()), len);
            return RdmaWorkDesc {
                addr,
                len: len as u32,
                frame,
            }
            .encode();
        }
        _ => return kvs_frame(&mut r),
    }
    out.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..160)) {
        check(&data);
    }

    /// Every prefix a valid encoding can be cut to, including the whole
    /// of it and nothing at all.
    #[test]
    fn truncated_encodings_never_panic(which in 0usize..FRONT_DOORS, seed in any::<u64>()) {
        let bytes = valid(which, seed);
        for cut in 0..=bytes.len() {
            check(&bytes[..cut]);
        }
    }

    #[test]
    fn flipped_encodings_never_panic(which in 0usize..FRONT_DOORS, seed in any::<u64>(),
                                     at in any::<usize>(), flip in 1u8..=255) {
        let mut bytes = valid(which, seed).to_vec();
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= flip;
        }
        check(&bytes);
    }
}
