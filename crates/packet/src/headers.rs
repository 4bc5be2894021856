//! Wire formats, implemented from scratch.
//!
//! The heavyweight RMT pipeline parses *real bytes* (§3.1.2: "parses
//! complex message (packet) headers"), so the simulator carries real
//! encodings rather than pre-parsed structs. This module provides the
//! encode/decode pairs for the protocols the paper's examples need:
//! Ethernet II, IPv4 (with the genuine ones'-complement checksum), UDP,
//! TCP, and an ESP-style IPSec encapsulation. Each type is a plain
//! struct with `parse`/`emit` inverses; parsing is zero-panic (errors
//! are values) because packets from a workload generator are still
//! untrusted input to the pipeline.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use std::sync::Arc;

/// Errors from parsing any of the header formats in this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Input shorter than the fixed header size.
    Truncated {
        /// Protocol being parsed.
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A version/length field had an unsupported value.
    Unsupported {
        /// Protocol being parsed.
        what: &'static str,
        /// Description of the violation.
        why: &'static str,
    },
    /// Checksum verification failed.
    BadChecksum {
        /// Protocol whose checksum failed.
        what: &'static str,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { what, need, have } => {
                write!(f, "{what}: truncated ({have} of {need} bytes)")
            }
            ParseError::Unsupported { what, why } => write!(f, "{what}: unsupported ({why})"),
            ParseError::BadChecksum { what } => write!(f, "{what}: bad checksum"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// A deterministic locally-administered address for simulated port
    /// `n` (`02:00:00:00:00:nn` style, spilling into higher octets).
    #[must_use]
    pub fn for_port(n: u32) -> MacAddr {
        let b = n.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            a[0], a[1], a[2], a[3], a[4], a[5]
        )
    }
}

/// EtherType values used in the simulator.
pub mod ethertype {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// ARP (recognized but not processed by the models).
    pub const ARP: u16 = 0x0806;
}

/// IPv4 protocol numbers used in the simulator.
pub mod ipproto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// IPSec ESP.
    pub const ESP: u8 = 50;
}

/// An Ethernet II header (no 802.1Q support, matching smoltcp's scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Encoded size in bytes.
    pub const SIZE: usize = 14;

    /// Parses the header from the front of `data`, returning the header
    /// and the number of bytes consumed.
    pub fn parse(data: &[u8]) -> Result<(EthernetHeader, usize), ParseError> {
        if data.len() < Self::SIZE {
            return Err(ParseError::Truncated {
                what: "ethernet",
                need: Self::SIZE,
                have: data.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = u16::from_be_bytes([data[12], data[13]]);
        Ok((
            EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype,
            },
            Self::SIZE,
        ))
    }

    /// The encoded header.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut h = [0u8; Self::SIZE];
        h[0..6].copy_from_slice(&self.dst.0);
        h[6..12].copy_from_slice(&self.src.0);
        h[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
        h
    }

    /// Appends the encoded header to `out`.
    pub fn emit(&self, out: &mut BytesMut) {
        out.put_slice(&self.to_bytes());
    }
}

/// A 32-bit IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Builds from four dotted-quad octets.
    #[must_use]
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr([a, b, c, d])
    }

    /// The address as a big-endian u32 (useful for LPM tables).
    #[must_use]
    pub fn as_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// From a big-endian u32.
    #[must_use]
    pub fn from_u32(v: u32) -> Ipv4Addr {
        Ipv4Addr(v.to_be_bytes())
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// Internet (ones'-complement) checksum over `data`, per RFC 1071.
#[must_use]
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// An IPv4 header (no options; IHL fixed at 5, like the vast majority of
/// real traffic and all traffic our generators produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// DSCP/ECN byte; the simulator uses DSCP to carry workload priority
    /// hints onto the wire.
    pub tos: u8,
    /// Total length: header + payload, in bytes.
    pub total_len: u16,
    /// Identification (used by generators as a per-flow sequence).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (see [`ipproto`]).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Encoded size in bytes (no options).
    pub const SIZE: usize = 20;

    /// Parses and checksum-verifies the header.
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, usize), ParseError> {
        if data.len() < Self::SIZE {
            return Err(ParseError::Truncated {
                what: "ipv4",
                need: Self::SIZE,
                have: data.len(),
            });
        }
        let ver_ihl = data[0];
        if ver_ihl >> 4 != 4 {
            return Err(ParseError::Unsupported {
                what: "ipv4",
                why: "version is not 4",
            });
        }
        if ver_ihl & 0x0f != 5 {
            return Err(ParseError::Unsupported {
                what: "ipv4",
                why: "options not supported (IHL != 5)",
            });
        }
        if internet_checksum(&data[..Self::SIZE]) != 0 {
            return Err(ParseError::BadChecksum { what: "ipv4" });
        }
        Ok((
            Ipv4Header {
                tos: data[1],
                total_len: u16::from_be_bytes([data[2], data[3]]),
                ident: u16::from_be_bytes([data[4], data[5]]),
                ttl: data[8],
                protocol: data[9],
                src: Ipv4Addr([data[12], data[13], data[14], data[15]]),
                dst: Ipv4Addr([data[16], data[17], data[18], data[19]]),
            },
            Self::SIZE,
        ))
    }

    /// Appends the encoded header (with computed checksum) to `out`.
    pub fn emit(&self, out: &mut BytesMut) {
        out.put_slice(&self.to_bytes());
    }

    /// The encoded header, checksum included.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut h = [0u8; Self::SIZE];
        h[0] = 0x45; // version 4, IHL 5
        h[1] = self.tos;
        h[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        // 6..8: flags/fragment, never fragmented in-sim.
        h[8] = self.ttl;
        h[9] = self.protocol;
        // 10..12: the checksum, over the header with it zero.
        h[12..16].copy_from_slice(&self.src.0);
        h[16..20].copy_from_slice(&self.dst.0);
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        h
    }
}

/// A UDP header. The checksum is carried but the simulator treats zero
/// as "not computed", as IPv4 UDP permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header + payload.
    pub len: u16,
    /// Optional checksum (0 = absent).
    pub checksum: u16,
}

impl UdpHeader {
    /// Encoded size in bytes.
    pub const SIZE: usize = 8;

    /// Parses the header.
    pub fn parse(data: &[u8]) -> Result<(UdpHeader, usize), ParseError> {
        if data.len() < Self::SIZE {
            return Err(ParseError::Truncated {
                what: "udp",
                need: Self::SIZE,
                have: data.len(),
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                len: u16::from_be_bytes([data[4], data[5]]),
                checksum: u16::from_be_bytes([data[6], data[7]]),
            },
            Self::SIZE,
        ))
    }

    /// Appends the encoded header to `out`.
    pub fn emit(&self, out: &mut BytesMut) {
        out.put_slice(&self.to_bytes());
    }

    /// The encoded header.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; Self::SIZE] {
        let mut h = [0u8; Self::SIZE];
        for (i, field) in [self.src_port, self.dst_port, self.len, self.checksum]
            .into_iter()
            .enumerate()
        {
            h[2 * i..2 * i + 2].copy_from_slice(&field.to_be_bytes());
        }
        h
    }
}

/// A TCP header (no options; data offset fixed at 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits (FIN=0x01, SYN=0x02, RST=0x04, PSH=0x08, ACK=0x10).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
    /// Checksum (carried, not verified — verification needs the pseudo
    /// header, which the checksum offload engine owns).
    pub checksum: u16,
}

impl TcpHeader {
    /// Encoded size in bytes (no options).
    pub const SIZE: usize = 20;

    /// Parses the header.
    pub fn parse(data: &[u8]) -> Result<(TcpHeader, usize), ParseError> {
        if data.len() < Self::SIZE {
            return Err(ParseError::Truncated {
                what: "tcp",
                need: Self::SIZE,
                have: data.len(),
            });
        }
        let off = data[12] >> 4;
        if off != 5 {
            return Err(ParseError::Unsupported {
                what: "tcp",
                why: "options not supported (data offset != 5)",
            });
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
                ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
                flags: data[13],
                window: u16::from_be_bytes([data[14], data[15]]),
                checksum: u16::from_be_bytes([data[16], data[17]]),
            },
            Self::SIZE,
        ))
    }

    /// Appends the encoded header to `out`.
    pub fn emit(&self, out: &mut BytesMut) {
        out.put_u16(self.src_port);
        out.put_u16(self.dst_port);
        out.put_u32(self.seq);
        out.put_u32(self.ack);
        out.put_u8(5 << 4);
        out.put_u8(self.flags);
        out.put_u16(self.window);
        out.put_u16(self.checksum);
        out.put_u16(0); // urgent pointer
    }
}

/// An ESP-style IPSec header (RFC 4303 layout: SPI + sequence).
///
/// The payload following this header is ciphertext produced by the
/// IPSec engine; the RMT pipeline can parse *up to* this header but not
/// beyond it, which is exactly why encrypted messages need two pipeline
/// passes (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EspHeader {
    /// Security Parameter Index — selects the key/SA at the IPSec engine.
    pub spi: u32,
    /// Anti-replay sequence number.
    pub seq: u32,
}

impl EspHeader {
    /// Encoded size in bytes.
    pub const SIZE: usize = 8;

    /// Parses the header.
    pub fn parse(data: &[u8]) -> Result<(EspHeader, usize), ParseError> {
        if data.len() < Self::SIZE {
            return Err(ParseError::Truncated {
                what: "esp",
                need: Self::SIZE,
                have: data.len(),
            });
        }
        Ok((
            EspHeader {
                spi: u32::from_be_bytes([data[0], data[1], data[2], data[3]]),
                seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            },
            Self::SIZE,
        ))
    }

    /// Appends the encoded header to `out`.
    pub fn emit(&self, out: &mut BytesMut) {
        out.put_u32(self.spi);
        out.put_u32(self.seq);
    }
}

/// Walks the Ethernet and IPv4 headers at the front of `frame`,
/// returning both and the offset of the IPv4 payload. The EtherType is
/// not checked: IPv4 is the only network layer the engines read.
#[must_use]
pub fn parse_ipv4(frame: &[u8]) -> Option<(EthernetHeader, Ipv4Header, usize)> {
    let (eth, n1) = EthernetHeader::parse(frame).ok()?;
    let (ip, n2) = Ipv4Header::parse(&frame[n1..]).ok()?;
    Some((eth, ip, n1 + n2))
}

/// [`parse_ipv4`] one layer further: `None` unless the IPv4 payload is
/// UDP. Returns the three headers and the offset of the UDP payload.
#[must_use]
pub fn parse_udp(frame: &[u8]) -> Option<(EthernetHeader, Ipv4Header, UdpHeader, usize)> {
    let (eth, ip, n) = parse_ipv4(frame)?;
    if ip.protocol != ipproto::UDP {
        return None;
    }
    let (udp, n3) = UdpHeader::parse(&frame[n..]).ok()?;
    Some((eth, ip, udp, n + n3))
}

/// Builds a complete Ethernet/IPv4/UDP frame around `payload`.
///
/// This is the encoder the workload generators use; the result parses
/// back through [`parse_udp`] and is what the RMT parser sees.
#[must_use]
pub fn build_udp_frame(
    eth: EthernetHeader,
    ip: Ipv4Header,
    udp: UdpHeader,
    payload: &[u8],
) -> Bytes {
    build_udp_frame_padded(eth, ip, udp, payload, 0)
}

/// [`build_udp_frame`] whose UDP payload is `payload` followed by `pad`
/// zero bytes, written straight into the frame buffer — how the frame
/// factory pads to a target frame size without building the padded
/// body first.
#[must_use]
pub fn build_udp_frame_padded(
    eth: EthernetHeader,
    mut ip: Ipv4Header,
    mut udp: UdpHeader,
    payload: &[u8],
    pad: usize,
) -> Bytes {
    let body = payload.len() + pad;
    ip.protocol = ipproto::UDP;
    ip.total_len = (Ipv4Header::SIZE + UdpHeader::SIZE + body) as u16;
    udp.len = (UdpHeader::SIZE + body) as u16;
    // One allocation: the frame's shared buffer, zeroed (the padding),
    // then the headers and payload written into it in place.
    let headers = EthernetHeader::SIZE + Ipv4Header::SIZE + UdpHeader::SIZE;
    let mut frame: Arc<[u8]> = std::iter::repeat_n(0, headers + body).collect();
    let buf = Arc::get_mut(&mut frame).expect("a fresh buffer is unshared");
    let (eth_buf, rest) = buf.split_at_mut(EthernetHeader::SIZE);
    let (ip_buf, rest) = rest.split_at_mut(Ipv4Header::SIZE);
    let (udp_buf, rest) = rest.split_at_mut(UdpHeader::SIZE);
    eth_buf.copy_from_slice(&eth.to_bytes());
    ip_buf.copy_from_slice(&ip.to_bytes());
    udp_buf.copy_from_slice(&udp.to_bytes());
    rest[..payload.len()].copy_from_slice(payload);
    Bytes::from(frame)
}

/// Builds an Ethernet/IPv4/ESP frame whose ESP payload is `ciphertext`.
#[must_use]
pub fn build_esp_frame(
    eth: EthernetHeader,
    mut ip: Ipv4Header,
    esp: EspHeader,
    ciphertext: &[u8],
) -> Bytes {
    ip.protocol = ipproto::ESP;
    ip.total_len = (Ipv4Header::SIZE + EspHeader::SIZE + ciphertext.len()) as u16;
    let mut out = BytesMut::with_capacity(EthernetHeader::SIZE + ip.total_len as usize);
    eth.emit(&mut out);
    ip.emit(&mut out);
    esp.emit(&mut out);
    out.put_slice(ciphertext);
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_eth() -> EthernetHeader {
        EthernetHeader {
            dst: MacAddr::for_port(1),
            src: MacAddr::for_port(2),
            ethertype: ethertype::IPV4,
        }
    }

    fn sample_ip() -> Ipv4Header {
        Ipv4Header {
            tos: 0x10,
            total_len: 40,
            ident: 7,
            ttl: 64,
            protocol: ipproto::UDP,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn ethernet_roundtrip() {
        let h = sample_eth();
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        assert_eq!(buf.len(), EthernetHeader::SIZE);
        let (parsed, used) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(used, EthernetHeader::SIZE);
    }

    #[test]
    fn ethernet_truncated() {
        assert_eq!(
            EthernetHeader::parse(&[0u8; 13]),
            Err(ParseError::Truncated {
                what: "ethernet",
                need: 14,
                have: 13
            })
        );
    }

    #[test]
    fn ipv4_roundtrip_and_checksum() {
        let h = sample_ip();
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        // The emitted header checksums to zero.
        assert_eq!(internet_checksum(&buf), 0);
        let (parsed, used) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(used, Ipv4Header::SIZE);
    }

    #[test]
    fn ipv4_detects_corruption() {
        let mut buf = BytesMut::new();
        sample_ip().emit(&mut buf);
        buf[16] ^= 0xff; // flip a dst-address byte
        assert_eq!(
            Ipv4Header::parse(&buf),
            Err(ParseError::BadChecksum { what: "ipv4" })
        );
    }

    #[test]
    fn ipv4_rejects_bad_version_and_options() {
        let mut buf = BytesMut::new();
        sample_ip().emit(&mut buf);
        let mut v6 = buf.clone();
        v6[0] = 0x65;
        assert!(matches!(
            Ipv4Header::parse(&v6),
            Err(ParseError::Unsupported { what: "ipv4", .. })
        ));
        let mut ihl6 = buf.clone();
        ihl6[0] = 0x46;
        assert!(matches!(
            Ipv4Header::parse(&ihl6),
            Err(ParseError::Unsupported { what: "ipv4", .. })
        ));
    }

    #[test]
    fn rfc1071_checksum_reference() {
        // Example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7
        // sum is ddf2, checksum is its complement 220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xff]), !0xff00);
    }

    #[test]
    fn udp_roundtrip() {
        let h = UdpHeader {
            src_port: 4096,
            dst_port: 53,
            len: 28,
            checksum: 0,
        };
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        let (parsed, used) = UdpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(used, UdpHeader::SIZE);
    }

    #[test]
    fn tcp_roundtrip() {
        let h = TcpHeader {
            src_port: 80,
            dst_port: 50000,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: 0x10 | 0x08,
            window: 65535,
            checksum: 0xabcd,
        };
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        assert_eq!(buf.len(), TcpHeader::SIZE);
        let (parsed, _) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn tcp_rejects_options() {
        let mut buf = BytesMut::new();
        TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: 0,
            window: 0,
            checksum: 0,
        }
        .emit(&mut buf);
        buf[12] = 6 << 4;
        assert!(matches!(
            TcpHeader::parse(&buf),
            Err(ParseError::Unsupported { what: "tcp", .. })
        ));
    }

    #[test]
    fn esp_roundtrip() {
        let h = EspHeader {
            spi: 0x1000_0001,
            seq: 42,
        };
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        let (parsed, used) = EspHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(used, EspHeader::SIZE);
    }

    #[test]
    fn full_udp_frame_parses_layer_by_layer() {
        let payload = b"GET key-17";
        let frame = build_udp_frame(
            sample_eth(),
            sample_ip(),
            UdpHeader {
                src_port: 1111,
                dst_port: 9999,
                len: 0,
                checksum: 0,
            },
            payload,
        );
        let (eth, n1) = EthernetHeader::parse(&frame).unwrap();
        assert_eq!(eth.ethertype, ethertype::IPV4);
        let (ip, n2) = Ipv4Header::parse(&frame[n1..]).unwrap();
        assert_eq!(ip.protocol, ipproto::UDP);
        assert_eq!(ip.total_len as usize, frame.len() - EthernetHeader::SIZE);
        let (udp, n3) = UdpHeader::parse(&frame[n1 + n2..]).unwrap();
        assert_eq!(udp.dst_port, 9999);
        assert_eq!(udp.len as usize, UdpHeader::SIZE + payload.len());
        assert_eq!(&frame[n1 + n2 + n3..], payload);
        // The frame walk agrees with the layer-by-layer one.
        assert_eq!(parse_ipv4(&frame), Some((eth, ip, n1 + n2)));
        assert_eq!(parse_udp(&frame), Some((eth, ip, udp, n1 + n2 + n3)));
    }

    #[test]
    fn full_esp_frame_parses() {
        let ct = [0xAA; 16];
        let frame = build_esp_frame(sample_eth(), sample_ip(), EspHeader { spi: 9, seq: 1 }, &ct);
        let (_, n1) = EthernetHeader::parse(&frame).unwrap();
        let (ip, n2) = Ipv4Header::parse(&frame[n1..]).unwrap();
        assert_eq!(ip.protocol, ipproto::ESP);
        let (esp, n3) = EspHeader::parse(&frame[n1 + n2..]).unwrap();
        assert_eq!(esp.spi, 9);
        assert_eq!(&frame[n1 + n2 + n3..], &ct);
    }

    #[test]
    fn mac_and_ip_display() {
        assert_eq!(MacAddr::for_port(1).to_string(), "02:00:00:00:00:01");
        assert_eq!(Ipv4Addr::new(10, 1, 2, 3).to_string(), "10.1.2.3");
        assert_eq!(Ipv4Addr::from_u32(0x0a010203), Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(Ipv4Addr::new(10, 1, 2, 3).as_u32(), 0x0a010203);
    }

    #[test]
    fn parse_error_display() {
        let e = ParseError::Truncated {
            what: "udp",
            need: 8,
            have: 3,
        };
        assert_eq!(e.to_string(), "udp: truncated (3 of 8 bytes)");
        assert!(ParseError::BadChecksum { what: "ipv4" }
            .to_string()
            .contains("checksum"));
        assert!(ParseError::Unsupported {
            what: "tcp",
            why: "x"
        }
        .to_string()
        .contains("unsupported"));
    }
}
