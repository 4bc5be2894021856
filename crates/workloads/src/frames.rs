//! Frame factories: real, parseable wire bytes for generated traffic.
//!
//! Every generated frame round-trips through the RMT parser — the
//! simulator never carries "pretend" packets — so the factory owns the
//! addressing conventions experiments rely on:
//!
//! * flow `f` uses source IP `10.0.(f >> 8).(f & 0xff)`;
//! * destination IPs select the NIC (`10.1.0.d` = local service `d`,
//!   `198.51.100.d` = a WAN peer, so LPM tables can split LAN/WAN);
//! * the UDP destination port selects the service (KVS, echo, bulk).

use bytes::Bytes;
use packet::headers::{
    build_udp_frame_padded, ethertype, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr, UdpHeader,
};

/// Well-known UDP ports used across experiments.
pub mod ports {
    /// The KVS service.
    pub const KVS: u16 = 6379;
    /// Latency-probe echo traffic.
    pub const ECHO: u16 = 7;
    /// Bulk transfer traffic.
    pub const BULK: u16 = 9999;
}

/// Builds addressed frames with consistent conventions.
#[derive(Debug, Clone)]
pub struct FrameFactory {
    /// MAC of the NIC port frames are addressed to.
    pub nic_mac: MacAddr,
    /// The NIC's service IP.
    pub nic_ip: Ipv4Addr,
    next_ident: u16,
}

impl FrameFactory {
    /// A factory targeting NIC port `port`.
    #[must_use]
    pub fn for_nic_port(port: u32) -> FrameFactory {
        FrameFactory {
            nic_mac: MacAddr::for_port(port),
            nic_ip: Ipv4Addr::new(10, 1, 0, port as u8),
            next_ident: 0,
        }
    }

    /// Source IP for flow `f` (LAN client).
    #[must_use]
    pub fn lan_client_ip(flow: u16) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, (flow >> 8) as u8, (flow & 0xff) as u8)
    }

    /// Source IP for flow `f` behind the WAN.
    #[must_use]
    pub fn wan_client_ip(flow: u16) -> Ipv4Addr {
        Ipv4Addr::new(198, 51, (flow >> 8) as u8, (flow & 0xff) as u8)
    }

    /// Builds an inbound UDP frame from `src_ip` to the NIC on
    /// `dst_port`, padding the UDP payload so the whole frame is
    /// exactly `frame_size` bytes (minimum 64). `payload` is placed at
    /// the front of the UDP payload.
    pub fn inbound_udp(
        &mut self,
        src_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
        frame_size: usize,
    ) -> Bytes {
        let headers = 14 + 20 + 8;
        let target = frame_size.max(64).max(headers + payload.len());
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        build_udp_frame_padded(
            EthernetHeader {
                dst: self.nic_mac,
                src: MacAddr::for_port(0xffff),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 0,
                total_len: 0,
                ident,
                ttl: 64,
                protocol: 0,
                src: src_ip,
                dst: self.nic_ip,
            },
            UdpHeader {
                src_port,
                dst_port,
                len: 0,
                checksum: 0,
            },
            payload,
            target - headers - payload.len(),
        )
    }

    /// A minimal (64 B) frame — Table 2's unit of load.
    pub fn min_frame(&mut self, flow: u16, dst_port: u16) -> Bytes {
        self.inbound_udp(Self::lan_client_ip(flow), 1024 + flow, dst_port, &[], 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::headers::{parse_ipv4, parse_udp, UdpHeader as Udp};

    #[test]
    fn min_frame_is_64_bytes_and_parses() {
        let mut f = FrameFactory::for_nic_port(1);
        let frame = f.min_frame(7, ports::ECHO);
        assert_eq!(frame.len(), 64);
        let (eth, ip, udp, _) = parse_udp(&frame).unwrap();
        assert_eq!(eth.dst, MacAddr::for_port(1));
        assert_eq!(ip.src, Ipv4Addr::new(10, 0, 0, 7));
        assert_eq!(ip.dst, Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(udp.dst_port, ports::ECHO);
        assert_eq!(udp.src_port, 1031);
    }

    #[test]
    fn frame_size_is_honored_and_payload_kept() {
        let mut f = FrameFactory::for_nic_port(0);
        let frame = f.inbound_udp(
            FrameFactory::lan_client_ip(1),
            5,
            ports::BULK,
            b"hello",
            256,
        );
        assert_eq!(frame.len(), 256);
        assert_eq!(&frame[42..47], b"hello");
    }

    #[test]
    fn padding_in_place_matches_a_padded_body() {
        // The factory used to build `payload + zeros` as a `Vec` and
        // hand it to `build_udp_frame`; it now pads inside the frame
        // buffer. Same bytes, every size and payload length.
        let mut new = FrameFactory::for_nic_port(3);
        let mut ident = 0u16;
        for frame_size in 64..=1518 {
            for payload_len in [0usize, 1, 21, 22, 23, 63, 64] {
                let payload: Vec<u8> = (0..payload_len).map(|b| b as u8 ^ 0xa5).collect();
                let mut body = payload.clone();
                body.resize(frame_size.max(42 + payload_len) - 42, 0);
                let old = packet::headers::build_udp_frame(
                    EthernetHeader {
                        dst: new.nic_mac,
                        src: MacAddr::for_port(0xffff),
                        ethertype: ethertype::IPV4,
                    },
                    Ipv4Header {
                        tos: 0,
                        total_len: 0,
                        ident,
                        ttl: 64,
                        protocol: 0,
                        src: FrameFactory::lan_client_ip(9),
                        dst: new.nic_ip,
                    },
                    Udp {
                        src_port: 5,
                        dst_port: ports::BULK,
                        len: 0,
                        checksum: 0,
                    },
                    &body,
                );
                ident = ident.wrapping_add(1);
                let got = new.inbound_udp(
                    FrameFactory::lan_client_ip(9),
                    5,
                    ports::BULK,
                    &payload,
                    frame_size,
                );
                assert_eq!(got, old, "frame_size {frame_size}, payload {payload_len}");
            }
        }
    }

    #[test]
    fn oversized_payload_grows_frame() {
        let mut f = FrameFactory::for_nic_port(0);
        let payload = vec![9u8; 200];
        let frame = f.inbound_udp(FrameFactory::lan_client_ip(1), 5, 80, &payload, 64);
        assert_eq!(frame.len(), 42 + 200);
    }

    #[test]
    fn ident_increments_per_frame() {
        let mut f = FrameFactory::for_nic_port(0);
        let a = f.min_frame(1, 80);
        let b = f.min_frame(1, 80);
        let ident = |fr: &Bytes| parse_ipv4(fr).unwrap().1.ident;
        assert_eq!(ident(&b), ident(&a) + 1);
    }

    #[test]
    fn wan_and_lan_addressing_distinct() {
        assert_eq!(
            FrameFactory::lan_client_ip(0x0102),
            Ipv4Addr::new(10, 0, 1, 2)
        );
        assert_eq!(
            FrameFactory::wan_client_ip(0x0102),
            Ipv4Addr::new(198, 51, 1, 2)
        );
    }
}
