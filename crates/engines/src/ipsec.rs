//! The IPSec engine: tunnel-mode ESP encrypt/decrypt.
//!
//! The paper's canonical "too complex for an RMT pipeline" offload
//! (§2.3.3: "it is not possible to perform IPSec offloading with an
//! RMT pipeline") and the driver of the two-pass pattern: an ESP
//! packet's inner headers are invisible until decryption, so the
//! message must revisit the heavyweight pipeline afterwards (§3.1.2).
//!
//! The cipher is a keyed XOR keystream with a 4-byte integrity tag —
//! *toy-grade by design*: the architecture experiments need real,
//! reversible byte transformation at a configurable service rate, not
//! cryptographic strength. The tag makes wrong-key/corruption failures
//! observable, which the failure-injection tests exercise.

use bytes::{BufMut, Bytes, BytesMut};
use packet::chain::EngineClass;
use packet::headers::{build_esp_frame, EspHeader, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr};
use packet::message::{Message, MessageKind};
use sim_core::rng::SplitMix64;
use sim_core::time::{Cycle, Cycles};
use std::collections::HashMap;

use crate::engine::{Offload, Output};

/// A security association: key material for one SPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityAssoc {
    /// Security Parameter Index.
    pub spi: u32,
    /// Key material.
    pub key: u64,
}

/// Tunnel endpoints for encryption.
#[derive(Debug, Clone, Copy)]
pub struct TunnelConfig {
    /// SA used for outbound traffic.
    pub sa: SecurityAssoc,
    /// Outer Ethernet source/destination.
    pub outer_src_mac: MacAddr,
    /// Outer destination MAC.
    pub outer_dst_mac: MacAddr,
    /// Outer IPv4 source.
    pub outer_src_ip: Ipv4Addr,
    /// Outer IPv4 destination.
    pub outer_dst_ip: Ipv4Addr,
}

/// XORs the (`key`, `seq`) keystream over `buf` in place, one 8-byte
/// SplitMix64 word at a time (little-endian: byte `i` of the buffer
/// meets byte `i % 8` of word `i / 8`); the last word covers a short
/// tail.
fn keystream_xor(key: u64, seq: u32, buf: &mut [u8]) {
    let mut sm = SplitMix64::new(key ^ (u64::from(seq).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let mut words = buf.chunks_exact_mut(8);
    for chunk in &mut words {
        let word: &mut [u8; 8] = chunk.try_into().expect("chunks_exact_mut(8)");
        *word = (u64::from_le_bytes(*word) ^ sm.next_u64()).to_le_bytes();
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        let word = sm.next_u64().to_le_bytes();
        for (b, k) in tail.iter_mut().zip(word) {
            *b ^= k;
        }
    }
}

fn integrity_tag(data: &[u8]) -> [u8; 4] {
    // FNV-1a, truncated.
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h.to_be_bytes()
}

/// Encrypts `inner_frame` into a tunnel-mode ESP frame.
#[must_use]
pub fn encrypt_frame(inner_frame: &[u8], tunnel: &TunnelConfig, seq: u32) -> Bytes {
    let mut ciphertext = BytesMut::with_capacity(inner_frame.len() + 4);
    ciphertext.put_slice(inner_frame);
    ciphertext.put_slice(&integrity_tag(inner_frame));
    keystream_xor(tunnel.sa.key, seq, &mut ciphertext);
    build_esp_frame(
        EthernetHeader {
            dst: tunnel.outer_dst_mac,
            src: tunnel.outer_src_mac,
            ethertype: packet::headers::ethertype::IPV4,
        },
        Ipv4Header {
            tos: 0,
            total_len: 0,
            ident: seq as u16,
            ttl: 64,
            protocol: 0,
            src: tunnel.outer_src_ip,
            dst: tunnel.outer_dst_ip,
        },
        EspHeader {
            spi: tunnel.sa.spi,
            seq,
        },
        &ciphertext,
    )
}

/// Decrypts a tunnel-mode ESP frame back to its inner frame. Returns
/// `None` on parse failure, unknown SPI, or integrity-tag mismatch.
#[must_use]
pub fn decrypt_frame(outer: &[u8], sas: &HashMap<u32, SecurityAssoc>) -> Option<Bytes> {
    let (_, n1) = EthernetHeader::parse(outer).ok()?;
    let (_, n2) = Ipv4Header::parse(&outer[n1..]).ok()?;
    let (esp, n3) = EspHeader::parse(&outer[n1 + n2..]).ok()?;
    let sa = sas.get(&esp.spi)?;
    let ciphertext = &outer[n1 + n2 + n3..];
    let inner_len = ciphertext.len().checked_sub(4)?;
    let mut plaintext = ciphertext.to_vec();
    keystream_xor(sa.key, esp.seq, &mut plaintext);
    let (inner, tag) = plaintext.split_at(inner_len);
    if integrity_tag(inner) != tag {
        return None;
    }
    plaintext.truncate(inner_len);
    Some(Bytes::from(plaintext))
}

/// The IPSec engine: decrypts inbound ESP frames, encrypts everything
/// else using the configured tunnel.
pub struct IpsecEngine {
    name: String,
    sas: HashMap<u32, SecurityAssoc>,
    tunnel: Option<TunnelConfig>,
    tx_seq: u32,
    /// Cycles per 32 processed bytes — the engine's (configurable)
    /// crypto rate. 32 B/cycle ≈ 128 Gbps at 500 MHz; larger values
    /// model a slower engine.
    cycles_per_32b: u64,
    /// Fixed per-packet setup cost.
    base_cycles: u64,
    /// Frames decrypted.
    pub decrypted: u64,
    /// Frames encrypted.
    pub encrypted: u64,
    /// Authentication / parse failures (frames consumed).
    pub auth_failures: u64,
}

impl std::fmt::Debug for IpsecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpsecEngine")
            .field("name", &self.name)
            .field("decrypted", &self.decrypted)
            .field("encrypted", &self.encrypted)
            .finish_non_exhaustive()
    }
}

impl IpsecEngine {
    /// Builds an IPSec engine. `cycles_per_32b = 1` is a line-rate
    /// crypto block at 500 MHz/100 G; larger values model slower
    /// engines (the HOL-blocking experiments use this knob).
    #[must_use]
    pub fn new(name: impl Into<String>, cycles_per_32b: u64, base_cycles: u64) -> IpsecEngine {
        IpsecEngine {
            name: name.into(),
            sas: HashMap::new(),
            tunnel: None,
            tx_seq: 0,
            cycles_per_32b: cycles_per_32b.max(1),
            base_cycles,
            decrypted: 0,
            encrypted: 0,
            auth_failures: 0,
        }
    }

    /// Installs a security association for inbound decryption.
    pub fn install_sa(&mut self, sa: SecurityAssoc) {
        self.sas.insert(sa.spi, sa);
    }

    /// Configures the outbound tunnel (enables encryption).
    pub fn set_tunnel(&mut self, tunnel: TunnelConfig) {
        self.install_sa(tunnel.sa);
        self.tunnel = Some(tunnel);
    }

    fn is_esp(frame: &[u8]) -> bool {
        EthernetHeader::parse(frame)
            .ok()
            .and_then(|(_, n1)| Ipv4Header::parse(&frame[n1..]).ok())
            .is_some_and(|(ip, _)| ip.protocol == packet::headers::ipproto::ESP)
    }
}

impl Offload for IpsecEngine {
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
        EngineClass::Asic
    }

    fn service_time(&self, msg: &Message) -> Cycles {
        let blocks = (msg.payload.len() as u64).div_ceil(32);
        Cycles(self.base_cycles + blocks * self.cycles_per_32b)
    }

    fn process_into(&mut self, msg: Message, _now: Cycle, out: &mut Vec<Output>) {
        if msg.kind != MessageKind::EthernetFrame {
            out.push(Output::Forward(msg));
            return;
        }
        if Self::is_esp(&msg.payload) {
            match decrypt_frame(&msg.payload, &self.sas) {
                Some(inner) => {
                    self.decrypted += 1;
                    let mut fwd = msg;
                    fwd.payload = inner;
                    // The inner headers are new to the NIC: second pass
                    // through the heavyweight pipeline (§3.1.2).
                    out.push(Output::ToPipeline(fwd));
                }
                None => {
                    self.auth_failures += 1;
                    out.push(Output::Consumed);
                }
            }
        } else {
            match &self.tunnel {
                Some(t) => {
                    let seq = self.tx_seq;
                    self.tx_seq += 1;
                    let enc = encrypt_frame(&msg.payload, t, seq);
                    self.encrypted += 1;
                    let mut fwd = msg;
                    fwd.payload = enc;
                    out.push(Output::Forward(fwd));
                }
                None => {
                    // No tunnel: a plaintext frame at a decrypt-only
                    // engine is a policy violation.
                    self.auth_failures += 1;
                    out.push(Output::Consumed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::headers::{build_udp_frame, ethertype, UdpHeader};
    use packet::message::MessageId;

    fn tunnel() -> TunnelConfig {
        TunnelConfig {
            sa: SecurityAssoc {
                spi: 0x1001,
                key: 0xfeed_f00d_dead_beef,
            },
            outer_src_mac: MacAddr::for_port(10),
            outer_dst_mac: MacAddr::for_port(11),
            outer_src_ip: Ipv4Addr::new(203, 0, 113, 1),
            outer_dst_ip: Ipv4Addr::new(198, 51, 100, 2),
        }
    }

    fn inner_frame() -> Bytes {
        build_udp_frame(
            EthernetHeader {
                dst: MacAddr::for_port(0),
                src: MacAddr::for_port(1),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 0,
                total_len: 0,
                ident: 0,
                ttl: 64,
                protocol: 0,
                src: Ipv4Addr::new(10, 0, 0, 1),
                dst: Ipv4Addr::new(10, 0, 0, 2),
            },
            UdpHeader {
                src_port: 1,
                dst_port: 6379,
                len: 0,
                checksum: 0,
            },
            b"GET key",
        )
    }

    /// `keystream_xor` as it stood at commit d3c94ba, body verbatim:
    /// a `Vec::push` and two `% 8` per byte. The oracle for the
    /// word-wise one.
    fn keystream_xor_per_byte(key: u64, seq: u32, data: &[u8]) -> Vec<u8> {
        let mut sm = SplitMix64::new(key ^ (u64::from(seq).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let mut out = Vec::with_capacity(data.len());
        let mut word = 0u64;
        for (i, &b) in data.iter().enumerate() {
            if i % 8 == 0 {
                word = sm.next_u64();
            }
            out.push(b ^ (word >> ((i % 8) * 8)) as u8);
            // keep clippy quiet about the last partial word
        }
        out
    }

    #[test]
    fn keystream_matches_the_per_byte_cipher() {
        let pairs = [
            (0u64, 0u32),
            (0, u32::MAX),
            (u64::MAX, 0),
            (u64::MAX, u32::MAX),
            (0xfeed_f00d_dead_beef, 7),
            (0x00c0_ffee_0000_aaaa, 1),
            (0x00d0_0dad_0000_bbbb, 0x8000_0000),
            (1, 0x1234_5678),
        ];
        for (key, seq) in pairs {
            for len in 0..=67usize {
                let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
                let mut buf = data.clone();
                keystream_xor(key, seq, &mut buf);
                assert_eq!(
                    buf,
                    keystream_xor_per_byte(key, seq, &data),
                    "key {key:#x} seq {seq:#x} len {len}"
                );
            }
        }
    }

    /// The ESP frames themselves, not just the cipher: FNV-1a over
    /// every outer frame and every decrypted inner frame for each
    /// Ethernet frame length, 64 to 1,518 bytes. The constant was
    /// printed by this test at commit d3c94ba, before the keystream
    /// went word-wise and `decrypt_frame` stopped copying twice.
    #[test]
    fn esp_frame_bytes_are_pinned_to_the_parent_commit() {
        let t = tunnel();
        let sas = HashMap::from([(t.sa.spi, t.sa)]);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for len in 64..=1518usize {
            let inner: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let seq = (len as u32).wrapping_mul(0x9E37_79B1);
            let outer = encrypt_frame(&inner, &t, seq);
            let back = decrypt_frame(&outer, &sas).expect("round trip");
            assert_eq!(&back[..], &inner[..], "len {len}");
            eat(&outer);
            eat(&back);
        }
        assert_eq!(h, 0x228a_b038_601d_be1b, "ESP bytes moved: {h:#018x}");
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let t = tunnel();
        let inner = inner_frame();
        let outer = encrypt_frame(&inner, &t, 7);
        // The outer frame hides the inner bytes entirely.
        assert!(!outer.windows(inner.len()).any(|w| w == &inner[..]));
        let mut sas = HashMap::new();
        sas.insert(t.sa.spi, t.sa);
        let back = decrypt_frame(&outer, &sas).unwrap();
        assert_eq!(&back[..], &inner[..]);
    }

    #[test]
    fn wrong_key_fails_integrity() {
        let t = tunnel();
        let outer = encrypt_frame(&inner_frame(), &t, 7);
        let mut sas = HashMap::new();
        sas.insert(
            t.sa.spi,
            SecurityAssoc {
                spi: t.sa.spi,
                key: 0x1234,
            },
        );
        assert!(decrypt_frame(&outer, &sas).is_none());
    }

    #[test]
    fn unknown_spi_fails() {
        let t = tunnel();
        let outer = encrypt_frame(&inner_frame(), &t, 7);
        assert!(decrypt_frame(&outer, &HashMap::new()).is_none());
    }

    #[test]
    fn corrupted_ciphertext_fails_integrity() {
        let t = tunnel();
        let mut outer = encrypt_frame(&inner_frame(), &t, 7).to_vec();
        let last = outer.len() - 1;
        outer[last] ^= 0x01;
        let mut sas = HashMap::new();
        sas.insert(t.sa.spi, t.sa);
        assert!(decrypt_frame(&outer, &sas).is_none());
    }

    #[test]
    fn engine_decrypts_and_requests_second_pass() {
        let t = tunnel();
        let mut e = IpsecEngine::new("ipsec", 1, 4);
        e.install_sa(t.sa);
        let outer = encrypt_frame(&inner_frame(), &t, 3);
        let msg = Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(outer)
            .build();
        let out = e.process(msg, Cycle(0));
        match &out[0] {
            Output::ToPipeline(m) => assert_eq!(&m.payload[..], &inner_frame()[..]),
            other => panic!("expected ToPipeline, got {other:?}"),
        }
        assert_eq!(e.decrypted, 1);
    }

    #[test]
    fn engine_encrypts_plaintext_with_tunnel() {
        let t = tunnel();
        let mut e = IpsecEngine::new("ipsec", 1, 4);
        e.set_tunnel(t);
        let msg = Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(inner_frame())
            .build();
        let out = e.process(msg, Cycle(0));
        match &out[0] {
            Output::Forward(m) => {
                assert!(IpsecEngine::is_esp(&m.payload));
                // And it decrypts back.
                let mut sas = HashMap::new();
                sas.insert(t.sa.spi, t.sa);
                assert_eq!(
                    &decrypt_frame(&m.payload, &sas).unwrap()[..],
                    &inner_frame()[..]
                );
            }
            other => panic!("expected Forward, got {other:?}"),
        }
        assert_eq!(e.encrypted, 1);
    }

    #[test]
    fn plaintext_without_tunnel_is_consumed() {
        let mut e = IpsecEngine::new("ipsec", 1, 4);
        let msg = Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(inner_frame())
            .build();
        assert!(matches!(e.process(msg, Cycle(0))[0], Output::Consumed));
        assert_eq!(e.auth_failures, 1);
    }

    #[test]
    fn service_time_scales_with_size_and_rate() {
        let fast = IpsecEngine::new("fast", 1, 4);
        let slow = IpsecEngine::new("slow", 8, 4);
        let msg = Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0u8; 320])) // 10 blocks
            .build();
        assert_eq!(fast.service_time(&msg), Cycles(14));
        assert_eq!(slow.service_time(&msg), Cycles(84));
    }

    #[test]
    fn non_frames_pass_through() {
        let mut e = IpsecEngine::new("ipsec", 1, 4);
        let msg = Message::builder(MessageId(1), MessageKind::DmaRead).build();
        assert!(matches!(e.process(msg, Cycle(0))[0], Output::Forward(_)));
    }
}
