//! The Ethernet MAC engine: the NIC's wire-side ports.
//!
//! In PANIC even the Ethernet ports are engines on the mesh
//! (Figure 3c places `Eth 1`/`Eth 2` as edge tiles). The MAC's TX side
//! is modeled here: a frame occupies the transmitter for its exact
//! serialization time at the configured line rate, so a MAC tile is a
//! natural rate limiter and its scheduling queue is where TX-side
//! slack ordering bites. The RX side is traffic *generation* and lives
//! with the workload drivers.

use packet::chain::EngineClass;
use packet::message::Message;
use sim_core::time::{Bandwidth, ByteSize, Cycle, Cycles, Freq};

use crate::engine::{EgressKind, Offload, Output};

/// An Ethernet MAC TX engine.
#[derive(Debug)]
pub struct MacEngine {
    name: String,
    /// Port line rate.
    line_rate: Bandwidth,
    /// NIC core clock, to convert serialization time to cycles.
    freq: Freq,
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Frame bytes transmitted (excluding preamble/IFG).
    pub tx_bytes: u64,
}

impl MacEngine {
    /// A MAC for a port at `line_rate`, clocked at `freq`.
    #[must_use]
    pub fn new(name: impl Into<String>, line_rate: Bandwidth, freq: Freq) -> MacEngine {
        MacEngine {
            name: name.into(),
            line_rate,
            freq,
            tx_frames: 0,
            tx_bytes: 0,
        }
    }

    /// The port's configured line rate. Exposed so the NIC builder can
    /// report the aggregate wire rate to the static verifier (PV002's
    /// sustainable-chain-length model needs `ports × line_rate`).
    #[must_use]
    pub fn line_rate(&self) -> Bandwidth {
        self.line_rate
    }

    /// Serialization time of a frame of `bytes` payload bytes at this
    /// port's line rate, in core-clock cycles (rounded up). Includes
    /// the 20 B preamble/SFD/IFG wire overhead.
    #[must_use]
    pub fn serialization_cycles(&self, bytes: u64) -> Cycles {
        let wire_bits = (bytes + ByteSize::ETHERNET_WIRE_OVERHEAD.get()) * 8;
        // bits per cycle = line_rate / freq.
        let bits_per_cycle = self.line_rate.as_bps() / self.freq.as_hz();
        assert!(
            bits_per_cycle > 0,
            "line rate below one bit per cycle is not representable"
        );
        Cycles(wire_bits.div_ceil(bits_per_cycle))
    }
}

impl Offload for MacEngine {
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
        EngineClass::EthernetPort
    }

    fn service_time(&self, msg: &Message) -> Cycles {
        self.serialization_cycles(msg.payload.len() as u64)
    }

    fn process_into(&mut self, msg: &mut Message, _now: Cycle, out: &mut Vec<Output>) {
        self.tx_frames += 1;
        self.tx_bytes += msg.payload.len() as u64;
        out.push(Output::Egress(EgressKind::Wire));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use packet::message::{MessageId, MessageKind};

    fn mac_100g() -> MacEngine {
        MacEngine::new("eth0", Bandwidth::gbps(100), Freq::mhz(500))
    }

    #[test]
    fn min_frame_serialization_at_100g() {
        // 100G at 500MHz = 200 bits/cycle; 84B wire = 672 bits = 3.36
        // cycles -> 4.
        assert_eq!(mac_100g().serialization_cycles(64), Cycles(4));
    }

    #[test]
    fn mtu_frame_serialization_at_40g() {
        let mac = MacEngine::new("eth0", Bandwidth::gbps(40), Freq::mhz(500));
        // 40G/500MHz = 80 bits/cycle; 1520B wire = 12160 bits = 152.
        assert_eq!(mac.serialization_cycles(1500), Cycles(152));
    }

    #[test]
    fn line_rate_cannot_be_exceeded() {
        // Summing serialization times of N min frames bounds pps to
        // Table 2's per-port-direction rate.
        let mac = mac_100g();
        let per_frame = mac.serialization_cycles(64).count(); // 4 cycles
        let pps = 500_000_000u64 / per_frame;
        // Exact rate is 148.8Mpps; 4-cycle quantization gives 125Mpps —
        // within the right order and never above line rate.
        assert!(pps <= 148_809_524);
        assert!(pps >= 100_000_000);
    }

    #[test]
    fn process_egresses_and_counts() {
        let mut mac = mac_100g();
        let mut m = Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(Bytes::from(vec![0u8; 64]))
            .build();
        assert_eq!(mac.service_time(&m), Cycles(4));
        let out = mac.process(&mut m, Cycle(0));
        assert!(matches!(out[0], Output::Egress(EgressKind::Wire)));
        assert_eq!(mac.tx_frames, 1);
        assert_eq!(mac.tx_bytes, 64);
        assert_eq!(mac.class(), EngineClass::EthernetPort);
    }
}
