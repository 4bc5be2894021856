//! What `golden.rs` and `conservation.rs` share: one small instance of
//! each incumbent (two-slot queues, a consuming offload, a zero-cost
//! engine) and the seeded arrival schedule that works every path.

#![allow(dead_code)] // each test binary uses its own subset

use baselines::manycore::{ManycoreConfig, ManycoreNic};
use baselines::pipeline_nic::{PipelineNic, PipelineNicConfig, StageSpec};
use baselines::rmt_only::{ComplexPolicy, RmtOnlyConfig, RmtOnlyNic};
use engines::engine::{EgressKind, NullOffload, Offload, Output};
use packet::chain::EngineClass;
use packet::headers::{
    build_esp_frame, ethertype, EspHeader, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr,
};
use packet::message::{Message, MessageId, MessageKind, Priority};
use rmt::pipeline::PipelineConfig;
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Cycles, Freq};
use workloads::frames::FrameFactory;

/// Frames in one [`arrivals`] schedule.
pub const OFFERED: u64 = 240;

/// Consumes every fourth message, sends every seventh straight to the
/// wire, forwards the rest; two cycles each.
pub struct Sieve;

impl Offload for Sieve {
    fn name(&self) -> &str {
        "sieve"
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
    fn service_time(&self, _m: &Message) -> Cycles {
        Cycles(2)
    }
    fn process_into(&mut self, m: &mut Message, _now: Cycle, out: &mut Vec<Output>) {
        out.push(if m.id.0.is_multiple_of(4) {
            Output::Consumed
        } else if m.id.0.is_multiple_of(7) {
            Output::Egress(EgressKind::Wire)
        } else {
            Output::Forward
        });
    }
}

pub fn null(name: &str, service: u64) -> Box<dyn Offload> {
    Box::new(NullOffload::new(name, EngineClass::Asic, Cycles(service)))
}

/// The seeded arrival schedule every case is offered: bursts (so the
/// two-slot queues overflow) separated by idle gaps (so queues drain
/// and servers go idle), mixed UDP ports, ESP and priority classes.
pub fn arrivals(seed: u64) -> Vec<(Cycle, Message)> {
    let mut rng = SimRng::new(seed);
    let mut factory = FrameFactory::for_nic_port(0);
    let esp_frame = |flow: u16| {
        build_esp_frame(
            EthernetHeader {
                dst: MacAddr::for_port(0),
                src: MacAddr::for_port(1),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 0,
                total_len: 0,
                ident: flow,
                ttl: 64,
                protocol: 0,
                src: Ipv4Addr::new(9, 9, 0, flow as u8),
                dst: Ipv4Addr::new(8, 8, 8, 8),
            },
            EspHeader { spi: 1, seq: 1 },
            &[0u8; 16],
        )
    };
    let mut out = Vec::new();
    let mut at = 0u64;
    for id in 0..OFFERED {
        at += if rng.gen_bool(0.15) {
            200 + rng.gen_range(400)
        } else {
            rng.gen_range(6)
        };
        let flow = rng.gen_range(12) as u16;
        let payload = match rng.gen_range(4) {
            0 => esp_frame(flow),
            1 => factory.min_frame(flow, 443),
            2 => factory.min_frame(flow, 53),
            _ => factory.min_frame(flow, 80),
        };
        let priority =
            [Priority::Latency, Priority::Normal, Priority::Bulk][rng.gen_range(3) as usize];
        out.push((
            Cycle(at),
            Message::builder(MessageId(id), MessageKind::EthernetFrame)
                .payload(payload)
                .priority(priority)
                .injected_at(Cycle(at))
                .build(),
        ));
    }
    out
}

/// Offers the schedule (each arrival lands before its cycle's tick),
/// then drains for 4,000 cycles, calling `tick` once per cycle.
/// Returns the end cycle.
pub fn offer<N>(
    nic: &mut N,
    seed: u64,
    mut tick: impl FnMut(&mut N, Cycle),
    mut rx: impl FnMut(&mut N, Message),
) -> Cycle {
    let mut now = Cycle(0);
    for (at, msg) in arrivals(seed) {
        while now < at {
            tick(nic, now);
            now = now.next();
        }
        rx(nic, msg);
    }
    for _ in 0..4_000 {
        tick(nic, now);
        now = now.next();
    }
    now
}

/// crypto (443 only) → sieve (53 and 443) → checksum (everything),
/// two-slot queues.
pub fn pipeline_nic(bypass_logic: bool) -> PipelineNic {
    PipelineNic::new(PipelineNicConfig {
        stages: vec![
            StageSpec {
                offload: null("crypto", 9),
                applies_to_ports: Some(vec![443]),
            },
            StageSpec {
                offload: Box::new(Sieve),
                applies_to_ports: Some(vec![53, 443]),
            },
            StageSpec {
                offload: null("csum", 3),
                applies_to_ports: None,
            },
        ],
        bypass_logic,
        stage_queue_capacity: 2,
    })
}

/// Three cores with two-slot queues in front of the same three
/// engines; the checksum engine is zero-cost.
pub fn manycore_nic() -> ManycoreNic {
    ManycoreNic::new(ManycoreConfig {
        cores: 3,
        orchestration_cycles: 37,
        engines: vec![
            (null("crypto", 9), Some(vec![443])),
            (Box::new(Sieve), Some(vec![53, 443])),
            (null("csum", 0), None),
        ],
        core_queue_capacity: 2,
    })
}

/// One five-deep pipeline.
pub fn rmt_only_nic(complex: ComplexPolicy) -> RmtOnlyNic {
    RmtOnlyNic::new(RmtOnlyConfig {
        pipeline: PipelineConfig {
            parallel: 1,
            depth: 5,
            freq: Freq::mhz(500),
        },
        complex,
    })
}
