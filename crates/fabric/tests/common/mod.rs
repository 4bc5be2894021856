//! The ring fixture shared by the fabric integration tests: identical
//! members (MAC uplink, CRC-class offload, two RMT portals), every
//! member's chain tail on the next member, one periodic driver each.

#![allow(dead_code)] // each test binary uses its own subset

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use fabric::{Fabric, FabricBuilder, LinkSpec, PeriodicDriver};
use faults::FabricFaultConfig;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Priority, TenantId};
use packet::EngineId;
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use panic_core::programs::chain_program;
use rmt::pipeline::PipelineConfig;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use trace::MetricsRegistry;
use workloads::frames::FrameFactory;

/// Ring link propagation latency (cycles) — also the fabric epoch.
pub const LATENCY: u64 = 12;
/// Frames each member's driver injects by default.
pub const COUNT: u64 = 30;
/// Injection period per member.
pub const PERIOD: u64 = 90;
/// CRC-class engine service time (cycles/packet).
pub const CRC_SERVICE: u64 = 8;

/// One member NIC: a MAC engine (`eth`, the fabric uplink), a
/// CRC-class offload (`crc`), and two RMT portals. Engine ids are
/// assigned in declaration order, so every member built through this
/// helper shares the same local ids — which is what lets one member's
/// pipeline encode hops that run on another (and makes every member a
/// same-signature replica of every other).
pub fn member() -> (NicBuilder, EngineId, EngineId) {
    let freq = Freq::PANIC_DEFAULT;
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(4, 4),
        width_bits: 128,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 2,
            depth: 18,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(MacEngine::new("eth", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
    let crc = b.engine(
        Box::new(NullOffload::new(
            "crc",
            EngineClass::Asic,
            Cycles(CRC_SERVICE),
        )),
        TileConfig {
            queue_capacity: 256,
            ..TileConfig::default()
        },
    );
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    (b, eth, crc)
}

/// A driver injecting `count` min-size frames into `eth`, one every
/// `period` cycles starting at `start`, from NIC port `port`'s frame
/// factory.
pub fn frame_driver(
    eth: EngineId,
    port: u32,
    start: u64,
    period: u64,
    count: u64,
) -> PeriodicDriver<impl FnMut(&mut PanicNic, Cycle, u64) + Send> {
    let mut factory = FrameFactory::for_nic_port(port);
    PeriodicDriver::new(start, period, count, move |nic: &mut PanicNic, now, k| {
        nic.rx_frame(
            eth,
            factory.min_frame((k % 50) as u16, 80),
            TenantId(0),
            Priority::Normal,
            now,
        );
    })
}

/// The ring's deduplicated unordered link pairs.
pub fn ring_pairs(nics: usize) -> Vec<(usize, usize)> {
    let pairs: std::collections::BTreeSet<(usize, usize)> = (0..nics)
        .map(|i| {
            let next = (i + 1) % nics;
            (i.min(next), i.max(next))
        })
        .collect();
    pairs.into_iter().collect()
}

/// An `nics`-member ring with every member's chain tail on the next
/// member and `count` frames offered per member, optionally arming the
/// fault plane.
pub fn ring_of(nics: usize, count: u64, faults: Option<FabricFaultConfig>) -> Fabric {
    let mut fb = FabricBuilder::new();
    let mut uplinks = Vec::new();
    for i in 0..nics {
        let (mut b, eth, crc) = member();
        let next = (i + 1) % nics;
        b.program(chain_program(
            &[crc, EngineId::remote(next, crc)],
            EngineId::remote(next, eth),
            Some(5_000),
        ));
        uplinks.push((fb.member(b, eth), eth));
    }
    for (a, b) in ring_pairs(nics) {
        fb.link_pair(a, b, LinkSpec::new(0, 0).latency(LATENCY).credits(8));
    }
    for (i, (mi, eth)) in uplinks.into_iter().enumerate() {
        let driver = frame_driver(eth, i as u32, (i as u64) * 7, PERIOD, count);
        fb.driver(mi, Box::new(driver));
    }
    if let Some(cfg) = faults {
        fb.fault_plane(cfg);
    }
    fb.build()
}

/// [`ring_of`] with the default [`COUNT`] frames per member.
pub fn ring(nics: usize, faults: Option<FabricFaultConfig>) -> Fabric {
    ring_of(nics, COUNT, faults)
}

/// Everything a run exposes but its trace: metrics JSON, `FleetStats`,
/// `ChaosStats` and `conservation()`.
pub fn counters(fabric: &Fabric) -> String {
    let mut m = MetricsRegistry::new();
    fabric.export_metrics(&mut m);
    format!(
        "{}\n{:?}\n{:?}\n{:?}\n",
        m.to_json(),
        fabric.stats(),
        fabric.chaos_stats(),
        fabric.conservation()
    )
}

/// Frames actually injected / delivered to a wire, fleet-wide.
pub fn injected_and_delivered(fabric: &Fabric) -> (u64, u64) {
    let mut injected = 0;
    let mut delivered = 0;
    for i in 0..fabric.len() {
        injected += fabric.member(i).stats().rx_frames;
        delivered += fabric.member(i).stats().tx_wire;
    }
    (injected, delivered)
}
