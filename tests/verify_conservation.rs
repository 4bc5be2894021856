//! The verifier's acceptance property (workspace-level because it
//! spans `panic-verify`, `panic-core`, and the hardware crates):
//!
//! > any randomly generated NIC configuration that the static verifier
//! > *accepts* simulates to completion — no deadlock, no panic — with
//! > exact packet conservation: `in == out + dropped + consumed`.
//!
//! Configurations the verifier rejects are skipped (they are the other
//! tests' job: `crates/verify` asserts each code fires on bad input).
//! This is the contract that makes `panic-lint` trustworthy: a clean
//! report must mean the simulation cannot fail structurally.

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::{Priority, TenantId};
use panic_core::nic::{NicConfig, PanicNic};
use panic_core::programs::chain_program;
use proptest::prelude::*;
use rmt::pipeline::PipelineConfig;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use workloads::frames::FrameFactory;

/// A randomly drawn NIC shape + workload.
#[derive(Debug, Clone)]
struct Drawn {
    /// Mesh side length.
    k: u8,
    /// Router input-buffer depth in flits.
    input_buffer: usize,
    /// Pass-through offload engines on the mesh.
    num_offloads: usize,
    /// Hops through those offloads per frame.
    chain_len: usize,
    /// Per-message service time at each offload.
    service: u64,
    /// Per-tile scheduling-queue capacity.
    queue_capacity: usize,
    /// RMT portal tiles.
    portals: usize,
    /// Per-hop slack budget (None = bulk).
    slack: Option<u32>,
    /// Frames injected.
    frames: usize,
    /// Cycles between injections.
    gap: u64,
}

/// Builds the NIC described by `d`, runs the verifier, and — when the
/// configuration is accepted — simulates every frame through its chain
/// and checks conservation. Returns `false` when the verifier rejected
/// (the case is vacuous), `true` when the property was exercised.
fn accepted_configs_conserve(d: &Drawn) -> bool {
    let freq = Freq::PANIC_DEFAULT;
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(d.k, d.k),
        width_bits: 64,
        router: RouterConfig {
            input_buffer_flits: d.input_buffer,
            ejection_buffer_flits: d.input_buffer * 2,
        },
        pipeline: PipelineConfig {
            parallel: 2,
            depth: 18,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(MacEngine::new("eth0", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
    let offloads: Vec<EngineId> = (0..d.num_offloads)
        .map(|i| {
            b.engine(
                Box::new(NullOffload::new(
                    format!("off{i}"),
                    EngineClass::Asic,
                    Cycles(d.service),
                )),
                TileConfig {
                    queue_capacity: d.queue_capacity,
                    ..TileConfig::default()
                },
            )
        })
        .collect();
    for _ in 0..d.portals {
        let _ = b.rmt_portal();
    }
    let chain: Vec<EngineId> = (0..d.chain_len)
        .map(|i| offloads[i % offloads.len()])
        .collect();
    b.program(chain_program(&chain, eth, d.slack));

    // The gate under test: skip configurations the verifier rejects
    // (too many engines for the mesh, over-long chains, ...).
    let report = b.validate();
    if report.error_count() > 0 {
        return false;
    }

    let mut nic = b.build();
    let mut factory = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    let mut injected = 0u64;
    let mut tx = 0u64;
    // Inject, then drain to quiescence under a generous deadline: an
    // accepted config must never wedge.
    let deadline = 3_000 + (d.frames as u64) * (d.gap + d.service * (d.chain_len as u64 + 1) + 600);
    for step in 0..deadline {
        if injected < d.frames as u64 && step % (d.gap + 1) == 0 {
            let frame = factory.min_frame(injected as u16, 80);
            nic.rx_frame(eth, frame, TenantId(1), Priority::Normal, now);
            injected += 1;
        }
        nic.tick(now);
        now = now.next();
        tx += nic.take_wire_tx().len() as u64;
        let _ = nic.take_host_rx();
        if injected == d.frames as u64 && nic.is_quiescent() {
            break;
        }
    }
    assert!(
        nic.is_quiescent(),
        "verifier-accepted config did not drain: {injected} in, {tx} out by cycle {now}"
    );

    // Conservation: every injected frame either egressed, was consumed
    // by an engine, was dropped by a scheduling queue, or left the
    // pipeline unrouted. Nothing vanishes.
    let c = nic.conservation();
    let sched_drops: u64 = offloads
        .iter()
        .filter_map(|&id| nic.tile(id).map(engines::tile::EngineTile::drops))
        .sum();
    let accounted = c.tx_wire + c.host_deliveries + c.consumed + c.unrouted + sched_drops;
    assert_eq!(
        c.rx_frames, accounted,
        "conservation: in == out + consumed + dropped + unrouted \
         (in={}, wire={}, host={}, consumed={}, unrouted={}, sched_drops={})",
        c.rx_frames, c.tx_wire, c.host_deliveries, c.consumed, c.unrouted, sched_drops
    );
    assert_eq!(c.rx_frames, injected);
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes/workloads: accepted ⇒ drains with conservation.
    #[test]
    fn verifier_accepted_configs_simulate_to_completion(
        k in 3u8..=5,
        input_buffer in 1usize..=12,
        num_offloads in 1usize..=6,
        chain_len in 0usize..=4,
        service in 0u64..=12,
        queue_capacity in 1usize..=48,
        portals in 1usize..=3,
        slack_raw in 0u32..=800,
        frames in 1usize..=30,
        gap in 0u64..=40,
    ) {
        let d = Drawn {
            k,
            input_buffer,
            num_offloads,
            chain_len,
            service,
            queue_capacity,
            portals,
            // 0 draws the bulk (no-deadline) slack expression.
            slack: (slack_raw > 0).then_some(slack_raw),
            frames,
            gap,
        };
        let _exercised = accepted_configs_conserve(&d);
    }
}

/// The filter in the property is not vacuous: the reference shape is
/// accepted and actually exercises the conservation check.
#[test]
fn reference_shape_is_exercised() {
    let d = Drawn {
        k: 4,
        input_buffer: 8,
        num_offloads: 3,
        chain_len: 2,
        service: 4,
        queue_capacity: 32,
        portals: 2,
        slack: Some(300),
        frames: 20,
        gap: 10,
    };
    assert!(
        accepted_configs_conserve(&d),
        "reference shape must pass the verifier"
    );
}

/// And the filter does reject: an overstuffed mesh (more engines than
/// tiles, PV004) comes back unexercised instead of panicking.
#[test]
fn overstuffed_mesh_is_rejected_not_simulated() {
    let d = Drawn {
        k: 3,
        input_buffer: 8,
        num_offloads: 20, // 21 engines + portals > 9 tiles
        chain_len: 2,
        service: 1,
        queue_capacity: 8,
        portals: 2,
        slack: Some(300),
        frames: 1,
        gap: 1,
    };
    assert!(!accepted_configs_conserve(&d));
}
