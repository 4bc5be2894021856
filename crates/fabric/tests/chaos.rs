//! Fabric fault-plane integration tests: the armed-but-empty golden
//! byte-identity (traces and metrics, across thread counts), eventual
//! delivery under link flaps and member crashes, failover to replica
//! members, and the proptest that any seeded fabric fault plan over a
//! ring drains to quiescence with the fleet conservation-under-faults
//! identity closing exactly.

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use fabric::{Fabric, FabricBuilder, LinkSpec, PeriodicDriver};
use faults::{FabricFaultConfig, FabricFaultPlan, FabricFaultUniverse};
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Priority, TenantId};
use packet::EngineId;
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use panic_core::programs::chain_program;
use proptest::prelude::*;
use rmt::pipeline::PipelineConfig;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use trace::{MetricsRegistry, Tracer};
use workloads::frames::FrameFactory;

/// Ring link propagation latency (cycles) — also the fabric epoch.
const LATENCY: u64 = 12;
/// Frames each member's driver injects.
const COUNT: u64 = 30;
/// Injection period per member.
const PERIOD: u64 = 90;

/// One member NIC: MAC uplink, CRC-class offload, two RMT portals —
/// identical engine declarations on every member, so local engine ids
/// address the neighbors' too (and every member is a same-signature
/// replica of every other).
fn member() -> (NicBuilder, EngineId, EngineId) {
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
        Box::new(NullOffload::new("crc", EngineClass::Asic, Cycles(8))),
        TileConfig {
            queue_capacity: 256,
            ..TileConfig::default()
        },
    );
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    (b, eth, crc)
}

/// An `nics`-member ring with every member's chain tail on the next
/// member, optionally arming the fault plane.
fn ring(nics: usize, faults: Option<FabricFaultConfig>) -> Fabric {
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
    for (i, (mi, eth)) in uplinks.iter().enumerate() {
        let eth = *eth;
        let mut factory = FrameFactory::for_nic_port(i as u32);
        fb.driver(
            *mi,
            Box::new(PeriodicDriver::new(
                (i as u64) * 7,
                PERIOD,
                COUNT,
                move |nic: &mut PanicNic, now: Cycle, k: u64| {
                    nic.rx_frame(
                        eth,
                        factory.min_frame((k % 50) as u16, 80),
                        TenantId(0),
                        Priority::Normal,
                        now,
                    );
                },
            )),
        );
    }
    if let Some(cfg) = faults {
        fb.fault_plane(cfg);
    }
    fb.build()
}

/// The ring's deduplicated unordered link pairs.
fn ring_pairs(nics: usize) -> Vec<(usize, usize)> {
    let pairs: std::collections::BTreeSet<(usize, usize)> = (0..nics)
        .map(|i| {
            let next = (i + 1) % nics;
            (i.min(next), i.max(next))
        })
        .collect();
    pairs.into_iter().collect()
}

/// Runs to full quiescence — including the fault plane's deferred
/// work — and asserts the conservation identity.
fn drain(fabric: &mut Fabric) {
    let mut now = Cycle(0);
    for _ in 0..1024 {
        now = fabric.run_ff(now, 10_000).0;
        if fabric.is_quiescent() && !fabric.faults_pending() {
            break;
        }
    }
    assert!(
        fabric.is_quiescent() && !fabric.faults_pending(),
        "fabric failed to drain"
    );
    let c = fabric.conservation();
    assert!(c.holds(), "fleet conservation violated:\n{c}");
}

/// Frames actually injected / delivered to a wire, fleet-wide.
fn injected_and_delivered(fabric: &Fabric) -> (u64, u64) {
    let mut injected = 0;
    let mut delivered = 0;
    for i in 0..fabric.len() {
        injected += fabric.member(i).stats().rx_frames;
        delivered += fabric.member(i).stats().tx_wire;
    }
    (injected, delivered)
}

/// An armed fault plane with an empty plan.
fn armed_empty() -> FabricFaultConfig {
    FabricFaultConfig::new(FabricFaultPlan::default())
}

/// One observed run: Chrome trace JSON + metrics JSON.
fn observed(faults: Option<FabricFaultConfig>, threads: usize) -> (String, String) {
    let mut fabric = ring(4, faults);
    fabric.set_threads(threads);
    let tracer = Tracer::chrome();
    fabric.attach_tracer(&tracer);
    drain(&mut fabric);
    let mut m = MetricsRegistry::new();
    fabric.export_metrics(&mut m);
    (tracer.chrome_json().expect("chrome sink"), m.to_json())
}

/// The golden byte-identity satellite: arming the fault plane with an
/// *empty* plan changes nothing — Chrome traces and metrics are
/// byte-identical to the unarmed fabric, at 1 worker thread and at 4.
#[test]
fn armed_but_empty_fault_plane_is_byte_identical_to_unarmed() {
    let (trace_base, metrics_base) = observed(None, 1);
    for (label, faults, threads) in [
        ("unarmed x4", None, 4),
        ("armed x1", Some(armed_empty()), 1),
        ("armed x4", Some(armed_empty()), 4),
    ] {
        let (t, m) = observed(faults, threads);
        assert_eq!(trace_base, t, "{label}: trace must be byte-identical");
        assert_eq!(metrics_base, m, "{label}: metrics must be byte-identical");
    }
}

/// A flap-only plan (the CI `rack-chaos` job's scenario shape): copies
/// destroyed on the downed link are retransmitted by the hop ledger,
/// traffic reroutes the long way around the ring, and every injected
/// frame still reaches a wire — 100% eventual delivery.
#[test]
fn flap_only_plan_delivers_everything_eventually() {
    let plan = FabricFaultPlan::parse("flap:0-1@300+400,flap:2-3@500+200").unwrap();
    let mut fabric = ring(4, Some(FabricFaultConfig::new(plan)));
    drain(&mut fabric);

    let (injected, delivered) = injected_and_delivered(&fabric);
    assert_eq!(injected, 4 * COUNT, "flaps never block injection");
    assert_eq!(delivered, injected, "100% eventual delivery");
    let stats = fabric.chaos_stats().expect("armed");
    assert_eq!(stats.events_fired, 2);
    assert!(
        stats.reroutes > 0,
        "a multi-epoch flap must push traffic the long way around"
    );
    assert_eq!(stats.member_crashes, 0);
}

/// A member crash redirects chains to a same-signature replica while
/// the member is down, the suppressed driver's backlog bursts in on
/// recovery, and delivery is still 100%.
#[test]
fn member_crash_fails_over_and_recovers() {
    let plan = FabricFaultPlan::parse("mcrash:1@400+8").unwrap();
    let mut fabric = ring(4, Some(FabricFaultConfig::new(plan)));
    drain(&mut fabric);

    let (injected, delivered) = injected_and_delivered(&fabric);
    assert_eq!(injected, 4 * COUNT, "the backlog bursts in on recovery");
    assert_eq!(delivered, injected, "100% delivery through failover");
    let stats = fabric.chaos_stats().expect("armed");
    assert_eq!(stats.member_crashes, 1);
    assert_eq!(stats.member_recoveries, 1);
    assert!(
        stats.replica_rewrites > 0,
        "crossings addressed to the crashed member must re-point"
    );
}

/// A permanent member loss: the fleet still drains (the lost member
/// goes Down forever, its unfired driver arrivals are forfeited), the
/// survivors' traffic fails over, and the books still close.
#[test]
fn permanent_member_loss_drains_clean() {
    let plan = FabricFaultPlan::parse("mloss:2@700").unwrap();
    let mut fabric = ring(4, Some(FabricFaultConfig::new(plan)));
    drain(&mut fabric);

    let (injected, delivered) = injected_and_delivered(&fabric);
    assert!(injected < 4 * COUNT, "the lost member stops injecting");
    let stats = fabric.chaos_stats().expect("armed");
    assert_eq!(
        delivered + stats.redirected,
        injected,
        "every injected frame reaches a wire or the host-fallback sink"
    );
    assert_eq!(stats.member_crashes, 1);
    assert_eq!(stats.member_recoveries, 0, "a loss never recovers");
}

/// A recovery delay is counted in epochs, so `epochs × epoch length`
/// can run past the end of the clock. Then the recovery never comes —
/// the member is lost, as by `mloss`, and the fleet still drains —
/// where it once overflowed: a panic in the dev profile, and in
/// `--release` a wrap to zero that "recovered" the member at the very
/// next boundary.
#[test]
fn member_crash_recovery_past_the_end_of_the_clock_never_comes() {
    let plan = FabricFaultPlan::parse("mcrash:2@300+9223372036854775808").unwrap();
    let mut fabric = ring(4, Some(FabricFaultConfig::new(plan)));
    drain(&mut fabric);

    let stats = fabric.chaos_stats().expect("armed");
    assert_eq!(stats.member_crashes, 1);
    assert_eq!(
        stats.member_recoveries, 0,
        "2^63 epochs of {LATENCY} cycles end past the clock, not now"
    );
    let (injected, delivered) = injected_and_delivered(&fabric);
    assert!(injected < 4 * COUNT, "the lost member stops injecting");
    assert_eq!(delivered + stats.redirected, injected);
}

/// A chaotic run is byte-identical across worker-thread counts: all
/// chaos state changes live in the serial boundary exchange.
#[test]
fn chaotic_runs_are_byte_identical_across_thread_counts() {
    fn run(threads: usize) -> String {
        let plan = FabricFaultPlan::parse("flap:0-1@300+400,mcrash:2@600+8").unwrap();
        let mut fabric = ring(4, Some(FabricFaultConfig::new(plan)));
        fabric.set_threads(threads);
        drain(&mut fabric);
        let mut m = MetricsRegistry::new();
        fabric.export_metrics(&mut m);
        m.to_json()
    }
    assert_eq!(run(1), run(4), "chaos must not depend on the thread count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The satellite property: *any* seeded fabric fault plan over a
    /// ring topology drains to quiescence with the fleet
    /// conservation-under-faults identity closing exactly (asserted
    /// inside `drain`), and nothing injected is silently lost.
    #[test]
    fn seeded_fabric_plan_drains_and_closes(
        seed in any::<u64>(),
        nics in 2usize..=5,
        intensity in 1u32..=10,
    ) {
        let universe = FabricFaultUniverse::new(
            nics,
            ring_pairs(nics),
            Cycle(COUNT * PERIOD),
        );
        let plan = FabricFaultPlan::generate(seed, &universe, intensity);
        let mut fabric = ring(nics, Some(FabricFaultConfig::new(plan)));
        drain(&mut fabric);

        let (injected, delivered) = injected_and_delivered(&fabric);
        let stats = fabric.chaos_stats().expect("armed");
        prop_assert_eq!(stats.events_fired, u64::from(intensity));
        prop_assert_eq!(delivered + stats.redirected, injected);
    }
}
