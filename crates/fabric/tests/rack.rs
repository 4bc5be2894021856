//! Rack-fabric integration tests: the cross-NIC chain acceptance
//! criterion, the 1-NIC golden byte-identity, and the run ≡ run_ff
//! contract at fabric level.

mod common;

use common::member;
use fabric::{Fabric, FabricBuilder, LinkSpec};
use packet::message::{Priority, TenantId};
use packet::EngineId;
use panic_core::programs::chain_program;
use sim_core::time::Cycle;
use trace::{MetricsRegistry, Tracer};
use workloads::frames::FrameFactory;

/// A driver injecting `count` frames into `eth`, one every `period`
/// cycles starting at `start`.
fn frame_driver(eth: EngineId, start: u64, period: u64, count: u64) -> impl fabric::NicDriver {
    common::frame_driver(eth, 0, start, period, count)
}

/// Two members, a symmetric link pair, and member 0's pipeline
/// encoding a chain that crosses: local crc, then member 1's crc,
/// egress on member 1's MAC.
fn two_nic_fabric(latency: u64, credits: usize) -> Fabric {
    let (mut a, eth_a, crc_a) = member();
    let (mut b, eth_b, crc_b) = member();
    a.program(chain_program(
        &[crc_a, EngineId::remote(1, crc_b)],
        EngineId::remote(1, eth_b),
        Some(5_000),
    ));
    b.program(chain_program(&[crc_b], eth_b, Some(5_000)));
    let mut fb = FabricBuilder::new();
    let ia = fb.member(a, eth_a);
    let ib = fb.member(b, eth_b);
    fb.link_pair(
        ia,
        ib,
        LinkSpec::new(0, 0).latency(latency).credits(credits),
    );
    fb.driver(ia, Box::new(frame_driver(eth_a, 0, 100, 50)));
    fb.build()
}

/// The ISSUE acceptance criterion: a chain spanning two NICs completes
/// via a remote hop, and fleet-wide conservation closes exactly.
#[test]
fn cross_nic_chain_completes_and_fleet_conservation_closes() {
    let mut fabric = two_nic_fabric(16, 16);
    let now = fabric.run_ff(Cycle(0), 50_000).0;
    fabric.drain(now).expect("drains");

    // Every frame injected at member 0 crossed and egressed at member 1.
    assert_eq!(fabric.member(0).stats().rx_frames, 50);
    assert_eq!(fabric.member(0).conservation().remote_tx, 50);
    assert_eq!(fabric.member(0).stats().tx_wire, 0);
    assert_eq!(fabric.member(1).conservation().remote_rx, 50);
    assert_eq!(fabric.member(1).stats().tx_wire, 50);
    assert_eq!(fabric.stats().forwarded, 50);
    assert_eq!(fabric.stats().delivered, 50);
    assert_eq!(fabric.stats().rejected, 0);
    assert_eq!(fabric.stats().fabric_unrouted, 0);

    let c = fabric.conservation();
    assert!(c.holds(), "fleet conservation violated:\n{c}");
    assert_eq!(c.remote_tx, 50);
    assert_eq!(c.remote_rx, 50);
    assert_eq!(c.link_in_flight, 0);
    assert_eq!(c.egress_backlog, 0);
}

/// A starved credit window backpressures (head-of-line at the uplink)
/// but never drops: everything still arrives, conservation still
/// closes.
#[test]
fn credit_backpressure_delays_but_never_drops() {
    // One credit, slow serialization, and a burst injected faster than
    // the link can carry it.
    let (mut a, eth_a, crc_a) = member();
    let (mut b, eth_b, crc_b) = member();
    a.program(chain_program(
        &[crc_a, EngineId::remote(1, crc_b)],
        EngineId::remote(1, eth_b),
        Some(5_000),
    ));
    b.program(chain_program(&[crc_b], eth_b, Some(5_000)));
    let mut fb = FabricBuilder::new();
    let ia = fb.member(a, eth_a);
    let ib = fb.member(b, eth_b);
    fb.link_pair(
        ia,
        ib,
        LinkSpec::new(0, 0)
            .latency(64)
            .bytes_per_cycle(1)
            .credits(1),
    );
    fb.driver(ia, Box::new(frame_driver(eth_a, 0, 10, 20)));
    let mut fabric = fb.build();

    let now = fabric.run_ff(Cycle(0), 50_000).0;
    fabric.drain(now).expect("drains");

    assert!(
        fabric.stats().backpressured > 0,
        "a 1-credit link under a burst must backpressure"
    );
    assert_eq!(fabric.member(1).stats().tx_wire, 20, "no drops");
    let c = fabric.conservation();
    assert!(c.holds(), "fleet conservation violated:\n{c}");
}

/// Golden test: a 1-member fabric is byte-identical — traces and
/// metrics — to the bare `PanicNic` it wraps, driven by the same
/// arrival schedule through the same chunked-`run_ff` loop shape.
#[test]
fn one_nic_fabric_is_byte_identical_to_bare_nic() {
    const PERIOD: u64 = 100;
    const COUNT: u64 = 40;
    const TOTAL: u64 = 20_000;

    // Bare: replicate the fabric's member loop by hand.
    let (mut bb, eth, crc) = member();
    bb.program(chain_program(&[crc], eth, Some(5_000)));
    let mut bare = bb.build();
    let bare_tracer = Tracer::chrome();
    bare.attach_tracer(&bare_tracer);
    let mut factory = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    let end = Cycle(TOTAL);
    let mut fired = 0u64;
    while now < end {
        let next = (fired < COUNT)
            .then(|| Cycle((fired * PERIOD).max(now.0)))
            .filter(|a| *a < end);
        match next {
            Some(arr) if arr <= now => {
                bare.rx_frame(
                    eth,
                    factory.min_frame((fired % 50) as u16, 80),
                    TenantId(0),
                    Priority::Normal,
                    now,
                );
                fired += 1;
            }
            _ => {
                now = bare.run_ff(now, next.unwrap_or(end).0 - now.0).0;
            }
        }
    }
    let mut bare_metrics = MetricsRegistry::new();
    bare.export_metrics(&mut bare_metrics);

    // Fabric: the same NIC as the sole member, same schedule.
    let (mut fbb, eth_f, crc_f) = member();
    fbb.program(chain_program(&[crc_f], eth_f, Some(5_000)));
    let mut fb = FabricBuilder::new();
    let i = fb.member(fbb, eth_f);
    fb.driver(i, Box::new(frame_driver(eth_f, 0, PERIOD, COUNT)));
    let mut fabric = fb.build();
    let fabric_tracer = Tracer::chrome();
    fabric.attach_tracer(&fabric_tracer);
    fabric.run_ff(Cycle(0), TOTAL);
    let mut fabric_metrics = MetricsRegistry::new();
    fabric.export_metrics(&mut fabric_metrics);

    assert_eq!(
        bare.stats().tx_wire,
        fabric.member(0).stats().tx_wire,
        "same deliveries"
    );
    assert_eq!(
        bare_metrics.to_json(),
        fabric_metrics.to_json(),
        "metrics must be byte-identical"
    );
    assert_eq!(
        bare_tracer.chrome_json().expect("chrome sink"),
        fabric_tracer.chrome_json().expect("chrome sink"),
        "traces must be byte-identical"
    );
}

/// `run` (stepped epochs) and `run_ff` (member fast-forward plus
/// quiescent-fleet jumps) produce the same final state: the jump
/// quantization keeps the exchange schedule identical.
#[test]
fn fabric_run_and_run_ff_agree() {
    // Identical horizons: idle-slot counters are wall-clock
    // proportional (skip_idle accounts skipped cycles), so the two
    // runs must cover the same span to compare byte-for-byte.
    const HORIZON: u64 = 60_000;
    let mut stepped = two_nic_fabric(16, 16);
    let mut fast = two_nic_fabric(16, 16);

    let mut now_s = Cycle(0);
    for _ in 0..6 {
        now_s = stepped.run(now_s, HORIZON / 6);
    }
    fast.run_ff(Cycle(0), HORIZON);
    assert!(stepped.is_quiescent(), "stepped run failed to drain");
    assert!(fast.is_quiescent(), "fast run failed to drain");

    let (mut ms, mut mf) = (MetricsRegistry::new(), MetricsRegistry::new());
    stepped.export_metrics(&mut ms);
    fast.export_metrics(&mut mf);
    assert_eq!(ms.to_json(), mf.to_json(), "run vs run_ff must agree");
    assert!(
        fast.stats().fleet_skipped > 0,
        "the fast run should have taken at least one fleet jump"
    );
}

/// A remote hop addressed past the member list is dropped at the ToR
/// (the dynamic PV701 case) and shows up in `fabric_unrouted` — and
/// conservation still closes, counting the drop.
#[test]
fn unroutable_crossing_is_counted_not_lost() {
    let (mut a, eth_a, crc_a) = member();
    let (mut b, eth_b, crc_b) = member();
    // Member 7 does not exist.
    a.program(chain_program(
        &[crc_a, EngineId::remote(7, crc_b)],
        EngineId::remote(7, eth_b),
        Some(5_000),
    ));
    b.program(chain_program(&[crc_b], eth_b, Some(5_000)));
    let mut fb = FabricBuilder::new();
    let ia = fb.member(a, eth_a);
    let ib = fb.member(b, eth_b);
    fb.link_pair(ia, ib, LinkSpec::new(0, 0));
    fb.driver(ia, Box::new(frame_driver(eth_a, 0, 100, 10)));
    // PV701 fires statically, so bypass the lint gate deliberately.
    let mut fabric = fb.build_unvalidated();

    let now = fabric.run_ff(Cycle(0), 20_000).0;
    fabric.drain(now).expect("drains");

    assert_eq!(fabric.stats().fabric_unrouted, 10);
    assert_eq!(fabric.stats().forwarded, 0);
    let c = fabric.conservation();
    assert!(c.holds(), "conservation must count ToR drops:\n{c}");
}

/// A fabric fault plan naming a member the rack lacks is refused at
/// build time, not left to index past the member list mid-run.
#[test]
#[should_panic(expected = "names member 7, but the fabric has 2 member(s)")]
fn build_refuses_a_fault_plan_naming_an_absent_member() {
    let plan = faults::FabricFaultPlan::parse("mcrash:7@100+4").unwrap();
    let _ = common::ring_of(2, 0, Some(faults::FabricFaultConfig::new(plan)));
}

/// The same for a link: a 4-member ring joins 0-1, 1-2, 2-3 and 3-0,
/// so `0-2` is absent.
#[test]
#[should_panic(expected = "names link 0-2, but the fabric declares no link")]
fn build_refuses_a_fault_plan_naming_an_absent_link() {
    let plan = faults::FabricFaultPlan::parse("flap:0-2@100+64").unwrap();
    let _ = common::ring_of(4, 0, Some(faults::FabricFaultConfig::new(plan)));
}
