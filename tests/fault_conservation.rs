//! Fault-plane invariants, cross-crate (hence workspace root):
//!
//! 1. **Conservation under arbitrary faults** (proptest): for any
//!    seeded [`FaultPlan`], the replicated-offload NIC drains —
//!    quiescent with the fault plane settled — and the copy-level
//!    conservation identity closes: every injected copy ends in
//!    exactly one sink bucket (wire, host, consumed, dropped, lost,
//!    flushed, duplicate). No copy is created or destroyed off the
//!    books, no matter what breaks.
//! 2. **No handle leaks**: the identity holds after every tick — the
//!    copies the NIC's message store holds are exactly those its
//!    planes hold — and the store is empty once drained.
//! 3. **Determinism** (golden): the same seed yields a byte-identical
//!    Chrome trace and conservation report across runs. Chaos testing
//!    is only useful if a failing seed replays exactly.

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use faults::{FaultPlan, FaultUniverse, WatchdogConfig};
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::{Priority, TenantId};
use packet::phv::Field;
use panic_core::nic::{Conservation, NicBuilder, NicConfig, PanicNic};
use proptest::prelude::*;
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::pipeline::PipelineConfig;
use rmt::program::ProgramBuilder;
use rmt::table::{MatchKind, Table};
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use workloads::frames::FrameFactory;

/// The replicated-offload NIC the fault plane is exercised on:
/// `eth0 -> off0 -> eth0`, with `off1` as the same-stem replica, and a
/// watchdog tight enough to detect and fail over inside a short run.
fn replicated_builder(program: &str) -> (NicBuilder, EngineId) {
    let freq = Freq::mhz(500);
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(3, 3),
        width_bits: 64,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 1,
            depth: 3,
            freq,
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(MacEngine::new("eth0", Bandwidth::gbps(100), freq)),
        TileConfig::default(),
    );
    let off0 = b.engine(
        Box::new(NullOffload::new("off0", EngineClass::Asic, Cycles(2))),
        TileConfig::default(),
    );
    let _off1 = b.engine(
        Box::new(NullOffload::new("off1", EngineClass::Asic, Cycles(2))),
        TileConfig::default(),
    );
    let _ = b.rmt_portal();
    b.program(
        ProgramBuilder::new(program, ParseGraph::standard(6379))
            .stage(Table::new(
                "route",
                MatchKind::Exact(vec![Field::EthType]),
                Action::named(
                    "chain",
                    vec![
                        Primitive::PushHop {
                            engine: off0,
                            slack: SlackExpr::Const(100),
                        },
                        Primitive::PushHop {
                            engine: eth,
                            slack: SlackExpr::Const(200),
                        },
                    ],
                ),
            ))
            .build(),
    );
    b.watchdog(WatchdogConfig {
        deadline: Cycles(256),
        max_retries: 4,
        engine_timeout: Cycles(64),
        down_after: 2,
        check_interval: Cycles(16),
    });
    (b, eth)
}

fn replicated_nic() -> (PanicNic, EngineId) {
    let (b, eth) = replicated_builder("fault-prop");
    (b.build(), eth)
}

/// Feeds `frames` frames one per `gap` cycles, tenant ids 1 to
/// `tenants` in rotation, and drives the NIC to quiescence with the
/// fault plane settled, holding it to the identity after every tick
/// (so, drained, to an empty store). Returns `None` on success or the
/// cycle bound on failure to drain.
fn drive(nic: &mut PanicNic, eth: EngineId, frames: u64, gap: u64, tenants: u64) -> Option<u64> {
    let mut factory = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    let mut sent = 0u64;
    let bound = frames * gap + 200_000;
    while now.0 < bound {
        if sent < frames && now.0.is_multiple_of(gap) {
            let tenant = TenantId(1 + (sent % tenants) as u16);
            nic.rx_frame(
                eth,
                factory.min_frame(sent as u16, 80),
                tenant,
                Priority::Normal,
                now,
            );
            sent += 1;
        }
        nic.tick(now);
        let c = nic.conservation();
        assert!(c.holds(), "cycle {}: the books do not close:\n{c}", now.0);
        now = now.next();
        if sent == frames && nic.is_quiescent() && nic.faults_settled() {
            return None;
        }
    }
    Some(bound)
}

const FRAMES: u64 = 80;
const GAP: u64 = 25;

fn test_universe() -> FaultUniverse {
    // off0 = EngineId(1), off1 = EngineId(2); faults land in the first
    // three quarters of the feed window.
    FaultUniverse::new(vec![EngineId(1), EngineId(2)], Cycle(FRAMES * GAP * 3 / 4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seeded fault plan drains and conserves: crashes, stalls,
    /// degradations, refusals, link slowdowns, credit holds, and
    /// ejection drops in any seeded combination never create or lose a
    /// copy off the books.
    #[test]
    fn seeded_fault_plans_conserve(seed in any::<u64>(), intensity in 1u32..=8) {
        let plan = FaultPlan::generate(seed, &test_universe(), intensity);
        let (mut nic, eth) = replicated_nic();
        nic.enable_faults(plan.clone());
        let stuck = drive(&mut nic, eth, FRAMES, GAP, 1);
        prop_assert!(
            stuck.is_none(),
            "plan `{plan}` did not drain within {:?} cycles:\n{}",
            stuck,
            nic.conservation()
        );
        let c = nic.conservation();
        prop_assert!(c.holds(), "plan `{plan}` violates conservation:\n{c}");
        // Dedupe caps wire egress at the offered load: re-issues must
        // never inflate goodput past 100%.
        prop_assert!(
            c.tx_wire + c.host_fallback <= FRAMES,
            "more egress than offered frames:\n{c}"
        );
    }
}

// ---- tenancy × faults ------------------------------------------------

/// The replicated NIC with the tenancy plane engaged: two vNICs of
/// unequal weight sharing the credit pool. Faults now have to leave
/// *each tenant's* books balanced, not just the NIC's.
fn tenanted_nic() -> (PanicNic, EngineId) {
    use tenancy::{TenancyConfig, VNicSpec};
    let (mut b, eth) = replicated_builder("fault-prop-tn");
    b.tenancy(TenancyConfig::new(vec![
        VNicSpec::new(TenantId(1), "heavy", 3).credit_quota(12),
        VNicSpec::new(TenantId(2), "light", 1).credit_quota(4),
    ]));
    (b.build(), eth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tenancy ledgers close under arbitrary seeded faults: for
    /// each tenant, everything submitted or re-issued on its behalf is
    /// delivered, absorbed, dropped, flushed, lost, or suppressed —
    /// per tenant, not just in aggregate — and the global identity
    /// still holds with the plane engaged.
    #[test]
    fn two_tenant_fault_plans_conserve_per_tenant(seed in any::<u64>(), intensity in 1u32..=8) {
        let plan = FaultPlan::generate(seed, &test_universe(), intensity);
        let (mut nic, eth) = tenanted_nic();
        nic.enable_faults(plan.clone());
        let stuck = drive(&mut nic, eth, FRAMES, GAP, 2);
        prop_assert!(
            stuck.is_none(),
            "plan `{plan}` did not drain within {:?} cycles:\n{}",
            stuck,
            nic.conservation()
        );
        let c = nic.conservation();
        prop_assert!(c.holds(), "plan `{plan}` violates global conservation:\n{c}");
        let mut submitted_total = 0u64;
        for t in [TenantId(1), TenantId(2)] {
            let tc = nic.tenant_conservation(t).expect("tenancy engaged");
            prop_assert!(
                tc.holds(),
                "plan `{plan}` violates tenant {} conservation:\n{tc}",
                t.0
            );
            prop_assert_eq!(tc.pending, 0, "quiescent NIC left tenant {} backlog", t.0);
            submitted_total += tc.submitted;
        }
        prop_assert_eq!(submitted_total, FRAMES, "every offered frame reached a vNIC");
        // Dedupe still caps egress at offered load with the plane on.
        prop_assert!(
            c.tx_wire + c.host_fallback <= FRAMES,
            "more egress than offered frames:\n{c}"
        );
    }
}

/// Each way a copy ends inside the NIC returns its handle: a plan per
/// way, each required to take it, drains with the store empty and the
/// identity held after every tick on the way.
#[test]
fn every_way_a_copy_ends_returns_its_handle() {
    type Took = fn(&Conservation) -> bool;
    let cases: [(&str, u64, u64, Took); 3] = [
        // A sixteenfold slower offload overflows its queue: PIFO tail
        // drops.
        ("degrade:1@0x16", 200, 2, |c| c.sched_drops > 0),
        // An ejection drop loses a copy in the mesh; the watchdog
        // re-issues it.
        ("drop:1@300", FRAMES, GAP, |c| {
            c.lost_noc > 0 && c.reissued > 0
        }),
        // A crashed offload wedges and goes DOWN: its queue is flushed.
        ("crash:1@500", FRAMES, GAP, |c| c.flushed > 0),
    ];
    for (spec, frames, gap, took) in cases {
        let (mut nic, eth) = replicated_nic();
        nic.enable_faults(FaultPlan::parse(spec).unwrap());
        let stuck = drive(&mut nic, eth, frames, gap, 1);
        let c = nic.conservation();
        assert!(stuck.is_none(), "`{spec}` did not drain:\n{c}");
        assert!(c.holds(), "`{spec}` violates conservation:\n{c}");
        assert!(took(&c), "`{spec}` never took the exit it is for:\n{c}");
    }
}

/// Renders one traced run of a seeded plan: (Chrome JSON, conservation
/// report, headline counters).
fn traced_run(seed: u64) -> (String, String, String) {
    let plan = FaultPlan::generate(seed, &test_universe(), 8);
    let (mut nic, eth) = replicated_nic();
    let tracer = trace::Tracer::chrome();
    nic.attach_tracer(&tracer);
    nic.enable_faults(plan);
    assert!(
        drive(&mut nic, eth, FRAMES, GAP, 1).is_none(),
        "traced run drains"
    );
    let c = nic.conservation();
    let counters = format!(
        "tx={} fb={} re={} fail={} dup={} down={:?}",
        c.tx_wire,
        c.host_fallback,
        c.reissued,
        nic.stats().failed,
        c.duplicates,
        nic.downed_engines()
    );
    (
        tracer.chrome_json().expect("chrome tracer renders JSON"),
        nic.conservation().to_string(),
        counters,
    )
}

/// The same chaos seed replays byte-for-byte: identical trace,
/// identical conservation report, identical counters. A failing seed
/// from CI is a complete reproducer.
#[test]
fn same_seed_same_trace_byte_for_byte() {
    let (json_a, cons_a, counters_a) = traced_run(0x00C0_FFEE);
    let (json_b, cons_b, counters_b) = traced_run(0x00C0_FFEE);
    assert_eq!(counters_a, counters_b);
    assert_eq!(cons_a, cons_b);
    assert_eq!(json_a, json_b, "trace must be byte-identical");
    // The trace actually contains fault-plane events — the "faults"
    // track only exists when the plane is engaged.
    assert!(json_a.contains("\"fault."), "fault events present");
    assert!(
        json_a.contains("\"watchdog.") || json_a.contains("\"failover."),
        "watchdog/failover events present"
    );
}

/// Different seeds genuinely differ (the generator is not collapsing
/// everything onto one schedule).
#[test]
fn different_seeds_differ() {
    let u = test_universe();
    let a = FaultPlan::generate(1, &u, 8);
    let b = FaultPlan::generate(2, &u, 8);
    assert_ne!(a, b);
}
