//! Cross-crate integration tests: full NIC flows spanning every
//! subsystem (workloads → packet → rmt → noc → engines → sched).

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineClass;
use packet::message::{Priority, TenantId};
use panic_core::nic::{NicConfig, PanicNic};
use panic_core::programs::chain_program;
use panic_core::scenarios::kvs::{KvsScenario, KvsScenarioConfig};
use rmt::pipeline::PipelineConfig;
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use workloads::frames::FrameFactory;

fn small_nic(chain_hops: usize, service: u64) -> (PanicNic, packet::EngineId) {
    let freq = Freq::PANIC_DEFAULT;
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(4, 4),
        width_bits: 64,
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
    let offloads: Vec<packet::EngineId> = (0..chain_hops)
        .map(|i| {
            b.engine(
                Box::new(NullOffload::new(
                    format!("o{i}"),
                    EngineClass::Asic,
                    Cycles(service),
                )),
                TileConfig::default(),
            )
        })
        .collect();
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    b.program(chain_program(&offloads, eth, Some(1000)));
    (b.build(), eth)
}

#[test]
fn thousand_frames_conserved_across_all_subsystems() {
    let (mut nic, eth) = small_nic(3, 1);
    let mut factory = FrameFactory::for_nic_port(0);
    let n = 1000u64;
    let mut now = Cycle(0);
    let mut sent = 0u64;
    let mut received = 0u64;
    for step in 0..200_000u64 {
        if step % 10 == 0 && sent < n {
            nic.rx_frame(
                eth,
                factory.min_frame((sent % 512) as u16, 80),
                TenantId((sent % 4) as u16),
                Priority::Normal,
                now,
            );
            sent += 1;
        }
        nic.tick(now);
        now = now.next();
        received += nic.take_wire_tx().len() as u64;
        if received == n {
            break;
        }
    }
    assert_eq!(received, n, "every frame accounted for");
    assert!(nic.is_quiescent());
    // Conservation identities.
    let (s, c) = (nic.stats(), nic.conservation());
    assert_eq!(s.rx_frames, n);
    assert_eq!(s.tx_wire, n);
    // The wire counters the benchmark reads are the store's, read apart.
    assert_eq!((c.rx_frames, c.tx_wire), (s.rx_frames, s.tx_wire));
    assert_eq!(c.consumed, 0);
    assert_eq!(c.unrouted, 0);
    assert!(c.holds() && c.live == 0, "{c}");
    // Exactly one pipeline pass per frame.
    assert_eq!(nic.pipeline().stats().accepted, n);
    // NoC message conservation.
    let net = nic.network().stats();
    assert_eq!(net.injected_messages, net.delivered_messages);
}

#[test]
fn chain_order_is_respected_end_to_end() {
    // Offloads count invocations; with a 3-hop chain all three see
    // exactly the same number of messages.
    let (mut nic, eth) = small_nic(3, 2);
    let mut factory = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    for i in 0..50u64 {
        nic.rx_frame(
            eth,
            factory.min_frame(i as u16, 80),
            TenantId(0),
            Priority::Normal,
            now,
        );
    }
    let mut got = 0;
    for _ in 0..100_000 {
        nic.tick(now);
        now = now.next();
        got += nic.take_wire_tx().len();
        if got == 50 {
            break;
        }
    }
    assert_eq!(got, 50);
    for id in 1..=3u16 {
        let t = nic.tile(packet::EngineId(id)).unwrap();
        assert_eq!(t.stats().processed, 50, "offload {id} saw all frames");
    }
}

#[test]
fn latency_class_survives_contention_in_full_stack() {
    // One slow offload shared by everyone, scheduled by priority-
    // dependent slack; randomized arrivals create real queueing, and
    // latency frames must beat bulk through the scheduler.
    use rmt::action::{Action, Primitive, SlackExpr};
    use rmt::parse::ParseGraph;
    use rmt::program::ProgramBuilder;
    use rmt::table::{MatchKind, Table};

    let freq = Freq::PANIC_DEFAULT;
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(4, 4),
        width_bits: 64,
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
    let slow = b.engine(
        Box::new(NullOffload::new("slow", EngineClass::Asic, Cycles(30))),
        TileConfig {
            queue_capacity: 256,
            ..TileConfig::default()
        },
    );
    let _ = b.rmt_portal();
    let _ = b.rmt_portal();
    let slack = SlackExpr::ByPriority {
        latency: 50,
        normal: 50_000,
    };
    b.program(
        ProgramBuilder::new("contend", ParseGraph::standard(6379))
            .stage(Table::new(
                "all",
                MatchKind::Exact(vec![packet::phv::Field::EthType]),
                Action::named(
                    "chain",
                    vec![
                        Primitive::PushHop {
                            engine: slow,
                            slack,
                        },
                        Primitive::PushHop { engine: eth, slack },
                    ],
                ),
            ))
            .build(),
    );
    let mut nic = b.build();

    let mut rng = sim_core::rng::SimRng::new(5);
    let mut factory = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    for _ in 0..120_000u64 {
        // Bulk at ~0.85 of the slow engine's capacity, randomized so
        // queues actually form.
        if rng.gen_bool(1.0 / 35.0) {
            nic.rx_frame(
                eth,
                factory.min_frame(2, 9999),
                TenantId(2),
                Priority::Bulk,
                now,
            );
        }
        if rng.gen_bool(1.0 / 400.0) {
            nic.rx_frame(
                eth,
                factory.min_frame(1, 7),
                TenantId(1),
                Priority::Latency,
                now,
            );
        }
        nic.tick(now);
        now = now.next();
        let _ = nic.take_wire_tx();
    }
    let lat = nic.stats().latency_of(Priority::Latency).summary();
    let bulk = nic.stats().latency_of(Priority::Bulk).summary();
    assert!(lat.count > 100, "probes delivered: {}", lat.count);
    assert!(
        lat.p99 < bulk.p99,
        "latency-class p99 {} vs bulk p99 {}",
        lat.p99,
        bulk.p99
    );
}

#[test]
fn kvs_scenario_is_deterministic_and_correct() {
    let run = || {
        let mut cfg = KvsScenarioConfig::two_tenant_default();
        cfg.keys_per_tenant = 64;
        cfg.cached_hot_keys = 16;
        let mut s = KvsScenario::new(cfg);
        s.run(60_000);
        let r = s.report();
        (
            r.cache_hits,
            r.cache_misses,
            r.tenants
                .iter()
                .map(|t| (t.gets, t.sets, t.replies_ok, t.replies_bad))
                .collect::<Vec<_>>(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same world");
    assert!(a.0 > 0, "cache hits happened");
    for &(gets, _sets, ok, bad) in &a.2 {
        assert_eq!(bad, 0);
        assert!(ok as f64 >= gets as f64 * 0.85, "ok {ok} of {gets}");
    }
}

#[test]
fn seeds_change_the_world_but_not_its_invariants() {
    let run = |seed: u64| {
        let mut cfg = KvsScenarioConfig::two_tenant_default();
        cfg.keys_per_tenant = 64;
        cfg.cached_hot_keys = 16;
        cfg.seed = seed;
        let mut s = KvsScenario::new(cfg);
        s.run(40_000);
        let r = s.report();
        let bad: u64 = r.tenants.iter().map(|t| t.replies_bad).sum();
        assert_eq!(bad, 0, "seed {seed}: correctness is seed-independent");
        r.cache_hits
    };
    let h1 = run(1);
    let h2 = run(2);
    // Different seeds draw different keys; hit counts differ.
    assert_ne!(h1, h2);
}
