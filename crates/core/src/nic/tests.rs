use super::*;
use engines::engine::NullOffload;
use engines::tile::TileConfig;
use faults::WatchdogConfig;
use noc::topology::Coord;
use packet::chain::EngineClass;
use packet::message::TenantId;
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::program::ProgramBuilder;
use rmt::program::RmtProgram;
use rmt::table::{MatchKind, Table};
use sim_core::time::Cycles;
use trace::MetricsRegistry;
use workloads::frames::FrameFactory;

mod occupancy_mask;

/// A minimal NIC: one "eth" null engine (frames end here and fall
/// back to the pipeline — not used as egress), one pass-through
/// offload, one sink engine that the program chains through.
pub(super) fn tiny_nic() -> (PanicNic, EngineId, EngineId, EngineId) {
    let (b, eth, off, portal) = tiny_builder();
    (b.build(), eth, off, portal)
}

/// The 3×3, one-pipeline, no-PCIe-flush configuration every test NIC
/// below is built on.
pub(super) fn mesh3_config() -> NicConfig {
    NicConfig {
        topology: Topology::mesh(3, 3),
        width_bits: 64,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 1,
            depth: 3,
            freq: sim_core::time::Freq::mhz(500),
        },
        pcie_flush_interval: 0,
    }
}

/// Adds the 100 Gbps `eth0` MAC every test NIC receives and transmits
/// on.
pub(super) fn add_mac(b: &mut NicBuilder) -> EngineId {
    b.engine(
        Box::new(engines::mac::MacEngine::new(
            "eth0",
            sim_core::time::Bandwidth::gbps(100),
            sim_core::time::Freq::mhz(500),
        )),
        TileConfig::default(),
    )
}

/// A one-table program routing every frame through `first` (slack
/// 100) and then to `eth` for TX (slack 200).
fn two_hop_program(name: &str, first: EngineId, eth: EngineId) -> RmtProgram {
    let table = Table::new(
        "route",
        MatchKind::Exact(vec![packet::phv::Field::EthType]),
        Action::named(
            "chain",
            vec![
                Primitive::PushHop {
                    engine: first,
                    slack: SlackExpr::Const(100),
                },
                Primitive::PushHop {
                    engine: eth,
                    slack: SlackExpr::Const(200),
                },
            ],
        ),
    );
    ProgramBuilder::new(name, ParseGraph::standard(6379))
        .stage(table)
        .build()
}

/// The builder behind [`tiny_nic`], for spec/validation tests.
pub(super) fn tiny_builder() -> (NicBuilder, EngineId, EngineId, EngineId) {
    let mut b = PanicNic::builder(mesh3_config());
    let eth = add_mac(&mut b);
    let off = b.engine(
        Box::new(NullOffload::new("off", EngineClass::Asic, Cycles(2))),
        TileConfig::default(),
    );
    let portal = b.rmt_portal();
    b.program(two_hop_program("tiny", off, eth));
    (b, eth, off, portal)
}

#[test]
fn frame_flows_port_to_pipeline_to_chain_to_wire() {
    let (mut nic, eth, off, _) = tiny_nic();
    let mut f = FrameFactory::for_nic_port(0);
    let frame = f.min_frame(1, 80);
    let mut now = Cycle(0);
    nic.rx_frame(eth, frame.clone(), TenantId(1), Priority::Normal, now);

    let mut tx = Vec::new();
    for _ in 0..500 {
        nic.tick(now);
        now = now.next();
        tx.extend(nic.take_wire_tx());
        if !tx.is_empty() {
            break;
        }
    }
    assert_eq!(tx.len(), 1, "frame transmitted");
    assert_eq!(tx[0].payload.len(), frame.len());
    assert_eq!(tx[0].pipeline_passes, 1);
    assert_eq!(nic.stats().tx_wire, 1);
    assert_eq!(nic.stats().rx_frames, 1);
    // The offload engine saw it.
    assert_eq!(nic.tile(off).unwrap().stats().processed, 1);
    // End-to-end latency recorded under Normal.
    assert_eq!(nic.stats().latency_of(Priority::Normal).count(), 1);
    assert!(nic.is_quiescent());
}

/// Answers each workload frame twice: the frame goes on along its
/// chain, and a copy with an id of the engine's own goes back to the
/// pipeline as a new frame — the shape of an offload that acknowledges
/// what it forwards.
#[derive(Debug)]
struct Answerer {
    ids: engines::engine::MsgIdGen,
    answered: u64,
}

impl engines::Offload for Answerer {
    fn name(&self) -> &str {
        "answerer"
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
    fn service_time(&self, _msg: &Message) -> Cycles {
        Cycles(2)
    }
    fn process_into(&mut self, msg: &mut Message, _now: Cycle, out: &mut Vec<engines::Output>) {
        // Workload ids count up from zero; the answers' do not.
        if msg.id.0 < 1 << 40 {
            let mut answer = msg.clone();
            answer.id = self.ids.next_id();
            answer.chain = packet::chain::ChainHeader::empty();
            self.answered += 1;
            out.push(engines::Output::Spawn(None, answer));
        }
        out.push(engines::Output::Forward);
    }
}

#[test]
fn an_engine_answer_and_the_frame_it_forwards_both_leave_on_the_wire() {
    let mut b = PanicNic::builder(mesh3_config());
    let eth = add_mac(&mut b);
    let answerer = Answerer {
        ids: engines::engine::MsgIdGen::for_engine(1),
        answered: 0,
    };
    let ans = b.engine(Box::new(answerer), TileConfig::default());
    let _ = b.rmt_portal();
    b.program(two_hop_program("answer", ans, eth));
    let mut nic = b.build();
    let mut f = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    for flow in 0..3 {
        let frame = f.min_frame(flow, 80);
        nic.rx_frame(eth, frame, TenantId(1), Priority::Normal, now);
    }
    let mut tx = Vec::new();
    for _ in 0..5_000 {
        nic.tick(now);
        now = now.next();
        tx.extend(nic.take_wire_tx());
    }
    assert!(nic.is_quiescent());
    // Three forwarded frames and three answers, each answer classified
    // afresh by the pipeline and sent out through the MAC.
    let answers = tx.iter().filter(|m| m.id.0 >= 1 << 40).count();
    assert_eq!((tx.len(), answers), (6, 3));
    assert_eq!(nic.stats().tx_wire, 6);
    let tile = nic.tile(ans).unwrap();
    assert_eq!(tile.offload_as::<Answerer>().unwrap().answered, 3);
    assert_eq!(tile.stats().processed, 6, "answers pass the answerer once");
}

#[test]
fn many_frames_all_accounted() {
    let (mut nic, eth, _, _) = tiny_nic();
    let mut f = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    let n = 50;
    for i in 0..n {
        let frame = f.min_frame(i as u16, 80);
        nic.rx_frame(eth, frame, TenantId(1), Priority::Normal, now);
    }
    let mut tx = 0;
    for _ in 0..20_000 {
        nic.tick(now);
        now = now.next();
        tx += nic.take_wire_tx().len();
        if tx == n {
            break;
        }
    }
    assert_eq!(tx, n, "all frames transmitted");
    assert!(nic.is_quiescent());
    // Conservation: everything injected egressed.
    assert_eq!(nic.stats().rx_frames as usize, n);
    assert_eq!(nic.stats().tx_wire as usize, n);
    assert_eq!(nic.conservation().unrouted, 0);
    assert_eq!(nic.conservation().consumed, 0);
}

#[test]
fn fast_forward_matches_stepped_run() {
    // Gap-dominated workload: three frames 400 cycles apart, then a
    // long drain. The fast-forwarded run must be byte-identical to
    // the stepped run — same Chrome trace, same metrics JSON.
    let run = |ff: bool| {
        let (mut nic, eth, _, _) = tiny_nic();
        let tracer = Tracer::ring(8192);
        nic.attach_tracer(&tracer);
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        let mut skipped_total = 0u64;
        for burst in 0..3u64 {
            let at = Cycle(burst * 400);
            let gap = at.0 - now.0;
            if ff {
                let (n, skipped) = nic.run_ff(now, gap);
                now = n;
                skipped_total += skipped;
            } else {
                now = nic.run(now, gap);
            }
            nic.rx_frame(
                eth,
                f.min_frame(burst as u16, 80),
                TenantId(1),
                Priority::Normal,
                now,
            );
        }
        if ff {
            let (n, skipped) = nic.run_ff(now, 2000 - now.0);
            now = n;
            skipped_total += skipped;
            assert!(skipped > 0, "gap-dominated run must skip cycles");
        } else {
            now = nic.run(now, 2000 - now.0);
        }
        assert_eq!(now, Cycle(2000));
        assert!(nic.is_quiescent());
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m);
        (
            m.to_json(),
            tracer.chrome_json(),
            nic.take_wire_tx().len(),
            skipped_total,
        )
    };
    let (m_s, t_s, tx_s, _) = run(false);
    let (m_f, t_f, tx_f, skipped) = run(true);
    assert_eq!(tx_s, tx_f);
    assert_eq!(m_s, m_f, "metrics must be byte-identical");
    assert_eq!(t_s, t_f, "traces must be byte-identical");
    assert!(skipped > 1000, "most of the run is idle: skipped={skipped}");
}

#[test]
fn next_activity_none_when_quiescent() {
    let (mut nic, eth, _, _) = tiny_nic();
    assert_eq!(nic.next_activity(Cycle(0)), None);
    let mut f = FrameFactory::for_nic_port(0);
    nic.rx_frame(
        eth,
        f.min_frame(1, 80),
        TenantId(1),
        Priority::Normal,
        Cycle(0),
    );
    assert!(nic.next_activity(Cycle(0)).is_some());
    let (end, _) = nic.run_ff(Cycle(0), 1000);
    assert!(nic.is_quiescent());
    assert_eq!(nic.next_activity(end), None);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (mut nic, eth, _, _) = tiny_nic();
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        for i in 0..20 {
            nic.rx_frame(eth, f.min_frame(i, 80), TenantId(1), Priority::Normal, now);
        }
        let mut log = Vec::new();
        for _ in 0..3000 {
            nic.tick(now);
            now = now.next();
            for m in nic.take_wire_tx() {
                log.push((now.0, m.id.0));
            }
        }
        log
    };
    assert_eq!(run(), run());
}

#[test]
fn tracer_covers_all_four_component_kinds() {
    let (mut nic, eth, _, _) = tiny_nic();
    let tracer = Tracer::chrome();
    nic.attach_tracer(&tracer);
    let mut f = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    for i in 0..5 {
        nic.rx_frame(eth, f.min_frame(i, 80), TenantId(1), Priority::Normal, now);
    }
    for _ in 0..2000 {
        nic.tick(now);
        now = now.next();
        if nic.is_quiescent() {
            break;
        }
    }
    let json = tracer.chrome_json().unwrap();
    trace::json::validate(&json).unwrap();
    // The acceptance criterion: one trace containing router, engine,
    // scheduler, and RMT events, plus the NIC boundary.
    // (The tiny program has no table entries, so every stage lookup
    // takes the default action: a miss.)
    for needle in [
        "noc.hop",
        "engine.service",
        "sched.push",
        "rmt.miss",
        "rmt.pipeline",
        "nic.rx_frame",
        "nic.tx_wire",
    ] {
        assert!(json.contains(needle), "trace missing {needle}:\n{json}");
    }

    let mut m = MetricsRegistry::new();
    nic.export_metrics(&mut m);
    assert_eq!(m.counter("nic.rx_frames"), Some(5));
    assert_eq!(m.counter("nic.tx_wire"), Some(5));
    assert!(m.counter("noc.flit_hops").unwrap() > 0);
    assert!(m.counter("rmt.accepted").unwrap() > 0);
    assert_eq!(m.histogram("nic.latency.normal").unwrap().count(), 5);
    assert!(m.histogram("engine.1.off.service").is_some());
    trace::json::validate(&m.to_json()).unwrap();
}

#[test]
#[should_panic(expected = "without a program")]
fn build_without_program_panics() {
    let mut b = PanicNic::builder(NicConfig::small());
    let _ = b.rmt_portal();
    let _ = b.build();
}

#[test]
#[should_panic(expected = "at least one RMT portal")]
fn build_without_portal_panics() {
    let mut b = PanicNic::builder(NicConfig::small());
    b.program(
        ProgramBuilder::new("p", ParseGraph::standard(6379))
            .stage(Table::new(
                "t",
                MatchKind::Exact(vec![packet::phv::Field::EthType]),
                Action::noop(),
            ))
            .build(),
    );
    let _ = b.build();
}

#[test]
fn builder_spec_reflects_configuration() {
    let (b, _, _, _) = tiny_builder();
    let spec = b.to_spec();
    // Two engines + one portal.
    assert_eq!(spec.engines.len(), 3);
    assert_eq!(spec.ports, 1, "one MAC engine counted as a port");
    assert_eq!(
        spec.line_rate,
        sim_core::time::Bandwidth::gbps(100),
        "line rate lifted from the MAC"
    );
    assert!(spec.engines.iter().any(panic_verify::EngineSpec::is_portal));
    assert!(spec.program.is_some());
    let report = b.validate();
    assert_eq!(report.error_count(), 0, "{}", report.render_human());
}

/// A builder whose program pushes a hop to an engine id that does
/// not exist on the mesh (PV001).
fn ghost_hop_builder() -> NicBuilder {
    let mut b = PanicNic::builder(NicConfig::small());
    let _eth = b.engine(
        Box::new(NullOffload::new(
            "eth",
            EngineClass::EthernetPort,
            Cycles(1),
        )),
        TileConfig::default(),
    );
    let _ = b.rmt_portal();
    b.program(
        ProgramBuilder::new("bad", ParseGraph::standard(6379))
            .stage(Table::new(
                "t",
                MatchKind::Exact(vec![packet::phv::Field::EthType]),
                Action::named(
                    "to-nowhere",
                    vec![Primitive::PushHop {
                        engine: EngineId(99),
                        slack: SlackExpr::Const(10),
                    }],
                ),
            ))
            .build(),
    );
    b
}

#[test]
#[should_panic(expected = "failed verification")]
fn build_rejects_chain_to_unknown_engine() {
    // PV001: the program pushes a hop to an engine id that does not
    // exist on the mesh. The runtime would only discover this when
    // a message tried to route there; the verifier refuses upfront.
    let _ = ghost_hop_builder().build();
}

#[test]
fn build_unvalidated_skips_the_linter() {
    // The same broken program as above constructs fine through the
    // escape hatch (messages routed to the ghost engine would be
    // dropped as unrouted at runtime).
    let b = ghost_hop_builder();
    let report = b.validate();
    assert!(report.error_count() > 0, "PV001 expected");
    let _nic = b.build_unvalidated();
}

/// A NIC with two offloads of the same class named `names`, the
/// program chaining through the first, plus an armed watchdog.
pub(super) fn offload_pair_nic(
    names: [&'static str; 2],
    watchdog: WatchdogConfig,
) -> (PanicNic, EngineId, EngineId, EngineId) {
    let mut b = PanicNic::builder(mesh3_config());
    let eth = add_mac(&mut b);
    let [off0, off1] = names.map(|name| {
        b.engine(
            Box::new(NullOffload::new(name, EngineClass::Asic, Cycles(2))),
            TileConfig::default(),
        )
    });
    let _portal = b.rmt_portal();
    b.program(two_hop_program("pair", off0, eth));
    b.watchdog(watchdog);
    (b.build(), eth, off0, off1)
}

/// Two replica offloads (`off0`, `off1` — same stem, same class): the
/// fault-plane acceptance scenario.
fn replicated_nic(watchdog: WatchdogConfig) -> (PanicNic, EngineId, EngineId, EngineId) {
    offload_pair_nic(["off0", "off1"], watchdog)
}

pub(super) fn chaos_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        deadline: sim_core::time::Cycles(256),
        max_retries: 4,
        engine_timeout: sim_core::time::Cycles(64),
        down_after: 2,
        check_interval: sim_core::time::Cycles(16),
    }
}

/// Drives `nic` while feeding `n` frames one per `gap` cycles,
/// returning the cycle after everything drained.
fn feed_and_drain(nic: &mut PanicNic, eth: EngineId, n: u64, gap: u64) -> Cycle {
    let mut f = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    let mut sent = 0u64;
    for _ in 0..100_000u64 {
        if sent < n && now.0.is_multiple_of(gap) {
            nic.rx_frame(
                eth,
                f.min_frame(sent as u16, 80),
                TenantId(1),
                Priority::Normal,
                now,
            );
            sent += 1;
        }
        nic.tick(now);
        now = now.next();
        if sent == n && nic.is_quiescent() && nic.faults_settled() {
            return now;
        }
    }
    panic!(
        "NIC failed to drain under faults: {:?}\n{}",
        nic.stats(),
        nic.conservation()
    );
}

#[test]
#[should_panic(expected = "16 ejection drops at tile 1, but its ejection buffer holds 16 credits")]
fn a_plan_that_would_drain_a_tiles_ejection_credits_is_refused() {
    let (mut nic, _, _, _) = replicated_nic(chaos_watchdog());
    let drops: Vec<String> = (0..16).map(|k| format!("drop:1@{}", 100 + k)).collect();
    nic.enable_faults(faults::FaultPlan::parse(&drops.join(",")).unwrap());
}

#[test]
fn crash_watchdog_failover_to_replica_conserves() {
    let (mut nic, eth, off0, off1) = replicated_nic(chaos_watchdog());
    nic.enable_faults(faults::FaultPlan::parse("crash:1@100").unwrap());
    assert_eq!(off0, EngineId(1), "plan targets off0");
    feed_and_drain(&mut nic, eth, 40, 25);

    // The watchdog detected the crash and isolated off0.
    assert_eq!(nic.downed_engines(), &[off0]);
    assert_eq!(nic.stats().time_to_failover.count(), 1);
    // Lost descriptors were re-issued and completed via the
    // replica: both offloads did real work.
    assert!(nic.conservation().reissued > 0, "{}", nic.conservation());
    assert!(nic.tile(off1).unwrap().stats().processed > 0);
    assert!(nic.tile(off0).unwrap().stats().processed > 0);
    assert_eq!(nic.stats().failed, 0, "replica recovered everything");
    assert!(
        nic.stats().recovery.count() > 0,
        "recovery latency measured"
    );
    // Copy-level conservation closes despite the crash.
    let c = nic.conservation();
    assert!(c.holds(), "{c}");
    assert!(c.flushed > 0, "DOWN-flush destroyed stranded copies:\n{c}");
    // Every descriptor reached the wire exactly once.
    assert_eq!(nic.stats().tx_wire + nic.conservation().host_fallback, 40);

    // Fault-plane metrics are present (and only because the fault
    // plane is engaged).
    let mut m = MetricsRegistry::new();
    nic.export_metrics(&mut m);
    assert_eq!(m.counter("nic.reissued"), Some(nic.conservation().reissued));
    assert_eq!(m.counter("nic.downed_engines"), Some(1));
    assert!(m.histogram("nic.time_to_failover").is_some());
}

#[test]
fn crash_without_replica_degrades_to_host_fallback() {
    // Same scenario but the replica is a *different* offload type:
    // failover cannot re-route, so traffic falls back to the host.
    // (PV401 warns about the missing replica, but warnings don't block
    // the build.)
    let (mut nic, eth, off0, off1) = offload_pair_nic(["crc", "aes"], chaos_watchdog());
    nic.enable_faults(faults::FaultPlan::parse("crash:1@100").unwrap());
    feed_and_drain(&mut nic, eth, 30, 25);

    assert_eq!(nic.downed_engines(), &[off0]);
    assert!(
        nic.conservation().host_fallback > 0,
        "{}",
        nic.conservation()
    );
    assert_eq!(
        nic.tile(off1).unwrap().stats().processed,
        0,
        "different offload type must not be used as a replica"
    );
    let c = nic.conservation();
    assert!(c.holds(), "{c}");
    assert_eq!(nic.stats().tx_wire + nic.conservation().host_fallback, 30);
}

#[test]
fn fault_plan_runs_are_deterministic() {
    let run = || {
        let (mut nic, eth, _, _) = replicated_nic(chaos_watchdog());
        let plan = faults::FaultPlan::generate(
            0xC0FFEE,
            &faults::FaultUniverse::new(vec![EngineId(1), EngineId(2)], Cycle(600)),
            6,
        );
        nic.enable_faults(plan);
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        let mut log = Vec::new();
        for i in 0..40u64 {
            nic.rx_frame(
                eth,
                f.min_frame(i as u16, 80),
                TenantId(1),
                Priority::Normal,
                now,
            );
            for _ in 0..25 {
                nic.tick(now);
                now = now.next();
            }
        }
        for _ in 0..30_000u64 {
            nic.tick(now);
            now = now.next();
            for m in nic.take_wire_tx() {
                log.push((now.0, m.id.0));
            }
            if nic.is_quiescent() && nic.faults_settled() {
                break;
            }
        }
        let c = nic.conservation();
        assert!(c.holds(), "{c}");
        (log, format!("{c}"))
    };
    assert_eq!(run(), run(), "same fault seed, same run");
}

#[test]
fn stall_fault_recovers_without_failover() {
    // A transient stall shorter than the engine-health timeout:
    // the watchdog may re-issue, but the engine must NOT be
    // isolated (64-cycle timeout, 48-cycle stall).
    let (mut nic, eth, off0, _) = replicated_nic(chaos_watchdog());
    nic.enable_faults(faults::FaultPlan::parse("stall:1@100+48").unwrap());
    feed_and_drain(&mut nic, eth, 30, 25);
    assert!(nic.downed_engines().is_empty(), "transient stall, no DOWN");
    assert!(!nic.tile(off0).unwrap().is_down());
    let c = nic.conservation();
    assert!(c.holds(), "{c}");
    assert_eq!(nic.stats().tx_wire, 30, "everything still delivered");
}

/// `tiny_nic` under the chaos watchdog and `plan`, a frame sent at each
/// of `frames`, run to `end`: the engines DOWN and descriptors re-issued.
fn faulted_after_idle(plan: &str, frames: &[u64], end: u64, how: Advance) -> (Vec<EngineId>, u64) {
    let (mut b, eth, _, _) = tiny_builder();
    b.watchdog(chaos_watchdog());
    let mut nic = b.build();
    nic.enable_faults(faults::FaultPlan::parse(plan).unwrap());
    let (mut f, mut now) = (FrameFactory::for_nic_port(0), Cycle(0));
    for &at in frames {
        now = drive(&mut nic, now, at - now.0, how).0;
        nic.rx_frame(eth, f.min_frame(1, 80), TenantId(1), Priority::Normal, now);
    }
    drive(&mut nic, now, end - now.0, how);
    (nic.downed_engines().to_vec(), nic.conservation().reissued)
}

#[test]
fn progress_clock_starts_when_work_or_a_freeze_reaches_a_workless_tile() {
    // Frozen at 1,000 after idling, the tile's clock reads 999 (64-cycle
    // timeout, a check every 16 cycles, DOWN on strike two): a 62-cycle
    // stall stays healthy with the frame landing at 1,025, a crash goes
    // DOWN at 1,088. A stall from the first one's end keeps 999 for the
    // frame landing at ~1,065; arrivals at a busy tile do not move it.
    let arrivals: Vec<u64> = (1000..1200).step_by(20).collect();
    let down = &[EngineId(1)][..];
    let cases: [(&str, &[u64], u64, &[EngineId]); 5] = [
        ("stall:1@1000+62", &[1000], 2000, &[]),
        ("crash:1@1000", &[1000], 1088, &[]),
        ("crash:1@1000", &[1000], 1089, down),
        ("stall:1@1000+50,stall:1@1050+50", &[1040], 1089, down),
        ("degrade:1@1000x100", &arrivals, 1200, down),
    ];
    for how in [Advance::Stepped, Advance::Merged] {
        for (plan, frames, end, downed) in cases {
            let got = faulted_after_idle(plan, frames, end, how);
            assert_eq!(got, (downed.to_vec(), 0), "{plan} to {end}, {how:?}");
        }
    }
}

#[test]
fn explicit_placement_is_respected() {
    let mut b = PanicNic::builder(NicConfig::small());
    let e = b.engine_at(
        Coord::new(5, 5),
        Box::new(NullOffload::new("x", EngineClass::Asic, Cycles(1))),
        TileConfig::default(),
    );
    let _p = b.rmt_portal_at(Coord::new(0, 0));
    b.program(
        ProgramBuilder::new("p", ParseGraph::standard(6379))
            .stage(Table::new(
                "t",
                MatchKind::Exact(vec![packet::phv::Field::EthType]),
                Action::noop(),
            ))
            .build(),
    );
    let nic = b.build();
    assert_eq!(nic.network().coord_of(e), Coord::new(5, 5));
}

#[test]
fn unrouted_pipeline_output_is_counted() {
    // Program with a noop action: no chain -> unrouted.
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(2, 2),
        width_bits: 64,
        router: RouterConfig::default(),
        pipeline: PipelineConfig {
            parallel: 1,
            depth: 3,
            freq: sim_core::time::Freq::mhz(500),
        },
        pcie_flush_interval: 0,
    });
    let eth = b.engine(
        Box::new(NullOffload::new(
            "eth",
            EngineClass::EthernetPort,
            Cycles(1),
        )),
        TileConfig::default(),
    );
    let _ = b.rmt_portal();
    b.program(
        ProgramBuilder::new("noop", ParseGraph::standard(6379))
            .stage(Table::new(
                "t",
                MatchKind::Exact(vec![packet::phv::Field::EthType]),
                Action::noop(),
            ))
            .build(),
    );
    let mut nic = b.build();
    let mut f = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    nic.rx_frame(eth, f.min_frame(0, 80), TenantId(0), Priority::Normal, now);
    for _ in 0..200 {
        nic.tick(now);
        now = now.next();
    }
    assert_eq!(nic.conservation().unrouted, 1);
}

// ---- tenancy plane ---------------------------------------------

/// Two-tenant config over the tiny NIC: "alpha" (weight 3) and
/// "beta" (weight 1), both credit-bounded.
pub(super) fn two_tenant_config() -> tenancy::TenancyConfig {
    tenancy::TenancyConfig::new(vec![
        tenancy::VNicSpec::new(TenantId(1), "alpha", 3).credit_quota(8),
        tenancy::VNicSpec::new(TenantId(2), "beta", 1).credit_quota(8),
    ])
}

#[test]
fn tenanted_frames_flow_and_conservation_closes() {
    let (mut b, eth, _, _) = tiny_builder();
    b.tenancy(two_tenant_config());
    let mut nic = b.build();
    let mut f = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    for i in 0..10u16 {
        let t = TenantId(1 + u16::from(i.is_multiple_of(2)));
        nic.rx_frame(eth, f.min_frame(i, 80), t, Priority::Normal, now);
    }
    let mut tx = 0;
    for _ in 0..20_000 {
        nic.tick(now);
        now = now.next();
        tx += nic.take_wire_tx().len();
        if tx == 10 && nic.is_quiescent() {
            break;
        }
    }
    assert_eq!(tx, 10, "all tenanted frames transmitted");
    assert!(nic.is_quiescent());
    for t in [TenantId(1), TenantId(2)] {
        let c = nic.tenant_conservation(t).expect("configured tenant");
        assert!(c.holds(), "tenant {t:?} conservation violated: {c}");
        assert_eq!(c.tx_wire, 5);
        assert_eq!(c.pending, 0);
        let lat = nic.tenancy().unwrap().latency(t).unwrap();
        assert_eq!(lat.count(), 5);
    }
    // Credits fully returned.
    assert_eq!(nic.tenancy().unwrap().shared_in_use(), 0);
}

/// A program that drops every frame: each `Drop` verdict is a pipeline
/// loss the store charges to the frame's tenant, so the vNIC gets the
/// credit back at its next step and drains instead of wedging once its
/// quota is in the pipeline's bin, stepped or fast-forwarded.
#[test]
fn a_drop_verdict_returns_its_tenants_credit() {
    for ff in [false, true] {
        let (mut b, eth, _, _) = tiny_builder();
        let table = Table::new(
            "drop",
            MatchKind::Exact(vec![packet::phv::Field::EthType]),
            Action::drop_msg(),
        );
        b.program(
            ProgramBuilder::new("drop-all", ParseGraph::standard(6379))
                .stage(table)
                .build(),
        );
        b.tenancy(two_tenant_config()); // tenant 1 ("alpha"): quota 8
        let mut nic = b.build();
        let mut f = FrameFactory::for_nic_port(0);
        for i in 0..20u16 {
            nic.rx_frame(
                eth,
                f.min_frame(i, 80),
                TenantId(1),
                Priority::Normal,
                Cycle(0),
            );
        }
        let _ = if ff {
            nic.run_ff(Cycle(0), 20_000).0
        } else {
            nic.run(Cycle(0), 20_000)
        };

        let (c, tn) = (nic.conservation(), nic.tenancy().unwrap());
        assert!(
            nic.is_quiescent(),
            "ff {ff}: {} frames still pending\n{c}",
            tn.pending_total()
        );
        assert_eq!(tn.shared_in_use(), 0, "ff {ff}");
        assert!(c.holds() && c.live == 0, "{c}");
        let tc = nic.tenant_conservation(TenantId(1)).unwrap();
        assert!(tc.holds(), "{tc}");
        assert_eq!(tc.pipeline_drops, 20, "{tc}");
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m);
        assert_eq!(m.counter("tenancy.alpha.implicit_exits"), Some(20));
        assert_eq!(m.counter("rmt.dropped"), Some(c.pipeline_drops));
        // The two wire counters `NicStats` keeps are the store's.
        let s = nic.stats();
        assert_eq!((s.rx_frames, s.tx_wire), (c.rx_frames, c.tx_wire));
    }
}

#[test]
fn unknown_tenant_bypasses_tenancy_plane() {
    let (mut b, eth, _, _) = tiny_builder();
    b.tenancy(two_tenant_config());
    let mut nic = b.build();
    let mut f = FrameFactory::for_nic_port(0);
    // TenantId(9) has no vNIC: it takes the direct path.
    nic.rx_frame(
        eth,
        f.min_frame(1, 80),
        TenantId(9),
        Priority::Normal,
        Cycle(0),
    );
    assert_eq!(nic.tenancy().unwrap().pending_total(), 0);
    let mut now = Cycle(0);
    let mut tx = 0;
    for _ in 0..500 {
        nic.tick(now);
        now = now.next();
        tx += nic.take_wire_tx().len();
    }
    assert_eq!(tx, 1);
    assert!(nic.tenant_conservation(TenantId(9)).is_none());
}

#[test]
fn tenancy_ff_matches_stepped_run() {
    // Rate-limited tenant (one release per 16 cycles) over a
    // gap-dominated run: fast-forward must replay token refills and
    // stall counts exactly, producing byte-identical metrics.
    let config = || {
        tenancy::TenancyConfig::new(vec![tenancy::VNicSpec::new(TenantId(1), "slow", 1)
            .rate(tenancy::RateSpec::one_per(16))
            .credit_quota(8)])
    };
    let run = |ff: bool| {
        let (mut b, eth, _, _) = tiny_builder();
        b.tenancy(config());
        let mut nic = b.build();
        let mut f = FrameFactory::for_nic_port(0);
        let mut now = Cycle(0);
        for i in 0..6u16 {
            nic.rx_frame(eth, f.min_frame(i, 80), TenantId(1), Priority::Normal, now);
        }
        if ff {
            let (n, _) = nic.run_ff(now, 3000);
            now = n;
        } else {
            now = nic.run(now, 3000);
        }
        assert_eq!(now, Cycle(3000));
        assert!(nic.is_quiescent(), "drained");
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m);
        (m.to_json(), nic.take_wire_tx().len())
    };
    let (m_s, tx_s) = run(false);
    let (m_f, tx_f) = run(true);
    assert_eq!(tx_s, tx_f);
    assert_eq!(m_s, m_f, "tenanted ff metrics must be byte-identical");
}

#[test]
fn untenanted_nic_has_no_tenancy_artifacts() {
    let (mut nic, eth, _, _) = tiny_nic();
    assert!(nic.tenancy().is_none());
    let mut f = FrameFactory::for_nic_port(0);
    nic.rx_frame(
        eth,
        f.min_frame(1, 80),
        TenantId(1),
        Priority::Normal,
        Cycle(0),
    );
    nic.run(Cycle(0), 500);
    let mut m = MetricsRegistry::new();
    nic.export_metrics(&mut m);
    assert!(
        !m.to_json().contains("tenancy."),
        "untenanted metrics must not mention tenancy"
    );
    assert!(nic.tenant_conservation(TenantId(1)).is_none());
}

// ---- implicit-exit reconciliation gate --------------------------

/// The ungated reconciliation: every tenant asked for its cumulative
/// count before the tick, whether or not any total moved. The tick's
/// own gated pass then has nothing left to find — unless the gate in
/// the twin NIC skipped a walk it owed.
fn tick_ungated(nic: &mut PanicNic, now: Cycle) {
    let mut tn = nic.tenancy.take().expect("tenanted NIC");
    for t in tn.tenants().collect::<Vec<_>>() {
        tn.sync_implicit(t, nic.store.losses_of(t));
    }
    nic.tenancy = Some(tn);
    nic.tick(now);
}

#[test]
fn implicit_exit_gate_matches_the_ungated_reconciliation() {
    // Offloads with a two-slot tail-drop queue and slow service, so
    // bursts overflow (scheduler drops); `drop:` destroys messages at
    // off0's NoC ejection port; `crash:` gets off0 flushed and its
    // traffic failed over to the replica.
    let build = || {
        let mut b = PanicNic::builder(mesh3_config());
        let eth = add_mac(&mut b);
        let tiny_queue = TileConfig {
            queue_capacity: 2,
            ..TileConfig::default()
        };
        let [off0, _] = ["off0", "off1"].map(|name| {
            b.engine(
                Box::new(NullOffload::new(name, EngineClass::Asic, Cycles(12))),
                tiny_queue,
            )
        });
        let _ = b.rmt_portal();
        b.program(two_hop_program("gate", off0, eth));
        b.watchdog(chaos_watchdog());
        b.tenancy(two_tenant_config().shared_credits(12));
        let mut nic = b.build();
        nic.enable_faults(faults::FaultPlan::parse("drop:1@300,drop:1@310").unwrap());
        (nic, eth)
    };
    let (mut gated, eth) = build();
    let (mut ungated, _) = build();
    let ids = [TenantId(1), TenantId(2), TenantId(9)];
    let books = |nic: &PanicNic| {
        let tn = nic.tenancy().unwrap();
        let mut m = MetricsRegistry::new();
        tn.export_metrics(&mut m); // ledgers, pending, credits_in_use
        (tn.shared_in_use(), m.to_json())
    };

    let mut f = FrameFactory::for_nic_port(0);
    let mut now = Cycle(0);
    // The script clock: stands still at 400 while the NIC drains.
    let mut t = 0u64;
    let mut sent = 0u16;
    let (mut baseline, mut removed) = (None, false);
    loop {
        // Tenant 9 has no vNIC at first — its drops are nobody's
        // credits — and gets one live, once a pause has drained every
        // copy it sent without one. The second half of the fault plan
        // is armed from there.
        if t == 400 && baseline.is_none() && gated.is_quiescent() && gated.faults_settled() {
            let late = tenancy::VNicSpec::new(TenantId(9), "late", 2).credit_quota(4);
            let plan = format!("drop:1@{},crash:1@{}", now.0 + 100, now.0 + 400);
            for nic in [&mut gated, &mut ungated] {
                baseline = Some(nic.store.losses_of(TenantId(9)));
                assert!(nic.ctrl_add_vnic(late.clone()));
                nic.enable_faults(faults::FaultPlan::parse(&plan).unwrap());
            }
            assert!(baseline > Some(0), "nothing for the baseline to shield");
        }
        let running = t != 400 || baseline.is_some();
        // Bursts of four every 40 cycles, tenants in rotation; tenant 2
        // stops sending at 1000 and is removed at 1400.
        if running && t < 2000 && t.is_multiple_of(40) {
            for _ in 0..4 {
                let tenant = ids[usize::from(sent) % 3];
                sent += 1;
                if tenant == TenantId(2) && t >= 1000 {
                    continue;
                }
                let frame = f.min_frame(sent, 80);
                for nic in [&mut gated, &mut ungated] {
                    nic.rx_frame(eth, frame.clone(), tenant, Priority::Normal, now);
                }
            }
        }
        for nic in [&mut gated, &mut ungated] {
            let tn = nic.tenancy_mut().unwrap();
            if running && t == 1400 {
                assert!(tn.begin_remove(TenantId(2)));
            }
            if tn.removal_drained(TenantId(2)) {
                let c = nic.tenant_conservation(TenantId(2)).unwrap();
                assert!(c.holds(), "{c}");
                assert!(nic.tenancy_mut().unwrap().finalize_remove(TenantId(2)));
            }
        }
        gated.tick(now);
        tick_ungated(&mut ungated, now);
        assert_eq!(books(&gated), books(&ungated), "cycle {}", now.0);
        removed |= !gated.tenancy().unwrap().knows(TenantId(2));
        t += u64::from(running);
        now = now.next();
        if t > 2000 && gated.is_quiescent() && gated.faults_settled() {
            break;
        }
        assert!(
            now.0 < 100_000,
            "failed to drain:\n{}",
            gated.conservation()
        );
    }
    assert!(removed, "tenant 2's removal drained and finalized");

    // All three implicit-exit kinds happened; each plane's own scalar
    // counts what the store charged to its kind, and the total the gate
    // watches is the sum of the per-tenant counts the walk reads.
    let (mut drops, mut flushes) = (0, 0);
    for (_, tile) in gated.engine_tiles() {
        drops += tile.drops();
        flushes += tile.stats().flushed;
    }
    let lost = gated.network().lost_messages();
    let c = gated.conservation();
    assert_eq!(
        (c.sched_drops, c.flushed, c.lost_noc),
        (drops, flushes, lost)
    );
    assert!(drops > 0 && flushes > 0 && lost > 0, "{c}");
    assert_eq!(
        gated.store.losses(),
        ids.iter().map(|&t| gated.store.losses_of(t)).sum::<u64>()
    );

    let c = gated.tenant_conservation(TenantId(1)).unwrap();
    assert!(c.holds(), "{c}");
    assert!(c.sched_drops > 0 && c.flushed > 0 && c.lost_noc > 0, "{c}");
    // Tenant 9's books open at its baseline: the copies its id lost
    // before the vNIC existed are in the store's losses only.
    let c = gated.tenant_conservation(TenantId(9)).unwrap();
    assert_eq!(c.sources() + baseline.unwrap(), c.sinks(), "{c}");
    assert_eq!(gated.tenancy().unwrap().shared_in_use(), 0);
}
