//! Fast-forward ≡ stepped execution (cross-crate, hence workspace
//! root; see `docs/PERF.md` for the contract).
//!
//! Quiescence fast-forward is only admissible because it is
//! *invisible*: it must be byte-identical to the stepped run in every
//! observable — Chrome traces (timestamps included), exported metrics,
//! reports, conservation accounting, and RNG-dependent outcomes. These
//! tests hold that line. The chain, KVS and ring tests also run the
//! event switches `benchmark/` still flips (`set_event_driven(true)`,
//! `Fabric::run_event`), which must be fast-forward under another
//! name: same bytes, same skip count.
//!
//! 1. **Chain scenario** (proptest): random chain lengths, offered
//!    loads, port counts, and seeds — identical traces, metrics, and
//!    reports, with a nonzero skip count on gap-dominated points.
//! 2. **KVS scenario** (golden): the §3.2 end-to-end workload with
//!    crypto, caches, DMA, and host events — identical traces and
//!    metrics.
//! 3. **Fault plane** (proptest + golden): a seeded [`FaultPlan`]
//!    injecting crashes/stalls/degradations while a fast-forward
//!    driver jumps idle gaps — identical traces, conservation
//!    reports, and headline counters for every seed.
//! 4. **Tenancy plane** (proptest + golden): two rate-limited vNICs
//!    whose token buckets refill across skipped windows — identical
//!    traces, exported metrics (including `tenancy.*` ledgers and
//!    stall counters), and per-tenant conservation reports.
//! 5. **Fabric ring** (proptest): a 2–4-NIC ring with cross-NIC
//!    chains, run stepped and fast-forwarded — identical metrics and
//!    conservation. It is untraced, so its meshes glide.
//! 6. **Untraced chain, KVS and ring member** (golden): a tracer stops
//!    the mesh from gliding, so arms 1 and 2 never glide; `chain_gap`'s
//!    shape, `kvs_mixed`'s three tenants and a `rack_ring4` member's NIC
//!    run without one — identical metrics, reports and conservation,
//!    and the fast-forwarded run glided, like the ring's.
//! 7. **Sliced fast-forward** (proptest): the untraced chain-gap NIC,
//!    `kvs_mixed`'s and the ring member's NIC fast-forwarded in seeded
//!    random slices of 1–300 cycles, each slice a `drive` re-entry whose
//!    first step is forced even while the mesh glides — identical
//!    metrics, reports and conservation to one long fast-forwarded run
//!    (which arm 6 holds equal to the stepped run), and the sliced run
//!    skipped and its mesh glided.

use std::sync::OnceLock;

use engines::engine::NullOffload;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use faults::{FaultPlan, FaultUniverse, WatchdogConfig};
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::{EngineClass, EngineId};
use packet::message::{Priority, TenantId};
use packet::phv::Field;
use panic_core::nic::{NicConfig, PanicNic};
use panic_core::scenarios::{ChainScenario, ChainScenarioConfig, KvsScenario, KvsScenarioConfig};
use proptest::prelude::*;
use rmt::action::{Action, Primitive, SlackExpr};
use rmt::parse::ParseGraph;
use rmt::pipeline::PipelineConfig;
use rmt::program::ProgramBuilder;
use rmt::table::{MatchKind, Table};
use sim_core::clock::{drive, Advance, Driven};
use sim_core::time::{Bandwidth, Cycle, Cycles, Freq};
use workloads::frames::FrameFactory;

/// The two clock-advance strategies under test. Both must be
/// observably indistinguishable.
type Mode = Advance;
use Advance::{Merged as Ff, Stepped};

// ---------------------------------------------------------------------------
// Chain scenario
// ---------------------------------------------------------------------------

/// Runs `config` with its run mode selected by `set_mode` and returns
/// every observable: the Chrome trace, the exported metrics JSON, the
/// report (debug-formatted — every field), and the skip count.
fn chain_artifacts(
    config: &ChainScenarioConfig,
    set_mode: fn(&mut ChainScenario),
) -> (String, String, String, u64) {
    let tracer = trace::Tracer::chrome();
    let mut s = ChainScenario::new(config.clone());
    s.attach_tracer(&tracer);
    set_mode(&mut s);
    s.run(4_000);
    s.drain(4_000);
    let mut m = trace::MetricsRegistry::new();
    s.export_metrics(&mut m);
    (
        tracer.chrome_json().expect("chrome tracer renders JSON"),
        m.to_json(),
        format!("{:?}", s.report()),
        s.cycles_skipped(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any chain configuration produces byte-identical traces,
    /// metrics, and reports stepped and fast-forwarded — and the event
    /// switch is fast-forward, skip count included.
    #[test]
    fn chain_fastforward_is_byte_identical(
        chain_len in 0usize..=3,
        load_idx in 0usize..3,
        ports in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let offered_fraction = [0.01, 0.05, 0.2][load_idx];
        let config = ChainScenarioConfig {
            chain_len,
            offered_fraction,
            ports,
            seed,
            ..ChainScenarioConfig::default()
        };
        let stepped = chain_artifacts(&config, |s| s.set_fastforward(false));
        let ff = chain_artifacts(&config, |s| s.set_fastforward(true));
        let (trace_s, metrics_s, report_s, skipped_s) = &stepped;
        let (trace_f, metrics_f, report_f, skipped_f) = &ff;
        prop_assert_eq!(*skipped_s, 0, "stepped runs never skip");
        prop_assert_eq!(report_s, report_f);
        prop_assert_eq!(metrics_s, metrics_f);
        prop_assert_eq!(trace_s, trace_f, "Chrome traces must be byte-identical");
        // Gap-dominated points must actually skip something, or the
        // fast path has silently regressed into a stepped loop.
        if offered_fraction <= 0.01 {
            prop_assert!(*skipped_f > 500, "ff only skipped {skipped_f} cycles");
        }
        // What `benchmark/src/rigs/chain.rs` runs as its `Event` mode.
        prop_assert_eq!(&chain_artifacts(&config, |s| s.set_event_driven(true)), &ff);
    }
}

// ---------------------------------------------------------------------------
// KVS scenario
// ---------------------------------------------------------------------------

/// Runs the KVS workload with its run mode selected by `set_mode` and
/// returns (trace, metrics, report, skipped).
fn kvs_artifacts(set_mode: fn(&mut KvsScenario)) -> (String, String, String, u64) {
    let mut config = KvsScenarioConfig::two_tenant_default();
    config.keys_per_tenant = 60;
    config.cached_hot_keys = 12;
    let tracer = trace::Tracer::chrome();
    let mut s = KvsScenario::new(config);
    s.attach_tracer(&tracer);
    set_mode(&mut s);
    s.run(20_000);
    let mut m = trace::MetricsRegistry::new();
    s.export_metrics(&mut m);
    (
        tracer.chrome_json().expect("chrome tracer renders JSON"),
        m.to_json(),
        format!("{:?}", s.report()),
        s.cycles_skipped(),
    )
}

/// The full §3.2 workload — IPSec passes, cache hits and misses, DMA
/// contention, host events — replays byte-identically under
/// fast-forward, and the periodic tenants leave real gaps to skip.
#[test]
fn kvs_fastforward_is_byte_identical() {
    let (trace_s, metrics_s, report_s, _) = kvs_artifacts(|s| s.set_fastforward(false));
    let ff = kvs_artifacts(|s| s.set_fastforward(true));
    let (trace_f, metrics_f, report_f, skipped) = &ff;
    assert_eq!(&report_s, report_f);
    assert_eq!(&metrics_s, metrics_f);
    assert_eq!(&trace_s, trace_f, "Chrome traces must be byte-identical");
    assert!(*skipped > 1_000, "only skipped {skipped} cycles");
    // What `benchmark/src/rigs/kvs.rs` runs as its `Event` mode.
    assert_eq!(kvs_artifacts(|s| s.set_event_driven(true)), ff);
}

// ---------------------------------------------------------------------------
// Fault plane
// ---------------------------------------------------------------------------

/// A replicated-offload NIC with an armed watchdog, the configuration
/// the chaos tests exercise: `eth0 -> off0 -> eth0` with `off1` as the
/// same-stem failover replica.
fn watchdog_nic() -> (PanicNic, EngineId) {
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
        ProgramBuilder::new("ff-fault-equiv", ParseGraph::standard(6379))
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
        backoff: 2,
        engine_timeout: Cycles(64),
        down_after: 2,
        check_interval: Cycles(16),
    });
    (b.build(), eth)
}

const FRAMES: u64 = 40;
/// Sparse enough that fast-forward has gaps to jump, even with the
/// watchdog polling every 16 cycles while work is tracked.
const GAP: u64 = 400;
const BOUND: u64 = FRAMES * GAP + 200_000;

fn fault_universe() -> FaultUniverse {
    FaultUniverse::new(vec![EngineId(1), EngineId(2)], Cycle(FRAMES * GAP * 3 / 4))
}

/// The NIC plus a periodic injector — one frame every [`GAP`] cycles,
/// [`FRAMES`] in total, rotating over tenant ids `1..=tenants` — as
/// one [`Driven`] component. The injection schedule is deterministic,
/// so it is posted as a wake source exactly like the scenarios post
/// their arrival processes.
struct Injected<'a> {
    nic: &'a mut PanicNic,
    eth: EngineId,
    factory: FrameFactory,
    sent: u64,
    tenants: u64,
    /// What "drained" means for this run, once every frame is sent.
    quiet: fn(&PanicNic) -> bool,
}

impl Driven for Injected<'_> {
    fn step(&mut self, now: Cycle) {
        if self.sent < FRAMES && now.0.is_multiple_of(GAP) {
            self.nic.rx_frame(
                self.eth,
                self.factory.min_frame(self.sent as u16, 80),
                TenantId(1 + (self.sent % self.tenants) as u16),
                Priority::Normal,
                now,
            );
            self.sent += 1;
        }
        self.nic.tick(now);
    }

    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) {
        if let Some(h) = self.nic.next_activity(now) {
            post(h);
        }
        // Next injection: the smallest multiple of GAP >= now + 1.
        if self.sent < FRAMES {
            post(Cycle((now.0 / GAP + 1) * GAP));
        }
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.nic.skip_idle(from, to);
    }

    fn done(&self) -> bool {
        self.sent == FRAMES && (self.quiet)(self.nic)
    }
}

/// Drives `nic` under the injector until `quiet`, stepping every
/// cycle or jumping provably idle gaps, per `mode`. Returns the cycles
/// skipped.
fn drive_injected(
    nic: &mut PanicNic,
    eth: EngineId,
    tenants: u64,
    quiet: fn(&PanicNic) -> bool,
    mode: Mode,
) -> u64 {
    let mut d = Injected {
        nic,
        eth,
        factory: FrameFactory::for_nic_port(0),
        sent: 0,
        tenants,
        quiet,
    };
    let (_, skipped) = drive(&mut d, Cycle(0), BOUND, mode);
    assert!(
        d.done(),
        "did not drain within {BOUND} cycles:\n{}",
        d.nic.conservation()
    );
    skipped
}

/// One observed fault run: (Chrome trace, conservation report,
/// headline counters, cycles skipped).
fn fault_artifacts(seed: u64, intensity: u32, mode: Mode) -> (String, String, String, u64) {
    let plan = FaultPlan::generate(seed, &fault_universe(), intensity);
    let (mut nic, eth) = watchdog_nic();
    let tracer = trace::Tracer::chrome();
    nic.attach_tracer(&tracer);
    nic.enable_faults(plan);
    let settled = |nic: &PanicNic| nic.is_quiescent() && nic.faults_settled();
    let skipped = drive_injected(&mut nic, eth, 1, settled, mode);
    let s = nic.stats();
    let counters = format!(
        "tx={} fb={} re={} fail={} dup={} down={:?}",
        s.tx_wire,
        s.host_fallback,
        s.reissued,
        s.failed,
        s.duplicates,
        nic.downed_engines()
    );
    (
        tracer.chrome_json().expect("chrome tracer renders JSON"),
        nic.conservation().to_string(),
        counters,
        skipped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded chaos replays byte-identically under fast-forward:
    /// crashes, stalls, degradations, watchdog strikes, failover, and
    /// re-issues all land on the same cycles with the same outcomes.
    #[test]
    fn seeded_fault_plans_are_ff_equivalent(seed in any::<u64>(), intensity in 1u32..=8) {
        let (trace_s, cons_s, counters_s, _) = fault_artifacts(seed, intensity, Stepped);
        let (trace_f, cons_f, counters_f, _) = fault_artifacts(seed, intensity, Ff);
        prop_assert_eq!(&counters_s, &counters_f);
        prop_assert_eq!(&cons_s, &cons_f);
        prop_assert_eq!(&trace_s, &trace_f, "Chrome traces must be byte-identical");
    }
}

/// Golden fixed-seed run, independent of proptest shrinking: the fault
/// plane replays exactly *and* fast-forward actually skips cycles
/// while the watchdog is armed.
#[test]
fn fault_plan_golden_seed_skips_and_matches() {
    let (trace_s, cons_s, counters_s, skipped_s) = fault_artifacts(0x00C0_FFEE, 8, Stepped);
    let (trace_f, cons_f, counters_f, skipped_f) = fault_artifacts(0x00C0_FFEE, 8, Ff);
    assert_eq!(skipped_s, 0, "stepped runs never skip");
    assert_eq!(counters_s, counters_f);
    assert_eq!(cons_s, cons_f);
    assert_eq!(trace_s, trace_f);
    assert!(skipped_f > 1_000, "ff only skipped {skipped_f} cycles");
}

// ---------------------------------------------------------------------------
// Tenancy plane
// ---------------------------------------------------------------------------

/// The watchdog NIC with the tenancy plane engaged: a shaped tenant
/// whose token bucket must refill *across* skipped windows, plus an
/// unshaped competitor — the configuration most likely to betray a
/// `skip_idle` bookkeeping bug.
fn tenanted_watchdog_nic(shaped_gap: u64) -> (PanicNic, EngineId) {
    use tenancy::{RateSpec, TenancyConfig, VNicSpec};
    let (mut b, eth) = {
        // Same topology/program/watchdog as `watchdog_nic`, rebuilt
        // here because the builder is consumed by `build()`.
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
            ProgramBuilder::new("ff-tenancy-equiv", ParseGraph::standard(6379))
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
            backoff: 2,
            engine_timeout: Cycles(64),
            down_after: 2,
            check_interval: Cycles(16),
        });
        (b, eth)
    };
    b.tenancy(TenancyConfig::new(vec![
        VNicSpec::new(TenantId(1), "unshaped", 3).credit_quota(12),
        VNicSpec::new(TenantId(2), "shaped", 1)
            .credit_quota(4)
            .rate(RateSpec::one_per(shaped_gap)),
    ]));
    (b.build(), eth)
}

/// One observed tenancy run: (Chrome trace, exported metrics JSON,
/// per-tenant conservation reports, cycles skipped). Frames alternate
/// between the unshaped and the shaped tenant.
fn tenancy_artifacts(shaped_gap: u64, mode: Mode) -> (String, String, String, u64) {
    let (mut nic, eth) = tenanted_watchdog_nic(shaped_gap);
    let tracer = trace::Tracer::chrome();
    nic.attach_tracer(&tracer);
    let skipped = drive_injected(&mut nic, eth, 2, PanicNic::is_quiescent, mode);
    let mut m = trace::MetricsRegistry::new();
    nic.export_metrics(&mut m);
    let cons = format!(
        "{}\n{}",
        nic.tenant_conservation(TenantId(1)).unwrap(),
        nic.tenant_conservation(TenantId(2)).unwrap()
    );
    (
        tracer.chrome_json().expect("chrome tracer renders JSON"),
        m.to_json(),
        cons,
        skipped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any shaping gap replays byte-identically under fast-forward:
    /// token refills, DRR grants, rate-stall counters, and release
    /// cycles land exactly where the stepped run put them.
    #[test]
    fn tenancy_plane_is_ff_equivalent(shaped_gap in 1u64..=96) {
        let (trace_s, metrics_s, cons_s, _) = tenancy_artifacts(shaped_gap, Stepped);
        let (trace_f, metrics_f, cons_f, _) = tenancy_artifacts(shaped_gap, Ff);
        prop_assert_eq!(&cons_s, &cons_f);
        prop_assert_eq!(&metrics_s, &metrics_f);
        prop_assert_eq!(&trace_s, &trace_f, "Chrome traces must be byte-identical");
    }
}

/// Golden tenancy run: byte-identical artifacts *and* a real skip
/// count, with the shaped tenant actually stalled at least once (so
/// the rate-refill wake-up path — not just the trivial empty-queue
/// hint — is exercised).
#[test]
fn tenancy_golden_skips_and_matches() {
    // Shaping slower than the injection gap guarantees rate stalls.
    let (trace_s, metrics_s, cons_s, skipped_s) = tenancy_artifacts(3 * GAP, Stepped);
    let (trace_f, metrics_f, cons_f, skipped_f) = tenancy_artifacts(3 * GAP, Ff);
    assert_eq!(skipped_s, 0, "stepped runs never skip");
    assert_eq!(cons_s, cons_f);
    assert_eq!(metrics_s, metrics_f);
    assert_eq!(trace_s, trace_f);
    assert!(skipped_f > 1_000, "ff only skipped {skipped_f} cycles");
    assert!(
        metrics_f.contains("\"tenancy.shaped.rate_stalls\":")
            && !metrics_f.contains("\"tenancy.shaped.rate_stalls\":0"),
        "shaped tenant never hit the rate gate — the refill wake-up \
         path went unexercised: {metrics_f}"
    );
}

// ---------------------------------------------------------------------------
// Fabric ring
// ---------------------------------------------------------------------------

/// An `nics`-member ring with cross-NIC chains (each member's chain
/// finishes on its successor), run to quiescence by `advance` (one of
/// `Fabric`'s run methods). Returns (metrics JSON, fleet stats debug,
/// total skipped, fleet conservation, cycles the members' meshes
/// glided).
fn ring_artifacts(
    nics: usize,
    advance: fn(&mut fabric::Fabric, Cycle, u64) -> (Cycle, u64),
) -> (String, String, u64, String, u64) {
    use engines::mac::MacEngine;
    use fabric::{FabricBuilder, LinkSpec, PeriodicDriver};
    use panic_core::nic::NicConfig;
    use panic_core::programs::chain_program;

    let freq = Freq::mhz(500);
    let mut fb = FabricBuilder::new();
    let mut uplinks = Vec::new();
    for i in 0..nics {
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
            Box::new(MacEngine::new("eth", Bandwidth::gbps(100), freq)),
            TileConfig::default(),
        );
        let crc = b.engine(
            Box::new(NullOffload::new("crc", EngineClass::Asic, Cycles(4))),
            TileConfig::default(),
        );
        let _ = b.rmt_portal();
        let next = (i + 1) % nics;
        b.program(chain_program(
            &[crc, EngineId::remote(next, crc)],
            EngineId::remote(next, eth),
            Some(5_000),
        ));
        uplinks.push((fb.member(b, eth), eth));
    }
    for i in 0..nics {
        fb.link_pair(
            i,
            (i + 1) % nics,
            LinkSpec::new(0, 0).latency(12).credits(8),
        );
    }
    for (i, &(mi, eth)) in uplinks.iter().enumerate() {
        let mut factory = FrameFactory::for_nic_port(0);
        fb.driver(
            mi,
            Box::new(PeriodicDriver::new(
                (i as u64) * 7,
                90,
                20,
                move |nic: &mut PanicNic, now, k| {
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
    let mut fabric = fb.build();
    let mut skipped = 0u64;
    let mut now = Cycle(0);
    let (next, s) = advance(&mut fabric, now, 30_000);
    now = next;
    skipped += s;
    for _ in 0..64 {
        if fabric.is_quiescent() {
            break;
        }
        let (next, s) = advance(&mut fabric, now, 10_000);
        now = next;
        skipped += s;
    }
    assert!(fabric.is_quiescent(), "ring failed to drain");
    let c = fabric.conservation();
    assert!(c.holds(), "fleet conservation violated:\n{c}");
    let mut m = trace::MetricsRegistry::new();
    fabric.export_metrics(&mut m);
    let glided = (0..fabric.len())
        .map(|i| fabric.member(i).network().glided_cycles())
        .sum();
    (
        m.to_json(),
        format!("{:?}", fabric.stats()),
        skipped,
        c.to_string(),
        glided,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A 2–4-NIC ring with cross-NIC chains produces byte-identical
    /// metrics and conservation stepped and fast-forwarded — and
    /// `run_event` is `run_ff`, skip count included. (Fleet stats hold
    /// mode-dependent execution counters — epochs, fleet jumps — so
    /// they are not compared across modes.)
    #[test]
    fn fabric_ring_modes_and_threads_are_byte_identical(nics in 2usize..=4) {
        use fabric::Fabric;
        let (m_s, _, skipped_s, c_s, glided_s) =
            ring_artifacts(nics, |f, at, n| (f.run(at, n), 0));
        let ff = ring_artifacts(nics, Fabric::run_ff);
        let (m_f, _, skipped_f, c_f, glided_f) = &ff;
        prop_assert_eq!(skipped_s, 0, "stepped runs never skip");
        prop_assert_eq!(glided_s, 0, "stepped runs never glide");
        prop_assert_eq!(&m_s, m_f);
        prop_assert_eq!(&c_s, c_f);
        prop_assert!(*skipped_f > 1_000, "ff only skipped {} cycles", skipped_f);
        prop_assert!(*glided_f > 0, "the untraced ring's meshes never glided");
        // What `benchmark/src/rigs/rack.rs` runs as its `Event` mode.
        prop_assert_eq!(&ring_artifacts(nics, Fabric::run_event), &ff);
    }
}

// ---------------------------------------------------------------------------
// Untraced chain, KVS and ring member; sliced fast-forward
// ---------------------------------------------------------------------------

/// What an untraced run leaves behind: (metrics JSON, report debug,
/// conservation report, (cycles skipped, cycles the mesh glided)).
type Untraced = (String, String, String, (u64, u64));

/// How a run is cut into calls: stepped, fast-forwarded in calls as long
/// as the harness makes them, or fast-forwarded in random slices of
/// 1–300 cycles drawn from the seed.
#[derive(Debug, Clone, Copy)]
enum Slicing {
    Stepped,
    Long,
    Sliced(u64),
}

impl Slicing {
    /// Runs `cycles` cycles through `run(cycles, mode)`, in the calls
    /// this slicing makes; a sliced run draws from `rng`, seeded on its
    /// first use.
    fn run(
        self,
        cycles: u64,
        rng: &mut Option<sim_core::rng::SimRng>,
        mut run: impl FnMut(u64, Mode),
    ) {
        match self {
            Slicing::Stepped => run(cycles, Stepped),
            Slicing::Long => run(cycles, Ff),
            Slicing::Sliced(seed) => {
                let rng = rng.get_or_insert_with(|| sim_core::rng::SimRng::new(seed));
                let mut left = cycles;
                while left > 0 {
                    let slice = (1 + rng.gen_range(300)).min(left);
                    run(slice, Ff);
                    left -= slice;
                }
            }
        }
    }
}

/// Compares an untraced run stepped with the same run fast-forwarded in
/// long calls, and wants the fast-forwarded one to have glided.
fn assert_untraced_equivalent(run: fn(Slicing) -> Untraced) {
    let (metrics_s, report_s, cons_s, glided_s) = run(Slicing::Stepped);
    let (metrics_f, report_f, cons_f, glided_f) = run(Slicing::Long);
    assert_eq!(report_s, report_f);
    assert_eq!(metrics_s, metrics_f);
    assert_eq!(cons_s, cons_f);
    assert_eq!(glided_s, (0, 0), "stepped runs never skip or glide");
    assert!(glided_f.0 > 0, "the fast-forwarded run never skipped");
    assert!(glided_f.1 > 0, "the fast-forwarded mesh never glided");
}

/// Compares one run cut into random slices with the same run in long
/// calls — made once, into `long` — which [`assert_untraced_equivalent`]
/// holds equal to the stepped run; the sliced run must have skipped and
/// its mesh glided.
fn assert_sliced_equivalent(run: fn(Slicing) -> Untraced, long: &OnceLock<Untraced>, seed: u64) {
    let (metrics_l, report_l, cons_l, _) = long.get_or_init(|| run(Slicing::Long));
    let (metrics_c, report_c, cons_c, glided_c) = run(Slicing::Sliced(seed));
    prop_assert_eq!(report_l, &report_c);
    prop_assert_eq!(metrics_l, &metrics_c);
    prop_assert_eq!(cons_l, &cons_c);
    prop_assert!(glided_c.0 > 0, "the sliced run never skipped");
    prop_assert!(glided_c.1 > 0, "the sliced mesh never glided");
}

/// `chain_gap`'s shape — two ports at 0.002 of line rate, two-hop
/// chains — without a tracer, so its mesh may glide.
fn chain_gap_untraced(slicing: Slicing) -> Untraced {
    let mut s = ChainScenario::new(ChainScenarioConfig {
        offered_fraction: 0.002,
        ports: 2,
        ..ChainScenarioConfig::default()
    });
    slicing.run(60_000, &mut None, |cycles, mode| {
        s.set_fastforward(mode == Ff);
        s.run(cycles);
    });
    s.drain(10_000);
    let mut m = trace::MetricsRegistry::new();
    s.export_metrics(&mut m);
    let nic = s.nic();
    (
        m.to_json(),
        format!("{:?}", s.report()),
        nic.conservation().to_string(),
        (s.cycles_skipped(), nic.network().glided_cycles()),
    )
}

#[test]
fn untraced_chain_gap_glides_and_matches_stepped() {
    assert_untraced_equivalent(chain_gap_untraced);
}

/// `kvs_mixed`'s shape — the two-tenant default plus a tenant of 512 B
/// writes — without a tracer.
fn kvs_mixed_untraced(slicing: Slicing) -> Untraced {
    use workloads::arrivals::ArrivalProcess;
    use workloads::kvs::TenantSpec;
    let mut config = KvsScenarioConfig::two_tenant_default();
    config.tenants.push(TenantSpec {
        tenant: TenantId(3),
        arrivals: ArrivalProcess::periodic(1, 250),
        priority: Priority::Normal,
        get_ratio: 0.1,
        wan: false,
        value_size: 512,
        zipf_theta: Some(0.0),
    });
    let mut s = KvsScenario::new(config);
    slicing.run(40_000, &mut None, |cycles, mode| {
        s.set_fastforward(mode == Ff);
        s.run(cycles);
    });
    let mut m = trace::MetricsRegistry::new();
    s.export_metrics(&mut m);
    let nic = s.nic();
    (
        m.to_json(),
        format!("{:?}", s.report()),
        nic.conservation().to_string(),
        (s.cycles_skipped(), nic.network().glided_cycles()),
    )
}

#[test]
fn untraced_kvs_mixed_glides_and_matches_stepped() {
    assert_untraced_equivalent(kvs_mixed_untraced);
}

/// A member of the benchmark's `rack_ring4`, alone and untraced: a 4×4
/// mesh of 128-bit channels with a MAC, an 8-cycle offload run twice,
/// two portals and 32 vNICs; one min-size frame every 120 cycles, over
/// the vNICs in turn, each period run under `slicing`.
fn ring_member_untraced(slicing: Slicing) -> Untraced {
    use panic_core::programs::chain_program;
    use tenancy::{TenancyConfig, VNicSpec};
    const PERIOD: u64 = 120;
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
    b.program(chain_program(&[crc, crc], eth, Some(5_000)));
    let vnics = (1..=32)
        .map(|t| VNicSpec::new(TenantId(t), format!("vnic{t}"), 1).credit_quota(16))
        .collect();
    b.tenancy(TenancyConfig::new(vnics).shared_credits(256));
    let mut nic = b.build();
    let mut factory = FrameFactory::for_nic_port(0);
    let (mut now, mut rng, mut skipped) = (Cycle(0), None, 0);
    for sent in 0..300u64 {
        let frame = factory.min_frame((sent % 50) as u16, 80);
        let tenant = TenantId(1 + (sent % 32) as u16);
        nic.rx_frame(eth, frame, tenant, Priority::Normal, now);
        slicing.run(PERIOD, &mut rng, |cycles, mode| {
            let skip;
            (now, skip) = drive(&mut nic, now, cycles, mode);
            skipped += skip;
        });
    }
    let mut m = trace::MetricsRegistry::new();
    nic.export_metrics(&mut m);
    (
        m.to_json(),
        format!("{:?}", nic.stats()),
        nic.conservation().to_string(),
        (skipped, nic.network().glided_cycles()),
    )
}

#[test]
fn untraced_ring_member_glides_and_matches_stepped() {
    assert_untraced_equivalent(ring_member_untraced);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every slice of a fast-forwarded run re-enters `drive` with a
    /// forced step, where a gliding mesh meets an executed tick: the
    /// chain-gap NIC cut anywhere ends where it ends in one piece.
    #[test]
    fn sliced_fast_forward_matches_one_long_run_on_chain_gap(seed in any::<u64>()) {
        static LONG: OnceLock<Untraced> = OnceLock::new();
        assert_sliced_equivalent(chain_gap_untraced, &LONG, seed);
    }

    /// The same on a ring member's NIC.
    #[test]
    fn sliced_fast_forward_matches_one_long_run_on_a_ring_member(seed in any::<u64>()) {
        static LONG: OnceLock<Untraced> = OnceLock::new();
        assert_sliced_equivalent(ring_member_untraced, &LONG, seed);
    }

    /// The same on `kvs_mixed`'s shape, where tiles queue behind a
    /// message in service and messages follow a glider out of a source
    /// queue.
    #[test]
    fn sliced_fast_forward_matches_one_long_run_on_kvs_mixed(seed in any::<u64>()) {
        static LONG: OnceLock<Untraced> = OnceLock::new();
        assert_sliced_equivalent(kvs_mixed_untraced, &LONG, seed);
    }
}
