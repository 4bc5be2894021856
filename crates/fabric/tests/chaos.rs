//! Fabric fault-plane integration tests: the armed-but-empty golden
//! byte-identity (traces and metrics), eventual delivery under link
//! flaps and member crashes, failover to replica members, a permanently
//! partitioned member's traffic draining, the typed error for a plan
//! that never drains, many one-epoch calls against one long call, one
//! row per fault-DSL form, and the proptest that any seeded fabric
//! fault plan over a ring drains to quiescence with the fabric closure
//! holding after every epoch and the whole identity at the end.

mod common;

use std::any::Any;
use std::sync::{Arc, Mutex};

use common::{counters, injected_and_delivered, ring, ring_pairs, COUNT, LATENCY, PERIOD};
use fabric::Fabric;
use faults::{FabricFaultConfig, FabricFaultPlan, FabricFaultUniverse};
use packet::message::Priority;
use proptest::prelude::*;
use sim_core::time::Cycle;
use trace::{Event, MetricsRegistry, TraceSink, Tracer, TrackId};

/// Runs to full quiescence — including the fault plane's deferred
/// work — and asserts the conservation identity.
fn drain(fabric: &mut Fabric) {
    // Nothing is injected yet at cycle 0, so the fabric is quiescent
    // there: start the drivers first.
    let now = fabric.run_ff(Cycle(0), 10_000).0;
    fabric.drain(now).expect("fabric failed to drain");
    let c = fabric.conservation();
    assert!(c.holds(), "fleet conservation violated:\n{c}");
}

/// An armed fault plane with an empty plan.
fn armed_empty() -> FabricFaultConfig {
    FabricFaultConfig::new(FabricFaultPlan::default())
}

/// One observed run: Chrome trace JSON + metrics JSON.
fn observed(faults: Option<FabricFaultConfig>) -> (String, String) {
    let mut fabric = ring(4, faults);
    let tracer = Tracer::chrome();
    fabric.attach_tracer(&tracer);
    drain(&mut fabric);
    let mut m = MetricsRegistry::new();
    fabric.export_metrics(&mut m);
    (tracer.chrome_json().expect("chrome sink"), m.to_json())
}

/// The golden byte-identity satellite: arming the fault plane with an
/// *empty* plan changes nothing — Chrome traces and metrics are
/// byte-identical to the unarmed fabric.
#[test]
fn armed_but_empty_fault_plane_is_byte_identical_to_unarmed() {
    let (trace_base, metrics_base) = observed(None);
    let (t, m) = observed(Some(armed_empty()));
    assert_eq!(trace_base, t, "trace must be byte-identical");
    assert_eq!(metrics_base, m, "metrics must be byte-identical");
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

/// A member that goes Down is frozen until it recovers. The ToR lets a
/// crashed member drain first and marks it Down only once it is
/// quiescent, and hands it nothing while it is, so the `skip_idle` each
/// Down epoch gives it — which glides a mesh through the window — has
/// nothing to move (`fleet::run_member` debug-asserts the same). The run
/// is untraced, so the mesh would glide: from the first epoch boundary
/// at which the crashed member is quiescent to its recovery, its books
/// and its mesh's counters stand still (only idle bookkeeping, such as
/// the pipeline's idle slots, goes on).
#[test]
fn a_down_member_is_frozen_until_it_recovers() {
    let plan = FabricFaultPlan::parse("mcrash:1@400+8").unwrap();
    let mut fabric = ring(4, Some(FabricFaultConfig::new(plan)));
    let metrics = |fabric: &Fabric| {
        let nic = fabric.member(1);
        let net = nic.network();
        let mesh = [
            net.stats().delivered_flits,
            net.total_flit_hops(),
            net.active_cycles(),
            net.glided_cycles(),
        ];
        format!("{:?} {mesh:?}", nic.stats())
    };
    let (mut now, mut frozen, mut still) = (Cycle(0), None, 0);
    loop {
        now = fabric.run_ff(now, LATENCY).0;
        let stats = fabric.chaos_stats().expect("armed");
        if stats.member_recoveries > 0 {
            break;
        }
        assert!(now < Cycle(10_000), "member 1 never recovered");
        if stats.member_crashes == 0 {
            continue;
        }
        match &frozen {
            None if fabric.member(1).is_quiescent() => frozen = Some(metrics(&fabric)),
            None => {}
            Some(m) => {
                assert_eq!(&metrics(&fabric), m, "member 1 moved by cycle {}", now.0);
                still += 1;
            }
        }
    }
    assert!(
        still >= 6,
        "member 1 was frozen for {still} epochs of its 8 down"
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

/// Many short calls ≡ one long call: the 5-ring run one epoch per call
/// ends where a single call over the same span does, stepped and
/// fast-forwarded, with a link flapping and a member crashing and
/// recovering on the way — a call boundary leaves no trace.
#[test]
fn many_one_epoch_calls_equal_one_long_call() {
    const EPOCHS: u64 = 600;
    let plan = FabricFaultPlan::parse("flap:0-1@600+400,mcrash:3@1500+40").expect("plan parses");
    let build = || ring(5, Some(FabricFaultConfig::new(plan.clone())));
    let epoch = build().epoch_len().expect("linked");
    for stepped in [true, false] {
        let advance = |fabric: &mut Fabric, now: Cycle, cycles: u64| {
            if stepped {
                fabric.run(now, cycles)
            } else {
                fabric.run_ff(now, cycles).0
            }
        };
        let mut long = build();
        let end = advance(&mut long, Cycle(0), EPOCHS * epoch);
        let mut short = build();
        let mut now = Cycle(0);
        for _ in 0..EPOCHS {
            now = advance(&mut short, now, epoch);
        }
        assert_eq!(now, end);
        assert_eq!(long.chaos_stats().expect("armed").member_recoveries, 1);
        assert!(
            long.is_quiescent() && !long.faults_pending(),
            "horizon too short"
        );
        assert_eq!(counters(&short), counters(&long), "stepped: {stepped}");
    }
}

/// What a [`Spy`] sink was handed: every track registration, and the
/// track of every `fabric.*` chaos mark.
#[derive(Debug, Default)]
struct Spied {
    tracks: Vec<(TrackId, String)>,
    marks: Vec<TrackId>,
}

#[derive(Debug)]
struct Spy(Arc<Mutex<Spied>>);

impl TraceSink for Spy {
    fn register_track(&mut self, id: TrackId, name: &str) {
        self.0.lock().unwrap().tracks.push((id, name.to_string()));
    }

    fn record(&mut self, event: Event) {
        if event.name.starts_with("fabric.") {
            self.0.lock().unwrap().marks.push(event.track);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `attach_tracer` replaces the tracer everywhere, the ToR included:
/// detaching (attaching the disabled tracer) stops the chaos marks, and
/// a second tracer gets a `fabric.chaos` track of its own rather than
/// the first one's id.
#[test]
fn a_reattached_tracer_replaces_the_tors_too() {
    let plan = "flap:0-1@300+100,flap:1-2@900+100,flap:2-3@1500+100";
    let plan = FabricFaultPlan::parse(plan).unwrap();
    let mut fabric = ring(4, Some(FabricFaultConfig::new(plan)));
    let spy = || {
        let seen = Arc::new(Mutex::new(Spied::default()));
        (Tracer::with_sink(Box::new(Spy(Arc::clone(&seen)))), seen)
    };
    let chaos_tracks = |seen: &Mutex<Spied>| -> Vec<TrackId> {
        let tracks = &seen.lock().unwrap().tracks;
        let chaos = tracks.iter().filter(|(_, name)| name == "fabric.chaos");
        chaos.map(|&(id, _)| id).collect()
    };

    let (first, first_seen) = spy();
    fabric.attach_tracer(&first);
    let now = fabric.run_ff(Cycle(0), 600).0;
    let marked = first_seen.lock().unwrap().marks.len();
    assert!(marked > 0, "the first flap must leave marks");

    // Detached: the second flap marks nothing, anywhere.
    fabric.attach_tracer(&Tracer::disabled());
    let now = fabric.run_ff(now, 600).0;
    assert_eq!(fabric.chaos_stats().expect("armed").events_fired, 2);
    assert_eq!(first_seen.lock().unwrap().marks.len(), marked);

    // A second tracer interns its own chaos track, and the third
    // flap's marks land on it.
    let (second, second_seen) = spy();
    fabric.attach_tracer(&second);
    fabric.run_ff(now, 600);
    assert_eq!(fabric.chaos_stats().expect("armed").events_fired, 3);
    let track = chaos_tracks(&second_seen);
    assert_eq!(
        track.len(),
        1,
        "the second tracer was never asked for a track"
    );
    let second_seen = second_seen.lock().unwrap();
    assert!(!second_seen.marks.is_empty());
    assert!(second_seen.marks.iter().all(|&t| t == track[0]));
    assert_eq!(first_seen.lock().unwrap().marks.len(), marked);
}

/// An unbounded `part` drains: copies to or from a member that is Up
/// but isolated for good meet the fate of copies addressed to a lost
/// member — a replica the ToR can still reach (here every member is
/// one, the sender included), else the host.
#[test]
fn permanent_partition_with_host_fallback_drains_clean() {
    let cfg = FabricFaultConfig::new(FabricFaultPlan::parse("part:0@100").unwrap());
    let mut fabric = ring(4, Some(cfg.clone()));
    drain(&mut fabric);
    let (injected, delivered) = injected_and_delivered(&fabric);
    let stats = fabric.chaos_stats().expect("armed");
    assert_eq!(injected, 4 * COUNT, "a partition never blocks injection");
    assert_eq!(delivered, injected, "every chain ran on a replica");
    assert!(
        stats.replica_rewrites >= 2 * COUNT - 2,
        "0's and 3's chains"
    );

    // No replica to be had: member 1 alone declares `extra`, so its
    // signature matches nobody's, and 0's traffic for it goes to the
    // host once the cut makes 1 unreachable for good.
    let (mut a, eth_a, crc_a) = common::member();
    let (mut b, eth_b, crc_b) = common::member();
    let idle = engines::engine::NullOffload::new(
        "extra",
        packet::chain::EngineClass::Asic,
        sim_core::time::Cycles(1),
    );
    let _ = b.engine(Box::new(idle), engines::tile::TileConfig::default());
    a.program(panic_core::programs::chain_program(
        &[crc_a, packet::EngineId::remote(1, crc_b)],
        packet::EngineId::remote(1, eth_b),
        Some(5_000),
    ));
    b.program(panic_core::programs::chain_program(
        &[crc_b],
        eth_b,
        Some(5_000),
    ));
    let mut fb = fabric::FabricBuilder::new();
    let (ia, ib) = (fb.member(a, eth_a), fb.member(b, eth_b));
    fb.link_pair(ia, ib, fabric::LinkSpec::new(0, 0).latency(LATENCY));
    fb.driver(
        ia,
        Box::new(common::frame_driver(eth_a, 0, 0, PERIOD, COUNT)),
    );
    fb.fault_plane(cfg);
    let mut fabric = fb.build();
    drain(&mut fabric);
    let (injected, delivered) = injected_and_delivered(&fabric);
    let stats = fabric.chaos_stats().expect("armed");
    assert_eq!(injected, COUNT);
    assert_eq!(stats.replica_rewrites, 0);
    assert!(stats.redirected > 0, "the host absorbs what cannot cross");
    assert_eq!(delivered + stats.redirected, injected);
}

/// A plan can parse, lint clean and still hold work past any drain:
/// this freeze outlasts the budget, so member 0's egress for member 1
/// stays backpressured. `Fabric::drain` says so in a typed error — the
/// hand-rolled loops it replaced ended in an `assert!` and a backtrace.
#[test]
fn undrainable_plan_is_a_typed_error_not_a_panic() {
    let plan = FabricFaultPlan::parse("freeze:0-1@0+99999999").unwrap();
    let mut fabric = ring(2, Some(FabricFaultConfig::new(plan)));
    let e = fabric.drain(Cycle(0)).expect_err("the window outlasts it");
    assert_eq!(e.busy_members, [0, 1], "both directions are frozen");
    assert_eq!((e.on_links, e.parked, e.armed), (0, 0, 0));
    assert_eq!(e.next_wake, Some(Cycle(99_999_999)));
    assert!(
        !e.faults_pending,
        "the one event fired; only its window is open"
    );
    assert!(e.to_string().contains("did not drain"), "{e}");
    assert!(fabric.conservation().holds(), "stuck, not leaking");
}

/// Found by the 64-case proptest below: member 2's copy for crashed
/// member 3 is re-pointed at replica 0 and leaves by 2→1→0 — member 2
/// has no link to 0 — and the flap destroys it on 1→0. Its
/// retransmissions start over at member 2, still addressed to 0, and
/// used to be dropped there one after another as crossings with no
/// declared link (`fabric_unrouted`, the PV704 counter), losing the
/// frame with the books balanced.
#[test]
fn retransmission_of_a_redirected_crossing_finds_its_way_again() {
    let got = seen(4, "mcrash:3@476+12,flap:0-1@645+974");
    assert_eq!(got.retries_dups, (1, 0));
    assert_eq!((got.frames.0, got.frames.1), (4 * COUNT, 4 * COUNT));
}

/// `(ring size, plan, what it leaves behind)`.
const TABLE: &[(usize, &str, Seen)] = &[
    (
        4,
        "flap:0-1@312+400",
        Seen {
            chaos: [1, 1, 0, 0, 8, 1, 0, 0],
            retries_dups: (1, 0),
            fleet: [129, 120, 0],
            frames: (120, 120, 1122),
        },
    ),
    (
        4,
        "lag:1-2@300+600x100",
        Seen {
            chaos: [1, 0, 0, 0, 0, 8, 0, 0],
            retries_dups: (8, 8),
            fleet: [128, 120, 91],
            frames: (120, 120, 1289),
        },
    ),
    (
        4,
        "freeze:0-1@300+600",
        Seen {
            chaos: [1, 0, 0, 0, 0, 0, 0, 0],
            retries_dups: (0, 0),
            fleet: [120, 120, 49],
            frames: (120, 120, 678),
        },
    ),
    (
        4,
        "part:3@336+500",
        Seen {
            chaos: [1, 2, 0, 0, 0, 2, 0, 0],
            retries_dups: (2, 0),
            fleet: [122, 120, 0],
            frames: (120, 120, 1132),
        },
    ),
    (
        4,
        "part:3@336",
        Seen {
            chaos: [1, 2, 0, 54, 27, 2, 0, 0],
            retries_dups: (2, 0),
            fleet: [122, 120, 0],
            frames: (120, 120, 1168),
        },
    ),
    (
        4,
        "mcrash:1@400+8",
        Seen {
            chaos: [1, 0, 0, 2, 0, 0, 1, 1],
            retries_dups: (0, 0),
            fleet: [120, 120, 0],
            frames: (120, 120, 132),
        },
    ),
    (
        4,
        "mloss:2@700",
        Seen {
            chaos: [1, 0, 0, 22, 0, 0, 1, 0],
            retries_dups: (0, 0),
            fleet: [98, 98, 0],
            frames: (98, 98, 101),
        },
    ),
    (
        3,
        "flap:0-1@312+400",
        Seen {
            chaos: [1, 1, 0, 0, 4, 1, 0, 0],
            retries_dups: (1, 0),
            fleet: [95, 90, 0],
            frames: (90, 90, 1122),
        },
    ),
];

/// What one faulted run shows, for [`every_fault_kind_does_what_the_docs_say`].
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    /// `ChaosStats`: events, lost_link, redirected (host fallback),
    /// replica_rewrites, reroutes, recovered_by_retry, crashes,
    /// recoveries.
    chaos: [u64; 8],
    /// Ledger retransmissions and suppressed duplicates.
    retries_dups: (u64, u64),
    /// `FleetStats`: forwarded, delivered, backpressured.
    fleet: [u64; 3],
    /// Frames injected, frames that reached a wire, and the slowest
    /// one's latency.
    frames: (u64, u64, u64),
}

fn seen(nics: usize, plan: &str) -> Seen {
    let plan = FabricFaultPlan::parse(plan).unwrap();
    let mut fabric = ring(nics, Some(FabricFaultConfig::new(plan)));
    drain(&mut fabric);
    let c = fabric.chaos_stats().expect("armed");
    let f = fabric.stats();
    let cons = fabric.conservation();
    let (injected, wire) = injected_and_delivered(&fabric);
    let slowest = (0..nics)
        .map(|i| {
            let latency = fabric.member(i).stats().latency_of(Priority::Normal);
            latency.summary().max
        })
        .max();
    Seen {
        chaos: [
            c.events_fired,
            c.lost_link,
            c.redirected,
            c.replica_rewrites,
            c.reroutes,
            c.recovered_by_retry,
            c.member_crashes,
            c.member_recoveries,
        ],
        retries_dups: (cons.retries, cons.dup_suppressed),
        fleet: [f.forwarded, f.delivered, f.backpressured],
        frames: (injected, wire, slowest.unwrap_or(0)),
    }
}

/// One row per fault-DSL form, plus a reroute whose only way round is
/// two hops through a transit member: the counters each leaves behind,
/// as 14e65e1 printed them (the unbounded `part` as the fix does — it
/// never drained there). Read against docs/FAULTS.md: a flap destroys
/// what is on the wire, reroutes the rest and retransmits; lag only
/// stretches latency; a freeze only backpressures; a bounded partition
/// parks (nothing can route around an isolated member) and retransmits;
/// an unbounded one fails over like a loss; a crash fails over and
/// recovers; a loss fails over and forfeits the lost member's unfired
/// arrivals.
#[test]
fn every_fault_kind_does_what_the_docs_say() {
    for (nics, plan, want) in TABLE {
        assert_eq!(&seen(*nics, plan), want, "{nics}-ring under `{plan}`");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The satellite property: *any* seeded fabric fault plan over a
    /// ring topology — permanent member loss and an unbounded
    /// partition included — drains to quiescence with nothing injected
    /// silently lost, and the fleet conservation-under-faults identity
    /// closes exactly at every epoch boundary on the way: mid-flap,
    /// mid-drain, mid-retry.
    #[test]
    fn seeded_fabric_plan_drains_and_closes(
        seed in any::<u64>(),
        nics in 2usize..=5,
        intensity in 1u32..=10,
        permanent in any::<bool>(),
        cut in (0usize..10, 1..COUNT * PERIOD),
    ) {
        let mut universe = FabricFaultUniverse::new(
            nics,
            ring_pairs(nics),
            Cycle(COUNT * PERIOD),
        );
        universe.allow_permanent = permanent;
        let mut plan = FabricFaultPlan::generate(seed, &universe, intensity).to_string();
        let (member, at) = cut;
        // The generator never draws an unbounded partition.
        let cuts = u32::from(permanent && member < nics);
        if cuts == 1 {
            plan += &format!(",part:{member}@{at}");
        }
        let plan = FabricFaultPlan::parse(&plan).unwrap();
        let mut fabric = ring(nics, Some(FabricFaultConfig::new(plan.clone())));
        let mut now = Cycle(0);
        while !fabric.is_quiescent() || fabric.faults_pending() || now < Cycle(COUNT * PERIOD) {
            prop_assert!(now < Cycle(1_000_000), "`{plan}` failed to drain");
            now = fabric.run_ff(now, fabric.epoch_len().expect("linked")).0;
            // The members' own identities only settle at quiescence
            // (a copy on a mesh is on neither side); the closure that
            // ties them together never opens.
            let c = fabric.conservation();
            prop_assert_eq!(
                c.remote_tx + c.retries,
                c.remote_rx + c.dup_suppressed + c.link_in_flight + c.egress_backlog
                    + c.parked + c.lost_link + c.redirected + c.fabric_unrouted,
                "`{}` at {:?}: fabric closure open:\n{}", plan, now, c
            );
        }
        let c = fabric.conservation();
        prop_assert!(c.holds(), "`{plan}`: fleet conservation violated:\n{c}");

        let (injected, delivered) = injected_and_delivered(&fabric);
        let stats = fabric.chaos_stats().expect("armed");
        prop_assert_eq!(stats.events_fired, u64::from(intensity + cuts));
        prop_assert_eq!(
            delivered + stats.redirected, injected,
            "`{}`: {:?}\n{}", plan, stats, c
        );
    }
}
