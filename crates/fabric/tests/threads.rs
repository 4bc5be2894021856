//! The thread contract beyond byte-identity of one long run
//! (`rack.rs`, `chaos.rs`, `golden.rs` hold that): a crew hired per
//! call leaves no trace of where the calls were cut, and a panic on any
//! thread of it reaches the caller as that panic — never a hang.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{counters, ring_of, ring_with, Hooked};
use fabric::Fabric;
use faults::{FabricFaultConfig, FabricFaultPlan};
use sim_core::time::Cycle;

/// Runs a 5-ring whose member `victim`'s driver panics instead of
/// injecting once the clock reaches cycle 1,000 — some eighty epochs
/// in, with every worker long since at the gate — first on 2 threads
/// (the panic caught and its payload checked), then on one thread per
/// member (left to unwind into the test's `should_panic`).
fn detonate(victim: usize) {
    let ring = |threads: usize| {
        let mut fabric = ring_with(5, 30, None, |i, inner| {
            if i != victim {
                return inner;
            }
            let hook = |now: Cycle| assert!(now.0 < 1_000, "driver blew up at cycle {}", now.0);
            Box::new(Hooked { inner, hook })
        });
        fabric.set_threads(threads);
        fabric
    };
    let mut two = ring(2);
    let caught = catch_unwind(AssertUnwindSafe(|| two.run_ff(Cycle(0), 5_000)));
    let payload = caught.expect_err("the driver's panic must reach the caller");
    let message = payload.downcast_ref::<String>().expect("a formatted panic");
    assert!(
        message.starts_with("driver blew up at cycle 1"),
        "{message}"
    );
    ring(5).run(Cycle(0), 5_000);
}

/// Member 0 runs on the calling thread: its panic must dismiss the
/// workers waiting at the gate, or the thread scope never joins.
#[test]
#[should_panic(expected = "driver blew up at cycle 1")]
fn a_panic_in_the_callers_chunk_is_a_panic_not_a_hang() {
    detonate(0);
}

/// The last member runs on a worker: its panic must reach the caller —
/// which is waiting for that worker's arrival — with its own message.
#[test]
#[should_panic(expected = "driver blew up at cycle 1")]
fn a_panic_in_a_workers_chunk_is_a_panic_not_a_hang() {
    detonate(4);
}

/// Many short calls ≡ one long call, under threads: the 5-ring on 3
/// threads (chunks 2/2/1) run one epoch per call — a crew hired and
/// dismissed every twelve cycles — ends where a single call over the
/// same span does, stepped and fast-forwarded, with a member crashing
/// and recovering on the way.
#[test]
fn many_short_threaded_calls_equal_one_long_call() {
    const EPOCHS: u64 = 600;
    let plan = FabricFaultPlan::parse("flap:0-1@600+400,mcrash:3@1500+40").expect("plan parses");
    let ring = || {
        let mut fabric = ring_of(5, 30, Some(FabricFaultConfig::new(plan.clone())));
        fabric.set_threads(3);
        fabric
    };
    let epoch = ring().epoch_len().expect("linked");
    for stepped in [true, false] {
        let advance = |fabric: &mut Fabric, now: Cycle, cycles: u64| {
            if stepped {
                fabric.run(now, cycles)
            } else {
                fabric.run_ff(now, cycles).0
            }
        };
        let mut long = ring();
        let end = advance(&mut long, Cycle(0), EPOCHS * epoch);
        let mut short = ring();
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
