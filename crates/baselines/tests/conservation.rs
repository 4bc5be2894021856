//! The incumbents' conservation identities under generated traffic:
//!
//! ```text
//! offered  == accepted + refused
//! accepted == delivered + consumed + dropped + in_flight
//! ```
//!
//! checked after every `rx`, after every stepped cycle (fast-forward
//! steps exactly the cycles in which something can change) and at
//! quiescence, on all three designs — mixed ports and classes,
//! two-slot queues, a consuming offload, punt and recirculate.

mod common;

use baselines::rmt_only::ComplexPolicy;
use baselines::shell::Design;
use baselines::{Baseline, BaselineConservation};
use common::{manycore_nic, offer, pipeline_nic, rmt_only_nic, OFFERED};
use proptest::prelude::*;
use sim_core::clock::{Advance, Driven};
use sim_core::time::Cycle;
use trace::MetricsRegistry;

/// A baseline whose every step is followed by an audit.
struct Audited<D>(Baseline<D>);

impl<D: Design> Audited<D> {
    fn audit(&self, when: std::fmt::Arguments<'_>) {
        let c = self.0.conservation();
        assert!(c.holds(), "{when}: {c:?}");
    }
}

impl<D: Design> Driven for Audited<D> {
    fn step(&mut self, now: Cycle) {
        self.0.step(now);
        self.audit(format_args!("after cycle {}", now.0));
    }
    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) -> bool {
        self.0.wakes(now, post)
    }
    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.0.skip_idle(from, to);
    }
}

/// Offers the seeded schedule, auditing all the way; returns the
/// closed books.
fn audited_run<D: Design>(nic: Baseline<D>, seed: u64, advance: Advance) -> BaselineConservation {
    let mut nic = Audited(nic);
    offer(&mut nic, seed, advance, |n, m| {
        let id = m.id.0;
        n.0.rx(m);
        n.audit(format_args!("after rx of {id}"));
    });
    let mut nic = nic.0;
    assert!(nic.is_quiescent(), "4,000 idle cycles must drain it");
    let c = nic.conservation();
    assert_eq!((c.offered, c.in_flight), (OFFERED, 0), "{c:?}");
    assert_eq!(nic.take_egress().len() as u64, c.delivered);
    // What `--metrics` shows closes the same books.
    let mut m = MetricsRegistry::new();
    nic.export_metrics(&mut m, "b");
    let get = |name: &str| m.counter(&format!("b.{name}")).expect(name);
    assert_eq!(get("offered"), get("accepted") + get("refused"));
    assert_eq!(
        get("accepted"),
        get("delivered") + get("consumed") + get("dropped") + get("in_flight")
    );
    assert_eq!(get("drops"), get("refused") + get("dropped"));
    c
}

/// Stepped and fast-forwarded runs of one design close to the same
/// books.
fn both_ways<D: Design>(build: impl Fn() -> Baseline<D>, seed: u64) -> BaselineConservation {
    let stepped = audited_run(build(), seed, Advance::Stepped);
    assert_eq!(stepped, audited_run(build(), seed, Advance::Merged));
    stepped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_offered_packet_is_accounted_for(seed in any::<u64>()) {
        both_ways(|| pipeline_nic(true), seed);
        both_ways(|| pipeline_nic(false), seed);
        both_ways(manycore_nic, seed);
        let punt = both_ways(
            || rmt_only_nic(ComplexPolicy::Punt { host_cycles: 90 }),
            seed,
        );
        let recirc = both_ways(
            || rmt_only_nic(ComplexPolicy::Recirculate { passes: 3 }),
            seed,
        );
        // An RMT-only NIC has no queue to refuse at and nothing to
        // consume with: it delivers everything, eventually.
        prop_assert_eq!(punt.delivered, OFFERED);
        prop_assert_eq!(recirc.delivered, OFFERED);
    }
}

/// The generated runs must actually reach the terms the identities
/// are about; one fixed seed shows they do.
#[test]
fn the_schedule_reaches_every_term() {
    let c = both_ways(|| pipeline_nic(true), 0xF162A);
    assert!(
        c.refused > 0 && c.dropped > 0 && c.consumed > 0 && c.delivered > 0,
        "{c:?}"
    );
    let c = both_ways(manycore_nic, 0xF162B);
    assert!(c.refused > 0 && c.consumed > 0 && c.delivered > 0, "{c:?}");
}
