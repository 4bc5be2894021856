//! The incumbents' conservation identities under generated traffic:
//!
//! ```text
//! offered  == accepted + refused
//! accepted == delivered + consumed + dropped + in_flight
//! ```
//!
//! checked after every `rx`, after every cycle and at quiescence, on
//! all three designs — mixed ports and classes, two-slot queues, a
//! consuming offload, punt and recirculate.

mod common;

use baselines::rmt_only::ComplexPolicy;
use baselines::shell::Design;
use baselines::{Baseline, BaselineConservation};
use common::{manycore_nic, offer, pipeline_nic, rmt_only_nic, OFFERED};
use proptest::prelude::*;
use trace::MetricsRegistry;

fn audit<D: Design>(nic: &Baseline<D>, when: std::fmt::Arguments<'_>) {
    let c = nic.conservation();
    assert!(c.holds(), "{when}: {c:?}");
}

/// Offers the seeded schedule, auditing all the way; returns the
/// closed books.
fn audited_run<D: Design>(mut nic: Baseline<D>, seed: u64) -> BaselineConservation {
    offer(
        &mut nic,
        seed,
        |n, now| {
            n.tick(now);
            audit(n, format_args!("after cycle {}", now.0));
        },
        |n, m| {
            let id = m.id.0;
            n.rx(m);
            audit(n, format_args!("after rx of {id}"));
        },
    );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_offered_packet_is_accounted_for(seed in any::<u64>()) {
        audited_run(pipeline_nic(true), seed);
        audited_run(pipeline_nic(false), seed);
        audited_run(manycore_nic(), seed);
        let punt = audited_run(rmt_only_nic(ComplexPolicy::Punt { host_cycles: 90 }), seed);
        let recirc = audited_run(rmt_only_nic(ComplexPolicy::Recirculate { passes: 3 }), seed);
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
    let c = audited_run(pipeline_nic(true), 0xF162A);
    assert!(
        c.refused > 0 && c.dropped > 0 && c.consumed > 0 && c.delivered > 0,
        "{c:?}"
    );
    let c = audited_run(manycore_nic(), 0xF162B);
    assert!(c.refused > 0 && c.consumed > 0 && c.delivered > 0, "{c:?}");
}
