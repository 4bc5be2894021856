//! Goldens that hold the three incumbents to the bytes of commit
//! 2b9b21d — the last one where each kept its own ledger, queue-plus-
//! server and `impl Driven`. Each case is a seeded mixed run (ingress
//! and mid-pipeline overflow, bypass, a consuming offload, an early
//! egress, punt, recirculate) whose whole observable surface — egress
//! id order, the three latency histograms, every counter, the metrics
//! JSON and the trace ring — is hashed.
//!
//! The transcript is the parent's: `drops` is the pre-split total
//! (`refused + dropped`), and counters this commit added to
//! `export_metrics` (the conservation split) are left out of the
//! metrics JSON by [`ParentNames`] — `tests/conservation.rs` holds
//! those.

mod common;

use baselines::rmt_only::{ComplexPolicy, RmtOnly};
use baselines::shell::Design;
use baselines::Baseline;
use common::{manycore_nic, offer, pipeline_nic, rmt_only_nic};
use packet::message::Priority;
use sim_core::stats::Histogram;
use trace::{MetricSink, MetricsRegistry, Tracer};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A registry that ignores the counters `added` since the parent.
struct ParentNames {
    registry: MetricsRegistry,
    added: Vec<String>,
}

impl MetricSink for ParentNames {
    fn counter(&mut self, name: std::fmt::Arguments<'_>, value: u64) {
        if !self.added.contains(&name.to_string()) {
            MetricSink::counter(&mut self.registry, name, value);
        }
    }
    fn histogram(&mut self, name: std::fmt::Arguments<'_>, h: &Histogram) {
        MetricSink::histogram(&mut self.registry, name, h);
    }
}

/// Runs the seeded schedule through `nic` and renders everything it
/// exposes, in the parent's terms: `counters` prints the counters the
/// parent's struct had, and `new_names` lists what `export_metrics`
/// gained under `prefix` besides the conservation split.
fn observe<D: Design>(
    mut nic: Baseline<D>,
    seed: u64,
    prefix: &str,
    new_names: &[&str],
    counters: impl Fn(&Baseline<D>) -> String,
) -> String {
    let tracer = Tracer::ring(1 << 16);
    nic.attach_tracer(&tracer);
    offer(&mut nic, seed, |n, now| n.tick(now), |n, m| n.rx(m));
    assert!(nic.is_quiescent());
    let mut metrics = ParentNames {
        registry: MetricsRegistry::new(),
        added: ["offered", "refused", "dropped", "delivered", "in_flight"]
            .iter()
            .chain(new_names)
            .map(|name| format!("{prefix}.{name}"))
            .collect(),
    };
    nic.export_metrics(&mut metrics, prefix);
    let counters = counters(&nic);
    let ids: Vec<u64> = nic.take_egress().iter().map(|m| m.id.0).collect();
    let latency = [Priority::Latency, Priority::Normal, Priority::Bulk].map(|p| nic.latency_of(p));
    format!(
        "egress {ids:?}\nlatency {latency:?}\ncounters {counters}\nmetrics {}\ntrace {:?}\n",
        metrics.registry.to_json(),
        tracer.ring_snapshot().expect("ring tracer"),
    )
}

/// The parent's `accepted` / `drops` / `consumed`, after checking the
/// run closed its books and hit the loss paths it was built to hit.
fn queueing_counters<D: Design>(nic: &Baseline<D>, expect_dropped: bool) -> String {
    let c = nic.conservation();
    assert!(c.holds() && c.in_flight == 0, "{c:?}");
    assert!(c.refused > 0 && c.consumed > 0, "{c:?}");
    assert_eq!(c.dropped > 0, expect_dropped, "{c:?}");
    format!(
        "accepted {} drops {} consumed {}",
        c.accepted,
        c.refused + c.dropped,
        c.consumed
    )
}

fn pipeline(bypass_logic: bool) -> String {
    // Only the 1-cycle bypass moves packets fast enough to overflow a
    // queue *between* stages.
    observe(
        pipeline_nic(bypass_logic),
        0xF162A,
        "baseline.pipe",
        &[],
        |nic| queueing_counters(nic, bypass_logic),
    )
}

fn manycore() -> String {
    observe(manycore_nic(), 0xF162B, "baseline.manycore", &[], |nic| {
        queueing_counters(nic, false)
    })
}

fn rmt_only(complex: ComplexPolicy) -> String {
    let counters = |nic: &Baseline<RmtOnly>| {
        let c = nic.conservation();
        assert!(c.holds() && c.in_flight == 0, "{c:?}");
        format!(
            "accepted {} punted {} recirculation_passes {} backlog {}",
            c.accepted,
            nic.design().punted,
            nic.design().recirculation_passes,
            nic.design().backlog()
        )
    };
    // The parent's RMT-only NIC exported no `drops` / `consumed`.
    observe(
        rmt_only_nic(complex),
        0xF162C,
        "baseline.rmtonly",
        &["drops", "consumed"],
        counters,
    )
}

/// `(case, hash)`, printed by 2b9b21d (a mismatch prints the whole
/// table as this commit computes it).
const GOLDEN: &[(&str, u64)] = &[
    ("pipeline/bypass", 0x83fac433ebee07a5),
    ("pipeline/pass-through", 0x46c1edb2362790b8),
    ("manycore", 0xbd613ebc136c23d7),
    ("rmt-only/punt", 0x11e99dc101c61aca),
    ("rmt-only/recirculate", 0xeaec032f0c37fd9e),
];

/// Events each case's transcript must contain for its golden to be
/// worth anything: the mix really bypassed, punted, recirculated.
fn coverage(case: &str) -> &'static [&'static str] {
    match case {
        "pipeline/bypass" => &["baseline.bypass", "baseline.stage"],
        "pipeline/pass-through" => &["baseline.stage"],
        "manycore" => &["baseline.orchestration", "baseline.service"],
        "rmt-only/punt" => &["baseline.punt", "baseline.host_return"],
        _ => &["rmt.pipeline"],
    }
}

#[test]
fn incumbents_match_the_pre_merge_goldens() {
    let cases = [
        ("pipeline/bypass", pipeline(true)),
        ("pipeline/pass-through", pipeline(false)),
        ("manycore", manycore()),
        (
            "rmt-only/punt",
            rmt_only(ComplexPolicy::Punt { host_cycles: 90 }),
        ),
        (
            "rmt-only/recirculate",
            rmt_only(ComplexPolicy::Recirculate { passes: 3 }),
        ),
    ];
    let mut actual = Vec::new();
    for (name, transcript) in &cases {
        for needle in coverage(name) {
            assert!(
                transcript.contains(needle),
                "{name}: run never hit {needle}"
            );
        }
        actual.push((*name, fnv1a(transcript)));
    }
    if actual != GOLDEN {
        for (name, hash) in &actual {
            eprintln!("    ({name:?}, {hash:#018x}),");
        }
        panic!("baseline goldens moved; table as this commit computes it is above");
    }
}
