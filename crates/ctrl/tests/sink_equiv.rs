//! A layer that hands its counters over as strings
//! (`MetricSink::counter_str` — `tenancy`'s cached names) must land in a
//! sink that only implements `counter` exactly as it lands in one that
//! takes the string natively: a tenanted NIC exported into a
//! `MetricsRegistry` directly, and through a wrapper that forces the
//! trait's default `counter_str`, renders the same JSON bytes.

mod common;

use common::{LATE, TENANT};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use tenancy::VNicSpec;
use trace::{MetricSink, MetricsRegistry};

/// Forwards `counter` and `histogram` and nothing else, so every
/// `counter_str` takes the default road (`format_args!("{name}")`).
struct DefaultOnly(MetricsRegistry);

impl MetricSink for DefaultOnly {
    fn counter(&mut self, name: std::fmt::Arguments<'_>, value: u64) {
        MetricSink::counter(&mut self.0, name, value);
    }
    fn histogram(&mut self, name: std::fmt::Arguments<'_>, h: &Histogram) {
        MetricSink::histogram(&mut self.0, name, h);
    }
}

#[test]
fn a_tenanted_nic_exports_the_same_json_through_the_default_counter_str() {
    let mut rig = common::rig();
    // A name `fmt` would trip over if it were ever used as a format.
    let odd = VNicSpec::new(LATE, "late.{tenant}", 4).credit_quota(16);
    assert!(rig.nic.ctrl_add_vnic(odd));
    let mut now = Cycle(0);
    for step in 0..2_000u64 {
        if step % 40 == 0 {
            rig.inject(TENANT, step, now);
        }
        if step % 60 == 7 {
            rig.inject(LATE, step, now);
        }
        now = rig.tick(now);
    }
    rig.drain(now);

    let mut direct = MetricsRegistry::new();
    rig.nic.export_metrics(&mut direct);
    let mut forced = DefaultOnly(MetricsRegistry::new());
    rig.nic.export_metrics(&mut forced);

    assert!(direct.counter("tenancy.victim-kvs.tx_wire") > Some(0));
    assert!(direct.counter("tenancy.late.{tenant}.tx_wire") > Some(0));
    assert_eq!(direct.to_json(), forced.0.to_json());
}
