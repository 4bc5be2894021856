//! The metric catalogue: every name the benchmark emits, with its
//! unit and direction. `BENCHMARK.json` at the repository root is
//! [`benchmark_json`]'s output; a test holds the two together, and the
//! smoke test holds both to what a run actually prints.

use crate::json::Value;
use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and
/// the suite's default `--seconds`).
pub const RUN_SECONDS: u64 = 8;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The contract's spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is rejected.
    pub bound: f64,
    /// True for simulated results: exact per seed, so `--compare`
    /// holds same-seed runs to the digit. (The contract's bound still
    /// has to cover the spread *across* seeds.)
    pub exact_per_seed: bool,
}

/// A per-layer metric: no bound, read beside the end-to-end numbers.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the part before the first `.` is the crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The eight end-to-end metrics, emitted for every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        exact_per_seed: false,
    },
    EndToEnd {
        name: "sim_delivered_frac",
        unit: "ratio",
        better: Higher,
        bound: 0.001,
        exact_per_seed: true,
    },
    EndToEnd {
        name: "sim_goodput_per_kcycle",
        unit: "1/kcycle",
        better: Higher,
        bound: 0.05,
        exact_per_seed: true,
    },
    EndToEnd {
        name: "sim_latency_p50_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.10,
        exact_per_seed: true,
    },
    EndToEnd {
        name: "sim_latency_p99_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.10,
        exact_per_seed: true,
    },
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, emitted by the traced run of every workload.
/// A metric that does not apply to a workload (fabric counts on a
/// single NIC, ctrl counts outside `ctl_churn`) reads its neutral
/// value there: 0 for counts, 1 for ratios of walls.
pub const PER_LAYER: [PerLayer; 78] = [
    // sim-core
    pl("sim-core.exec_tick_frac", "ratio", Lower),
    pl("sim-core.event_over_ff", "ratio", Lower),
    pl("sim-core.stepped_over_ff", "ratio", Higher),
    pl("sim-core.wheel_ns_per_event", "ns", Lower),
    pl("sim-core.eventqueue_ns_per_event", "ns", Lower),
    pl("sim-core.histogram_record_ns", "ns", Lower),
    // packet
    pl("packet.segment_ns_per_msg", "ns", Lower),
    pl("packet.header_parse_ns", "ns", Lower),
    pl("packet.chain_hdr_ns", "ns", Lower),
    // noc
    pl("noc.flit_hops_per_cycle", "count", Lower),
    pl("noc.active_cycle_frac", "ratio", Lower),
    pl("noc.ns_per_flit_hop", "ns", Lower),
    pl("noc.tick_ns_idle", "ns", Lower),
    pl("noc.tick_ns_light", "ns", Lower),
    pl("noc.est_share", "ratio", Lower),
    // rmt
    pl("rmt.passes_per_frame", "count", Lower),
    pl("rmt.stage_hit_frac", "ratio", Higher),
    pl("rmt.idle_slot_frac", "ratio", Higher),
    pl("rmt.pipeline_ns_per_pkt.chain", "ns", Lower),
    pl("rmt.pipeline_ns_per_pkt.kvs", "ns", Lower),
    pl("rmt.compiled_ns_per_pkt.chain", "ns", Lower),
    pl("rmt.compiled_ns_per_pkt.kvs", "ns", Lower),
    pl("rmt.interp_ns_per_pkt.chain", "ns", Lower),
    pl("rmt.parse_ns_per_pkt", "ns", Lower),
    pl("rmt.compile_ns", "ns", Lower),
    // sched
    pl("sched.offer_pop_ns.d64", "ns", Lower),
    pl("sched.offer_pop_ns.d256", "ns", Lower),
    pl("sched.peak_depth_max", "count", Lower),
    pl("sched.dropped", "count", Lower),
    pl("sched.held_cycle_frac", "ratio", Lower),
    // engines
    pl("engines.tile_ns_per_msg", "ns", Lower),
    pl("engines.ipsec_ns_per_frame", "ns", Lower),
    pl("engines.busy_cycle_frac", "ratio", Lower),
    pl("engines.processed_per_frame", "count", Lower),
    // tenancy
    pl("tenancy.submit_release_ns_per_msg.v32", "ns", Lower),
    pl("tenancy.held_cycle_frac", "ratio", Lower),
    // faults
    pl("faults.fabric_armed_empty_over_off", "ratio", Lower),
    pl("faults.watchdog_ns_per_msg", "ns", Lower),
    pl("faults.retries", "count", Lower),
    pl("faults.dup_suppressed", "count", Lower),
    pl("faults.reroutes", "count", Lower),
    pl("faults.redirected", "count", Lower),
    // core
    pl("core.tick_ns", "ns", Lower),
    pl("core.tick_ns_empty", "ns", Lower),
    pl("core.next_activity_ns", "ns", Lower),
    pl("core.skip_idle_ns_per_jump", "ns", Lower),
    pl("core.build_ns", "ns", Lower),
    pl("core.export_metrics_ns", "ns", Lower),
    pl("core.allocs_per_frame", "count", Lower),
    // fabric
    pl("fabric.epochs", "count", Lower),
    pl("fabric.crossings_per_frame", "count", Lower),
    pl("fabric.backpressured_rounds", "count", Lower),
    pl("fabric.fleet_skipped_frac", "ratio", Higher),
    pl("fabric.ns_per_epoch", "ns", Lower),
    pl("fabric.overhead_frac", "ratio", Lower),
    pl("fabric.mt_over_st", "ratio", Lower),
    // ctrl
    pl("ctrl.codec_ns_per_frame", "ns", Lower),
    pl("ctrl.service_ns_idle", "ns", Lower),
    pl("ctrl.service_ns_subscribed", "ns", Lower),
    pl("ctrl.mutation_ns.param", "ns", Lower),
    pl("ctrl.mutation_ns.add_vnic", "ns", Lower),
    pl("ctrl.mutation_ns.swap", "ns", Lower),
    pl("ctrl.commits", "count", Higher),
    pl("ctrl.rejections", "count", Higher),
    pl("ctrl.telemetry_frames", "count", Lower),
    pl("ctrl.swap_drain_cycles_p50", "cycles", Lower),
    // trace
    pl("trace.chrome_over_off", "ratio", Lower),
    pl("trace.ring_over_off", "ratio", Lower),
    pl("trace.events_per_frame", "count", Lower),
    pl("trace.metrics_json_ns", "ns", Lower),
    // verify
    pl("verify.ns_per_spec.chain", "ns", Lower),
    pl("verify.ns_per_spec.rack_member", "ns", Lower),
    // workloads
    pl("workloads.frame_gen_ns", "ns", Lower),
    pl("workloads.zipf_sample_ns", "ns", Lower),
    pl("workloads.kvs_request_gen_ns", "ns", Lower),
    // harness
    pl("harness.trace_overhead_frac", "ratio", Lower),
    pl("harness.calib_ns", "ns", Lower),
    pl("harness.reps", "count", Higher),
];

/// Unit of end-to-end or per-layer metric `name`.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

/// The content of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "metric {name}");
            assert!(unit_ok(unit), "unit {unit} of {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is this catalogue, byte for byte.
    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(
            crate::json::parse(&committed).expect("valid JSON"),
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
        let doc = benchmark_json();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
