//! The traced run: per-layer metrics for one workload.
//!
//! Three kinds of number come out of it (README.md, "Per-layer
//! metrics"):
//!
//! * **counts**, read from the drained rig through the crates' public
//!   `export_metrics` / `stats()` — exact, identical on every
//!   repetition;
//! * **variant ratios** — the same workload at 1/10 (tracer variants:
//!   1/40) of its horizon under one changed condition: event-driven or
//!   stepped instead of fast-forward, a simulator tracer attached, the
//!   fabric fault plane armed, more threads, one ring member instead of
//!   four — each as a ratio of host times against the unchanged run of
//!   the same round;
//! * **layer kernels** ([`crate::kernels`]).
//!
//! Repetitions alternate between recording harness spans and not; the
//! difference between the two is the tracing overhead the run reports
//! about itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use trace::{Event, TraceSink, Tracer, TrackId};

use crate::calib::{Calibrator, Timed};
use crate::catalog::PER_LAYER;
use crate::e2e::{failed_operations, rep_gate_failures, run_rep, timed_run, Rep, EQUIV_DIV};
use crate::kernels;
use crate::rigs::rack::{Faults, RackRig, RackShape};
use crate::rigs::{Mode, Rig};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{mt_threads, WorkloadSpec};

/// Rounds of variant runs; each ratio is the median over rounds of
/// variant ÷ baseline *within* a round, so slow drift cancels.
const ROUNDS: usize = 3;
/// Tracer variants run on this share of the horizon: a Chrome sink
/// keeps every event, and a skipped cycle is an event.
const TRACER_DIV: u64 = 40;
/// Ring-buffer tracer capacity (ROADMAP item 5's flight recorder).
const RING_CAPACITY: usize = 65_536;
/// Pipelines per NIC in every benchmarked configuration.
const PIPELINES: f64 = 2.0;

/// Counts events and keeps none: what `trace.events_per_frame` reads.
#[derive(Debug)]
struct CountingSink(Arc<AtomicU64>);

impl TraceSink for CountingSink {
    fn register_track(&mut self, _id: TrackId, _name: &str) {}
    fn record(&mut self, _event: Event) {
        // A statistic read after the run; publishes no other data.
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The per-layer metrics of one traced run.
#[derive(Debug)]
pub struct Traced {
    /// Every [`PER_LAYER`] metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted in one repetition.
    pub attempted: u64,
    /// Operations failed in one repetition (all, if a gate tripped).
    pub failed: u64,
    /// Gates that tripped.
    pub gate_failures: Vec<String>,
    /// The harness spans, for `trace.json`.
    pub recorder: Recorder,
}

fn ratio(variant: &[Timed], baseline: &[Timed]) -> f64 {
    let per_round: Vec<f64> = variant
        .iter()
        .zip(baseline)
        .map(|(v, b)| v.norm_s / b.norm_s)
        .collect();
    median(&per_round)
}

/// Host times of one workload under each changed condition.
#[derive(Debug, Default)]
struct Variants {
    default: Vec<Timed>,
    event: Vec<Timed>,
    stepped: Vec<Timed>,
    untraced_short: Vec<Timed>,
    chrome: Vec<Timed>,
    ring: Vec<Timed>,
    ring_off: Vec<Timed>,
    ring_armed: Vec<Timed>,
    ring_mt: Vec<Timed>,
    ring_single: Vec<Timed>,
    events_per_frame: f64,
}

fn run_variants(spec: &WorkloadSpec, seed: u64, cal: &mut Calibrator, rounds: usize) -> Variants {
    let small = spec.scaled(EQUIV_DIV);
    let tiny = spec.scaled(TRACER_DIV);
    let has_modes = spec.modes().len() > 1;
    let mut v = Variants::default();
    let run_mode =
        |spec: &WorkloadSpec, mode: Mode, tracer: Option<Tracer>, cal: &mut Calibrator| {
            let mut rig = spec.build(seed);
            rig.set_mode(mode);
            if let Some(t) = &tracer {
                rig.attach_tracer(t);
            }
            timed_run(rig, spec.horizon(), cal)
        };
    let ring = |shape: RackShape, cal: &mut Calibrator| {
        let rig: Box<dyn Rig> = Box::new(RackRig::build(seed, small.horizon(), shape));
        timed_run(rig, small.horizon(), cal).0
    };
    for round in 0..rounds {
        v.default.push(run_mode(&small, Mode::Default, None, cal).0);
        if has_modes {
            v.event.push(run_mode(&small, Mode::Event, None, cal).0);
            // Stepped runs cost up to 30x the default; one is enough
            // for a ratio that large.
            if round == 0 {
                v.stepped.push(run_mode(&small, Mode::Stepped, None, cal).0);
            }
        }
        v.untraced_short
            .push(run_mode(&tiny, Mode::Default, None, cal).0);
        v.chrome
            .push(run_mode(&tiny, Mode::Default, Some(Tracer::chrome()), cal).0);
        v.ring
            .push(run_mode(&tiny, Mode::Default, Some(Tracer::ring(RING_CAPACITY)), cal).0);
        if spec.rack_shape().is_some() {
            let st = RackShape {
                members: 4,
                threads: 1,
                faults: Faults::Off,
            };
            v.ring_off.push(ring(st, cal));
            v.ring_armed.push(ring(
                RackShape {
                    faults: Faults::ArmedEmpty,
                    ..st
                },
                cal,
            ));
            v.ring_mt.push(ring(
                RackShape {
                    threads: mt_threads(),
                    ..st
                },
                cal,
            ));
            v.ring_single
                .push(ring(RackShape { members: 1, ..st }, cal));
        }
    }
    let events = Arc::new(AtomicU64::new(0));
    let counting = Tracer::with_sink(Box::new(CountingSink(Arc::clone(&events))));
    let (_, rig) = run_mode(&tiny, Mode::Default, Some(counting), cal);
    v.events_per_frame =
        events.load(Ordering::Relaxed) as f64 / rig.counters().offered.max(1) as f64;
    v
}

/// Derives the per-workload counts and times from the repetitions.
fn derive(
    out: &mut BTreeMap<&'static str, f64>,
    plain: &[Rep],
    spanned: &[Rep],
    kernel_ns_per_flit_hop: f64,
) {
    let rep = &plain[0];
    // Per-cycle shares read the window-end counters; per-frame ratios
    // and event totals read the drained rig (see `Rep`).
    let (c, d) = (&rep.counts, &rep.drained);
    let members = c.members as f64;
    let nic_cycles = members * c.end.now.max(1) as f64;
    let offered = d.end.offered.max(1) as f64;
    let window_ticks = members * rep.cycles as f64 - rep.skipped as f64;
    let wall_ns = median(
        &plain
            .iter()
            .map(|r| r.wall.norm_s * 1e9)
            .collect::<Vec<_>>(),
    );
    let flit_hops_per_cycle = c.get("noc.flit_hops") as f64 / nic_cycles;

    out.insert(
        "sim-core.exec_tick_frac",
        window_ticks / (members * rep.cycles as f64),
    );
    out.insert("noc.flit_hops_per_cycle", flit_hops_per_cycle);
    out.insert(
        "noc.active_cycle_frac",
        c.get("perf.layer.noc") as f64 / nic_cycles,
    );
    out.insert(
        "noc.est_share",
        kernel_ns_per_flit_hop * flit_hops_per_cycle * members * rep.cycles as f64 / wall_ns,
    );
    out.insert(
        "rmt.passes_per_frame",
        d.get("rmt.accepted") as f64 / offered,
    );
    let hits = c.sum("rmt.stage.", ".hits") as f64;
    let misses = c.sum("rmt.stage.", ".misses") as f64;
    out.insert("rmt.stage_hit_frac", hits / (hits + misses).max(1.0));
    out.insert(
        "rmt.idle_slot_frac",
        c.get("rmt.idle_slots") as f64 / (PIPELINES * nic_cycles),
    );
    out.insert("sched.peak_depth_max", d.peak_depth_max as f64);
    out.insert("sched.dropped", d.sum("engine.", ".sched.dropped") as f64);
    out.insert(
        "sched.held_cycle_frac",
        c.get("perf.layer.sched") as f64 / nic_cycles,
    );
    out.insert(
        "engines.busy_cycle_frac",
        c.get("perf.layer.engines") as f64 / nic_cycles,
    );
    out.insert(
        "engines.processed_per_frame",
        d.sum("engine.", ".processed") as f64 / offered,
    );
    out.insert(
        "tenancy.held_cycle_frac",
        c.get("perf.layer.tenancy") as f64 / nic_cycles,
    );
    for name in [
        "faults.retries",
        "faults.dup_suppressed",
        "faults.reroutes",
        "faults.redirected",
        "fabric.epochs",
        "fabric.backpressured_rounds",
        "ctrl.commits",
        "ctrl.rejections",
        "ctrl.telemetry_frames",
        "ctrl.swap_drain_cycles_p50",
    ] {
        out.insert(name, d.extra(name));
    }
    out.insert(
        "fabric.crossings_per_frame",
        d.extra("fabric.forwarded") / offered,
    );
    out.insert(
        "fabric.fleet_skipped_frac",
        c.extra("fabric.fleet_skipped") / c.end.now.max(1) as f64,
    );
    // Epochs are counted over the whole run; the window's share of
    // them is its share of the clock (steady state).
    let window_epochs = c.extra("fabric.epochs") * rep.cycles as f64 / c.end.now.max(1) as f64;
    out.insert(
        "fabric.ns_per_epoch",
        if window_epochs > 0.0 {
            wall_ns / window_epochs
        } else {
            0.0
        },
    );
    out.insert("core.tick_ns", wall_ns / window_ticks.max(1.0));
    let traced = &spanned[0];
    out.insert(
        "core.allocs_per_frame",
        traced.allocs as f64 / traced.delivered.max(1) as f64,
    );
    let spanned_ns = median(
        &spanned
            .iter()
            .map(|r| r.wall.norm_s * 1e9)
            .collect::<Vec<_>>(),
    );
    out.insert("harness.trace_overhead_frac", spanned_ns / wall_ns - 1.0);
    out.insert("harness.reps", (plain.len() + spanned.len()) as f64);
}

/// The traced run of one workload: about `seconds` of repetitions
/// (half with harness spans, half without), then the variant rounds,
/// then the layer kernels.
pub fn measure_traced(spec: &WorkloadSpec, seed: u64, seconds: f64, smoke: bool) -> Traced {
    let mut cal = Calibrator::new();
    let recorder = Recorder::enabled();
    let off = Recorder::disabled();

    let started = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    loop {
        plain.push(run_rep(spec, seed, &mut cal, &off));
        spanned.push(run_rep(spec, seed, &mut cal, &recorder));
        if smoke || (plain.len() >= 2 && started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }

    let gate_failures = rep_gate_failures(plain.iter().chain(&spanned));

    let rounds = if smoke { 1 } else { ROUNDS };
    let variants = {
        let _s = recorder.span("variants");
        run_variants(spec, seed, &mut cal, rounds)
    };
    let kernel_results = {
        let _s = recorder.span("kernels");
        kernels::run_all(&mut cal, smoke)
    };

    let mut metrics: BTreeMap<&'static str, f64> = kernel_results.into_iter().collect();
    let flit_hop_ns = metrics["noc.ns_per_flit_hop"];
    derive(&mut metrics, &plain, &spanned, flit_hop_ns);

    let has_modes = spec.modes().len() > 1;
    metrics.insert(
        "sim-core.event_over_ff",
        if has_modes {
            ratio(&variants.event, &variants.default)
        } else {
            1.0
        },
    );
    metrics.insert(
        "sim-core.stepped_over_ff",
        if has_modes {
            ratio(&variants.stepped, &variants.default)
        } else {
            1.0
        },
    );
    metrics.insert(
        "trace.chrome_over_off",
        ratio(&variants.chrome, &variants.untraced_short),
    );
    metrics.insert(
        "trace.ring_over_off",
        ratio(&variants.ring, &variants.untraced_short),
    );
    metrics.insert("trace.events_per_frame", variants.events_per_frame);
    let is_ring = spec.rack_shape().is_some();
    metrics.insert(
        "faults.fabric_armed_empty_over_off",
        if is_ring {
            ratio(&variants.ring_armed, &variants.ring_off)
        } else {
            1.0
        },
    );
    metrics.insert(
        "fabric.mt_over_st",
        if is_ring {
            ratio(&variants.ring_mt, &variants.ring_off)
        } else {
            1.0
        },
    );
    metrics.insert(
        "fabric.overhead_frac",
        if is_ring {
            1.0 - 4.0 * ratio(&variants.ring_single, &variants.ring_off)
        } else {
            0.0
        },
    );

    for m in &PER_LAYER {
        assert!(
            metrics.contains_key(m.name),
            "traced run produced no `{}`",
            m.name
        );
    }
    assert_eq!(
        metrics.len(),
        PER_LAYER.len(),
        "traced run produced an uncatalogued metric"
    );

    let outcome = &plain[0].outcome;
    Traced {
        metrics,
        attempted: outcome.attempted,
        failed: failed_operations(outcome, &gate_failures),
        gate_failures,
        recorder,
    }
}
