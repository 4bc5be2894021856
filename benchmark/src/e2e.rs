//! The end-to-end measurement of one workload.
//!
//! Method (README.md has the reasoning): construct the scenario
//! several times and report the median construction time; then repeat
//! — fresh scenario, untimed warm-up, one timed window of a fixed
//! number of simulated cycles in the default run mode, untimed bounded
//! drain, correctness gates — until the time budget is spent, and
//! report medians over the repetitions. Simulated arrivals are
//! open-loop and periodic in simulated time, so the generator is never
//! late; on the host each window is a fixed batch of work. Host times
//! are in reference seconds ([`crate::calib`]).

use std::time::Instant;

use crate::alloc;
use crate::calib::{Calibrator, SliceTimer, Timed};
use crate::rigs::{read_counts, signature, Mode, Outcome, Rig, RunCounts};
use crate::spans::Recorder;
use crate::stats::{dist, Dist};
use crate::workloads::{Kind, WorkloadSpec};

/// Construction samples timed for `setup_s`.
const SETUP_REPS: usize = 21;
/// Host time one construction sample should last, seconds.
const SETUP_BATCH_S: f64 = 5.0e-3;
/// Fewest repetitions a run reports, however slow the machine.
const MIN_REPS: usize = 3;
/// Most repetitions a run makes, however fast the machine.
const MAX_REPS: usize = 64;
/// The run-mode identity check uses this share of the horizon.
pub const EQUIV_DIV: u64 = 10;

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host time of the timed window.
    pub wall: Timed,
    /// Simulated cycles the window advanced the clock by.
    pub cycles: u64,
    /// Operations completed during the window.
    pub delivered: u64,
    /// Cycles the run mode skipped during the window.
    pub skipped: u64,
    /// Heap allocations during the window (traced binary only).
    pub allocs: u64,
    /// Accounting and gates after the drain.
    pub outcome: Outcome,
    /// Everything that must repeat exactly (see [`signature`]).
    pub signature: String,
    /// The rig's counters at the end of the window: what the per-cycle
    /// shares divide (the clock is exact there).
    pub counts: RunCounts,
    /// The rig's counters after the drain: what the per-frame ratios
    /// and event totals read (every offered frame has finished).
    pub drained: RunCounts,
}

/// The simulated-result metrics of a repetition: exact per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Delivered-and-correct ÷ attempted after the bounded drain.
    pub delivered_frac: f64,
    /// Operations completed in the window per 1000 simulated cycles.
    pub goodput_per_kcycle: f64,
    /// Median operation latency, simulated cycles.
    pub latency_p50: f64,
    /// 99th-percentile operation latency, simulated cycles.
    pub latency_p99: f64,
    /// Samples behind the two latency figures.
    pub latency_samples: u64,
}

impl Rep {
    /// The repetition's simulated-result metrics.
    #[must_use]
    pub fn sim(&self) -> SimResult {
        let o = &self.outcome;
        SimResult {
            delivered_frac: (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64,
            goodput_per_kcycle: self.delivered as f64 * 1000.0 / self.cycles as f64,
            latency_p50: o.latency.p50 as f64,
            latency_p99: o.latency.p99 as f64,
            latency_samples: o.latency.count,
        }
    }
}

/// Everything the untraced run of one workload produced.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Construction time, reference seconds, over [`SETUP_REPS`].
    pub setup_s: Dist,
    /// Simulated cycles per reference second, over the repetitions.
    pub sim_cycles_per_s: Dist,
    /// Operations per reference second, over the repetitions.
    pub frames_per_s: Dist,
    /// The same two rates against the raw wall clock (not part of the
    /// contract; kept in `results.json` so the normalisation shows).
    pub raw_sim_cycles_per_s: Dist,
    /// See `raw_sim_cycles_per_s`.
    pub raw_frames_per_s: Dist,
    /// Peak resident set of this process after its first repetition, MB.
    pub peak_rss_mb: f64,
    /// Simulated results (identical on every repetition).
    pub sim: SimResult,
    /// Operations attempted in one repetition.
    pub attempted: u64,
    /// Operations failed in one repetition (all of them if a gate
    /// tripped).
    pub failed: u64,
    /// Gates that tripped, with the repetition or check that tripped
    /// them.
    pub gate_failures: Vec<String>,
    /// Repetitions behind the host-time medians.
    pub repetitions: usize,
}

/// Runs one repetition: build, warm up, timed window, drain, read.
/// Scenario-level spans go to `rec`.
pub fn run_rep(spec: &WorkloadSpec, seed: u64, cal: &mut Calibrator, rec: &Recorder) -> Rep {
    let _rep = rec.span("repetition");
    let mut rig = {
        let _s = rec.span("setup");
        spec.build(seed)
    };
    {
        let _s = rec.span("warmup");
        rig.advance(spec.warmup, rec);
    }
    let before = rig.counters();
    let allocs_before = alloc::count();
    let wall = {
        let _s = rec.span("run");
        let mut timer = SliceTimer::start(cal);
        for _ in 0..spec.window / spec.slice {
            timer.slice(|| rig.advance(spec.slice, rec));
        }
        timer.total()
    };
    let allocs = alloc::count() - allocs_before;
    let after = rig.counters();
    // Read before the drain: the clock is exact here (two scenarios
    // do not expose theirs, and a drain stops where it likes).
    let counts = read_counts(rig.as_ref());
    {
        let _s = rec.span("drain");
        rig.drain(rec);
    }
    let outcome = {
        let _s = rec.span("report");
        rig.outcome()
    };
    let signature = {
        let _s = rec.span("export_metrics");
        signature(rig.as_ref())
    };
    Rep {
        wall,
        cycles: after.now - before.now,
        delivered: after.delivered - before.delivered,
        skipped: after.skipped - before.skipped,
        allocs,
        outcome,
        signature,
        counts,
        drained: read_counts(rig.as_ref()),
    }
}

/// Advances a freshly built rig through `horizon` cycles in one timed
/// stretch, then drains it. Returns the host time of the advance
/// (warm-up included: these runs compare variants of one workload,
/// they do not report rates) and the drained rig.
pub fn timed_run(
    mut rig: Box<dyn Rig>,
    horizon: u64,
    cal: &mut Calibrator,
) -> (Timed, Box<dyn Rig>) {
    let rec = Recorder::disabled();
    let ((), wall) = SliceTimer::start(cal).slice(|| rig.advance(horizon, &rec));
    rig.drain(&rec);
    (wall, rig)
}

/// The run-mode and thread-count identity checks, on `1/EQUIV_DIV` of
/// the horizon. Returns the gates that tripped.
pub fn equivalence(spec: &WorkloadSpec, seed: u64, cal: &mut Calibrator) -> Vec<String> {
    let small = spec.scaled(EQUIV_DIV);
    let run = |spec: &WorkloadSpec, mode: Mode, cal: &mut Calibrator| {
        let mut rig = spec.build(seed);
        rig.set_mode(mode);
        signature(timed_run(rig, spec.horizon(), cal).1.as_ref())
    };
    let mut failures = Vec::new();
    let reference = run(&small, Mode::Default, cal);
    for &mode in spec.modes().iter().filter(|m| **m != Mode::Default) {
        if run(&small, mode, cal) != reference {
            failures.push(format!(
                "{mode:?} run diverged from the default run on 1/{EQUIV_DIV} of the horizon"
            ));
        }
    }
    // The ring's other thread count must reproduce the same bytes.
    if let Kind::Rack {
        multithreaded,
        faults,
    } = spec.kind
    {
        let other = WorkloadSpec {
            kind: Kind::Rack {
                multithreaded: !multithreaded,
                faults,
            },
            ..small
        };
        if run(&other, Mode::Default, cal) != reference {
            failures.push("threads=1 and threads=N runs of the ring diverged".to_string());
        }
    }
    failures
}

/// Times `samples` constructions. A construction that takes well
/// under a millisecond is timed in batches of as many as fill
/// [`SETUP_BATCH_S`], so timer and calibration granularity do not show.
pub fn measure_setup(spec: &WorkloadSpec, seed: u64, cal: &mut Calibrator, samples: usize) -> Dist {
    let probe = Instant::now();
    drop(spec.build(seed));
    let one = probe.elapsed().as_secs_f64().max(1e-6);
    let batch = ((SETUP_BATCH_S / one).ceil() as usize).clamp(1, 64);
    let mut timer = SliceTimer::start(cal);
    let mut per_build = Vec::with_capacity(samples);
    for _ in 0..samples {
        let ((), t) = timer.slice(|| {
            for _ in 0..batch {
                drop(spec.build(seed));
            }
        });
        per_build.push(t.norm_s / batch as f64);
    }
    dist(&per_build)
}

/// Peak resident set size of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The gates the repetitions tripped: each one's own, plus any
/// repetition whose simulated results differ from the first's.
pub fn rep_gate_failures<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut first: Option<&Rep> = None;
    for (i, r) in reps.into_iter().enumerate() {
        for g in &r.outcome.gate_failures {
            failures.push(format!("repetition {i}: {g}"));
        }
        let first = *first.get_or_insert(r);
        if (&r.signature, r.cycles, r.delivered)
            != (&first.signature, first.cycles, first.delivered)
        {
            failures.push(format!(
                "repetition {i} produced different simulated results from repetition 0"
            ));
        }
    }
    failures
}

/// Operations failed, given the gates: all of them if any tripped.
#[must_use]
pub fn failed_operations(outcome: &Outcome, gate_failures: &[String]) -> u64 {
    if gate_failures.is_empty() {
        outcome.failed
    } else {
        outcome.attempted
    }
}

/// Folds repetitions into distributions and checks they agree.
fn summarize(
    reps: &[Rep],
    setup_s: Dist,
    peak_rss_mb: f64,
    mut gate_failures: Vec<String>,
) -> Measurement {
    gate_failures.extend(rep_gate_failures(reps));
    let first = &reps[0];
    let rate = |f: &dyn Fn(&Rep) -> f64| dist(&reps.iter().map(f).collect::<Vec<_>>());
    Measurement {
        setup_s,
        sim_cycles_per_s: rate(&|r| r.cycles as f64 / r.wall.norm_s),
        frames_per_s: rate(&|r| r.delivered as f64 / r.wall.norm_s),
        raw_sim_cycles_per_s: rate(&|r| r.cycles as f64 / r.wall.raw_s),
        raw_frames_per_s: rate(&|r| r.delivered as f64 / r.wall.raw_s),
        peak_rss_mb,
        sim: first.sim(),
        attempted: first.outcome.attempted,
        failed: failed_operations(&first.outcome, &gate_failures),
        gate_failures,
        repetitions: reps.len(),
    }
}

/// The untraced run: one repetition (after which the process's peak
/// resident set is read: what one simulation needs, before the set-up
/// samples and later repetitions add allocator history), the set-up
/// timings, `seconds` of further repetitions, then the identity checks.
pub fn measure(spec: &WorkloadSpec, seed: u64, seconds: f64, smoke: bool) -> Measurement {
    let mut cal = Calibrator::new();
    let rec = Recorder::disabled();
    let mut reps = vec![run_rep(spec, seed, &mut cal, &rec)];
    let peak_rss_mb = peak_rss_mb();
    let setup_samples = if smoke { 5 } else { SETUP_REPS };
    let setup_s = measure_setup(spec, seed, &mut cal, setup_samples);

    let started = Instant::now();
    // A smoke run checks that everything works, once.
    while !smoke
        && reps.len() < MAX_REPS
        && (reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds)
    {
        reps.push(run_rep(spec, seed, &mut cal, &rec));
    }
    let gate_failures = equivalence(spec, seed, &mut cal);
    summarize(&reps, setup_s, peak_rss_mb, gate_failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// A small chain run end to end: rates are positive, simulated
    /// results repeat, and the gates are green.
    #[test]
    fn small_chain_measurement_is_consistent() {
        let spec = workloads::find("chain_gap").unwrap().scaled(40);
        let m = measure(&spec, 1, 0.0, true);
        assert!(m.gate_failures.is_empty(), "{:?}", m.gate_failures);
        assert_eq!(m.failed, 0);
        assert!(m.attempted > 0);
        assert!(m.sim_cycles_per_s.median > 0.0 && m.frames_per_s.median > 0.0);
        assert_eq!(m.sim.delivered_frac, 1.0);
        assert!(m.sim.latency_samples > 0);
        assert!(m.peak_rss_mb > 0.0);
    }

    /// A tripped gate fails every operation of the workload.
    #[test]
    fn a_tripped_gate_fails_every_operation() {
        let spec = workloads::find("chain_gap").unwrap().scaled(40);
        let mut cal = Calibrator::new();
        let rep = run_rep(&spec, 1, &mut cal, &Recorder::disabled());
        let setup = dist(&[1.0]);
        let m = summarize(&[rep], setup, 1.0, vec!["injected failure".into()]);
        assert_eq!(m.failed, m.attempted);
    }
}
