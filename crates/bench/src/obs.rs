//! Per-run observation context.
//!
//! Every experiment runner takes a [`RunCtx`] instead of a bare
//! `quick` flag so the `repro` driver can hand the same run a trace
//! sink (`--trace`) and a metrics registry (`--metrics`) without each
//! experiment growing its own plumbing. Runners that do not support
//! observation simply ignore the tracer/metrics fields; runners that
//! do attach the tracer to their instrumented window and export
//! counters/histograms into [`RunCtx::metrics`].

use trace::{MetricsRegistry, Tracer};

/// Context handed to every experiment runner.
///
/// ```
/// use panic_bench::RunCtx;
///
/// let mut ctx = RunCtx::new(true); // quick, unobserved
/// assert!(ctx.quick);
/// assert!(!ctx.observing());
///
/// let mut ctx = RunCtx::observed(false, trace::Tracer::chrome(), true);
/// assert!(ctx.observing());
/// ```
#[derive(Debug)]
pub struct RunCtx {
    /// Shortened simulations for CI; `false` is what the
    /// EXPERIMENTS.md numbers are produced with.
    pub quick: bool,
    /// Trace sink. [`Tracer::disabled`] (the default) costs one branch
    /// per would-be event; experiments attach it to their instrumented
    /// window when enabled.
    pub tracer: Tracer,
    /// Registry experiments export counters and histograms into when
    /// [`RunCtx::collect_metrics`] is set.
    pub metrics: MetricsRegistry,
    /// Whether the caller wants [`RunCtx::metrics`] populated.
    pub collect_metrics: bool,
    /// Fault schedule override from `repro --faults <seed|spec>`.
    /// Experiments that model the fault plane (today: `fault-recovery`)
    /// seed their [`faults::FaultPlan`] from this; everything else
    /// ignores it.
    pub faults: Option<faults::FaultArg>,
}

impl RunCtx {
    /// An unobserved run: tracing disabled, no metrics collection.
    #[must_use]
    pub fn new(quick: bool) -> RunCtx {
        RunCtx::observed(quick, Tracer::disabled(), false)
    }

    /// An observed run feeding `tracer` and (optionally) collecting
    /// metrics.
    #[must_use]
    pub fn observed(quick: bool, tracer: Tracer, collect_metrics: bool) -> RunCtx {
        RunCtx {
            quick,
            tracer,
            metrics: MetricsRegistry::new(),
            collect_metrics,
            faults: None,
        }
    }

    /// True when the caller asked for a trace or for metrics — the cue
    /// for experiments to run their instrumented window.
    #[must_use]
    pub fn observing(&self) -> bool {
        self.tracer.enabled() || self.collect_metrics
    }
}
