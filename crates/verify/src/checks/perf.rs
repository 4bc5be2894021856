//! `PV5xx` — simulator-performance checks.
//!
//! These lints run only when the spec declares its traffic sources
//! ([`crate::NicSpec::arrivals`] is non-empty): without a workload
//! there is nothing to say about fast-forward efficacy.
//!
//! * **PV501** (Warn): the declared workload makes quiescence
//!   fast-forward a no-op. Two shapes trigger it:
//!
//!   1. *any* stochastic (Bernoulli / on-off) source — such a source
//!      consumes one RNG draw every cycle, so skipping any cycle would
//!      change the RNG stream and break byte-identical replay; the
//!      fast-forward driver therefore never skips while one is live;
//!   2. a periodic source whose minimum inter-arrival gap is ≤ 1
//!      cycle — a new packet arrives every poll, so there is never an
//!      idle window to jump over.
//!
//!   Neither is a modeling mistake: stochastic load is exactly right
//!   for saturation studies. The warning exists so nobody *expects* a
//!   fast-forward speedup from such a run: it simulates at stepped
//!   speed. See `docs/PERF.md`.

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::spec::{ArrivalKind, NicSpec};

/// Runs the `PV5xx` performance checks. No-op when the spec declares
/// no traffic sources.
#[must_use]
pub fn check_perf(spec: &NicSpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for a in &spec.arrivals {
        match a.kind {
            ArrivalKind::Stochastic => diags.push(Diagnostic::new(
                Code::PV501,
                Severity::Warn,
                Span::at("perf", a.name.clone()),
                format!(
                    "source '{}' is stochastic (one RNG draw per cycle): \
                     fast-forward can never skip while it is live; expect a \
                     stepped-speed simulation",
                    a.name
                ),
            )),
            ArrivalKind::Periodic { min_gap_cycles } if min_gap_cycles <= 1 => {
                diags.push(Diagnostic::new(
                    Code::PV501,
                    Severity::Warn,
                    Span::at("perf", a.name.clone()),
                    format!(
                        "source '{}' arrives every cycle (min gap {} cycle): \
                         there is no idle window for fast-forward to skip; \
                         expect a stepped-speed simulation",
                        a.name, min_gap_cycles
                    ),
                ));
            }
            ArrivalKind::Periodic { .. } => {}
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::Topology;

    use crate::spec::ArrivalSpec;

    #[test]
    fn no_declared_workload_means_no_findings() {
        let spec = NicSpec::new(Topology::mesh(4, 4));
        assert!(check_perf(&spec).is_empty());
    }

    /// The negative test: gap-dominated periodic traffic — the exact
    /// shape fast-forward exists for — must stay clean.
    #[test]
    fn sparse_periodic_workload_is_clean() {
        let mut spec = NicSpec::new(Topology::mesh(4, 4));
        spec.arrivals = vec![
            ArrivalSpec::periodic("port0", 1000, 250_000),
            ArrivalSpec::periodic("port1", 1, 300),
            // Gap of exactly 2 cycles is still skippable (one idle
            // cycle between arrivals).
            ArrivalSpec::periodic("port2", 1, 2),
            // Zero-rate sources never fire at all.
            ArrivalSpec::periodic("silent", 0, 100),
        ];
        let diags = check_perf(&spec);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pv501_warns_on_stochastic_source() {
        let mut spec = NicSpec::new(Topology::mesh(4, 4));
        spec.arrivals = vec![
            ArrivalSpec::periodic("port0", 1, 300),
            ArrivalSpec::stochastic("tenant1"),
        ];
        let diags = check_perf(&spec);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV501);
        assert_eq!(diags[0].severity, Severity::Warn);
        assert_eq!(diags[0].span.subject, "tenant1");
        assert!(
            diags[0]
                .message
                .ends_with("expect a stepped-speed simulation"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn pv501_warns_on_every_cycle_periodic_source() {
        let mut spec = NicSpec::new(Topology::mesh(4, 4));
        // Full line rate: one arrival per cycle, gap 1.
        spec.arrivals = vec![ArrivalSpec::periodic("port0", 1, 1)];
        let diags = check_perf(&spec);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV501);
        // num > den/2 also floors to gap 1.
        spec.arrivals = vec![ArrivalSpec::periodic("port0", 2, 3)];
        assert_eq!(check_perf(&spec).len(), 1);
    }
}
