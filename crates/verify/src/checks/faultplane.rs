//! `PV4xx` — fault-plane / watchdog checks.
//!
//! These lints run only when the spec arms a watchdog
//! ([`crate::NicSpec::watchdog`] is `Some`): a fault-free NIC has no
//! fault-plane configuration to get wrong.
//!
//! * **PV401** (Warn): some offload type has no replica. The
//!   runtime failover policy re-routes traffic for a
//!   DOWN engine to a healthy engine of the same type — same
//!   [`packet::EngineClass`] and the same name stem (`crc0`/`crc1`).
//!   A singleton engine can only degrade to host fallback, which is
//!   legitimate but worth knowing before a chaos run.
//! * **PV402** (Error): the retry budget is zero. A descriptor then
//!   fails permanently at its *first* deadline, so the re-issue path
//!   that would exercise the replica is unreachable — failover is
//!   dead code.
//! * **PV403** (Error): the base descriptor deadline is not longer
//!   than the slowest engine's worst-case service time. Every message
//!   that queues behind one service at that engine would time out and
//!   be re-issued even on a perfectly healthy NIC — the watchdog
//!   would *create* the duplicates it exists to bound.

use faults::name_stem;

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::spec::NicSpec;

/// Runs the `PV4xx` fault-plane checks. No-op without a watchdog.
#[must_use]
pub fn check_faultplane(spec: &NicSpec) -> Vec<Diagnostic> {
    let Some(wd) = &spec.watchdog else {
        return Vec::new();
    };
    let mut diags = Vec::new();

    // PV402: zero retries = unreachable recovery path.
    if wd.max_retries == 0 {
        diags.push(Diagnostic::new(
            Code::PV402,
            Severity::Error,
            Span::at("fault", "watchdog"),
            "failover is enabled but max_retries is 0: descriptors fail \
             permanently at the first deadline, so re-issued traffic can \
             never reach a replica",
        ));
    }

    // PV403: deadline must clear the slowest engine's service time.
    // Zero service times mean "unknown / data-dependent" and are
    // skipped, like the PV003 slack check does.
    if let Some(slowest) = spec
        .engines
        .iter()
        .filter(|e| !e.is_portal() && e.service_cycles.count() > 0)
        .max_by_key(|e| e.service_cycles.count())
    {
        if wd.deadline.count() <= slowest.service_cycles.count() {
            diags.push(Diagnostic::new(
                Code::PV403,
                Severity::Error,
                Span::at("fault", slowest.name.clone()),
                format!(
                    "watchdog deadline ({} cycles) does not clear engine \
                     '{}'s worst-case service time ({} cycles): healthy \
                     traffic is guaranteed to be re-issued",
                    wd.deadline.count(),
                    slowest.name,
                    slowest.service_cycles.count()
                ),
            ));
        }
    }

    // PV401: offload types without a replica.
    for e in spec.engines.iter().filter(|e| !e.is_portal()) {
        let replicas = spec
            .engines
            .iter()
            .filter(|o| {
                !o.is_portal()
                    && o.id != e.id
                    && o.class == e.class
                    && name_stem(&o.name) == name_stem(&e.name)
            })
            .count();
        if replicas == 0 {
            diags.push(Diagnostic::new(
                Code::PV401,
                Severity::Warn,
                Span::at("fault", e.name.clone()),
                format!(
                    "offload type '{}' ({:?}) has no replica: if engine \
                     {} goes DOWN its traffic degrades to host fallback",
                    name_stem(&e.name),
                    e.class,
                    e.id
                ),
            ));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::WatchdogConfig;
    use noc::Topology;
    use packet::{EngineClass, EngineId};
    use sim_core::Cycles;

    use crate::spec::EngineSpec;

    fn engine(id: u16, name: &str, class: EngineClass, service: u64) -> EngineSpec {
        let mut e = EngineSpec::new(EngineId(id), name, class);
        e.service_cycles = Cycles(service);
        e
    }

    fn armed_spec() -> NicSpec {
        let mut spec = NicSpec::new(Topology::mesh(4, 4));
        spec.engines.push(engine(0, "crc0", EngineClass::Asic, 16));
        spec.engines.push(engine(1, "crc1", EngineClass::Asic, 16));
        spec.watchdog = Some(WatchdogConfig::default());
        spec
    }

    #[test]
    fn no_watchdog_means_no_findings() {
        let mut spec = armed_spec();
        spec.watchdog = None;
        assert!(check_faultplane(&spec).is_empty());
    }

    #[test]
    fn clean_replicated_config_passes() {
        let diags = check_faultplane(&armed_spec());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pv401_warns_on_singleton_offload_type() {
        let mut spec = armed_spec();
        spec.engines.push(engine(2, "aes", EngineClass::Asic, 32));
        let diags = check_faultplane(&spec);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::PV401);
        assert_eq!(diags[0].severity, Severity::Warn);
        assert!(diags[0].message.contains("aes"), "{}", diags[0].message);
        // Different class with the same stem is NOT a replica.
        let mut spec = armed_spec();
        spec.engines[1].class = EngineClass::Dma;
        let diags = check_faultplane(&spec);
        assert_eq!(diags.len(), 2, "both singletons flagged: {diags:?}");
    }

    #[test]
    fn pv402_errors_on_zero_retry_failover() {
        let mut spec = armed_spec();
        spec.watchdog = Some(WatchdogConfig {
            max_retries: 0,
            ..WatchdogConfig::default()
        });
        let diags = check_faultplane(&spec);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PV402 && d.severity == Severity::Error));
    }

    #[test]
    fn pv403_errors_on_deadline_below_service_time() {
        let mut spec = armed_spec();
        spec.engines
            .push(engine(2, "kvs0", EngineClass::Fpga, 9000));
        spec.engines
            .push(engine(3, "kvs1", EngineClass::Fpga, 9000));
        // Default deadline is 4096 < 9000.
        let diags = check_faultplane(&spec);
        let pv403 = diags
            .iter()
            .find(|d| d.code == Code::PV403)
            .expect("PV403 fires");
        assert_eq!(pv403.severity, Severity::Error);
        assert!(pv403.message.contains("kvs"), "{}", pv403.message);
        // A deadline that clears the slowest engine passes.
        spec.watchdog = Some(WatchdogConfig {
            deadline: Cycles(20_000),
            ..WatchdogConfig::default()
        });
        assert!(!check_faultplane(&spec)
            .iter()
            .any(|d| d.code == Code::PV403));
    }
}
