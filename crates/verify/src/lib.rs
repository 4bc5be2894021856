//! `panic-verify`: a static configuration & program verifier for PANIC
//! NIC models.
//!
//! Hardware teams lint their configurations before tape-out; this crate
//! does the moral equivalent for the simulated NIC. Given a plain-data
//! [`NicSpec`] describing the mesh, the engines and (optionally) the
//! RMT program, the watchdog, the workload and the tenancy plane, it
//! runs its families of checks and returns a [`Report`] of
//! [`Diagnostic`]s with stable codes:
//!
//! * **`PV0xx` — chains & placement** ([`checks::chain`]): hop targets
//!   exist (PV001), worst-case chain length fits the header and the
//!   mesh's analytically sustainable length — the Table 3 model
//!   (PV002), slack budgets are feasible against engine service times
//!   (PV003), and the engine set physically fits the mesh (PV004).
//! * **`PV1xx` — NoC** ([`checks::noc`]): XY routing's
//!   channel-dependency graph is proved acyclic per Dally & Seitz
//!   (PV101), and router buffers grant at least one credit (PV102)
//!   with sane sizing (PV103).
//! * **`PV2xx` — RMT programs** ([`checks::rmt`]): the parse graph is a
//!   DAG (PV201), match keys read fields something writes (PV202), the
//!   program fits the pipeline's stages and table SRAM (PV203), and
//!   the NIC has at least one portal tile (PV204).
//! * **`PV4xx` — fault plane** ([`checks::faultplane`], armed
//!   watchdogs only): failover has replicas to fail over *to* (PV401),
//!   a non-zero retry budget (PV402), and a descriptor deadline
//!   clearing the slowest engine's service time (PV403).
//! * **`PV5xx` — simulator performance** ([`checks::perf`], declared
//!   workloads only): the traffic sources leave idle windows for
//!   quiescence fast-forward to skip — a periodic source arriving
//!   every cycle pins the run to stepped speed (PV501; see
//!   `docs/PERF.md`).
//! * **`PV6xx` — tenancy** ([`checks::tenancy`], tenanted NICs only):
//!   tenant ids are unique (PV601), some vNIC has a non-zero weight
//!   (PV602), credit quotas fit the shared pool (PV603), vNIC chains
//!   name only entitled engines (PV604), and vNIC names fit a
//!   telemetry frame (PV605).
//! * **`PV7xx` — rack fabric** ([`checks::fabric`], [`FabricSpec`]s
//!   only, via [`verify_fabric`]): remote chain hops resolve to real
//!   members and engines (PV701), inter-NIC links are routable
//!   (PV702), declared in both directions (PV703), and every remote
//!   crossing has a link to carry it (PV704); see `docs/FABRIC.md`.
//! * **`PV8xx` — fabric fault plane** ([`checks::fabric`], armed
//!   [`FabricSpec::faults`] only): failover pins name a reachable
//!   replica (PV802), and the hop retry timeout clears the slowest
//!   link's round trip (PV804).
//!
//! Severities: an `Error` means the simulation would deadlock, panic,
//! or silently break a modeled hardware invariant; a `Warn` means the
//! run proceeds but behaves pathologically; `Info` is context.
//!
//! The usual entry point is `panic-core`'s builder, which lints by
//! default before constructing a NIC; the `panic-lint` CLI lints the
//! shipped scenarios by name. Using the library directly:
//!
//! ```
//! use noc::Topology;
//! use packet::{EngineClass, EngineId};
//! use panic_verify::{verify, EngineSpec, NicSpec};
//!
//! let mut spec = NicSpec::new(Topology::mesh(4, 4));
//! spec.engines.push(EngineSpec::new(EngineId(0), "portal", EngineClass::Rmt));
//! let report = verify(&spec);
//! assert!(report.is_clean(), "{}", report.render_human());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checks;
pub mod diag;
pub mod spec;

pub use checks::{
    check_chain, check_fabric, check_faultplane, check_noc, check_perf, check_rmt, check_tenancy,
    verify, verify_fabric,
};
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use spec::{ArrivalSpec, EngineSpec, FabricSpec, LinkSpec, NicSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use noc::Topology;
    use packet::{EngineClass, EngineId};

    /// End-to-end: a deliberately broken spec trips every family.
    #[test]
    fn verify_aggregates_all_families() {
        let mut spec = NicSpec::new(Topology::mesh(2, 2));
        spec.router.input_buffer_flits = 0; // PV102
        let dma = EngineSpec::new(EngineId(0), "dma", EngineClass::Dma);
        spec.engines.push(dma); // no portal -> PV204
        spec.watchdog = Some(faults::WatchdogConfig {
            max_retries: 0, // PV402
            ..faults::WatchdogConfig::default()
        }); // the lone "dma" engine also has no replica -> PV401
        spec.arrivals = vec![ArrivalSpec::periodic("burst", 1, 1)]; // PV501
        let report = verify(&spec);
        for code in [
            Code::PV102,
            Code::PV204,
            Code::PV401,
            Code::PV402,
            Code::PV501,
        ] {
            assert!(
                report.has(code),
                "missing {code}:\n{}",
                report.render_human()
            );
        }
        assert!(!report.is_clean());
        // Errors sort before warnings and notes.
        assert_eq!(report.diagnostics()[0].severity, Severity::Error);
    }

    /// The paper's reference configuration is clean (modulo Info).
    #[test]
    fn reference_config_has_no_errors() {
        let mut spec = NicSpec::new(Topology::mesh(4, 4));
        spec.engines
            .push(EngineSpec::new(EngineId(0), "portal", EngineClass::Rmt));
        let report = verify(&spec);
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.warn_count(), 0, "{}", report.render_human());
    }
}
