//! # tenancy — per-tenant virtual NICs over the shared PANIC datapath
//!
//! The paper's comparative claim (Table 2, §3.2) is that a switch-based
//! NIC uniquely offers *performance isolation* between competing
//! offload chains. Demonstrating that requires a tenant concept the
//! base simulator does not have: the PIFO, DRR, and admission
//! primitives in `sched` are single-principal. This crate adds the
//! missing control surface:
//!
//! * [`spec`] — declarative per-tenant virtual NICs:
//!   [`VNicSpec`] (weight, optional token-bucket rate limit,
//!   credit quota, engine entitlements, declared offload chains)
//!   assembled into a [`TenancyConfig`]. Plain data with public
//!   fields, like `panic-verify`'s `NicSpec`, so the `PV6xx` lints can
//!   see the whole configuration before anything is built.
//! * [`runtime`] — the enforcement engine the NIC shell drives once
//!   per cycle: per-tenant ingress queues with
//!   *backpressure-not-drop* semantics, token-bucket rate limiting,
//!   credit-based admission against both a per-tenant quota and the
//!   shared buffer pool, deficit round-robin across backlogged
//!   tenants, and start-time-fair rank spreading through a
//!   [`sched::Pifo`] so the release order within a cycle is
//!   weighted-fair. Plus per-tenant accounting: ledger counters, a
//!   [`TenantConservation`] identity extending the fault plane's
//!   copy-level invariant, latency/wait histograms, and trace/metrics
//!   export.
//!
//! The whole plane hangs off one `Option<TenancyConfig>` on the NIC
//! builder: untenanted runs never construct a [`TenancyRuntime`] and
//! stay byte-identical to a build without this crate. Quiescence
//! fast-forward is supported through the same
//! `next_activity`/`skip_idle` contract every other clocked layer
//! implements (`docs/PERF.md`).
//!
//! See `docs/TENANCY.md` for the spec format, the exact enforcement
//! points, and the per-tenant conservation identity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod runtime;
pub mod spec;

pub use runtime::{
    ExitKind, Stamps, SubmitSource, TenancyRuntime, TenantConservation, TenantLedger, COUNTER_KEYS,
};
pub use spec::{RateSpec, TenancyConfig, VNicSpec};
