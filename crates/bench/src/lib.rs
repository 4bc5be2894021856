//! # panic-bench — regenerating every table and figure
//!
//! Each module under [`experiments`] reproduces one artifact of the
//! paper (see DESIGN.md's experiment index). All of them expose
//! `run(&mut RunCtx) -> String` returning a rendered markdown table,
//! so the `repro` binary and the tests execute identical code.
//!
//! [`RunCtx::quick`] shortens simulations for CI; `quick = false` is
//! what EXPERIMENTS.md numbers are produced with. The context also
//! carries an optional [`trace::Tracer`] and
//! [`trace::MetricsRegistry`] (see `docs/TRACING.md`) that observing
//! experiments feed.
//!
//! The experiments that place PANIC beside a §2.3 incumbent state
//! their offered load once and feed every design through [`rig::feed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod fmt;
pub mod obs;
pub mod rig;

pub use fmt::TableFmt;
pub use obs::RunCtx;
