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
//! An experiment that compares designs states its offered load once
//! and feeds every design through [`rig::feed`] (whole NICs) or
//! [`rig::uniform_load`] (bare meshes and the crossbar).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod fmt;
pub mod obs;
pub mod rig;

pub use fmt::TableFmt;
pub use obs::RunCtx;
