//! # baselines — the incumbent programmable-NIC architectures
//!
//! §2.3 critiques three existing designs (Figure 2); reproducing the
//! paper's comparisons requires *implementing* them, on the same
//! engines and workloads as PANIC:
//!
//! * [`pipeline_nic`] — Figure 2a: offloads in a fixed line, a "bump
//!   in the wire". Exhibits pass-through waste and head-of-line
//!   blocking at slow offloads (§2.3.1).
//! * [`manycore`] — Figure 2b: embedded cores orchestrate every
//!   packet, adding ~10 µs of software latency (§2.3.2, citing
//!   Firestone et al.).
//! * [`rmt_only`] — Figure 2c: a FlexNIC-style match+action pipeline
//!   with no engines; complex offloads are inexpressible and must be
//!   emulated by recirculation or punted to the host (§2.3.3).
//!
//! The three are wirings of shared parts, not three programs:
//!
//! ```text
//!            shell::Baseline<D>  ledger · tracer · metrics · conservation
//!           ┌────────────────────────────┼─────────────────────────────┐
//!   PipelineNic                     ManycoreNic                    RmtOnlyNic
//!   rx ─▶[S]─▶[S]─▶[S]─▶ wire       rx ─hash─▶[S] core ─┐          rx ─▶ RmtPipeline ─▶ wire
//!    fixed line, tail-first                   [S] core ─┼▶[S]▶[S]▶ wire     │  ▲     │
//!    walk, 1-cycle bypass                     [S] core ─┘ shared hw         │  └─────┤ recirculate
//!                                                                           └▶ host ─┘ punt
//!   [S] = station::Station<T>: one FIFO queue + one server, complete-then-start each tick
//! ```
//!
//! [`shell::Baseline`] owns what every incumbent reports — accepted /
//! refused / dropped / consumed / delivered counts, per-class latency,
//! the egress stream, trace tracks, `export_metrics`, the
//! [`shell::BaselineConservation`] identities — so benches place them
//! side by side with PANIC; a [`shell::Design`] only says how packets
//! move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod manycore;
pub mod pipeline_nic;
pub mod rmt_only;
pub mod shell;
mod station;

pub use manycore::{ManycoreConfig, ManycoreNic};
pub use pipeline_nic::{PipelineNic, PipelineNicConfig, StageSpec};
pub use rmt_only::{RmtOnlyConfig, RmtOnlyNic};
pub use shell::{Baseline, BaselineConservation};
