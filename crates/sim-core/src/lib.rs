//! # sim-core — deterministic cycle-level simulation kernel
//!
//! The PANIC reproduction simulates a NIC at cycle granularity: routers,
//! match+action stages, and offload engines all advance one clock cycle at
//! a time. This crate provides the shared substrate those models are built
//! on:
//!
//! * [`time`] — strongly-typed cycles, frequencies, durations, and
//!   bandwidths, plus the arithmetic that converts between them. All of
//!   the paper's Table 2/Table 3 unit math lives on these types.
//! * [`rng`] — small, seedable, splittable PRNGs. Every stochastic
//!   component derives its stream from a root seed so a run is a pure
//!   function of its configuration.
//! * [`events`] — a deterministic future-event queue for long-latency
//!   completions (DMA round trips, host interrupts).
//! * [`stats`] — counters and log-bucketed histograms used to report
//!   totals and latency percentiles.
//! * [`clock`] — the one clock driver: the `Driven` component trait and
//!   `drive`, which steps or fast-forwards it.
//! * [`wheel`] — a hierarchical timer wheel nothing in the simulator
//!   schedules on; public only for the benchmark's
//!   `sim-core.wheel_ns_per_event` kernel until the benchmark-only PR.
//! * [`bits`] — set-bit iteration for the occupancy masks the mesh and
//!   the NIC tick over.
//!
//! Nothing in this crate knows about packets or NICs; it is a generic
//! discrete-time kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bits;
pub mod clock;
pub mod events;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wheel;

pub use clock::{drive, Advance, Driven};
pub use events::EventQueue;
pub use rng::{SimRng, SplitMix64};
pub use stats::{Counter, Histogram, Summary};
pub use time::{Bandwidth, ByteSize, Cycle, Cycles, Freq, Time};
