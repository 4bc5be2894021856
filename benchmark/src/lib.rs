//! Benchmark of the PANIC simulator: seven workloads, eight end-to-end
//! metrics, and a per-layer table measured from outside the crates
//! under test. See `README.md` in this directory.

pub mod alloc;
pub mod calib;
pub mod catalog;
pub mod cli;
pub mod compare;
pub mod e2e;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod report;
pub mod rigs;
pub mod spans;
pub mod stats;
pub mod workloads;
