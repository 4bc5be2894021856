//! # panic-core — the PANIC NIC
//!
//! This crate assembles the paper's three components (§3) into a
//! runnable NIC model:
//!
//! 1. **Self-contained offload engines** — [`engines`] tiles wrapped
//!    with local scheduling queues and lookup-table routing;
//! 2. **a logical switch** — the [`noc`] 2D mesh plus the heavyweight
//!    [`rmt`] pipeline, reachable through *portal tiles* on the mesh;
//! 3. **a logical scheduler** — slack values computed by the pipeline
//!    program and enforced by every tile's `sched` queue.
//!
//! * [`nic`] — [`nic::PanicNic`], a *datapath* plus optional *planes*,
//!   one file per question:
//!
//!   | question | `src/nic/` |
//!   |---|---|
//!   | what is the NIC's state, and when is it idle? | `mod.rs` (the shell) |
//!   | how is a NIC assembled and linted? | `builder.rs` |
//!   | how does a copy **enter** (`ingress`), move (`tick`) and **leave** (`exit`)? | `datapath.rs` |
//!   | how does a copy get **re-issued**, an engine isolated, a fault fired — and does [`Conservation`] close? | `faultplane.rs` |
//!   | how does a copy get **admitted** and released, its tenant's ledger closed? | `datapath.rs` (`ingress`, `exit`), `tenants.rs` |
//!   | how does a copy cross to another NIC? | `fabric.rs` |
//!   | what may the management plane change mid-run? | `ctrl.rs` |
//!   | what is exported under which metric name? | `metrics.rs` |
//!
//! * [`programs`] — canonical RMT programs: the §3.2 KVS program, a
//!   chain-everything program for topology experiments, and a plain
//!   host-delivery program.
//! * [`scenarios`] — end-to-end experiment harnesses built on the NIC:
//!   the multi-tenant KVS of §3.2 and a synthetic chain workload used
//!   by the Table 3 and HOL-blocking reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod nic;
pub mod programs;
pub mod scenarios;

pub use nic::{Conservation, NicBuilder, NicConfig, NicStats, PanicNic};
pub use programs::{
    chain_program, host_delivery_program, kvs_program, KvsProgramSpec, SlackProfile,
};
