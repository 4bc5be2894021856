//! # workloads — synthetic traffic for every experiment
//!
//! The paper's analyses assume specific traffic: minimal-size frames
//! at line rate (Table 2), uniform random tile-to-tile traffic
//! (Table 3), and a multi-tenant geodistributed KVS with a WAN/IPSec
//! component (§2.2, §3.2). This crate generates all of them,
//! deterministically from a seed:
//!
//! * [`arrivals`] — the periodic arrival process every workload offers
//!   its traffic through: an exact `num/den` packets per cycle.
//! * [`zipf`] — Zipf-distributed key popularity, the standard KVS
//!   skew model, plus seeded per-tenant key-space partitioning
//!   ([`zipf::PartitionedZipf`]) for the tenancy experiments.
//! * [`frames`] — frame factories: addressed, parseable Ethernet/IPv4/
//!   UDP frames of configurable size.
//! * [`kvs`] — the multi-tenant KVS request stream of the paper's
//!   running example; WAN-bound requests are flagged so the scenario
//!   can wrap them in ESP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod frames;
pub mod kvs;
pub mod zipf;

pub use arrivals::ArrivalProcess;
pub use frames::FrameFactory;
pub use kvs::{KvsEvent, KvsWorkload, KvsWorkloadConfig, TenantSpec};
pub use zipf::{PartitionedZipf, Zipf};
