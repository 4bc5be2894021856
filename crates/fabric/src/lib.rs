//! `panic-fabric`: a rack-scale fabric of PANIC NICs behind one
//! simulated top-of-rack switch.
//!
//! The paper argues a programmable NIC should *be* a programmable
//! switch; a rack of them is then a two-level switching fabric, and
//! the natural next question is whether the offload-chain abstraction
//! survives the hop across the ToR. This crate answers it in the
//! simulator: a [`Fabric`] owns N complete [`panic_core::PanicNic`]s
//! (each with its own mesh, engines, fault plane, and tenancy
//! runtime), wires them together with explicit directed links
//! ([`panic_verify::LinkSpec`]: propagation latency, serialization
//! rate, credit window), and lets chain hops address engines on
//! *other* members through remote-encoded [`packet::EngineId`]s —
//! the same 6-byte hop wire format, one heavyweight RMT pass
//! fleet-wide.
//!
//! # Execution model
//!
//! Members synchronize at *epoch boundaries*: the run is cut into
//! epochs no longer than the smallest link latency, each member
//! simulates an epoch completely independently (its own cycle loop,
//! its own quiescence fast-forward — the PR that introduced
//! `run_ff` proved chunked calls byte-identical to one long call),
//! and messages cross NICs only in the exchange at each boundary.
//! One epoch loop runs every member in index order on the calling
//! thread, then the ToR's exchange; members share nothing *within* an
//! epoch, so that order is the only one there is — the determinism the
//! `rack` experiment's golden tests pin. See `docs/FABRIC.md` for the
//! full synchronization argument.
//!
//! # Conservation
//!
//! Each member's copy-conservation identity gains a `remote_rx`
//! source and a `remote_tx` sink; [`Fabric::conservation`] composes
//! them with the copies still sitting on links into a fleet-wide
//! identity ([`FleetConservation`]) that must close exactly.
//!
//! # Fault plane
//!
//! Every fabric owns one simulated ToR (`tor.rs`) and runs the same
//! boundary exchange over it; [`FabricBuilder::fault_plane`] arms it
//! with a `faults::FabricFaultConfig`: seeded link flaps / latency
//! degrades / credit freezes / partitions and whole-member crashes
//! with drain-before-down and recovery. Armed, every cross-NIC hop
//! gets a deadline in its origin member's `faults::HopLedger`
//! (exponential-backoff retransmission, receiver-side duplicate
//! suppression); the ToR reroutes around down links when the topology
//! offers an alternate path, re-points chains addressed to a crashed
//! or permanently cut-off member at a same-signature replica (or the
//! host-fallback path), and parks what it cannot move. The
//! conservation identity gains matching terms and its fabric closure
//! still holds at every instant — and a fabric whose armed plan never
//! fires stays byte-identical to an unarmed one, traces and metrics
//! included. [`Fabric::drain`] runs a fabric to quiescence, or returns
//! a [`DrainError`] saying what still holds work.
//!
//! # Files
//!
//! `builder.rs` ([`FabricBuilder`]), `fleet.rs` ([`Fabric`]: the epoch
//! loop, drain, quiescence, conservation, metrics), `tor.rs` (links,
//! fault windows, member phases,
//! hop ledgers, parked copies: deliver / apply / exchange),
//! `conservation.rs` ([`FleetStats`], [`ChaosStats`],
//! [`FleetConservation`]), `driver.rs` ([`NicDriver`]).
//!
//! # Configuration
//!
//! [`FabricBuilder`] mirrors `panic-core`'s `NicBuilder`: member
//! configurations go in as builders, [`FabricBuilder::to_spec`]
//! extracts a plain-data [`panic_verify::FabricSpec`], and
//! [`FabricBuilder::build`] refuses configurations with `PV7xx` (or
//! member-level) error findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod conservation;
mod driver;
mod fleet;
mod tor;

pub use builder::FabricBuilder;
pub use conservation::{ChaosStats, FleetConservation, FleetStats};
pub use driver::{NicDriver, PeriodicDriver};
pub use fleet::{DrainError, Fabric};
pub use panic_verify::{FabricSpec, LinkSpec};
