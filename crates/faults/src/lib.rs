//! The PANIC fault plane: deterministic fault injection and recovery
//! bookkeeping.
//!
//! PANIC's headline claims — isolation under multi-tenant load and a
//! lossless credit-based NoC (§3.1.2) — are argued in the paper for
//! the fault-free case only. A production NIC must keep those
//! guarantees when an engine wedges, a link degrades, or credits leak.
//! This crate supplies the machinery the simulator uses to re-validate
//! every conservation and isolation claim *under injected faults*.
//!
//! Three mechanisms, each written once, and two instantiations of
//! them — one NIC, and a rack of NICs:
//!
//! * **Plan + schedule** ([`schedule`]): a [`Plan`] of [`Event`]s over
//!   some [`Kind`] of fault — stable order by cycle, a spec DSL with
//!   one clause scanner and one range table, a `Display` round trip —
//!   and the [`Schedule`] a runtime fires it from. [`FaultPlan`]
//!   ([`plan`]: engine stall / crash / degradation, scheduler refusal,
//!   NoC link slowdown / credit hold / flit drop with credit leak) and
//!   [`FabricFaultPlan`] ([`fabric`]: link flaps / latency degrades /
//!   credit freezes / partitions, whole-member crashes) are the two
//!   kind enums plus their seeded generators.
//! * **Retry ledger** (private `ledger`): per-id deadlines on a wheel,
//!   bounded re-issue with the deadline doubling per retry, first
//!   terminal report wins.
//!   [`Watchdog`] tracks descriptors inside a NIC and *fails* one whose
//!   budget runs out; [`HopLedger`] tracks cross-NIC crossings, only
//!   disarms them, and opens a new generation when a message crosses
//!   again.
//! * **Policy**: [`WatchdogConfig`] (deadlines, retry budget, engine
//!   health; PV4xx lints) for the NIC; for the rack a
//!   [`FabricFaultConfig`] carries only the plan, and the hop ledger
//!   runs the fixed [`HOP_TIMEOUT`] and [`HOP_MAX_RETRIES`] (PV804
//!   lints the timeout). `crates/fabric` threads the config through
//!   the ToR.
//!
//! The crate is deliberately *mechanism only*: it owns no simulator
//! state. `panic-core` threads the plan into the datapath and drives
//! the watchdog; `panic-verify` lints the configuration; the `repro`
//! CLI parses `--faults <seed|spec>` into a [`FaultArg`]. Everything
//! is seeded through [`sim_core::rng::SimRng`], so the same seed
//! always produces the same faults, the same detections, and the same
//! recoveries — byte-identical traces included.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fabric;
mod ledger;
pub mod plan;
pub mod schedule;
pub mod watchdog;

pub use fabric::{
    FabricFaultConfig, FabricFaultEvent, FabricFaultKind, FabricFaultPlan, FabricFaultUniverse,
    HopLedger, HopOutcome, HopRetry, HOP_MAX_RETRIES, HOP_TIMEOUT,
};
pub use plan::{FaultArg, FaultEvent, FaultKind, FaultPlan, FaultUniverse};
pub use schedule::{Event, Kind, Plan, Schedule};
pub use watchdog::{CompleteOutcome, Expiry, ExpiryAction, Watchdog, WatchdogConfig};

/// The offload-type stem of an engine name: the name with any trailing
/// ASCII digits stripped. Replica engines of the same offload type are
/// conventionally named `crc0`, `crc1`, ... — the failover policy (and
/// the PV401 lint) treat engines with equal stems *and* equal
/// [`packet::EngineClass`] as interchangeable replicas.
///
/// ```
/// assert_eq!(faults::name_stem("crc0"), "crc");
/// assert_eq!(faults::name_stem("off12"), "off");
/// assert_eq!(faults::name_stem("dma"), "dma");
/// assert_eq!(faults::name_stem("aes128"), "aes");
/// ```
#[must_use]
pub fn name_stem(name: &str) -> &str {
    name.trim_end_matches(|c: char| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_strips_trailing_digits_only() {
        assert_eq!(name_stem("off0"), "off");
        assert_eq!(name_stem("eth1"), "eth");
        assert_eq!(name_stem("kvs"), "kvs");
        assert_eq!(name_stem("v2ray9"), "v2ray");
        assert_eq!(name_stem(""), "");
        assert_eq!(name_stem("123"), "");
    }
}
