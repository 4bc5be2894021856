//! End-to-end experiment harnesses built on [`PanicNic`](crate::nic).
//!
//! * [`kvs`] — the §3.2 multi-tenant geodistributed KVS: IPSec on WAN
//!   traffic, on-NIC location cache with RDMA replies, host path for
//!   misses, and slack-scheduled DMA contention.
//! * [`chain`] — synthetic offload-chain traffic: every frame routed
//!   through `L` engines then out an Ethernet port. This is the
//!   workload behind the Table 3 cross-check and the chain-length
//!   sweep benches.

pub mod chain;
pub mod kvs;
#[cfg(test)]
mod streaming;

/// Summarizes a live [`workloads::arrivals::ArrivalProcess`] into the
/// plain-data [`panic_verify::ArrivalSpec`] the `PV5xx` fast-forward
/// lints inspect. The scenarios' `lint_spec` builders use this so
/// `repro`'s preflight lint can warn when a configuration pins the
/// simulation to stepped speed (see `docs/PERF.md`).
pub(crate) fn arrival_lint_spec(
    name: impl Into<String>,
    arrivals: &workloads::arrivals::ArrivalProcess,
) -> panic_verify::ArrivalSpec {
    use workloads::arrivals::ArrivalProcess;
    match arrivals {
        ArrivalProcess::Periodic { num, den, .. } => {
            panic_verify::ArrivalSpec::periodic(name, *num, *den)
        }
        ArrivalProcess::Bernoulli { .. } | ArrivalProcess::OnOff { .. } => {
            panic_verify::ArrivalSpec::stochastic(name)
        }
    }
}

/// The clock policy the scenarios' `set_fastforward` switch selects.
pub(crate) fn advance_mode(fastforward: bool) -> sim_core::clock::Advance {
    use sim_core::clock::Advance;
    if fastforward {
        Advance::Merged
    } else {
        Advance::Stepped
    }
}

pub use chain::{ChainReport, ChainScenario, ChainScenarioConfig};
pub use kvs::{KvsReport, KvsScenario, KvsScenarioConfig, TenantReport};
