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
