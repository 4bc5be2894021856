//! The simulators under test, each behind one small interface.
//!
//! A [`Rig`] is one constructed scenario. The harness builds it from
//! the seed (that construction is what `setup_s` times), advances its
//! clock in slices, drains it, and reads what happened — all through
//! the simulator crates' public API. Nothing here reaches into a
//! crate's private state.

pub mod chain;
pub mod ctl;
pub mod kvs;
pub mod rack;

use std::collections::BTreeMap;

use sim_core::stats::Summary;
use trace::{MetricsRegistry, Tracer};

use crate::spans::Recorder;

/// How the clock advances (byte-identical results by contract; the
/// benchmark asserts it on every run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// What a user gets without flags: quiescence fast-forward.
    Default,
    /// The timer-wheel event kernel.
    Event,
    /// One tick per cycle — the reference semantics.
    Stepped,
}

/// Monotone counters read at window boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated clock.
    pub now: u64,
    /// Operations offered so far (frames; KVS: requests).
    pub offered: u64,
    /// Operations completed so far (frames on a wire egress; KVS:
    /// verified replies).
    pub delivered: u64,
    /// NIC-cycles the run mode skipped instead of ticking. A fabric
    /// sums over members (a fleet-wide jump of `d` cycles counts
    /// `members × d`), so `members × now − skipped` is ticks executed.
    pub skipped: u64,
}

/// What a drained rig reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations whose fate is known.
    pub attempted: u64,
    /// Operations dropped, lost, unrouted, answered with wrong bytes,
    /// or still inside the system after the bounded drain.
    pub failed: u64,
    /// Operation latency over the whole run, simulated cycles.
    pub latency: Summary,
    /// Correctness gates that tripped (empty = all green). Any entry
    /// fails every operation of the workload.
    pub gate_failures: Vec<String>,
}

/// One constructed scenario.
pub trait Rig {
    /// Selects the run mode for later [`Rig::advance`]/[`Rig::drain`].
    fn set_mode(&mut self, mode: Mode);
    /// Attaches a simulator tracer (the `trace` layer's cost).
    fn attach_tracer(&mut self, tracer: &Tracer);
    /// Advances the simulated clock by `cycles` with arrivals on.
    /// `rec` is for rigs whose stepping loop lives in the harness.
    fn advance(&mut self, cycles: u64, rec: &Recorder);
    /// Bounded drain with arrivals off (where the scenario allows).
    fn drain(&mut self, rec: &Recorder);
    /// Window-boundary counters.
    fn counters(&self) -> Counters;
    /// Final accounting and correctness gates.
    fn outcome(&self) -> Outcome;
    /// The scenario's full metrics registry. Fabric members export
    /// under `nic<i>.`; see [`read_counts`].
    fn export_metrics(&self, m: &mut MetricsRegistry);
    /// NICs simulated (per-cycle shares divide by this).
    fn members(&self) -> u64 {
        1
    }
    /// Layer-specific counts not in the registry (fabric, faults,
    /// ctrl), as `(metric name, value)`.
    fn extra_counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Everything observable that must not depend on run mode, thread
/// count, or repetition: counters, outcome, and the metrics JSON.
#[must_use]
pub fn signature(rig: &dyn Rig) -> String {
    let mut m = MetricsRegistry::new();
    rig.export_metrics(&mut m);
    let c = rig.counters();
    let o = rig.outcome();
    format!(
        "now={} offered={} delivered={} attempted={} failed={} latency={:?} gates={:?} {}",
        c.now,
        c.offered,
        c.delivered,
        o.attempted,
        o.failed,
        o.latency,
        o.gate_failures,
        m.to_json()
    )
}

/// What a rig's counters say, in the shape the per-layer
/// derivations read: registry counters summed over fabric members
/// (any `nic<i>.` prefix removed), plus the few values that are a
/// maximum or live outside the registry.
#[derive(Debug, Clone)]
pub struct RunCounts {
    /// Window-boundary counters at the moment of reading.
    pub end: Counters,
    /// NICs simulated.
    pub members: u64,
    /// Registry counters, summed over members.
    pub flat: BTreeMap<String, u64>,
    /// Deepest any scheduling queue got.
    pub peak_depth_max: u64,
    /// [`Rig::extra_counts`].
    pub extra: Vec<(&'static str, f64)>,
}

impl RunCounts {
    /// Summed registry counter `name` (0 when the run never made it).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.flat.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix` and ends
    /// with `suffix` (`engine.*.processed`, `rmt.stage.*.hits`).
    #[must_use]
    pub fn sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.flat
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Extra count `name` (0 when the rig has no such layer).
    #[must_use]
    pub fn extra(&self, name: &str) -> f64 {
        self.extra
            .iter()
            .find_map(|(k, v)| (*k == name).then_some(*v))
            .unwrap_or(0.0)
    }
}

/// Strips a fabric member prefix (`nic3.noc.flit_hops` →
/// `noc.flit_hops`); other names pass through (`nic.tx_wire` is the
/// NIC's own counter, not a member prefix).
fn member_local(name: &str) -> &str {
    name.strip_prefix("nic")
        .and_then(|rest| {
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            (digits > 0)
                .then(|| rest[digits..].strip_prefix('.'))
                .flatten()
        })
        .unwrap_or(name)
}

/// Reads a rig's counters.
#[must_use]
pub fn read_counts(rig: &dyn Rig) -> RunCounts {
    let mut m = MetricsRegistry::new();
    rig.export_metrics(&mut m);
    let mut flat = BTreeMap::new();
    let mut peak_depth_max = 0;
    for (name, v) in m.counters() {
        let local = member_local(name);
        if local.ends_with(".sched.peak_depth") {
            peak_depth_max = peak_depth_max.max(v);
        }
        *flat.entry(local.to_string()).or_insert(0) += v;
    }
    RunCounts {
        end: rig.counters(),
        members: rig.members(),
        flat,
        peak_depth_max,
        extra: rig.extra_counts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_prefixes_are_stripped_and_nothing_else() {
        assert_eq!(member_local("nic0.noc.flit_hops"), "noc.flit_hops");
        assert_eq!(member_local("nic12.noc.flit_hops"), "noc.flit_hops");
        assert_eq!(member_local("nic.tx_wire"), "nic.tx_wire");
        assert_eq!(member_local("fabric.forwarded"), "fabric.forwarded");
    }
}
