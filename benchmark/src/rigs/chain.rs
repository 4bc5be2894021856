//! `chain_saturated` / `chain_gap`: [`ChainScenario`] on the 6×6 mesh
//! with 64-bit channels and two-hop chains, at two offered loads.

use packet::message::Priority;
use panic_core::scenarios::{ChainScenario, ChainScenarioConfig};
use trace::{MetricsRegistry, Tracer};

use super::{Counters, Mode, Outcome, Rig};
use crate::spans::Recorder;

/// Drain budget, cycles. At the benchmarked loads the NIC empties in a
/// few hundred; a rig still busy after this many is reported failed.
const DRAIN_CAP: u64 = 100_000;

/// The chain scenario plus the clock the scenario does not expose.
#[derive(Debug)]
pub struct ChainRig {
    scenario: ChainScenario,
    now: u64,
}

impl ChainRig {
    /// Builds the 6×6 / 64-bit / `chain_len = 2` scenario offering
    /// `offered_fraction` of min-frame line rate on each port.
    #[must_use]
    pub fn build(seed: u64, offered_fraction: f64) -> ChainRig {
        ChainRig {
            scenario: ChainScenario::new(ChainScenarioConfig {
                chain_len: 2,
                offered_fraction,
                seed,
                ..ChainScenarioConfig::default()
            }),
            now: 0,
        }
    }
}

impl Rig for ChainRig {
    fn set_mode(&mut self, mode: Mode) {
        self.scenario.set_event_driven(mode == Mode::Event);
        self.scenario.set_fastforward(mode != Mode::Stepped);
    }

    fn attach_tracer(&mut self, tracer: &Tracer) {
        self.scenario.attach_tracer(tracer);
    }

    fn advance(&mut self, cycles: u64, _rec: &Recorder) {
        self.scenario.run(cycles);
        self.now += cycles;
    }

    fn drain(&mut self, _rec: &Recorder) {
        self.scenario.drain(DRAIN_CAP);
    }

    fn counters(&self) -> Counters {
        let stats = self.scenario.nic().stats();
        Counters {
            now: self.now,
            offered: stats.rx_frames,
            delivered: stats.tx_wire,
            skipped: self.scenario.cycles_skipped(),
        }
    }

    fn outcome(&self) -> Outcome {
        let nic = self.scenario.nic();
        let report = self.scenario.report();
        let mut gate_failures = Vec::new();
        if !nic.is_quiescent() {
            gate_failures.push(format!("NIC not quiescent after a {DRAIN_CAP}-cycle drain"));
        }
        let c = nic.conservation();
        if !c.holds() {
            gate_failures.push(format!("NIC conservation violated: {c:?}"));
        }
        Outcome {
            attempted: report.offered,
            failed: report.offered - report.delivered.min(report.offered),
            latency: nic.stats().latency_of(Priority::Normal).summary(),
            gate_failures,
        }
    }

    fn export_metrics(&self, m: &mut MetricsRegistry) {
        self.scenario.export_metrics(m);
    }
}
