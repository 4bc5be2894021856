//! `kvs_mixed`: [`KvsScenario`] with three tenants — reads beside
//! writes beside IPSec.
//!
//! Tenants 1 (LAN, 95 % GET, 64 B values) and 2 (WAN over ESP, 50 %
//! GET, 256 B) are `KvsScenarioConfig::two_tenant_default`; tenant 3
//! (LAN, 90 % SET, uniform keys, 512 B) adds the write-heavy stream
//! that contends for the DMA queue. Request rates are one per 300 /
//! 200 / 250 cycles: the highest round numbers at which the DMA
//! scheduling queue sheds nothing on any of seeds 1–12.
//!
//! The scenario has no way to stop its clients, so there is no true
//! drain: the "drain" is a fixed tail of steady-state cycles, and a
//! request still in flight when it ends is *censored* — neither
//! attempted nor failed — provided the number in flight is what
//! Little's law allows (a gate below). An operation is a GET whose
//! reply arrived; it fails if the reply's value bytes are wrong. SETs
//! are load, checked through the values later GETs return.

use packet::message::{Priority, TenantId};
use panic_core::scenarios::{KvsScenario, KvsScenarioConfig};
use sim_core::stats::Summary;
use trace::{MetricsRegistry, Tracer};
use workloads::arrivals::ArrivalProcess;
use workloads::kvs::TenantSpec;

use super::{Counters, Mode, Outcome, Rig};
use crate::spans::Recorder;

/// Steady-state tail run after the timed window, cycles: a dozen
/// host-path round trips, so every request issued in the window has
/// been answered when the rig is read.
const TAIL_CYCLES: u64 = 40_000;

/// The KVS scenario plus the clock it does not expose.
#[derive(Debug)]
pub struct KvsRig {
    scenario: KvsScenario,
    now: u64,
}

impl KvsRig {
    /// Builds the three-tenant scenario; `seed` drives key choice and
    /// the GET/SET draw.
    #[must_use]
    pub fn build(seed: u64) -> KvsRig {
        let mut config = KvsScenarioConfig::two_tenant_default();
        config.seed = seed;
        config.tenants.push(TenantSpec {
            tenant: TenantId(3),
            arrivals: ArrivalProcess::periodic(1, 250),
            priority: Priority::Normal,
            get_ratio: 0.1,
            wan: false,
            value_size: 512,
            zipf_theta: Some(0.0),
        });
        KvsRig {
            scenario: KvsScenario::new(config),
            now: 0,
        }
    }
}

impl Rig for KvsRig {
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

    fn drain(&mut self, rec: &Recorder) {
        self.advance(TAIL_CYCLES, rec);
    }

    fn counters(&self) -> Counters {
        let report = self.scenario.report();
        Counters {
            now: self.now,
            offered: report.tenants.iter().map(|t| t.gets + t.sets).sum(),
            delivered: report.tenants.iter().map(|t| t.replies_ok).sum(),
            skipped: self.scenario.cycles_skipped(),
        }
    }

    fn outcome(&self) -> Outcome {
        let report = self.scenario.report();
        let ok: u64 = report.tenants.iter().map(|t| t.replies_ok).sum();
        let bad: u64 = report.tenants.iter().map(|t| t.replies_bad).sum();
        let gets: u64 = report.tenants.iter().map(|t| t.gets).sum();
        // The scenario keeps per-tenant and per-path summaries, which
        // cannot be merged into one distribution, and a tenant's
        // median sits between the two paths' modes (it flips from
        // ~800 to ~2800 cycles with the seed). So the two latency
        // figures are one per path: the median of the cache-hit,
        // CPU-bypass path and the tail of the host-software path.
        let latency = Summary {
            count: report.hit_path.count + report.host_path.count,
            p50: report.hit_path.p50,
            ..report.host_path
        };
        let mut gate_failures = Vec::new();
        if bad > 0 {
            gate_failures.push(format!("{bad} replies carried wrong value bytes"));
        }
        // Little's law: GETs in flight = arrival rate x time in system.
        // Twice the slowest observed round trip, plus slack for the
        // handful issued in the last cycles, bounds a healthy run; a
        // leak (a dropped or wedged GET never answers) grows past it.
        let rate = gets as f64 / self.now.max(1) as f64;
        let slowest = report.host_path.max.max(report.hit_path.max);
        let allowed = (2.0 * rate * slowest as f64).ceil() as u64 + 8;
        if report.unanswered > allowed {
            gate_failures.push(format!(
                "{} GETs unanswered after the tail; steady state allows {allowed}",
                report.unanswered
            ));
        }
        let c = self.scenario.nic().conservation();
        if c.sched_drops + c.unrouted + c.lost_noc + c.flushed > 0 {
            gate_failures.push(format!("NIC shed traffic at the benchmarked rates: {c:?}"));
        }
        Outcome {
            attempted: ok + bad,
            failed: bad,
            latency,
            gate_failures,
        }
    }

    fn export_metrics(&self, m: &mut MetricsRegistry) {
        self.scenario.export_metrics(m);
    }
}
