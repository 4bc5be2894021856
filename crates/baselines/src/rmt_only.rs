//! The RMT-only (FlexNIC-style) NIC of Figure 2c.
//!
//! §2.3.3: "RMT NICs cannot support compression, encryption, or any
//! offload that must wait on the completion of a DMA from main
//! memory ... the actions that are possible at each stage of the
//! pipeline are limited to relatively simple atoms."
//!
//! The model runs the same [`RmtPipeline`](rmt::pipeline) as PANIC,
//! but with *no engines behind it*. Traffic classes:
//!
//! * **simple** packets (steering, rewriting, counting) — exactly what
//!   the pipeline is for; one pass, line rate;
//! * **complex** packets (our stand-in: ESP, detected by IP protocol)
//!   — inexpressible in match+action atoms. The design must either
//!   *punt* them to host software (latency penalty, CPU load) or
//!   *emulate* with `R` recirculations, each consuming a pipeline slot
//!   that line-rate traffic needed (§2.3.1's recirculation-bandwidth
//!   caveat applies to RMT NICs too).

use packet::message::Message;
use rmt::action::{Action, Primitive, Verdict};
use rmt::parse::ParseGraph;
use rmt::pipeline::{PipelineConfig, RmtPipeline};
use rmt::program::{ProgramBuilder, RmtProgram};
use rmt::table::{MatchKey, MatchKind, Table, TableEntry};
use sim_core::time::{Cycle, Cycles};
use sim_core::EventQueue;
use trace::{MetricSink, Tracer, TrackId};

use crate::shell::{Baseline, Design, Ledger, Trace};

/// What the RMT-only NIC does with packets it cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComplexPolicy {
    /// Hand them to host software, paying `host_cycles` each.
    Punt {
        /// Software processing time per punted packet.
        host_cycles: u64,
    },
    /// Emulate with `passes` total pipeline traversals per packet.
    Recirculate {
        /// Total pipeline passes per complex packet.
        passes: u32,
    },
}

/// RMT-only NIC configuration.
#[derive(Debug, Clone, Copy)]
pub struct RmtOnlyConfig {
    /// Pipeline timing.
    pub pipeline: PipelineConfig,
    /// Policy for complex (ESP) traffic.
    pub complex: ComplexPolicy,
}

/// The program: one pass marks and steers; ESP is flagged complex via
/// the Recirculate verdict — the [`ComplexPolicy`] decides whether the
/// flag means "punt to host" or "recirculate".
fn program() -> RmtProgram {
    let mut route = Table::new(
        "route",
        MatchKind::Ternary(vec![packet::phv::Field::IpProto]),
        Action::noop(),
    );
    route.insert(TableEntry {
        key: MatchKey::Ternary(vec![(50, 0xff)]),
        priority: 10,
        action: Action::named("complex-crypto", vec![Primitive::Recirculate]),
    });
    ProgramBuilder::new("rmt-only", ParseGraph::standard(6379))
        .stage(route)
        .build()
}

/// The RMT-only wiring: the pipeline, and a host that punted packets
/// come back from. No stations — there are no engines to queue at.
/// Punt and host-return events land on the `baseline.rmtonly` track;
/// the pipeline's own stage events on `rmt.pipeline`, its metrics
/// under `{prefix}.rmt`.
#[derive(Debug)]
pub struct RmtOnly {
    pipeline: RmtPipeline,
    complex: ComplexPolicy,
    /// Punted packets complete at their scheduled host time.
    host: EventQueue<Message>,
    /// Packets punted to the host CPU.
    pub punted: u64,
    /// Total pipeline passes consumed by complex traffic.
    pub recirculation_passes: u64,
}

/// The RMT-only NIC.
pub type RmtOnlyNic = Baseline<RmtOnly>;

impl Baseline<RmtOnly> {
    /// Builds the NIC.
    #[must_use]
    pub fn new(config: RmtOnlyConfig) -> RmtOnlyNic {
        Baseline::wrap(RmtOnly {
            pipeline: RmtPipeline::new(config.pipeline, program()),
            complex: config.complex,
            host: EventQueue::new(),
            punted: 0,
            recirculation_passes: 0,
        })
    }
}

impl RmtOnly {
    /// Pipeline backlog (growth = offered load above `F × P`).
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.pipeline.backlog()
    }
}

impl Design for RmtOnly {
    fn tracks(&mut self, tracer: &Tracer) -> Vec<TrackId> {
        let track = tracer.track("baseline.rmtonly");
        self.pipeline.attach_tracer(tracer);
        vec![track]
    }

    /// The pipeline's input queue is unbounded (its growth is the
    /// measurement), so nothing is ever refused.
    fn rx(&mut self, msg: Message, _ledger: &mut Ledger) -> bool {
        self.pipeline.submit(msg);
        true
    }

    fn tick(&mut self, now: Cycle, ledger: &mut Ledger, trace: &Trace) {
        for out in self.pipeline.tick(now) {
            let msg = out.msg;
            match out.verdict {
                Verdict::Forward => ledger.finish(msg, now),
                Verdict::Recirculate => match self.complex {
                    ComplexPolicy::Punt { host_cycles } => {
                        self.punted += 1;
                        trace.instant(0, "baseline.punt", now, &msg);
                        self.host.schedule(now + Cycles(host_cycles), msg);
                    }
                    ComplexPolicy::Recirculate { passes } => {
                        self.recirculation_passes += 1;
                        if u32::from(msg.pipeline_passes) >= passes {
                            ledger.finish(msg, now);
                        } else {
                            self.pipeline.submit(msg);
                        }
                    }
                },
                Verdict::Drop => unreachable!("program never drops"),
            }
        }
        while let Some(msg) = self.host.pop_due(now) {
            trace.instant(0, "baseline.host_return", now, &msg);
            ledger.finish(msg, now);
        }
    }

    fn in_flight(&self) -> usize {
        self.pipeline.backlog() + self.pipeline.occupancy() + self.host.len()
    }

    fn export_extra<S: MetricSink + ?Sized>(&self, m: &mut S, prefix: &str) {
        m.counter(format_args!("{prefix}.punted"), self.punted);
        m.counter(
            format_args!("{prefix}.recirculation_passes"),
            self.recirculation_passes,
        );
        self.pipeline
            .export_metrics(m, format_args!("{prefix}.rmt"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::headers::{
        build_esp_frame, ethertype, EspHeader, EthernetHeader, Ipv4Addr, Ipv4Header, MacAddr,
    };
    use packet::message::{MessageId, MessageKind, Priority};
    use sim_core::time::Freq;
    use trace::MetricsRegistry;
    use workloads::frames::FrameFactory;

    fn cfg(complex: ComplexPolicy) -> RmtOnlyConfig {
        RmtOnlyConfig {
            pipeline: PipelineConfig {
                parallel: 1,
                depth: 5,
                freq: Freq::mhz(500),
            },
            complex,
        }
    }

    fn simple(id: u64, now: Cycle) -> Message {
        let mut f = FrameFactory::for_nic_port(0);
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(f.min_frame(id as u16, 80))
            .injected_at(now)
            .build()
    }

    fn esp(id: u64, now: Cycle) -> Message {
        let frame = build_esp_frame(
            EthernetHeader {
                dst: MacAddr::for_port(0),
                src: MacAddr::for_port(1),
                ethertype: ethertype::IPV4,
            },
            Ipv4Header {
                tos: 0,
                total_len: 0,
                ident: 0,
                ttl: 64,
                protocol: 0,
                src: Ipv4Addr::new(9, 9, 9, 9),
                dst: Ipv4Addr::new(8, 8, 8, 8),
            },
            EspHeader { spi: 1, seq: 1 },
            &[0u8; 16],
        );
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(frame)
            .injected_at(now)
            .build()
    }

    fn run(nic: &mut RmtOnlyNic, from: Cycle, cycles: u64) -> Cycle {
        for c in from.0..from.0 + cycles {
            nic.tick(Cycle(c));
        }
        Cycle(from.0 + cycles)
    }

    #[test]
    fn simple_traffic_is_single_pass_line_rate() {
        let mut nic = RmtOnlyNic::new(cfg(ComplexPolicy::Punt { host_cycles: 5000 }));
        for i in 0..100 {
            nic.rx(simple(i, Cycle(0)));
        }
        run(&mut nic, Cycle(0), 120);
        assert_eq!(nic.take_egress().len(), 100);
        assert_eq!(nic.design().punted, 0);
        // 1/cycle throughput: max latency ~ 100 + depth.
        assert!(nic.latency_of(Priority::Normal).max() <= 110);
    }

    #[test]
    fn punt_policy_sends_complex_to_host() {
        let mut nic = RmtOnlyNic::new(cfg(ComplexPolicy::Punt { host_cycles: 5000 }));
        nic.rx(esp(1, Cycle(0)));
        nic.rx(simple(2, Cycle(0)));
        run(&mut nic, Cycle(0), 6000);
        let out = nic.take_egress();
        assert_eq!(out.len(), 2);
        assert_eq!(nic.design().punted, 1);
        // The punted packet paid the host penalty.
        assert!(nic.latency_of(Priority::Normal).max() >= 5000);
        assert!(nic.is_quiescent());
    }

    #[test]
    fn recirculation_consumes_pipeline_slots() {
        // 50% ESP at 8 passes each: effective load = 0.5 + 0.5*8 = 4.5x.
        let mut nic = RmtOnlyNic::new(cfg(ComplexPolicy::Recirculate { passes: 8 }));
        for i in 0..200 {
            if i % 2 == 0 {
                nic.rx(esp(i, Cycle(0)));
            } else {
                nic.rx(simple(i, Cycle(0)));
            }
        }
        // After 220 cycles a pure-simple load would be done; the
        // recirculating mix is far from it.
        run(&mut nic, Cycle(0), 220);
        let done_at_220 = nic.take_egress().len();
        assert!(done_at_220 < 150, "done {done_at_220}");
        assert!(nic.design().recirculation_passes > 100);
        // Eventually everything drains.
        run(&mut nic, Cycle(220), 2000);
        assert!(nic.is_quiescent());
    }

    #[test]
    fn recirculation_slows_simple_traffic_too() {
        // The collateral damage claim: simple packets share slots with
        // recirculating ones.
        let latency_with_esp_share = |esp_every: Option<u64>| {
            let mut nic = RmtOnlyNic::new(cfg(ComplexPolicy::Recirculate { passes: 8 }));
            let mut now = Cycle(0);
            for step in 0..2000u64 {
                if esp_every.is_some_and(|k| step % k == 0) {
                    nic.rx(esp(10_000 + step, now));
                }
                // Simple packet every 2 cycles: half line rate.
                if step % 2 == 0 {
                    nic.rx(simple(step, now));
                }
                nic.tick(now);
                now = now.next();
            }
            run(&mut nic, now, 20_000);
            nic.latency_of(Priority::Normal).summary().p99
        };
        let clean = latency_with_esp_share(None);
        let polluted = latency_with_esp_share(Some(3));
        assert!(
            polluted > clean * 3,
            "p99 with recirculation {polluted} vs clean {clean}"
        );
    }

    #[test]
    fn tracer_records_punts_and_pipeline_events() {
        let tracer = Tracer::ring(256);
        let mut nic = RmtOnlyNic::new(cfg(ComplexPolicy::Punt { host_cycles: 50 }));
        nic.attach_tracer(&tracer);
        nic.rx(esp(1, Cycle(0)));
        nic.rx(simple(2, Cycle(0)));
        run(&mut nic, Cycle(0), 200);
        assert_eq!(nic.take_egress().len(), 2);
        let events = tracer.ring_snapshot().expect("ring tracer");
        assert!(events.iter().any(|e| e.name == "baseline.punt"));
        assert!(events.iter().any(|e| e.name == "baseline.host_return"));
        // Inner pipeline events ride along on the same tracer.
        assert!(events.iter().any(|e| e.name == "rmt.pipeline"));
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m, "baseline.rmtonly");
        assert_eq!(m.counter("baseline.rmtonly.punted"), Some(1));
        assert!(m.counter("baseline.rmtonly.rmt.accepted").is_some());
    }

    #[test]
    fn overload_shows_in_backlog() {
        let mut nic = RmtOnlyNic::new(cfg(ComplexPolicy::Recirculate { passes: 8 }));
        let mut now = Cycle(0);
        // 1 ESP per cycle at 8 passes: 8x overload.
        for _ in 0..1000 {
            nic.rx(esp(now.0, now));
            nic.tick(now);
            now = now.next();
        }
        assert!(
            nic.design().backlog() > 500,
            "backlog {}",
            nic.design().backlog()
        );
    }
}
