//! The pipelined ("bump in the wire") NIC of Figure 2a.
//!
//! §2.3.1: offloads sit in a fixed line; every packet flows through
//! every stage in order. The two documented pathologies fall out of
//! the structure:
//!
//! 1. **Pass-through waste** — a packet that doesn't need a stage
//!    still occupies it (optionally only for a 1-cycle bypass, if the
//!    design spends logic on bypassing);
//! 2. **Head-of-line blocking** — stage queues are FIFO, so one slow
//!    packet delays everything behind it, including packets that
//!    would bypass the stage entirely. There is no scheduler to
//!    reorder: that is precisely what this design lacks.

use engines::engine::Offload;
use packet::message::Message;
use sim_core::time::{Cycle, Cycles};
use trace::{Tracer, TrackId};

use crate::shell::{applies, Baseline, Design, Ledger, Trace};
use crate::station::Station;

/// One stage of the pipeline.
pub struct StageSpec {
    /// The offload occupying this stage.
    pub offload: Box<dyn Offload>,
    /// UDP destination ports this offload actually applies to
    /// (`None` = applies to everything).
    pub applies_to_ports: Option<Vec<u16>>,
}

impl std::fmt::Debug for StageSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageSpec")
            .field("applies_to_ports", &self.applies_to_ports)
            .finish_non_exhaustive()
    }
}

/// Pipeline NIC configuration.
pub struct PipelineNicConfig {
    /// The stages, in wire order.
    pub stages: Vec<StageSpec>,
    /// Whether the design spends logic on bypassing stages a packet
    /// does not need (bypass still costs one cycle and still queues
    /// FIFO behind whatever is ahead).
    pub bypass_logic: bool,
    /// Per-stage input queue capacity (FIFO; overflow drops).
    pub stage_queue_capacity: usize,
}

impl std::fmt::Debug for PipelineNicConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineNicConfig")
            .field("stages", &self.stages.len())
            .field("stage_queue_capacity", &self.stage_queue_capacity)
            .finish_non_exhaustive()
    }
}

/// The pipeline wiring: one station per configured stage, in a fixed
/// line; jobs are `(packet, whether the stage's offload applies)`.
/// Stage `i` traces on track `baseline.pipe.stage{i}.{offload}`.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineNicConfig,
    stations: Vec<Station<(Message, bool)>>,
}

/// The pipelined NIC.
pub type PipelineNic = Baseline<Pipeline>;

impl Baseline<Pipeline> {
    /// Builds the pipeline NIC.
    #[must_use]
    pub fn new(config: PipelineNicConfig) -> PipelineNic {
        let stations = config.stages.iter().map(|_| Station::new()).collect();
        Baseline::wrap(Pipeline { config, stations })
    }
}

impl Pipeline {
    /// Queues `msg` at stage `i`; `false` (and the packet is gone) if
    /// that queue is full.
    fn enqueue(&mut self, i: usize, msg: Message) -> bool {
        let room = self.stations[i].queued() < self.config.stage_queue_capacity.max(1);
        if room {
            let applies = applies(&self.config.stages[i].applies_to_ports, &msg.payload);
            self.stations[i].push((msg, applies));
        }
        room
    }

    /// Fixed topology: out of stage `i` means into stage `i + 1`, or
    /// onto the wire after the last.
    fn pass_on(&mut self, i: usize, msg: Message, now: Cycle, ledger: &mut Ledger) {
        if i + 1 == self.stations.len() {
            ledger.finish(msg, now);
        } else if !self.enqueue(i + 1, msg) {
            ledger.counts.dropped += 1;
        }
    }
}

impl Design for Pipeline {
    fn tracks(&mut self, tracer: &Tracer) -> Vec<TrackId> {
        let stages = self.config.stages.iter().enumerate();
        stages
            .map(|(i, s)| tracer.track(&format!("baseline.pipe.stage{i}.{}", s.offload.name())))
            .collect()
    }

    fn rx(&mut self, msg: Message, ledger: &mut Ledger) -> bool {
        if self.stations.is_empty() {
            // No stages: a wire.
            let at = msg.injected_at;
            ledger.finish(msg, at);
            return true;
        }
        self.enqueue(0, msg)
    }

    fn tick(&mut self, now: Cycle, ledger: &mut Ledger, trace: &Trace) {
        // Walk stages from the tail so a completing packet can move
        // into the next stage's queue in the same cycle it frees up.
        for i in (0..self.stations.len()).rev() {
            if let Some(((msg, applied), started_at)) = self.stations[i].complete(now) {
                // "baseline.bypass" spans make the HoL pathology
                // visible: a 1-cycle bypass that started late was
                // stuck behind the slow packet ahead of it.
                let name = if applied {
                    "baseline.stage"
                } else {
                    "baseline.bypass"
                };
                trace.span(i, name, started_at, now, &msg);
                if applied {
                    let outputs = self.config.stages[i].offload.process(msg, now);
                    ledger.settle(outputs, now, |m, ledger| self.pass_on(i, m, now, ledger));
                } else {
                    self.pass_on(i, msg, now, ledger);
                }
            }
            // Start service (FIFO — no reordering is the point).
            let (offload, bypass_logic) =
                (&self.config.stages[i].offload, self.config.bypass_logic);
            self.stations[i].start(now, |(msg, applies)| {
                if *applies || !bypass_logic {
                    // No bypass logic: the stage processes it anyway
                    // (checksum engines recompute, crypto engines pass
                    // unknown traffic at full cost).
                    offload.service_time(msg)
                } else {
                    Cycles(1)
                }
            });
        }
    }

    fn in_flight(&self) -> usize {
        self.stations.iter().map(Station::held).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::engine::{NullOffload, Output};
    use packet::chain::EngineClass;
    use packet::message::{MessageId, MessageKind, Priority};
    use trace::MetricsRegistry;
    use workloads::frames::FrameFactory;

    fn frame_msg(id: u64, port: u16, priority: Priority, now: Cycle) -> Message {
        let mut f = FrameFactory::for_nic_port(0);
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(f.min_frame(id as u16, port))
            .priority(priority)
            .injected_at(now)
            .build()
    }

    fn null_stage(service: u64, ports: Option<Vec<u16>>) -> StageSpec {
        StageSpec {
            offload: Box::new(NullOffload::new("s", EngineClass::Asic, Cycles(service))),
            applies_to_ports: ports,
        }
    }

    fn run(nic: &mut PipelineNic, from: Cycle, cycles: u64) -> Cycle {
        for c in from.0..from.0 + cycles {
            nic.tick(Cycle(c));
        }
        Cycle(from.0 + cycles)
    }

    #[test]
    fn packets_traverse_all_stages_in_order() {
        let mut nic = PipelineNic::new(PipelineNicConfig {
            stages: vec![
                null_stage(1, None),
                null_stage(1, None),
                null_stage(1, None),
            ],
            bypass_logic: false,
            stage_queue_capacity: 16,
        });
        nic.rx(frame_msg(1, 80, Priority::Normal, Cycle(0)));
        nic.rx(frame_msg(2, 80, Priority::Normal, Cycle(0)));
        run(&mut nic, Cycle(0), 20);
        let out = nic.take_egress();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, MessageId(1));
        assert_eq!(out[1].id, MessageId(2));
        assert!(nic.is_quiescent());
    }

    #[test]
    fn hol_blocking_delays_unrelated_traffic() {
        // Stage applies only to port 443 and takes 100 cycles. A port-80
        // packet behind a port-443 packet waits the full service time
        // even with bypass logic, because the queue is FIFO.
        let mut nic = PipelineNic::new(PipelineNicConfig {
            stages: vec![null_stage(100, Some(vec![443]))],
            bypass_logic: true,
            stage_queue_capacity: 16,
        });
        nic.rx(frame_msg(1, 443, Priority::Bulk, Cycle(0)));
        nic.rx(frame_msg(2, 80, Priority::Latency, Cycle(0)));
        run(&mut nic, Cycle(0), 300);
        let out = nic.take_egress();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, MessageId(1), "FIFO: slow packet first");
        // The latency-class packet ate the slow packet's service time.
        assert!(
            nic.latency_of(Priority::Latency).max() >= 100,
            "victim latency {}",
            nic.latency_of(Priority::Latency).max()
        );
    }

    #[test]
    fn bypass_logic_halves_cost_when_queue_is_empty() {
        // Without HOL interference, bypass logic saves the pass-through
        // cost itself.
        let run_one = |bypass: bool| {
            let mut nic = PipelineNic::new(PipelineNicConfig {
                stages: vec![null_stage(50, Some(vec![443]))],
                bypass_logic: bypass,
                stage_queue_capacity: 4,
            });
            nic.rx(frame_msg(1, 80, Priority::Normal, Cycle(0)));
            run(&mut nic, Cycle(0), 200);
            nic.latency_of(Priority::Normal).max()
        };
        let with = run_one(true);
        let without = run_one(false);
        assert!(with < without, "bypass {with} vs pass-through {without}");
    }

    #[test]
    fn stage_overflow_drops() {
        let mut nic = PipelineNic::new(PipelineNicConfig {
            stages: vec![null_stage(1000, None)],
            bypass_logic: false,
            stage_queue_capacity: 2,
        });
        for i in 0..10 {
            nic.rx(frame_msg(i, 80, Priority::Normal, Cycle(0)));
        }
        let refused = nic.conservation().refused;
        assert!(refused >= 7, "refused {refused}");
    }

    #[test]
    fn consumed_packets_counted() {
        struct Eater;
        impl Offload for Eater {
            fn name(&self) -> &str {
                "eater"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn class(&self) -> EngineClass {
                EngineClass::Asic
            }
            fn service_time(&self, _m: &Message) -> Cycles {
                Cycles(1)
            }
            fn process_into(&mut self, _m: Message, _now: Cycle, out: &mut Vec<Output>) {
                out.push(Output::Consumed);
            }
        }
        let mut nic = PipelineNic::new(PipelineNicConfig {
            stages: vec![StageSpec {
                offload: Box::new(Eater),
                applies_to_ports: None,
            }],
            bypass_logic: false,
            stage_queue_capacity: 4,
        });
        nic.rx(frame_msg(1, 80, Priority::Normal, Cycle(0)));
        run(&mut nic, Cycle(0), 10);
        assert_eq!(nic.conservation().consumed, 1);
        assert!(nic.take_egress().is_empty());
    }

    #[test]
    fn tracer_records_stage_and_bypass_spans() {
        let tracer = Tracer::ring(64);
        let mut nic = PipelineNic::new(PipelineNicConfig {
            stages: vec![null_stage(10, Some(vec![443]))],
            bypass_logic: true,
            stage_queue_capacity: 16,
        });
        nic.attach_tracer(&tracer);
        nic.rx(frame_msg(1, 443, Priority::Normal, Cycle(0)));
        nic.rx(frame_msg(2, 80, Priority::Normal, Cycle(0)));
        run(&mut nic, Cycle(0), 100);
        assert_eq!(nic.take_egress().len(), 2);
        let events = tracer.ring_snapshot().expect("ring tracer");
        assert!(events.iter().any(|e| e.name == "baseline.stage"));
        assert!(events.iter().any(|e| e.name == "baseline.bypass"));
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m, "baseline.pipe");
        assert_eq!(m.counter("baseline.pipe.accepted"), Some(2));
        assert!(m.histogram("baseline.pipe.latency.normal").is_some());
    }

    #[test]
    fn empty_pipeline_is_a_wire() {
        let mut nic = PipelineNic::new(PipelineNicConfig {
            stages: vec![],
            bypass_logic: false,
            stage_queue_capacity: 4,
        });
        nic.rx(frame_msg(1, 80, Priority::Normal, Cycle(5)));
        let out = nic.take_egress();
        assert_eq!(out.len(), 1);
        // A wire still accepts what it delivers.
        let c = nic.conservation();
        assert_eq!((c.accepted, c.delivered), (1, 1));
        assert!(c.holds(), "{c:?}");
    }
}
