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

use std::collections::VecDeque;

use engines::engine::{Offload, Output};
use packet::message::{Message, Priority};
use sim_core::clock::Driven;
use sim_core::stats::Histogram;
use sim_core::time::{Cycle, Cycles};
use trace::{MetricSink, Tracer, TrackId};

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

struct Stage {
    offload: Box<dyn Offload>,
    applies_to_ports: Option<Vec<u16>>,
    queue: VecDeque<Message>,
    /// `(msg, started_at, done_at, applied)`.
    in_service: Option<(Message, Cycle, Cycle, bool)>,
}

impl Stage {
    fn applies(&self, msg: &Message) -> bool {
        match &self.applies_to_ports {
            None => true,
            Some(ports) => udp_dst_port(&msg.payload).is_some_and(|p| ports.contains(&p)),
        }
    }
}

fn udp_dst_port(frame: &[u8]) -> Option<u16> {
    use packet::headers::{EthernetHeader, Ipv4Header, UdpHeader};
    let (_, n1) = EthernetHeader::parse(frame).ok()?;
    let (ip, n2) = Ipv4Header::parse(&frame[n1..]).ok()?;
    if ip.protocol != packet::headers::ipproto::UDP {
        return None;
    }
    UdpHeader::parse(&frame[n1 + n2..])
        .ok()
        .map(|(u, _)| u.dst_port)
}

/// The pipelined NIC.
pub struct PipelineNic {
    stages: Vec<Stage>,
    bypass_logic: bool,
    stage_queue_capacity: usize,
    /// Packets that completed the pipeline.
    egress: Vec<Message>,
    /// End-to-end latency by priority class.
    latency: [Histogram; 3],
    /// Packets dropped at full stage queues.
    pub drops: u64,
    /// Packets consumed by offloads (policy drops).
    pub consumed: u64,
    /// Packets accepted.
    pub accepted: u64,
    tracer: Tracer,
    /// One trace track per stage (empty until [`PipelineNic::attach_tracer`]).
    tracks: Vec<TrackId>,
}

impl std::fmt::Debug for PipelineNic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineNic")
            .field("stages", &self.stages.len())
            .finish_non_exhaustive()
    }
}

impl PipelineNic {
    /// Builds the pipeline NIC.
    #[must_use]
    pub fn new(config: PipelineNicConfig) -> PipelineNic {
        PipelineNic {
            stages: config
                .stages
                .into_iter()
                .map(|s| Stage {
                    offload: s.offload,
                    applies_to_ports: s.applies_to_ports,
                    queue: VecDeque::new(),
                    in_service: None,
                })
                .collect(),
            bypass_logic: config.bypass_logic,
            stage_queue_capacity: config.stage_queue_capacity.max(1),
            egress: Vec::new(),
            latency: [Histogram::new(), Histogram::new(), Histogram::new()],
            drops: 0,
            consumed: 0,
            accepted: 0,
            tracer: Tracer::disabled(),
            tracks: Vec::new(),
        }
    }

    /// Attaches a tracer; each stage gets its own track named
    /// `baseline.pipe.stage{i}.{offload}`.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.tracks = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| tracer.track(&format!("baseline.pipe.stage{i}.{}", s.offload.name())))
            .collect();
    }

    /// Exports counters and latency histograms under `prefix`.
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S, prefix: &str) {
        m.counter(format_args!("{prefix}.accepted"), self.accepted);
        m.counter(format_args!("{prefix}.drops"), self.drops);
        m.counter(format_args!("{prefix}.consumed"), self.consumed);
        for (name, h) in [
            ("latency", &self.latency[0]),
            ("normal", &self.latency[1]),
            ("bulk", &self.latency[2]),
        ] {
            if h.count() > 0 {
                m.histogram(format_args!("{prefix}.latency.{name}"), h);
            }
        }
    }

    /// Offers a packet to the head of the pipeline.
    pub fn rx(&mut self, msg: Message) {
        if self.stages.is_empty() {
            let at = msg.injected_at;
            self.finish(msg, at);
            return;
        }
        if self.stages[0].queue.len() >= self.stage_queue_capacity {
            self.drops += 1;
            return;
        }
        self.accepted += 1;
        self.stages[0].queue.push_back(msg);
    }

    fn finish(&mut self, msg: Message, now: Cycle) {
        let idx = match msg.priority {
            Priority::Latency => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        };
        self.latency[idx].record(now.saturating_since(msg.injected_at).count());
        self.egress.push(msg);
    }

    /// Drains packets that completed the pipeline.
    pub fn take_egress(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.egress)
    }

    /// Latency histogram for a priority class.
    #[must_use]
    pub fn latency_of(&self, p: Priority) -> &Histogram {
        match p {
            Priority::Latency => &self.latency[0],
            Priority::Normal => &self.latency[1],
            Priority::Bulk => &self.latency[2],
        }
    }

    /// Advances one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // Walk stages from the tail so a completing packet can move
        // into the next stage's queue in the same cycle it frees up.
        for i in (0..self.stages.len()).rev() {
            // Complete service.
            if let Some((_, _, done_at, _)) = &self.stages[i].in_service {
                if now >= *done_at {
                    let (msg, started_at, _, applied) =
                        self.stages[i].in_service.take().expect("checked");
                    if self.tracer.enabled() {
                        // "baseline.bypass" spans make the HoL pathology
                        // visible: a 1-cycle bypass that started late was
                        // stuck behind the slow packet ahead of it.
                        let name = if applied {
                            "baseline.stage"
                        } else {
                            "baseline.bypass"
                        };
                        self.tracer.complete_arg(
                            self.tracks[i],
                            name,
                            started_at,
                            now.since(started_at),
                            "msg",
                            msg.id.0,
                        );
                    }
                    let outputs = if applied {
                        self.stages[i].offload.process(msg, now)
                    } else {
                        vec![Output::Forward(msg)]
                    };
                    for out in outputs {
                        match out {
                            Output::Forward(m)
                            | Output::ForwardTo(_, m)
                            | Output::ToPipeline(m) => {
                                // Fixed topology: next stage or egress.
                                if i + 1 < self.stages.len() {
                                    if self.stages[i + 1].queue.len() >= self.stage_queue_capacity {
                                        self.drops += 1;
                                    } else {
                                        self.stages[i + 1].queue.push_back(m);
                                    }
                                } else {
                                    self.finish(m, now);
                                }
                            }
                            Output::Egress(_, m) => self.finish(m, now),
                            Output::Consumed => self.consumed += 1,
                        }
                    }
                }
            }
            // Start service (FIFO — no reordering is the point).
            if self.stages[i].in_service.is_none() {
                if let Some(msg) = self.stages[i].queue.pop_front() {
                    let applies = self.stages[i].applies(&msg);
                    let st = if applies {
                        self.stages[i].offload.service_time(&msg)
                    } else if self.bypass_logic {
                        Cycles(1)
                    } else {
                        // No bypass logic: the stage processes it
                        // anyway (checksum engines recompute, crypto
                        // engines pass unknown traffic at full cost).
                        self.stages[i].offload.service_time(&msg)
                    };
                    self.stages[i].in_service = Some((msg, now, now + st.max(Cycles(1)), applies));
                }
            }
        }
    }

    /// True when nothing is queued or in service.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.stages
            .iter()
            .all(|s| s.queue.is_empty() && s.in_service.is_none())
    }

    /// Fast-forward hint: the earliest cycle at which ticking can
    /// change state. `None` = quiescent. An idle tick of this NIC
    /// mutates nothing and emits nothing, so skipped cycles need no
    /// replay (see `docs/PERF.md`).
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let mut hint: Option<Cycle> = None;
        for s in &self.stages {
            if !s.queue.is_empty() {
                return Some(now.next());
            }
            if let Some((_, _, done_at, _)) = &s.in_service {
                let at = (*done_at).max(now.next());
                hint = Some(hint.map_or(at, |h| h.min(at)));
            }
        }
        hint
    }
}

/// Quiescence fast-forward through [`sim_core::clock::drive`]: an idle
/// tick mutates nothing here, so `skip_idle` keeps its no-op default.
impl Driven for PipelineNic {
    fn step(&mut self, now: Cycle) {
        self.tick(now);
    }
    fn wakes(&self, now: Cycle, post: &mut impl FnMut(Cycle)) -> bool {
        if let Some(t) = self.next_activity(now) {
            post(t);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::engine::NullOffload;
    use packet::chain::EngineClass;
    use packet::message::{MessageId, MessageKind};
    use sim_core::clock::{drive, Advance};
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
        drive(nic, from, cycles, Advance::Stepped).0
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
        assert!(nic.drops >= 7, "drops {}", nic.drops);
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
        assert_eq!(nic.consumed, 1);
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
    fn fast_forward_matches_stepped_run() {
        let build = |tracer: &Tracer| {
            let mut nic = PipelineNic::new(PipelineNicConfig {
                stages: vec![null_stage(200, None), null_stage(3, None)],
                bypass_logic: false,
                stage_queue_capacity: 16,
            });
            nic.attach_tracer(tracer);
            nic.rx(frame_msg(1, 80, Priority::Normal, Cycle(0)));
            nic.rx(frame_msg(2, 80, Priority::Latency, Cycle(0)));
            nic
        };
        let t1 = Tracer::ring(256);
        let mut stepped = build(&t1);
        run(&mut stepped, Cycle(0), 1000);
        let t2 = Tracer::ring(256);
        let mut ff = build(&t2);
        let (end, skipped) = drive(&mut ff, Cycle(0), 1000, Advance::Merged);
        assert_eq!(end, Cycle(1000));
        assert!(skipped > 500, "only skipped {skipped}");
        let a = stepped.take_egress();
        let b = ff.take_egress();
        assert_eq!(
            a.iter().map(|m| m.id).collect::<Vec<_>>(),
            b.iter().map(|m| m.id).collect::<Vec<_>>()
        );
        assert_eq!(
            stepped.latency_of(Priority::Latency).max(),
            ff.latency_of(Priority::Latency).max()
        );
        assert_eq!(
            t1.ring_snapshot().expect("ring"),
            t2.ring_snapshot().expect("ring"),
            "trace events must be byte-identical"
        );
    }

    #[test]
    fn next_activity_none_when_quiescent() {
        let nic = PipelineNic::new(PipelineNicConfig {
            stages: vec![null_stage(1, None)],
            bypass_logic: false,
            stage_queue_capacity: 4,
        });
        assert_eq!(nic.next_activity(Cycle(7)), None);
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
    }
}
