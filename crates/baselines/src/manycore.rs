//! The manycore (tiled embedded-CPU) NIC of Figure 2b.
//!
//! §2.3.2: "manycore designs use a CPU to generate requests to
//! hardware offloads as needed ... Firestone et al. report that
//! processing a packet in one of the cores on a manycore NIC adds a
//! latency of 10 µs or more." The structure here:
//!
//! * a dispatcher spreads packets across `cores` by flow hash (IPv4
//!   ident here — per-flow affinity without reordering);
//! * each core is a run-to-completion processor: per-packet software
//!   orchestration time (the 10 µs), during which it decides which
//!   hardware engines the packet needs;
//! * hardware offload engines are shared, FIFO-queued devices the
//!   cores call into, one request at a time;
//! * after its engine visits, the packet egresses.
//!
//! The contrast with PANIC is architectural, not parametric: the same
//! offload engines are used, but every packet pays the orchestration
//! latency and the core pool throughput ceiling `cores /
//! orchestration_cycles`.

use std::collections::VecDeque;

use engines::engine::{Offload, Output};
use packet::message::{Message, Priority};
use sim_core::clock::Driven;
use sim_core::stats::Histogram;
use sim_core::time::{Cycle, Cycles};
use trace::{MetricSink, Tracer, TrackId};

/// A shared hardware engine plus the UDP ports it applies to
/// (`None` = every packet visits it).
pub type PortFilteredEngine = (Box<dyn Offload>, Option<Vec<u16>>);

/// Manycore NIC configuration.
pub struct ManycoreConfig {
    /// Number of embedded cores.
    pub cores: usize,
    /// Software orchestration cycles per packet (~10 µs ⇒ 5000 cycles
    /// at 500 MHz).
    pub orchestration_cycles: u64,
    /// Shared hardware engines, with the UDP ports each applies to
    /// (`None` = all packets visit it).
    pub engines: Vec<PortFilteredEngine>,
    /// Per-core input queue capacity.
    pub core_queue_capacity: usize,
}

impl std::fmt::Debug for ManycoreConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManycoreConfig")
            .field("cores", &self.cores)
            .field("orchestration_cycles", &self.orchestration_cycles)
            .field("engines", &self.engines.len())
            .field("core_queue_capacity", &self.core_queue_capacity)
            .finish_non_exhaustive()
    }
}

struct Core {
    queue: VecDeque<Message>,
    /// Busy with software from the first cycle until the second; the
    /// message then moves to its engine sequence.
    busy: Option<(Message, Cycle, Cycle)>,
}

struct HwEngine {
    offload: Box<dyn Offload>,
    ports: Option<Vec<u16>>,
    queue: VecDeque<(Message, usize)>, // (msg, next engine index after this)
    /// `(msg, next_engine, started_at, done_at)`.
    in_service: Option<(Message, usize, Cycle, Cycle)>,
}

/// The manycore NIC.
pub struct ManycoreNic {
    cores: Vec<Core>,
    hw: Vec<HwEngine>,
    orchestration: Cycles,
    core_queue_capacity: usize,
    egress: Vec<Message>,
    latency: [Histogram; 3],
    /// Packets dropped at full core queues.
    pub drops: u64,
    /// Packets consumed by engines.
    pub consumed: u64,
    /// Packets accepted.
    pub accepted: u64,
    tracer: Tracer,
    /// One track per embedded core.
    core_tracks: Vec<TrackId>,
    /// One track per shared hardware engine.
    hw_tracks: Vec<TrackId>,
}

impl std::fmt::Debug for ManycoreNic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManycoreNic")
            .field("cores", &self.cores.len())
            .field("hw", &self.hw.len())
            .finish_non_exhaustive()
    }
}

fn flow_hash(msg: &Message) -> u64 {
    use packet::headers::{EthernetHeader, Ipv4Header};
    let h = EthernetHeader::parse(&msg.payload)
        .ok()
        .and_then(|(_, n1)| Ipv4Header::parse(&msg.payload[n1..]).ok())
        .map_or(msg.id.0, |(ip, _)| {
            u64::from(ip.src.as_u32()) ^ (u64::from(ip.ident) << 32)
        });
    // A bare multiply never mixes high bits into the low bits that
    // `% cores` uses; run a full SplitMix64 finalizer instead.
    sim_core::rng::SplitMix64::new(h).next_u64()
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

impl ManycoreNic {
    /// Builds the manycore NIC.
    ///
    /// # Panics
    /// Panics with zero cores.
    #[must_use]
    pub fn new(config: ManycoreConfig) -> ManycoreNic {
        assert!(config.cores > 0, "zero cores");
        ManycoreNic {
            cores: (0..config.cores)
                .map(|_| Core {
                    queue: VecDeque::new(),
                    busy: None,
                })
                .collect(),
            hw: config
                .engines
                .into_iter()
                .map(|(offload, ports)| HwEngine {
                    offload,
                    ports,
                    queue: VecDeque::new(),
                    in_service: None,
                })
                .collect(),
            orchestration: Cycles(config.orchestration_cycles),
            core_queue_capacity: config.core_queue_capacity.max(1),
            egress: Vec::new(),
            latency: [Histogram::new(), Histogram::new(), Histogram::new()],
            drops: 0,
            consumed: 0,
            accepted: 0,
            tracer: Tracer::disabled(),
            core_tracks: Vec::new(),
            hw_tracks: Vec::new(),
        }
    }

    /// Attaches a tracer: one track per core (`baseline.core{c}`) and
    /// per shared hardware engine (`baseline.hw{i}.{offload}`).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.core_tracks = (0..self.cores.len())
            .map(|c| tracer.track(&format!("baseline.core{c}")))
            .collect();
        self.hw_tracks = self
            .hw
            .iter()
            .enumerate()
            .map(|(i, e)| tracer.track(&format!("baseline.hw{i}.{}", e.offload.name())))
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

    /// Offers a packet to the dispatcher.
    pub fn rx(&mut self, msg: Message) {
        let core = (flow_hash(&msg) % self.cores.len() as u64) as usize;
        if self.cores[core].queue.len() >= self.core_queue_capacity {
            self.drops += 1;
            return;
        }
        self.accepted += 1;
        self.cores[core].queue.push_back(msg);
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

    /// Drains completed packets.
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

    /// First engine index ≥ `from` that applies to `msg`, or the
    /// engine count (= egress).
    fn next_engine_for(&self, msg: &Message, from: usize) -> usize {
        let port = udp_dst_port(&msg.payload);
        for (i, e) in self.hw.iter().enumerate().skip(from) {
            match &e.ports {
                None => return i,
                Some(ps) => {
                    if port.is_some_and(|p| ps.contains(&p)) {
                        return i;
                    }
                }
            }
        }
        self.hw.len()
    }

    fn dispatch_to_engine_or_finish(&mut self, msg: Message, from: usize, now: Cycle) {
        let target = self.next_engine_for(&msg, from);
        if target >= self.hw.len() {
            self.finish(msg, now);
        } else {
            self.hw[target].queue.push_back((msg, target + 1));
        }
    }

    /// Advances one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // Hardware engines.
        for i in 0..self.hw.len() {
            if let Some((_, _, _, done)) = &self.hw[i].in_service {
                if now >= *done {
                    let (msg, next, started_at, _) = self.hw[i].in_service.take().expect("checked");
                    self.tracer.complete_arg(
                        self.hw_tracks.get(i).copied().unwrap_or(TrackId(0)),
                        "baseline.service",
                        started_at,
                        now.since(started_at),
                        "msg",
                        msg.id.0,
                    );
                    for out in self.hw[i].offload.process(msg, now) {
                        match out {
                            Output::Forward(m)
                            | Output::ForwardTo(_, m)
                            | Output::ToPipeline(m) => {
                                self.dispatch_to_engine_or_finish(m, next, now);
                            }
                            Output::Egress(_, m) => self.finish(m, now),
                            Output::Consumed => self.consumed += 1,
                        }
                    }
                }
            }
            if self.hw[i].in_service.is_none() {
                if let Some((msg, next)) = self.hw[i].queue.pop_front() {
                    let st = self.hw[i].offload.service_time(&msg);
                    self.hw[i].in_service = Some((msg, next, now, now + st));
                }
            }
        }

        // Cores.
        for c in 0..self.cores.len() {
            if let Some((_, _, done)) = &self.cores[c].busy {
                if now >= *done {
                    let (msg, started_at, _) = self.cores[c].busy.take().expect("checked");
                    // The 10 µs the paper complains about: every packet's
                    // span on a core track is the orchestration time.
                    self.tracer.complete_arg(
                        self.core_tracks.get(c).copied().unwrap_or(TrackId(0)),
                        "baseline.orchestration",
                        started_at,
                        now.since(started_at),
                        "msg",
                        msg.id.0,
                    );
                    // Orchestration finished: issue to the first engine
                    // this packet needs (or straight to egress).
                    self.dispatch_to_engine_or_finish(msg, 0, now);
                }
            }
            if self.cores[c].busy.is_none() {
                if let Some(msg) = self.cores[c].queue.pop_front() {
                    self.cores[c].busy = Some((msg, now, now + self.orchestration));
                }
            }
        }
    }

    /// True when idle everywhere.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.queue.is_empty() && c.busy.is_none())
            && self
                .hw
                .iter()
                .all(|e| e.queue.is_empty() && e.in_service.is_none())
    }

    /// Fast-forward hint: the earliest cycle at which ticking can
    /// change state. `None` = quiescent. An idle tick mutates nothing
    /// and emits nothing, so skipped cycles need no replay (see
    /// `docs/PERF.md`).
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let mut hint: Option<Cycle> = None;
        let mut merge = |at: Cycle| {
            hint = Some(hint.map_or(at, |h: Cycle| h.min(at)));
        };
        for c in &self.cores {
            if !c.queue.is_empty() {
                merge(now.next());
            } else if let Some((_, _, done)) = &c.busy {
                merge((*done).max(now.next()));
            }
        }
        for e in &self.hw {
            if !e.queue.is_empty() {
                merge(now.next());
            } else if let Some((_, _, _, done)) = &e.in_service {
                merge((*done).max(now.next()));
            }
        }
        hint
    }
}

/// Quiescence fast-forward through [`sim_core::clock::drive`]: an idle
/// tick mutates nothing here, so `skip_idle` keeps its no-op default.
impl Driven for ManycoreNic {
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

    fn frame_msg(id: u64, port: u16, now: Cycle) -> Message {
        let mut f = FrameFactory::for_nic_port(0);
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(f.min_frame(id as u16, port))
            .injected_at(now)
            .build()
    }

    fn run(nic: &mut ManycoreNic, from: Cycle, cycles: u64) -> Cycle {
        drive(nic, from, cycles, Advance::Stepped).0
    }

    fn config(cores: usize, orch: u64) -> ManycoreConfig {
        ManycoreConfig {
            cores,
            orchestration_cycles: orch,
            engines: vec![(
                Box::new(NullOffload::new("hw", EngineClass::Asic, Cycles(2))),
                Some(vec![443]),
            )],
            core_queue_capacity: 64,
        }
    }

    #[test]
    fn every_packet_pays_orchestration_latency() {
        let mut nic = ManycoreNic::new(config(4, 5000));
        nic.rx(frame_msg(1, 80, Cycle(0)));
        run(&mut nic, Cycle(0), 6000);
        let out = nic.take_egress();
        assert_eq!(out.len(), 1);
        let lat = nic.latency_of(Priority::Normal).max();
        assert!(lat >= 5000, "latency {lat} below orchestration floor");
        assert!(nic.is_quiescent());
    }

    #[test]
    fn core_pool_bounds_throughput() {
        // 4 cores x 100-cycle orchestration = 1 packet / 25 cycles.
        let mut nic = ManycoreNic::new(config(4, 100));
        for i in 0..100 {
            nic.rx(frame_msg(i, 80, Cycle(0)));
        }
        let mut done = 0;
        let mut now = Cycle(0);
        let mut cycles = 0u64;
        while done < 100 && cycles < 100_000 {
            nic.tick(now);
            now = now.next();
            done += nic.take_egress().len();
            cycles += 1;
        }
        assert_eq!(done, 100);
        // Perfect balance would take 2500 cycles; flow-hash imbalance
        // costs some, but it must be within ~3x of ideal and far above
        // single-core time (10000).
        assert!((2500..9000).contains(&cycles), "took {cycles}");
    }

    #[test]
    fn packets_visit_only_matching_engines() {
        let mut nic = ManycoreNic::new(config(1, 10));
        nic.rx(frame_msg(1, 443, Cycle(0))); // visits hw engine
        nic.rx(frame_msg(2, 80, Cycle(0))); // skips it
        run(&mut nic, Cycle(0), 200);
        let out = nic.take_egress();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn full_core_queue_drops() {
        let mut nic = ManycoreNic::new(ManycoreConfig {
            cores: 1,
            orchestration_cycles: 10_000,
            engines: vec![],
            core_queue_capacity: 2,
        });
        for i in 0..10 {
            nic.rx(frame_msg(i, 80, Cycle(0)));
        }
        assert!(nic.drops >= 7, "drops {}", nic.drops);
    }

    #[test]
    fn flow_affinity_keeps_order_within_flow() {
        // Same source/flow -> same core -> FIFO order preserved.
        let mut nic = ManycoreNic::new(config(8, 50));
        let mut f = FrameFactory::for_nic_port(0);
        for i in 0..5u64 {
            // Same flow id (same src ip), distinct idents increase but
            // hash uses src ^ ident<<32 — use same factory flow 3 and
            // force equal ident by rebuilding factory each time.
            let mut f2 = FrameFactory::for_nic_port(0);
            let _ = &mut f;
            let msg = Message::builder(MessageId(i), MessageKind::EthernetFrame)
                .payload(f2.min_frame(3, 80))
                .injected_at(Cycle(0))
                .build();
            nic.rx(msg);
        }
        run(&mut nic, Cycle(0), 5000);
        let out = nic.take_egress();
        let ids: Vec<u64> = out.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tracer_records_orchestration_and_service_spans() {
        let tracer = Tracer::ring(64);
        let mut nic = ManycoreNic::new(config(2, 10));
        nic.attach_tracer(&tracer);
        nic.rx(frame_msg(1, 443, Cycle(0))); // visits the hw engine
        run(&mut nic, Cycle(0), 100);
        assert_eq!(nic.take_egress().len(), 1);
        let events = tracer.ring_snapshot().expect("ring tracer");
        let orch = events
            .iter()
            .find(|e| e.name == "baseline.orchestration")
            .expect("orchestration span");
        assert_eq!(orch.kind, trace::EventKind::Complete { dur: 10 });
        assert!(events.iter().any(|e| e.name == "baseline.service"));
        let mut m = MetricsRegistry::new();
        nic.export_metrics(&mut m, "baseline.manycore");
        assert_eq!(m.counter("baseline.manycore.accepted"), Some(1));
    }

    #[test]
    fn fast_forward_matches_stepped_run() {
        let build = |tracer: &Tracer| {
            let mut nic = ManycoreNic::new(config(2, 5000));
            nic.attach_tracer(tracer);
            nic.rx(frame_msg(1, 443, Cycle(0)));
            nic.rx(frame_msg(2, 80, Cycle(0)));
            nic
        };
        let t1 = Tracer::ring(256);
        let mut stepped = build(&t1);
        run(&mut stepped, Cycle(0), 8000);
        let t2 = Tracer::ring(256);
        let mut ff = build(&t2);
        let (end, skipped) = drive(&mut ff, Cycle(0), 8000, Advance::Merged);
        assert_eq!(end, Cycle(8000));
        assert!(skipped > 4000, "only skipped {skipped}");
        assert_eq!(
            stepped
                .take_egress()
                .iter()
                .map(|m| m.id)
                .collect::<Vec<_>>(),
            ff.take_egress().iter().map(|m| m.id).collect::<Vec<_>>()
        );
        let (mut m1, mut m2) = (MetricsRegistry::new(), MetricsRegistry::new());
        stepped.export_metrics(&mut m1, "b");
        ff.export_metrics(&mut m2, "b");
        assert_eq!(m1.to_json(), m2.to_json());
        assert_eq!(
            t1.ring_snapshot().expect("ring"),
            t2.ring_snapshot().expect("ring"),
            "trace events must be byte-identical"
        );
        assert_eq!(ff.next_activity(Cycle(8000)), None, "quiescent at end");
    }

    #[test]
    #[should_panic(expected = "zero cores")]
    fn zero_cores_rejected() {
        let _ = ManycoreNic::new(ManycoreConfig {
            cores: 0,
            orchestration_cycles: 1,
            engines: vec![],
            core_queue_capacity: 1,
        });
    }
}
