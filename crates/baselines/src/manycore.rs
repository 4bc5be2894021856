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

use engines::engine::Offload;
use packet::message::Message;
use sim_core::time::{Cycle, Cycles};
use trace::{Tracer, TrackId};

use crate::shell::{applies, Baseline, Design, Ledger, Trace};
use crate::station::Station;

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

/// The manycore wiring: a station per embedded core (service time =
/// software orchestration) feeding a station per shared hardware
/// engine, whose jobs are `(packet, first engine index it may visit
/// next)`. Core `c` traces on track `baseline.core{c}`, engine `i` on
/// `baseline.hw{i}.{offload}`.
#[derive(Debug)]
pub struct Manycore {
    config: ManycoreConfig,
    cores: Vec<Station<Message>>,
    hw: Vec<Station<(Message, usize)>>,
}

/// The manycore NIC.
pub type ManycoreNic = Baseline<Manycore>;

fn flow_hash(msg: &Message) -> u64 {
    let h = packet::headers::parse_ipv4(&msg.payload).map_or(msg.id.0, |(_, ip, _)| {
        u64::from(ip.src.as_u32()) ^ (u64::from(ip.ident) << 32)
    });
    // A bare multiply never mixes high bits into the low bits that
    // `% cores` uses; run a full SplitMix64 finalizer instead.
    sim_core::rng::SplitMix64::new(h).next_u64()
}

impl Baseline<Manycore> {
    /// Builds the manycore NIC.
    ///
    /// # Panics
    /// Panics with zero cores.
    #[must_use]
    pub fn new(config: ManycoreConfig) -> ManycoreNic {
        assert!(config.cores > 0, "zero cores");
        Baseline::wrap(Manycore {
            cores: (0..config.cores).map(|_| Station::new()).collect(),
            hw: config.engines.iter().map(|_| Station::new()).collect(),
            config,
        })
    }
}

impl Manycore {
    /// Issues `msg` to the first engine at index ≥ `from` that applies
    /// to it, or to the wire when none is left.
    fn dispatch(&mut self, msg: Message, from: usize, now: Cycle, ledger: &mut Ledger) {
        let mut engines = self.config.engines.iter().skip(from);
        let target = engines.position(|(_, ports)| applies(ports, &msg.payload));
        match target {
            Some(offset) => self.hw[from + offset].push((msg, from + offset + 1)),
            None => ledger.finish(msg, now),
        }
    }
}

impl Design for Manycore {
    /// Core tracks first, then engine tracks.
    fn tracks(&mut self, tracer: &Tracer) -> Vec<TrackId> {
        let cores = (0..self.cores.len()).map(|c| format!("baseline.core{c}"));
        let engines = self.config.engines.iter().enumerate();
        let hw = engines.map(|(i, (offload, _))| format!("baseline.hw{i}.{}", offload.name()));
        cores.chain(hw).map(|name| tracer.track(&name)).collect()
    }

    fn rx(&mut self, msg: Message, _ledger: &mut Ledger) -> bool {
        let core = (flow_hash(&msg) % self.cores.len() as u64) as usize;
        let admitted = self.cores[core].queued() < self.config.core_queue_capacity.max(1);
        if admitted {
            self.cores[core].push(msg);
        }
        admitted
    }

    fn tick(&mut self, now: Cycle, ledger: &mut Ledger, trace: &Trace) {
        // Hardware engines.
        for i in 0..self.hw.len() {
            if let Some(((mut msg, next), started_at)) = self.hw[i].complete(now) {
                let track = self.cores.len() + i;
                trace.span(track, "baseline.service", started_at, now, &msg);
                let outputs = self.config.engines[i].0.process(&mut msg, now);
                ledger.settle(msg, outputs, now, |m, ledger| {
                    self.dispatch(m, next, now, ledger)
                });
            }
            let offload = &self.config.engines[i].0;
            self.hw[i].start(now, |(msg, _)| offload.service_time(msg));
        }

        // Cores.
        let orchestration = Cycles(self.config.orchestration_cycles);
        for c in 0..self.cores.len() {
            if let Some((msg, started_at)) = self.cores[c].complete(now) {
                // The 10 µs the paper complains about: every packet's
                // span on a core track is the orchestration time.
                trace.span(c, "baseline.orchestration", started_at, now, &msg);
                // Orchestration finished: issue to the first engine
                // this packet needs (or straight to egress).
                self.dispatch(msg, 0, now, ledger);
            }
            self.cores[c].start(now, |_| orchestration);
        }
    }

    fn in_flight(&self) -> usize {
        let cores: usize = self.cores.iter().map(Station::held).sum();
        let hw: usize = self.hw.iter().map(Station::held).sum();
        cores + hw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::engine::NullOffload;
    use packet::chain::EngineClass;
    use packet::message::{MessageId, MessageKind, Priority};
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
        for c in from.0..from.0 + cycles {
            nic.tick(Cycle(c));
        }
        Cycle(from.0 + cycles)
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
        let refused = nic.conservation().refused;
        assert!(refused >= 7, "refused {refused}");
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
