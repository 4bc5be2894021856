//! The shell every incumbent shares: one ledger, one tracer hookup,
//! one metrics export — around a [`Design`] that only says how packets
//! move.

use engines::engine::Output;
use packet::message::{Message, Priority};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use trace::{MetricSink, Tracer, TrackId};

/// How one incumbent architecture moves packets. Everything it has in
/// common with the others — counting, latency, egress, tracing, the
/// clock — is [`Baseline`]'s.
pub trait Design {
    /// Registers the design's trace tracks (attaching any inner
    /// component that traces itself); [`Trace`] addresses them by
    /// index into the returned list.
    fn tracks(&mut self, tracer: &Tracer) -> Vec<TrackId>;

    /// Takes one offered packet; `false` means it was refused at a
    /// full ingress queue.
    fn rx(&mut self, msg: Message, ledger: &mut Ledger) -> bool;

    /// Advances one cycle, reporting every packet that leaves the
    /// design to `ledger`.
    fn tick(&mut self, now: Cycle, ledger: &mut Ledger, trace: &Trace);

    /// Packets held anywhere inside: queued, in service, recirculating
    /// or out at the host.
    fn in_flight(&self) -> usize;

    /// Counters (and inner components' metrics) beyond the ledger's.
    fn export_extra<S: MetricSink + ?Sized>(&self, _m: &mut S, _prefix: &str) {}
}

/// Each latency class's metric name; a class's slot in the ledger is
/// `Priority as usize`.
const CLASSES: [(Priority, &str); 3] = [
    (Priority::Latency, "latency"),
    (Priority::Normal, "normal"),
    (Priority::Bulk, "bulk"),
];

/// What happened to every packet an incumbent was offered.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Everything but `in_flight`, which is the design's to count.
    pub(crate) counts: BaselineConservation,
    egress: Vec<Message>,
    latency: [Histogram; 3],
}

impl Ledger {
    /// The packet leaves on the wire at `now`.
    pub fn finish(&mut self, msg: Message, now: Cycle) {
        self.counts.delivered += 1;
        self.latency[msg.priority as usize].record(now.saturating_since(msg.injected_at).count());
        self.egress.push(msg);
    }

    /// Settles what an offload produced from `msg` at `now`. The
    /// incumbents have a fixed topology, so every flavour of "continue"
    /// — and every message the offload spawned — means `onward` (the
    /// design's next hop); egress and consumption end here.
    pub fn settle(
        &mut self,
        msg: Message,
        outputs: Vec<Output>,
        now: Cycle,
        mut onward: impl FnMut(Message, &mut Ledger),
    ) {
        let mut msg = Some(msg);
        let mut take = || msg.take().expect("one disposition per processed message");
        for out in outputs {
            match out {
                Output::Forward | Output::ForwardTo(_) | Output::ToPipeline => {
                    onward(take(), self);
                }
                Output::Egress(_) => self.finish(take(), now),
                Output::Consumed => {
                    take();
                    self.counts.consumed += 1;
                }
                Output::Spawn(_, m) => onward(m, self),
            }
        }
    }
}

/// The design's tracks on the attached tracer.
#[derive(Debug)]
pub struct Trace {
    tracer: Tracer,
    tracks: Vec<TrackId>,
}

impl Trace {
    /// A span on the design's `track`-th track covering `msg`'s
    /// service from `started_at` to `now`.
    pub fn span(
        &self,
        track: usize,
        name: &'static str,
        started_at: Cycle,
        now: Cycle,
        msg: &Message,
    ) {
        if self.tracer.enabled() {
            self.tracer.complete_arg(
                self.tracks[track],
                name,
                started_at,
                now.since(started_at),
                "msg",
                msg.id.0,
            );
        }
    }

    /// An instant on the design's `track`-th track, tagged with `msg`.
    pub fn instant(&self, track: usize, name: &'static str, now: Cycle, msg: &Message) {
        if self.tracer.enabled() {
            self.tracer
                .instant_arg(self.tracks[track], name, now, "msg", msg.id.0);
        }
    }
}

/// Packet conservation across an incumbent — the counterpart of
/// `panic_core`'s `Conservation`, `tenancy`'s `TenantConservation` and
/// `fabric`'s `FleetConservation`. Two identities
/// ([`BaselineConservation::holds`]), true after every cycle:
///
/// ```text
/// offered  == accepted + refused
/// accepted == delivered + consumed + dropped + in_flight
/// ```
///
/// `in_flight` is counted from the design's queues, not derived, so
/// the second line is a check. It assumes one output per processed
/// message, which holds for every offload the experiments install.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineConservation {
    /// Packets handed to `rx`.
    pub offered: u64,
    /// Admitted at ingress.
    pub accepted: u64,
    /// Turned away at a full ingress queue (never accepted).
    pub refused: u64,
    /// Left on the wire.
    pub delivered: u64,
    /// Absorbed by an offload.
    pub consumed: u64,
    /// Accepted, then lost at a full queue inside the design.
    pub dropped: u64,
    /// Still inside.
    pub in_flight: u64,
}

impl BaselineConservation {
    /// True when every offered packet is accounted for.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.offered == self.accepted + self.refused
            && self.accepted == self.delivered + self.consumed + self.dropped + self.in_flight
    }
}

/// One incumbent NIC: a [`Design`] inside the shared shell.
#[derive(Debug)]
pub struct Baseline<D> {
    design: D,
    ledger: Ledger,
    trace: Trace,
}

impl<D: Design> Baseline<D> {
    pub(crate) fn wrap(design: D) -> Baseline<D> {
        Baseline {
            design,
            ledger: Ledger::default(),
            trace: Trace {
                tracer: Tracer::disabled(),
                tracks: Vec::new(),
            },
        }
    }

    /// The wrapped design (its own counters and gauges).
    #[must_use]
    pub fn design(&self) -> &D {
        &self.design
    }

    /// Attaches a tracer; the design names its tracks (see each
    /// design's module docs and `docs/TRACING.md`).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.trace = Trace {
            tracer: tracer.clone(),
            tracks: self.design.tracks(tracer),
        };
    }

    /// Offers a packet.
    pub fn rx(&mut self, msg: Message) {
        self.ledger.counts.offered += 1;
        if self.design.rx(msg, &mut self.ledger) {
            self.ledger.counts.accepted += 1;
        } else {
            self.ledger.counts.refused += 1;
        }
    }

    /// Advances one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.design.tick(now, &mut self.ledger, &self.trace);
    }

    /// Drains packets that reached the wire since the last call.
    pub fn take_egress(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.ledger.egress)
    }

    /// End-to-end latency histogram for a priority class.
    #[must_use]
    pub fn latency_of(&self, p: Priority) -> &Histogram {
        &self.ledger.latency[p as usize]
    }

    /// True when nothing is in flight.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.design.in_flight() == 0
    }

    /// The conservation snapshot.
    #[must_use]
    pub fn conservation(&self) -> BaselineConservation {
        BaselineConservation {
            in_flight: self.design.in_flight() as u64,
            ..self.ledger.counts
        }
    }

    /// Exports the conservation terms, the design's own counters and
    /// the latency histograms under `prefix`. `{prefix}.drops` is the
    /// pre-split total, `refused + dropped`.
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S, prefix: &str) {
        let c = self.conservation();
        for (name, value) in [
            ("offered", c.offered),
            ("accepted", c.accepted),
            ("refused", c.refused),
            ("drops", c.refused + c.dropped),
            ("dropped", c.dropped),
            ("consumed", c.consumed),
            ("delivered", c.delivered),
            ("in_flight", c.in_flight),
        ] {
            m.counter(format_args!("{prefix}.{name}"), value);
        }
        self.design.export_extra(m, prefix);
        for (p, name) in CLASSES {
            let h = self.latency_of(p);
            if h.count() > 0 {
                m.histogram(format_args!("{prefix}.latency.{name}"), h);
            }
        }
    }
}

/// Whether a port-filtered offload applies to `frame`: `None` is
/// everything, otherwise the frame must be Ethernet/IPv4/UDP to one of
/// the listed destination ports.
pub(crate) fn applies(ports: &Option<Vec<u16>>, frame: &[u8]) -> bool {
    let Some(ports) = ports else {
        return true;
    };
    packet::headers::parse_udp(frame).is_some_and(|(_, _, udp, _)| ports.contains(&udp.dst_port))
}
