//! The two traffic loops behind every comparison the experiments draw.
//!
//! "PANIC against the incumbents on the same workload", "a mesh against
//! a crossbar" — each is only true if both sides are fed by the same
//! code. A whole-NIC experiment states its offered load once, as a
//! source of [`Offer`]s per step; [`feed`] hands them to whichever
//! [`Dut`] is on the table — an incumbent's [`Baseline`] shell, or a
//! [`PanicNic`] and the Ethernet port the frames arrive on — ticks it,
//! and shows the experiment what came out. A bare-substrate experiment
//! states its [`Uniform`] traffic once; [`uniform_load`] offers it to
//! whichever [`Substrate`] is on the table — a mesh, a pair of meshes,
//! the crossbar.

use baselines::shell::{Baseline, Design};
use bytes::Bytes;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use noc::network::{MeshNetwork, NetworkConfig};
use noc::router::RouterConfig;
use noc::topology::{Placement, Topology};
use packet::chain::EngineId;
use packet::message::{Message, MessageId, MessageKind, Priority, TenantId};
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use rmt::pipeline::PipelineConfig;
use sim_core::rng::SimRng;
use sim_core::time::{Bandwidth, Cycle, Freq};

/// One frame offered to the design under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offer {
    /// Who sent it.
    pub tenant: TenantId,
    /// Its priority class.
    pub priority: Priority,
    /// Wire bytes, starting at the Ethernet header.
    pub frame: Bytes,
}

impl Offer {
    /// `tenant`'s `frame`, in class `priority`.
    #[must_use]
    pub fn new(tenant: TenantId, priority: Priority, frame: Bytes) -> Offer {
        Offer {
            tenant,
            priority,
            frame,
        }
    }

    /// An untenanted, normal-priority frame.
    #[must_use]
    pub fn plain(frame: Bytes) -> Offer {
        Offer::new(TenantId(0), Priority::Normal, frame)
    }
}

/// A design under test: anything frames go into and come out of.
pub trait Dut {
    /// Takes the `seq`-th offered frame at `now`, before that cycle's
    /// tick.
    fn offer(&mut self, seq: u64, offer: Offer, now: Cycle);
    /// Advances one cycle.
    fn tick(&mut self, now: Cycle);
    /// Drains frames that reached the wire since the last call.
    fn take_egress(&mut self) -> Vec<Message>;
    /// True when nothing is in flight.
    fn is_quiescent(&self) -> bool;
}

impl<D: Design> Dut for Baseline<D> {
    fn offer(&mut self, seq: u64, offer: Offer, now: Cycle) {
        self.rx(Message::builder(MessageId(seq), MessageKind::EthernetFrame)
            .payload(offer.frame)
            .tenant(offer.tenant)
            .priority(offer.priority)
            .injected_at(now)
            .build());
    }
    fn tick(&mut self, now: Cycle) {
        Baseline::tick(self, now);
    }
    fn take_egress(&mut self) -> Vec<Message> {
        Baseline::take_egress(self)
    }
    fn is_quiescent(&self) -> bool {
        Baseline::is_quiescent(self)
    }
}

/// PANIC, receiving on the given Ethernet engine (it numbers its own
/// messages).
impl Dut for (PanicNic, EngineId) {
    fn offer(&mut self, _seq: u64, offer: Offer, now: Cycle) {
        self.0
            .rx_frame(self.1, offer.frame, offer.tenant, offer.priority, now);
    }
    fn tick(&mut self, now: Cycle) {
        self.0.tick(now);
    }
    fn take_egress(&mut self) -> Vec<Message> {
        self.0.take_wire_tx()
    }
    fn is_quiescent(&self) -> bool {
        self.0.is_quiescent()
    }
}

/// The reference PANIC NIC every whole-NIC experiment starts from: a
/// `topology` mesh of `width_bits`-wide channels, the paper's two RMT
/// pipelines, and a 100G Ethernet MAC as the first engine (returned).
/// The experiment adds its own engines, then the portals, then its
/// program.
#[must_use]
pub fn panic_builder(topology: Topology, width_bits: u64) -> (NicBuilder, EngineId) {
    let mut b = PanicNic::builder(NicConfig {
        topology,
        width_bits,
        router: RouterConfig::default(),
        pipeline: PipelineConfig::panic_default(),
        pcie_flush_interval: 0,
    });
    let mac = MacEngine::new("eth", Bandwidth::gbps(100), Freq::PANIC_DEFAULT);
    let eth = b.engine(Box::new(mac), TileConfig::default());
    (b, eth)
}

/// Offers `source`'s frames to `dut` for `cycles` cycles, then keeps
/// ticking for up to `drain` more or until it is quiescent. Each step
/// is: offer what `source(step, ..)` pushes, tick, hand every frame
/// that reached the wire to `sink`. Returns how many frames were
/// offered.
pub fn feed(
    dut: &mut impl Dut,
    cycles: u64,
    drain: u64,
    mut source: impl FnMut(u64, &mut Vec<Offer>),
    mut sink: impl FnMut(&Message),
) -> u64 {
    let mut offered = 0u64;
    let mut offers = Vec::new();
    for step in 0..cycles + drain {
        let now = Cycle(step);
        if step < cycles {
            source(step, &mut offers);
            for offer in offers.drain(..) {
                dut.offer(offered, offer, now);
                offered += 1;
            }
        } else if dut.is_quiescent() {
            break;
        }
        dut.tick(now);
        dut.take_egress().iter().for_each(&mut sink);
    }
    offered
}

/// Everything `source` offers over `cycles` steps, as
/// `(step, offer)` — for tests that a source is a pure function of its
/// arguments, i.e. that every design in a table was offered the same
/// frames.
#[cfg(test)]
pub(crate) fn offered(
    cycles: u64,
    mut source: impl FnMut(u64, &mut Vec<Offer>),
) -> Vec<(u64, Offer)> {
    let mut all = Vec::new();
    let mut offers = Vec::new();
    for step in 0..cycles {
        source(step, &mut offers);
        all.extend(offers.drain(..).map(|o| (step, o)));
    }
    all
}

/// A bare switching substrate: messages between nodes `0..n`, with no
/// NIC around them.
pub trait Substrate {
    /// The backlog at `src` a message of `kind` would join.
    fn source_depth(&self, src: usize, kind: MessageKind) -> usize;
    /// Queues `msg` at `src` for `dst`.
    fn send(&mut self, src: usize, dst: usize, msg: Message, now: Cycle);
    /// Advances one cycle, and every output takes what it takes in one.
    fn step(&mut self, now: Cycle);
}

/// The bare-substrate experiments' network: a row-major `topology` mesh
/// of `width_bits`-wide channels.
#[must_use]
pub fn mesh(topology: Topology, width_bits: u64) -> MeshNetwork {
    let config = NetworkConfig {
        topology,
        width_bits,
        router: RouterConfig::default(),
    };
    MeshNetwork::new(config, Placement::row_major(topology))
}

/// A mesh's backlog is in flits, and each tile drains one flit a cycle
/// from its ejection buffer (engines at link rate).
impl Substrate for MeshNetwork {
    fn source_depth(&self, src: usize, _: MessageKind) -> usize {
        MeshNetwork::source_depth(self, EngineId(src as u16))
    }
    fn send(&mut self, src: usize, dst: usize, msg: Message, now: Cycle) {
        MeshNetwork::send(self, EngineId(src as u16), EngineId(dst as u16), msg, now);
    }
    fn step(&mut self, now: Cycle) {
        self.tick(now);
        for node in 0..self.config().topology.nodes() {
            let _ = self.poll_ejected(EngineId(node as u16), now.next());
        }
    }
}

/// Uniform random traffic for a [`Substrate`].
#[derive(Debug, Clone)]
pub struct Uniform {
    /// Nodes `0..nodes` send, and receive.
    pub nodes: usize,
    /// Messages each node is offered per cycle.
    pub msg_rate: f64,
    /// A due message whose backlog has reached this is not sent.
    pub cap: usize,
    /// What every message carries.
    pub payload: Bytes,
    /// Seeds every draw.
    pub seed: u64,
}

/// Offers `traffic` to `net` for `cycles` cycles, showing `observe` the
/// step and the substrate after each.
///
/// The draws happen in one order, so a run is a function of `traffic`
/// and `kind`. Each cycle the nodes take turns from 0. A node's
/// accumulator gains `msg_rate`; once it holds a whole message, that
/// message is due and `kind` names its kind, drawing if it must. Below
/// `cap`, a destination is drawn uniform over all nodes (moved one on
/// if it is the node itself) and the message sent under the next id;
/// at `cap` it is dropped and draws nothing more. Then `net` steps.
pub fn uniform_load<S: Substrate>(
    net: &mut S,
    traffic: &Uniform,
    cycles: u64,
    mut kind: impl FnMut(&mut SimRng) -> MessageKind,
    mut observe: impl FnMut(u64, &S),
) {
    let n = traffic.nodes;
    let mut rng = SimRng::new(traffic.seed);
    let mut acc = vec![0f64; n];
    let mut next_id = 0u64;
    for step in 0..cycles {
        let now = Cycle(step);
        for (node, a) in acc.iter_mut().enumerate() {
            *a += traffic.msg_rate;
            if *a < 1.0 {
                continue;
            }
            *a -= 1.0;
            let msg_kind = kind(&mut rng);
            if net.source_depth(node, msg_kind) >= traffic.cap {
                continue;
            }
            let mut dst = rng.gen_range(n as u64) as usize;
            if dst == node {
                dst = (dst + 1) % n;
            }
            let msg = Message::builder(MessageId(next_id), msg_kind)
                .payload(traffic.payload.clone())
                .build();
            next_id += 1;
            net.send(node, dst, msg, now);
        }
        net.step(now);
        observe(step, net);
    }
}
