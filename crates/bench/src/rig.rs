//! The one traffic loop behind every Figure-2 comparison.
//!
//! "PANIC against the incumbents on the same workload" is only true if
//! both sides are fed by the same code. An experiment states its
//! offered load once, as a source of [`Offer`]s per step; [`feed`]
//! hands them to whichever [`Dut`] is on the table — an incumbent's
//! [`Baseline`] shell, or a [`PanicNic`] and the Ethernet port the
//! frames arrive on — ticks it, and shows the experiment what came out.

use baselines::shell::{Baseline, Design};
use bytes::Bytes;
use engines::mac::MacEngine;
use engines::tile::TileConfig;
use noc::router::RouterConfig;
use noc::topology::Topology;
use packet::chain::EngineId;
use packet::message::{Message, MessageId, MessageKind, Priority, TenantId};
use panic_core::nic::{NicBuilder, NicConfig, PanicNic};
use rmt::pipeline::PipelineConfig;
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
    /// An untenanted, normal-priority frame.
    #[must_use]
    pub fn plain(frame: Bytes) -> Offer {
        Offer {
            tenant: TenantId(0),
            priority: Priority::Normal,
            frame,
        }
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

/// How the PANIC side of every comparison starts: a 4×4 mesh of
/// `width_bits`-wide channels, the paper's two RMT pipelines, and a
/// 100G Ethernet MAC as the first engine (returned). The experiment
/// adds its own engines, then the portals, then its program.
#[must_use]
pub fn panic_builder(width_bits: u64) -> (NicBuilder, EngineId) {
    let mut b = PanicNic::builder(NicConfig {
        topology: Topology::mesh(4, 4),
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
