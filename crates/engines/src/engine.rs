//! The [`Offload`] trait.
//!
//! An offload is two things: a *service-time model* (how many cycles
//! this message occupies the engine — the quantity that creates
//! head-of-line blocking in lesser architectures) and a *byte-level
//! transformation* (what comes out). Everything else — queueing,
//! scheduling, routing — belongs to the [`EngineTile`](crate::tile)
//! wrapper, so offload implementations stay small and composable.

use packet::chain::EngineClass;
use packet::message::Message;
use sim_core::time::{Cycle, Cycles};

/// Where an egressing message leaves the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressKind {
    /// Transmitted onto the Ethernet wire.
    Wire,
    /// Delivered into host memory / to host software.
    Host,
}

/// What an offload produces for one processed message.
#[derive(Debug)]
pub enum Output {
    /// The message continues along its chain (the tile advances the
    /// cursor; an exhausted chain falls back to the pipeline, §3.1.2).
    Forward(Message),
    /// The message goes to a specific engine chosen by this engine's
    /// *local lookup table* (§3.1.2) — e.g. a cache routing hits to the
    /// RDMA engine and misses to the DMA engine — without a heavyweight
    /// pipeline traversal.
    ForwardTo(packet::chain::EngineId, Message),
    /// A message that needs (re)classification by the heavyweight RMT
    /// pipeline — either newly generated, or transformed such that its
    /// old chain is meaningless (e.g. just-decrypted).
    ToPipeline(Message),
    /// The message leaves the NIC.
    Egress(EgressKind, Message),
    /// The message is absorbed (e.g. failed verification).
    Consumed,
}

// A `Message` plus the tag word, moved by value out of every offload:
// at most 128 bytes, the largest move LLVM does inline on baseline
// x86-64 rather than through a `memcpy` call (see the pin in
// `packet::message`).
const _: () = assert!(std::mem::size_of::<Output>() <= 128);

/// Deterministic id source for engine-generated messages. Each engine
/// gets a disjoint id space (`engine_id << 40 | counter`) so generated
/// ids never collide with workload ids, which count up from zero.
#[derive(Debug, Clone)]
pub struct MsgIdGen {
    base: u64,
    next: u64,
}

impl MsgIdGen {
    /// An id generator for engine number `engine`.
    #[must_use]
    pub fn for_engine(engine: u16) -> MsgIdGen {
        MsgIdGen {
            base: (u64::from(engine) + 1) << 40,
            next: 0,
        }
    }

    /// The next fresh id.
    pub fn next_id(&mut self) -> packet::message::MessageId {
        let id = self.base | self.next;
        self.next += 1;
        packet::message::MessageId(id)
    }
}

/// A self-contained offload engine (§3.1.1).
///
/// `Send` is part of the contract: it keeps a whole NIC — tiles, and
/// therefore boxed engines — movable to another thread. Engines are
/// plain state machines (no `Rc`, no thread handles), so every
/// implementation satisfies it for free.
pub trait Offload: Send {
    /// Engine name for diagnostics and placement maps.
    fn name(&self) -> &str;

    /// Downcast support: scenarios need to reach concrete engines
    /// inside tiles (install cache entries, read MAC counters).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Coarse class (Figure 3c legend).
    fn class(&self) -> EngineClass;

    /// Cycles this message will occupy the engine. Zero is allowed and
    /// means "line-rate, same-cycle" (the tile still enforces one
    /// message per cycle). This is the knob that makes an engine a
    /// bottleneck.
    fn service_time(&self, msg: &Message) -> Cycles;

    /// A *static* service-time estimate, used by the configuration
    /// verifier's slack-feasibility check (PV003): the smallest service
    /// time a typical message could see here. [`Cycles::ZERO`] (the
    /// default) means "unknown / data-dependent" and exempts the engine
    /// from the check. Engines with a fixed or lower-bounded service
    /// time should override this.
    fn nominal_service_cycles(&self) -> Cycles {
        Cycles::ZERO
    }

    /// Transforms the message after `service_time` elapsed, pushing
    /// zero, one, or several outputs into `out` (e.g. a DMA engine
    /// producing both a completion and an interrupt request). `out` is
    /// *appended to*, never cleared — the caller owns the buffer so the
    /// steady-state tick loop performs no allocation (see
    /// `docs/PERF.md`).
    fn process_into(&mut self, msg: Message, now: Cycle, out: &mut Vec<Output>);

    /// Allocating convenience wrapper over
    /// [`Offload::process_into`] for tests and cold paths.
    fn process(&mut self, msg: Message, now: Cycle) -> Vec<Output> {
        let mut out = Vec::new();
        self.process_into(msg, now, &mut out);
        out
    }
}

/// A trivial pass-through offload with a fixed service time — the unit
/// of many architecture experiments (chain length sweeps need engines
/// whose *only* property is their rate).
#[derive(Debug)]
pub struct NullOffload {
    name: String,
    class: EngineClass,
    service: Cycles,
    processed: u64,
}

impl NullOffload {
    /// Builds a pass-through engine taking `service` cycles/message.
    #[must_use]
    pub fn new(name: impl Into<String>, class: EngineClass, service: Cycles) -> NullOffload {
        NullOffload {
            name: name.into(),
            class,
            service,
            processed: 0,
        }
    }

    /// Messages processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl Offload for NullOffload {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn class(&self) -> EngineClass {
        self.class
    }

    fn service_time(&self, _msg: &Message) -> Cycles {
        self.service
    }

    fn nominal_service_cycles(&self) -> Cycles {
        self.service
    }

    fn process_into(&mut self, msg: Message, _now: Cycle, out: &mut Vec<Output>) {
        self.processed += 1;
        out.push(Output::Forward(msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use packet::message::{MessageId, MessageKind};

    #[test]
    fn null_offload_forwards_unchanged() {
        let mut o = NullOffload::new("null", EngineClass::Asic, Cycles(3));
        assert_eq!(o.name(), "null");
        assert_eq!(o.class(), EngineClass::Asic);
        let msg = Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .payload(Bytes::from_static(b"abc"))
            .build();
        assert_eq!(o.service_time(&msg), Cycles(3));
        let out = o.process(msg, Cycle(0));
        assert_eq!(out.len(), 1);
        match &out[0] {
            Output::Forward(m) => assert_eq!(&m.payload[..], b"abc"),
            other => panic!("expected Forward, got {other:?}"),
        }
        assert_eq!(o.processed(), 1);
    }
}
