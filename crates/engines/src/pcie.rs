//! The PCIe engine: doorbells and interrupt coalescing.
//!
//! §3.2: "After the DMA has completed, the DMA engine will send a
//! message to a PCIe engine that may generate an interrupt depending
//! on the interrupt coalescing state." The coalescer here is
//! count-based with an explicit flush hook; the NIC model flushes on a
//! timer so latency-sensitive runs can bound coalescing delay.

use packet::chain::EngineClass;
use packet::message::{Message, MessageKind};
use sim_core::time::{Cycle, Cycles};

use crate::engine::{EgressKind, MsgIdGen, Offload, Output};

/// The PCIe engine.
#[derive(Debug)]
pub struct PcieEngine {
    name: String,
    ids: MsgIdGen,
    /// Raise an interrupt after this many coalesced events.
    threshold: u32,
    pending: u32,
    /// Interrupts raised.
    pub interrupts: u64,
    /// Events absorbed into coalescing.
    pub events: u64,
}

impl PcieEngine {
    /// A PCIe engine raising one interrupt per `threshold` events.
    ///
    /// # Panics
    /// Panics on a zero threshold.
    #[must_use]
    pub fn new(name: impl Into<String>, engine_id: u16, threshold: u32) -> PcieEngine {
        assert!(threshold > 0, "zero coalescing threshold");
        PcieEngine {
            name: name.into(),
            ids: MsgIdGen::for_engine(engine_id),
            threshold,
            pending: 0,
            interrupts: 0,
            events: 0,
        }
    }

    /// Events waiting for the next interrupt.
    #[must_use]
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// Flushes the coalescer: if events are pending, raise an
    /// interrupt now (the NIC calls this on a coalescing timer) — a
    /// message for the host.
    pub fn flush(&mut self) -> Option<Message> {
        if self.pending == 0 {
            return None;
        }
        self.pending = 0;
        self.interrupts += 1;
        Some(Message::builder(self.ids.next_id(), MessageKind::PcieEvent).build())
    }
}

impl Offload for PcieEngine {
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
        EngineClass::Pcie
    }

    fn service_time(&self, _msg: &Message) -> Cycles {
        // Doorbell handling is a register write: one cycle.
        Cycles(1)
    }

    fn process_into(&mut self, msg: &mut Message, _now: Cycle, out: &mut Vec<Output>) {
        match msg.kind {
            MessageKind::PcieEvent => {
                self.events += 1;
                self.pending += 1;
                if self.pending >= self.threshold {
                    self.pending = 0;
                    self.interrupts += 1;
                    out.push(Output::Egress(EgressKind::Host));
                } else {
                    out.push(Output::Consumed);
                }
            }
            // Anything else passes through (e.g. a descriptor doorbell
            // heading host->NIC in a TX model).
            _ => out.push(Output::Forward),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::message::MessageId;

    fn event(id: u64) -> Message {
        Message::builder(MessageId(id), MessageKind::PcieEvent).build()
    }

    #[test]
    fn coalesces_to_threshold() {
        let mut p = PcieEngine::new("pcie", 13, 4);
        for i in 0..3 {
            let out = p.process(&mut event(i), Cycle(0));
            assert!(matches!(out[0], Output::Consumed));
        }
        assert_eq!(p.pending(), 3);
        let out = p.process(&mut event(3), Cycle(0));
        assert!(matches!(out[0], Output::Egress(EgressKind::Host)));
        assert_eq!(p.interrupts, 1);
        assert_eq!(p.pending(), 0);
        assert_eq!(p.events, 4);
    }

    #[test]
    fn threshold_one_interrupts_every_event() {
        let mut p = PcieEngine::new("pcie", 13, 1);
        for i in 0..5 {
            let out = p.process(&mut event(i), Cycle(0));
            assert!(matches!(out[0], Output::Egress(EgressKind::Host)));
        }
        assert_eq!(p.interrupts, 5);
    }

    #[test]
    fn flush_raises_pending_interrupt() {
        let mut p = PcieEngine::new("pcie", 13, 100);
        assert!(p.flush().is_none());
        let _ = p.process(&mut event(1), Cycle(0));
        let out = p.flush().expect("pending event flushes");
        assert_eq!(out.kind, MessageKind::PcieEvent);
        assert_eq!(p.interrupts, 1);
        assert!(p.flush().is_none());
    }

    #[test]
    fn non_events_pass_through() {
        let mut p = PcieEngine::new("pcie", 13, 4);
        let mut m = Message::builder(MessageId(9), MessageKind::Internal).build();
        assert!(matches!(p.process(&mut m, Cycle(0))[0], Output::Forward));
        assert_eq!(p.events, 0);
    }

    #[test]
    #[should_panic(expected = "zero coalescing")]
    fn zero_threshold_rejected() {
        let _ = PcieEngine::new("pcie", 13, 0);
    }
}
