//! The assembled per-engine scheduling queue.
//!
//! [`SchedQueue`] is what a PANIC engine tile instantiates (Figure 3a's
//! "Local Scheduling" block): a bounded PIFO ranked by LSTF deadline,
//! with a configurable admission policy and wait-time accounting.

use std::collections::BTreeMap;
use std::fmt;

use packet::message::{Message, TenantId};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use trace::{MetricSink, Tracer, TrackId};

use crate::admission::{Admission, AdmissionPolicy};
use crate::pifo::Pifo;
use crate::slack::deadline_rank;

/// A queued message with its enqueue timestamp (for wait accounting).
#[derive(Debug)]
struct Queued {
    msg: Message,
    enqueued_at: Cycle,
}

// Moved into and out of the PIFO's slots once per message: at most 128
// bytes, the largest move LLVM does inline on baseline x86-64 rather
// than through a `memcpy` call (see the pin in `packet::message`).
const _: () = assert!(std::mem::size_of::<Option<Queued>>() <= 128);

/// Counters and distributions exposed by a [`SchedQueue`].
#[derive(Debug)]
pub struct SchedStats {
    /// Messages accepted.
    pub accepted: u64,
    /// Messages dropped (tail or intelligent).
    pub dropped: u64,
    /// Offers refused with backpressure.
    pub refused: u64,
    /// Queueing delay (enqueue → pop) in cycles.
    pub wait: Histogram,
    /// High-water mark of queue occupancy.
    pub peak_depth: usize,
    /// Drops attributed per tenant — the tenancy plane's conservation
    /// identity needs to know *whose* message was shed. Cold path:
    /// only touched when a drop actually happens, so untenanted runs
    /// pay nothing beyond an empty map.
    pub dropped_by_tenant: BTreeMap<TenantId, u64>,
}

impl SchedStats {
    fn new() -> SchedStats {
        SchedStats {
            accepted: 0,
            dropped: 0,
            refused: 0,
            wait: Histogram::new(),
            peak_depth: 0,
            dropped_by_tenant: BTreeMap::new(),
        }
    }

    /// Records one drop of a `tenant`-tagged message.
    fn record_drop(&mut self, tenant: TenantId) {
        self.dropped += 1;
        *self.dropped_by_tenant.entry(tenant).or_insert(0) += 1;
    }

    /// Drops attributed to `tenant` so far.
    #[must_use]
    pub fn dropped_of(&self, tenant: TenantId) -> u64 {
        self.dropped_by_tenant.get(&tenant).copied().unwrap_or(0)
    }
}

/// A bounded, slack-ordered scheduling queue.
#[derive(Debug)]
pub struct SchedQueue {
    pifo: Pifo<Queued>,
    capacity: usize,
    policy: AdmissionPolicy,
    stats: SchedStats,
    /// Trace handle (disabled by default; see [`SchedQueue::attach_tracer`]).
    tracer: Tracer,
    /// The owning component's track; sched events interleave with it.
    track: TrackId,
    /// Fault injection: offers are refused while `now < refuse_until`.
    /// `Cycle::ZERO` (the default) means "never", so the fault-free
    /// path pays one always-false comparison.
    refuse_until: Cycle,
}

impl SchedQueue {
    /// Builds a queue holding at most `capacity` messages with the
    /// given full-queue `policy`.
    ///
    /// # Panics
    /// Panics on zero capacity.
    #[must_use]
    pub fn new(capacity: usize, policy: AdmissionPolicy) -> SchedQueue {
        assert!(capacity > 0, "zero-capacity scheduling queue");
        SchedQueue {
            pifo: Pifo::new(),
            capacity,
            policy,
            stats: SchedStats::new(),
            tracer: Tracer::disabled(),
            track: TrackId(0),
            refuse_until: Cycle::ZERO,
        }
    }

    /// Fault injection (`refuse:` events): refuse every offer until
    /// `until`. The refusal is indistinguishable from admission-control
    /// backpressure to the offerer — lossless callers must hold the
    /// message, lossy callers account a drop — which is exactly the
    /// failure being modelled. Overlapping bursts extend, never shrink,
    /// the window.
    pub fn fault_refuse_until(&mut self, until: Cycle) {
        self.refuse_until = self.refuse_until.max(until);
    }

    /// Drains every queued message without recording queueing-delay
    /// samples — used by the watchdog when an engine is marked DOWN and
    /// its queue is flushed. The flushed messages never *popped* in the
    /// scheduling sense, so they must not pollute the `wait` histogram.
    pub fn drain_for_flush(&mut self) -> Vec<Message> {
        let mut out = Vec::with_capacity(self.pifo.len());
        while let Some(q) = self.pifo.pop() {
            out.push(q.msg);
        }
        out
    }

    /// Attaches a tracer. `track` is the owning component's track (an
    /// engine tile's, usually), so `sched.push` / `sched.pop` /
    /// `sched.drop` / `sched.refuse` instants and the `sched.depth`
    /// counter interleave with that component's service spans. See
    /// `docs/TRACING.md`.
    pub fn attach_tracer(&mut self, tracer: &Tracer, track: TrackId) {
        self.tracer = tracer.clone();
        self.track = track;
    }

    /// Exports queue statistics into `m` under `prefix` (e.g.
    /// `"engine.3.sched"`): counters `<prefix>.accepted`,
    /// `<prefix>.dropped`, `<prefix>.refused`, `<prefix>.peak_depth`,
    /// and the `<prefix>.wait` histogram (enqueue → pop, cycles).
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S, prefix: impl fmt::Display) {
        m.counter(format_args!("{prefix}.accepted"), self.stats.accepted);
        m.counter(format_args!("{prefix}.dropped"), self.stats.dropped);
        m.counter(format_args!("{prefix}.refused"), self.stats.refused);
        m.counter(
            format_args!("{prefix}.peak_depth"),
            self.stats.peak_depth as u64,
        );
        m.histogram(format_args!("{prefix}.wait"), &self.stats.wait);
    }

    /// The admission policy.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pifo.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pifo.is_empty()
    }

    /// True when at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.pifo.len() >= self.capacity
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Offers `msg` at time `now`. The rank is the LSTF deadline of the
    /// message's *current* chain hop (the hop naming this engine).
    ///
    /// Control-class messages (`msg.kind.is_control()`) are never
    /// dropped, whatever the configured policy: a full queue refuses
    /// them with backpressure instead. This is the paper's §6
    /// requirement that "important messages like DMA requests for
    /// descriptors are never dropped" while ordinary traffic stays
    /// droppable.
    pub fn offer(&mut self, msg: Message, now: Cycle) -> Admission<Message> {
        if now < self.refuse_until {
            // Injected refusal burst: behave exactly like admission
            // backpressure so callers exercise their real slow paths.
            self.stats.refused += 1;
            self.trace_instant("sched.refuse", &msg, now);
            return Admission::Refused(msg);
        }
        let rank = deadline_rank(now, msg.current_slack());
        if !self.is_full() {
            self.trace_push(&msg, rank, now);
            self.pifo.push(
                rank,
                Queued {
                    msg,
                    enqueued_at: now,
                },
            );
            self.stats.accepted += 1;
            self.stats.peak_depth = self.stats.peak_depth.max(self.pifo.len());
            self.trace_depth(now);
            return Admission::Accepted;
        }
        if msg.kind.is_control() && self.policy != AdmissionPolicy::Backpressure {
            self.stats.refused += 1;
            self.trace_instant("sched.refuse", &msg, now);
            return Admission::Refused(msg);
        }
        match self.policy {
            AdmissionPolicy::TailDrop => {
                self.stats.record_drop(msg.tenant);
                self.trace_instant("sched.drop", &msg, now);
                Admission::Dropped { victim: msg }
            }
            AdmissionPolicy::EvictLargestRank => {
                // If the arrival ranks >= the largest queued rank, the
                // arrival is the better victim (it has the most slack).
                let (max_rank, victim) =
                    self.pifo.evict_max_rank().expect("full queue is non-empty");
                if rank >= max_rank {
                    // Arrival is the victim; put the evicted one back.
                    self.pifo.push(max_rank, victim);
                    self.stats.record_drop(msg.tenant);
                    self.trace_instant("sched.drop", &msg, now);
                    Admission::Dropped { victim: msg }
                } else {
                    self.trace_push(&msg, rank, now);
                    self.pifo.push(
                        rank,
                        Queued {
                            msg,
                            enqueued_at: now,
                        },
                    );
                    self.stats.accepted += 1;
                    self.stats.record_drop(victim.msg.tenant);
                    self.trace_instant("sched.drop", &victim.msg, now);
                    Admission::Dropped { victim: victim.msg }
                }
            }
            AdmissionPolicy::Backpressure => {
                self.stats.refused += 1;
                self.trace_instant("sched.refuse", &msg, now);
                Admission::Refused(msg)
            }
        }
    }

    /// Pops the most urgent message.
    pub fn pop(&mut self, now: Cycle) -> Option<Message> {
        let rank = self.pifo.peek_rank();
        let q = self.pifo.pop()?;
        self.stats
            .wait
            .record(now.saturating_since(q.enqueued_at).count());
        if self.tracer.enabled() {
            self.tracer.emit(
                trace::Event::instant(self.track, "sched.pop", now)
                    .with_arg("msg", q.msg.id.0)
                    .with_arg("rank", rank.unwrap_or(u64::MAX)),
            );
            self.trace_depth(now);
        }
        Some(q.msg)
    }

    /// Emits a `sched.push` instant carrying the message id and rank.
    fn trace_push(&self, msg: &Message, rank: u64, now: Cycle) {
        if self.tracer.enabled() {
            self.tracer.emit(
                trace::Event::instant(self.track, "sched.push", now)
                    .with_arg("msg", msg.id.0)
                    .with_arg("rank", rank),
            );
        }
    }

    /// Emits a named instant carrying the message id.
    fn trace_instant(&self, name: &'static str, msg: &Message, now: Cycle) {
        self.tracer
            .instant_arg(self.track, name, now, "msg", msg.id.0);
    }

    /// Samples the occupancy as a `sched.depth` counter.
    fn trace_depth(&self, now: Cycle) {
        self.tracer
            .counter(self.track, "sched.depth", now, self.pifo.len() as u64);
    }

    /// Deadline rank of the message that would pop next.
    #[must_use]
    pub fn peek_rank(&self) -> Option<u64> {
        self.pifo.peek_rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use packet::chain::{ChainHeader, EngineId, Slack};
    use packet::message::{MessageId, MessageKind};
    use trace::MetricsRegistry;

    fn msg(id: u64, slack: Slack) -> Message {
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(Bytes::from_static(&[0u8; 16]))
            .chain(ChainHeader::uniform(&[EngineId(1)], slack).unwrap())
            .build()
    }

    #[test]
    fn urgent_preempts_bulk() {
        let mut q = SchedQueue::new(8, AdmissionPolicy::TailDrop);
        assert!(q.offer(msg(1, Slack::BULK), Cycle(0)).is_accepted());
        assert!(q.offer(msg(2, Slack::BULK), Cycle(1)).is_accepted());
        assert!(q.offer(msg(3, Slack(5)), Cycle(2)).is_accepted());
        assert_eq!(q.pop(Cycle(3)).unwrap().id, MessageId(3));
        assert_eq!(q.pop(Cycle(4)).unwrap().id, MessageId(1));
        assert_eq!(q.pop(Cycle(5)).unwrap().id, MessageId(2));
        assert!(q.pop(Cycle(6)).is_none());
    }

    #[test]
    fn lstf_accounts_for_waiting_time() {
        let mut q = SchedQueue::new(8, AdmissionPolicy::TailDrop);
        // A arrives early with generous slack; B arrives much later
        // with slightly less slack, but A has been burning its budget:
        // A's deadline (0+100) < B's deadline (90+20=110).
        q.offer(msg(1, Slack(100)), Cycle(0));
        q.offer(msg(2, Slack(20)), Cycle(90));
        assert_eq!(q.pop(Cycle(91)).unwrap().id, MessageId(1));
    }

    #[test]
    fn tail_drop_rejects_arrival() {
        let mut q = SchedQueue::new(1, AdmissionPolicy::TailDrop);
        q.offer(msg(1, Slack(5)), Cycle(0));
        match q.offer(msg(2, Slack(0)), Cycle(0)) {
            Admission::Dropped { victim } => assert_eq!(victim.id, MessageId(2)),
            other => panic!("expected drop, got {other:?}"),
        }
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn intelligent_drop_sheds_most_tolerant() {
        let mut q = SchedQueue::new(2, AdmissionPolicy::EvictLargestRank);
        q.offer(msg(1, Slack::BULK), Cycle(0));
        q.offer(msg(2, Slack(50)), Cycle(0));
        // Queue full; an urgent arrival evicts the bulk message.
        match q.offer(msg(3, Slack(1)), Cycle(1)) {
            Admission::Dropped { victim } => assert_eq!(victim.id, MessageId(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(Cycle(2)).unwrap().id, MessageId(3));
        assert_eq!(q.pop(Cycle(2)).unwrap().id, MessageId(2));
    }

    #[test]
    fn intelligent_drop_sheds_arrival_when_it_is_most_tolerant() {
        let mut q = SchedQueue::new(2, AdmissionPolicy::EvictLargestRank);
        q.offer(msg(1, Slack(10)), Cycle(0));
        q.offer(msg(2, Slack(20)), Cycle(0));
        match q.offer(msg(3, Slack::BULK), Cycle(1)) {
            Admission::Dropped { victim } => assert_eq!(victim.id, MessageId(3)),
            other => panic!("expected arrival drop, got {other:?}"),
        }
        // Queue contents untouched.
        assert_eq!(q.pop(Cycle(2)).unwrap().id, MessageId(1));
        assert_eq!(q.pop(Cycle(2)).unwrap().id, MessageId(2));
    }

    #[test]
    fn backpressure_returns_message_intact() {
        let mut q = SchedQueue::new(1, AdmissionPolicy::Backpressure);
        q.offer(msg(1, Slack(5)), Cycle(0));
        match q.offer(msg(2, Slack(0)), Cycle(0)) {
            Admission::Refused(m) => assert_eq!(m.id, MessageId(2)),
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(q.stats().refused, 1);
        assert_eq!(q.stats().dropped, 0);
        // Draining makes room again.
        assert!(q.pop(Cycle(1)).is_some());
        assert!(q.offer(msg(2, Slack(0)), Cycle(1)).is_accepted());
    }

    #[test]
    fn wait_histogram_records_queueing_delay() {
        let mut q = SchedQueue::new(4, AdmissionPolicy::TailDrop);
        q.offer(msg(1, Slack(0)), Cycle(10));
        q.offer(msg(2, Slack(0)), Cycle(10));
        let _ = q.pop(Cycle(15)); // waited 5
        let _ = q.pop(Cycle(25)); // waited 15
        assert_eq!(q.stats().wait.count(), 2);
        assert_eq!(q.stats().wait.min(), 5);
        assert_eq!(q.stats().wait.max(), 15);
    }

    #[test]
    fn peak_depth_tracked() {
        let mut q = SchedQueue::new(4, AdmissionPolicy::TailDrop);
        for i in 0..3 {
            q.offer(msg(i, Slack(1)), Cycle(0));
        }
        let _ = q.pop(Cycle(1));
        assert_eq!(q.stats().peak_depth, 3);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert!(!q.is_full());
        assert_eq!(q.policy(), AdmissionPolicy::TailDrop);
    }

    #[test]
    fn message_without_chain_is_bulk_ranked() {
        let mut q = SchedQueue::new(4, AdmissionPolicy::TailDrop);
        let no_chain = Message::builder(MessageId(9), MessageKind::Internal)
            .payload(Bytes::new())
            .build();
        q.offer(no_chain, Cycle(0));
        q.offer(msg(1, Slack(1000)), Cycle(0));
        // Finite slack beats chainless bulk.
        assert_eq!(q.pop(Cycle(0)).unwrap().id, MessageId(1));
        assert_eq!(q.peek_rank(), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = SchedQueue::new(0, AdmissionPolicy::TailDrop);
    }

    #[test]
    fn tracer_sees_push_pop_drop_and_depth() {
        let tracer = Tracer::ring(64);
        let track = tracer.track("engine.1.test");
        let mut q = SchedQueue::new(1, AdmissionPolicy::TailDrop);
        q.attach_tracer(&tracer, track);
        q.offer(msg(1, Slack(5)), Cycle(0));
        q.offer(msg(2, Slack(0)), Cycle(1)); // full: tail drop
        let _ = q.pop(Cycle(2));
        let events = tracer.ring_snapshot().unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"sched.push"));
        assert!(names.contains(&"sched.drop"));
        assert!(names.contains(&"sched.pop"));
        assert!(names.contains(&"sched.depth"));
        // The push instant carries both the message id and its rank.
        let push = events.iter().find(|e| e.name == "sched.push").unwrap();
        assert_eq!(push.args[0], Some(("msg", 1)));
        assert_eq!(push.args[1], Some(("rank", 5)));

        let mut m = MetricsRegistry::new();
        q.export_metrics(&mut m, "sched");
        assert_eq!(m.counter("sched.accepted"), Some(1));
        assert_eq!(m.counter("sched.dropped"), Some(1));
        assert_eq!(m.counter("sched.peak_depth"), Some(1));
        assert_eq!(m.histogram("sched.wait").unwrap().count(), 1);
    }

    #[test]
    fn fault_refusal_burst_then_recovery() {
        let mut q = SchedQueue::new(4, AdmissionPolicy::TailDrop);
        q.fault_refuse_until(Cycle(10));
        // Overlapping shorter burst must not shrink the window.
        q.fault_refuse_until(Cycle(5));
        match q.offer(msg(1, Slack(5)), Cycle(9)) {
            Admission::Refused(m) => assert_eq!(m.id, MessageId(1)),
            other => panic!("expected fault refusal, got {other:?}"),
        }
        assert_eq!(q.stats().refused, 1);
        assert_eq!(q.stats().accepted, 0);
        // Window over: accepts again.
        assert!(q.offer(msg(1, Slack(5)), Cycle(10)).is_accepted());
    }

    #[test]
    fn flush_drain_skips_wait_accounting() {
        let mut q = SchedQueue::new(4, AdmissionPolicy::TailDrop);
        q.offer(msg(1, Slack(5)), Cycle(0));
        q.offer(msg(2, Slack(9)), Cycle(0));
        let flushed = q.drain_for_flush();
        assert_eq!(flushed.len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.stats().wait.count(), 0, "flush must not record waits");
    }

    #[test]
    fn drops_attribute_to_the_victims_tenant() {
        let mut q = SchedQueue::new(1, AdmissionPolicy::TailDrop);
        let tagged = |id: u64, tenant: u16| {
            Message::builder(MessageId(id), MessageKind::EthernetFrame)
                .tenant(TenantId(tenant))
                .chain(ChainHeader::uniform(&[EngineId(1)], Slack(5)).unwrap())
                .build()
        };
        assert!(q.offer(tagged(1, 7), Cycle(0)).is_accepted());
        let _ = q.offer(tagged(2, 7), Cycle(0)); // tail drop
        let _ = q.offer(tagged(3, 9), Cycle(0)); // tail drop
        assert_eq!(q.stats().dropped, 2);
        assert_eq!(q.stats().dropped_of(TenantId(7)), 1);
        assert_eq!(q.stats().dropped_of(TenantId(9)), 1);
        assert_eq!(q.stats().dropped_of(TenantId(0)), 0);
    }

    #[test]
    fn control_messages_are_never_dropped() {
        // Even under a lossy policy, a full queue refuses control
        // messages (lossless backpressure) instead of dropping them.
        let mut q = SchedQueue::new(1, AdmissionPolicy::TailDrop);
        q.offer(msg(1, Slack(5)), Cycle(0));
        let ctrl = Message::builder(MessageId(2), MessageKind::DmaRead)
            .chain(ChainHeader::uniform(&[EngineId(1)], Slack(0)).unwrap())
            .build();
        match q.offer(ctrl, Cycle(0)) {
            Admission::Refused(m) => assert_eq!(m.id, MessageId(2)),
            other => panic!("control message dropped: {other:?}"),
        }
        assert_eq!(q.stats().dropped, 0);
        // Data messages still drop under the same conditions.
        match q.offer(msg(3, Slack(0)), Cycle(0)) {
            Admission::Dropped { .. } => {}
            other => panic!("data message should tail-drop: {other:?}"),
        }
    }
}
