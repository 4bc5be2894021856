//! [`EngineTile`] — what turns an [`Offload`] into a PANIC tile.
//!
//! Figure 3a: besides the compute engine itself, a tile contains the
//! *local lookup tables* (here: chain-cursor advance plus the default
//! route back to the heavyweight pipeline, §3.1.2) and the *local
//! scheduling queue* (a slack-ordered [`SchedQueue`], §3.1.3). The
//! router is owned by the NoC; the tile talks to it through the
//! accept/emit interface the NIC model plumbs.
//!
//! Backpressure contract: the tile exposes [`EngineTile::rx_ready`].
//! When false, the NIC must stop polling the NoC ejection buffer for
//! this tile, which in turn exhausts the router's local-port credits —
//! pressure propagates losslessly into the mesh exactly as §3.1.2
//! requires. Loss, when permitted, happens only in the scheduling
//! queue's admission policy (§4.3).

use std::collections::BTreeMap;
use std::fmt;

use packet::chain::EngineId;
use packet::message::{Message, TenantId};
use sched::admission::{Admission, AdmissionPolicy};
use sched::queue::SchedQueue;
use sim_core::stats::Histogram;
use sim_core::time::{Cycle, Cycles};
use trace::{MetricSink, Tracer, TrackId};

use crate::engine::{EgressKind, Offload, Output};

/// Tile configuration.
#[derive(Debug, Clone, Copy)]
pub struct TileConfig {
    /// Scheduling-queue capacity in messages.
    pub queue_capacity: usize,
    /// Full-queue behaviour.
    pub admission: AdmissionPolicy,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            queue_capacity: 64,
            admission: AdmissionPolicy::TailDrop,
        }
    }
}

/// A message leaving a tile, addressed for the NIC to route.
#[derive(Debug)]
pub enum Emit {
    /// Send over the NoC to the next chain engine.
    To(EngineId, Message),
    /// Send to the heavyweight pipeline for (re)classification.
    ToPipeline(Message),
    /// The message left the NIC.
    Egress(EgressKind, Message),
    /// The message was absorbed by the offload (e.g. failed a check).
    /// Carries the consumed message's tenant tag so the tenancy plane
    /// can account the exit and return the admission credit.
    Consumed(TenantId),
}

// A `Message` plus the tag word, moved by value out of every tile tick:
// at most 128 bytes, the largest move LLVM does inline on baseline
// x86-64 rather than through a `memcpy` call (see the pin in
// `packet::message`).
const _: () = assert!(std::mem::size_of::<Emit>() <= 128);

/// Tile counters.
///
/// Drop/refusal accounting lives in the scheduling queue's
/// [`sched::queue::SchedStats`] — the queue is the only component of a
/// tile that can drop or refuse, so the tile re-exposes those counters
/// via [`EngineTile::drops`] / [`EngineTile::refusals`] instead of
/// keeping a shadow copy that could drift. (An earlier revision
/// double-booked `dropped` here; the two counters were provably always
/// equal, so the shadow was removed.)
#[derive(Debug)]
pub struct TileStats {
    /// Messages that completed service here.
    pub processed: u64,
    /// Busy cycles (a message was in service).
    pub busy_cycles: u64,
    /// Messages destroyed by a watchdog DOWN-flush or absorbed by a
    /// DOWN tile (fault plane only; always 0 in fault-free runs).
    pub flushed: u64,
    /// Flushes attributed per tenant, for the tenancy plane's
    /// conservation identity. Cold path: only touched when a flush
    /// actually happens.
    pub flushed_by_tenant: BTreeMap<TenantId, u64>,
    /// Observed service times.
    pub service: Histogram,
}

impl TileStats {
    fn new() -> TileStats {
        TileStats {
            processed: 0,
            busy_cycles: 0,
            flushed: 0,
            flushed_by_tenant: BTreeMap::new(),
            service: Histogram::new(),
        }
    }

    /// Records one flushed/absorbed message of `tenant`.
    fn record_flush(&mut self, tenant: TenantId) {
        self.flushed += 1;
        *self.flushed_by_tenant.entry(tenant).or_insert(0) += 1;
    }

    /// Flushes attributed to `tenant` so far.
    #[must_use]
    pub fn flushed_of(&self, tenant: TenantId) -> u64 {
        self.flushed_by_tenant.get(&tenant).copied().unwrap_or(0)
    }
}

/// An offload wrapped with its local queue and lookup-table logic.
pub struct EngineTile {
    id: EngineId,
    offload: Box<dyn Offload>,
    queue: SchedQueue,
    /// A message currently in service: `(msg, started_at, done_at)`.
    in_service: Option<(Message, Cycle, Cycle)>,
    /// RX holding slot for a message the queue refused (backpressure).
    pending: Option<Message>,
    stats: TileStats,
    /// Trace handle (disabled by default; see [`EngineTile::attach_tracer`]).
    tracer: Tracer,
    /// This tile's track (`engine.<id>.<offload>`).
    track: TrackId,
    /// Fault injection: the tile is frozen while `now < stall_until`.
    /// `Cycle::ZERO` means "never" — the fault-free path pays one
    /// always-false comparison.
    stall_until: Cycle,
    /// Fault injection: service-time multiplier applied at service
    /// start. 1 = nominal.
    degrade_mult: u32,
    /// Fault injection: permanently frozen (only watchdog recovery
    /// applies).
    crashed: bool,
    /// Marked DOWN by the watchdog: queue flushed, future accepts
    /// absorbed, tick inert.
    down: bool,
    /// Last cycle this tile made progress (completed a service, or was
    /// verifiably idle). Engine-health tracking compares this against
    /// the watchdog's `engine_timeout`.
    last_progress: Cycle,
    /// True once any fault/watchdog API touched this tile; gates the
    /// fault-only metrics so fault-free output stays byte-identical.
    faulted: bool,
    /// Reusable buffer for [`Offload::process_into`] outputs, so the
    /// steady-state tick performs no allocation (see `docs/PERF.md`).
    out_scratch: Vec<Output>,
}

impl std::fmt::Debug for EngineTile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineTile")
            .field("id", &self.id)
            .field("offload", &self.offload.name())
            .field("queue_len", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl EngineTile {
    /// Wraps `offload` as tile `id`.
    #[must_use]
    pub fn new(id: EngineId, offload: Box<dyn Offload>, config: TileConfig) -> EngineTile {
        EngineTile {
            id,
            offload,
            queue: SchedQueue::new(config.queue_capacity, config.admission),
            in_service: None,
            pending: None,
            stats: TileStats::new(),
            tracer: Tracer::disabled(),
            track: TrackId(0),
            stall_until: Cycle::ZERO,
            degrade_mult: 1,
            crashed: false,
            down: false,
            last_progress: Cycle::ZERO,
            faulted: false,
            out_scratch: Vec::new(),
        }
    }

    /// Attaches a tracer. The tile gets one track named
    /// `engine.<id>.<offload>` carrying `engine.service` spans (service
    /// start → completion) plus the scheduling queue's `sched.*` events
    /// (the queue shares the tile's track). See `docs/TRACING.md`.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.track = tracer.track(&format!("engine.{}.{}", self.id.0, self.offload.name()));
        self.queue.attach_tracer(tracer, self.track);
    }

    /// Exports tile statistics into `m` under `prefix` (e.g.
    /// `"engine.3.crc"`): counters `<prefix>.processed`,
    /// `<prefix>.dropped`, `<prefix>.busy_cycles`, the
    /// `<prefix>.service` histogram, and the scheduling queue's
    /// metrics under `<prefix>.sched`.
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S, prefix: impl fmt::Display) {
        m.counter(format_args!("{prefix}.processed"), self.stats.processed);
        // Sourced from the queue (the only dropper) — see [`TileStats`].
        m.counter(format_args!("{prefix}.dropped"), self.drops());
        m.counter(format_args!("{prefix}.busy_cycles"), self.stats.busy_cycles);
        m.histogram(format_args!("{prefix}.service"), &self.stats.service);
        // Fault-plane counters appear only once a fault touched this
        // tile, keeping fault-free metrics output byte-identical.
        if self.faulted {
            m.counter(format_args!("{prefix}.flushed"), self.stats.flushed);
        }
        self.queue.export_metrics(m, format_args!("{prefix}.sched"));
    }

    /// The tile's engine address.
    #[must_use]
    pub fn id(&self) -> EngineId {
        self.id
    }

    /// Name of the wrapped offload.
    #[must_use]
    pub fn offload_name(&self) -> &str {
        self.offload.name()
    }

    /// Immutable access to the wrapped offload.
    #[must_use]
    pub fn offload(&self) -> &dyn Offload {
        self.offload.as_ref()
    }

    /// Typed access to the wrapped offload.
    #[must_use]
    pub fn offload_as<T: 'static>(&self) -> Option<&T> {
        self.offload.as_any().downcast_ref::<T>()
    }

    /// Typed mutable access to the wrapped offload.
    pub fn offload_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.offload.as_any_mut().downcast_mut::<T>()
    }

    /// Tile counters.
    #[must_use]
    pub fn stats(&self) -> &TileStats {
        &self.stats
    }

    /// Messages dropped at this tile. Delegates to the scheduling
    /// queue's counter — the queue is the only tile component that can
    /// drop, and a single source of truth keeps NIC-level conservation
    /// from double- or under-counting (the queue/tile counters were
    /// previously tracked separately).
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.queue.stats().dropped
    }

    /// Offers refused with backpressure at this tile (same single
    /// source of truth as [`EngineTile::drops`]). Refusals are *not*
    /// losses: the refused message stays with the offerer.
    #[must_use]
    pub fn refusals(&self) -> u64 {
        self.queue.stats().refused
    }

    /// Scheduling-queue statistics.
    #[must_use]
    pub fn queue_stats(&self) -> &sched::queue::SchedStats {
        self.queue.stats()
    }

    /// Current scheduling-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// True when the tile can take another message from the network
    /// this cycle. False propagates backpressure into the NoC.
    #[must_use]
    pub fn rx_ready(&self) -> bool {
        self.pending.is_none()
    }

    /// Hands the tile a message from the network.
    ///
    /// # Panics
    /// Panics if called while `rx_ready()` is false — the NIC must
    /// check first; ignoring backpressure would silently drop.
    pub fn accept(&mut self, msg: Message, now: Cycle) {
        assert!(
            self.pending.is_none(),
            "tile {}: accept while busy",
            self.id
        );
        if self.down {
            // A DOWN tile is a black hole: anything still addressed to
            // it (in-flight before failover rewrote the chains) is
            // absorbed and charged to the flushed bucket.
            self.stats.record_flush(msg.tenant);
            return;
        }
        match self.queue.offer(msg, now) {
            // Queue drops/refusals are counted by the queue itself
            // (see [`EngineTile::drops`]); the tile only parks refused
            // messages for backpressure.
            Admission::Accepted | Admission::Dropped { .. } => {}
            Admission::Refused(m) => self.pending = Some(m),
        }
    }

    /// True when a message is being serviced.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Advances one cycle. Returns everything the tile emits.
    ///
    /// Convenience wrapper over [`EngineTile::tick_into`]; hot loops
    /// reuse a caller-owned buffer instead.
    pub fn tick(&mut self, now: Cycle) -> Vec<Emit> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// [`EngineTile::tick`] into a caller-owned buffer (cleared first),
    /// so the steady-state tick loop performs no allocation.
    pub fn tick_into(&mut self, now: Cycle, out: &mut Vec<Emit>) {
        out.clear();
        // Fault states: a DOWN tile is inert; a crashed or stalled
        // tile is frozen (work in flight neither completes nor
        // advances, which is exactly what the watchdog must detect).
        if self.down || self.crashed || now < self.stall_until {
            return;
        }

        // Retry a refused RX message first: its slot blocks the
        // network until the queue admits it.
        if let Some(msg) = self.pending.take() {
            match self.queue.offer(msg, now) {
                Admission::Accepted | Admission::Dropped { .. } => {}
                Admission::Refused(m) => self.pending = Some(m),
            }
        }

        // Complete service.
        if let Some((_, _, done_at)) = &self.in_service {
            if now >= *done_at {
                let (msg, started_at, _) = self.in_service.take().expect("checked");
                self.stats.processed += 1;
                self.last_progress = now;
                if self.tracer.enabled() {
                    self.tracer.complete_arg(
                        self.track,
                        "engine.service",
                        started_at,
                        now.since(started_at),
                        "msg",
                        msg.id.0,
                    );
                }
                self.process_and_route(msg, now, out);
            }
        }

        // Start service.
        if self.in_service.is_none() {
            if let Some(msg) = self.queue.pop(now) {
                // Degradation fault: every service started while the
                // fault holds takes `degrade_mult`× nominal. The
                // recorded service time is the degraded one — that is
                // what the packet experienced.
                let st = self.offload.service_time(&msg) * u64::from(self.degrade_mult);
                self.stats.service.record(st.count());
                self.last_progress = now;
                if st == Cycles::ZERO {
                    // Line-rate engine: completes this cycle.
                    self.stats.processed += 1;
                    if self.tracer.enabled() {
                        self.tracer.complete_arg(
                            self.track,
                            "engine.service",
                            now,
                            Cycles::ZERO,
                            "msg",
                            msg.id.0,
                        );
                    }
                    self.process_and_route(msg, now, out);
                } else {
                    self.in_service = Some((msg, now, now + st));
                }
            }
        }

        if self.in_service.is_some() {
            self.stats.busy_cycles += 1;
        } else if self.queue.is_empty() && self.pending.is_none() {
            // Verifiably idle: an idle tile is healthy, not wedged —
            // keep the progress clock current so the watchdog's
            // engine-health check only fires on tiles that hold work
            // without advancing it.
            self.last_progress = now;
        }
    }

    /// Runs the offload on `msg` and routes every output, reusing the
    /// tile's scratch buffer for the offload outputs. The input
    /// message's tenant tag is captured first so a `Consumed` output —
    /// which carries no message — can still be attributed.
    fn process_and_route(&mut self, msg: Message, now: Cycle, out: &mut Vec<Emit>) {
        let tenant = msg.tenant;
        let mut scratch = std::mem::take(&mut self.out_scratch);
        self.offload.process_into(msg, now, &mut scratch);
        for o in scratch.drain(..) {
            out.push(self.route_output(o, tenant));
        }
        self.out_scratch = scratch;
    }

    /// Fast-forward hint (see `sim_core::Driven::wakes` for the
    /// contract): the next cycle at which this tile's `tick` would do
    /// anything observable, or `None` when it never will without
    /// external input.
    ///
    /// * DOWN / crashed tiles are inert until an external actor (the
    ///   watchdog, the fault plane) touches them: `None`.
    /// * A stalled tile wakes at `stall_until` (the first live tick —
    ///   a completion whose deadline passed during the stall fires
    ///   there, and an idle tile's progress clock resumes there).
    /// * A parked RX message or a non-empty queue retries/pops every
    ///   cycle — and each refused retry bumps the queue's `refused`
    ///   counter, so those cycles cannot be skipped.
    /// * A busy tile's next event is its service completion; the
    ///   skipped cycles only accrue `busy_cycles`, which
    ///   [`EngineTile::skip_idle`] replays.
    #[must_use]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.down || self.crashed {
            return None;
        }
        if self.stall_until > now {
            return Some(self.stall_until.max(now.next()));
        }
        if self.pending.is_some() || !self.queue.is_empty() {
            return Some(now.next());
        }
        if let Some((_, _, done_at)) = &self.in_service {
            return Some((*done_at).max(now.next()));
        }
        None
    }

    /// True when the tile holds any work: a parked RX message, queued
    /// messages, or a message in service. A workless tile's tick is a
    /// pure no-op apart from refreshing the progress clock, which
    /// [`EngineTile::catch_up_idle`] replays — the NIC's tick loop uses
    /// this pair to visit only tiles that can act this cycle.
    #[inline]
    #[must_use]
    pub fn has_work(&self) -> bool {
        self.pending.is_some() || self.in_service.is_some() || !self.queue.is_empty()
    }

    /// Replays the only stepped effect of workless skipped ticks
    /// ending at `to` (exclusive): each tick at `t >= stall_until`
    /// refreshed the progress clock to `t`; frozen or stalled ticks
    /// were inert. Safe only for a span in which the tile held no work
    /// (see [`EngineTile::has_work`]); the watchdog cannot observe the
    /// deferred clock meanwhile because `wedged` gates on held work.
    pub fn catch_up_idle(&mut self, to: Cycle) {
        if self.down || self.crashed {
            return;
        }
        if to.0 > self.stall_until.0 {
            self.last_progress = self.last_progress.max(Cycle(to.0 - 1));
        }
    }

    /// Replays the per-cycle bookkeeping of the skipped ticks
    /// `[from, to)` exactly as a stepped run would have performed it:
    /// a frozen tile does nothing; a busy tile accrues one
    /// `busy_cycles` per cycle; an idle tile refreshes its progress
    /// clock. Keeps fast-forwarded runs byte-identical to stepped ones
    /// (see `docs/PERF.md`).
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        if self.down || self.crashed {
            return;
        }
        if self.stall_until >= to {
            // Every skipped tick fell inside the stall window: the
            // stepped run's ticks were all no-ops.
            return;
        }
        debug_assert!(
            self.stall_until <= from,
            "skip window straddles a stall boundary (hint bug)"
        );
        debug_assert!(
            self.pending.is_none() && self.queue.is_empty(),
            "skip_idle with queued work (hint bug)"
        );
        if let Some((_, _, done_at)) = &self.in_service {
            debug_assert!(*done_at >= to, "skip window crosses a service completion");
            self.stats.busy_cycles += to.0 - from.0;
        } else {
            self.last_progress = Cycle(to.0 - 1);
        }
    }

    // ---- fault plane -----------------------------------------------

    /// Fault injection: freeze the tile until `until` (max-extends an
    /// existing stall). While stalled, `tick` is inert: in-flight work
    /// neither completes nor advances.
    pub fn fault_stall(&mut self, until: Cycle) {
        self.faulted = true;
        self.stall_until = self.stall_until.max(until);
    }

    /// Fault injection: permanently freeze the tile. Only watchdog
    /// recovery ([`EngineTile::watchdog_down`]) applies afterwards.
    pub fn fault_crash(&mut self) {
        self.faulted = true;
        self.crashed = true;
    }

    /// Fault injection: multiply all subsequently started service
    /// times by `mult` (1 restores nominal speed).
    ///
    /// # Panics
    /// Panics if `mult` is 0 — a zero multiplier would turn every
    /// engine into a line-rate one, which is a speed-up, not a fault.
    pub fn fault_degrade(&mut self, mult: u32) {
        assert!(mult >= 1, "degrade multiplier must be >= 1");
        self.faulted = true;
        self.degrade_mult = mult;
    }

    /// Fault injection: the scheduling queue refuses all offers until
    /// `until` (delegates to [`SchedQueue::fault_refuse_until`]).
    pub fn fault_refuse_until(&mut self, until: Cycle) {
        self.faulted = true;
        self.queue.fault_refuse_until(until);
    }

    /// Watchdog recovery: marks the tile DOWN, flushes everything it
    /// holds (queue, RX pending slot, in-service message) and returns
    /// the number of messages destroyed. The flush is charged to
    /// [`TileStats::flushed`] so NIC-level conservation still closes.
    /// A DOWN tile absorbs (and counts) any message still routed to it.
    pub fn watchdog_down(&mut self) -> u64 {
        self.faulted = true;
        self.down = true;
        let mut flushed = 0u64;
        for msg in self.queue.drain_for_flush() {
            self.stats.record_flush(msg.tenant);
            flushed += 1;
        }
        if let Some(msg) = self.pending.take() {
            self.stats.record_flush(msg.tenant);
            flushed += 1;
        }
        if let Some((msg, _, _)) = self.in_service.take() {
            self.stats.record_flush(msg.tenant);
            flushed += 1;
        }
        flushed
    }

    /// True when the watchdog marked this tile DOWN.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// True when a crash fault froze this tile.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Engine-health probe: true when the tile *holds work* but has
    /// not made progress for longer than `timeout`. Idle tiles are
    /// never wedged (their progress clock tracks `now`).
    #[must_use]
    pub fn wedged(&self, now: Cycle, timeout: Cycles) -> bool {
        let has_work =
            !self.queue.is_empty() || self.in_service.is_some() || self.pending.is_some();
        has_work && now.saturating_since(self.last_progress) > timeout
    }

    /// The local lookup table: maps an offload output to a NIC-level
    /// emission, advancing the chain cursor for forwards and falling
    /// back to the pipeline when the chain is exhausted (§3.1.2's
    /// "default route back to the heavyweight RMT pipeline").
    fn route_output(&mut self, out: Output, tenant: TenantId) -> Emit {
        match out {
            Output::Forward(mut msg) => match msg.chain.advance() {
                Some(hop) => Emit::To(hop.engine, msg),
                None => Emit::ToPipeline(msg),
            },
            Output::ForwardTo(dest, msg) => Emit::To(dest, msg),
            Output::ToPipeline(msg) => Emit::ToPipeline(msg),
            Output::Egress(kind, msg) => Emit::Egress(kind, msg),
            Output::Consumed => Emit::Consumed(tenant),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullOffload;
    use bytes::Bytes;
    use packet::chain::{ChainHeader, EngineClass, Slack};
    use packet::message::{MessageId, MessageKind};
    use trace::MetricsRegistry;

    fn tile(service: u64) -> EngineTile {
        EngineTile::new(
            EngineId(5),
            Box::new(NullOffload::new("null", EngineClass::Asic, Cycles(service))),
            TileConfig::default(),
        )
    }

    fn msg_with_chain(id: u64, chain: &[u16], slack: Slack) -> Message {
        let engines: Vec<EngineId> = chain.iter().map(|&e| EngineId(e)).collect();
        Message::builder(MessageId(id), MessageKind::EthernetFrame)
            .payload(Bytes::from_static(&[0u8; 32]))
            .chain(ChainHeader::uniform(&engines, slack).unwrap())
            .build()
    }

    #[test]
    fn forwards_to_next_chain_hop() {
        let mut t = tile(0);
        // Chain [5, 9]: tile 5 is current; after processing, go to 9.
        t.accept(msg_with_chain(1, &[5, 9], Slack(10)), Cycle(0));
        let emits = t.tick(Cycle(0));
        assert_eq!(emits.len(), 1);
        match &emits[0] {
            Emit::To(dest, m) => {
                assert_eq!(*dest, EngineId(9));
                assert_eq!(m.id, MessageId(1));
                assert_eq!(m.next_engine(), Some(EngineId(9)));
            }
            other => panic!("expected To, got {other:?}"),
        }
        assert_eq!(t.stats().processed, 1);
    }

    #[test]
    fn exhausted_chain_falls_back_to_pipeline() {
        let mut t = tile(0);
        t.accept(msg_with_chain(1, &[5], Slack(10)), Cycle(0));
        let emits = t.tick(Cycle(0));
        assert!(matches!(emits[0], Emit::ToPipeline(_)));
    }

    #[test]
    fn service_time_delays_completion() {
        let mut t = tile(4);
        t.accept(msg_with_chain(1, &[5, 9], Slack(10)), Cycle(0));
        assert!(t.tick(Cycle(0)).is_empty()); // starts service
        assert!(t.is_busy());
        assert!(t.tick(Cycle(1)).is_empty());
        assert!(t.tick(Cycle(2)).is_empty());
        assert!(t.tick(Cycle(3)).is_empty());
        let emits = t.tick(Cycle(4));
        assert_eq!(emits.len(), 1);
        assert!(!t.is_busy() || t.queue_depth() > 0);
        assert_eq!(t.stats().busy_cycles, 4);
    }

    #[test]
    fn slack_order_at_the_tile() {
        let mut t = tile(100);
        // Busy the engine with a bulk message, then queue another bulk
        // and an urgent one. The urgent one must be served next.
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        let _ = t.tick(Cycle(0)); // 1 enters service
        t.accept(msg_with_chain(2, &[5], Slack::BULK), Cycle(1));
        let _ = t.tick(Cycle(1));
        t.accept(msg_with_chain(3, &[5], Slack(5)), Cycle(2));
        // Run to completion of msg 1 at cycle 100 and the next pop.
        let mut order = Vec::new();
        for c in 2..400u64 {
            for e in t.tick(Cycle(c)) {
                if let Emit::ToPipeline(m) = e {
                    order.push(m.id.0);
                }
            }
        }
        assert_eq!(order, vec![1, 3, 2], "urgent message bypassed bulk");
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let cfg = TileConfig {
            queue_capacity: 2,
            admission: AdmissionPolicy::TailDrop,
        };
        let mut t = EngineTile::new(
            EngineId(5),
            Box::new(NullOffload::new("slow", EngineClass::Asic, Cycles(1000))),
            cfg,
        );
        for i in 0..5 {
            t.accept(msg_with_chain(i, &[5], Slack::BULK), Cycle(0));
        }
        // One may have entered service... no tick yet, so all 5 offered
        // to a 2-deep queue: 3 drops.
        assert_eq!(t.drops(), 3);
        assert_eq!(t.queue_depth(), 2);
    }

    #[test]
    fn backpressure_holds_message_and_blocks_rx() {
        let cfg = TileConfig {
            queue_capacity: 1,
            admission: AdmissionPolicy::Backpressure,
        };
        let mut t = EngineTile::new(
            EngineId(5),
            Box::new(NullOffload::new("slow", EngineClass::Dma, Cycles(1000))),
            cfg,
        );
        assert!(t.rx_ready());
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        assert!(t.rx_ready()); // queued fine
        t.accept(msg_with_chain(2, &[5], Slack::BULK), Cycle(0));
        assert!(!t.rx_ready(), "second message parked in pending");
        // Tick: msg 1 enters service, freeing a queue slot; pending
        // drains into the queue.
        let _ = t.tick(Cycle(0));
        let _ = t.tick(Cycle(1));
        assert!(t.rx_ready());
        assert_eq!(t.drops(), 0, "lossless under backpressure");
    }

    #[test]
    #[should_panic(expected = "accept while busy")]
    fn accept_past_backpressure_panics() {
        let cfg = TileConfig {
            queue_capacity: 1,
            admission: AdmissionPolicy::Backpressure,
        };
        let mut t = EngineTile::new(
            EngineId(5),
            Box::new(NullOffload::new("slow", EngineClass::Dma, Cycles(1000))),
            cfg,
        );
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        t.accept(msg_with_chain(2, &[5], Slack::BULK), Cycle(0));
        t.accept(msg_with_chain(3, &[5], Slack::BULK), Cycle(0));
    }

    #[test]
    fn zero_service_is_one_message_per_cycle() {
        let mut t = tile(0);
        for i in 0..3 {
            t.accept(msg_with_chain(i, &[5, 9], Slack(10)), Cycle(0));
        }
        // Even at zero service time, one pop per tick.
        assert_eq!(t.tick(Cycle(0)).len(), 1);
        assert_eq!(t.tick(Cycle(1)).len(), 1);
        assert_eq!(t.tick(Cycle(2)).len(), 1);
        assert_eq!(t.tick(Cycle(3)).len(), 0);
    }

    #[test]
    fn tracer_records_service_spans_and_metrics_export() {
        use trace::EventKind;
        let tracer = Tracer::ring(128);
        let mut t = tile(4);
        t.attach_tracer(&tracer);
        t.accept(msg_with_chain(1, &[5, 9], Slack(10)), Cycle(0));
        for c in 0..6u64 {
            let _ = t.tick(Cycle(c));
        }
        let events = tracer.ring_snapshot().unwrap();
        let span = events
            .iter()
            .find(|e| e.name == "engine.service")
            .expect("service span recorded");
        assert_eq!(span.ts, 0, "span starts when service starts");
        assert_eq!(span.kind, EventKind::Complete { dur: 4 });
        assert_eq!(span.args[0], Some(("msg", 1)));
        // The queue shares the tile's track.
        assert!(events.iter().any(|e| e.name == "sched.push"));
        assert!(events.iter().all(|e| e.track == span.track));

        let mut m = MetricsRegistry::new();
        t.export_metrics(&mut m, "engine.5.null");
        assert_eq!(m.counter("engine.5.null.processed"), Some(1));
        assert_eq!(m.counter("engine.5.null.sched.accepted"), Some(1));
        assert_eq!(m.histogram("engine.5.null.service").unwrap().max(), 4);
    }

    #[test]
    fn stall_freezes_then_resumes() {
        let mut t = tile(2);
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        t.fault_stall(Cycle(10));
        // Frozen: nothing happens while the stall holds.
        for c in 0..10u64 {
            assert!(t.tick(Cycle(c)).is_empty(), "frozen at cycle {c}");
        }
        // Resumes at cycle 10: service starts, completes at 12.
        assert!(t.tick(Cycle(10)).is_empty());
        assert!(t.is_busy());
        assert!(t.tick(Cycle(11)).is_empty());
        let emits = t.tick(Cycle(12));
        assert_eq!(emits.len(), 1);
        assert_eq!(t.stats().processed, 1);
    }

    #[test]
    fn crash_freezes_forever_and_down_flushes() {
        let mut t = tile(4);
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        let _ = t.tick(Cycle(0)); // msg 1 enters service
        t.accept(msg_with_chain(2, &[5], Slack::BULK), Cycle(1));
        t.fault_crash();
        assert!(t.is_crashed());
        for c in 1..200u64 {
            assert!(t.tick(Cycle(c)).is_empty(), "crashed tile stays frozen");
        }
        // The tile holds work it cannot advance: the watchdog's health
        // probe must see it as wedged.
        assert!(t.wedged(Cycle(200), Cycles(64)));
        // Watchdog recovery: DOWN-flush destroys both messages...
        assert_eq!(t.watchdog_down(), 2);
        assert!(t.is_down());
        assert_eq!(t.stats().flushed, 2);
        // ...and a DOWN tile absorbs anything still routed to it.
        t.accept(msg_with_chain(3, &[5], Slack::BULK), Cycle(201));
        assert_eq!(t.stats().flushed, 3);
        assert!(t.rx_ready(), "DOWN tile never backpressures");
        assert!(t.tick(Cycle(202)).is_empty());
    }

    #[test]
    fn flushes_attribute_to_tenants() {
        let mut t = tile(1000);
        let tagged = |id: u64, tenant: u16| {
            Message::builder(MessageId(id), MessageKind::EthernetFrame)
                .tenant(TenantId(tenant))
                .chain(ChainHeader::uniform(&[EngineId(5)], Slack::BULK).unwrap())
                .build()
        };
        t.accept(tagged(1, 3), Cycle(0));
        t.accept(tagged(2, 4), Cycle(0));
        assert_eq!(t.watchdog_down(), 2);
        assert_eq!(t.stats().flushed, 2);
        assert_eq!(t.stats().flushed_of(TenantId(3)), 1);
        assert_eq!(t.stats().flushed_of(TenantId(4)), 1);
        // DOWN-absorption attributes too.
        t.accept(tagged(3, 3), Cycle(1));
        assert_eq!(t.stats().flushed_of(TenantId(3)), 2);
    }

    #[test]
    fn consumed_emit_carries_tenant() {
        /// A sink offload: consumes everything it is given.
        #[derive(Debug)]
        struct SinkOffload;
        impl Offload for SinkOffload {
            fn name(&self) -> &str {
                "sink"
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
            fn service_time(&self, _msg: &Message) -> Cycles {
                Cycles::ZERO
            }
            fn process_into(&mut self, _msg: Message, _now: Cycle, out: &mut Vec<Output>) {
                out.push(Output::Consumed);
            }
        }
        let mut t = EngineTile::new(EngineId(5), Box::new(SinkOffload), TileConfig::default());
        let m = Message::builder(MessageId(1), MessageKind::EthernetFrame)
            .tenant(TenantId(9))
            .chain(ChainHeader::uniform(&[EngineId(5)], Slack::BULK).unwrap())
            .build();
        t.accept(m, Cycle(0));
        let emits = t.tick(Cycle(0));
        assert!(matches!(emits[0], Emit::Consumed(TenantId(9))), "{emits:?}");
    }

    #[test]
    fn degrade_multiplies_service_time() {
        let mut t = tile(4);
        t.fault_degrade(3);
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        assert!(t.tick(Cycle(0)).is_empty()); // service starts, 12 cycles
        for c in 1..12u64 {
            assert!(t.tick(Cycle(c)).is_empty(), "degraded service at {c}");
        }
        assert_eq!(t.tick(Cycle(12)).len(), 1);
        assert_eq!(t.stats().service.max(), 12);
        // Restoring nominal speed takes effect at the next start.
        t.fault_degrade(1);
        t.accept(msg_with_chain(2, &[5], Slack::BULK), Cycle(13));
        assert!(t.tick(Cycle(13)).is_empty());
        assert_eq!(t.tick(Cycle(17)).len(), 1);
    }

    #[test]
    fn refuse_fault_delegates_to_queue() {
        let mut t = tile(1000);
        t.fault_refuse_until(Cycle(50));
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        // The queue refused, so the message parked in the RX slot.
        assert!(!t.rx_ready());
        assert_eq!(t.refusals(), 1);
        // After the window the pending retry drains into the queue.
        let _ = t.tick(Cycle(50));
        assert!(t.rx_ready());
    }

    #[test]
    fn idle_tile_is_never_wedged() {
        let mut t = tile(4);
        // Long idle stretch: progress clock follows `now`.
        for c in 0..500u64 {
            let _ = t.tick(Cycle(c));
        }
        assert!(!t.wedged(Cycle(500), Cycles(64)));
        // Work arrives and is served: still healthy.
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(500));
        for c in 500..520u64 {
            let _ = t.tick(Cycle(c));
        }
        assert!(!t.wedged(Cycle(520), Cycles(64)));
    }

    #[test]
    fn fault_free_metrics_omit_flush_counter() {
        let mut m = MetricsRegistry::new();
        tile(1).export_metrics(&mut m, "engine.5.null");
        assert_eq!(m.counter("engine.5.null.flushed"), None);
        let mut t = tile(1);
        let _ = t.watchdog_down();
        let mut m2 = MetricsRegistry::new();
        t.export_metrics(&mut m2, "engine.5.null");
        assert_eq!(m2.counter("engine.5.null.flushed"), Some(0));
    }

    #[test]
    fn next_activity_hints() {
        let mut t = tile(4);
        // Idle tile: quiescent.
        assert_eq!(t.next_activity(Cycle(0)), None);
        // Queued work: active next cycle.
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        assert_eq!(t.next_activity(Cycle(0)), Some(Cycle(1)));
        // In service (started at 0, done at 4): next event is the
        // completion.
        let _ = t.tick(Cycle(0));
        assert_eq!(t.next_activity(Cycle(0)), Some(Cycle(4)));
        // Completed: quiescent again.
        for c in 1..=4u64 {
            let _ = t.tick(Cycle(c));
        }
        assert_eq!(t.next_activity(Cycle(4)), None);
        // Crashed tiles are inert.
        t.fault_crash();
        assert_eq!(t.next_activity(Cycle(5)), None);
    }

    #[test]
    fn stalled_tile_hints_wake_cycle() {
        let mut t = tile(4);
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        t.fault_stall(Cycle(10));
        assert_eq!(t.next_activity(Cycle(0)), Some(Cycle(10)));
        // Skipping the frozen window replays nothing (stepped ticks
        // were no-ops) and the tile resumes identically.
        let mut stepped = tile(4);
        stepped.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        stepped.fault_stall(Cycle(10));
        for c in 0..10u64 {
            let _ = stepped.tick(Cycle(c));
        }
        t.skip_idle(Cycle(0), Cycle(10));
        for c in 10..20u64 {
            let a = t.tick(Cycle(c)).len();
            let b = stepped.tick(Cycle(c)).len();
            assert_eq!(a, b, "divergence at cycle {c}");
        }
        assert_eq!(t.stats().processed, stepped.stats().processed);
        assert_eq!(t.stats().busy_cycles, stepped.stats().busy_cycles);
    }

    #[test]
    fn skip_idle_matches_stepped_busy_and_idle_bookkeeping() {
        // Busy window: skipping accrues the same busy_cycles.
        let run = |skip: bool| {
            let mut t = tile(10);
            t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
            let _ = t.tick(Cycle(0)); // service starts, done at 10
            if skip {
                t.skip_idle(Cycle(1), Cycle(10));
            } else {
                for c in 1..10u64 {
                    let _ = t.tick(Cycle(c));
                }
            }
            let emits = t.tick(Cycle(10));
            assert_eq!(emits.len(), 1);
            // Idle window after completion.
            if skip {
                t.skip_idle(Cycle(11), Cycle(20));
            } else {
                for c in 11..20u64 {
                    let _ = t.tick(Cycle(c));
                }
            }
            (t.stats().busy_cycles, t.stats().processed)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn pending_rx_pins_the_hint() {
        let cfg = TileConfig {
            queue_capacity: 1,
            admission: AdmissionPolicy::Backpressure,
        };
        let mut t = EngineTile::new(
            EngineId(5),
            Box::new(NullOffload::new("slow", EngineClass::Dma, Cycles(1000))),
            cfg,
        );
        t.accept(msg_with_chain(1, &[5], Slack::BULK), Cycle(0));
        t.accept(msg_with_chain(2, &[5], Slack::BULK), Cycle(0));
        assert!(!t.rx_ready());
        // The parked message retries every cycle: never skippable.
        assert_eq!(t.next_activity(Cycle(0)), Some(Cycle(1)));
    }

    #[test]
    fn debug_and_accessors() {
        let t = tile(1);
        assert_eq!(t.id(), EngineId(5));
        assert_eq!(t.offload_name(), "null");
        assert_eq!(t.offload().class(), EngineClass::Asic);
        let s = format!("{t:?}");
        assert!(s.contains("null"), "{s}");
        assert_eq!(t.queue_stats().accepted, 0);
    }
}
