//! The datapath: how a copy enters the NIC, moves along its chain, and
//! leaves.
//!
//! There is one way in ([`PanicNic::ingress`], behind `rx_frame` and
//! `inject_from`) and one way out: every terminal of a copy's life
//! goes through [`PanicNic::exit`], the single place where the NIC
//! counters, latency histograms, tenant ledger, watchdog descriptors
//! and boundary trace instants are kept consistent with each other.
//! In between, [`PanicNic::tick`] advances mesh, pipeline and tiles.

use bytes::Bytes;
use engines::engine::{EgressKind, Output};
use engines::pcie::PcieEngine;
use engines::tile::{Emit, EngineTile};
use packet::chain::{EngineId, Hop, Slack};
use packet::message::{Message, MessageId, MessageKind, Priority, TenantId};
use rmt::action::Verdict;
use sim_core::bits::set_bits;
use sim_core::time::Cycle;
use tenancy::{ExitKind, SubmitSource};

use super::tenants::reckon_implicit;
use super::{PanicNic, TileSlot};

/// What is leaving the NIC in a [`PanicNic::exit`].
pub(super) enum Leaving {
    /// A copy that crossed the datapath.
    Copy(Message),
    /// A message the NIC originated itself (a coalesced PCIe
    /// interrupt): counted and delivered, but it never came through
    /// `ingress`, so there is no descriptor to complete, no
    /// injection-to-exit latency and no boundary instant.
    Originated(Message),
    /// A copy an engine absorbed; only its tenant outlives it.
    Absorbed(TenantId),
}

impl PanicNic {
    fn next_portal(&mut self) -> EngineId {
        let p = self.portals[self.rr_portal];
        self.rr_portal += 1;
        if self.rr_portal == self.portals.len() {
            self.rr_portal = 0;
        }
        p
    }

    fn alloc_msg_id(&mut self) -> MessageId {
        let id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        id
    }

    /// Receives a frame from the wire at `port` (an Ethernet tile).
    /// The frame heads to the heavyweight pipeline for classification,
    /// as every fresh message must (§3.1.2).
    pub fn rx_frame(
        &mut self,
        port: EngineId,
        frame: Bytes,
        tenant: TenantId,
        priority: Priority,
        now: Cycle,
    ) -> MessageId {
        self.ingress(port, frame, tenant, priority, SubmitSource::Rx, now)
    }

    /// Injects a frame that originates *inside* the NIC boundary at
    /// `source` (e.g. a host TX path handing a frame to the DMA tile).
    pub fn inject_from(
        &mut self,
        source: EngineId,
        frame: Bytes,
        tenant: TenantId,
        priority: Priority,
        now: Cycle,
    ) -> MessageId {
        self.ingress(source, frame, tenant, priority, SubmitSource::Injected, now)
    }

    /// The one way in: mints a message for `frame` at mesh position
    /// `source`, counts it as the conservation source `via` names, and
    /// parks it with its tenant's vNIC or launches it.
    fn ingress(
        &mut self,
        source: EngineId,
        frame: Bytes,
        tenant: TenantId,
        priority: Priority,
        via: SubmitSource,
        now: Cycle,
    ) -> MessageId {
        let id = self.alloc_msg_id();
        let msg = Message::builder(id, MessageKind::EthernetFrame)
            .payload(frame)
            .tenant(tenant)
            .priority(priority)
            .source(source)
            .injected_at(now)
            .build();
        match via {
            SubmitSource::Rx => {
                self.stats.rx_frames += 1;
                self.tracer
                    .instant_arg(self.track, "nic.rx_frame", now, "msg", id.0);
            }
            SubmitSource::Injected => self.stats.injected_internal += 1,
        }
        // Tenancy interception: frames belonging to a configured vNIC
        // park in its pending queue and enter the datapath when the
        // tenancy scheduler releases them (admission + rate + DRR).
        // Unknown tenants — and every frame on an untenanted NIC —
        // take the direct path below.
        if let Some(tn) = self.tenancy.as_mut() {
            // `admits`, not `knows`: a vNIC draining toward live
            // removal stops admitting while its in-flight copies keep
            // settling through the accounting paths.
            if tn.admits(tenant) {
                tn.submit(via, msg, now);
                return id;
            }
        }
        self.launch(msg, now);
        id
    }

    /// Starts a fresh message's journey: arms its watchdog deadline
    /// and sends it from its source tile into the pipeline. Shared by
    /// the direct ingress path and the tenancy release scheduler.
    pub(super) fn launch(&mut self, msg: Message, now: Cycle) {
        let source = msg.source;
        self.watchdog_track(&msg, source, now);
        self.send_to_pipeline(source, msg, now);
    }

    /// Sends `msg` from mesh position `from` to the next portal, for a
    /// (further) pass through the heavyweight pipeline.
    pub(super) fn send_to_pipeline(&mut self, from: EngineId, msg: Message, now: Cycle) {
        let portal = self.next_portal();
        self.network.send(from, portal, msg, now);
    }

    /// The one way out: closes the NIC's books on a copy leaving as
    /// `requested`. In order:
    ///
    /// 1. descriptor completion — a late copy of an already completed
    ///    descriptor leaves as [`ExitKind::Duplicate`] instead,
    ///    whatever was requested. Dead letters and absorbed copies are
    ///    losses, not completions: their descriptor stays armed so the
    ///    watchdog re-issues it;
    /// 2. the one NIC counter for the kind;
    /// 3. latency sample — wire, host and host fallback only;
    /// 4. tenant ledger (which also returns the buffer credit);
    /// 5. trace instant on the `nic` track;
    /// 6. egress buffer — wire, host or fabric; every other kind drops
    ///    the copy here.
    pub(super) fn exit(&mut self, leaving: Leaving, requested: ExitKind, now: Cycle) {
        let (tenant, msg, crossed) = match leaving {
            Leaving::Copy(m) => (m.tenant, Some(m), true),
            Leaving::Originated(m) => (m.tenant, Some(m), false),
            Leaving::Absorbed(t) => (t, None, false),
        };
        let copy = msg.as_ref().filter(|_| crossed);

        let completes = !matches!(requested, ExitKind::Unrouted | ExitKind::Consumed);
        let kind = match copy {
            Some(m) if completes && self.complete_descriptor(m.id, now) => ExitKind::Duplicate,
            _ => requested,
        };

        *match kind {
            ExitKind::Wire => &mut self.stats.tx_wire,
            ExitKind::Host => &mut self.stats.host_deliveries,
            ExitKind::HostFallback => &mut self.stats.host_fallback,
            ExitKind::Consumed => &mut self.stats.consumed,
            ExitKind::Control => &mut self.stats.control_completed,
            ExitKind::Unrouted => &mut self.stats.unrouted,
            ExitKind::Duplicate => &mut self.stats.duplicates,
            ExitKind::Remote => &mut self.stats.remote_tx,
        } += 1;

        let latency = match (copy, kind) {
            (Some(m), ExitKind::Wire | ExitKind::Host | ExitKind::HostFallback) => {
                let latency = now.saturating_since(m.injected_at);
                self.stats.latency[m.priority as usize].record(latency.count());
                Some(latency)
            }
            _ => None,
        };
        if let Some(tn) = self.tenancy.as_mut() {
            tn.note_exit(tenant, kind, latency);
        }

        // `failover.host` marks the steering decision, so it is traced
        // even when the copy then turns out to be a late duplicate.
        let instant = match (requested, kind) {
            (ExitKind::HostFallback, _) => Some("failover.host"),
            (_, ExitKind::Wire) => Some("nic.tx_wire"),
            (_, ExitKind::Host) => Some("nic.host_delivery"),
            (_, ExitKind::Remote) => Some("nic.remote_tx"),
            _ => None,
        };
        if let (Some(m), Some(name)) = (copy, instant) {
            self.tracer
                .instant_arg(self.track, name, now, "msg", m.id.0);
        }

        match (msg, kind) {
            (Some(m), ExitKind::Wire) => self.wire_tx.push(m),
            (Some(m), ExitKind::Host | ExitKind::HostFallback) => self.host_rx.push(m),
            (Some(m), ExitKind::Remote) => self.remote_egress.push_back(m),
            _ => {}
        }
    }

    /// Routes a message that is leaving the pipeline or a tile toward
    /// its next chain hop, from mesh position `from`.
    fn route_onward(&mut self, from: EngineId, msg: Message, now: Cycle) {
        match msg.next_engine() {
            Some(next) => self.send_resolved(from, next, msg, now),
            None => self.exit(Leaving::Copy(msg), ExitKind::Unrouted, now),
        }
    }

    /// Sends `msg` toward `dest`, applying the failover policy when
    /// `dest` is DOWN: rewrite the remaining chain hops onto the
    /// replica and send there, or — with no replica — deliver the
    /// message to the host (degraded but not lost).
    ///
    /// A *remote* `dest` ([`EngineId::is_remote`]) never enters this
    /// NIC's mesh: the message parks in the remote-egress buffer for
    /// the rack fabric to carry over an inter-NIC link, and this NIC's
    /// books close on it here (a `remote_tx` sink, a tenancy
    /// [`ExitKind::Remote`], a completed watchdog descriptor — the
    /// destination NIC owns the copy from the link onward).
    fn send_resolved(&mut self, from: EngineId, dest: EngineId, mut msg: Message, now: Cycle) {
        if dest.is_remote() {
            // Remote-addressed to *this* member: localize and stay on
            // the mesh — no ToR crossing, no remote_tx. This is how the
            // tail of a cross-NIC chain (encoded by the source NIC's
            // pipeline, every hop fabric-qualified) runs out on the
            // destination without bouncing through the uplink again.
            if self.fabric_index.is_some() && dest.remote_nic() == self.fabric_index {
                let local = dest.local_part();
                if !self.has_tile(local) {
                    self.exit(Leaving::Copy(msg), ExitKind::Unrouted, now);
                    return;
                }
                msg.chain.localize_current(local);
                self.send_resolved(from, local, msg, now);
                return;
            }
            self.exit(Leaving::Copy(msg), ExitKind::Remote, now);
            return;
        }
        match self.failover_for(dest) {
            None => self.network.send(from, dest, msg, now),
            Some(Some(replica)) => {
                msg.chain.rewrite_pending(dest, replica);
                self.tracer
                    .instant_arg(self.track, "failover.redirect", now, "msg", msg.id.0);
                self.network.send(from, replica, msg, now);
            }
            // Host fallback: the offload service is gone; hand the
            // packet to software instead of blackholing it.
            Some(None) => self.exit(Leaving::Copy(msg), ExitKind::HostFallback, now),
        }
    }

    /// Handles a tile emission.
    pub(super) fn handle_emit(&mut self, from: EngineId, emit: Emit, now: Cycle) {
        match emit {
            Emit::To(dest, msg) => self.send_resolved(from, dest, msg, now),
            Emit::ToPipeline(msg) if msg.kind == MessageKind::EthernetFrame => {
                self.send_to_pipeline(from, msg, now);
            }
            // A control message whose chain is complete has simply
            // finished its job.
            Emit::ToPipeline(msg) => self.exit(Leaving::Copy(msg), ExitKind::Control, now),
            Emit::Egress(EgressKind::Wire, msg) => {
                self.exit(Leaving::Copy(msg), ExitKind::Wire, now);
            }
            Emit::Egress(EgressKind::Host, msg) => {
                self.exit(Leaving::Copy(msg), ExitKind::Host, now);
            }
            Emit::Consumed(tenant) => {
                self.exit(Leaving::Absorbed(tenant), ExitKind::Consumed, now);
            }
        }
    }

    /// Tick step 2: advances the heavyweight pipeline (into the reused
    /// scratch buffer) and routes what it emits onto the mesh.
    pub(super) fn step_pipeline(&mut self, now: Cycle) {
        self.stats.layer.rmt += u64::from(self.pipeline_holds_work());
        let mut outputs = std::mem::take(&mut self.pipeline_scratch);
        self.pipeline.tick_into(now, &mut outputs);
        for out in outputs.drain(..) {
            let mut msg = out.msg;
            if out.verdict == Verdict::Recirculate {
                // §3.1.2: "the RMT pipeline includes itself as a nexthop
                // in the chain so that it can generate the remainder of
                // the chain."
                let portal = self.next_portal();
                let slack = msg.chain.hops().last().map_or(Slack::BULK, |h| h.slack);
                msg.chain
                    .extend(&[Hop {
                        engine: portal,
                        slack,
                    }])
                    .expect("chain extension within MAX_HOPS");
            }
            let exit = self.next_portal();
            self.route_onward(exit, msg, now);
        }
        self.pipeline_scratch = outputs;
    }

    /// Advances the NIC one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // 0. Fault plane: fire due injection events, run the watchdog
        //    (engine health + descriptor deadlines). Fault-free NICs
        //    pay exactly this one branch.
        if self.faults.is_some() {
            self.drive_fault_plane(now);
        }

        // 0b. Tenancy plane: reconcile implicit exits (drops/flushes/
        //     losses return credits), then release pending messages
        //     that pass rate, credit, and deficit checks into the
        //     mesh. Untenanted NICs pay exactly this one branch.
        if self.tenancy.is_some() {
            self.stats.layer.tenancy += u64::from(self.tenancy_holds_work());
            self.drive_tenancy(now);
        }

        // 1. Ejections: tiles pull from the mesh, portals feed the
        //    pipeline. The network's ejection-pending bitmask marks
        //    exactly the tiles with a flit waiting, in mesh order;
        //    translated into slot order, its set bits are the visit
        //    list, id-sorted as the traces expect.
        for w in 0..self.noc_tile_slot.len().div_ceil(64) {
            for bit in set_bits(self.network.ejection_pending_word(w)) {
                let i = self.noc_tile_slot[w * 64 + bit] as usize;
                self.eject_scratch[i / 64] |= 1 << (i % 64);
            }
        }
        for w in 0..self.eject_scratch.len() {
            for bit in set_bits(std::mem::take(&mut self.eject_scratch[w])) {
                let i = w * 64 + bit;
                let t = self.slot_noc_tile[i] as usize;
                match &mut self.tiles[i] {
                    TileSlot::Engine(tile) => {
                        if tile.rx_ready() {
                            if let Some(msg) = self.network.poll_ejected_at(t, now) {
                                // Work landing on a workless tile: its
                                // skipped ticks refreshed no progress
                                // clock, so replay that first.
                                if !tile.has_work() {
                                    tile.catch_up_idle(now);
                                }
                                tile.accept(msg, now);
                                self.occupied[w] |= 1 << bit;
                            }
                        }
                    }
                    TileSlot::RmtPortal => {
                        // Management-plane gate: during a program swap
                        // the portal stops feeding the pipeline so it
                        // drains; flits wait in the NoC ejection buffer
                        // (lossless backpressure, and the network stays
                        // visibly non-quiescent so fast-forward hints
                        // remain conservative).
                        if !self.pipeline_gated {
                            if let Some(msg) = self.network.poll_ejected_at(t, now) {
                                self.pipeline.submit(msg);
                            }
                        }
                    }
                }
            }
        }

        // 2. Pipeline.
        self.step_pipeline(now);

        // 3. Tiles (one reused emission buffer across all tiles), the
        //    occupied ones only: a workless tile's tick is a pure no-op
        //    apart from the progress-clock refresh, which
        //    `catch_up_idle` replays when work next lands on it (the
        //    watchdog cannot observe the deferred clock meanwhile
        //    because `wedged` gates on held work). A tile gives up its
        //    bit the moment it holds no work — unless it is stalled,
        //    because a stall's end is a wake `next_activity` owes.
        let mut emits = std::mem::take(&mut self.emit_scratch);
        let mut any_engine = false;
        let mut any_sched = false;
        for w in 0..self.occupied.len() {
            for bit in set_bits(self.occupied[w]) {
                let i = w * 64 + bit;
                let Some(tile) = self.tiles[i].as_engine_mut() else {
                    continue;
                };
                if tile.has_work() {
                    any_engine = true;
                    any_sched |= tile.queue_depth() > 0;
                    tile.tick_into(now, &mut emits);
                }
                if !tile.has_work() && tile.next_activity(now).is_none() {
                    self.occupied[w] &= !(1 << bit);
                    reckon_implicit(
                        tile,
                        &mut self.implicit_seen[i],
                        &mut self.implicit_in_tiles,
                    );
                }
                let id = self.tile_ids[i];
                for emit in emits.drain(..) {
                    self.handle_emit(id, emit, now);
                }
            }
        }
        self.emit_scratch = emits;
        self.stats.layer.engines += u64::from(any_engine);
        self.stats.layer.sched += u64::from(any_sched);

        // 3b. PCIe coalescing flush timer. Flush cycles are the
        //     positive multiples of the interval; `next_flush` is the
        //     first one not yet reached, so every cycle before it costs
        //     one compare, and a clock that jumped over it (nothing was
        //     pending, so nothing was missed) re-arms without flushing.
        if now.0 >= self.next_flush {
            let flush = self.config.pcie_flush_interval;
            if now.0.is_multiple_of(flush) {
                for k in 0..self.pcie_slots.len() {
                    let pcie = self.tiles[self.pcie_slots[k] as usize]
                        .as_engine_mut()
                        .and_then(|tile| tile.offload_as_mut::<PcieEngine>());
                    if let Some(Output::Egress(_, msg)) = pcie.and_then(PcieEngine::flush) {
                        self.exit(Leaving::Originated(msg), ExitKind::Host, now);
                    }
                }
            }
            self.next_flush = (now.0 / flush + 1) * flush;
        }

        // 4. Mesh.
        self.network.tick(now);
    }

    /// PCIe flush-timer contribution to [`PanicNic::next_activity`]:
    /// the next flush cycle while any coalescer holds pending events
    /// (flushing an empty coalescer is a no-op, so idle multiples are
    /// safe to skip).
    pub(super) fn pcie_flush_next_activity(&self, now: Cycle) -> Option<Cycle> {
        let pending = self.pcie_slots.iter().any(|&i| {
            self.tiles[i as usize]
                .as_engine()
                .and_then(EngineTile::offload_as::<PcieEngine>)
                .is_some_and(|p| p.pending() > 0)
        });
        let flush = self.config.pcie_flush_interval;
        pending.then(|| match self.next_flush {
            next if next > now.0 => Cycle(next),
            _ => Cycle((now.0 / flush + 1) * flush),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::tests::{chaos_watchdog, tiny_builder, two_tenant_config};
    use trace::{Event, Tracer};
    use workloads::frames::FrameFactory;

    const TENANT: TenantId = TenantId(1);

    /// The tiny NIC with the watchdog, the tenancy plane and a ring
    /// tracer all armed.
    fn armed_nic() -> (PanicNic, Tracer, EngineId) {
        let (mut b, eth, _, _) = tiny_builder();
        b.watchdog(chaos_watchdog());
        b.tenancy(two_tenant_config());
        let mut nic = b.build();
        let tracer = Tracer::ring(4096);
        nic.attach_tracer(&tracer);
        (nic, tracer, eth)
    }

    /// Everything an exit may move, in [`ExitKind`] declaration order:
    /// the per-kind NIC counters, the tenant-ledger fields, the two
    /// latency histograms' sample counts, the egress buffers' lengths.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Books {
        nic: [u64; 8],
        ledger: [u64; 8],
        latency: [u64; 2],
        buffers: [usize; 3],
    }

    fn books(nic: &PanicNic) -> Books {
        let s = nic.stats();
        let tn = nic.tenancy().unwrap();
        let l = tn.ledger(TENANT).unwrap();
        Books {
            nic: [
                s.tx_wire,
                s.host_deliveries,
                s.host_fallback,
                s.consumed,
                s.control_completed,
                s.unrouted,
                s.duplicates,
                s.remote_tx,
            ],
            ledger: [
                l.tx_wire,
                l.host,
                l.host_fallback,
                l.consumed,
                l.control,
                l.unrouted,
                l.duplicates,
                l.remote_tx,
            ],
            latency: [
                s.latency.iter().map(|h| h.count()).sum(),
                tn.latency(TENANT).unwrap().count(),
            ],
            buffers: [
                nic.wire_tx.len(),
                nic.host_rx.len(),
                nic.remote_egress.len(),
            ],
        }
    }

    /// `before` with row `kind` of the NIC counters and the ledger
    /// bumped, both latency histograms sampled if `sampled`, and
    /// egress buffer `buffer` one longer.
    fn moved(before: Books, kind: usize, sampled: bool, buffer: Option<usize>) -> Books {
        let mut b = before;
        b.nic[kind] += 1;
        b.ledger[kind] += 1;
        b.latency = b.latency.map(|n| n + u64::from(sampled));
        if let Some(i) = buffer {
            b.buffers[i] += 1;
        }
        b
    }

    /// Names of the instants traced since `seen` events ago.
    fn instants_since(tracer: &Tracer, seen: &mut usize) -> Vec<&'static str> {
        let events = tracer.ring_snapshot().unwrap();
        let names = events[*seen..].iter().map(|e| e.name).collect();
        *seen = events.len();
        names
    }

    #[test]
    fn exit_table_moves_exactly_one_row_per_kind() {
        const DUPLICATE: usize = 6;
        // (kind, row in `Books`, latency sampled, instant, egress buffer)
        let table = [
            (ExitKind::Wire, 0, true, Some("nic.tx_wire"), Some(0)),
            (ExitKind::Host, 1, true, Some("nic.host_delivery"), Some(1)),
            (
                ExitKind::HostFallback,
                2,
                true,
                Some("failover.host"),
                Some(1),
            ),
            (ExitKind::Control, 4, false, None, None),
            (ExitKind::Remote, 7, false, Some("nic.remote_tx"), Some(2)),
        ];
        let (mut nic, tracer, eth) = armed_nic();
        let now = Cycle(40);
        let mut seen = 0;
        let tracked = |nic: &mut PanicNic| {
            let msg = Message::builder(nic.alloc_msg_id(), MessageKind::EthernetFrame)
                .tenant(TENANT)
                .injected_at(Cycle(7))
                .build();
            nic.watchdog_track(&msg, eth, Cycle(7));
            msg
        };

        for (kind, row, sampled, instant, buffer) in table {
            let msg = tracked(&mut nic);
            let before = books(&nic);
            nic.exit(Leaving::Copy(msg.clone()), kind, now);
            assert_eq!(books(&nic), moved(before, row, sampled, buffer), "{kind:?}");
            assert_eq!(
                instants_since(&tracer, &mut seen),
                Vec::from_iter(instant),
                "{kind:?}"
            );

            // A second copy of the same descriptor moves `duplicates`
            // and nothing else — no sample, no buffer, no boundary
            // instant except the host-fallback steering decision.
            let before = books(&nic);
            nic.exit(Leaving::Copy(msg), kind, now);
            assert_eq!(
                books(&nic),
                moved(before, DUPLICATE, false, None),
                "late {kind:?}"
            );
            let mut expected = vec!["watchdog.duplicate"];
            expected.extend(instant.filter(|_| kind == ExitKind::HostFallback));
            assert_eq!(
                instants_since(&tracer, &mut seen),
                expected,
                "late {kind:?}"
            );
        }

        // Losses are not completions: the descriptor stays armed (a
        // second dead letter is one more dead letter, not a duplicate)
        // and nothing is sampled, traced or buffered.
        let pending = nic.watchdog().unwrap().pending();
        let msg = tracked(&mut nic);
        for _ in 0..2 {
            let before = books(&nic);
            nic.exit(Leaving::Copy(msg.clone()), ExitKind::Unrouted, now);
            assert_eq!(books(&nic), moved(before, 5, false, None));
        }
        let before = books(&nic);
        nic.exit(Leaving::Absorbed(TENANT), ExitKind::Consumed, now);
        assert_eq!(books(&nic), moved(before, 3, false, None));
        assert_eq!(nic.watchdog().unwrap().pending(), pending + 1);

        // A NIC-originated interrupt is delivered and counted, but even
        // with a tracked id it completes nothing and samples nothing.
        let before = books(&nic);
        nic.exit(Leaving::Originated(msg), ExitKind::Host, now);
        assert_eq!(books(&nic), moved(before, 1, false, Some(1)));
        assert_eq!(nic.watchdog().unwrap().pending(), pending + 1);
        assert!(instants_since(&tracer, &mut seen).is_empty());
    }

    #[test]
    fn rx_frame_and_inject_from_differ_only_in_their_source_accounting() {
        // One frame of a configured vNIC (parked, then released) and
        // one of an unknown tenant (direct path), through each door.
        let run = |inject: bool| {
            let (mut nic, tracer, eth) = armed_nic();
            let mut f = FrameFactory::for_nic_port(0);
            for (i, tenant) in [TENANT, TenantId(9)].into_iter().enumerate() {
                let frame = f.min_frame(i as u16, 80);
                if inject {
                    nic.inject_from(eth, frame, tenant, Priority::Normal, Cycle(0));
                } else {
                    nic.rx_frame(eth, frame, tenant, Priority::Normal, Cycle(0));
                }
            }
            nic.run(Cycle(0), 1000);
            assert!(nic.is_quiescent() && nic.faults_settled());
            (nic, tracer.ring_snapshot().unwrap())
        };
        let (rx, rx_events) = run(false);
        let (inj, inj_events) = run(true);

        assert_eq!((rx.stats().rx_frames, rx.stats().injected_internal), (2, 0));
        assert_eq!(
            (inj.stats().rx_frames, inj.stats().injected_internal),
            (0, 2)
        );
        let (mut a, mut b) = (rx.conservation(), inj.conservation());
        assert!(a.holds() && b.holds());
        (a.rx_frames, a.injected_internal) = (0, 0);
        (b.rx_frames, b.injected_internal) = (0, 0);
        assert_eq!(a, b, "every other conservation column agrees");
        assert_eq!(a.tx_wire, 2);

        let ledger = |nic: &PanicNic| *nic.tenancy().unwrap().ledger(TENANT).unwrap();
        let (mut a, mut b) = (ledger(&rx), ledger(&inj));
        assert_eq!((a.submitted_rx, a.submitted_injected), (1, 0));
        assert_eq!((b.submitted_rx, b.submitted_injected), (0, 1));
        (a.submitted_rx, b.submitted_injected) = (0, 0);
        assert_eq!(a, b, "every other ledger column agrees");

        let boundary = |e: &&Event| e.name == "nic.rx_frame";
        assert_eq!(rx_events.iter().filter(boundary).count(), 2);
        assert_eq!(inj_events.iter().filter(boundary).count(), 0);
        let rest: Vec<&Event> = rx_events.iter().filter(|e| !boundary(e)).collect();
        assert_eq!(rest, inj_events.iter().collect::<Vec<_>>());
    }
}
