//! The fault plane: how a copy gets re-issued, an engine isolated, a
//! planned fault fired — and the conservation accounting that must
//! close under all of it.
//!
//! The [`PanicNic`] owns at most one [`FaultRuntime`] (boxed and
//! `Option`al, so fault-free NICs pay one pointer and one `is_some`
//! check per tick). Its fields are private to this file: the rest of
//! the NIC reaches the plane only through the hooks below. It carries:
//!
//! * the injection **schedule** ([`faults::Schedule`]) — the plan and
//!   which of its [`faults::FaultEvent`]s have already fired;
//! * the **watchdog** ledger ([`faults::Watchdog`]) when one is
//!   configured;
//! * **engine-health** strike counters feeding the DOWN decision;
//! * the **failover table**: engines marked DOWN and the replica (or
//!   host fallback) traffic addressed to them is steered to.
//!
//! The companion [`Conservation`] report reads the NIC's message store,
//! which counts every copy where it enters and where it leaves —
//! including every loss and duplication channel the fault plane can
//! open — so tests can assert that *nothing vanishes unaccounted under
//! any fault plan*. See `docs/FAULTS.md`.

use std::collections::HashMap;
use std::fmt;

use engines::tile::EngineTile;
use faults::{CompleteOutcome, ExpiryAction, FaultKind, FaultPlan, Schedule, Watchdog};
use noc::router::PortDir;
use packet::chain::EngineId;
use packet::message::MessageId;
use packet::store::{Entry, ExitKind, MsgRef};
use sim_core::time::{Cycle, Cycles};
use trace::{Tracer, TrackId};

use super::PanicNic;

/// Per-NIC fault-plane state. The public surface is
/// [`PanicNic::enable_faults`] / [`super::NicBuilder::watchdog`] /
/// [`PanicNic::conservation`].
#[derive(Debug)]
pub(super) struct FaultRuntime {
    /// The injection plan and how far it has fired.
    schedule: Schedule<FaultKind>,
    /// Descriptor-deadline ledger; `None` when only raw injection is
    /// wanted (no detection/recovery).
    watchdog: Option<Watchdog>,
    /// Engine-health strikes: consecutive wedged observations and the
    /// cycle of the first one (for the time-to-failover metric).
    strikes: HashMap<EngineId, (u32, Cycle)>,
    /// Engines the watchdog marked DOWN, in marking order.
    downed: Vec<EngineId>,
    /// DOWN engine → replica chosen by the failover policy (`None`
    /// means host fallback).
    failover: HashMap<EngineId, Option<EngineId>>,
    /// Lazily created `faults` trace track (only when a tracer is
    /// attached *and* a fault-plane event fires).
    track: Option<TrackId>,
}

impl FaultRuntime {
    pub(super) fn new(plan: FaultPlan, watchdog: Option<Watchdog>) -> FaultRuntime {
        FaultRuntime {
            schedule: Schedule::new(plan),
            watchdog,
            strikes: HashMap::new(),
            downed: Vec::new(),
            failover: HashMap::new(),
            track: None,
        }
    }

    /// Emits an instant on the `faults` track, creating the track on
    /// first use so a run in which no fault-plane event fires traces
    /// byte-identically to a fault-free one.
    fn mark(&mut self, tracer: &Tracer, name: &'static str, now: Cycle, key: &'static str, v: u64) {
        if tracer.enabled() {
            let track = *self.track.get_or_insert_with(|| tracer.track("faults"));
            tracer.instant_arg(track, name, now, key, v);
        }
    }
}

impl PanicNic {
    /// Arms the fault plane with an injection `plan`. Events fire at
    /// the top of the [`PanicNic::tick`] whose cycle they name, in
    /// plan order — same plan, same seed, same trace, every run.
    /// Merges with any previously enabled plan/watchdog.
    ///
    /// # Panics
    /// Panics if `plan` arms a tile with as many ejection drops as the
    /// tile has ejection credits ([`FaultPlan::validate`]): each drop
    /// leaks a credit, and the tile would never eject again.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate(self.config.router.ejection_buffer_flits) {
            panic!("PanicNic::enable_faults: {e} (FaultPlan::validate)");
        }
        match &mut self.faults {
            Some(fr) => fr.schedule.merge(plan),
            None => self.faults = Some(Box::new(FaultRuntime::new(plan, None))),
        }
    }

    /// The watchdog's descriptor ledger, when one is armed.
    #[must_use]
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.faults.as_ref().and_then(|fr| fr.watchdog.as_ref())
    }

    /// Engines the watchdog has marked DOWN, in marking order.
    #[must_use]
    pub fn downed_engines(&self) -> &[EngineId] {
        self.faults.as_ref().map_or(&[], |fr| &fr.downed)
    }

    /// True when the fault plane has nothing left to do: every planned
    /// event fired and no tracked descriptor is still awaiting a
    /// deadline. Combined with [`PanicNic::is_quiescent`] this is the
    /// drain condition under faults. Trivially true on a fault-free
    /// NIC.
    #[must_use]
    pub fn faults_settled(&self) -> bool {
        match &self.faults {
            None => true,
            Some(fr) => {
                fr.schedule.exhausted() && fr.watchdog.as_ref().is_none_or(|w| w.pending() == 0)
            }
        }
    }

    /// Snapshot of the copy-level conservation identity (see
    /// [`Conservation`]): the store's count of every entry and exit
    /// reason, and the copies the planes hold. Holds on every cycle.
    #[must_use]
    pub fn conservation(&self) -> Conservation {
        let s = &self.store;
        Conservation {
            rx_frames: s.entered(Entry::Rx),
            injected_internal: s.entered(Entry::Injected),
            reissued: s.entered(Entry::Reissued),
            remote_rx: s.entered(Entry::RemoteRx),
            spawned: s.entered(Entry::Spawned),
            interrupts: s.entered(Entry::Interrupt),
            tx_wire: s.exited(ExitKind::Wire),
            host_deliveries: s.exited(ExitKind::Host),
            host_fallback: s.exited(ExitKind::HostFallback),
            consumed: s.exited(ExitKind::Consumed),
            control_completed: s.exited(ExitKind::Control),
            unrouted: s.exited(ExitKind::Unrouted),
            duplicates: s.exited(ExitKind::Duplicate),
            remote_tx: s.exited(ExitKind::Remote),
            sched_drops: s.exited(ExitKind::SchedDrop),
            flushed: s.exited(ExitKind::Flushed),
            lost_noc: s.exited(ExitKind::LostNoc),
            pipeline_drops: s.exited(ExitKind::PipelineDrop),
            live: self.held(),
        }
    }

    /// Copies the planes hold, counted where they sit, not in the store.
    fn held(&self) -> u64 {
        let tile = |t: &EngineTile<_>| {
            t.queue_depth() + usize::from(t.is_busy()) + usize::from(!t.rx_ready())
        };
        let tiles: usize = self.occupied_tiles().map(tile).sum();
        let pipeline = self.pipeline.backlog() + self.pipeline.occupancy();
        let tenancy = self.tenancy.as_ref().map_or(0, |tn| tn.pending_total());
        (self.network.messages_in_flight() + pipeline + tiles) as u64 + tenancy
    }

    fn watchdog_mut(&mut self) -> Option<&mut Watchdog> {
        self.faults.as_mut()?.watchdog.as_mut()
    }

    /// Registers a freshly injected message with the watchdog ledger,
    /// when one is armed.
    pub(super) fn watchdog_track(&mut self, msg: MsgRef, source: EngineId, now: Cycle) {
        if let Some(wd) = self.faults.as_mut().and_then(|fr| fr.watchdog.as_mut()) {
            wd.track(self.store.get(msg), source, now);
        }
    }

    /// Marks descriptor `id` complete in the watchdog ledger. Returns
    /// true when this copy is a *late duplicate* of a descriptor that
    /// already completed (the caller must suppress the copy and charge
    /// it to `duplicates`).
    pub(super) fn complete_descriptor(&mut self, id: MessageId, now: Cycle) -> bool {
        let Some(wd) = self.watchdog_mut() else {
            return false;
        };
        match wd.on_complete(id, now) {
            CompleteOutcome::First { recovery } => {
                if let Some(r) = recovery {
                    self.stats.recovery.record(r.count());
                    self.tracer
                        .instant_arg(self.track, "watchdog.recovered", now, "msg", id.0);
                }
                false
            }
            CompleteOutcome::Duplicate => {
                self.tracer
                    .instant_arg(self.track, "watchdog.duplicate", now, "msg", id.0);
                true
            }
            CompleteOutcome::Untracked => false,
        }
    }

    /// The failover table's verdict on traffic addressed to `dest`:
    /// `None` while `dest` is healthy, `Some(Some(replica))` once the
    /// watchdog re-pointed it, `Some(None)` when it is DOWN with no
    /// replica (host fallback).
    pub(super) fn failover_for(&self, dest: EngineId) -> Option<Option<EngineId>> {
        self.faults.as_ref()?.failover.get(&dest).copied()
    }

    /// One fault-plane step: fire due plan events, then (on watchdog
    /// check cycles) scan engine health and expire descriptor
    /// deadlines. Runs before anything else in the tick so a fault
    /// scheduled "at cycle N" is visible to every component during
    /// cycle N.
    pub(super) fn drive_fault_plane(&mut self, now: Cycle) {
        let Some(mut fr) = self.faults.take() else {
            return;
        };

        // 1. Injection plan.
        while let Some(ev) = fr.schedule.pop_due(now) {
            self.apply_fault(&mut fr, ev.kind, now);
        }

        // 2. Watchdog (every `check_interval` cycles).
        if let Some(wd) = &fr.watchdog {
            let interval = wd.config().check_interval.count().max(1);
            if now.0.is_multiple_of(interval) {
                self.watchdog_check(&mut fr, now);
            }
        }

        self.faults = Some(fr);
    }

    /// Applies one planned fault event to the component it targets.
    fn apply_fault(&mut self, fr: &mut FaultRuntime, kind: FaultKind, now: Cycle) {
        let port_of = |p: u8| PortDir::ALL[usize::from(p) % 5];
        // Saturating: a plan armed after its `at` fires late, so even a
        // window the parser accepted can run past the end of the clock.
        let until = |window: Cycles| Cycle(now.0.saturating_add(window.0));
        let name = match kind {
            FaultKind::EngineCrash { .. } => "fault.crash",
            FaultKind::EngineStall { .. } => "fault.stall",
            FaultKind::EngineDegrade { .. } => "fault.degrade",
            FaultKind::SchedRefuse { .. } => "fault.refuse",
            FaultKind::LinkSlow { .. } => "fault.slow",
            FaultKind::CreditHold { .. } => "fault.hold",
            FaultKind::FlitDrop { .. } => "fault.drop",
        };
        match kind {
            FaultKind::EngineCrash { engine } => {
                if let Some(t) = self.tile_mut(engine) {
                    t.fault_crash(now);
                }
            }
            FaultKind::EngineStall { engine, duration } => {
                if let Some(t) = self.tile_mut(engine) {
                    t.fault_stall(now, until(duration));
                }
            }
            FaultKind::EngineDegrade { engine, factor } => {
                if let Some(t) = self.tile_mut(engine) {
                    t.fault_degrade(factor);
                }
            }
            FaultKind::SchedRefuse { engine, duration } => {
                if let Some(t) = self.tile_mut(engine) {
                    t.fault_refuse_until(until(duration));
                }
            }
            FaultKind::LinkSlow {
                engine,
                port,
                duration,
                period,
            } => {
                if self.has_tile(engine) {
                    self.network
                        .fault_link_slow(engine, port_of(port), until(duration), period);
                }
            }
            FaultKind::CreditHold {
                engine,
                port,
                credits,
                duration,
            } => {
                if self.has_tile(engine) {
                    let _taken = self.network.fault_hold_credits(
                        engine,
                        port_of(port),
                        credits as usize,
                        until(duration),
                    );
                }
            }
            FaultKind::FlitDrop { engine } => {
                if self.has_tile(engine) {
                    self.network.fault_drop_next_ejection(engine);
                }
            }
        }
        let engine = u64::from(kind.engine().0);
        fr.mark(&self.tracer, name, now, "engine", engine);
    }

    /// Engine-health scan plus descriptor-deadline expiry.
    fn watchdog_check(&mut self, fr: &mut FaultRuntime, now: Cycle) {
        let Some(wd) = &fr.watchdog else {
            return;
        };
        let timeout = wd.config().engine_timeout;
        let down_after = wd.config().down_after.max(1);

        // 1. Health: consecutive wedged observations accumulate
        //    strikes; any progress clears them. `down_after` strikes
        //    isolate the engine.
        let mut to_down: Vec<EngineId> = Vec::new();
        for (id, t) in self.engine_tiles() {
            if t.is_down() {
                continue;
            }
            if t.wedged(now, timeout) {
                let entry = fr.strikes.entry(id).or_insert((0, now));
                entry.0 += 1;
                if entry.0 >= down_after {
                    to_down.push(id);
                }
            } else {
                fr.strikes.remove(&id);
            }
        }
        for id in to_down {
            let (_, first_wedge) = fr.strikes.remove(&id).unwrap_or((0, now));
            self.stats
                .time_to_failover
                .record(now.saturating_since(first_wedge).count());
            let replica = self.find_replica(id);
            let flushed = self
                .tile_and_store(id)
                .map_or(0, |(tile, store)| tile.watchdog_down_in(store));
            fr.downed.push(id);
            fr.failover.insert(id, replica);
            let tracer = &self.tracer;
            fr.mark(tracer, "watchdog.down", now, "engine", u64::from(id.0));
            fr.mark(tracer, "watchdog.flush", now, "count", flushed);
            match replica {
                Some(r) => fr.mark(tracer, "failover.replica", now, "engine", u64::from(r.0)),
                None => fr.mark(tracer, "failover.host", now, "engine", u64::from(id.0)),
            }
        }

        // 2. Descriptor deadlines: re-issue with backoff, or give up.
        let Some(wd) = &mut fr.watchdog else {
            return;
        };
        for expiry in wd.expired(now) {
            match expiry.action {
                ExpiryAction::Reissue {
                    msg,
                    source,
                    attempt,
                } => {
                    if let Some(tn) = self.tenancy.as_mut() {
                        tn.note_reissued(msg.tenant);
                    }
                    fr.mark(
                        &self.tracer,
                        "watchdog.reissue",
                        now,
                        "attempt",
                        u64::from(attempt),
                    );
                    let msg = self.store.put(*msg, Entry::Reissued);
                    self.send_to_pipeline(source, msg, now);
                }
                ExpiryAction::Fail => {
                    self.stats.failed += 1;
                    fr.mark(&self.tracer, "watchdog.fail", now, "msg", expiry.id.0);
                }
            }
        }
    }

    /// Failover policy: a replica for `down` is the lowest-id healthy
    /// engine of the *same offload type* — same
    /// [`packet::chain::EngineClass`] and the same name stem (name
    /// minus a trailing replica index: `crc0`/`crc1` are replicas of
    /// each other, `crc`/`aes` are not).
    fn find_replica(&self, down: EngineId) -> Option<EngineId> {
        let tile = self.tile(down)?;
        let stem = faults::name_stem(tile.offload_name());
        let class = tile.offload().class();
        self.engine_tiles()
            .find(|&(id, t)| {
                id != down
                    && !t.is_down()
                    && !t.is_crashed()
                    && t.offload().class() == class
                    && faults::name_stem(t.offload_name()) == stem
            })
            .map(|(id, _)| id)
    }

    /// Fault-plane contribution to [`PanicNic::next_activity`].
    pub(super) fn fault_plane_next_activity(&self, now: Cycle) -> Option<Cycle> {
        let fr = self.faults.as_ref()?;
        // Next planned injection (events whose cycle already passed
        // fire on the next tick).
        let mut hint = fr.schedule.next_due(now);
        if let Some(wd) = &fr.watchdog {
            // A watchdog check only mutates state while descriptors are
            // tracked, strikes are accruing, or some tile holds work (a
            // frozen tile wedges without ever hinting activity itself);
            // checks outside those conditions are pure no-ops and safe
            // to skip.
            let relevant = wd.pending() > 0
                || !fr.strikes.is_empty()
                || self.occupied_tiles().any(EngineTile::has_work);
            if relevant {
                let interval = wd.config().check_interval.count().max(1);
                let next_check = Cycle((now.0 / interval + 1) * interval);
                hint = Cycle::earliest(hint, Some(next_check));
            }
        }
        hint
    }
}

/// Copy-level conservation report: every message copy the NIC ever
/// held, bucketed by why it entered and where it went, read from the
/// NIC's message store — the one place a copy is counted in and out.
///
/// Identity ([`Conservation::holds`]), on every cycle:
///
/// ```text
/// rx_frames + injected_internal + reissued + remote_rx + spawned
///   + interrupts ==
///     tx_wire + host_deliveries + host_fallback + consumed
///   + control_completed + unrouted + duplicates + remote_tx
///   + sched_drops + flushed + lost_noc + pipeline_drops
///   + live
/// ```
///
/// `live` counts the copies the planes hold — on the mesh, in a tile or
/// the pipeline, parked with a vNIC — not the store's, so a plane that
/// drops a handle without taking its copy out, or takes one out twice,
/// breaks the identity on that cycle. `live` is zero once the NIC is
/// quiescent ([`crate::nic::PanicNic::is_quiescent`]).
///
/// On a rack-fabric member, copies arriving over an inter-NIC link are
/// a source (`remote_rx`) and copies handed to the fabric are a sink
/// (`remote_tx`); summed over every member plus the copies still on
/// the links, the per-NIC identities compose into the fleet-wide one
/// (`fabric::FleetConservation`, docs/FABRIC.md). Both are always zero
/// on a standalone NIC. `spawned` (events a DMA engine raises) and
/// `interrupts` (coalesced PCIe interrupts the flush timer raises) are
/// zero on a NIC without PCIe engines.
///
/// Watchdog re-issues mint *copies* of a descriptor, so they appear on
/// the source side; late copies suppressed at egress appear on the
/// sink side as `duplicates`. A descriptor that exhausts its retry
/// budget is *not* a copy sink — each of its copies already landed in
/// a loss bucket — which is why `failed` (descriptor-level) is
/// reported by [`crate::nic::NicStats`] but absent here.
#[derive(Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // one column per `Entry` and `ExitKind`, and `live`
pub struct Conservation {
    pub rx_frames: u64,
    pub injected_internal: u64,
    pub reissued: u64,
    pub tx_wire: u64,
    pub host_deliveries: u64,
    pub host_fallback: u64,
    pub consumed: u64,
    pub control_completed: u64,
    pub unrouted: u64,
    pub sched_drops: u64,
    pub lost_noc: u64,
    pub flushed: u64,
    pub duplicates: u64,
    pub remote_rx: u64,
    pub remote_tx: u64,
    pub spawned: u64,
    pub interrupts: u64,
    pub pipeline_drops: u64,
    pub live: u64,
}

impl Conservation {
    /// Copies that entered the NIC boundary.
    #[must_use]
    pub fn sources(&self) -> u64 {
        self.rx_frames
            + self.injected_internal
            + self.reissued
            + self.remote_rx
            + self.spawned
            + self.interrupts
    }

    /// Copies that left (or were destroyed inside) the NIC boundary.
    #[must_use]
    pub fn sinks(&self) -> u64 {
        self.tx_wire
            + self.host_deliveries
            + self.host_fallback
            + self.consumed
            + self.control_completed
            + self.unrouted
            + self.duplicates
            + self.remote_tx
            + self.sched_drops
            + self.flushed
            + self.lost_noc
            + self.pipeline_drops
    }

    /// True when every copy left or is held by a plane.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.sources() == self.sinks() + self.live
    }
}

/// The last four columns appear only when nonzero, as the `nic.*`
/// metrics of a plane appear only once it is engaged: a drained NIC
/// without PCIe engines or `Drop` verdicts prints the fifteen columns
/// the fabric goldens hash, and nothing else.
impl fmt::Debug for Conservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Conservation");
        d.field("rx_frames", &self.rx_frames)
            .field("injected_internal", &self.injected_internal)
            .field("reissued", &self.reissued)
            .field("tx_wire", &self.tx_wire)
            .field("host_deliveries", &self.host_deliveries)
            .field("host_fallback", &self.host_fallback)
            .field("consumed", &self.consumed)
            .field("control_completed", &self.control_completed)
            .field("unrouted", &self.unrouted)
            .field("sched_drops", &self.sched_drops)
            .field("lost_noc", &self.lost_noc)
            .field("flushed", &self.flushed)
            .field("duplicates", &self.duplicates)
            .field("remote_rx", &self.remote_rx)
            .field("remote_tx", &self.remote_tx);
        for (name, v) in [
            ("spawned", self.spawned),
            ("interrupts", self.interrupts),
            ("pipeline_drops", self.pipeline_drops),
            ("live", self.live),
        ] {
            if v > 0 {
                d.field(name, &v);
            }
        }
        d.finish()
    }
}

impl fmt::Display for Conservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.holds() { "HOLDS" } else { "VIOLATED" };
        let (sources, sinks, live) = (self.sources(), self.sinks(), self.live);
        writeln!(f, "{self:?}")?;
        write!(
            f,
            "sources {sources} = sinks {sinks} + live {live}: identity {verdict}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_arithmetic() {
        let mut c = Conservation {
            rx_frames: 10,
            injected_internal: 2,
            reissued: 3,
            tx_wire: 7,
            host_deliveries: 1,
            host_fallback: 1,
            consumed: 1,
            control_completed: 0,
            unrouted: 1,
            sched_drops: 1,
            lost_noc: 1,
            flushed: 1,
            duplicates: 1,
            remote_rx: 2,
            remote_tx: 2,
            spawned: 1,
            interrupts: 1,
            pipeline_drops: 1,
            live: 1,
        };
        assert_eq!(c.sources(), 19);
        assert_eq!(c.sinks(), 18);
        assert!(c.holds());
        let shown = c.to_string();
        assert!(shown.contains("HOLDS"), "{shown}");
        assert!(format!("{c:?}").ends_with("pipeline_drops: 1, live: 1 }"));
        c.live -= 1;
        assert!(!c.holds());
        assert!(c.to_string().contains("VIOLATED"));
        // Zero in the last four columns is left out of `Debug`.
        (c.spawned, c.interrupts, c.pipeline_drops) = (0, 0, 0);
        assert!(format!("{c:?}").ends_with("remote_rx: 2, remote_tx: 2 }"));
    }

    #[test]
    fn late_armed_windows_saturate_instead_of_overflowing() {
        // Every windowed kind at the longest duration the DSL accepts,
        // armed on a NIC whose clock is already past `at`.
        let max = u64::MAX;
        let spec = format!(
            "stall:1@0+{max},refuse:1@0+{max},slow:1:2@0+{max}/2,hold:1:2@0+{max}x{}",
            u32::MAX
        );
        let (mut nic, ..) = crate::nic::tests::tiny_nic();
        nic.enable_faults(FaultPlan::parse(&spec).unwrap());
        nic.run(Cycle(5), 50);
        assert!(nic.faults_settled());
        assert!(!nic.tile(EngineId(1)).unwrap().is_down());
    }

    #[test]
    fn runtime_plan_cursor() {
        let fr = FaultRuntime::new(FaultPlan::default(), None);
        assert!(fr.schedule.exhausted());
        let plan = FaultPlan::parse("crash:1@10").unwrap();
        let fr = FaultRuntime::new(plan, None);
        assert!(!fr.schedule.exhausted());
    }
}
