//! The [`Fabric`]: N member NICs around one simulated ToR
//! (`crate::tor`), the epoch loop that keeps them in lockstep, and the
//! fleet-wide views — quiescence, conservation, metrics.

use std::fmt;

use packet::EngineId;
use panic_core::{Conservation, PanicNic};
use sim_core::clock::{drive, Advance};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use trace::{MetricSink, Tracer};

use crate::builder::FabricBuilder;
use crate::conservation::{ChaosStats, FleetConservation, FleetStats};
use crate::driver::NicDriver;
use crate::tor::{Phase, Tor};

/// One member NIC plus its fabric-side state.
pub(crate) struct Member {
    pub nic: PanicNic,
    /// The tile where inter-NIC arrivals enter this member's mesh.
    pub uplink: EngineId,
    /// Deterministic workload source, if any.
    pub driver: Option<Box<dyn NicDriver>>,
}

impl fmt::Debug for Member {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Member")
            .field("uplink", &self.uplink)
            .field("has_driver", &self.driver.is_some())
            .finish_non_exhaustive()
    }
}

/// [`Fabric::drain`] strides by this many cycles between quiescence
/// checks, so every caller's clock stops on the same cycle.
const DRAIN_STRIDE: u64 = 10_000;
/// [`Fabric::drain`] gives up after this many cycles.
const DRAIN_BUDGET: u64 = 1024 * DRAIN_STRIDE;

/// Why [`Fabric::drain`] gave up: what still held work when its budget
/// ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainError {
    /// The cycle the drain stopped at.
    pub at: Cycle,
    /// Copies on links.
    pub on_links: u64,
    /// Copies parked at the ToR or in transit between reroute hops.
    pub parked: u64,
    /// Crossings a hop ledger is still waiting on.
    pub armed: u64,
    /// Members that are not quiescent (in-flight work, or egress
    /// backpressured behind a shut credit window).
    pub busy_members: Vec<usize>,
    /// Whether the fault plane has events, drains or recoveries ahead.
    pub faults_pending: bool,
    /// The next cycle the fault plane acts on its own (an event, a
    /// retry deadline, a window closing, a recovery), if any.
    pub next_wake: Option<Cycle>,
}

impl fmt::Display for DrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the fabric did not drain within {DRAIN_BUDGET} cycles (stopped at cycle {}): \
             {} copies on links, {} parked at the ToR, {} crossings awaiting delivery, \
             members not quiescent: {:?}; the fault plane ",
            self.at.0, self.on_links, self.parked, self.armed, self.busy_members
        )?;
        match (self.next_wake, self.faults_pending) {
            (Some(wake), _) => write!(f, "next acts at cycle {}", wake.0),
            (None, true) => write!(f, "waits on a member to finish draining"),
            (None, false) => write!(f, "has nothing left to do"),
        }
    }
}

impl std::error::Error for DrainError {}

/// A rack of PANIC NICs behind one simulated ToR.
///
/// Members run in lockstep *epochs* (no longer than the smallest link
/// latency); messages cross NICs only at epoch boundaries, through
/// credit-windowed links with serialization and propagation delay.
/// See the crate docs and `docs/FABRIC.md` for the model.
#[derive(Debug)]
pub struct Fabric {
    members: Vec<Member>,
    tor: Tor,
}

impl Fabric {
    /// Starts building a fabric.
    #[must_use]
    pub fn builder() -> FabricBuilder {
        FabricBuilder::new()
    }

    pub(crate) fn new(members: Vec<Member>, tor: Tor) -> Fabric {
        Fabric { members, tor }
    }

    /// Number of member NICs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the fabric has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member at `index`.
    #[must_use]
    pub fn member(&self, index: usize) -> &PanicNic {
        &self.members[index].nic
    }

    /// Mutable access to the member at `index` (inject traffic, read
    /// stats mid-run).
    pub fn member_mut(&mut self, index: usize) -> &mut PanicNic {
        &mut self.members[index].nic
    }

    /// Fabric-level counters.
    #[must_use]
    pub fn stats(&self) -> &FleetStats {
        &self.tor.fleet
    }

    /// The epoch length in cycles (`None` on a linkless fabric: "one
    /// epoch per run call" — nothing can cross, so nothing needs a
    /// boundary).
    #[must_use]
    pub fn epoch_len(&self) -> Option<u64> {
        self.tor.epoch
    }

    /// Does nothing: the members run on the calling thread. Kept only
    /// because `benchmark/src/rigs/rack.rs` still calls it (its
    /// `rack_ring4_mt` workload); goes in the benchmark-only PR.
    #[doc(hidden)]
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Attaches `tracer` to every member and the ToR, replacing any
    /// tracer attached before ([`Tracer::disabled`] detaches). Track
    /// names are shared across members, so per-component tracks merge;
    /// chaos events emit through it onto a lazily created
    /// `fabric.chaos` track.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        for m in &mut self.members {
            m.nic.attach_tracer(tracer);
        }
        self.tor.attach_tracer(tracer);
    }

    /// Fault-plane counters, when a fault plane is armed.
    #[must_use]
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.tor.armed.then_some(self.tor.chaos)
    }

    /// Distribution of serialization-to-delivery times for crossings
    /// that left their nominal path (replica redirect or link
    /// reroute) — the time-to-reroute numbers the `rack-chaos`
    /// experiment reports. `None` unless a fault plane is armed.
    #[must_use]
    pub fn reroute_summary(&self) -> Option<sim_core::stats::Summary> {
        self.tor.armed.then(|| self.tor.reroute_wait.summary())
    }

    /// Runs `cycles` cycles from `start` with per-member stepped
    /// execution (no fast-forward anywhere). Returns the next cycle.
    pub fn run(&mut self, start: Cycle, cycles: u64) -> Cycle {
        epoch_loop(
            &mut self.tor,
            &mut self.members,
            start,
            cycles,
            Advance::Stepped,
        )
        .0
    }

    /// Runs `cycles` cycles from `start` with quiescence fast-forward
    /// at both levels: each member's own `run_ff` within epochs, plus
    /// whole-fleet jumps when every member is quiescent and no link
    /// holds a message. Fleet jumps land on the epoch grid, so the
    /// boundary schedule — and therefore every exchange — is
    /// byte-identical to [`Fabric::run`].
    ///
    /// Returns the next cycle and total cycles skipped (member-level
    /// skips plus fleet-level jumps).
    pub fn run_ff(&mut self, start: Cycle, cycles: u64) -> (Cycle, u64) {
        epoch_loop(
            &mut self.tor,
            &mut self.members,
            start,
            cycles,
            Advance::Merged,
        )
    }

    /// [`Fabric::run_ff`] under its old name: the event kernel is gone.
    /// Kept only because `benchmark/src/rigs/rack.rs` still calls it
    /// (its `Event` mode); goes in the benchmark-only PR.
    #[doc(hidden)]
    pub fn run_event(&mut self, start: Cycle, cycles: u64) -> (Cycle, u64) {
        self.run_ff(start, cycles)
    }

    /// Runs fast-forwarded from `start` until the fleet is quiescent
    /// and the fault plane has nothing pending
    /// ([`Fabric::is_quiescent`] and not [`Fabric::faults_pending`]),
    /// and returns the cycle it got there. Chaos plans can hold work
    /// far past the traffic horizon — a crashed member recovers, a
    /// retry backoff expires, a partition window closes — and the
    /// fast-forwarded strides make that tail cheap.
    ///
    /// # Errors
    /// A [`DrainError`] naming what still holds work when some does
    /// after ten million cycles — a fault window that outlasts any
    /// drain, say.
    pub fn drain(&mut self, start: Cycle) -> Result<Cycle, DrainError> {
        let mut now = start;
        while !self.is_quiescent() || self.faults_pending() {
            if now.0 - start.0 >= DRAIN_BUDGET {
                return Err(DrainError {
                    at: now,
                    on_links: self.tor.on_links(),
                    parked: self.tor.parked(),
                    armed: self.tor.armed_entries(),
                    busy_members: (0..self.len())
                        .filter(|&i| !self.members[i].nic.is_quiescent())
                        .collect(),
                    faults_pending: self.faults_pending(),
                    next_wake: self.tor.next_wake(now),
                });
            }
            now = self.run_ff(now, DRAIN_STRIDE).0;
        }
        Ok(now)
    }

    /// True when no member holds in-flight work and the ToR holds none
    /// either (no copy on a link or parked, no crossing awaiting
    /// delivery, no member mid-drain) — the fleet-wide analogue of
    /// `PanicNic::is_quiescent`.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.tor.quiet() && self.members.iter().all(|m| m.nic.is_quiescent())
    }

    /// True while the armed fault plane still has work ahead of it:
    /// unapplied plan events, a member mid-drain, or a recovery yet
    /// to happen. A chaos run's drain loop must spin until this goes
    /// false *and* [`Fabric::is_quiescent`] goes true — a crashed
    /// member can look quiescent right up until its driver's backlog
    /// bursts in at recovery. [`Fabric::drain`] is that loop.
    #[must_use]
    pub fn faults_pending(&self) -> bool {
        self.tor.pending()
    }

    /// The fleet-wide conservation report (see [`FleetConservation`]).
    #[must_use]
    pub fn conservation(&self) -> FleetConservation {
        let per_nic: Vec<Conservation> =
            self.members.iter().map(|m| m.nic.conservation()).collect();
        let (retries, dup_suppressed) = self.tor.retries_and_duplicates();
        FleetConservation {
            remote_tx: per_nic.iter().map(|c| c.remote_tx).sum(),
            remote_rx: per_nic.iter().map(|c| c.remote_rx).sum(),
            link_in_flight: self.tor.on_links(),
            egress_backlog: self
                .members
                .iter()
                .map(|m| m.nic.remote_egress().len() as u64)
                .sum(),
            fabric_unrouted: self.tor.fleet.fabric_unrouted,
            retries,
            dup_suppressed,
            parked: self.tor.parked(),
            lost_link: self.tor.chaos.lost_link,
            redirected: self.tor.chaos.redirected,
            per_nic,
        }
    }

    /// Exports every member's metrics plus the fabric's link counters.
    ///
    /// A 1-member fabric exports exactly what its bare member would
    /// (no prefix, no fabric counters unless a link carried traffic) —
    /// the metrics half of the byte-identity golden test. Members of a
    /// larger fabric export under `nic<i>.`.
    pub fn export_metrics<S: MetricSink + ?Sized>(&self, m: &mut S) {
        if self.members.len() == 1 {
            self.members[0].nic.export_metrics(m);
        } else {
            for (index, member) in self.members.iter().enumerate() {
                member
                    .nic
                    .export_metrics(&mut MemberSink { inner: m, index });
            }
        }
        if !m.wants("fabric.") {
            return;
        }
        let fleet = &self.tor.fleet;
        if fleet.forwarded > 0 || fleet.delivered > 0 {
            m.counter(format_args!("fabric.forwarded"), fleet.forwarded);
            m.counter(format_args!("fabric.delivered"), fleet.delivered);
            m.counter(format_args!("fabric.backpressured"), fleet.backpressured);
            m.counter(
                format_args!("fabric.fabric_unrouted"),
                fleet.fabric_unrouted,
            );
        }
        // Chaos counters appear only once a fault has actually fired,
        // so an armed-but-silent fault plane exports byte-identical
        // metrics to an unarmed fabric.
        let chaos = &self.tor.chaos;
        if !chaos.any() {
            return;
        }
        let (retries, dup) = self.tor.retries_and_duplicates();
        for (name, value) in [
            ("events", chaos.events_fired),
            ("retries", retries),
            ("dup_suppressed", dup),
            ("parked", self.tor.parked()),
            ("lost_link", chaos.lost_link),
            ("host_fallback", chaos.redirected),
            ("replica_rewrites", chaos.replica_rewrites),
            ("reroutes", chaos.reroutes),
            ("recovered_by_retry", chaos.recovered_by_retry),
            ("member_crashes", chaos.member_crashes),
            ("member_recoveries", chaos.member_recoveries),
        ] {
            m.counter(format_args!("fabric.chaos.{name}"), value);
        }
        m.histogram(
            format_args!("fabric.chaos.reroute_wait"),
            &self.tor.reroute_wait,
        );
    }
}

/// The epoch loop over `[start, start + cycles)`. Each epoch: deliver
/// due link arrivals, apply the fault plane, run every member to the
/// boundary, exchange. All but the third step are the ToR's.
fn epoch_loop(
    tor: &mut Tor,
    members: &mut [Member],
    start: Cycle,
    cycles: u64,
    run: Advance,
) -> (Cycle, u64) {
    let end = Cycle(start.0 + cycles);
    let mut now = start;
    let mut skipped = 0u64;
    while now < end {
        tor.deliver_due(members, now);
        tor.apply(members, now);
        if run != Advance::Stepped {
            if let Some(target) = fleet_jump_target(tor, members, start, now, end) {
                for m in members.iter_mut() {
                    m.nic.skip_idle(now, target);
                }
                skipped += target.0 - now.0;
                tor.fleet.fleet_skipped += target.0 - now.0;
                now = target;
                continue;
            }
        }
        let boundary = match tor.epoch {
            Some(len) => Cycle((now.0 + len).min(end.0)),
            None => end,
        };
        skipped += members
            .iter_mut()
            .zip(&tor.phases)
            .map(|(m, &phase)| run_member(m, now, boundary, run, phase))
            .sum::<u64>();
        tor.fleet.epochs += 1;
        now = boundary;
        tor.exchange(members, now);
    }
    (now, skipped)
}

/// When the whole fleet is quiescent, the epoch-grid-aligned cycle to
/// jump to (strictly past `now`), or `None` to run normally.
fn fleet_jump_target(
    tor: &Tor,
    members: &[Member],
    start: Cycle,
    now: Cycle,
    end: Cycle,
) -> Option<Cycle> {
    if !tor.quiet() || !members.iter().all(|m| m.nic.is_quiescent()) {
        return None;
    }
    let mut next = tor.next_wake(now);
    for (i, m) in members.iter().enumerate() {
        next = Cycle::earliest(next, m.nic.next_activity(now));
        // A non-Up member's driver is suppressed: its backlog
        // bursts in at recovery (hinted by the ToR's wake), so it
        // must not drag the jump target earlier than that.
        if let (true, Some(d)) = (tor.is_up(i), &m.driver) {
            next = Cycle::earliest(next, d.next_arrival(now));
        }
    }
    // Nothing will ever happen again: jump straight to the end.
    let raw = next.unwrap_or(end).min(end);
    // Land on the epoch grid (anchored at this call's `start`) so
    // the exchange schedule matches the non-fast-forwarded run.
    let target = match tor.epoch {
        Some(len) => Cycle(start.0 + (raw.0.saturating_sub(start.0) / len) * len),
        None => raw,
    };
    (target > now).then_some(target)
}

/// The sink a fabric member exports into: files every metric under
/// `nic<index>.` in the fabric's own sink.
struct MemberSink<'a, S: ?Sized> {
    inner: &'a mut S,
    index: usize,
}

impl<S: MetricSink + ?Sized> MetricSink for MemberSink<'_, S> {
    fn wants(&self, subtree: &str) -> bool {
        self.inner.wants(&format!("nic{}.{subtree}", self.index))
    }

    fn counter(&mut self, name: fmt::Arguments<'_>, value: u64) {
        self.inner
            .counter(format_args!("nic{}.{name}", self.index), value);
    }

    fn histogram(&mut self, name: fmt::Arguments<'_>, h: &Histogram) {
        self.inner
            .histogram(format_args!("nic{}.{name}", self.index), h);
    }
}

/// Runs one member over `[from, to)`, interleaving its driver's
/// injections with (fast-forwarded) execution. Returns cycles skipped.
///
/// The member's failure `phase` sets how: `Up` — the driver injects and
/// the NIC runs; `Draining` — the NIC runs its in-flight work with the
/// driver suppressed (its pending arrivals burst in on recovery:
/// `next_arrival` keeps returning them, so the first `Up` epoch injects
/// the whole backlog at its opening cycle, deterministically); `Down` —
/// the NIC is skipped over, in *both* run modes, so stepped and
/// fast-forwarded execution stay trivially identical. The ToR marks a
/// member Down only once it drained quiescent, and hands a Down member
/// nothing, so that `skip_idle` — which glides a mesh through its
/// window — is a freeze.
fn run_member(m: &mut Member, from: Cycle, to: Cycle, run: Advance, phase: Phase) -> u64 {
    if matches!(phase, Phase::Down { .. }) {
        debug_assert!(
            m.nic.is_quiescent(),
            "a Down member holds work its skipped epoch would move"
        );
        m.nic.skip_idle(from, to);
        return 0;
    }
    let mut now = from;
    let mut skipped = 0u64;
    while now < to {
        let next_arr = (phase == Phase::Up)
            .then(|| m.driver.as_ref().and_then(|d| d.next_arrival(now)))
            .flatten()
            .filter(|a| *a < to);
        let chunk_end = next_arr.unwrap_or(to);
        if chunk_end > now {
            let (next, s) = drive(&mut m.nic, now, chunk_end.0 - now.0, run);
            skipped += s;
            now = next;
        } else {
            // An arrival due right now: inject, then keep going. The
            // driver contract bounds the injects at one cycle.
            let driver = m.driver.as_mut().expect("filtered Some above");
            driver.inject(&mut m.nic, now);
        }
    }
    skipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::MetricsRegistry;

    /// A member's cached counter names reach the fabric's sink through
    /// `MemberSink`'s defaulted `counter_str`: it must file them where
    /// `counter` files the same name, whatever the name holds.
    #[test]
    fn member_sink_files_a_string_name_where_it_files_a_formatted_one() {
        let long = "n".repeat(255);
        let names = [
            "",
            "{}",
            "{name}",
            "}{",
            "tenancy.web.tx_wire",
            "..",
            "tenancy.{.}.pending",
            &long,
            "tenancy.web.tx_wire",
        ];
        let (mut by_str, mut by_fmt) = (MetricsRegistry::new(), MetricsRegistry::new());
        for (value, name) in (0u64..).zip(names) {
            let index = (value % 3) as usize;
            MemberSink {
                inner: &mut by_str,
                index,
            }
            .counter_str(name, value);
            MemberSink {
                inner: &mut by_fmt,
                index,
            }
            .counter(format_args!("{name}"), value);
            assert_eq!(by_str.counter(&format!("nic{index}.{name}")), Some(value));
        }
        assert_eq!(by_str.to_json(), by_fmt.to_json());
        assert_eq!(by_str.counters().count(), names.len());
    }
}
