//! The simulated ToR: directed links with their fault windows, each
//! member's failure phase, hop ledger and parked/transit queue, and the
//! one boundary exchange that moves copies between members.
//!
//! A [`crate::Fabric`] always owns exactly one [`Tor`]. Unarmed it is
//! the trivial one — every member `Up`, every window clear, nothing
//! parked, an empty schedule — and the same code runs either way;
//! arming (`FabricBuilder::fault_plane`) changes only whether a
//! crossing is tracked in its origin's hop ledger (and so whether its
//! delivery asks the ledger first). All ToR state changes happen in the
//! epoch-boundary steps, between member epochs, so no member ever sees
//! the ToR mid-update (`docs/FABRIC.md`).
//!
//! `docs/FAULTS.md` § "The rack-scale fault plane" defines the terms
//! used below: a link is down, lagged or frozen; a member is Up,
//! Draining, Down, or isolated.

use std::collections::VecDeque;

use faults::{FabricFaultConfig, FabricFaultKind, HopLedger, HopOutcome, Schedule};
use packet::message::Message;
use panic_verify::LinkSpec;
use sim_core::stats::Histogram;
use sim_core::time::{Cycle, Cycles};
use trace::{Tracer, TrackId};

use crate::builder::MemberSig;
use crate::conservation::{ChaosStats, FleetStats};
use crate::fleet::Member;

/// "Until" of a window that never closes.
const FOREVER: Cycle = Cycle(u64::MAX);

/// Failure phase of one member NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Healthy: driver runs, deliveries accepted.
    Up,
    /// Crashed: driver suppressed, ToR redirects deliveries away, the
    /// NIC keeps running until its in-flight work drains.
    Draining {
        /// When it comes back (`None` = never, a `mloss`).
        recover_at: Option<Cycle>,
    },
    /// Drained and stopped; `skip_idle`d every epoch.
    Down {
        /// When it comes back (`None` = never).
        recover_at: Option<Cycle>,
    },
}

/// One copy held by the ToR — on a link, parked (no route /
/// destination not Up) or in transit (multi-hop reroute, waiting at an
/// intermediate member's uplink for the next boundary) — with the hop
/// ledger bookkeeping that outlives the crossing.
#[derive(Debug)]
struct Crossing {
    msg: Message,
    /// Member whose hop ledger tracks this crossing (the original
    /// sender; transit copies keep it across intermediate hops). A
    /// fabric has at most 32 members, so a byte holds it.
    origin: u8,
    /// Crossing generation (valid when `tracked`).
    generation: u32,
    /// Whether the origin's ledger has the crossing armed (from first
    /// serialization on an armed fabric; park-wait before that does
    /// not burn the retry timeout).
    tracked: bool,
    /// True once the copy left its nominal path — redirected to a
    /// replica or routed around a down link. Such copies may take
    /// multi-hop routes even where no direct link exists.
    via: bool,
}

// A `Message` plus one word, moved by value through every boundary
// exchange: at most 128 bytes, the largest move LLVM does inline on
// baseline x86-64 rather than through a `memcpy` call (see the pin in
// `packet::message`).
const _: () = assert!(std::mem::size_of::<Crossing>() <= 128);

impl Crossing {
    /// A copy just popped from `origin`'s fabric egress.
    fn fresh(msg: Message, origin: usize) -> Crossing {
        Crossing {
            msg,
            origin: u8::try_from(origin).expect("a fabric member index fits a byte"),
            generation: 0,
            tracked: false,
            via: false,
        }
    }

    /// The member whose hop ledger tracks this crossing.
    fn origin(&self) -> usize {
        usize::from(self.origin)
    }
}

/// The member a message's current hop is remote-addressed to.
fn remote_dest(msg: &Message) -> Option<usize> {
    msg.chain.current().and_then(|h| h.engine.remote_nic())
}

/// One directed link: its spec, the in-flight window (copies serialized
/// onto the wire but not yet delivered) and its fault windows, each
/// open while `now` is before its cycle (`Cycle(0)` = clear).
#[derive(Debug)]
struct Link {
    spec: LinkSpec,
    /// `(arrival, copy)`, oldest first. Its length against
    /// `spec.credits` is the credit check.
    in_flight: VecDeque<(Cycle, Crossing)>,
    /// Down until this cycle ([`FOREVER`] = for good).
    down_until: Cycle,
    /// `(until, factor)`: propagation latency multiplier window.
    lag: (Cycle, u32),
    /// Credit window acts full until this cycle.
    freeze_until: Cycle,
}

impl Link {
    /// True when the link can carry traffic at `now`.
    fn up(&self, now: Cycle) -> bool {
        now >= self.down_until
    }

    /// True when nothing may serialize at `now`: a credit freeze, or
    /// the credit window really is full.
    fn shut(&self, now: Cycle) -> bool {
        now < self.freeze_until || self.in_flight.len() >= self.spec.credits
    }

    /// True when `member` is either end of the link.
    fn touches(&self, member: usize) -> bool {
        self.spec.from == member || self.spec.to == member
    }

    /// True when the directed link joins the unordered pair `{a, b}` —
    /// link faults have cable semantics, hitting both directions.
    fn joins(&self, a: usize, b: usize) -> bool {
        (self.spec.from, self.spec.to) == (a, b) || (self.spec.from, self.spec.to) == (b, a)
    }
}

/// Where the ToR can send a copy held at one member for another.
#[derive(Clone, Copy)]
enum Route {
    /// Onto this link; the flag says it is not the nominal one.
    Link(usize, bool),
    /// An original-path copy with no declared link for its crossing —
    /// the dynamic PV704 case.
    Unrouted,
    /// No way through until a fault window clears.
    Wait,
    /// The destination is not Up, or an end is isolated: the crossing
    /// as addressed will not complete.
    Never,
}

/// The ToR. Owned by `Fabric`, mutated only at epoch boundaries.
#[derive(Debug)]
pub(crate) struct Tor {
    /// Whether `FabricBuilder::fault_plane` was called: crossings are
    /// tracked in hop ledgers and `chaos_stats()` reports.
    pub armed: bool,
    /// Failover policy (the default when unarmed, where nothing
    /// consults it); its plan has moved into `schedule`.
    config: FabricFaultConfig,
    /// What is left to fire of the plan.
    schedule: Schedule<FabricFaultKind>,
    links: Vec<Link>,
    /// Epoch length: the smallest link latency (`None` without links).
    pub epoch: Option<u64>,
    /// Per-member failure phase.
    pub phases: Vec<Phase>,
    /// Per-member hop ledgers: member `i` tracks crossings it
    /// originated.
    ledgers: Vec<HopLedger>,
    /// Per-member parked/transit queues.
    parked: Vec<VecDeque<Crossing>>,
    /// When each member's uplink serializer frees up (one uplink port
    /// into the ToR per NIC, shared by all of its outgoing links).
    uplink_free_at: Vec<Cycle>,
    /// Engine signatures for replica selection.
    sigs: Vec<MemberSig>,
    /// Link-traffic and epoch counters.
    pub fleet: FleetStats,
    /// Fault counters.
    pub chaos: ChaosStats,
    /// Serialization-to-delivery cycles of crossings that left their
    /// nominal path (replica redirect or link reroute) — the
    /// time-to-reroute distribution.
    pub reroute_wait: Histogram,
    /// The attached tracer (disabled by default).
    tracer: Tracer,
    /// Lazily created trace track for `fabric.*` chaos events; `None`
    /// until the first event fires, so a silent fault plane adds no
    /// track to the trace.
    track: Option<TrackId>,
}

impl Tor {
    /// The ToR joining `sigs.len()` members by `links`, armed with
    /// `faults` if any.
    pub fn new(
        links: Vec<LinkSpec>,
        faults: Option<FabricFaultConfig>,
        sigs: Vec<MemberSig>,
    ) -> Tor {
        let n = sigs.len();
        let armed = faults.is_some();
        let mut config = faults.unwrap_or_default();
        Tor {
            armed,
            schedule: Schedule::new(std::mem::take(&mut config.plan)),
            epoch: links.iter().map(|l| l.latency.0.max(1)).min(),
            links: links
                .into_iter()
                .map(|spec| Link {
                    spec,
                    in_flight: VecDeque::new(),
                    down_until: Cycle(0),
                    lag: (Cycle(0), 1),
                    freeze_until: Cycle(0),
                })
                .collect(),
            phases: vec![Phase::Up; n],
            ledgers: (0..n).map(|_| HopLedger::new(config.retry)).collect(),
            parked: (0..n).map(|_| VecDeque::new()).collect(),
            uplink_free_at: vec![Cycle(0); n],
            sigs,
            config,
            fleet: FleetStats::default(),
            chaos: ChaosStats::default(),
            reroute_wait: Histogram::new(),
            tracer: Tracer::disabled(),
            track: None,
        }
    }

    /// True when the member accepts deliveries and runs its driver.
    pub fn is_up(&self, member: usize) -> bool {
        self.phases[member] == Phase::Up
    }

    /// Copies currently on a link.
    pub fn on_links(&self) -> u64 {
        self.links.iter().map(|l| l.in_flight.len() as u64).sum()
    }

    /// Copies parked at the ToR or in transit between reroute hops.
    pub fn parked(&self) -> u64 {
        self.parked.iter().map(|q| q.len() as u64).sum()
    }

    /// Crossings some hop ledger is still waiting on.
    pub fn armed_entries(&self) -> u64 {
        self.ledgers.iter().map(|l| l.armed() as u64).sum()
    }

    /// Retransmit copies created, and duplicates suppressed, by the
    /// hop ledgers.
    pub fn retries_and_duplicates(&self) -> (u64, u64) {
        self.ledgers.iter().fold((0, 0), |(r, d), l| {
            (r + l.retries_issued(), d + l.duplicates())
        })
    }

    /// True when the ToR holds no work: no copy on a link or parked,
    /// no crossing armed for retry, no member mid-drain.
    pub fn quiet(&self) -> bool {
        let draining = |p: &Phase| matches!(p, Phase::Draining { .. });
        self.on_links() + self.parked() + self.armed_entries() == 0
            && !self.phases.iter().any(draining)
    }

    /// True while the fault plane still has work ahead of it:
    /// unapplied plan events, a member mid-drain, or a recovery yet to
    /// happen.
    pub fn pending(&self) -> bool {
        let settled = |p: &Phase| matches!(p, Phase::Up | Phase::Down { recover_at: None });
        !(self.schedule.exhausted() && self.phases.iter().all(settled))
    }

    /// Earliest cycle at which the fault plane will do something on
    /// its own: the next plan event, the next retry deadline, the end
    /// of any link fault window, or a member recovery.
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        let events = self.schedule.next_due(now).into_iter();
        let deadlines = self.ledgers.iter().filter_map(HopLedger::next_deadline);
        let windows = self
            .links
            .iter()
            .flat_map(|l| [l.down_until, l.lag.0, l.freeze_until]);
        let recoveries = self.phases.iter().filter_map(|p| match p {
            Phase::Down { recover_at } | Phase::Draining { recover_at } => *recover_at,
            Phase::Up => None,
        });
        events
            .chain(deadlines)
            .chain(windows)
            .chain(recoveries)
            .filter(|&c| c > now && c != FOREVER)
            .min()
    }

    /// Replaces the attached tracer. The `fabric.chaos` track belongs
    /// to the tracer that interned it, so the next mark asks this one.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.track = None;
    }

    /// Emits one chaos instant event, creating the `fabric.chaos` track
    /// on first use.
    fn mark(&mut self, name: &'static str, now: Cycle, v: u64) {
        if !self.tracer.enabled() {
            return;
        }
        let track = *self
            .track
            .get_or_insert_with(|| self.tracer.track("fabric.chaos"));
        self.tracer.instant_arg(track, name, now, "v", v);
    }

    /// Index of the directed link `from → to`, if one is declared.
    fn link(&self, from: usize, to: usize) -> Option<usize> {
        self.links
            .iter()
            .position(|l| (l.spec.from, l.spec.to) == (from, to))
    }

    /// True when every link touching `member` is down for good:
    /// nothing will ever reach or leave it again.
    fn isolated(&self, member: usize) -> bool {
        let mut touching = self.links.iter().filter(|l| l.touches(member));
        touching.all(|l| l.down_until == FOREVER)
    }

    /// The replica a crossing held at `from` and addressed to `member`
    /// should be re-pointed at: the pinned replica if it will do, else
    /// the lowest-indexed member with the same engine signature that
    /// will — Up, and not cut off from `from` for good.
    fn replica_for(&self, member: usize, from: usize) -> Option<usize> {
        let cut_off = self.isolated(from);
        let ok = |j: usize| {
            j != member && self.is_up(j) && (j == from || !(cut_off || self.isolated(j)))
        };
        let pinned = self.config.pinned_replica(member);
        pinned
            .filter(|&r| r < self.phases.len() && ok(r))
            .or_else(|| {
                (0..self.phases.len()).find(|&j| ok(j) && self.sigs[j] == self.sigs[member])
            })
    }

    /// BFS over currently-up links (in declaration order, so the
    /// chosen path is deterministic) from `from` to `dest`; transit
    /// may only pass through Up members. Returns the first hop's link.
    fn detour(&self, from: usize, dest: usize, now: Cycle) -> Option<usize> {
        let mut first: Vec<Option<usize>> = vec![None; self.phases.len()];
        let mut q = VecDeque::from([from]);
        while let Some(u) = q.pop_front() {
            for (li, l) in self.links.iter().enumerate() {
                let v = l.spec.to;
                if l.spec.from != u || !l.up(now) || v == from || first[v].is_some() {
                    continue;
                }
                if v != dest && !self.is_up(v) {
                    continue;
                }
                first[v] = first[u].or(Some(li));
                if v == dest {
                    return first[v];
                }
                q.push_back(v);
            }
        }
        None
    }

    /// Where a copy held at member `i` for member `d` goes now; `via`
    /// copies may leave the declared crossing.
    fn route(&self, i: usize, d: usize, via: bool, now: Cycle) -> Route {
        if !self.is_up(d) {
            return Route::Never;
        }
        match self.link(i, d) {
            Some(li) if self.links[li].up(now) => Route::Link(li, false),
            None if !via => Route::Unrouted,
            _ => match self.detour(i, d, now) {
                Some(li) => Route::Link(li, true),
                None if self.isolated(i) || self.isolated(d) => Route::Never,
                None => Route::Wait,
            },
        }
    }

    /// Step 1 of an epoch: delivers every link arrival due at or
    /// before `now`, in link order then FIFO order — into its
    /// destination member, onward when it is a transit hop of a
    /// reroute, or to the fate of a copy landing at a crashed member.
    pub fn deliver_due(&mut self, members: &mut [Member], now: Cycle) {
        for li in 0..self.links.len() {
            let to = self.links[li].spec.to;
            let due = |(arrival, _): &mut (Cycle, Crossing)| *arrival <= now;
            while let Some((_, mut copy)) = self.links[li].in_flight.pop_front_if(due) {
                if remote_dest(&copy.msg).is_some_and(|d| d != to) {
                    // Hold at this member's ToR port; the next
                    // boundary exchange dispatches it onward.
                    copy.via = true;
                    self.parked[to].push_back(copy);
                } else {
                    self.land(members, copy, to, now);
                }
            }
        }
    }

    /// A copy at the port of member `to`, its destination: delivered
    /// if `to` is Up, else decided at the port.
    fn land(&mut self, members: &mut [Member], copy: Crossing, to: usize, now: Cycle) {
        if self.is_up(to) {
            self.deliver(members, copy, to, now);
        } else {
            self.absorb_at_down_member(copy, to, now);
        }
    }

    /// Hands a copy to Up member `to` at its uplink tile — the one
    /// place a copy leaves the fabric for a NIC. A tracked crossing
    /// asks its origin's ledger first, so exactly one copy of it
    /// enters the destination mesh.
    fn deliver(&mut self, members: &mut [Member], copy: Crossing, to: usize, now: Cycle) {
        if copy.tracked {
            match self.ledgers[copy.origin()].on_delivered(copy.msg.id, copy.generation, now) {
                HopOutcome::Duplicate => {
                    self.mark("fabric.dup_suppressed", now, copy.msg.id.0);
                    return;
                }
                HopOutcome::First {
                    waited,
                    retried,
                    redirected,
                } => {
                    self.chaos.recovered_by_retry += u64::from(retried);
                    if redirected {
                        self.reroute_wait.record_cycles(waited);
                    }
                }
                HopOutcome::Untracked => {}
            }
        }
        let m = &mut members[to];
        let ok = m.nic.rx_remote(copy.msg, m.uplink, now);
        self.fleet.delivered += 1;
        self.fleet.rejected += u64::from(!ok);
    }

    /// Re-points a copy's pending hops from `from` at `replica`.
    fn redirect(&mut self, copy: &mut Crossing, from: usize, replica: usize, now: Cycle) {
        copy.msg.chain.rewrite_pending_nic(from, replica);
        copy.via = true;
        self.chaos.replica_rewrites += 1;
        self.mark("fabric.redirect", now, replica as u64);
    }

    /// The host-fallback fate: the copy is terminally absorbed and its
    /// ledger entry closed.
    fn fall_back_to_host(&mut self, copy: &Crossing, now: Cycle) {
        self.ledgers[copy.origin()].complete_terminal(copy.msg.id);
        self.chaos.redirected += 1;
        self.mark("fabric.host_fallback", now, copy.msg.id.0);
    }

    /// A copy at the port of member `to`, its destination, which is
    /// not Up: re-point it at a replica and park it for the next
    /// dispatch, or absorb it into the host-fallback path.
    fn absorb_at_down_member(&mut self, mut copy: Crossing, to: usize, now: Cycle) {
        let Some(replica) = self.replica_for(to, to) else {
            return self.fall_back_to_host(&copy, now);
        };
        self.redirect(&mut copy, to, replica, now);
        self.ledgers[copy.origin()].note_redirected(copy.msg.id);
        self.parked[to].push_back(copy);
    }

    /// Step 2 of an epoch: phase transitions (drain-complete,
    /// recovery) first, then every plan event whose fire cycle has
    /// been reached.
    pub fn apply(&mut self, members: &[Member], now: Cycle) {
        for (i, m) in members.iter().enumerate() {
            match self.phases[i] {
                Phase::Draining { recover_at } if m.nic.is_quiescent() => {
                    self.phases[i] = Phase::Down { recover_at };
                    self.mark("fabric.member_down", now, i as u64);
                }
                Phase::Down {
                    recover_at: Some(r),
                } if now >= r => {
                    self.phases[i] = Phase::Up;
                    self.chaos.member_recoveries += 1;
                    self.mark("fabric.member_recover", now, i as u64);
                }
                _ => {}
            }
        }
        while let Some(e) = self.schedule.pop_due(now) {
            self.chaos.events_fired += 1;
            self.fire(e.kind, now);
        }
    }

    /// Applies one plan event.
    fn fire(&mut self, kind: FabricFaultKind, now: Cycle) {
        use FabricFaultKind as K;
        match kind {
            K::LinkFlap { from, to, duration } => {
                let (cable, until) = self.window("fabric.flap", (from, to), duration, now);
                for li in cable {
                    self.cut(li, until, now);
                }
            }
            K::LinkDegrade {
                from,
                to,
                duration,
                factor,
            } => {
                let (cable, until) = self.window("fabric.lag", (from, to), duration, now);
                for li in cable {
                    self.links[li].lag = (until, factor);
                }
            }
            K::CreditFreeze { from, to, duration } => {
                let (cable, until) = self.window("fabric.freeze", (from, to), duration, now);
                for li in cable {
                    self.links[li].freeze_until = until;
                }
            }
            K::Partition { member, duration } => {
                self.mark("fabric.partition", now, member as u64);
                let until = duration.map_or(FOREVER, |d| Cycle(now.0.saturating_add(d.0)));
                for li in 0..self.links.len() {
                    if self.links[li].touches(member) {
                        self.cut(li, until, now);
                    }
                }
            }
            K::MemberCrash {
                member,
                recover_epochs,
            } => {
                // A recovery that falls past the end of the clock never
                // comes: the member is lost, as by `mloss`.
                let delay = recover_epochs.checked_mul(self.epoch.unwrap_or(1));
                let recover_at = delay.and_then(|d| now.0.checked_add(d)).map(Cycle);
                self.crash("fabric.member_crash", member, recover_at, now);
            }
            K::MemberLoss { member } => self.crash("fabric.member_loss", member, None, now),
        }
    }

    /// Marks a fault on cable `{a, b}` (both directions) and returns
    /// its links with the cycle a `duration`-long window closes.
    fn window(
        &mut self,
        name: &'static str,
        (a, b): (usize, usize),
        duration: Cycles,
        now: Cycle,
    ) -> (Vec<usize>, Cycle) {
        self.mark(name, now, (a.min(b) as u64) * 100 + a.max(b) as u64);
        let cable = (0..self.links.len()).filter(|&li| self.links[li].joins(a, b));
        (cable.collect(), Cycle(now.0.saturating_add(duration.0)))
    }

    /// Takes link `li` down until `until` (never shortening a longer
    /// cut), destroying the copies in flight on it (`lost_link`; their
    /// armed ledger entries drive the retransmissions).
    fn cut(&mut self, li: usize, until: Cycle, now: Cycle) {
        let link = &mut self.links[li];
        link.down_until = link.down_until.max(until);
        self.chaos.lost_link += link.in_flight.len() as u64;
        link.in_flight.clear();
        self.mark("fabric.link_down", now, li as u64);
    }

    /// Starts `member`'s drain-before-down.
    fn crash(&mut self, name: &'static str, member: usize, recover_at: Option<Cycle>, now: Cycle) {
        self.phases[member] = Phase::Draining { recover_at };
        self.chaos.member_crashes += 1;
        self.mark(name, now, member as u64);
    }

    /// Step 4 of an epoch, the boundary exchange. Per member, in
    /// order: due retransmissions, one attempt for every parked or
    /// transit copy, then the fresh egress queue with per-member
    /// uplink serialization and per-link credit backpressure
    /// (head-of-line: a blocked head holds the whole queue until the
    /// next boundary).
    pub fn exchange(&mut self, members: &mut [Member], boundary: Cycle) {
        let count = members.len();
        for i in 0..count {
            for r in self.ledgers[i].expired(boundary) {
                self.mark("fabric.retry", boundary, r.msg.id.0);
                let copy = Crossing {
                    generation: r.generation,
                    tracked: true,
                    ..Crossing::fresh(r.msg, i)
                };
                self.dispatch(members, i, copy, boundary);
            }
            // Copies re-parked (or newly parked) this boundary go to
            // the back and wait for the next one.
            for _ in 0..self.parked[i].len() {
                let copy = self.parked[i].pop_front().expect("length checked");
                self.dispatch(members, i, copy, boundary);
            }
            // The head is only popped once its fate is decided.
            while let Some(head) = members[i].nic.remote_egress().front() {
                let dest = remote_dest(head).filter(|&d| d < count && d != i);
                // Past the member list or self-addressed: unroutable at
                // the ToR, the dynamic PV701 case.
                let route = dest.map_or(Route::Unrouted, |d| self.route(i, d, false, boundary));
                if matches!(route, Route::Link(li, false) if self.links[li].shut(boundary)) {
                    self.fleet.backpressured += 1;
                    break;
                }
                let msg = members[i].nic.pop_remote_egress();
                let copy = Crossing::fresh(msg.expect("head observed above"), i);
                match route {
                    Route::Unrouted => self.fleet.fabric_unrouted += 1,
                    Route::Link(li, false) => self.serialize(i, copy, li, false, boundary),
                    // Destination crashed, or its direct link is down:
                    // pull the copy into the ToR to redirect, reroute,
                    // or park it. Parking frees the queue behind it
                    // (the fault, unlike credit backpressure, may
                    // outlast any boundary).
                    _ => self.dispatch(members, i, copy, boundary),
                }
            }
        }
    }

    /// One dispatch attempt for a ToR-held copy (a retransmission, a
    /// parked copy, a transit hop, or a fresh copy off its nominal
    /// path) from member `i`'s uplink. A copy that cannot move waits at
    /// the back of `i`'s parked queue for the next boundary.
    fn dispatch(&mut self, members: &mut [Member], i: usize, mut copy: Crossing, boundary: Cycle) {
        let Some(d) = remote_dest(&copy.msg).filter(|&d| d < members.len()) else {
            // Dangling address (dynamic PV701): drop at the ToR. A
            // tracked entry stays armed — its retries meet the same
            // fate until the budget runs out.
            self.fleet.fabric_unrouted += 1;
            return;
        };
        if d == i {
            return self.land(members, copy, i, boundary);
        }
        // A tracked crossing was serialized once, so one with no
        // declared link is a retransmission of a copy that had already
        // left its nominal path — not the PV704 case.
        let mut route = self.route(i, d, copy.via || copy.tracked, boundary);
        if matches!(route, Route::Never) {
            let Some(replica) = self.replica_for(d, i) else {
                return self.fall_back_to_host(&copy, boundary);
            };
            self.redirect(&mut copy, d, replica, boundary);
            if replica == i {
                return self.deliver(members, copy, i, boundary);
            }
            route = self.route(i, replica, true, boundary);
        }
        match route {
            Route::Link(li, rerouted) if !self.links[li].shut(boundary) => {
                self.serialize(i, copy, li, rerouted, boundary);
            }
            Route::Unrouted => self.fleet.fabric_unrouted += 1,
            _ => self.parked[i].push_back(copy),
        }
    }

    /// Serializes a copy from member `i` onto link `li`: arms the
    /// origin's hop ledger on first serialization when the fault plane
    /// is armed, claims the uplink (departure when it frees, then
    /// `ser` cycles on the wire at the link's width), and lands it the
    /// link latency — times the lag factor at departure — later.
    fn serialize(&mut self, i: usize, mut copy: Crossing, li: usize, rerouted: bool, at: Cycle) {
        if self.armed && !copy.tracked {
            copy.generation = self.ledgers[copy.origin()].track(&copy.msg, at);
            copy.tracked = true;
        }
        if rerouted {
            self.chaos.reroutes += 1;
            copy.via = true;
            self.mark("fabric.reroute", at, li as u64);
        }
        if copy.via {
            // Off-nominal path: mark the crossing so its delivery
            // lands in the time-to-reroute distribution.
            self.ledgers[copy.origin()].note_redirected(copy.msg.id);
        }
        let link = &mut self.links[li];
        let departure = at.max(self.uplink_free_at[i]);
        let bytes = copy.msg.wire_size().0;
        let ser = bytes.div_ceil(link.spec.bytes_per_cycle).max(1);
        self.uplink_free_at[i] = Cycle(departure.0 + ser);
        self.fleet.forwarded += 1;
        let lag = match link.lag {
            (until, factor) if departure < until => u64::from(factor),
            _ => 1,
        };
        let arrival = Cycle(departure.0 + ser + link.spec.latency.0 * lag);
        link.in_flight.push_back((arrival, copy));
    }
}
