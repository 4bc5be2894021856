//! The [`Fabric`]: N member NICs, one simulated ToR, epoch-boundary
//! synchronization, and fleet-wide conservation.

use std::collections::VecDeque;
use std::fmt;

use packet::message::Message;
use packet::EngineId;
use panic_core::{Conservation, NicBuilder, PanicNic};
use panic_verify::{verify_fabric, FabricSpec, LinkSpec, Report};
use sim_core::clock::{drive, Advance};
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use trace::{MetricSink, Tracer};

pub use crate::chaos::ChaosStats;
use crate::chaos::{ChaosRuntime, MemberSig, Parked, Phase};
use crate::driver::NicDriver;

/// One member NIC plus its fabric-side state.
struct Member {
    nic: PanicNic,
    /// The tile where inter-NIC arrivals enter this member's mesh.
    uplink: EngineId,
    /// Deterministic workload source, if any.
    driver: Option<Box<dyn NicDriver>>,
    /// When this member's uplink serializer frees up (one uplink port
    /// into the ToR per NIC, shared by all of its outgoing links).
    uplink_free_at: Cycle,
}

impl std::fmt::Debug for Member {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Member")
            .field("uplink", &self.uplink)
            .field("has_driver", &self.driver.is_some())
            .finish_non_exhaustive()
    }
}

/// One copy on the wire: when it lands, the copy itself, and the hop
/// ledger bookkeeping that outlives the crossing (which member tracks
/// it, and under which crossing generation).
#[derive(Debug)]
struct Flight {
    arrival: Cycle,
    msg: Message,
    /// Member whose hop ledger tracks this crossing (the original
    /// sender; transit copies keep it across intermediate hops).
    origin: usize,
    /// Crossing generation the copy belongs to (0 when untracked —
    /// no fault plane armed).
    generation: u32,
}

/// Runtime state of one directed link: its spec plus the in-flight
/// window (messages serialized onto the wire but not yet delivered).
#[derive(Debug)]
struct Link {
    spec: LinkSpec,
    /// In-flight copies, oldest first. Its length against
    /// `spec.credits` is the credit check.
    in_flight: VecDeque<Flight>,
}

/// Fabric-level counters (link traffic only; per-NIC counters live in
/// each member's `NicStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Messages serialized onto a link.
    pub forwarded: u64,
    /// Messages handed to their destination NIC (`rx_remote` calls).
    pub delivered: u64,
    /// Delivered messages the destination could not route (its
    /// `rx_remote` returned false; also counted in that member's
    /// `unrouted`).
    pub rejected: u64,
    /// Messages dropped at the ToR: remote address past the member
    /// list, or no link between source and destination. The dynamic
    /// counterparts of the PV701/PV704 lints; a linted fabric never
    /// increments this.
    pub fabric_unrouted: u64,
    /// Exchange rounds where a member's egress head found its link's
    /// credit window full and the member stalled (head-of-line, by
    /// design: one uplink port per NIC).
    pub backpressured: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Cycles the whole fleet skipped at once (quiescent-fleet
    /// fast-forward, on top of each member's own `run_ff` skips).
    pub fleet_skipped: u64,
}

/// Fleet-wide copy conservation: every member's per-NIC identity plus
/// the cross-NIC closure.
///
/// The per-NIC identity (see `panic_core::Conservation`)
/// treats `remote_tx` as a sink and `remote_rx` as a source, so each
/// member balances on its own. The *fabric* identity is what ties the
/// members together:
///
/// ```text
/// Σ remote_tx == Σ remote_rx + link_in_flight + egress_backlog
///              + fabric_unrouted
/// ```
///
/// — every copy handed to the fabric is either delivered into some
/// member (`remote_rx`), still on a link, still waiting in a
/// backpressured egress queue, or dropped at the ToR for want of a
/// route. [`FleetConservation::holds`] requires both levels.
///
/// With a fault plane armed the identity gains five terms — the
/// retransmit copies the hop ledgers create, and the fault-specific
/// fates a copy can meet:
///
/// ```text
/// Σ remote_tx + retries == Σ remote_rx + dup_suppressed
///                        + link_in_flight + egress_backlog + parked
///                        + lost_link + redirected + fabric_unrouted
/// ```
///
/// Every term is zero on a fault-free run, collapsing the identity
/// back to the fabric closure above. It holds at *every instant*, not
/// just at quiescence — mid-flap, mid-drain, mid-retry.
#[derive(Debug, Clone)]
pub struct FleetConservation {
    /// Per-member conservation reports, by fabric index.
    pub per_nic: Vec<Conservation>,
    /// Sum of members' `remote_tx`.
    pub remote_tx: u64,
    /// Sum of members' `remote_rx`.
    pub remote_rx: u64,
    /// Copies currently on a link.
    pub link_in_flight: u64,
    /// Copies parked in members' fabric-egress queues.
    pub egress_backlog: u64,
    /// Copies dropped at the ToR (unroutable).
    pub fabric_unrouted: u64,
    /// Retransmit copies created by the hop ledgers (a source).
    pub retries: u64,
    /// Copies suppressed at delivery as duplicates of an
    /// already-delivered crossing.
    pub dup_suppressed: u64,
    /// Copies held by the ToR: parked for a down link / crashed
    /// member, or in transit between hops of a reroute.
    pub parked: u64,
    /// Copies destroyed on a link by a flap or partition.
    pub lost_link: u64,
    /// Copies terminally absorbed by the host-fallback path.
    pub redirected: u64,
}

impl FleetConservation {
    /// True when every member's identity holds *and* the cross-NIC
    /// closure balances.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.per_nic.iter().all(Conservation::holds)
            && self.remote_tx + self.retries
                == self.remote_rx
                    + self.dup_suppressed
                    + self.link_in_flight
                    + self.egress_backlog
                    + self.parked
                    + self.lost_link
                    + self.redirected
                    + self.fabric_unrouted
    }
}

impl std::fmt::Display for FleetConservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.per_nic.iter().enumerate() {
            writeln!(
                f,
                "nic{i}: {}",
                if c.holds() { "HOLDS" } else { "VIOLATED" }
            )?;
        }
        let chaos =
            self.retries + self.dup_suppressed + self.parked + self.lost_link + self.redirected;
        if chaos == 0 {
            writeln!(
                f,
                "fabric: remote_tx {} = remote_rx {} + on-link {} + backlog {} + unrouted {} [{}]",
                self.remote_tx,
                self.remote_rx,
                self.link_in_flight,
                self.egress_backlog,
                self.fabric_unrouted,
                if self.holds() { "HOLDS" } else { "VIOLATED" }
            )
        } else {
            writeln!(
                f,
                "fabric: remote_tx {} + retries {} = remote_rx {} + dup {} + on-link {} \
                 + backlog {} + parked {} + lost {} + redirected {} + unrouted {} [{}]",
                self.remote_tx,
                self.retries,
                self.remote_rx,
                self.dup_suppressed,
                self.link_in_flight,
                self.egress_backlog,
                self.parked,
                self.lost_link,
                self.redirected,
                self.fabric_unrouted,
                if self.holds() { "HOLDS" } else { "VIOLATED" }
            )
        }
    }
}

/// Builds a [`Fabric`] the way `NicBuilder` builds a `PanicNic`:
/// declaratively, with a lint gate before anything is constructed.
#[derive(Default)]
pub struct FabricBuilder {
    members: Vec<(NicBuilder, EngineId)>,
    drivers: Vec<Option<Box<dyn NicDriver>>>,
    links: Vec<LinkSpec>,
    faults: Option<faults::FabricFaultConfig>,
}

impl std::fmt::Debug for FabricBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricBuilder")
            .field("members", &self.members.len())
            .field("links", &self.links)
            .finish_non_exhaustive()
    }
}

impl FabricBuilder {
    /// An empty fabric.
    #[must_use]
    pub fn new() -> FabricBuilder {
        FabricBuilder::default()
    }

    /// Adds a member NIC; `uplink` is the tile (typically the MAC
    /// engine) where inter-NIC arrivals enter its mesh. Returns the
    /// member's fabric index — the address remote hops carry.
    pub fn member(&mut self, nic: NicBuilder, uplink: EngineId) -> usize {
        self.members.push((nic, uplink));
        self.drivers.push(None);
        self.members.len() - 1
    }

    /// Attaches a deterministic workload driver to `member`.
    ///
    /// # Panics
    /// Panics on an out-of-range member index.
    pub fn driver(&mut self, member: usize, driver: Box<dyn NicDriver>) {
        self.drivers[member] = Some(driver);
    }

    /// Declares one directed link.
    pub fn link(&mut self, spec: LinkSpec) {
        self.links.push(spec);
    }

    /// Arms the fabric fault plane. An empty plan still arms it (the
    /// chaos runtime runs but fires nothing), which the golden tests
    /// use to prove the armed-but-idle fabric is byte-identical to an
    /// unarmed one.
    pub fn fault_plane(&mut self, config: faults::FabricFaultConfig) {
        self.faults = Some(config);
    }

    /// Declares the pair of links `a → b` and `b → a`, both carrying
    /// `template`'s latency/rate/credits.
    pub fn link_pair(&mut self, a: usize, b: usize, template: LinkSpec) {
        self.links.push(LinkSpec {
            from: a,
            to: b,
            ..template
        });
        self.links.push(LinkSpec {
            from: b,
            to: a,
            ..template
        });
    }

    /// Extracts the plain-data spec the `PV7xx` checks lint.
    #[must_use]
    pub fn to_spec(&self) -> FabricSpec {
        FabricSpec {
            members: self.members.iter().map(|(b, _)| b.to_spec()).collect(),
            links: self.links.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Lints the configuration ([`verify_fabric`]) without building.
    #[must_use]
    pub fn validate(&self) -> Report {
        verify_fabric(&self.to_spec())
    }

    /// Builds the fabric, statically verifying first.
    ///
    /// # Panics
    /// Panics if the verifier finds an error-severity diagnostic (any
    /// member-level `PVxxx`, or a fabric-level `PV701`/`PV702`/`PV704`),
    /// or if a member's uplink tile does not exist.
    #[must_use]
    pub fn build(self) -> Fabric {
        let report = self.validate();
        assert!(
            report.error_count() == 0,
            "fabric configuration failed verification:\n{}",
            report.render_human()
        );
        for (i, (b, uplink)) in self.members.iter().enumerate() {
            assert!(
                b.to_spec().engine(*uplink).is_some(),
                "member {i}'s uplink {uplink} is not one of its tiles"
            );
        }
        self.build_unvalidated()
    }

    /// Builds without the lint gate — the escape hatch for tests that
    /// construct deliberately broken racks.
    #[must_use]
    pub fn build_unvalidated(self) -> Fabric {
        let FabricBuilder {
            members,
            drivers,
            links,
            faults,
        } = self;
        // Engine signatures for replica matching: members with equal
        // signatures are interchangeable crash-failover targets.
        let sigs: Vec<MemberSig> = members
            .iter()
            .map(|(b, _)| {
                b.to_spec()
                    .engines
                    .iter()
                    .map(|e| (e.id.0, format!("{:?}/{}", e.class, e.name)))
                    .collect()
            })
            .collect();
        let members: Vec<Member> = members
            .into_iter()
            .zip(drivers)
            .enumerate()
            .map(|(i, ((builder, uplink), driver))| {
                let mut nic = builder.build_unvalidated();
                nic.set_fabric_index(i);
                if i > 0 {
                    // Fleet-unique message ids; member 0 keeps base 0
                    // so a 1-NIC fabric is byte-identical to bare.
                    nic.set_msg_id_base((i as u64) << 48);
                }
                Member {
                    nic,
                    uplink,
                    driver,
                    uplink_free_at: Cycle(0),
                }
            })
            .collect();
        let epoch = links.iter().map(|l| l.latency.0.max(1)).min();
        let chaos = faults.map(|cfg| ChaosRuntime::new(cfg, members.len(), links.len(), sigs));
        Fabric {
            members,
            links: links
                .into_iter()
                .map(|spec| Link {
                    spec,
                    in_flight: VecDeque::new(),
                })
                .collect(),
            epoch,
            threads: 1,
            traced: false,
            stats: FleetStats::default(),
            chaos,
            tracer: Tracer::disabled(),
        }
    }
}

/// A rack of PANIC NICs behind one simulated ToR.
///
/// Members run in lockstep *epochs* (no longer than the smallest link
/// latency); messages cross NICs only at epoch boundaries, through
/// credit-windowed links with serialization and propagation delay.
/// See the crate docs and `docs/FABRIC.md` for the model.
#[derive(Debug)]
pub struct Fabric {
    members: Vec<Member>,
    links: Vec<Link>,
    /// Epoch length in cycles; `None` (no links) means "one epoch per
    /// run call" — nothing can cross, so nothing needs a boundary.
    epoch: Option<u64>,
    threads: usize,
    /// Set when a tracer is attached: tracing interleaves events from
    /// all members through one sink, so the member loop stays serial
    /// to keep event order deterministic.
    traced: bool,
    stats: FleetStats,
    /// The armed fault plane, if any. `None` runs the exact pre-fault
    /// code paths.
    chaos: Option<ChaosRuntime>,
    /// The attached tracer (disabled by default); chaos events emit
    /// through it onto a lazily created `fabric.chaos` track.
    tracer: Tracer,
}

impl Fabric {
    /// Starts building a fabric.
    #[must_use]
    pub fn builder() -> FabricBuilder {
        FabricBuilder::new()
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
        &self.stats
    }

    /// The epoch length in cycles (`None` on a linkless fabric).
    #[must_use]
    pub fn epoch_len(&self) -> Option<u64> {
        self.epoch
    }

    /// Sets how many worker threads the per-epoch member loop may use.
    /// Results are byte-identical for every value — members share
    /// nothing within an epoch, and the exchange is serial. Ignored
    /// (forced to 1) while a tracer is attached, so trace event order
    /// stays deterministic too.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Attaches `tracer` to every member. Track names are shared
    /// across members, so per-component tracks merge; runs with a
    /// tracer attached execute the member loop serially (see
    /// [`Fabric::set_threads`]).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        for m in &mut self.members {
            m.nic.attach_tracer(tracer);
        }
        if tracer.enabled() {
            self.tracer = tracer.clone();
        }
        self.traced = self.traced || tracer.enabled();
    }

    /// Fault-plane counters, when a fault plane is armed.
    #[must_use]
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| c.stats)
    }

    /// Distribution of serialization-to-delivery times for crossings
    /// that left their nominal path (replica redirect or link
    /// reroute) — the time-to-reroute numbers the `rack-chaos`
    /// experiment reports.
    #[must_use]
    pub fn reroute_summary(&self) -> Option<sim_core::stats::Summary> {
        self.chaos.as_ref().map(|c| c.reroute_wait.summary())
    }

    /// Runs `cycles` cycles from `start` with per-member stepped
    /// execution (no fast-forward anywhere). Returns the next cycle.
    pub fn run(&mut self, start: Cycle, cycles: u64) -> Cycle {
        self.run_inner(start, cycles, Advance::Stepped).0
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
        self.run_inner(start, cycles, Advance::Merged)
    }

    /// Like [`Fabric::run_ff`], but event-driven at both levels: each
    /// member advances with [`PanicNic::run_event`] (timer-wheel
    /// wake-ups instead of inline jump-target derivation), and whole-
    /// fleet quiescent stretches jump on the epoch grid exactly as in
    /// fast-forward. Boundary schedule, exchanges, traces, and metrics
    /// are byte-identical to [`Fabric::run`] and [`Fabric::run_ff`].
    ///
    /// Returns the next cycle and total cycles skipped.
    pub fn run_event(&mut self, start: Cycle, cycles: u64) -> (Cycle, u64) {
        self.run_inner(start, cycles, Advance::Wheel)
    }

    fn run_inner(&mut self, start: Cycle, cycles: u64, run: Advance) -> (Cycle, u64) {
        let end = Cycle(start.0 + cycles);
        let mut now = start;
        let mut skipped = 0u64;
        while now < end {
            self.deliver_due(now);
            if self.chaos.is_some() {
                self.chaos_apply(now);
            }
            if run != Advance::Stepped {
                if let Some(target) = self.fleet_jump_target(start, now, end) {
                    for m in &mut self.members {
                        m.nic.skip_idle(now, target);
                    }
                    skipped += target.0 - now.0;
                    self.stats.fleet_skipped += target.0 - now.0;
                    now = target;
                    continue;
                }
            }
            let boundary = match self.epoch {
                Some(len) => Cycle((now.0 + len).min(end.0)),
                None => end,
            };
            skipped += self.run_members(now, boundary, run);
            self.stats.epochs += 1;
            now = boundary;
            self.drain_egress(now);
        }
        (now, skipped)
    }

    /// Delivers every link arrival due at or before `now` into its
    /// destination member, in link order then FIFO order.
    fn deliver_due(&mut self, now: Cycle) {
        if self.chaos.is_some() {
            self.chaos_deliver_due(now);
            return;
        }
        for li in 0..self.links.len() {
            while self.links[li]
                .in_flight
                .front()
                .is_some_and(|f| f.arrival <= now)
            {
                let flight = self.links[li].in_flight.pop_front().expect("checked front");
                self.deliver(self.links[li].spec.to, flight.msg, now);
            }
        }
    }

    /// Hands `msg` to member `to` at its uplink tile — the one place a
    /// copy leaves the fabric for a NIC, on the fault-free and chaos
    /// paths alike.
    fn deliver(&mut self, to: usize, msg: Message, now: Cycle) {
        let uplink = self.members[to].uplink;
        let ok = self.members[to].nic.rx_remote(msg, uplink, now);
        self.stats.delivered += 1;
        if !ok {
            self.stats.rejected += 1;
        }
    }

    /// Chaos-aware arrival handling: receiver-side duplicate
    /// suppression, transit forwarding for multi-hop reroutes, and
    /// redirect decisions for copies landing at a crashed member.
    fn chaos_deliver_due(&mut self, now: Cycle) {
        let mut chaos = self.chaos.take().expect("chaos checked by caller");
        for li in 0..self.links.len() {
            while self.links[li]
                .in_flight
                .front()
                .is_some_and(|f| f.arrival <= now)
            {
                let flight = self.links[li].in_flight.pop_front().expect("checked front");
                let to = self.links[li].spec.to;
                let dest = flight
                    .msg
                    .chain
                    .current()
                    .and_then(|h| h.engine.remote_nic());
                if dest.is_some_and(|d| d != to) {
                    // A transit hop of a reroute: hold at this
                    // member's ToR port; the next boundary exchange
                    // dispatches it onward.
                    chaos.parked[to].push_back(Parked {
                        msg: flight.msg,
                        generation: flight.generation,
                        origin: flight.origin,
                        tracked: true,
                        via: true,
                    });
                    continue;
                }
                if chaos.is_up(to) {
                    self.chaos_deliver(&mut chaos, flight, to, now);
                } else {
                    // Arrived at a crashed member: decide its fate at
                    // the ToR port.
                    self.chaos_absorb_at_down_member(&mut chaos, flight, to, now);
                }
            }
        }
        self.chaos = Some(chaos);
    }

    /// Final delivery into an Up member, through the origin ledger's
    /// duplicate check.
    fn chaos_deliver(&mut self, chaos: &mut ChaosRuntime, flight: Flight, to: usize, now: Cycle) {
        use faults::HopOutcome;
        let Flight {
            msg,
            origin,
            generation,
            ..
        } = flight;
        match chaos.ledgers[origin].on_delivered(msg.id, generation, now) {
            HopOutcome::Duplicate => {
                chaos_mark(&self.tracer, chaos, "fabric.dup_suppressed", now, msg.id.0);
            }
            HopOutcome::First {
                waited,
                retried,
                redirected,
            } => {
                if retried {
                    chaos.stats.recovered_by_retry += 1;
                }
                if redirected {
                    chaos.reroute_wait.record_cycles(waited);
                }
                self.deliver(to, msg, now);
            }
            HopOutcome::Untracked => self.deliver(to, msg, now),
        }
    }

    /// A copy addressed to a member that is not Up: re-point it at a
    /// replica, absorb it into the host-fallback path, or park it
    /// until the member recovers.
    fn chaos_absorb_at_down_member(
        &mut self,
        chaos: &mut ChaosRuntime,
        flight: Flight,
        to: usize,
        now: Cycle,
    ) {
        let Flight {
            mut msg,
            origin,
            generation,
            ..
        } = flight;
        if let Some(replica) = chaos.replica_for(to) {
            msg.chain.rewrite_pending_nic(to, replica);
            chaos.ledgers[origin].note_redirected(msg.id);
            chaos.stats.replica_rewrites += 1;
            chaos_mark(&self.tracer, chaos, "fabric.redirect", now, replica as u64);
            chaos.parked[to].push_back(Parked {
                msg,
                generation,
                origin,
                tracked: true,
                via: true,
            });
        } else if chaos.config.host_fallback {
            chaos.ledgers[origin].complete_terminal(msg.id);
            chaos.stats.redirected += 1;
            chaos_mark(&self.tracer, chaos, "fabric.host_fallback", now, msg.id.0);
        } else {
            chaos.parked[to].push_back(Parked {
                msg,
                generation,
                origin,
                tracked: true,
                via: false,
            });
        }
    }

    /// When the whole fleet is quiescent, the epoch-grid-aligned cycle
    /// to jump to (strictly past `now`), or `None` to run normally.
    fn fleet_jump_target(&self, start: Cycle, now: Cycle, end: Cycle) -> Option<Cycle> {
        let quiet = self.links.iter().all(|l| l.in_flight.is_empty())
            && self.members.iter().all(|m| m.nic.is_quiescent())
            && self.chaos.as_ref().is_none_or(ChaosRuntime::quiet);
        if !quiet {
            return None;
        }
        let mut next: Option<Cycle> = None;
        for (i, m) in self.members.iter().enumerate() {
            next = Cycle::earliest(next, m.nic.next_activity(now));
            // A non-Up member's driver is suppressed: its backlog
            // bursts in at recovery (hinted by the chaos wake), so it
            // must not drag the jump target earlier than that.
            let driving = self.chaos.as_ref().is_none_or(|c| c.is_up(i));
            if let (true, Some(d)) = (driving, &m.driver) {
                next = Cycle::earliest(next, d.next_arrival(now));
            }
        }
        if let Some(c) = &self.chaos {
            next = Cycle::earliest(next, c.next_wake(now));
        }
        // Nothing will ever happen again: jump straight to the end.
        let raw = next.unwrap_or(end).min(end);
        // Land on the epoch grid (anchored at this call's `start`) so
        // the exchange schedule matches the non-fast-forwarded run.
        let target = match self.epoch {
            Some(len) => Cycle(start.0 + (raw.0.saturating_sub(start.0) / len) * len),
            None => raw,
        };
        (target > now).then_some(target)
    }

    /// Applies the fault plane at an epoch boundary: phase
    /// transitions (drain-complete, recovery) first, then every plan
    /// event whose fire cycle has been reached. All serial.
    fn chaos_apply(&mut self, now: Cycle) {
        let mut chaos = self.chaos.take().expect("chaos checked by caller");
        for i in 0..self.members.len() {
            match chaos.phases[i] {
                Phase::Draining { recover_at } if self.members[i].nic.is_quiescent() => {
                    chaos.phases[i] = Phase::Down { recover_at };
                    chaos_mark(
                        &self.tracer,
                        &mut chaos,
                        "fabric.member_down",
                        now,
                        i as u64,
                    );
                }
                Phase::Down {
                    recover_at: Some(r),
                } if now >= r => {
                    chaos.phases[i] = Phase::Up;
                    chaos.stats.member_recoveries += 1;
                    chaos_mark(
                        &self.tracer,
                        &mut chaos,
                        "fabric.member_recover",
                        now,
                        i as u64,
                    );
                }
                _ => {}
            }
        }
        while let Some(e) = chaos.schedule.pop_due(now) {
            chaos.stats.events_fired += 1;
            self.chaos_fire(&mut chaos, &e, now);
        }
        self.chaos = Some(chaos);
    }

    /// Applies one plan event.
    fn chaos_fire(&mut self, chaos: &mut ChaosRuntime, e: &faults::FabricFaultEvent, now: Cycle) {
        use faults::FabricFaultKind as K;
        match e.kind {
            K::LinkFlap { from, to, duration } => {
                chaos_mark(&self.tracer, chaos, "fabric.flap", now, pack_pair(from, to));
                let until = Cycle(now.0.saturating_add(duration.0));
                self.chaos_cut(chaos, |s| joins(s, from, to), until, now);
            }
            K::LinkDegrade {
                from,
                to,
                duration,
                factor,
            } => {
                chaos_mark(&self.tracer, chaos, "fabric.lag", now, pack_pair(from, to));
                let until = Cycle(now.0.saturating_add(duration.0));
                for (li, l) in self.links.iter().enumerate() {
                    if joins(&l.spec, from, to) {
                        chaos.links[li].lag = Some((until, factor));
                    }
                }
            }
            K::CreditFreeze { from, to, duration } => {
                chaos_mark(
                    &self.tracer,
                    chaos,
                    "fabric.freeze",
                    now,
                    pack_pair(from, to),
                );
                let until = Cycle(now.0.saturating_add(duration.0));
                for (li, l) in self.links.iter().enumerate() {
                    if joins(&l.spec, from, to) {
                        chaos.links[li].freeze_until = Some(until);
                    }
                }
            }
            K::Partition { member, duration } => {
                chaos_mark(&self.tracer, chaos, "fabric.partition", now, member as u64);
                let until = match duration {
                    Some(d) => Cycle(now.0.saturating_add(d.0)),
                    None => Cycle(u64::MAX),
                };
                self.chaos_cut(chaos, |s| s.from == member || s.to == member, until, now);
            }
            K::MemberCrash {
                member,
                recover_epochs,
            } => {
                // A recovery that falls past the end of the clock never
                // comes: the member is lost, as by `mloss`.
                let delay = recover_epochs.checked_mul(self.epoch.unwrap_or(1));
                chaos.phases[member] = Phase::Draining {
                    recover_at: delay.and_then(|d| now.0.checked_add(d)).map(Cycle),
                };
                chaos.stats.member_crashes += 1;
                chaos_mark(
                    &self.tracer,
                    chaos,
                    "fabric.member_crash",
                    now,
                    member as u64,
                );
            }
            K::MemberLoss { member } => {
                chaos.phases[member] = Phase::Draining { recover_at: None };
                chaos.stats.member_crashes += 1;
                chaos_mark(
                    &self.tracer,
                    chaos,
                    "fabric.member_loss",
                    now,
                    member as u64,
                );
            }
        }
    }

    /// Takes down every link matching `f` until `until`, destroying
    /// the copies in flight on it (`lost_link`; their armed ledger
    /// entries drive the retransmissions).
    fn chaos_cut<F: Fn(&LinkSpec) -> bool>(
        &mut self,
        chaos: &mut ChaosRuntime,
        f: F,
        until: Cycle,
        now: Cycle,
    ) {
        for (li, l) in self.links.iter_mut().enumerate() {
            if !f(&l.spec) {
                continue;
            }
            let held = chaos.links[li].down_until.map_or(0, |c| c.0);
            chaos.links[li].down_until = Some(Cycle(held.max(until.0)));
            let lost = l.in_flight.len() as u64;
            if lost > 0 {
                chaos.stats.lost_link += lost;
                l.in_flight.clear();
            }
            chaos_mark(&self.tracer, chaos, "fabric.link_down", now, li as u64);
        }
    }

    /// BFS over currently-up links (in declaration order, so the
    /// chosen path is deterministic) from `from` to `dest`; transit
    /// may only pass through Up members. Returns the first hop.
    fn chaos_first_hop(
        &self,
        chaos: &ChaosRuntime,
        from: usize,
        dest: usize,
        now: Cycle,
    ) -> Option<usize> {
        let n = self.members.len();
        let mut first: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[from] = true;
        let mut q = VecDeque::from([from]);
        while let Some(u) = q.pop_front() {
            for (li, l) in self.links.iter().enumerate() {
                if l.spec.from != u || !chaos.links[li].up(now) {
                    continue;
                }
                let v = l.spec.to;
                if visited[v] || (v != dest && !chaos.is_up(v)) {
                    continue;
                }
                visited[v] = true;
                first[v] = if u == from { Some(v) } else { first[u] };
                if v == dest {
                    return first[v];
                }
                q.push_back(v);
            }
        }
        None
    }

    /// One dispatch attempt for a ToR-held copy (a retransmission, a
    /// parked copy, or a transit hop) from member `i`'s uplink.
    /// Returns the copy when it must stay parked.
    fn chaos_dispatch(
        &mut self,
        chaos: &mut ChaosRuntime,
        i: usize,
        mut item: Parked,
        boundary: Cycle,
    ) -> Option<Parked> {
        let n = self.members.len();
        let dest = item.msg.chain.current().and_then(|h| h.engine.remote_nic());
        let Some(mut d) = dest.filter(|&d| d < n) else {
            // Dangling address (dynamic PV701): drop at the ToR. A
            // tracked entry stays armed — its retries meet the same
            // fate until the budget runs out.
            self.stats.fabric_unrouted += 1;
            return None;
        };
        if d == i {
            // Parked at its own destination.
            if chaos.is_up(i) {
                let flight = Flight {
                    arrival: boundary,
                    msg: item.msg,
                    origin: item.origin,
                    generation: item.generation,
                };
                self.chaos_deliver(chaos, flight, i, boundary);
            } else {
                let flight = Flight {
                    arrival: boundary,
                    msg: item.msg,
                    origin: item.origin,
                    generation: item.generation,
                };
                self.chaos_absorb_at_down_member(chaos, flight, i, boundary);
            }
            return None;
        }
        if !chaos.is_up(d) {
            if let Some(replica) = chaos.replica_for(d) {
                item.msg.chain.rewrite_pending_nic(d, replica);
                chaos.stats.replica_rewrites += 1;
                chaos_mark(
                    &self.tracer,
                    chaos,
                    "fabric.redirect",
                    boundary,
                    replica as u64,
                );
                item.via = true;
                d = replica;
                if d == i {
                    // Redirected to the member it is already at.
                    let flight = Flight {
                        arrival: boundary,
                        msg: item.msg,
                        origin: item.origin,
                        generation: item.generation,
                    };
                    self.chaos_deliver(chaos, flight, i, boundary);
                    return None;
                }
            } else if chaos.config.host_fallback {
                if item.tracked {
                    chaos.ledgers[item.origin].complete_terminal(item.msg.id);
                }
                chaos.stats.redirected += 1;
                chaos_mark(
                    &self.tracer,
                    chaos,
                    "fabric.host_fallback",
                    boundary,
                    item.msg.id.0,
                );
                return None;
            } else {
                return Some(item);
            }
        }
        let direct = self
            .links
            .iter()
            .position(|l| l.spec.from == i && l.spec.to == d);
        let (li, rerouted) = match direct {
            Some(li) if chaos.links[li].up(boundary) => (li, false),
            Some(_) => match self.chaos_first_hop(chaos, i, d, boundary) {
                Some(f) => {
                    let li = self
                        .links
                        .iter()
                        .position(|l| l.spec.from == i && l.spec.to == f)
                        .expect("BFS returned a declared up link");
                    (li, true)
                }
                None => return Some(item),
            },
            None if item.via => match self.chaos_first_hop(chaos, i, d, boundary) {
                Some(f) => {
                    let li = self
                        .links
                        .iter()
                        .position(|l| l.spec.from == i && l.spec.to == f)
                        .expect("BFS returned a declared up link");
                    (li, f != d)
                }
                None => return Some(item),
            },
            None => {
                // An original-path copy with no declared link for its
                // crossing — the dynamic PV704 case, same as the
                // fault-free fabric.
                self.stats.fabric_unrouted += 1;
                return None;
            }
        };
        if chaos.links[li].frozen(boundary)
            || self.links[li].in_flight.len() >= self.links[li].spec.credits
        {
            return Some(item);
        }
        self.chaos_serialize(chaos, i, item, li, rerouted, boundary);
        None
    }

    /// Serializes a copy onto link `li`, arming the origin's hop
    /// ledger on first serialization and applying any lag window.
    fn chaos_serialize(
        &mut self,
        chaos: &mut ChaosRuntime,
        i: usize,
        mut item: Parked,
        li: usize,
        rerouted: bool,
        boundary: Cycle,
    ) {
        if !item.tracked {
            item.generation = chaos.ledgers[item.origin].track(&item.msg, boundary);
            item.tracked = true;
        }
        if rerouted {
            chaos.stats.reroutes += 1;
            item.via = true;
            chaos_mark(&self.tracer, chaos, "fabric.reroute", boundary, li as u64);
        }
        if item.via {
            // Off-nominal path: mark the crossing so its delivery
            // lands in the time-to-reroute distribution.
            chaos.ledgers[item.origin].note_redirected(item.msg.id);
        }
        let lag = |departure| chaos.links[li].lag_factor(departure);
        let arrival = self.serialize(i, li, &item.msg, boundary, lag);
        self.links[li].in_flight.push_back(Flight {
            arrival,
            msg: item.msg,
            origin: item.origin,
            generation: item.generation,
        });
    }

    /// Claims member `i`'s uplink for `msg`, bound for link `li`, and
    /// returns the cycle it lands: departure when the uplink frees,
    /// `ser` cycles on the wire at the link's width, then the link
    /// latency times `lag(departure)` (1 on a healthy link). Counts the
    /// copy as forwarded; the caller puts it in flight.
    fn serialize(
        &mut self,
        i: usize,
        li: usize,
        msg: &Message,
        boundary: Cycle,
        lag: impl FnOnce(Cycle) -> u64,
    ) -> Cycle {
        let spec = self.links[li].spec;
        let departure = boundary.max(self.members[i].uplink_free_at);
        let ser = msg.wire_size().0.div_ceil(spec.bytes_per_cycle).max(1);
        self.members[i].uplink_free_at = Cycle(departure.0 + ser);
        self.stats.forwarded += 1;
        Cycle(departure.0 + ser + spec.latency.0 * lag(departure))
    }

    /// Runs every member over `[from, to)`, in parallel when allowed.
    /// Returns the members' summed fast-forward skip counts.
    fn run_members(&mut self, from: Cycle, to: Cycle, run: Advance) -> u64 {
        // Each member's chaos phase, read in place (no per-epoch list).
        let phases = self.chaos.as_ref().map(|c| c.phases.as_slice());
        let phase_of = |i: usize| phases.map_or(Phase::Up, |p| p[i]);
        let threads = if self.traced { 1 } else { self.threads };
        let threads = threads.min(self.members.len().max(1));
        if threads <= 1 {
            return self
                .members
                .iter_mut()
                .enumerate()
                .map(|(i, m)| run_member(m, from, to, run, phase_of(i)))
                .sum();
        }
        let chunk = self.members.len().div_ceil(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .members
                .chunks_mut(chunk)
                .enumerate()
                .map(|(c, slice)| {
                    s.spawn(move || {
                        slice
                            .iter_mut()
                            .enumerate()
                            .map(|(i, m)| run_member(m, from, to, run, phase_of(c * chunk + i)))
                            .sum::<u64>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fabric worker panicked"))
                .sum()
        })
    }

    /// Boundary exchange: drains each member's fabric egress onto its
    /// links, with per-member uplink serialization and per-link credit
    /// backpressure (head-of-line: a blocked head parks the whole
    /// queue until the next boundary).
    fn drain_egress(&mut self, boundary: Cycle) {
        if self.chaos.is_some() {
            self.chaos_drain_egress(boundary);
            return;
        }
        for i in 0..self.members.len() {
            while let Some(head) = self.members[i].nic.remote_egress().front() {
                let dest = head
                    .chain
                    .current()
                    .and_then(|h| h.engine.remote_nic())
                    .filter(|&d| d < self.members.len() && d != i);
                let Some(dest) = dest else {
                    // Unroutable at the ToR — the dynamic PV701 case.
                    let _ = self.members[i].nic.pop_remote_egress();
                    self.stats.fabric_unrouted += 1;
                    continue;
                };
                let Some(li) = self
                    .links
                    .iter()
                    .position(|l| l.spec.from == i && l.spec.to == dest)
                else {
                    // No link for this crossing — the dynamic PV704 case.
                    let _ = self.members[i].nic.pop_remote_egress();
                    self.stats.fabric_unrouted += 1;
                    continue;
                };
                if self.links[li].in_flight.len() >= self.links[li].spec.credits {
                    // Credit window full: head-of-line backpressure.
                    self.stats.backpressured += 1;
                    break;
                }
                let msg = self.members[i]
                    .nic
                    .pop_remote_egress()
                    .expect("head observed above");
                let arrival = self.serialize(i, li, &msg, boundary, |_| 1);
                self.links[li].in_flight.push_back(Flight {
                    arrival,
                    msg,
                    origin: i,
                    generation: 0,
                });
            }
        }
    }

    /// Chaos-aware boundary exchange. Per member, in order: due
    /// retransmissions, one attempt for every parked/transit copy,
    /// then the fresh egress queue with the exact fault-free
    /// head-of-line credit semantics.
    fn chaos_drain_egress(&mut self, boundary: Cycle) {
        let mut chaos = self.chaos.take().expect("chaos checked by caller");
        for i in 0..self.members.len() {
            // 1. Retransmissions whose deadline has passed.
            for r in chaos.ledgers[i].expired(boundary) {
                chaos_mark(
                    &self.tracer,
                    &mut chaos,
                    "fabric.retry",
                    boundary,
                    r.msg.id.0,
                );
                let item = Parked {
                    msg: r.msg,
                    generation: r.generation,
                    origin: i,
                    tracked: true,
                    via: false,
                };
                if let Some(item) = self.chaos_dispatch(&mut chaos, i, item, boundary) {
                    chaos.parked[i].push_back(item);
                }
            }
            // 2. Parked and transit copies: one attempt each. Entries
            //    re-parked (or newly parked) this boundary go to the
            //    back and wait for the next one.
            for _ in 0..chaos.parked[i].len() {
                let item = chaos.parked[i].pop_front().expect("length checked");
                if let Some(item) = self.chaos_dispatch(&mut chaos, i, item, boundary) {
                    chaos.parked[i].push_back(item);
                }
            }
            // 3. Fresh egress. The head is only popped once its fate
            //    is decided, so credit backpressure keeps the exact
            //    head-of-line semantics of the fault-free exchange.
            while let Some(head) = self.members[i].nic.remote_egress().front() {
                let dest = head
                    .chain
                    .current()
                    .and_then(|h| h.engine.remote_nic())
                    .filter(|&d| d < self.members.len() && d != i);
                let Some(dest) = dest else {
                    let _ = self.members[i].nic.pop_remote_egress();
                    self.stats.fabric_unrouted += 1;
                    continue;
                };
                let direct = self
                    .links
                    .iter()
                    .position(|l| l.spec.from == i && l.spec.to == dest);
                if chaos.is_up(dest) {
                    if let Some(li) = direct {
                        if chaos.links[li].up(boundary) {
                            if chaos.links[li].frozen(boundary)
                                || self.links[li].in_flight.len() >= self.links[li].spec.credits
                            {
                                // Credit window shut: head-of-line
                                // backpressure, identical to the
                                // fault-free exchange.
                                self.stats.backpressured += 1;
                                break;
                            }
                            let msg = self.members[i]
                                .nic
                                .pop_remote_egress()
                                .expect("head observed above");
                            let item = Parked {
                                msg,
                                generation: 0,
                                origin: i,
                                tracked: false,
                                via: false,
                            };
                            self.chaos_serialize(&mut chaos, i, item, li, false, boundary);
                            continue;
                        }
                    } else {
                        // No declared link for a nominal-path copy —
                        // the dynamic PV704 case, unchanged.
                        let _ = self.members[i].nic.pop_remote_egress();
                        self.stats.fabric_unrouted += 1;
                        continue;
                    }
                }
                // Destination crashed, or its direct link is down:
                // pull the copy into the ToR and let the dispatch
                // logic redirect, reroute, or park it. Parking frees
                // the queue behind it (the fault, unlike credit
                // backpressure, may outlast any boundary).
                let msg = self.members[i]
                    .nic
                    .pop_remote_egress()
                    .expect("head observed above");
                let item = Parked {
                    msg,
                    generation: 0,
                    origin: i,
                    tracked: false,
                    via: false,
                };
                if let Some(item) = self.chaos_dispatch(&mut chaos, i, item, boundary) {
                    chaos.parked[i].push_back(item);
                }
            }
        }
        self.chaos = Some(chaos);
    }

    /// True when no member holds in-flight work and no link carries a
    /// message — the fleet-wide analogue of `PanicNic::is_quiescent`.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.links.iter().all(|l| l.in_flight.is_empty())
            && self.members.iter().all(|m| m.nic.is_quiescent())
            && self.chaos.as_ref().is_none_or(ChaosRuntime::quiet)
    }

    /// True while the armed fault plane still has work ahead of it:
    /// unapplied plan events, a member mid-drain, or a recovery yet
    /// to happen. A chaos run's drain loop must spin until this goes
    /// false *and* [`Fabric::is_quiescent`] goes true — a crashed
    /// member can look quiescent right up until its driver's backlog
    /// bursts in at recovery.
    #[must_use]
    pub fn faults_pending(&self) -> bool {
        self.chaos.as_ref().is_some_and(|c| {
            !c.schedule.exhausted()
                || c.phases.iter().any(|p| {
                    matches!(
                        p,
                        Phase::Draining { .. }
                            | Phase::Down {
                                recover_at: Some(_)
                            }
                    )
                })
        })
    }

    /// The fleet-wide conservation report (see [`FleetConservation`]).
    #[must_use]
    pub fn conservation(&self) -> FleetConservation {
        let per_nic: Vec<Conservation> =
            self.members.iter().map(|m| m.nic.conservation()).collect();
        let (retries, dup_suppressed, parked, lost_link, redirected) = self
            .chaos
            .as_ref()
            .map_or((0, 0, 0, 0, 0), ChaosRuntime::conservation_terms);
        FleetConservation {
            remote_tx: per_nic.iter().map(|c| c.remote_tx).sum(),
            remote_rx: per_nic.iter().map(|c| c.remote_rx).sum(),
            link_in_flight: self.links.iter().map(|l| l.in_flight.len() as u64).sum(),
            egress_backlog: self
                .members
                .iter()
                .map(|m| m.nic.remote_egress().len() as u64)
                .sum(),
            fabric_unrouted: self.stats.fabric_unrouted,
            retries,
            dup_suppressed,
            parked,
            lost_link,
            redirected,
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
        if self.stats.forwarded > 0 || self.stats.delivered > 0 {
            m.counter(format_args!("fabric.forwarded"), self.stats.forwarded);
            m.counter(format_args!("fabric.delivered"), self.stats.delivered);
            m.counter(
                format_args!("fabric.backpressured"),
                self.stats.backpressured,
            );
            m.counter(
                format_args!("fabric.fabric_unrouted"),
                self.stats.fabric_unrouted,
            );
        }
        // Chaos counters appear only once a fault has actually fired,
        // so an armed-but-silent fault plane exports byte-identical
        // metrics to an unarmed fabric.
        if let Some(c) = &self.chaos {
            if c.stats.any() {
                let (retries, dup, parked, lost, fallback) = c.conservation_terms();
                m.counter(format_args!("fabric.chaos.events"), c.stats.events_fired);
                m.counter(format_args!("fabric.chaos.retries"), retries);
                m.counter(format_args!("fabric.chaos.dup_suppressed"), dup);
                m.counter(format_args!("fabric.chaos.parked"), parked);
                m.counter(format_args!("fabric.chaos.lost_link"), lost);
                m.counter(format_args!("fabric.chaos.host_fallback"), fallback);
                m.counter(
                    format_args!("fabric.chaos.replica_rewrites"),
                    c.stats.replica_rewrites,
                );
                m.counter(format_args!("fabric.chaos.reroutes"), c.stats.reroutes);
                m.counter(
                    format_args!("fabric.chaos.recovered_by_retry"),
                    c.stats.recovered_by_retry,
                );
                m.counter(
                    format_args!("fabric.chaos.member_crashes"),
                    c.stats.member_crashes,
                );
                m.counter(
                    format_args!("fabric.chaos.member_recoveries"),
                    c.stats.member_recoveries,
                );
                m.histogram(format_args!("fabric.chaos.reroute_wait"), &c.reroute_wait);
            }
        }
    }
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
/// The member's chaos `phase` sets how: `Up` — the driver injects and
/// the NIC runs; `Draining` — the NIC runs its in-flight work with the
/// driver suppressed (its pending arrivals burst in on recovery:
/// `next_arrival` keeps returning them, so the first `Up` epoch injects
/// the whole backlog at its opening cycle, deterministically); `Down` —
/// the NIC is skipped over, in *both* run modes, so stepped and
/// fast-forwarded execution stay trivially identical.
fn run_member(m: &mut Member, from: Cycle, to: Cycle, run: Advance, phase: Phase) -> u64 {
    if matches!(phase, Phase::Down { .. }) {
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
            // driver contract guarantees next_arrival then advances.
            let driver = m.driver.as_mut().expect("filtered Some above");
            driver.inject(&mut m.nic, now);
        }
    }
    skipped
}

/// Emits one chaos instant event, creating the `fabric.chaos` track
/// on first use — a silent fault plane never allocates a track, so
/// its trace stays byte-identical to an unarmed run.
fn chaos_mark(tracer: &Tracer, chaos: &mut ChaosRuntime, name: &'static str, now: Cycle, v: u64) {
    if !tracer.enabled() {
        return;
    }
    let track = *chaos
        .track
        .get_or_insert_with(|| tracer.track("fabric.chaos"));
    tracer.instant_arg(track, name, now, "v", v);
}

/// True when the directed link joins the unordered pair `{a, b}` —
/// link faults have cable semantics, hitting both directions.
fn joins(spec: &LinkSpec, a: usize, b: usize) -> bool {
    (spec.from == a && spec.to == b) || (spec.from == b && spec.to == a)
}

/// Packs an unordered member pair into one trace-arg value.
fn pack_pair(a: usize, b: usize) -> u64 {
    (a.min(b) as u64) * 100 + (a.max(b) as u64)
}
