//! Runtime state of the fabric fault plane ("chaos"): per-link fault
//! windows, per-member failure phases, per-member hop ledgers, and the
//! ToR's parked/transit queues.
//!
//! The [`crate::Fabric`] owns at most one [`ChaosRuntime`]
//! (`FabricBuilder::fault_plane`). All chaos state changes happen in
//! the serial epoch-boundary exchange, so the runtime needs no
//! synchronization and cannot perturb the parallel member loop — the
//! byte-identity argument of `docs/FABRIC.md` is untouched. When the
//! armed plan is *empty*, no event ever fires, every crossing delivers
//! first try, and the run is byte-identical to an unarmed fabric (the
//! golden test in `tests/chaos.rs` pins this).
//!
//! Terminology, mirrored in `docs/FAULTS.md`:
//!
//! * a link is **down** while a flap or a partition window covers it:
//!   nothing serializes onto it and copies in flight on it at the
//!   moment the fault fires are destroyed (`lost_link`);
//! * a link is **lagged** while a degrade window covers it: copies
//!   serialized during the window see `factor`× propagation latency;
//! * a link is **frozen** while a credit-freeze window covers it: its
//!   credit window acts permanently full — pure backpressure;
//! * a member is **Up**, **Draining** (crashed, refusing new
//!   deliveries, finishing in-flight work) or **Down** (drained,
//!   fully stopped, `skip_idle`d until its recovery cycle, if any).

use std::collections::{BTreeSet, VecDeque};

use faults::{FabricFaultConfig, FabricFaultKind, HopLedger, Schedule};
use packet::message::Message;
use sim_core::stats::Histogram;
use sim_core::time::Cycle;
use trace::TrackId;

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

/// Chaos windows over one directed link (parallel to `Fabric::links`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkChaos {
    /// Link is down until this cycle (`Cycle(u64::MAX)` = forever).
    pub down_until: Option<Cycle>,
    /// `(until, factor)`: propagation latency multiplier window.
    pub lag: Option<(Cycle, u32)>,
    /// Credit window acts full until this cycle.
    pub freeze_until: Option<Cycle>,
}

impl LinkChaos {
    /// True when the link can carry traffic at `now`.
    pub fn up(&self, now: Cycle) -> bool {
        self.down_until.is_none_or(|until| now >= until)
    }

    /// True while the credit-freeze window covers `now`.
    pub fn frozen(&self, now: Cycle) -> bool {
        self.freeze_until.is_some_and(|until| now < until)
    }

    /// Latency multiplier in effect at `now` (1 when healthy).
    pub fn lag_factor(&self, now: Cycle) -> u64 {
        match self.lag {
            Some((until, factor)) if now < until => u64::from(factor),
            _ => 1,
        }
    }
}

/// One copy held by the ToR: parked (no route / destination not Up)
/// or in transit (multi-hop reroute, waiting at an intermediate
/// member's uplink for the next boundary).
#[derive(Debug)]
pub(crate) struct Parked {
    /// The copy itself.
    pub msg: Message,
    /// Crossing generation (valid when `tracked`).
    pub generation: u32,
    /// Member whose hop ledger tracks this crossing.
    pub origin: usize,
    /// Whether the origin's ledger already has the crossing armed
    /// (true from first serialization on; park-wait before that does
    /// not burn the retry timeout).
    pub tracked: bool,
    /// True once the copy left its nominal path — redirected to a
    /// replica or routed around a down link. Such copies may take
    /// multi-hop routes even where no direct link exists.
    pub via: bool,
}

/// Fault-plane counters, all zero until the first event fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Plan events applied.
    pub events_fired: u64,
    /// Copies destroyed on a link by a flap or partition.
    pub lost_link: u64,
    /// Copies terminally absorbed by the host-fallback path.
    pub redirected: u64,
    /// Chains re-pointed from a crashed member to a replica.
    pub replica_rewrites: u64,
    /// Copies dispatched around a down link via an alternate path.
    pub reroutes: u64,
    /// Crossings whose first successful delivery needed a retransmit.
    pub recovered_by_retry: u64,
    /// Members that entered the Draining phase.
    pub member_crashes: u64,
    /// Members that came back Up.
    pub member_recoveries: u64,
}

impl ChaosStats {
    /// True once any fault has fired — the gate for chaos metrics and
    /// the chaos conservation terms appearing in exports.
    #[must_use]
    pub fn any(&self) -> bool {
        self.events_fired > 0
    }
}

/// Engine signature used for replica matching: members with equal
/// signatures are interchangeable redirect targets.
pub(crate) type MemberSig = BTreeSet<(u16, String)>;

/// The fault plane's runtime state. Owned by `Fabric`, mutated only
/// in the serial boundary exchange.
pub(crate) struct ChaosRuntime {
    /// The armed configuration (plan, retry policy, failover policy).
    pub config: FabricFaultConfig,
    /// What is left to fire of `config.plan`.
    pub schedule: Schedule<FabricFaultKind>,
    /// Per-member failure phase.
    pub phases: Vec<Phase>,
    /// Per-link fault windows (parallel to `Fabric::links`).
    pub links: Vec<LinkChaos>,
    /// Per-member hop ledgers: member `i` tracks crossings it
    /// originated.
    pub ledgers: Vec<HopLedger>,
    /// Per-member ToR parked/transit queues.
    pub parked: Vec<VecDeque<Parked>>,
    /// Engine signatures for replica selection.
    pub sigs: Vec<MemberSig>,
    /// Fault counters.
    pub stats: ChaosStats,
    /// Serialization-to-delivery cycles of crossings that left their
    /// nominal path (replica redirect or link reroute) — the
    /// time-to-reroute distribution.
    pub reroute_wait: Histogram,
    /// Lazily created trace track for `fabric.*` chaos events; `None`
    /// until the first event fires, so an armed-but-silent plan adds
    /// no track to the trace.
    pub track: Option<TrackId>,
}

impl std::fmt::Debug for ChaosRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosRuntime")
            .field("schedule", &self.schedule)
            .field("phases", &self.phases)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ChaosRuntime {
    /// Arms the fault plane over an `n`-member, `links`-link fabric.
    pub fn new(config: FabricFaultConfig, n: usize, links: usize, sigs: Vec<MemberSig>) -> Self {
        ChaosRuntime {
            ledgers: (0..n).map(|_| HopLedger::new(config.retry)).collect(),
            schedule: Schedule::new(config.plan.clone()),
            config,
            phases: vec![Phase::Up; n],
            links: vec![LinkChaos::default(); links],
            parked: (0..n).map(|_| VecDeque::new()).collect(),
            sigs,
            stats: ChaosStats::default(),
            reroute_wait: Histogram::new(),
            track: None,
        }
    }

    /// True when the member accepts deliveries and runs its driver.
    pub fn is_up(&self, member: usize) -> bool {
        self.phases[member] == Phase::Up
    }

    /// The replica a crossing addressed to `member` should be
    /// re-pointed at: the pinned replica if it is Up, else the
    /// lowest-indexed Up member with the same engine signature.
    pub fn replica_for(&self, member: usize) -> Option<usize> {
        if let Some(r) = self.config.pinned_replica(member) {
            if r < self.phases.len() && r != member && self.is_up(r) {
                return Some(r);
            }
        }
        (0..self.phases.len())
            .find(|&j| j != member && self.is_up(j) && self.sigs[j] == self.sigs[member])
    }

    /// True when the fault plane holds no deferred work: nothing
    /// parked, no crossing armed for retry, no member mid-drain.
    pub fn quiet(&self) -> bool {
        self.parked.iter().all(VecDeque::is_empty)
            && self.ledgers.iter().all(|l| l.armed() == 0)
            && self
                .phases
                .iter()
                .all(|p| !matches!(p, Phase::Draining { .. }))
    }

    /// Earliest cycle at which the fault plane will do something on
    /// its own: the next plan event, the next retry deadline, the end
    /// of any link fault window, or a member recovery.
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Option<Cycle>| {
            if let Some(c) = c {
                if c > now && c.0 != u64::MAX {
                    next = Some(next.map_or(c, |n| n.min(c)));
                }
            }
        };
        merge(self.schedule.next_due(now));
        for l in &self.ledgers {
            merge(l.next_deadline());
        }
        for l in &self.links {
            merge(l.down_until);
            merge(l.lag.map(|(until, _)| until));
            merge(l.freeze_until);
        }
        for p in &self.phases {
            if let Phase::Down { recover_at } | Phase::Draining { recover_at } = p {
                merge(*recover_at);
            }
        }
        next
    }

    /// Identity terms contributed by the fault plane, in order:
    /// `(retries, dup_suppressed, parked, lost_link, redirected)`.
    pub fn conservation_terms(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.ledgers.iter().map(|l| l.retries_issued()).sum(),
            self.ledgers.iter().map(|l| l.duplicates()).sum(),
            self.parked.iter().map(|q| q.len() as u64).sum(),
            self.stats.lost_link,
            self.stats.redirected,
        )
    }
}
