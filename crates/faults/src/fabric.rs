//! Fabric-level fault plans: link chaos and whole-member failures for
//! a rack of NICs, plus the [`HopLedger`] that gives every in-flight
//! cross-NIC hop a deadline.
//!
//! This is the rack-scale instantiation of the mechanisms
//! [`crate::plan`] instantiates for one NIC: a [`FabricFaultPlan`] is
//! [`crate::schedule::Plan`] over [`FabricFaultKind`], whose targets
//! are *fabric* components — inter-NIC links and member NICs — instead
//! of engines and tiles. The kind names are disjoint from the
//! NIC-level ones (`flap`/`lag`/`freeze`/`part`/`mcrash`/`mloss` vs
//! `crash`/`stall`/...), so [`crate::FaultArg`] can accept either form
//! through one `--faults` flag and the fabric layer can reject a
//! NIC-level plan with a clear message.
//!
//! The [`HopLedger`] is the crate's shared retry ledger (`ledger.rs`)
//! applied to link crossings: every message serialized onto a link is
//! tracked with a deadline; an undelivered crossing is retransmitted
//! from its origin with bounded exponential backoff, and the
//! *receiver* suppresses duplicate copies so retry never violates
//! exactly-once delivery into the destination mesh. See
//! `docs/FAULTS.md` for the state machine.

use std::fmt;

use packet::message::{Message, MessageId};
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Cycles};

use crate::ledger::{self, Ledger, Terminal};
use crate::schedule::{Clause, Event, Grammar, Kind, Plan};

/// One kind of injected fabric fault.
///
/// Link faults name an *unordered* member pair — a fault hits the
/// physical cable, so both directed links of the pair are affected.
/// Durations are relative to the event's scheduled cycle; events fire
/// at the first epoch boundary at or after their cycle (fabric state
/// only changes at boundaries, which is what keeps stepped and
/// fast-forwarded chaos runs byte-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricFaultKind {
    /// The link goes dark for `duration` cycles: nothing new is
    /// serialized onto it and every copy already in flight on it is
    /// destroyed (counted `lost_link`; the hop ledger retransmits).
    LinkFlap {
        /// One endpoint of the cable.
        from: usize,
        /// The other endpoint.
        to: usize,
        /// How long the link stays down.
        duration: Cycles,
    },
    /// Every message serialized onto the link while the fault is
    /// active sees `factor`× the nominal propagation latency — a
    /// degraded path (retraining, FEC storm). Nothing is lost.
    LinkDegrade {
        /// One endpoint of the cable.
        from: usize,
        /// The other endpoint.
        to: usize,
        /// How long the degradation lasts.
        duration: Cycles,
        /// Latency multiplier (≥ 2).
        factor: u32,
    },
    /// The link's credit window freezes shut for `duration` cycles:
    /// in-flight copies still arrive, but nothing new is serialized —
    /// pure backpressure, nothing lost.
    CreditFreeze {
        /// One endpoint of the cable.
        from: usize,
        /// The other endpoint.
        to: usize,
        /// How long the window stays shut.
        duration: Cycles,
    },
    /// Every link touching `member` acts down (in-flight copies on
    /// those links are destroyed) for `duration` cycles — or forever
    /// when `duration` is `None`. The member itself keeps running;
    /// only its fabric connectivity is severed.
    Partition {
        /// The member cut off from the ToR.
        member: usize,
        /// How long; `None` = permanent.
        duration: Option<Cycles>,
    },
    /// The member NIC fail-stops: its driver pauses, the ToR stops
    /// delivering to it (traffic is redirected to a replica or the
    /// host-fallback path), and it drains its in-flight work before
    /// going fully down. It recovers `recover_epochs` fabric epochs
    /// after the crash fires — never, if that is past the end of the
    /// clock.
    MemberCrash {
        /// The member that crashes.
        member: usize,
        /// Epochs until it comes back (≥ 1).
        recover_epochs: u64,
    },
    /// [`FabricFaultKind::MemberCrash`] that never recovers.
    MemberLoss {
        /// The member that is lost for good.
        member: usize,
    },
}

impl FabricFaultKind {
    /// The members this fault touches (a link fault touches both
    /// endpoints, a member fault one).
    #[must_use]
    pub fn members(&self) -> (usize, Option<usize>) {
        match *self {
            FabricFaultKind::LinkFlap { from, to, .. }
            | FabricFaultKind::LinkDegrade { from, to, .. }
            | FabricFaultKind::CreditFreeze { from, to, .. } => (from, Some(to)),
            FabricFaultKind::Partition { member, .. }
            | FabricFaultKind::MemberCrash { member, .. }
            | FabricFaultKind::MemberLoss { member } => (member, None),
        }
    }

    /// The unordered link pair this fault targets, if it is a link
    /// fault.
    #[must_use]
    pub fn link(&self) -> Option<(usize, usize)> {
        match self.members() {
            (from, Some(to)) => Some((from.min(to), from.max(to))),
            (_, None) => None,
        }
    }
}

impl Kind for FabricFaultKind {
    const FAMILY: &'static str = "fabric fault";

    /// Short stable label for traces and metrics (`fabric.<label>`).
    fn label(&self) -> &'static str {
        match self {
            FabricFaultKind::LinkFlap { .. } => "flap",
            FabricFaultKind::LinkDegrade { .. } => "lag",
            FabricFaultKind::CreditFreeze { .. } => "freeze",
            FabricFaultKind::Partition { .. } => "part",
            FabricFaultKind::MemberCrash { .. } => "mcrash",
            FabricFaultKind::MemberLoss { .. } => "mloss",
        }
    }

    fn grammar(name: &str) -> Option<Grammar<FabricFaultKind>> {
        fn member_of(c: &Clause<'_>, s: &str) -> Result<usize, String> {
            c.narrow(s, "member")
        }
        /// The `<a>-<b>` cable of a link fault.
        fn pair_of(c: &Clause<'_>) -> Result<(usize, usize), String> {
            let (a, b) = c.split(c.target, '-', "`<a>-<b>` member pair")?;
            let (a, b) = (member_of(c, a)?, member_of(c, b)?);
            if a == b {
                return Err(c.err("link endpoints must differ"));
            }
            Ok((a, b))
        }
        Some(match name {
            "flap" | "freeze" => |c| {
                let (from, to) = pair_of(c)?;
                let (at, dur) = c.split(c.timing, '+', "`@<at>+<dur>`")?;
                let at = c.at(at)?;
                let duration = c.window(at, dur)?;
                let kind = match c.kind {
                    "flap" => FabricFaultKind::LinkFlap { from, to, duration },
                    _ => FabricFaultKind::CreditFreeze { from, to, duration },
                };
                Ok(Event { at, kind })
            },
            "lag" => |c| {
                let (from, to) = pair_of(c)?;
                let (at, tail) = c.split(c.timing, '+', "`@<at>+<dur>x<mult>`")?;
                let (dur, factor) = c.split(tail, 'x', "`+<dur>x<mult>`")?;
                let factor = c.narrow(factor, "factor")?;
                if factor < 2 {
                    return Err(c.err("factor must be >= 2"));
                }
                let at = c.at(at)?;
                let duration = c.window(at, dur)?;
                let kind = FabricFaultKind::LinkDegrade {
                    from,
                    to,
                    duration,
                    factor,
                };
                Ok(Event { at, kind })
            },
            "part" => |c| {
                let member = member_of(c, c.target)?;
                // `+<dur>` is optional, and read before `<at>`: the
                // window check has to wait for both.
                let (at, dur) = match c.timing.split_once('+') {
                    Some((at, dur)) => (at, Some((c.number(dur, "duration")?, dur))),
                    None => (c.timing, None),
                };
                let at = c.at(at)?;
                let duration = dur
                    .map(|(cycles, raw)| c.ends_on_clock(at, cycles, raw))
                    .transpose()?;
                let kind = FabricFaultKind::Partition { member, duration };
                Ok(Event { at, kind })
            },
            "mcrash" => |c| {
                let (at, epochs) = c.split(c.timing, '+', "`@<at>+<epochs>`")?;
                let recover_epochs = c.number(epochs, "recovery epochs")?;
                if recover_epochs == 0 {
                    return Err(c.err("recovery epochs must be >= 1"));
                }
                let at = c.at(at)?;
                let member = member_of(c, c.target)?;
                let kind = FabricFaultKind::MemberCrash {
                    member,
                    recover_epochs,
                };
                Ok(Event { at, kind })
            },
            "mloss" => |c| {
                let at = c.at(c.timing)?;
                let member = member_of(c, c.target)?;
                let kind = FabricFaultKind::MemberLoss { member };
                Ok(Event { at, kind })
            },
            _ => return None,
        })
    }

    fn fmt_target(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.members() {
            (from, Some(to)) => write!(f, "{from}-{to}"),
            (member, None) => write!(f, "{member}"),
        }
    }

    fn fmt_tail(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FabricFaultKind::LinkFlap { duration, .. }
            | FabricFaultKind::CreditFreeze { duration, .. }
            | FabricFaultKind::Partition {
                duration: Some(duration),
                ..
            } => write!(f, "+{}", duration.0),
            FabricFaultKind::LinkDegrade {
                duration, factor, ..
            } => write!(f, "+{}x{factor}", duration.0),
            FabricFaultKind::MemberCrash { recover_epochs, .. } => write!(f, "+{recover_epochs}"),
            FabricFaultKind::Partition { duration: None, .. }
            | FabricFaultKind::MemberLoss { .. } => Ok(()),
        }
    }
}

/// A fabric fault scheduled at an absolute cycle; the fabric applies
/// it at the first epoch boundary at or after that cycle.
pub type FabricFaultEvent = Event<FabricFaultKind>;

/// What the seeded fabric generator is allowed to break: the rack
/// topology plus damage caps that keep a random plan drainable.
#[derive(Debug, Clone)]
pub struct FabricFaultUniverse {
    /// Number of member NICs.
    pub members: usize,
    /// Unordered link pairs eligible for link faults.
    pub links: Vec<(usize, usize)>,
    /// Faults are scheduled in `[1, horizon)`.
    pub horizon: Cycle,
    /// At most this many member crashes (failover needs surviving
    /// members; losing the whole rack is a different experiment).
    pub max_member_crashes: usize,
    /// Allow permanent faults ([`FabricFaultKind::MemberLoss`],
    /// unbounded [`FabricFaultKind::Partition`]). Off by default so a
    /// generated plan always drains to quiescence.
    pub allow_permanent: bool,
}

impl FabricFaultUniverse {
    /// A universe over `members` NICs joined by `links`, with
    /// conservative defaults: one member crash, no permanent faults.
    ///
    /// # Panics
    /// Panics on fewer than two members or an empty link set — there
    /// would be no fabric to break.
    #[must_use]
    pub fn new(members: usize, links: Vec<(usize, usize)>, horizon: Cycle) -> FabricFaultUniverse {
        assert!(members >= 2, "fabric fault universe needs >= 2 members");
        assert!(!links.is_empty(), "fabric fault universe has no links");
        FabricFaultUniverse {
            members,
            links,
            horizon,
            max_member_crashes: 1,
            allow_permanent: false,
        }
    }
}

/// A deterministic schedule of fabric fault events, sorted by firing
/// cycle. [`FabricFaultPlan::parse`] accepts, per clause:
///
/// | form | meaning |
/// |---|---|
/// | `flap:<a>-<b>@<at>+<dur>` | link down, in-flight copies lost |
/// | `lag:<a>-<b>@<at>+<dur>x<mult>` | link latency × `mult` |
/// | `freeze:<a>-<b>@<at>+<dur>` | credit window shut |
/// | `part:<m>@<at>+<dur>` | member partitioned for `dur` |
/// | `part:<m>@<at>` | member partitioned permanently |
/// | `mcrash:<m>@<at>+<epochs>` | member crash, recovers after `epochs` |
/// | `mloss:<m>@<at>` | member lost permanently |
///
/// `<a>`/`<b>`/`<m>` are fabric member indices (they must fit a
/// `usize`; [`FabricFaultPlan::validate`] checks them against an
/// actual fabric); `<a>-<b>` is an unordered pair (the cable);
/// `<mult>` fits in 32 bits, every other number in 64, and a window
/// must end on the clock (`at + dur` fits in 64 bits).
pub type FabricFaultPlan = Plan<FabricFaultKind>;

impl Plan<FabricFaultKind> {
    /// Generates a reproducible random plan: `intensity` events drawn
    /// from `universe`. Link flaps dominate; member crashes are capped
    /// (an event over a cap degrades to a flap, so the plan always has
    /// exactly `intensity` events) and permanent damage only appears
    /// when the universe allows it.
    ///
    /// The same `(seed, universe, intensity)` triple always yields the
    /// same plan.
    ///
    /// # Panics
    /// Panics if the horizon is shorter than two cycles.
    #[must_use]
    pub fn generate(seed: u64, universe: &FabricFaultUniverse, intensity: u32) -> FabricFaultPlan {
        assert!(universe.horizon.0 >= 2, "fabric fault horizon too short");
        let mut rng = SimRng::new(seed).derive("fabric.fault.plan");
        let mut events = Vec::with_capacity(intensity as usize);
        let mut crashes = 0usize;
        let span = universe.horizon.0 - 1;
        for _ in 0..intensity {
            let at = Cycle(1 + rng.gen_range(span));
            let &(a, b) = rng.choose(&universe.links).expect("nonempty links");
            let member = rng.gen_range(universe.members as u64) as usize;
            let flap = FabricFaultKind::LinkFlap {
                from: a,
                to: b,
                duration: Cycles(64 + rng.gen_range(960)),
            };
            // Weighted pick over the six kinds. Transient link chaos
            // dominates; whole-member damage is rare and capped.
            let kind = match rng.gen_range(16) {
                // 3/16: latency degrade.
                0..=2 => FabricFaultKind::LinkDegrade {
                    from: a,
                    to: b,
                    duration: Cycles(128 + rng.gen_range(896)),
                    factor: 2 + rng.gen_range(6) as u32,
                },
                // 3/16: credit freeze.
                3..=5 => FabricFaultKind::CreditFreeze {
                    from: a,
                    to: b,
                    duration: Cycles(64 + rng.gen_range(448)),
                },
                // 1/16: bounded partition.
                6 => FabricFaultKind::Partition {
                    member,
                    duration: Some(Cycles(128 + rng.gen_range(640))),
                },
                // 1/16: member crash with recovery (capped).
                7 if crashes < universe.max_member_crashes => {
                    crashes += 1;
                    FabricFaultKind::MemberCrash {
                        member,
                        recover_epochs: 4 + rng.gen_range(12),
                    }
                }
                // 1/16: permanent loss, only when allowed (capped).
                8 if universe.allow_permanent && crashes < universe.max_member_crashes => {
                    crashes += 1;
                    FabricFaultKind::MemberLoss { member }
                }
                // Remainder (incl. cap overflow): link flap.
                _ => flap,
            };
            events.push(FabricFaultEvent { at, kind });
        }
        FabricFaultPlan::new(events)
    }

    /// Checks that every event names components present in a fabric of
    /// `members` NICs joined by `links` (unordered pairs).
    ///
    /// # Errors
    /// Returns a message naming the first offending event and the
    /// missing component — the `repro --faults` exit-2 path.
    pub fn validate(&self, members: usize, links: &[(usize, usize)]) -> Result<(), String> {
        let has_link =
            |a: usize, b: usize| links.iter().any(|&(x, y)| (x, y) == (a.min(b), a.max(b)));
        for ev in self.events() {
            let (m0, m1) = ev.kind.members();
            for m in std::iter::once(m0).chain(m1) {
                if m >= members {
                    return Err(format!(
                        "fabric fault `{ev}` names member {m}, but the fabric has \
                         {members} member(s) (0..={})",
                        members.saturating_sub(1)
                    ));
                }
            }
            if let Some((a, b)) = ev.kind.link() {
                if !has_link(a, b) {
                    return Err(format!(
                        "fabric fault `{ev}` names link {a}-{b}, but the fabric \
                         declares no link between those members"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Retry policy for cross-NIC hops: how long the [`HopLedger`] waits
/// for a crossing to be delivered before retransmitting from the
/// origin, and how the wait grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRetryConfig {
    /// Deadline for the first delivery attempt. Must comfortably
    /// exceed the link round-trip implied by `LinkSpec`
    /// (serialization plus 2× propagation) or every crossing
    /// retransmits spuriously — the PV804 lint.
    pub timeout: Cycles,
    /// Retransmissions per crossing after the original copy (0 =
    /// timeout tracking only, no retry).
    pub max_retries: u32,
    /// Deadline multiplier per retry (exponential backoff; 1 = flat).
    pub backoff: u32,
}

impl Default for HopRetryConfig {
    fn default() -> HopRetryConfig {
        HopRetryConfig {
            timeout: Cycles(1024),
            max_retries: 4,
            backoff: 2,
        }
    }
}

impl HopRetryConfig {
    /// The deadline for attempt `retries` (0 = original copy):
    /// `timeout × backoff^retries`, saturating.
    #[must_use]
    pub fn deadline_after(&self, retries: u32) -> Cycles {
        ledger::deadline_after(self.timeout, self.backoff, retries)
    }
}

/// The complete fabric fault configuration: the schedule plus the
/// recovery policy. Attaching one (even with an empty plan) arms the
/// fabric fault plane; fault-free armed runs stay byte-identical to
/// unarmed ones.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricFaultConfig {
    /// The fault schedule (may be empty).
    pub plan: FabricFaultPlan,
    /// Cross-NIC hop retry policy.
    pub retry: HopRetryConfig,
    /// Explicit replica pins `(member, replica)`: chains addressed to
    /// a crashed `member` are rewritten to `replica`. Members without
    /// a pin fail over to the lowest-indexed live member that declares
    /// the same engine set. PV802 lints pins that name unreachable
    /// replicas.
    pub replicas: Vec<(usize, usize)>,
}

impl FabricFaultConfig {
    /// A config running `plan` with the default retry policy and no
    /// replica pins.
    #[must_use]
    pub fn new(plan: FabricFaultPlan) -> FabricFaultConfig {
        FabricFaultConfig {
            plan,
            ..FabricFaultConfig::default()
        }
    }

    /// The pinned replica for `member`, if any.
    #[must_use]
    pub fn pinned_replica(&self, member: usize) -> Option<usize> {
        self.replicas
            .iter()
            .find(|(m, _)| *m == member)
            .map(|&(_, r)| r)
    }
}

/// Outcome of a delivery attempt reported to [`HopLedger::on_delivered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOutcome {
    /// First delivery of this crossing — inject into the destination.
    /// Carries the cycles since the crossing was first serialized,
    /// whether any retransmit was issued, and whether the ToR
    /// redirected the chain to a replica — the time-to-reroute sample.
    First {
        /// Cycles from first serialization to delivery.
        waited: Cycles,
        /// A retransmission was issued for this crossing.
        retried: bool,
        /// The chain was redirected to a replica member.
        redirected: bool,
    },
    /// A copy of an already-delivered (or stale-generation) crossing —
    /// suppress it.
    Duplicate,
    /// The ledger has no entry for this crossing (it never tracked
    /// the id) — deliver it.
    Untracked,
}

/// A retransmission due now: a clone of the crossing's template to be
/// re-dispatched from its origin member.
#[derive(Debug)]
pub struct HopRetry {
    /// The copy to re-dispatch.
    pub msg: Message,
    /// The crossing generation the copy belongs to.
    pub generation: u32,
    /// Which attempt this is (1 = first retransmit).
    pub attempt: u32,
}

/// Deadline tracking for one member's outbound crossings: the shared
/// retry ledger (`ledger`) under the fabric's policy.
///
/// Every message the ToR serializes out of a member is tracked here
/// under a per-crossing *generation*: a message that crosses the
/// fabric more than once is tracked again, one generation up, once its
/// previous crossing is done. Undelivered crossings are retransmitted
/// with exponential backoff until the budget runs out; a crossing past
/// its budget is *disarmed, not failed* — its copy is still parked or
/// in flight somewhere, so a late first delivery is still accepted.
/// The receiver consults [`HopLedger::on_delivered`] so exactly one
/// copy per crossing enters the destination mesh.
#[derive(Debug)]
pub struct HopLedger {
    /// Each entry carries whether the ToR redirected the crossing.
    ledger: Ledger<bool>,
    retries_issued: u64,
    exhausted: u64,
    completed: u64,
    duplicates: u64,
}

impl HopLedger {
    /// A ledger enforcing `config`.
    #[must_use]
    pub fn new(config: HopRetryConfig) -> HopLedger {
        HopLedger {
            ledger: Ledger::new(config.timeout, config.max_retries, config.backoff, false),
            retries_issued: 0,
            exhausted: 0,
            completed: 0,
            duplicates: 0,
        }
    }

    /// Starts (or re-arms, for a later crossing of the same message)
    /// deadline tracking for `msg`, serialized at `now`. Returns the
    /// crossing generation the wire copy must carry.
    pub fn track(&mut self, msg: &Message, now: Cycle) -> u32 {
        self.ledger.track(msg, now, false)
    }

    /// Collects retransmissions due at or before `now`. Crossings past
    /// their budget are disarmed (counted exhausted) but stay eligible
    /// for late delivery.
    pub fn expired(&mut self, now: Cycle) -> Vec<HopRetry> {
        let mut due = Vec::new();
        self.ledger.expire(now, |_, entry, attempt| match attempt {
            Some(attempt) => {
                self.retries_issued += 1;
                due.push(HopRetry {
                    msg: entry.template().clone(),
                    generation: entry.generation,
                    attempt,
                });
            }
            None => self.exhausted += 1,
        });
        due
    }

    /// Reports a copy of `id` (crossing `generation`) arriving at its
    /// destination at `now`. First delivery wins; everything else is a
    /// duplicate to suppress.
    pub fn on_delivered(&mut self, id: MessageId, generation: u32, now: Cycle) -> HopOutcome {
        match self.ledger.terminate(id, Some(generation)) {
            Terminal::Unknown => HopOutcome::Untracked,
            Terminal::Late => {
                self.duplicates += 1;
                HopOutcome::Duplicate
            }
            Terminal::First(entry) => {
                self.completed += 1;
                HopOutcome::First {
                    waited: now.saturating_since(entry.tracked_at),
                    retried: entry.retries > 0,
                    redirected: entry.extra,
                }
            }
        }
    }

    /// Marks `id` terminally handled outside the fabric (host-fallback
    /// redirect): retries stop, late copies are duplicates.
    pub fn complete_terminal(&mut self, id: MessageId) {
        self.ledger.terminate(id, None);
    }

    /// Notes that the ToR redirected `id`'s chain to a replica (for
    /// the time-to-reroute sample on delivery).
    pub fn note_redirected(&mut self, id: MessageId) {
        if let Some(entry) = self.ledger.get_mut(id) {
            entry.extra = true;
        }
    }

    /// Entries with a live deadline — crossings the fabric is still
    /// waiting on. Zero is a quiescence requirement.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.ledger.live()
    }

    /// The next cycle a deadline fires, if any entry is armed.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.ledger.next_deadline()
    }

    /// Retransmissions issued.
    #[must_use]
    pub fn retries_issued(&self) -> u64 {
        self.retries_issued
    }

    /// Crossings whose retry budget ran out undelivered.
    #[must_use]
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// Crossings delivered (first copies).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Duplicate copies suppressed.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::reference;
    use packet::message::MessageKind;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn universe() -> FabricFaultUniverse {
        FabricFaultUniverse::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)], Cycle(10_000))
    }

    fn msg(id: u64) -> Message {
        Message::builder(MessageId(id), MessageKind::Internal).build()
    }

    #[test]
    fn generate_is_deterministic_and_capped() {
        let u = universe();
        let a = FabricFaultPlan::generate(7, &u, 24);
        let b = FabricFaultPlan::generate(7, &u, 24);
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        assert_ne!(a, FabricFaultPlan::generate(8, &u, 24));
        let crashes = a
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FabricFaultKind::MemberCrash { .. } | FabricFaultKind::MemberLoss { .. }
                )
            })
            .count();
        assert!(crashes <= u.max_member_crashes, "crash cap respected");
        assert!(
            !a.events()
                .iter()
                .any(|e| matches!(e.kind, FabricFaultKind::MemberLoss { .. })
                    || matches!(e.kind, FabricFaultKind::Partition { duration: None, .. })),
            "no permanent damage unless allowed"
        );
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at), "sorted");
    }

    #[test]
    fn parse_display_round_trips() {
        let spec = "flap:0-1@100+500,lag:1-2@200+300x4,freeze:2-3@50+64,\
                    part:3@400+128,part:2@900,mcrash:1@600+8,mloss:0@700";
        let plan = FabricFaultPlan::parse(spec).unwrap();
        assert_eq!(plan.len(), 7);
        let rendered = plan.to_string();
        assert_eq!(FabricFaultPlan::parse(&rendered).unwrap(), plan);
        // Sorted by cycle, so the freeze at 50 leads.
        assert!(rendered.starts_with("freeze:2-3@50+64"));
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "flap:0@100+5",    // not a pair
            "flap:1-1@100+5",  // same endpoint
            "lag:0-1@100+5x1", // factor < 2
            "mcrash:0@100",    // missing epochs
            "mcrash:0@100+0",  // zero epochs
            "teleport:0@100",  // unknown kind
            "flap:0-1@100",    // missing duration
            "",                // empty
        ] {
            assert!(FabricFaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validate_names_missing_components() {
        let plan = FabricFaultPlan::parse("flap:0-5@100+64").unwrap();
        let err = plan.validate(4, &[(0, 1)]).unwrap_err();
        assert!(err.contains("member 5"), "{err}");
        let plan = FabricFaultPlan::parse("flap:0-2@100+64").unwrap();
        let err = plan.validate(4, &[(0, 1), (1, 2)]).unwrap_err();
        assert!(err.contains("link 0-2"), "{err}");
        // Unordered: `flap:1-0` matches the declared (0, 1) pair.
        let plan = FabricFaultPlan::parse("flap:1-0@100+64,mcrash:3@50+4").unwrap();
        assert!(plan.validate(4, &[(0, 1)]).is_ok());
    }

    #[test]
    fn fault_config_has_one_default() {
        assert_eq!(
            FabricFaultConfig::default(),
            FabricFaultConfig::new(FabricFaultPlan::default())
        );
    }

    #[test]
    fn ledger_retries_with_backoff_then_exhausts() {
        let cfg = HopRetryConfig {
            timeout: Cycles(100),
            max_retries: 2,
            backoff: 2,
        };
        let mut ledger = HopLedger::new(cfg);
        let m = msg(1);
        let generation = ledger.track(&m, Cycle(0));
        assert_eq!(generation, 0);
        assert_eq!(ledger.armed(), 1);
        assert_eq!(ledger.next_deadline(), Some(Cycle(100)));
        assert!(ledger.expired(Cycle(99)).is_empty());
        // First retransmit at 100; next deadline 100 + 200 (backoff).
        let due = ledger.expired(Cycle(100));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].attempt, 1);
        assert_eq!(due[0].msg.id, m.id);
        assert_eq!(ledger.next_deadline(), Some(Cycle(300)));
        // Second retransmit; then the budget is gone.
        assert_eq!(ledger.expired(Cycle(300)).len(), 1);
        assert!(ledger.expired(Cycle(10_000)).is_empty());
        assert_eq!(ledger.exhausted(), 1);
        assert_eq!(ledger.armed(), 0, "disarmed after exhaustion");
        // A late copy still delivers (recovery), then duplicates.
        assert!(matches!(
            ledger.on_delivered(m.id, generation, Cycle(11_000)),
            HopOutcome::First { retried: true, .. }
        ));
        assert_eq!(
            ledger.on_delivered(m.id, generation, Cycle(11_001)),
            HopOutcome::Duplicate
        );
        assert_eq!(ledger.retries_issued(), 2);
    }

    #[test]
    fn ledger_first_delivery_wins_and_stale_generations_are_duplicates() {
        let mut ledger = HopLedger::new(HopRetryConfig::default());
        let m = msg(9);
        let g0 = ledger.track(&m, Cycle(10));
        match ledger.on_delivered(m.id, g0, Cycle(40)) {
            HopOutcome::First {
                waited,
                retried,
                redirected,
            } => {
                assert_eq!(waited, Cycles(30));
                assert!(!retried);
                assert!(!redirected);
            }
            other => panic!("expected First, got {other:?}"),
        }
        assert_eq!(ledger.armed(), 0);
        // Second crossing of the same message: new generation; a stale
        // copy of the first crossing is a duplicate.
        let g1 = ledger.track(&m, Cycle(100));
        assert_eq!(g1, 1);
        assert_eq!(
            ledger.on_delivered(m.id, g0, Cycle(110)),
            HopOutcome::Duplicate
        );
        ledger.note_redirected(m.id);
        assert!(matches!(
            ledger.on_delivered(m.id, g1, Cycle(120)),
            HopOutcome::First {
                redirected: true,
                ..
            }
        ));
        assert_eq!(ledger.duplicates(), 1);
        assert_eq!(ledger.completed(), 2);
        // Unknown ids pass through untracked.
        assert_eq!(
            ledger.on_delivered(MessageId(404), 0, Cycle(1)),
            HopOutcome::Untracked
        );
    }

    #[test]
    fn ledger_terminal_completion_stops_retries() {
        let mut ledger = HopLedger::new(HopRetryConfig {
            timeout: Cycles(50),
            ..HopRetryConfig::default()
        });
        let m = msg(3);
        ledger.track(&m, Cycle(0));
        ledger.complete_terminal(m.id);
        assert_eq!(ledger.armed(), 0);
        assert!(ledger.expired(Cycle(1_000)).is_empty());
        assert_eq!(
            ledger.on_delivered(m.id, 0, Cycle(60)),
            HopOutcome::Duplicate
        );
    }

    #[test]
    fn deadline_after_backs_off_and_saturates() {
        let cfg = HopRetryConfig {
            timeout: Cycles(100),
            max_retries: 3,
            backoff: 4,
        };
        assert_eq!(cfg.deadline_after(0), Cycles(100));
        assert_eq!(cfg.deadline_after(1), Cycles(400));
        assert_eq!(cfg.deadline_after(2), Cycles(1600));
        let big = HopRetryConfig {
            timeout: Cycles(u64::MAX / 2),
            backoff: 3,
            ..cfg
        };
        assert_eq!(big.deadline_after(5), Cycles(u64::MAX));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random scripts against the hop ledger as it stood before it
        /// shared the ledger core: the same answer to every call, in
        /// the same order, and the same books after every step.
        #[test]
        fn ledger_matches_the_parent_hop_ledger_step_for_step(
            timeout in 0u64..6,
            max_retries in 0u32..4,
            backoff in 1u32..5,
            script in proptest::collection::vec((0u8..8, 0u64..6, 0u32..3, 0u64..5), 0..128),
        ) {
            let config = HopRetryConfig {
                timeout: Cycles(timeout),
                max_retries,
                backoff,
            };
            let mut new = HopLedger::new(config);
            let mut old = reference::HopLedger::new(config);
            let mut now = Cycle(0);
            // Crossings tracked and not yet done — re-tracking one of
            // those is a caller bug both ledgers assert on — and the
            // latest generation handed out per id.
            let mut in_flight = HashSet::new();
            let mut latest = HashMap::new();
            for (op, id, pick, dt) in script {
                now += Cycles(dt); // 0 repeats the previous `now`
                let mid = MessageId(id);
                match op {
                    // First crossings and re-tracks after done.
                    0 | 1 if !in_flight.contains(&id) => {
                        let generation = new.track(&msg(id), now);
                        prop_assert_eq!(generation, old.track(&msg(id), now));
                        in_flight.insert(id);
                        latest.insert(id, generation);
                    }
                    0..=3 => {
                        let digest = |due: Vec<HopRetry>| -> Vec<(u64, u32, u32)> {
                            due.iter().map(|r| (r.msg.id.0, r.generation, r.attempt)).collect()
                        };
                        prop_assert_eq!(digest(new.expired(now)), digest(old.expired(now)));
                    }
                    // Current, stale and not-yet-issued generations, of
                    // in-flight, done and never-tracked ids.
                    4 | 5 => {
                        let current: u32 = latest.get(&id).copied().unwrap_or(0);
                        let generation = [current, current.wrapping_sub(1), current + 1][pick as usize];
                        let outcome = new.on_delivered(mid, generation, now);
                        prop_assert_eq!(outcome, old.on_delivered(mid, generation, now));
                        if matches!(outcome, HopOutcome::First { .. }) {
                            in_flight.remove(&id);
                        }
                    }
                    6 => {
                        new.complete_terminal(mid);
                        old.complete_terminal(mid);
                        in_flight.remove(&id);
                    }
                    _ => {
                        new.note_redirected(mid);
                        old.note_redirected(mid);
                    }
                }
                prop_assert_eq!(
                    (new.retries_issued(), new.exhausted(), new.completed(), new.duplicates()),
                    (old.retries_issued(), old.exhausted(), old.completed(), old.duplicates())
                );
                prop_assert_eq!(new.armed(), old.armed());
                prop_assert_eq!(new.next_deadline(), old.next_deadline());
            }
        }
    }
}
