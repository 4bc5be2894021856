//! Fabric-level fault plans: link chaos and whole-member failures for
//! a rack of NICs, plus the [`HopLedger`] that gives every in-flight
//! cross-NIC hop a deadline.
//!
//! This is the rack-scale analogue of [`crate::plan`]: the same
//! seeded-or-spelled-out [`FabricFaultPlan`] shape, but the targets are
//! *fabric* components — inter-NIC links and member NICs — instead of
//! engines and tiles. The DSL is disjoint from the NIC-level one
//! (`flap`/`lag`/`freeze`/`part`/`mcrash`/`mloss` vs
//! `crash`/`stall`/...), so [`crate::FaultArg`] can accept either form
//! through one `--faults` flag and the fabric layer can reject a
//! NIC-level plan with a clear message.
//!
//! The [`HopLedger`] is the [`crate::Watchdog`] pattern applied to
//! link crossings: every message serialized onto a link is tracked
//! with a deadline; an undelivered crossing is retransmitted from its
//! origin with bounded exponential backoff, and the *receiver*
//! suppresses duplicate copies so retry never violates exactly-once
//! delivery into the destination mesh. See `docs/FAULTS.md` for the
//! full state machine.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use packet::message::{Message, MessageId};
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Cycles};

/// One kind of injected fabric fault.
///
/// Link faults name an *unordered* member pair — a fault hits the
/// physical cable, so both directed links of the pair are affected.
/// Durations are relative to the event's scheduled cycle; events fire
/// at the first epoch boundary at or after their cycle (fabric state
/// only changes at boundaries, which is what keeps chaos runs
/// byte-identical across `--threads` values).
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
    /// after the crash fires.
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
    /// Short stable label for traces and metrics (`fabric.<label>`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FabricFaultKind::LinkFlap { .. } => "flap",
            FabricFaultKind::LinkDegrade { .. } => "lag",
            FabricFaultKind::CreditFreeze { .. } => "freeze",
            FabricFaultKind::Partition { .. } => "part",
            FabricFaultKind::MemberCrash { .. } => "mcrash",
            FabricFaultKind::MemberLoss { .. } => "mloss",
        }
    }

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
        match *self {
            FabricFaultKind::LinkFlap { from, to, .. }
            | FabricFaultKind::LinkDegrade { from, to, .. }
            | FabricFaultKind::CreditFreeze { from, to, .. } => Some((from.min(to), from.max(to))),
            _ => None,
        }
    }
}

impl fmt::Display for FabricFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FabricFaultKind::LinkFlap { from, to, duration } => {
                write!(f, "flap:{from}-{to}+{}", duration.0)
            }
            FabricFaultKind::LinkDegrade {
                from,
                to,
                duration,
                factor,
            } => write!(f, "lag:{from}-{to}+{}x{factor}", duration.0),
            FabricFaultKind::CreditFreeze { from, to, duration } => {
                write!(f, "freeze:{from}-{to}+{}", duration.0)
            }
            FabricFaultKind::Partition { member, duration } => match duration {
                Some(d) => write!(f, "part:{member}+{}", d.0),
                None => write!(f, "part:{member}"),
            },
            FabricFaultKind::MemberCrash {
                member,
                recover_epochs,
            } => write!(f, "mcrash:{member}+{recover_epochs}"),
            FabricFaultKind::MemberLoss { member } => write!(f, "mloss:{member}"),
        }
    }
}

/// A fabric fault scheduled at an absolute cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricFaultEvent {
    /// Cycle at which the fault fires; the fabric applies it at the
    /// first epoch boundary at or after this cycle.
    pub at: Cycle,
    /// What goes wrong.
    pub kind: FabricFaultKind,
}

impl fmt::Display for FabricFaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Same shape `FabricFaultPlan::parse` accepts:
        // `flap:0-1+500` at cycle 200 renders `flap:0-1@200+500`.
        let kind = self.kind.to_string();
        match kind.split_once('+') {
            Some((head, tail)) => write!(f, "{head}@{}+{tail}", self.at.0),
            None => write!(f, "{kind}@{}", self.at.0),
        }
    }
}

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
/// cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricFaultPlan {
    events: Vec<FabricFaultEvent>,
}

impl FabricFaultPlan {
    /// A plan from explicit events; sorts by cycle (stable, so
    /// same-cycle events keep their given order).
    #[must_use]
    pub fn new(mut events: Vec<FabricFaultEvent>) -> FabricFaultPlan {
        events.sort_by_key(|e| e.at);
        FabricFaultPlan { events }
    }

    /// The events, in firing order.
    #[must_use]
    pub fn events(&self) -> &[FabricFaultEvent] {
        &self.events
    }

    /// True if the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

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

    /// Parses the fabric fault spec DSL: events separated by `,` or
    /// `;`, each one of
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
    /// `<a>`/`<b>`/`<m>` are fabric member indices; `<a>-<b>` is an
    /// unordered pair (the cable). Whitespace around separators is
    /// ignored.
    ///
    /// # Errors
    /// Returns a human-readable message naming the offending clause.
    pub fn parse(spec: &str) -> Result<FabricFaultPlan, String> {
        let mut events = Vec::new();
        for clause in spec.split([',', ';']) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            events.push(parse_fabric_clause(clause)?);
        }
        if events.is_empty() {
            return Err("empty fabric fault spec".to_string());
        }
        Ok(FabricFaultPlan::new(events))
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
        for ev in &self.events {
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

    /// True if the plan contains a fault that never heals: a permanent
    /// partition or a member loss. Plans without these always drain to
    /// quiescence (given a sane retry budget); plans with them need the
    /// host-fallback path — the PV803 lint.
    #[must_use]
    pub fn has_permanent_isolation(&self) -> Option<usize> {
        self.events.iter().find_map(|e| match e.kind {
            FabricFaultKind::Partition {
                member,
                duration: None,
            } => Some(member),
            _ => None,
        })
    }
}

impl fmt::Display for FabricFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{ev}")?;
        }
        Ok(())
    }
}

/// Parses one `kind:target@at...` fabric clause.
fn parse_fabric_clause(clause: &str) -> Result<FabricFaultEvent, String> {
    let err = |why: &str| format!("bad fabric fault clause {clause:?}: {why}");
    let (kind_name, rest) = clause
        .split_once(':')
        .ok_or_else(|| err("expected `kind:...`"))?;
    let (target, timing) = rest
        .split_once('@')
        .ok_or_else(|| err("expected `...@<cycle>`"))?;
    let parse_u64 = |s: &str, what: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| err(&format!("{what} is not a number ({s:?})")))
    };
    let member_of = |s: &str, what: &str| parse_u64(s, what).map(|m| m as usize);
    let pair_of = |s: &str| -> Result<(usize, usize), String> {
        let (a, b) = s
            .split_once('-')
            .ok_or_else(|| err("expected `<a>-<b>` member pair"))?;
        let (a, b) = (member_of(a, "member")?, member_of(b, "member")?);
        if a == b {
            return Err(err("link endpoints must differ"));
        }
        Ok((a, b))
    };
    match kind_name.trim() {
        "flap" | "freeze" => {
            let (from, to) = pair_of(target)?;
            let (at, dur) = timing
                .split_once('+')
                .ok_or_else(|| err("expected `@<at>+<dur>`"))?;
            let at = Cycle(parse_u64(at, "cycle")?);
            let duration = Cycles(parse_u64(dur, "duration")?);
            let kind = if kind_name.trim() == "flap" {
                FabricFaultKind::LinkFlap { from, to, duration }
            } else {
                FabricFaultKind::CreditFreeze { from, to, duration }
            };
            Ok(FabricFaultEvent { at, kind })
        }
        "lag" => {
            let (from, to) = pair_of(target)?;
            let (at, tail) = timing
                .split_once('+')
                .ok_or_else(|| err("expected `@<at>+<dur>x<mult>`"))?;
            let (dur, factor) = tail
                .split_once('x')
                .ok_or_else(|| err("expected `+<dur>x<mult>`"))?;
            let factor = u32::try_from(parse_u64(factor, "factor")?)
                .map_err(|_| err(&format!("factor out of range ({factor:?})")))?;
            if factor < 2 {
                return Err(err("factor must be >= 2"));
            }
            Ok(FabricFaultEvent {
                at: Cycle(parse_u64(at, "cycle")?),
                kind: FabricFaultKind::LinkDegrade {
                    from,
                    to,
                    duration: Cycles(parse_u64(dur, "duration")?),
                    factor,
                },
            })
        }
        "part" => {
            let member = member_of(target, "member")?;
            let (at, duration) = match timing.split_once('+') {
                Some((at, dur)) => (at, Some(Cycles(parse_u64(dur, "duration")?))),
                None => (timing, None),
            };
            Ok(FabricFaultEvent {
                at: Cycle(parse_u64(at, "cycle")?),
                kind: FabricFaultKind::Partition { member, duration },
            })
        }
        "mcrash" => {
            let (at, epochs) = timing
                .split_once('+')
                .ok_or_else(|| err("expected `@<at>+<epochs>`"))?;
            let recover_epochs = parse_u64(epochs, "recovery epochs")?;
            if recover_epochs == 0 {
                return Err(err("recovery epochs must be >= 1"));
            }
            Ok(FabricFaultEvent {
                at: Cycle(parse_u64(at, "cycle")?),
                kind: FabricFaultKind::MemberCrash {
                    member: member_of(target, "member")?,
                    recover_epochs,
                },
            })
        }
        "mloss" => Ok(FabricFaultEvent {
            at: Cycle(parse_u64(timing, "cycle")?),
            kind: FabricFaultKind::MemberLoss {
                member: member_of(target, "member")?,
            },
        }),
        other => Err(err(&format!("unknown fabric fault kind {other:?}"))),
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
    /// Receiver-side duplicate suppression. Retry without it would
    /// deliver the same hop twice into the destination mesh — the
    /// PV801 lint rejects that combination.
    pub dedup: bool,
}

impl Default for HopRetryConfig {
    fn default() -> HopRetryConfig {
        HopRetryConfig {
            timeout: Cycles(1024),
            max_retries: 4,
            backoff: 2,
            dedup: true,
        }
    }
}

impl HopRetryConfig {
    /// The deadline for attempt `retries` (0 = original copy):
    /// `timeout × backoff^retries`, saturating.
    #[must_use]
    pub fn deadline_after(&self, retries: u32) -> Cycles {
        let mut d = self.timeout.0;
        for _ in 0..retries {
            d = d.saturating_mul(u64::from(self.backoff.max(1)));
        }
        Cycles(d)
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
    /// When a chain is addressed to a crashed member and no replica
    /// can take it, hand the message to the attachment host
    /// (`redirected` sink) instead of dropping it unrouted.
    pub host_fallback: bool,
    /// Explicit replica pins `(member, replica)`: chains addressed to
    /// a crashed `member` are rewritten to `replica`. Members without
    /// a pin fail over to the lowest-indexed live member that declares
    /// the same engine set. PV802 lints pins that name unreachable
    /// replicas.
    pub replicas: Vec<(usize, usize)>,
}

impl FabricFaultConfig {
    /// A config running `plan` with default retry policy and
    /// host-fallback enabled.
    #[must_use]
    pub fn new(plan: FabricFaultPlan) -> FabricFaultConfig {
        FabricFaultConfig {
            plan,
            retry: HopRetryConfig::default(),
            host_fallback: true,
            replicas: Vec::new(),
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
    /// The ledger has no entry for this crossing (dedup disabled, or
    /// the copy predates arming) — deliver it.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HopState {
    /// Awaiting delivery (deadline armed while retries remain).
    Pending,
    /// Delivered (or terminally redirected); further copies are
    /// duplicates.
    Done,
}

#[derive(Debug)]
struct HopEntry {
    /// Crossing generation: bumped each time the same message id is
    /// tracked again (multi-crossing chains). Copies carry their
    /// generation; a stale generation is a duplicate by definition.
    generation: u32,
    state: HopState,
    retries: u32,
    deadline: Cycle,
    /// False once the retry budget is exhausted: the entry stops
    /// waking the fabric but still suppresses late duplicates.
    armed: bool,
    tracked_at: Cycle,
    redirected: bool,
    /// Retransmit template (dropped on completion to free the copy).
    template: Option<Box<Message>>,
}

/// Descriptor-deadline tracking for one member's outbound crossings —
/// the [`crate::Watchdog`] pattern at fabric scope.
///
/// Every message the ToR serializes out of a member is tracked here
/// under a per-crossing *generation*; undelivered crossings are
/// retransmitted with exponential backoff until the budget runs out,
/// and the receiver consults [`HopLedger::on_delivered`] so exactly
/// one copy per crossing enters the destination mesh.
#[derive(Debug)]
pub struct HopLedger {
    config: HopRetryConfig,
    entries: HashMap<MessageId, HopEntry>,
    /// Deadline wheel with lazy invalidation, exactly like the
    /// watchdog's: completions leave stale slots that are skipped when
    /// their cycle comes up.
    wheel: BTreeMap<Cycle, Vec<MessageId>>,
    /// Entries with a live deadline (Pending + armed).
    armed: usize,
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
            config,
            entries: HashMap::new(),
            wheel: BTreeMap::new(),
            armed: 0,
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
        let deadline = Cycle(now.0 + self.config.timeout.0);
        let entry = self
            .entries
            .entry(msg.id)
            .and_modify(|e| {
                debug_assert_eq!(
                    e.state,
                    HopState::Done,
                    "re-tracking a crossing still in flight"
                );
                e.generation += 1;
                e.state = HopState::Pending;
                e.retries = 0;
                e.deadline = deadline;
                e.armed = true;
                e.tracked_at = now;
                e.redirected = false;
                e.template = Some(Box::new(msg.clone()));
            })
            .or_insert_with(|| HopEntry {
                generation: 0,
                state: HopState::Pending,
                retries: 0,
                deadline,
                armed: true,
                tracked_at: now,
                redirected: false,
                template: Some(Box::new(msg.clone())),
            });
        let generation = entry.generation;
        self.armed += 1;
        self.wheel.entry(deadline).or_default().push(msg.id);
        generation
    }

    /// Collects retransmissions due at or before `now`. Crossings past
    /// their budget are disarmed (counted exhausted) but stay eligible
    /// for late delivery.
    pub fn expired(&mut self, now: Cycle) -> Vec<HopRetry> {
        let mut due = Vec::new();
        let still_due = self.wheel.split_off(&Cycle(now.0 + 1));
        let expired_slots = std::mem::replace(&mut self.wheel, still_due);
        for (cycle, ids) in expired_slots {
            for id in ids {
                let Some(entry) = self.entries.get_mut(&id) else {
                    continue;
                };
                // Lazy invalidation: completed, re-armed at a later
                // deadline, or already disarmed — skip.
                if entry.state != HopState::Pending || !entry.armed || entry.deadline != cycle {
                    continue;
                }
                self.armed -= 1;
                if entry.retries < self.config.max_retries {
                    entry.retries += 1;
                    let rearm = Cycle(now.0 + self.config.deadline_after(entry.retries).0);
                    entry.deadline = rearm;
                    entry.armed = true;
                    self.armed += 1;
                    self.wheel.entry(rearm).or_default().push(id);
                    self.retries_issued += 1;
                    due.push(HopRetry {
                        msg: (**entry
                            .template
                            .as_ref()
                            .expect("pending entry keeps template"))
                        .clone(),
                        generation: entry.generation,
                        attempt: entry.retries,
                    });
                } else {
                    entry.armed = false;
                    self.exhausted += 1;
                }
            }
        }
        due
    }

    /// Reports a copy of `id` (crossing `generation`) arriving at its
    /// destination at `now`. First delivery wins; everything else is a
    /// duplicate to suppress.
    pub fn on_delivered(&mut self, id: MessageId, generation: u32, now: Cycle) -> HopOutcome {
        let Some(entry) = self.entries.get_mut(&id) else {
            return HopOutcome::Untracked;
        };
        if entry.state == HopState::Done || generation != entry.generation {
            self.duplicates += 1;
            return HopOutcome::Duplicate;
        }
        entry.state = HopState::Done;
        entry.template = None;
        if entry.armed {
            entry.armed = false;
            self.armed -= 1;
        }
        self.completed += 1;
        HopOutcome::First {
            waited: Cycles(now.0 - entry.tracked_at.0),
            retried: entry.retries > 0,
            redirected: entry.redirected,
        }
    }

    /// Marks `id` terminally handled outside the fabric (host-fallback
    /// redirect): retries stop, late copies are duplicates.
    pub fn complete_terminal(&mut self, id: MessageId) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.state = HopState::Done;
            entry.template = None;
            if entry.armed {
                entry.armed = false;
                self.armed -= 1;
            }
        }
    }

    /// Notes that the ToR redirected `id`'s chain to a replica (for
    /// the time-to-reroute sample on delivery).
    pub fn note_redirected(&mut self, id: MessageId) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.redirected = true;
        }
    }

    /// Entries with a live deadline — crossings the fabric is still
    /// waiting on. Zero is a quiescence requirement.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// The next cycle a deadline fires, if any entry is armed.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Cycle> {
        if self.armed == 0 {
            return None;
        }
        self.wheel.iter().find_map(|(cycle, ids)| {
            ids.iter()
                .any(|id| {
                    self.entries.get(id).is_some_and(|e| {
                        e.state == HopState::Pending && e.armed && e.deadline == *cycle
                    })
                })
                .then_some(*cycle)
        })
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
    use packet::message::MessageKind;

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
        assert_eq!(plan.has_permanent_isolation(), Some(2));
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
    fn ledger_retries_with_backoff_then_exhausts() {
        let cfg = HopRetryConfig {
            timeout: Cycles(100),
            max_retries: 2,
            backoff: 2,
            dedup: true,
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
            dedup: true,
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
}
