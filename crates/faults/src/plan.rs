//! The NIC-level fault vocabulary: [`FaultKind`], the [`FaultPlan`]
//! generator over a [`FaultUniverse`], and the `--faults` front door
//! ([`FaultArg`]).
//!
//! A [`FaultPlan`] is [`crate::schedule::Plan`] over [`FaultKind`] — an
//! ordered list of [`FaultEvent`]s, *when* and *what* goes wrong.
//! Plans come from two places:
//!
//! * **Seeded generation** ([`FaultPlan::generate`]): a seed plus a
//!   [`FaultUniverse`] (which engines exist, how long the run is, how
//!   much damage is tolerable) yields a reproducible random plan. The
//!   generator respects two safety caps so a "chaos" run still
//!   terminates: at most `max_engine_crashes` permanent crashes, and at
//!   most `max_drops_per_tile` ejection-flit drops per tile (each drop
//!   leaks one credit from that tile's finite ejection-credit pool, so
//!   unbounded drops would wedge the mesh — see `docs/FAULTS.md`).
//! * **Hand-written specs** ([`FaultPlan::parse`]): a tiny comma/
//!   semicolon-separated DSL (`crash:3@100,stall:5@200+64,...`) for
//!   targeted regression tests and demos. Engines and ports are
//!   referenced numerically (`EngineId` / port index) because names are
//!   a core-layer concept the fault plane deliberately knows nothing
//!   about.
//!
//! The `repro` CLI accepts either form through [`FaultArg`]'s
//! [`FromStr`]: a bare integer (decimal or `0x`-hex) is a seed, anything
//! else is parsed as a spec.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use packet::EngineId;
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Cycles};

use crate::fabric::{FabricFaultKind, FabricFaultPlan};
use crate::schedule::{opens_with, Clause, Event, Grammar, Kind, Plan};

/// One kind of injected fault.
///
/// Each variant maps to exactly one injection point in the datapath;
/// `docs/FAULTS.md` has the full table. Durations are relative to the
/// event's scheduled cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The engine stops making progress permanently: its tile freezes
    /// mid-service and never completes. Only the watchdog can get the
    /// wedged work back (re-issue) and only engine-health tracking can
    /// stop new work from piling in (mark DOWN, flush, absorb).
    EngineCrash {
        /// The engine that crashes.
        engine: EngineId,
    },
    /// The engine freezes for `duration` cycles, then resumes exactly
    /// where it left off — a transient hiccup (e.g. an internal ECC
    /// scrub). Work is delayed, not lost.
    EngineStall {
        /// The engine that stalls.
        engine: EngineId,
        /// How long the stall lasts.
        duration: Cycles,
    },
    /// Every service the engine *starts* from this point on takes
    /// `factor`× its nominal time — a permanent slowdown (thermal
    /// throttle, partial defect). Factor 1 restores nominal speed.
    EngineDegrade {
        /// The engine that degrades.
        engine: EngineId,
        /// Service-time multiplier (≥ 1).
        factor: u32,
    },
    /// The engine's scheduler queue refuses all offers for `duration`
    /// cycles, as if admission control had wedged shut. Refused lossless
    /// traffic backpressures; refused lossy traffic is the offerer's
    /// problem — exactly the semantics of a real refusal.
    SchedRefuse {
        /// The engine whose queue refuses.
        engine: EngineId,
        /// How long offers are refused.
        duration: Cycles,
    },
    /// The router output port `port` at `engine`'s tile only passes a
    /// flit on cycles where `cycle % period == 0`, for `duration`
    /// cycles — a degraded link running at `1/period` of nominal
    /// bandwidth. Credits are conserved; this is pure slowdown.
    LinkSlow {
        /// The tile whose router output degrades.
        engine: EngineId,
        /// Output port index (see `noc::router::PortDir`).
        port: u8,
        /// How long the degradation lasts.
        duration: Cycles,
        /// Only 1 in `period` cycles moves a flit (≥ 2).
        period: u64,
    },
    /// `credits` output credits at (`engine`, `port`) are confiscated
    /// for `duration` cycles, then returned — modelling a downstream
    /// buffer temporarily unavailable (e.g. under test or scrub).
    /// Backpressure spreads upstream while the hold lasts; throughput
    /// recovers when the credits come back.
    CreditHold {
        /// The tile whose router output loses credits.
        engine: EngineId,
        /// Output port index (see `noc::router::PortDir`).
        port: u8,
        /// How many credits are held (≥ 1).
        credits: u32,
        /// How long they are held.
        duration: Cycles,
    },
    /// The next message fully ejected at `engine`'s tile is silently
    /// destroyed *after* tail reassembly, and the Local credit its tail
    /// flit would have returned is leaked — the canonical "lost packet
    /// plus leaked credit" failure the lossless NoC cannot exhibit on
    /// its own. Drops happen only at the ejection boundary so wormhole
    /// routing invariants (no partial messages in-flight) still hold.
    FlitDrop {
        /// The tile whose next ejection is dropped.
        engine: EngineId,
    },
}

impl FaultKind {
    /// The engine/tile this fault targets.
    #[must_use]
    pub fn engine(&self) -> EngineId {
        match *self {
            FaultKind::EngineCrash { engine }
            | FaultKind::EngineStall { engine, .. }
            | FaultKind::EngineDegrade { engine, .. }
            | FaultKind::SchedRefuse { engine, .. }
            | FaultKind::LinkSlow { engine, .. }
            | FaultKind::CreditHold { engine, .. }
            | FaultKind::FlitDrop { engine } => engine,
        }
    }
}

impl Kind for FaultKind {
    const FAMILY: &'static str = "fault";

    /// Short stable label for traces and metrics (`fault.<label>`).
    fn label(&self) -> &'static str {
        match self {
            FaultKind::EngineCrash { .. } => "crash",
            FaultKind::EngineStall { .. } => "stall",
            FaultKind::EngineDegrade { .. } => "degrade",
            FaultKind::SchedRefuse { .. } => "refuse",
            FaultKind::LinkSlow { .. } => "slow",
            FaultKind::CreditHold { .. } => "hold",
            FaultKind::FlitDrop { .. } => "drop",
        }
    }

    fn grammar(name: &str) -> Option<Grammar<FaultKind>> {
        fn engine_of(c: &Clause<'_>, s: &str) -> Result<EngineId, String> {
            c.narrow(s, "engine id").map(EngineId)
        }
        Some(match name {
            "crash" | "drop" => |c| {
                let at = c.at(c.timing)?;
                let engine = engine_of(c, c.target)?;
                let kind = match c.kind {
                    "crash" => FaultKind::EngineCrash { engine },
                    _ => FaultKind::FlitDrop { engine },
                };
                Ok(Event { at, kind })
            },
            "stall" | "refuse" => |c| {
                let (at, dur) = c.split(c.timing, '+', "`@<at>+<dur>`")?;
                let engine = engine_of(c, c.target)?;
                let at = c.at(at)?;
                let duration = c.window(at, dur)?;
                let kind = match c.kind {
                    "stall" => FaultKind::EngineStall { engine, duration },
                    _ => FaultKind::SchedRefuse { engine, duration },
                };
                Ok(Event { at, kind })
            },
            "degrade" => |c| {
                let (at, factor) = c.split(c.timing, 'x', "`@<at>x<mult>`")?;
                let factor = c.narrow(factor, "factor")?;
                if factor == 0 {
                    return Err(c.err("factor must be >= 1"));
                }
                let at = c.at(at)?;
                let engine = engine_of(c, c.target)?;
                let kind = FaultKind::EngineDegrade { engine, factor };
                Ok(Event { at, kind })
            },
            "slow" | "hold" => |c| {
                let (engine, port) = c.split(c.target, ':', "`<engine>:<port>`")?;
                let engine = engine_of(c, engine)?;
                let port = match c.number(port, "port")? {
                    port @ 0..=4 => port as u8,
                    _ => return Err(c.err("port must be 0..=4")),
                };
                let (at, tail) = c.split(c.timing, '+', "`@<at>+<dur>...`")?;
                let at = c.at(at)?;
                let kind = if c.kind == "slow" {
                    let (dur, period) = c.split(tail, '/', "`+<dur>/<period>`")?;
                    let period = c.number(period, "period")?;
                    if period < 2 {
                        return Err(c.err("period must be >= 2"));
                    }
                    let duration = c.window(at, dur)?;
                    FaultKind::LinkSlow {
                        engine,
                        port,
                        duration,
                        period,
                    }
                } else {
                    let (dur, credits) = c.split(tail, 'x', "`+<dur>x<credits>`")?;
                    let credits = c.narrow(credits, "credits")?;
                    if credits == 0 {
                        return Err(c.err("credits must be >= 1"));
                    }
                    let duration = c.window(at, dur)?;
                    FaultKind::CreditHold {
                        engine,
                        port,
                        credits,
                        duration,
                    }
                };
                Ok(Event { at, kind })
            },
            _ => return None,
        })
    }

    fn fmt_target(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.engine().0)?;
        match self {
            FaultKind::LinkSlow { port, .. } | FaultKind::CreditHold { port, .. } => {
                write!(f, ":{port}")
            }
            _ => Ok(()),
        }
    }

    fn fmt_tail(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::EngineCrash { .. } | FaultKind::FlitDrop { .. } => Ok(()),
            FaultKind::EngineStall { duration, .. } | FaultKind::SchedRefuse { duration, .. } => {
                write!(f, "+{}", duration.0)
            }
            FaultKind::EngineDegrade { factor, .. } => write!(f, "x{factor}"),
            FaultKind::LinkSlow {
                duration, period, ..
            } => write!(f, "+{}/{period}", duration.0),
            FaultKind::CreditHold {
                duration, credits, ..
            } => write!(f, "+{}x{credits}", duration.0),
        }
    }
}

/// A NIC-level fault scheduled at an absolute cycle (checked at the
/// top of the NIC tick, so a fault at cycle `c` is visible to
/// everything that happens during cycle `c`).
pub type FaultEvent = Event<FaultKind>;

/// What the seeded generator is allowed to break: the population of
/// engines, the run horizon, and the damage caps that keep a random
/// plan survivable.
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    /// Engines eligible for engine-level faults (crash / stall /
    /// degrade / refuse). Typically the offload engines, *not* the
    /// ports or portals.
    pub engines: Vec<EngineId>,
    /// Tiles eligible for NoC-level faults (link slow, credit hold,
    /// ejection drop). Drops leak Local credits, so callers must keep
    /// `max_drops_per_tile` below the ejection buffer depth.
    pub drop_tiles: Vec<EngineId>,
    /// Faults are scheduled in `[1, horizon)`.
    pub horizon: Cycle,
    /// At most this many permanent engine crashes (failover needs a
    /// surviving replica; crashing a whole offload class is a
    /// different experiment).
    pub max_engine_crashes: usize,
    /// At most this many ejection drops per tile. Each drop leaks one
    /// Local credit, so this must stay below the router's
    /// ejection-buffer depth or the tile wedges permanently.
    pub max_drops_per_tile: u32,
}

impl FaultUniverse {
    /// A universe over `engines` with conservative default caps:
    /// 1 crash, 4 drops per tile (half the default 16-flit ejection
    /// buffer would be 8; 4 leaves generous headroom), NoC faults on
    /// the same tiles as engine faults.
    #[must_use]
    pub fn new(engines: Vec<EngineId>, horizon: Cycle) -> FaultUniverse {
        FaultUniverse {
            drop_tiles: engines.clone(),
            engines,
            horizon,
            max_engine_crashes: 1,
            max_drops_per_tile: 4,
        }
    }
}

/// A deterministic schedule of NIC-level fault events, sorted by
/// firing cycle. [`FaultPlan::parse`] accepts, per clause:
///
/// | form | meaning |
/// |---|---|
/// | `crash:<e>@<at>` | permanent engine crash |
/// | `stall:<e>@<at>+<dur>` | engine freeze for `dur` cycles |
/// | `degrade:<e>@<at>x<mult>` | service time × `mult` from `at` on |
/// | `refuse:<e>@<at>+<dur>` | queue refuses offers for `dur` |
/// | `drop:<e>@<at>` | drop next ejection at tile `e`, leak credit |
/// | `slow:<e>:<port>@<at>+<dur>/<period>` | link at 1/`period` rate |
/// | `hold:<e>:<port>@<at>+<dur>x<n>` | confiscate `n` credits |
///
/// `<e>` is a numeric `EngineId` (0..=65535), `<port>` a router
/// output index (0=N 1=S 2=E 3=W 4=Local), `<mult>` and `<n>` fit in
/// 32 bits, every other number in 64, and a window must end on the
/// clock (`at + dur` fits in 64 bits).
pub type FaultPlan = Plan<FaultKind>;

impl Plan<FaultKind> {
    /// Generates a reproducible random plan: `intensity` events drawn
    /// from `universe`, honouring the crash and drop caps (an event
    /// that would exceed a cap degrades to a transient stall, so the
    /// plan always has exactly `intensity` events).
    ///
    /// The same `(seed, universe, intensity)` triple always yields the
    /// same plan; the seed alone pins every random choice.
    ///
    /// # Panics
    /// Panics if the universe has no engines or a horizon shorter than
    /// two cycles — there would be nothing to break.
    #[must_use]
    pub fn generate(seed: u64, universe: &FaultUniverse, intensity: u32) -> FaultPlan {
        assert!(
            !universe.engines.is_empty(),
            "fault universe has no engines"
        );
        assert!(universe.horizon.0 >= 2, "fault horizon too short");
        let mut rng = SimRng::new(seed).derive("fault.plan");
        let mut events = Vec::with_capacity(intensity as usize);
        let mut crashes = 0usize;
        let mut drops: HashMap<EngineId, u32> = HashMap::new();
        let span = universe.horizon.0 - 1;
        for _ in 0..intensity {
            let at = Cycle(1 + rng.gen_range(span));
            let engine = *rng.choose(&universe.engines).expect("nonempty engines");
            let noc_tile = rng.choose(&universe.drop_tiles).copied();
            // Weighted pick over the seven kinds. Transients dominate;
            // permanent damage is rare and capped.
            let kind = match rng.gen_range(16) {
                // 1/16: permanent crash (capped).
                0 if crashes < universe.max_engine_crashes => {
                    crashes += 1;
                    FaultKind::EngineCrash { engine }
                }
                // 3/16: ejection drop + credit leak (capped per tile).
                1..=3 => {
                    let tile = noc_tile.unwrap_or(engine);
                    let used = drops.entry(tile).or_insert(0);
                    if *used < universe.max_drops_per_tile {
                        *used += 1;
                        FaultKind::FlitDrop { engine: tile }
                    } else {
                        FaultKind::EngineStall {
                            engine,
                            duration: Cycles(16 + rng.gen_range(240)),
                        }
                    }
                }
                // 2/16: link slowdown.
                4..=5 => FaultKind::LinkSlow {
                    engine: noc_tile.unwrap_or(engine),
                    port: rng.gen_range(4) as u8,
                    duration: Cycles(64 + rng.gen_range(448)),
                    period: 2 + rng.gen_range(6),
                },
                // 2/16: credit hold.
                6..=7 => FaultKind::CreditHold {
                    engine: noc_tile.unwrap_or(engine),
                    port: rng.gen_range(4) as u8,
                    credits: 1 + rng.gen_range(3) as u32,
                    duration: Cycles(64 + rng.gen_range(448)),
                },
                // 3/16: scheduler refusal burst.
                8..=10 => FaultKind::SchedRefuse {
                    engine,
                    duration: Cycles(16 + rng.gen_range(112)),
                },
                // 2/16: service-time degradation.
                11..=12 => FaultKind::EngineDegrade {
                    engine,
                    factor: 2 + rng.gen_range(6) as u32,
                },
                // Remainder (incl. crash overflow): transient stall.
                _ => FaultKind::EngineStall {
                    engine,
                    duration: Cycles(16 + rng.gen_range(240)),
                },
            };
            events.push(FaultEvent { at, kind });
        }
        FaultPlan::new(events)
    }

    /// Checks that no tile is armed with as many ejection drops as it
    /// has Local ejection credits (`RouterConfig::ejection_buffer_flits`
    /// in `noc`). Each drop leaks one credit for good, and a tile whose
    /// pool runs dry never ejects again: the run wedges. Generated plans
    /// stay under [`FaultUniverse::max_drops_per_tile`]; this holds a
    /// hand-written plan to the same kind of budget. The NIC-plan twin
    /// of `FabricFaultPlan::validate`.
    ///
    /// # Errors
    /// Returns a message naming the first tile, in plan order, armed
    /// with too many drops, its drop count and its credit pool — the
    /// `repro --faults` exit-2 path.
    pub fn validate(&self, ejection_credits: usize) -> Result<(), String> {
        let mut drops: HashMap<EngineId, usize> = HashMap::new();
        for ev in self.events() {
            if let FaultKind::FlitDrop { engine } = ev.kind {
                *drops.entry(engine).or_insert(0) += 1;
            }
        }
        for ev in self.events() {
            if let FaultKind::FlitDrop { engine } = ev.kind {
                let n = drops[&engine];
                if n >= ejection_credits {
                    return Err(format!(
                        "NIC fault plan arms {n} ejection drops at tile {}, but its \
                         ejection buffer holds {ejection_credits} credits: each drop \
                         leaks one for good, and a tile left with none never ejects \
                         again (at most {} drops a tile)",
                        engine.0,
                        ejection_credits.saturating_sub(1)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The `--faults` CLI argument: a seed for the deterministic
/// generators, an explicit NIC-level plan, or an explicit fabric-level
/// plan (the two DSLs use disjoint kind names, so the spec form picks
/// the variant).
///
/// ```
/// use faults::FaultArg;
/// assert!(matches!("0xC0FFEE".parse(), Ok(FaultArg::Seed(0xC0FFEE))));
/// assert!(matches!("42".parse(), Ok(FaultArg::Seed(42))));
/// assert!(matches!("crash:3@100".parse(), Ok(FaultArg::Plan(_))));
/// assert!(matches!("flap:0-1@100+64".parse(), Ok(FaultArg::Fabric(_))));
/// assert!("crash:3".parse::<FaultArg>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultArg {
    /// Generate a plan from this seed (NIC- or fabric-level, decided
    /// by the experiment that consumes it).
    Seed(u64),
    /// Use this explicit NIC-level plan.
    Plan(FaultPlan),
    /// Use this explicit fabric-level plan.
    Fabric(FabricFaultPlan),
}

impl FromStr for FaultArg {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultArg, String> {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            return u64::from_str_radix(hex, 16)
                .map(FaultArg::Seed)
                .map_err(|_| format!("bad hex fault seed {s:?}"));
        }
        if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
            return s
                .parse::<u64>()
                .map(FaultArg::Seed)
                .map_err(|_| format!("fault seed out of range {s:?}"));
        }
        // The kind names are disjoint between the two DSLs, so the
        // first clause's kind picks the family that parses (and words
        // the error for) the whole spec; an unknown kind reads as NIC.
        if opens_with::<FabricFaultKind>(s) {
            FabricFaultPlan::parse(s).map(FaultArg::Fabric)
        } else {
            FaultPlan::parse(s).map(FaultArg::Plan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> FaultUniverse {
        FaultUniverse::new((0..8).map(EngineId).collect(), Cycle(10_000))
    }

    #[test]
    fn validate_keeps_each_tile_inside_its_ejection_credits() {
        let plan = |spec: &str| FaultPlan::parse(spec).unwrap();
        assert_eq!(plan("drop:3@10,drop:3@20,drop:4@30").validate(3), Ok(()));
        let err = plan("crash:1@5,drop:4@10,drop:3@20,drop:3@30,drop:3@40")
            .validate(3)
            .unwrap_err();
        assert!(err.contains("3 ejection drops at tile 3"), "{err}");
        assert!(err.contains("holds 3 credits"), "{err}");
        // Every seeded plan is inside the budget its universe caps.
        let u = universe();
        for seed in 0..32 {
            let credits = u.max_drops_per_tile as usize + 1;
            assert_eq!(FaultPlan::generate(seed, &u, 64).validate(credits), Ok(()));
        }
    }

    #[test]
    fn generate_is_deterministic_and_sized() {
        let u = universe();
        let a = FaultPlan::generate(0xC0FFEE, &u, 24);
        let b = FaultPlan::generate(0xC0FFEE, &u, 24);
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        let c = FaultPlan::generate(0xC0FFEF, &u, 24);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generate_sorted_and_in_horizon() {
        let u = universe();
        let plan = FaultPlan::generate(7, &u, 64);
        let mut prev = Cycle::ZERO;
        for ev in plan.events() {
            assert!(ev.at >= prev, "events must be sorted");
            assert!(ev.at.0 >= 1 && ev.at < u.horizon);
            prev = ev.at;
        }
    }

    #[test]
    fn generate_respects_caps() {
        let u = universe();
        for seed in 0..32u64 {
            let plan = FaultPlan::generate(seed, &u, 200);
            let crashes = plan
                .events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::EngineCrash { .. }))
                .count();
            assert!(
                crashes <= u.max_engine_crashes,
                "seed {seed}: {crashes} crashes"
            );
            let mut drops: HashMap<EngineId, u32> = HashMap::new();
            for ev in plan.events() {
                if let FaultKind::FlitDrop { engine } = ev.kind {
                    *drops.entry(engine).or_insert(0) += 1;
                }
            }
            for (tile, n) in drops {
                assert!(
                    n <= u.max_drops_per_tile,
                    "seed {seed}: tile {tile:?} has {n} drops"
                );
            }
        }
    }

    #[test]
    fn parse_all_kinds_roundtrip() {
        let spec = "crash:3@100, stall:5@200+64; degrade:2@300x4, refuse:1@400+32, \
                    drop:6@500, slow:4:2@600+128/3, hold:7:0@700+256x2";
        let plan = FaultPlan::parse(spec).expect("spec parses");
        assert_eq!(plan.len(), 7);
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::EngineCrash {
                engine: EngineId(3)
            }
        );
        assert_eq!(
            plan.events()[5].kind,
            FaultKind::LinkSlow {
                engine: EngineId(4),
                port: 2,
                duration: Cycles(128),
                period: 3
            }
        );
        assert_eq!(
            plan.events()[6].kind,
            FaultKind::CreditHold {
                engine: EngineId(7),
                port: 0,
                credits: 2,
                duration: Cycles(256)
            }
        );
        // Display -> parse is a fixpoint.
        let reparsed = FaultPlan::parse(&plan.to_string()).expect("display reparses");
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "",
            "zap:1@5",
            "crash:1",
            "crash:x@5",
            "stall:1@5",
            "degrade:1@5x0",
            "slow:1@5+2/3",
            "slow:1:9@5+2/3",
            "slow:1:2@5+2/1",
            "hold:1:2@5+2x0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn fault_arg_parses_seed_or_plan() {
        assert_eq!("17".parse::<FaultArg>(), Ok(FaultArg::Seed(17)));
        assert_eq!("0xC0FFEE".parse::<FaultArg>(), Ok(FaultArg::Seed(0xC0FFEE)));
        match "drop:2@50".parse::<FaultArg>() {
            Ok(FaultArg::Plan(p)) => assert_eq!(p.len(), 1),
            other => panic!("expected plan, got {other:?}"),
        }
        assert!("0xZZ".parse::<FaultArg>().is_err());
        assert!("".parse::<FaultArg>().is_err());
    }

    #[test]
    fn labels_are_stable() {
        let plan = FaultPlan::parse(
            "crash:1@1,stall:1@2+1,degrade:1@3x2,refuse:1@4+1,drop:1@5,slow:1:0@6+1/2,hold:1:0@7+1x1",
        )
        .unwrap();
        let labels: Vec<&str> = plan.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            labels,
            ["crash", "stall", "degrade", "refuse", "drop", "slow", "hold"]
        );
    }
}
