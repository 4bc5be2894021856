//! The plan mechanism both fault planes instantiate: a [`Plan`] of
//! [`Event`]s over some [`Kind`] of fault, the [`Schedule`] a runtime
//! fires it from, and the [`Clause`] scanner behind the spec DSL.
//!
//! A kind enum ([`crate::FaultKind`] for one NIC,
//! [`crate::FabricFaultKind`] for a rack) supplies its family name, its
//! kind names with their grammars, and how a kind renders its target
//! and tail. What a plan *is* — stable order by cycle, the `,`/`;`
//! clause loop, the `kind:target@at<tail>` shape and its `Display`
//! round trip, the number ranges, which event is due and when to wake
//! for the next — lives here, once.

use std::collections::VecDeque;
use std::fmt;

use sim_core::time::{Cycle, Cycles};

/// What a fault-kind enum tells the plan mechanism about itself.
pub trait Kind: Copy + Sized {
    /// The family name used in error messages: `bad <FAMILY> clause`,
    /// `unknown <FAMILY> kind`, `empty <FAMILY> spec`.
    const FAMILY: &'static str;

    /// Short stable name of this kind: the DSL kind name and the
    /// trace/metric label.
    fn label(&self) -> &'static str;

    /// The grammar of the kind called `name`, if the family has one.
    /// This match is the family's name table; nothing else lists it.
    fn grammar(name: &str) -> Option<Grammar<Self>>;

    /// Writes what the kind targets: the text before `@<at>`.
    fn fmt_target(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// Writes the kind's parameters: the text after `@<at>`, if any.
    fn fmt_tail(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

/// The per-kind half of the DSL, built from [`Clause`]'s parsers.
pub type Grammar<K> = fn(&Clause<'_>) -> Result<Event<K>, String>;

/// A fault scheduled at an absolute cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event<K> {
    /// Cycle at which the fault fires. A NIC checks its plan at the
    /// top of the tick, so a fault at cycle `c` is visible to
    /// everything that happens during cycle `c`; a fabric applies it
    /// at the first epoch boundary at or after this cycle.
    pub at: Cycle,
    /// What goes wrong.
    pub kind: K,
}

impl<K: Kind> fmt::Display for Event<K> {
    /// `label:target@at<tail>` — the shape [`Plan::parse`] accepts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.kind.label())?;
        self.kind.fmt_target(f)?;
        write!(f, "@{}", self.at.0)?;
        self.kind.fmt_tail(f)
    }
}

/// A deterministic schedule of fault events, sorted by firing cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan<K> {
    events: Vec<Event<K>>,
}

impl<K> Default for Plan<K> {
    fn default() -> Plan<K> {
        Plan { events: Vec::new() }
    }
}

impl<K> Plan<K> {
    /// A plan from explicit events; sorts by cycle (stable, so same-
    /// cycle events keep their given order).
    #[must_use]
    pub fn new(mut events: Vec<Event<K>>) -> Plan<K> {
        events.sort_by_key(|e| e.at);
        Plan { events }
    }

    /// The events, in firing order.
    #[must_use]
    pub fn events(&self) -> &[Event<K>] {
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
}

impl<K: Kind> Plan<K> {
    /// Parses the hand-written spec DSL: clauses separated by `,` or
    /// `;`, each `kind:target@at<tail>` in one of the forms the kind
    /// enum documents. Whitespace around separators is ignored. Every
    /// number is range-checked against the field it lands in — a value
    /// that does not fit is an error, never a truncation — and a
    /// window must end on the clock (`at + dur` fits in 64 bits).
    ///
    /// # Errors
    /// Returns a human-readable message naming the offending clause.
    pub fn parse(spec: &str) -> Result<Plan<K>, String> {
        let mut events = Vec::new();
        for clause in clauses(spec) {
            let c = Clause::scan(K::FAMILY, clause)?;
            let grammar = K::grammar(c.kind)
                .ok_or_else(|| c.err(format_args!("unknown {} kind {:?}", K::FAMILY, c.kind)))?;
            events.push(grammar(&c)?);
        }
        if events.is_empty() {
            return Err(format!("empty {} spec", K::FAMILY));
        }
        Ok(Plan::new(events))
    }
}

impl<K: Kind> fmt::Display for Plan<K> {
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

/// The non-empty clauses of `spec`, trimmed.
fn clauses(spec: &str) -> impl Iterator<Item = &str> {
    spec.split([',', ';'])
        .map(str::trim)
        .filter(|c| !c.is_empty())
}

/// True when the first clause of `spec` names a kind of family `K`.
pub(crate) fn opens_with<K: Kind>(spec: &str) -> bool {
    let kind = clauses(spec).next().and_then(split_kind);
    kind.is_some_and(|(kind, _)| K::grammar(kind).is_some())
}

/// Splits the (trimmed) kind name off a clause.
fn split_kind(clause: &str) -> Option<(&str, &str)> {
    let (kind, rest) = clause.split_once(':')?;
    Some((kind.trim(), rest))
}

fn bad(family: &str, clause: &str, why: impl fmt::Display) -> String {
    format!("bad {family} clause {clause:?}: {why}")
}

/// One `kind:target@timing` clause, split but not yet interpreted,
/// with the number parsers every per-kind grammar is built from. All
/// errors come out in one shape: `bad <family> clause "<text>": <why>`.
#[derive(Debug)]
pub struct Clause<'a> {
    family: &'static str,
    text: &'a str,
    /// The kind name, trimmed.
    pub kind: &'a str,
    /// Everything between `kind:` and `@`.
    pub target: &'a str,
    /// Everything after `@`.
    pub timing: &'a str,
}

impl<'a> Clause<'a> {
    fn scan(family: &'static str, text: &'a str) -> Result<Clause<'a>, String> {
        let expected = |form| bad(family, text, format_args!("expected `{form}`"));
        let (kind, rest) = split_kind(text).ok_or_else(|| expected("kind:..."))?;
        let (target, timing) = rest
            .split_once('@')
            .ok_or_else(|| expected("...@<cycle>"))?;
        Ok(Clause {
            family,
            text,
            kind,
            target,
            timing,
        })
    }

    /// An error about this clause.
    pub fn err(&self, why: impl fmt::Display) -> String {
        bad(self.family, self.text, why)
    }

    /// Splits `s` at the first `sep`, or fails with "expected
    /// `form`".
    pub fn split(&self, s: &'a str, sep: char, form: &str) -> Result<(&'a str, &'a str), String> {
        s.split_once(sep)
            .ok_or_else(|| self.err(format_args!("expected {form}")))
    }

    /// A number over the full 64-bit range; `what` names the field.
    pub fn number(&self, s: &str, what: &str) -> Result<u64, String> {
        s.trim()
            .parse()
            .map_err(|_| self.err(format_args!("{what} is not a number ({s:?})")))
    }

    /// A number that must fit the narrower field `T`: parsed wide,
    /// then range-checked.
    pub fn narrow<T: TryFrom<u64>>(&self, s: &str, what: &str) -> Result<T, String> {
        T::try_from(self.number(s, what)?)
            .map_err(|_| self.err(format_args!("{what} out of range ({s:?})")))
    }

    /// The cycle an event fires at.
    pub fn at(&self, s: &str) -> Result<Cycle, String> {
        self.number(s, "cycle").map(Cycle)
    }

    /// The duration `dur` of a window opening at `at`.
    pub fn window(&self, at: Cycle, dur: &str) -> Result<Cycles, String> {
        self.ends_on_clock(at, self.number(dur, "duration")?, dur)
    }

    /// A window of `cycles` (written `raw`) opening at `at` must end
    /// on the clock: `at + dur` fits in 64 bits.
    pub fn ends_on_clock(&self, at: Cycle, cycles: u64, raw: &str) -> Result<Cycles, String> {
        match at.0.checked_add(cycles) {
            Some(_) => Ok(Cycles(cycles)),
            None => Err(self.err(format_args!(
                "duration out of range ({raw:?}: `at + dur` must fit in 64 bits)"
            ))),
        }
    }
}

/// A [`Plan`] being fired: what is left of it, soonest first. This is
/// the one place that decides when a planned event is due and what a
/// plane's wake hint says about the next one.
#[derive(Debug)]
pub struct Schedule<K> {
    unfired: VecDeque<Event<K>>,
}

impl<K> Schedule<K> {
    /// A schedule about to fire `plan` from its first event.
    #[must_use]
    pub fn new(plan: Plan<K>) -> Schedule<K> {
        Schedule {
            unfired: plan.events.into(),
        }
    }

    /// Takes the next event if its cycle has come (`at <= now`); call
    /// until `None` to fire everything due, in plan order.
    pub fn pop_due(&mut self, now: Cycle) -> Option<Event<K>> {
        if self.unfired.front()?.at <= now {
            self.unfired.pop_front()
        } else {
            None
        }
    }

    /// The cycle to wake at for the next unfired event: its own cycle,
    /// or `now + 1` when that has passed (an overdue event fires at
    /// the next opportunity).
    #[must_use]
    pub fn next_due(&self, now: Cycle) -> Option<Cycle> {
        Some(self.unfired.front()?.at.max(now.next()))
    }

    /// True once every planned event has fired.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.unfired.is_empty()
    }

    /// Adds `plan` to what is still to fire (stable: at equal cycles
    /// the older plan's events come first). Events whose cycle has
    /// already passed fire at the next [`Schedule::pop_due`].
    pub fn merge(&mut self, plan: Plan<K>) {
        let mut events = Vec::from(std::mem::take(&mut self.unfired));
        events.extend(plan.events);
        *self = Schedule::new(Plan::new(events));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FabricFaultPlan, FaultPlan};

    fn ats<K>(s: &mut Schedule<K>, now: u64) -> Vec<u64> {
        std::iter::from_fn(|| s.pop_due(Cycle(now)))
            .map(|e| e.at.0)
            .collect()
    }

    #[test]
    fn schedule_fires_in_order_and_hints_the_next_event() {
        let mut s = Schedule::new(FaultPlan::parse("drop:1@30,crash:1@10,drop:2@10").unwrap());
        assert!(!s.exhausted());
        assert_eq!(s.next_due(Cycle(0)), Some(Cycle(10)));
        assert!(s.pop_due(Cycle(9)).is_none());
        // Both cycle-10 events, in the order they were written.
        let first = s.pop_due(Cycle(10)).unwrap();
        assert_eq!(first.kind.label(), "crash");
        assert_eq!(ats(&mut s, 10), [10]);
        // An overdue event is hinted at the very next cycle.
        assert_eq!(s.next_due(Cycle(10)), Some(Cycle(30)));
        assert_eq!(s.next_due(Cycle(45)), Some(Cycle(46)));
        assert_eq!(ats(&mut s, 45), [30]);
        assert!(s.exhausted());
        assert_eq!(s.next_due(Cycle(45)), None);
        assert!(Schedule::new(FabricFaultPlan::default()).exhausted());
    }

    #[test]
    fn merge_keeps_the_unfired_tail_and_resorts() {
        let mut s = Schedule::new(FaultPlan::parse("drop:1@10,drop:1@40").unwrap());
        assert_eq!(ats(&mut s, 10), [10]);
        s.merge(FaultPlan::parse("drop:2@5,drop:2@50").unwrap());
        // The fired event is gone; the late-armed one fires next tick.
        assert_eq!(s.next_due(Cycle(10)), Some(Cycle(11)));
        assert_eq!(ats(&mut s, 11), [5]);
        assert_eq!(ats(&mut s, 100), [40, 50]);
        assert!(s.exhausted());
    }

    #[test]
    fn both_families_share_the_clause_shape() {
        for (nic, fabric) in [
            ("crash", "mloss"),     // missing `:`
            ("crash:3", "mloss:3"), // missing `@`
        ] {
            let n = FaultPlan::parse(nic).unwrap_err();
            let f = FabricFaultPlan::parse(fabric).unwrap_err();
            assert!(
                n.starts_with(&format!("bad fault clause {nic:?}: expected `")),
                "{n}"
            );
            assert!(
                f.starts_with(&format!("bad fabric fault clause {fabric:?}: expected `")),
                "{f}"
            );
        }
        assert_eq!(FaultPlan::parse(" ; ,"), Err("empty fault spec".into()));
        assert_eq!(
            FabricFaultPlan::parse(""),
            Err("empty fabric fault spec".into())
        );
        assert_eq!(
            FaultPlan::parse("flap:0-1@5+5").unwrap_err(),
            "bad fault clause \"flap:0-1@5+5\": unknown fault kind \"flap\""
        );
        assert_eq!(
            FabricFaultPlan::parse("crash:1@5").unwrap_err(),
            "bad fabric fault clause \"crash:1@5\": unknown fabric fault kind \"crash\""
        );
    }
}
