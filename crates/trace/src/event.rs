//! The event model: tracks, event kinds, and the one record type every
//! sink consumes.
//!
//! Events are deliberately cheap to construct on the hot path: names
//! are `&'static str` (the taxonomy in `docs/TRACING.md` is a closed
//! set), tracks are interned once at attach time into a [`TrackId`],
//! and arguments are at most two `(key, value)` pairs of integers.

use sim_core::time::{Cycle, Cycles};

/// An interned track (≈ one hardware component: a router tile, an
/// engine tile, the pipeline). Maps to a Chrome-trace `tid`.
///
/// `TrackId(0)` is the reserved "untracked" id a disabled
/// [`Tracer`](crate::Tracer) hands out; sinks never see events for it
/// because the disabled tracer drops them before they are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TrackId(pub u32);

/// What shape of event this is; mirrors Chrome `trace_event` phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time marker (Chrome phase `i`): a flit hop, a drop,
    /// a match/miss.
    Instant,
    /// A span with a duration (Chrome phase `X`): an engine servicing
    /// a message, a message crossing the mesh, a pipeline traversal.
    /// `ts` is the span *start*; `dur` the length in cycles.
    Complete {
        /// Span length in cycles.
        dur: u64,
    },
    /// A sampled value (Chrome phase `C`): queue depth, backlog.
    Counter {
        /// The sampled value.
        value: u64,
    },
}

/// One trace event. `ts` is in simulated cycles; the Chrome exporter
/// writes it into the `ts` (microsecond) field unscaled, so **1 trace
/// microsecond = 1 simulated cycle** (see `docs/TRACING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The component this event belongs to.
    pub track: TrackId,
    /// Event name from the `docs/TRACING.md` taxonomy (e.g.
    /// `"noc.hop"`, `"engine.service"`, `"sched.pop"`).
    pub name: &'static str,
    /// Timestamp in cycles (span start for [`EventKind::Complete`]).
    pub ts: u64,
    /// Shape and payload.
    pub kind: EventKind,
    /// Up to two integer arguments, e.g. `("msg", id)`, `("rank", r)`.
    pub args: [Option<(&'static str, u64)>; 2],
}

impl Event {
    /// An instant event with no arguments.
    #[must_use]
    pub fn instant(track: TrackId, name: &'static str, now: Cycle) -> Event {
        Event {
            track,
            name,
            ts: now.0,
            kind: EventKind::Instant,
            args: [None, None],
        }
    }

    /// A complete (span) event starting at `start` and lasting `dur`.
    #[must_use]
    pub fn complete(track: TrackId, name: &'static str, start: Cycle, dur: Cycles) -> Event {
        Event {
            track,
            name,
            ts: start.0,
            kind: EventKind::Complete { dur: dur.count() },
            args: [None, None],
        }
    }

    /// A counter sample.
    #[must_use]
    pub fn counter(track: TrackId, name: &'static str, now: Cycle, value: u64) -> Event {
        Event {
            track,
            name,
            ts: now.0,
            kind: EventKind::Counter { value },
            args: [None, None],
        }
    }

    /// Returns the event with its first free argument slot filled.
    /// A third argument is silently ignored (the taxonomy never needs
    /// more than two).
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: u64) -> Event {
        for slot in &mut self.args {
            if slot.is_none() {
                *slot = Some((key, value));
                return self;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let e = Event::instant(TrackId(3), "noc.hop", Cycle(9));
        assert_eq!(e.ts, 9);
        assert_eq!(e.kind, EventKind::Instant);

        let e = Event::complete(TrackId(1), "engine.service", Cycle(5), Cycles(7));
        assert_eq!(e.ts, 5);
        assert_eq!(e.kind, EventKind::Complete { dur: 7 });

        let e = Event::counter(TrackId(1), "sched.depth", Cycle(2), 4);
        assert_eq!(e.kind, EventKind::Counter { value: 4 });
    }

    #[test]
    fn args_fill_two_slots_then_saturate() {
        let e = Event::instant(TrackId(0), "x", Cycle(0))
            .with_arg("a", 1)
            .with_arg("b", 2)
            .with_arg("c", 3);
        assert_eq!(e.args[0], Some(("a", 1)));
        assert_eq!(e.args[1], Some(("b", 2)));
    }
}
