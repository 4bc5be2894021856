//! Trace sinks: where events go.
//!
//! A sink is chosen once when a run is set up (none by default:
//! [`Tracer::disabled`](crate::Tracer::disabled)); components never know
//! which one is behind their [`Tracer`](crate::Tracer) handle.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::event::{Event, EventKind, TrackId};
use crate::json;

/// A consumer of trace events.
///
/// Implementations receive every event a [`Tracer`](crate::Tracer)
/// emits, in emission order (monotonically non-decreasing *emission*
/// cycle; a [`EventKind::Complete`] span's `ts` is its start, which may
/// precede previously emitted events' timestamps — exporters that need
/// `ts` order sort on render).
///
/// `Send` is required so a [`Tracer`](crate::Tracer) — and any NIC
/// holding one — can move to another thread; sinks are plain data, so
/// this costs implementations nothing.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Called once per interned track, before any event on it.
    fn register_track(&mut self, id: TrackId, name: &str);

    /// Consumes one event.
    fn record(&mut self, event: Event);

    /// Downcast support so [`Tracer`](crate::Tracer) can hand back
    /// sink-specific results (ring snapshots, Chrome JSON).
    fn as_any(&self) -> &dyn Any;
}

/// Keeps the last `capacity` events in memory. Useful in tests and for
/// "what just happened" inspection without the cost of an unbounded
/// buffer.
#[derive(Debug)]
pub struct RingSink {
    events: VecDeque<Event>,
    capacity: usize,
    /// Events discarded because the ring was full.
    evicted: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics on zero capacity.
    #[must_use]
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "zero-capacity ring sink");
        RingSink {
            events: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
        }
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.iter().copied().collect()
    }

    /// Events dropped because the ring overflowed.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

impl TraceSink for RingSink {
    fn register_track(&mut self, _id: TrackId, _name: &str) {}

    fn record(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(event);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Accumulates events and renders them as Chrome `trace_event` JSON —
/// the format `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
/// load directly. See `docs/TRACING.md` for the full format spec.
///
/// Mapping (stable, relied on by the golden tests):
///
/// * every event carries `pid: 0` (one simulated NIC per trace);
/// * `tid` = the [`TrackId`] of the emitting component, with a
///   `thread_name` metadata record carrying the component name;
/// * `ts` is the cycle count, unscaled: 1 trace µs = 1 cycle;
/// * [`EventKind::Instant`] → phase `"i"` (thread scope),
///   [`EventKind::Complete`] → phase `"X"` with `dur`,
///   [`EventKind::Counter`] → phase `"C"` with `args.value`.
///
/// Rendering sorts events by `(ts, tid)` with a stable sort, so the
/// output is monotonic in `ts` and deterministic for a seeded run.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    tracks: Vec<(TrackId, String)>,
    events: Vec<Event>,
}

impl ChromeTraceSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::default()
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn write_event(out: &mut String, e: &Event) {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{}",
            json::escape(e.name),
            json::escape(e.name.split('.').next().unwrap_or("sim")),
            e.track.0,
            e.ts
        );
        match e.kind {
            EventKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
            EventKind::Complete { dur } => {
                let _ = write!(out, ",\"ph\":\"X\",\"dur\":{dur}");
            }
            EventKind::Counter { .. } => out.push_str(",\"ph\":\"C\""),
        }
        let mut args: Vec<(&str, u64)> = Vec::new();
        if let EventKind::Counter { value } = e.kind {
            args.push(("value", value));
        }
        args.extend(e.args.iter().flatten().copied());
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json::escape(k), v);
            }
            out.push('}');
        }
        out.push('}');
    }

    /// Renders the accumulated trace as a complete Chrome JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].ts, self.events[i].track.0));

        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"1 us = 1 cycle\"},");
        out.push_str("\"traceEvents\":[");
        let mut first = true;
        for (id, name) in &self.tracks {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                id.0,
                json::escape(name)
            );
        }
        for i in order {
            if !first {
                out.push(',');
            }
            first = false;
            Self::write_event(&mut out, &self.events[i]);
        }
        out.push_str("]}");
        out
    }
}

impl TraceSink for ChromeTraceSink {
    fn register_track(&mut self, id: TrackId, name: &str) {
        self.tracks.push((id, name.to_string()));
    }

    fn record(&mut self, event: Event) {
        self.events.push(event);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::{Cycle, Cycles};

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let mut r = RingSink::new(2);
        for i in 0..4u64 {
            r.record(Event::instant(TrackId(1), "x", Cycle(i)));
        }
        let kept = r.events();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].ts, 2);
        assert_eq!(kept[1].ts, 3);
        assert_eq!(r.evicted(), 2);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_ring_rejected() {
        let _ = RingSink::new(0);
    }

    #[test]
    fn chrome_json_is_valid_and_sorted() {
        let mut s = ChromeTraceSink::new();
        s.register_track(TrackId(1), "noc.router(0,0)");
        s.register_track(TrackId(2), "engine.1.\"odd\"");
        // Emitted out of ts order: the completion of a span that
        // started earlier arrives after a later instant.
        s.record(Event::instant(TrackId(2), "sched.drop", Cycle(9)));
        s.record(
            Event::complete(TrackId(1), "engine.service", Cycle(4), Cycles(5)).with_arg("msg", 1),
        );
        s.record(Event::counter(TrackId(1), "sched.depth", Cycle(12), 3));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());

        let out = s.to_json();
        json::validate(&out).unwrap();
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("thread_name"));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"C\""));
        // Sorted: the span (ts 4) precedes the instant (ts 9).
        let span = out.find("engine.service").unwrap();
        let inst = out.find("sched.drop").unwrap();
        assert!(span < inst, "events not ts-sorted:\n{out}");
    }
}
