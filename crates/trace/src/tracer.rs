//! The [`Tracer`] handle components emit events through.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use sim_core::time::{Cycle, Cycles};

use crate::event::{Event, TrackId};
use crate::sink::{ChromeTraceSink, RingSink, TraceSink};

struct Inner {
    sink: Box<dyn TraceSink>,
    /// Interned track names → ids (stable across re-attachment, so a
    /// component attached twice keeps one track).
    tracks: BTreeMap<String, TrackId>,
    next_track: u32,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("tracks", &self.tracks.len())
            .finish_non_exhaustive()
    }
}

/// A cheap, cloneable handle into one trace sink.
///
/// Every instrumented component (router mesh, engine tile, scheduling
/// queue, RMT pipeline, baselines) holds a `Tracer`. The default is
/// [`Tracer::disabled`]: a `None` inside, so every emit method is a
/// single branch and **no event is ever constructed** — the "zero
/// cost when disabled" contract.
///
/// Clones share the same sink behind a mutex, so a `Tracer` (and any
/// component holding one — a NIC, a rack) is `Send` and may be built on
/// one thread and run on another. The simulation itself is
/// single-threaded, so the lock is uncontended; the disabled tracer
/// never takes it.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Tracer {
    /// Locks the shared state. The mutex can only be poisoned by a
    /// panic mid-emit, at which point the run is already lost —
    /// propagate rather than reason about half-written traces.
    fn lock(inner: &Arc<Mutex<Inner>>) -> MutexGuard<'_, Inner> {
        inner.lock().expect("tracer poisoned by an earlier panic")
    }
    /// The disabled tracer: drops everything, allocates nothing.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer writing into the given sink.
    #[must_use]
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Inner {
                sink,
                tracks: BTreeMap::new(),
                // TrackId(0) is reserved for "untracked".
                next_track: 1,
            }))),
        }
    }

    /// A tracer recording the last `capacity` events in a [`RingSink`].
    #[must_use]
    pub fn ring(capacity: usize) -> Tracer {
        Tracer::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// A tracer accumulating Chrome `trace_event` JSON
    /// (see [`ChromeTraceSink`]).
    #[must_use]
    pub fn chrome() -> Tracer {
        Tracer::with_sink(Box::new(ChromeTraceSink::new()))
    }

    /// True when events are being recorded. Components may use this to
    /// skip *computing* values that only feed the trace.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Interns `name` as a track (a Chrome `tid`; one per component)
    /// and returns its id. Idempotent: the same name always maps to the
    /// same track. On a disabled tracer this returns the reserved
    /// [`TrackId`]`(0)` without allocating.
    #[must_use]
    pub fn track(&self, name: &str) -> TrackId {
        let Some(inner) = &self.inner else {
            return TrackId(0);
        };
        let mut inner = Tracer::lock(inner);
        if let Some(&id) = inner.tracks.get(name) {
            return id;
        }
        let id = TrackId(inner.next_track);
        inner.next_track += 1;
        inner.tracks.insert(name.to_string(), id);
        inner.sink.register_track(id, name);
        id
    }

    /// Emits a pre-built event. Prefer the shape-specific helpers.
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            Tracer::lock(inner).sink.record(event);
        }
    }

    /// Emits an instant (point) event.
    pub fn instant(&self, track: TrackId, name: &'static str, now: Cycle) {
        if self.inner.is_some() {
            self.emit(Event::instant(track, name, now));
        }
    }

    /// Emits an instant event with one argument.
    pub fn instant_arg(
        &self,
        track: TrackId,
        name: &'static str,
        now: Cycle,
        key: &'static str,
        value: u64,
    ) {
        if self.inner.is_some() {
            self.emit(Event::instant(track, name, now).with_arg(key, value));
        }
    }

    /// Emits a complete (span) event covering `[start, start + dur]`.
    pub fn complete(&self, track: TrackId, name: &'static str, start: Cycle, dur: Cycles) {
        if self.inner.is_some() {
            self.emit(Event::complete(track, name, start, dur));
        }
    }

    /// Emits a complete event with one argument.
    pub fn complete_arg(
        &self,
        track: TrackId,
        name: &'static str,
        start: Cycle,
        dur: Cycles,
        key: &'static str,
        value: u64,
    ) {
        if self.inner.is_some() {
            self.emit(Event::complete(track, name, start, dur).with_arg(key, value));
        }
    }

    /// Emits a counter sample.
    pub fn counter(&self, track: TrackId, name: &'static str, now: Cycle, value: u64) {
        if self.inner.is_some() {
            self.emit(Event::counter(track, name, now, value));
        }
    }

    /// If the sink is a [`ChromeTraceSink`], renders the accumulated
    /// trace as Chrome JSON. `None` for other sinks or when disabled.
    #[must_use]
    pub fn chrome_json(&self) -> Option<String> {
        let inner = Tracer::lock(self.inner.as_ref()?);
        inner
            .sink
            .as_any()
            .downcast_ref::<ChromeTraceSink>()
            .map(ChromeTraceSink::to_json)
    }

    /// If the sink is a [`RingSink`], returns the retained events
    /// (oldest first). `None` for other sinks or when disabled.
    #[must_use]
    pub fn ring_snapshot(&self) -> Option<Vec<Event>> {
        let inner = Tracer::lock(self.inner.as_ref()?);
        inner
            .sink
            .as_any()
            .downcast_ref::<RingSink>()
            .map(RingSink::events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.track("anything"), TrackId(0));
        t.instant(TrackId(0), "x", Cycle(0));
        t.counter(TrackId(0), "x", Cycle(0), 1);
        assert!(t.chrome_json().is_none());
        assert!(t.ring_snapshot().is_none());
        // Default is disabled.
        assert!(!Tracer::default().enabled());
    }

    #[test]
    fn track_interning_is_idempotent_and_dense() {
        let t = Tracer::ring(8);
        let a = t.track("a");
        let b = t.track("b");
        assert_ne!(a, b);
        assert_eq!(t.track("a"), a);
        assert_eq!(a, TrackId(1), "ids start at 1; 0 is reserved");
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::ring(8);
        let clone = t.clone();
        let track = clone.track("shared");
        clone.instant(track, "x", Cycle(1));
        t.instant(track, "y", Cycle(2));
        let events = t.ring_snapshot().unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn chrome_tracer_round_trips_to_valid_json() {
        let t = Tracer::chrome();
        let track = t.track("engine.0");
        t.complete_arg(track, "engine.service", Cycle(0), Cycles(3), "msg", 9);
        t.instant_arg(track, "sched.push", Cycle(1), "rank", 500);
        let out = t.chrome_json().unwrap();
        json::validate(&out).unwrap();
        assert!(out.contains("\"rank\":500"));
    }
}
