//! The harness's own tracer: wall-clock spans around every call the
//! benchmark makes into a layer.
//!
//! This PR measures the simulator *from outside*, so spans live here
//! and not in the crates under test. A span is (name, start, end,
//! parent, workload id). Spans stay in memory and are written as
//! Chrome `trace_event` JSON when the run ends. *Self time* of a span
//! is its duration minus the part its child spans cover; it is
//! accumulated per span name as spans close, so it stays exact even
//! once the per-span store is full.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept individually for `trace.json`. `ctl_churn` records four
/// spans per simulated cycle; beyond this many, spans still count in
/// the per-name totals but are not stored one by one.
const STORE_CAP: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing stored span, if any.
    parent: Option<u32>,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Where this span will land in the store (None past the cap).
    slot: Option<u32>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times (duration minus children), nanoseconds.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, NameTotals>,
}

/// Records spans when enabled; costs one branch per span when not.
#[derive(Debug)]
pub struct Recorder {
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
}

impl Recorder {
    /// A recorder that records nothing (the untraced run).
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recording recorder (the traced run).
    #[must_use]
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(RefCell::new(Inner {
                epoch: Instant::now(),
                stack: Vec::new(),
                spans: Vec::new(),
                totals: BTreeMap::new(),
            })),
        }
    }

    /// Opens a span named `name`, child of the innermost open span.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            let slot = (inner.spans.len() < STORE_CAP).then(|| {
                let parent = inner.stack.iter().rev().find_map(|o| o.slot);
                inner.spans.push(Span {
                    name,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                });
                (inner.spans.len() - 1) as u32
            });
            let start_ns = inner.epoch.elapsed().as_nanos() as u64;
            inner.stack.push(Open {
                name,
                start_ns,
                child_ns: 0,
                slot,
            });
        }
        SpanGuard { rec: self }
    }

    fn close(&self) {
        let Some(cell) = &self.inner else { return };
        let mut inner = cell.borrow_mut();
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let open = inner.stack.pop().expect("span closed without an open span");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = inner.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(slot) = open.slot {
            let s = &mut inner.spans[slot as usize];
            s.start_ns = open.start_ns;
            s.end_ns = end_ns;
        }
    }

    /// Totals of the spans named `name` (zero if none closed).
    #[must_use]
    pub fn totals(&self, name: &str) -> NameTotals {
        self.inner
            .as_ref()
            .and_then(|c| c.borrow().totals.get(name).copied())
            .unwrap_or_default()
    }

    /// Every span name seen, with its totals, in name order.
    #[must_use]
    pub fn all_totals(&self) -> Vec<(&'static str, NameTotals)> {
        self.inner.as_ref().map_or_else(Vec::new, |c| {
            c.borrow().totals.iter().map(|(k, v)| (*k, *v)).collect()
        })
    }

    /// The stored spans as Chrome `trace_event` JSON ("X" complete
    /// events; `tid` is the workload id, `args.id`/`args.parent` link a
    /// span to the span that caused it). Load it in Perfetto.
    #[must_use]
    pub fn chrome_json(&self, workload: &str, workload_id: u32) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{workload_id},\
             \"args\":{{\"name\":\"{}\"}}}}",
            trace::json::escape(workload)
        );
        if let Some(cell) = &self.inner {
            for (i, s) in cell.borrow().spans.iter().enumerate() {
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{workload_id},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                    trace::json::escape(s.name),
                    s.start_ns as f64 / 1e3,
                    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                    s.parent.map_or(-1, i64::from),
                );
            }
        }
        out.push_str("]}");
        out
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            spin(200_000);
            for _ in 0..2 {
                let _inner = rec.span("inner");
                spin(300_000);
            }
        }
        let (outer, inner) = (rec.totals("outer"), rec.totals("inner"));
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(inner.self_ns, inner.total_ns, "leaves are all self time");
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 200_000 && inner.total_ns >= 600_000);
    }

    #[test]
    fn chrome_json_is_valid_and_links_parents() {
        let rec = Recorder::enabled();
        {
            let _a = rec.span("a");
            let _b = rec.span("b");
        }
        let json = rec.chrome_json("w", 3);
        trace::json::validate(&json).expect("valid JSON");
        let doc = crate::json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3, "metadata + two spans");
        let parent_of = |i: usize| {
            events[i]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64()
        };
        assert_eq!(parent_of(1), Some(-1.0));
        assert_eq!(parent_of(2), Some(0.0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        {
            let _s = rec.span("x");
        }
        assert_eq!(rec.totals("x"), NameTotals::default());
        assert!(rec.all_totals().is_empty());
    }
}
