//! # trace — cycle-level observability for the PANIC simulator
//!
//! The paper's central quantitative claims are about *where cycles go*:
//! NoC hop latency (§3.1.2: "the routers add one cycle of latency at
//! each hop"), per-engine service times and chain amplification
//! (Table 3), and scheduler pull latency (§3.1.3). End-of-run
//! aggregates can state those numbers but cannot let a reader *inspect*
//! them. This crate is the shared instrumentation layer that every
//! simulation crate (NoC routers, engine tiles, schedulers, the RMT
//! pipeline, and the §2.3 baselines) threads its events through:
//!
//! * [`Tracer`] — a cheap, cloneable handle components emit events
//!   into. A disabled tracer ([`Tracer::disabled`]) is a single
//!   `Option` check per call site: zero allocation, no formatting, no
//!   measurable slowdown.
//! * [`TraceSink`] — where events go: [`NullSink`] (discard),
//!   [`RingSink`] (bounded in-memory ring for tests and ad-hoc
//!   inspection), or [`ChromeTraceSink`] (Chrome `trace_event` JSON
//!   loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)).
//! * [`MetricsRegistry`] — named counters and cycle histograms
//!   (p50/p99/max), the uniform end-of-run schema every experiment
//!   reports through (`repro ... --metrics out.json`).
//! * [`MetricSink`] — what every layer's `export_metrics` writes to.
//!   The registry is one sink; a streaming consumer implements its own
//!   and prunes the subtrees it does not read.
//!
//! The full trace format — event taxonomy, pid/tid mapping, and the
//! histogram JSON schema — is specified in `docs/TRACING.md`.
//!
//! ## Example: tracing into a ring buffer
//!
//! ```
//! use sim_core::time::{Cycle, Cycles};
//! use trace::Tracer;
//!
//! let tracer = Tracer::ring(64);
//! let track = tracer.track("engine.0.crc");
//! tracer.complete(track, "engine.service", Cycle(10), Cycles(4));
//! tracer.instant(track, "sched.drop", Cycle(14));
//!
//! let events = tracer.ring_snapshot().expect("ring sink");
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].name, "engine.service");
//! ```
//!
//! ## Example: Chrome-trace export
//!
//! ```
//! use sim_core::time::{Cycle, Cycles};
//! use trace::{json, Tracer};
//!
//! let tracer = Tracer::chrome();
//! let track = tracer.track("noc.router(1,1)");
//! tracer.instant_arg(track, "noc.hop", Cycle(3), "msg", 7);
//! let out = tracer.chrome_json().expect("chrome sink");
//! assert!(out.contains("\"traceEvents\""));
//! json::validate(&out).expect("well-formed JSON");
//! ```
//!
//! ## Example: the metrics registry
//!
//! ```
//! use sim_core::stats::Histogram;
//! use trace::{MetricSink, MetricsRegistry};
//!
//! let mut service = Histogram::new();
//! for v in [10, 20, 30] {
//!     service.record(v);
//! }
//! // What a component's `export_metrics(&mut m)` does:
//! let mut m = MetricsRegistry::new();
//! MetricSink::counter(&mut m, format_args!("nic.tx_wire"), 3);
//! MetricSink::histogram(&mut m, format_args!("engine.{}.service", "crc"), &service);
//! assert_eq!(m.counter("nic.tx_wire"), Some(3));
//! assert_eq!(m.histogram("engine.crc.service").unwrap().p50(), 20);
//! assert!(m.to_json().contains("\"p99\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod tracer;

pub use event::{Event, EventKind, TrackId};
pub use metrics::{MetricSink, MetricsRegistry};
pub use sink::{ChromeTraceSink, NullSink, RingSink, TraceSink};
pub use tracer::Tracer;
