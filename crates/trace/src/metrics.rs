//! The [`MetricsRegistry`]: the uniform end-of-run metrics schema.
//!
//! Components keep their own cheap counters and histograms while
//! simulating (see [`sim_core::stats`]); at the end of a run each
//! exports them into one registry under dotted names
//! (`component.instance.metric`), so every experiment — PANIC and the
//! §2.3 baselines alike — reports the *same* histogram schema:
//! `count/mean/min/p50/p90/p99/p999/max`, cycle-valued.
//!
//! Export is a *visit*: every layer's `export_metrics` is generic over
//! a [`MetricSink`] and hands it each metric in turn. The registry is
//! the sink that keeps everything; a sink that wants less (the control
//! endpoint's telemetry cursor) prunes whole subtrees through
//! [`MetricSink::wants`] and never pays for a name it does not read.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use sim_core::stats::Histogram;

/// Where a layer's `export_metrics` sends its metrics.
///
/// Names arrive as [`fmt::Arguments`] — unformatted — so a sink decides
/// what a name costs: [`MetricsRegistry`] renders it into a map key, a
/// streaming sink can compare it against bytes it already holds, and a
/// sink that ignores histograms never formats a histogram's name. An
/// exporter that already holds a counter's whole name as a string (a
/// layer that built its names when the component was created) hands it
/// over through [`MetricSink::counter_str`] instead, which a sink may
/// implement to skip `fmt` altogether; the default formats the string
/// into [`MetricSink::counter`], so implementing `counter` alone is
/// always enough.
///
/// # The `wants` contract
///
/// Before visiting a subtree an exporter asks `wants("noc.")` (the
/// subtree's name prefix, trailing dot included) and skips the subtree
/// on `false`. A sink answering `false` promises it would have ignored
/// every metric whose name starts with that prefix. `true` promises
/// nothing: the sink still sees, and may still ignore, each metric of
/// the subtree, so a sink filtering by name prefixes must answer `true`
/// both when a filter covers the subtree (`"tenancy."` covers
/// `"tenancy.web."`) and when a filter lies inside it
/// (`"tenancy.web.tx"` lies inside `"tenancy."`).
///
/// # Example: a sink that only counts
///
/// ```
/// use trace::{MetricSink, MetricsRegistry};
///
/// #[derive(Default)]
/// struct CountNoc(usize);
/// impl MetricSink for CountNoc {
///     fn wants(&self, subtree: &str) -> bool {
///         subtree.starts_with("noc.")
///     }
///     fn counter(&mut self, _name: std::fmt::Arguments<'_>, _value: u64) {
///         self.0 += 1;
///     }
///     fn histogram(&mut self, _: std::fmt::Arguments<'_>, _: &sim_core::stats::Histogram) {}
/// }
///
/// // An exporter, generic over its sink like every `export_metrics`.
/// fn export<S: MetricSink + ?Sized>(m: &mut S) {
///     if m.wants("noc.") {
///         m.counter(format_args!("noc.{}", "flit_hops"), 12);
///     }
///     if m.wants("rmt.") {
///         m.counter(format_args!("rmt.{}", "accepted"), 3);
///     }
/// }
///
/// let mut n = CountNoc::default();
/// export(&mut n);
/// assert_eq!(n.0, 1);
///
/// let mut all = MetricsRegistry::new();
/// export(&mut all);
/// assert_eq!(all.counter("rmt.accepted"), Some(3));
/// ```
pub trait MetricSink {
    /// May this sink read a metric whose name starts with `subtree`?
    /// See the trait docs for what each answer promises.
    fn wants(&self, subtree: &str) -> bool {
        let _ = subtree;
        true
    }

    /// Counter `name` currently reads `value`.
    fn counter(&mut self, name: fmt::Arguments<'_>, value: u64);

    /// [`MetricSink::counter`] for a name the exporter already holds
    /// as a string. Must leave the sink as
    /// `counter(format_args!("{name}"), value)` would — which is the
    /// default.
    fn counter_str(&mut self, name: &str, value: u64) {
        self.counter(format_args!("{name}"), value);
    }

    /// Histogram `name` currently holds the samples of `h`.
    fn histogram(&mut self, name: fmt::Arguments<'_>, h: &Histogram);
}

/// Named counters and cycle histograms with a stable JSON export.
///
/// Filled through its [`MetricSink`] impl — by a layer's
/// `export_metrics(&mut registry)`, or directly with
/// `MetricSink::counter(&mut registry, format_args!("a.b"), 1)` — and
/// read back through the inherent getters.
///
/// Names are dotted paths (`"nic.tx_wire"`,
/// `"engine.crc.service_cycles"`); the registry imposes no hierarchy
/// beyond sorting, but `docs/TRACING.md` documents the naming
/// conventions the simulator uses.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Current value of counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Histogram `name`, if any samples were recorded or merged.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as JSON (the `--metrics out.json` format;
    /// schema documented in `docs/TRACING.md`).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"schema\":\"panic-metrics/v1\",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", crate::json::escape(k), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = h.summary();
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"mean\":{:.3},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
                crate::json::escape(k),
                s.count,
                s.mean,
                s.min,
                s.p50,
                s.p90,
                s.p99,
                s.p999,
                s.max
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders the registry as an aligned markdown report (what
    /// `repro --metrics -` prints).
    #[must_use]
    pub fn render_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("## Metrics\n\n");
        if !self.counters.is_empty() {
            let w = self.counters.keys().map(String::len).max().unwrap_or(0);
            out.push_str("### Counters\n\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<w$}  {v}");
            }
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            let w = self
                .histograms
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(0)
                .max(9);
            out.push_str("### Histograms (cycles)\n\n");
            let _ = writeln!(
                out,
                "  {:<w$}  {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
                "histogram", "count", "mean", "min", "p50", "p90", "p99", "max"
            );
            for (k, h) in &self.histograms {
                let s = h.summary();
                let _ = writeln!(
                    out,
                    "  {k:<w$}  {:>9} {:>9.1} {:>7} {:>7} {:>7} {:>7} {:>7}",
                    s.count, s.mean, s.min, s.p50, s.p90, s.p99, s.max
                );
            }
        }
        out
    }
}

impl MetricSink for MetricsRegistry {
    fn counter(&mut self, name: fmt::Arguments<'_>, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    fn counter_str(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Merges, so exporting two components under one name adds their
    /// samples; the first export of a name is a plain copy.
    fn histogram(&mut self, name: fmt::Arguments<'_>, h: &Histogram) {
        match self.histograms.entry(name.to_string()) {
            Entry::Vacant(slot) => {
                slot.insert(h.clone());
            }
            Entry::Occupied(mut slot) => slot.get_mut().merge(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn hist(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    fn set(m: &mut MetricsRegistry, name: &str, value: u64) {
        MetricSink::counter(m, format_args!("{name}"), value);
    }

    fn merge(m: &mut MetricsRegistry, name: &str, samples: &[u64]) {
        MetricSink::histogram(m, format_args!("{name}"), &hist(samples));
    }

    #[test]
    fn counter_writes_are_last_write_wins() {
        let mut m = MetricsRegistry::new();
        set(&mut m, "a.c", 7);
        set(&mut m, "a.c", 9);
        MetricSink::counter(&mut m, format_args!("a.{}", "b"), 5);
        assert_eq!(m.counter("a.b"), Some(5));
        assert_eq!(m.counter("a.c"), Some(9));
        assert_eq!(m.counter("missing"), None);
    }

    /// A sink that implements `counter` alone and keeps what it is
    /// told, so strings reach it through the default `counter_str`.
    #[derive(Default, PartialEq, Debug)]
    struct Told(Vec<(String, u64)>);

    impl MetricSink for Told {
        fn counter(&mut self, name: fmt::Arguments<'_>, value: u64) {
            self.0.push((name.to_string(), value));
        }
        fn histogram(&mut self, _: fmt::Arguments<'_>, _: &Histogram) {}
    }

    /// Names a `counter_str` must carry untouched: empty, as long as a
    /// vNIC name may be, full of what `fmt` treats specially, repeated,
    /// and seeded random ones over that same alphabet.
    fn awkward_names() -> Vec<String> {
        let mut names: Vec<String> = ["", "{}", "{name}", "}{", "a.b.", "..", "{{x}}", "a.b."]
            .iter()
            .map(|n| (*n).to_string())
            .collect();
        names.push("n".repeat(255));
        let alphabet: Vec<char> = "{}.%\\\"aé tenancy".chars().collect();
        let mut rng = sim_core::rng::SimRng::new(0x5EED);
        for _ in 0..200 {
            let len = rng.gen_range(24) as usize;
            names.push(
                (0..len)
                    .map(|_| *rng.choose(&alphabet).expect("non-empty"))
                    .collect(),
            );
        }
        names
    }

    #[test]
    fn counter_str_leaves_a_sink_as_counter_does() {
        let names = awkward_names();
        let (mut native, mut formatted) = (MetricsRegistry::new(), MetricsRegistry::new());
        let (mut by_default, mut told) = (Told::default(), Told::default());
        for (value, name) in (0u64..).zip(&names) {
            native.counter_str(name, value);
            MetricSink::counter(&mut formatted, format_args!("{name}"), value);
            by_default.counter_str(name, value);
            told.counter(format_args!("{name}"), value);
            assert_eq!(told.0.last(), Some(&(name.clone(), value)));
        }
        assert_eq!(by_default, told);
        assert_eq!(native.to_json(), formatted.to_json());
        assert!(native.counters().eq(formatted.counters()));
        assert_eq!(native.counter("a.b."), Some(7), "the last write won");
    }

    #[test]
    fn histograms_record_and_merge() {
        let mut m = MetricsRegistry::new();
        merge(&mut m, "lat", &[100, 300]);
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
        MetricSink::histogram(&mut m, format_args!("l{}", "at"), &hist(&[200]));
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn registry_wants_every_subtree() {
        let m = MetricsRegistry::new();
        assert!(m.wants("noc."));
        assert!(m.wants(""));
    }

    #[test]
    fn json_export_is_valid_and_sorted() {
        let mut m = MetricsRegistry::new();
        set(&mut m, "z.last", 1);
        set(&mut m, "a.first", 2);
        merge(&mut m, "engine.\"q\".wait", &[50]);
        let j = m.to_json();
        json::validate(&j).unwrap();
        assert!(j.contains("panic-metrics/v1"));
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        assert!(j.contains("\"p999\""));
    }

    #[test]
    fn markdown_report_lists_everything() {
        let mut m = MetricsRegistry::new();
        set(&mut m, "nic.rx", 4);
        merge(&mut m, "svc", &[10]);
        let md = m.render_markdown();
        assert!(md.contains("### Counters"));
        assert!(md.contains("nic.rx"));
        assert!(md.contains("### Histograms"));
        assert!(md.contains("svc"));
    }

    #[test]
    fn iterators_are_name_ordered() {
        let mut m = MetricsRegistry::new();
        set(&mut m, "b", 1);
        set(&mut m, "a", 1);
        merge(&mut m, "y", &[1]);
        merge(&mut m, "x", &[1]);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
        let names: Vec<&str> = m.histograms().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}
