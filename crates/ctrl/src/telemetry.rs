//! The telemetry change cursor: streaming counter deltas without
//! building a registry.
//!
//! A subscription is a set of counter-name prefixes. Every service step
//! the endpoint *visits* the NIC's metrics through a
//! [`trace::MetricSink`] of its own instead of exporting them into a
//! `MetricsRegistry`:
//!
//! * **Prune.** [`MetricSink::wants`] answers from the prefixes, so a
//!   `tenancy.` subscription never enters `noc.`, `rmt.` or `engine.`;
//!   histograms are ignored without their names being formatted.
//! * **Cursor.** The subscribed counters are remembered *positionally*
//!   — name and last streamed value, in the order the exporter visits
//!   them. The common step walks the visit against that memory,
//!   comparing each unformatted name to the remembered bytes through a
//!   [`fmt::Write`] comparator. A step in which every name is where it
//!   was and every value is what it was allocates nothing and emits
//!   nothing.
//! * **Rebuild.** Only when a subscribed counter shows up where the
//!   memory does not expect it (a vNIC added or removed, a conditional
//!   counter appearing, a fresh `Subscribe`) are names materialised and
//!   previous values looked up by name. A counter that is no longer
//!   exported is forgotten, so one that comes back is streamed in full.
//!
//! Updates leave in counter-name order, one per distinct name with the
//! last visit winning — exactly what iterating a registry produced.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use panic_core::PanicNic;
use sim_core::stats::Histogram;
use trace::MetricSink;

use crate::proto::MetricUpdate;

/// An active subscription and what it last streamed.
#[derive(Debug, Default)]
pub(crate) struct Telemetry {
    /// Subscribed counter-name prefixes (empty: telemetry off).
    subs: Vec<String>,
    /// Subscribed counter names, in exporter visit order.
    names: Vec<String>,
    /// Last streamed value of `names[i]`.
    values: Vec<u64>,
    /// Positions into `names` sorted by name, one per distinct name
    /// (the last visited), i.e. the order and the winners a registry
    /// would give.
    order: Vec<u32>,
    /// This step's values, positional; kept for its capacity.
    seen: Vec<u64>,
    /// Formatting buffer for names the cursor did not expect; kept for
    /// its capacity.
    scratch: String,
}

impl Telemetry {
    /// True when nothing is subscribed.
    pub(crate) fn is_off(&self) -> bool {
        self.subs.is_empty()
    }

    /// Replaces the subscription; everything streamed so far is
    /// forgotten, so the next step baselines every matching counter.
    pub(crate) fn subscribe(&mut self, prefixes: Vec<String>) {
        self.subs = prefixes;
        self.names.clear();
        self.values.clear();
        self.order.clear();
    }

    /// The counters that changed since the last step, in name order.
    /// Empty when nothing did; allocation-free in that case.
    pub(crate) fn step(&mut self, nic: &PanicNic) -> Vec<MetricUpdate> {
        self.seen.clear();
        let mut cursor = Cursor {
            subs: &self.subs,
            names: &self.names,
            seen: &mut self.seen,
            scratch: &mut self.scratch,
            moved: false,
        };
        nic.export_metrics(&mut cursor);
        let moved = cursor.moved || self.seen.len() != self.names.len();
        if !moved {
            if self.seen == self.values {
                return Vec::new();
            }
            // Same counters, new values: `seen` becomes the memory and
            // the old memory is each position's previous value.
            std::mem::swap(&mut self.values, &mut self.seen);
            let prev = &self.seen;
            return self.updates(|i| Some(prev[i]));
        }
        let mut fresh = Collect {
            subs: &self.subs,
            names: Vec::with_capacity(self.names.len()),
            values: Vec::with_capacity(self.names.len()),
            scratch: &mut self.scratch,
        };
        nic.export_metrics(&mut fresh);
        let (names, values) = (fresh.names, fresh.values);
        // Previous values by name (a repeated name keeps its last
        // visit's); names absent from the new visit are dropped here.
        let old: BTreeMap<&str, u64> = self
            .names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
            .collect();
        let prev: Vec<Option<u64>> = names.iter().map(|n| old.get(n.as_str()).copied()).collect();
        self.names = names;
        self.values = values;
        self.order = name_order(&self.names);
        self.updates(|i| prev[i])
    }

    /// One update per distinct counter whose value differs from
    /// `prev(position)`, in name order.
    fn updates(&self, prev: impl Fn(usize) -> Option<u64>) -> Vec<MetricUpdate> {
        self.order
            .iter()
            .filter_map(|&i| {
                let i = i as usize;
                let (value, prev) = (self.values[i], prev(i));
                (prev != Some(value)).then(|| MetricUpdate {
                    name: self.names[i].clone(),
                    value,
                    delta: value.saturating_sub(prev.unwrap_or(0)),
                })
            })
            .collect()
    }

    /// Counters currently remembered (tests: bounded-state check).
    #[cfg(test)]
    pub(crate) fn remembered(&self) -> usize {
        self.names.len()
    }
}

/// Positions of `names` sorted by name, keeping only the last position
/// of each distinct name.
fn name_order(names: &[String]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..names.len() as u32).collect();
    // Stable: equal names stay in visit order, so the last of a run is
    // the last visited.
    order.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
    order.dedup_by(|later, kept| {
        let same = names[*later as usize] == names[*kept as usize];
        if same {
            *kept = *later;
        }
        same
    });
    order
}

/// May a subscription to `subs` read a counter under `subtree`? True
/// when a prefix covers the subtree or lies inside it (the
/// [`MetricSink::wants`] contract).
fn overlaps(subs: &[String], subtree: &str) -> bool {
    subs.iter()
        .any(|p| subtree.starts_with(p.as_str()) || p.starts_with(subtree))
}

/// Does a subscription to `subs` select counter `name`?
fn selects(subs: &[String], name: &str) -> bool {
    subs.iter().any(|p| name.starts_with(p.as_str()))
}

/// A [`fmt::Write`] that accepts exactly the bytes of `rest` and
/// fails on the first byte that differs: comparing an unformatted name
/// to a remembered one costs no buffer and stops early.
struct Expect<'a> {
    rest: &'a [u8],
}

impl fmt::Write for Expect<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.rest = self.rest.strip_prefix(s.as_bytes()).ok_or(fmt::Error)?;
        Ok(())
    }
}

/// Does `name` format to exactly `expected`?
fn formats_to(name: fmt::Arguments<'_>, expected: &str) -> bool {
    let mut w = Expect {
        rest: expected.as_bytes(),
    };
    w.write_fmt(name).is_ok() && w.rest.is_empty()
}

/// The every-step sink: checks the visit against the remembered names
/// and records the values it passes.
struct Cursor<'a> {
    subs: &'a [String],
    names: &'a [String],
    seen: &'a mut Vec<u64>,
    scratch: &'a mut String,
    /// A subscribed counter arrived where another was remembered.
    moved: bool,
}

impl MetricSink for Cursor<'_> {
    fn wants(&self, subtree: &str) -> bool {
        !self.moved && overlaps(self.subs, subtree)
    }

    fn counter(&mut self, name: fmt::Arguments<'_>, value: u64) {
        if self.moved {
            return;
        }
        let expected = self.names.get(self.seen.len());
        if expected.is_some_and(|n| formats_to(name, n)) {
            self.seen.push(value);
            return;
        }
        // Not the counter remembered here: one the subscription does
        // not select (skip it), or the layout moved.
        self.scratch.clear();
        let _ = self.scratch.write_fmt(name);
        self.moved = selects(self.subs, self.scratch);
    }

    fn histogram(&mut self, _name: fmt::Arguments<'_>, _h: &Histogram) {}
}

/// The rebuild sink: materialises every subscribed counter of a visit.
struct Collect<'a> {
    subs: &'a [String],
    names: Vec<String>,
    values: Vec<u64>,
    scratch: &'a mut String,
}

impl MetricSink for Collect<'_> {
    fn wants(&self, subtree: &str) -> bool {
        overlaps(self.subs, subtree)
    }

    fn counter(&mut self, name: fmt::Arguments<'_>, value: u64) {
        self.scratch.clear();
        let _ = self.scratch.write_fmt(name);
        if selects(self.subs, self.scratch) {
            self.names.push(self.scratch.clone());
            self.values.push(value);
        }
    }

    fn histogram(&mut self, _name: fmt::Arguments<'_>, _h: &Histogram) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subs(prefixes: &[&str]) -> Vec<String> {
        prefixes.iter().map(|p| (*p).to_string()).collect()
    }

    #[test]
    fn comparator_matches_whole_names_only() {
        let (a, n) = ("web", 3);
        assert!(formats_to(
            format_args!("tenancy.{a}.tx{n}"),
            "tenancy.web.tx3"
        ));
        assert!(!formats_to(
            format_args!("tenancy.{a}.tx{n}"),
            "tenancy.web.tx"
        ));
        assert!(!formats_to(
            format_args!("tenancy.{a}.tx{n}"),
            "tenancy.web.tx33"
        ));
        assert!(!formats_to(
            format_args!("tenancy.{a}.tx{n}"),
            "tenancy.wex.tx3"
        ));
        assert!(formats_to(format_args!(""), ""));
    }

    #[test]
    fn wants_admits_covering_and_inner_prefixes() {
        // A prefix that covers the subtree…
        assert!(overlaps(&subs(&["tenancy."]), "tenancy.base-kvs."));
        // …and one that lies inside it.
        assert!(overlaps(&subs(&["tenancy.base-kvs.tx"]), "tenancy."));
        assert!(overlaps(&subs(&[""]), "noc."));
        assert!(overlaps(&subs(&["engine.1"]), "engine."));
        assert!(!overlaps(&subs(&["tenancy."]), "noc."));
        assert!(!overlaps(&subs(&["nic."]), "nic0."));
        assert!(!overlaps(&[], "noc."));
    }

    #[test]
    fn name_order_sorts_and_keeps_the_last_duplicate() {
        let names = subs(&["b", "a", "c", "a", "b"]);
        let order = name_order(&names);
        assert_eq!(order, vec![3, 4, 2]);
        assert!(name_order(&[]).is_empty());
    }
}
