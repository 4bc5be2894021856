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
//!   comparing every name to the remembered bytes: a name that arrives
//!   as a string ([`MetricSink::counter_str`] — a layer that built its
//!   names once, like `tenancy` — or a literal) is a length test and a
//!   `memcmp`; only a name with arguments still to format goes through
//!   a [`fmt::Write`] comparator. A step in which every name is where
//!   it was and every value is what it was allocates nothing and emits
//!   nothing.
//! * **Rebuild.** Only when a subscribed counter shows up where the
//!   memory does not expect it (a vNIC added or removed, a conditional
//!   counter appearing, a fresh `Subscribe`) are names materialised and
//!   previous values looked up by name. A counter that is no longer
//!   exported is forgotten, so one that comes back is streamed in full.
//!
//! Updates leave in counter-name order, one per distinct name with the
//! last visit winning — exactly what iterating a registry produced —
//! as borrowed `(name, value, delta)` triples the endpoint encodes
//! straight into a frame.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use panic_core::PanicNic;
use sim_core::stats::Histogram;
use trace::MetricSink;

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

    /// The counters that changed since the last step, as `(name,
    /// value, delta)` in name order. `None` — and no allocation — when
    /// every subscribed counter is where it was with the value it had;
    /// `Some` of nothing when what changed is not a distinct name's
    /// winning visit.
    pub(crate) fn step(
        &mut self,
        nic: &PanicNic,
    ) -> Option<impl Iterator<Item = (&str, u64, u64)> + '_> {
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
                return None;
            }
            // Same counters, new values: `seen` becomes the memory and
            // the old memory is each position's previous value.
            std::mem::swap(&mut self.values, &mut self.seen);
            return Some(self.updates(Prev::SameLayout(&self.seen)));
        }
        let mut fresh = Collect {
            subs: &self.subs,
            names: Vec::with_capacity(self.names.len()),
            values: Vec::with_capacity(self.names.len()),
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
        Some(self.updates(Prev::Rebuilt(prev)))
    }

    /// One `(name, value, delta)` per distinct counter whose value
    /// differs from `prev.at(position)`, in name order.
    fn updates<'a>(&'a self, prev: Prev<'a>) -> impl Iterator<Item = (&'a str, u64, u64)> + 'a {
        self.order.iter().filter_map(move |&i| {
            let i = i as usize;
            let (value, prev) = (self.values[i], prev.at(i));
            (prev != Some(value)).then(|| {
                let delta = value.saturating_sub(prev.unwrap_or(0));
                (self.names[i].as_str(), value, delta)
            })
        })
    }

    /// Counters currently remembered (tests: bounded-state check).
    #[cfg(test)]
    pub(crate) fn remembered(&self) -> usize {
        self.names.len()
    }
}

/// What each remembered position last streamed, going into a step.
enum Prev<'a> {
    /// The layout did not move: every position has a previous value.
    SameLayout(&'a [u64]),
    /// The layout was rebuilt: a position whose name the old layout
    /// did not hold has none.
    Rebuilt(Vec<Option<u64>>),
}

impl Prev<'_> {
    fn at(&self, i: usize) -> Option<u64> {
        match self {
            Prev::SameLayout(values) => Some(values[i]),
            Prev::Rebuilt(values) => values[i],
        }
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
        // A literal name is already a string.
        if let Some(name) = name.as_str() {
            return self.counter_str(name, value);
        }
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

    fn counter_str(&mut self, name: &str, value: u64) {
        if self.moved {
            return;
        }
        let expected = self.names.get(self.seen.len());
        if expected.is_some_and(|n| n == name) {
            self.seen.push(value);
            return;
        }
        // As in `counter`: unselected, or the layout moved.
        self.moved = selects(self.subs, name);
    }

    fn histogram(&mut self, _name: fmt::Arguments<'_>, _h: &Histogram) {}
}

/// The rebuild sink: materialises every subscribed counter of a visit.
struct Collect<'a> {
    subs: &'a [String],
    names: Vec<String>,
    values: Vec<u64>,
}

impl MetricSink for Collect<'_> {
    fn wants(&self, subtree: &str) -> bool {
        overlaps(self.subs, subtree)
    }

    fn counter(&mut self, name: fmt::Arguments<'_>, value: u64) {
        self.counter_str(&name.to_string(), value);
    }

    fn counter_str(&mut self, name: &str, value: u64) {
        if selects(self.subs, name) {
            self.names.push(name.to_owned());
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

    /// Runs `visit` over a [`Cursor`] remembering `names`; returns what
    /// it `(saw, concluded about the layout)`.
    fn cursor_over(
        subs: &[String],
        names: &[String],
        visit: impl FnOnce(&mut Cursor<'_>),
    ) -> (Vec<u64>, bool) {
        let (mut seen, mut scratch) = (Vec::new(), String::new());
        let mut cursor = Cursor {
            subs,
            names,
            seen: &mut seen,
            scratch: &mut scratch,
            moved: false,
        };
        visit(&mut cursor);
        let moved = cursor.moved;
        (seen, moved)
    }

    /// What a [`Collect`] keeps of `visit`.
    fn collected(subs: &[String], visit: impl FnOnce(&mut Collect<'_>)) -> (Vec<String>, Vec<u64>) {
        let mut collect = Collect {
            subs,
            names: Vec::new(),
            values: Vec::new(),
        };
        visit(&mut collect);
        (collect.names, collect.values)
    }

    /// A name handed over as a string, as a literal and as arguments
    /// still to format is the same name to both sinks: accepted only
    /// when it is the whole remembered name, byte for byte.
    #[test]
    fn a_name_is_compared_the_same_however_it_arrives() {
        let filters = subs(&["tenancy.", "nic."]);
        let remembered = subs(&["tenancy.web.tx", "nic.rx_frames", "tenancy.{}.tx"]);
        // (visited second, still the remembered layout?) — as long as
        // the remembered name in every row but the last two.
        let second = [
            ("nic.rx_frames", true),
            ("nic.rx_framez", false),
            ("nic.tx_frames", false),
            ("noc.rx_frames", true), // unselected: skipped, not a move
            ("nic.rx_frame", false),
            ("nic.rx_frames.", false),
        ];
        for (name, same) in second {
            let by_str = cursor_over(&filters, &remembered, |c| {
                c.counter_str("tenancy.web.tx", 1);
                c.counter_str(name, 2);
            });
            let by_fmt = cursor_over(&filters, &remembered, |c| {
                c.counter(format_args!("tenancy.{}.tx", "web"), 1);
                c.counter(format_args!("{name}"), 2);
            });
            assert_eq!(by_str, by_fmt, "{name}");
            assert_eq!(by_str.1, !same, "{name}");
            assert_eq!(
                collected(&filters, |c| c.counter_str(name, 2)),
                collected(&filters, |c| c.counter(format_args!("{name}"), 2)),
                "{name}"
            );
        }
        // Braces in a remembered name are bytes, not placeholders.
        let (seen, moved) = cursor_over(&filters, &remembered[2..], |c| {
            c.counter_str("tenancy.{}.tx", 9);
        });
        assert_eq!((seen, moved), (vec![9], false));
    }

    /// A literal name takes `counter`'s `as_str` road — and is still
    /// compared, not trusted to be where it was.
    #[test]
    fn a_literal_name_is_compared_not_trusted() {
        let filters = subs(&["nic."]);
        let remembered = subs(&["nic.rx_frames"]);
        let hit = cursor_over(&filters, &remembered, |c| {
            c.counter(format_args!("nic.rx_frames"), 4);
        });
        assert_eq!(hit, (vec![4], false));
        let miss = cursor_over(&filters, &remembered, |c| {
            c.counter(format_args!("nic.tx_frames"), 4);
        });
        assert_eq!(miss, (vec![], true));
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
