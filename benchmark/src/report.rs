//! Turning measurements into the benchmark's two outputs: the
//! contract's one-line JSON result and the detailed record that goes
//! into `results.json` (and that `--compare` reads back).

use std::collections::BTreeMap;

use crate::catalog::{unit_of, END_TO_END};
use crate::e2e::Measurement;
use crate::json::Value;
use crate::layers::Traced;
use crate::stats::Dist;

/// A measured metric: a single value, or a distribution over
/// repetitions whose median is the value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The reported value (the median, for distributions).
    pub value: f64,
    /// The repetitions behind it (`n == 1` for single values).
    pub dist: Dist,
}

impl Metric {
    /// A metric measured once per run.
    #[must_use]
    pub fn single(value: f64) -> Metric {
        Metric {
            value,
            dist: Dist {
                n: 1,
                min: value,
                q1: value,
                median: value,
                q3: value,
                max: value,
            },
        }
    }

    /// A metric reported as the median of its repetitions.
    #[must_use]
    pub fn of(dist: Dist) -> Metric {
        Metric {
            value: dist.median,
            dist,
        }
    }
}

/// The end-to-end metrics of a measurement, in catalogue order.
#[must_use]
pub fn end_to_end(m: &Measurement) -> Vec<(&'static str, Metric)> {
    let values = [
        Metric::of(m.setup_s),
        Metric::of(m.sim_cycles_per_s),
        Metric::of(m.frames_per_s),
        Metric::single(m.peak_rss_mb),
        Metric::single(m.sim.delivered_frac),
        Metric::single(m.sim.goodput_per_kcycle),
        Metric::single(m.sim.latency_p50),
        Metric::single(m.sim.latency_p99),
    ];
    END_TO_END.iter().map(|e| e.name).zip(values).collect()
}

fn metric_value(name: &str, value: f64) -> Value {
    Value::obj([
        ("value", Value::Num(value)),
        (
            "unit",
            Value::str(unit_of(name).expect("catalogued metric")),
        ),
    ])
}

/// The contract's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'static str, f64)>,
) -> String {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(name, v)| (name.to_string(), metric_value(name, v)))
                    .collect(),
            ),
        ),
    ])
    .render()
}

fn dist_members(name: &str, m: &Metric) -> Value {
    Value::obj([
        ("value", Value::Num(m.value)),
        (
            "unit",
            Value::str(unit_of(name).expect("catalogued metric")),
        ),
        ("n", Value::Num(m.dist.n as f64)),
        ("min", Value::Num(m.dist.min)),
        ("q1", Value::Num(m.dist.q1)),
        ("median", Value::Num(m.dist.median)),
        ("q3", Value::Num(m.dist.q3)),
        ("max", Value::Num(m.dist.max)),
    ])
}

fn strings(items: &[String]) -> Value {
    Value::Arr(items.iter().map(Value::str).collect())
}

/// The detailed record of an untraced run.
#[must_use]
pub fn untraced_detail(workload: &str, m: &Measurement) -> Value {
    Value::obj([
        ("name", Value::str(workload)),
        ("correct", Value::Bool(m.gate_failures.is_empty())),
        ("attempted", Value::Num(m.attempted as f64)),
        ("failed", Value::Num(m.failed as f64)),
        ("gate_failures", strings(&m.gate_failures)),
        ("repetitions", Value::Num(m.repetitions as f64)),
        ("latency_samples", Value::Num(m.sim.latency_samples as f64)),
        (
            "end_to_end",
            Value::Obj(
                end_to_end(m)
                    .iter()
                    .map(|(name, metric)| ((*name).to_string(), dist_members(name, metric)))
                    .collect(),
            ),
        ),
        (
            // Rates against the raw wall clock, beside the reference-
            // second rates above: shows what the normalisation did.
            "raw_wall",
            Value::obj([
                (
                    "sim_cycles_per_s",
                    dist_members("sim_cycles_per_s", &Metric::of(m.raw_sim_cycles_per_s)),
                ),
                (
                    "frames_per_s",
                    dist_members("frames_per_s", &Metric::of(m.raw_frames_per_s)),
                ),
            ]),
        ),
    ])
}

/// The detailed record of a traced run.
#[must_use]
pub fn traced_detail(workload: &str, t: &Traced) -> Value {
    let spans = t
        .recorder
        .all_totals()
        .into_iter()
        .map(|(name, totals)| {
            (
                name.to_string(),
                Value::obj([
                    ("count", Value::Num(totals.count as f64)),
                    ("total_s", Value::Num(totals.total_ns as f64 / 1e9)),
                    ("self_s", Value::Num(totals.self_ns as f64 / 1e9)),
                ]),
            )
        })
        .collect();
    Value::obj([
        ("name", Value::str(workload)),
        ("correct", Value::Bool(t.gate_failures.is_empty())),
        ("attempted", Value::Num(t.attempted as f64)),
        ("failed", Value::Num(t.failed as f64)),
        ("gate_failures", strings(&t.gate_failures)),
        (
            "per_layer",
            Value::Obj(
                t.metrics
                    .iter()
                    .map(|(name, v)| ((*name).to_string(), metric_value(name, *v)))
                    .collect(),
            ),
        ),
        ("harness_spans", Value::Obj(spans)),
    ])
}

/// Reads one workload's end-to-end metrics back out of a detailed
/// record (what `--compare` works from).
///
/// # Errors
/// Names the first missing or malformed member.
pub fn read_end_to_end(record: &Value) -> Result<BTreeMap<String, Metric>, String> {
    let members = record
        .get("end_to_end")
        .and_then(Value::as_obj)
        .ok_or("record has no `end_to_end` object")?;
    let mut out = BTreeMap::new();
    for (name, v) in members {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("`{name}` lacks a numeric `{key}`"))
        };
        out.insert(
            name.clone(),
            Metric {
                value: num("value")?,
                dist: Dist {
                    n: num("n")? as usize,
                    min: num("min")?,
                    q1: num("q1")?,
                    median: num("median")?,
                    q3: num("q3")?,
                    max: num("max")?,
                },
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, [("setup_s", 0.5), ("sim_cycles_per_s", 1e6)]);
        trace::json::validate(&line).unwrap();
        let doc = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.5));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn end_to_end_record_round_trips() {
        let metric = Metric::of(crate::stats::dist(&[1.0, 2.0, 3.0, 4.0, 5.0]));
        let record = Value::obj([(
            "end_to_end",
            Value::obj([(
                "sim_cycles_per_s",
                dist_members("sim_cycles_per_s", &metric),
            )]),
        )]);
        let back = read_end_to_end(&crate::json::parse(&record.render_pretty()).unwrap()).unwrap();
        assert_eq!(back["sim_cycles_per_s"], metric);
        assert!(read_end_to_end(&Value::Null).is_err());
    }
}
