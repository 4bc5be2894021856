//! `--compare A.json B.json`: one verdict per workload × end-to-end
//! metric. Later performance issues use this tool unchanged; running
//! it on two result files of the same commit is the A/A check.
//!
//! Verdicts, for B against A:
//!
//! * simulated-result metrics are exact per seed — with equal seeds
//!   any difference is `better` or `worse`, to the digit;
//! * a host-time metric is `unresolved` when either side's quartile
//!   spread exceeds the metric's bound, unless every repetition of B
//!   beats every repetition of A (then `better`) or loses to it
//!   (`worse`);
//! * otherwise `worse` / `better` when the medians differ by more
//!   than the bound in that direction, else `same`.

use std::fmt::Write as _;

use crate::catalog::{Better, EndToEnd, END_TO_END};
use crate::json::Value;
use crate::report::{read_end_to_end, Metric};

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// B is better by more than the bound (or to the digit, if exact).
    Better,
    /// B is worse by more than the bound (or to the digit, if exact).
    Worse,
    /// Run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed relative change of B against A, positive = improvement.
fn improvement(spec: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    match spec.better {
        Better::Higher => change,
        Better::Lower => -change,
    }
}

/// Decides one metric. `same_seed` enables the to-the-digit rule for
/// simulated-result metrics.
#[must_use]
pub fn judge(spec: &EndToEnd, a: &Metric, b: &Metric, same_seed: bool) -> Verdict {
    let gain = improvement(spec, a.value, b.value);
    if spec.exact_per_seed && same_seed {
        return match gain {
            g if g > 0.0 => Verdict::Better,
            g if g < 0.0 => Verdict::Worse,
            _ => Verdict::Same,
        };
    }
    if a.dist.n > 1 && b.dist.n > 1 {
        let (b_clear_win, b_clear_loss) = match spec.better {
            Better::Higher => (b.dist.min > a.dist.max, b.dist.max < a.dist.min),
            Better::Lower => (b.dist.max < a.dist.min, b.dist.min > a.dist.max),
        };
        if b_clear_win && gain > spec.bound {
            return Verdict::Better;
        }
        if b_clear_loss && gain < -spec.bound {
            return Verdict::Worse;
        }
    }
    if a.dist.spread().max(b.dist.spread()) > spec.bound {
        Verdict::Unresolved
    } else if gain < -spec.bound {
        Verdict::Worse
    } else if gain > spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "no `workloads` array".to_string())
}

/// Compares two `results.json` documents. Returns the report and
/// whether any verdict was `worse`.
///
/// # Errors
/// Reports a malformed document, or two documents with no workload in
/// common.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let seed = |doc: &Value| doc.get("seed").and_then(Value::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>6}  {:<10} quartiles A | B",
        "workload", "metric", "median A", "median B", "change", "bound", "verdict"
    );
    let mut any_worse = false;
    let mut compared = 0;
    for wa in workloads(a)? {
        let name = wa
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        let (ma, mb) = (read_end_to_end(wa)?, read_end_to_end(wb)?);
        for spec in &END_TO_END {
            let (Some(x), Some(y)) = (ma.get(spec.name), mb.get(spec.name)) else {
                return Err(format!("{name}: `{}` missing from one side", spec.name));
            };
            let verdict = judge(spec, x, y, same_seed);
            any_worse |= verdict == Verdict::Worse;
            compared += 1;
            let _ = writeln!(
                out,
                "{name:<18} {:<24} {:>14.6} {:>14.6} {:>+7.2}% {:>5.1}%  {:<10} [{:.6}, {:.6}] | [{:.6}, {:.6}]",
                spec.name,
                x.value,
                y.value,
                improvement(spec, x.value, y.value) * 100.0,
                spec.bound * 100.0,
                verdict.as_str(),
                x.dist.q1,
                x.dist.q3,
                y.dist.q1,
                y.dist.q3,
            );
        }
    }
    if compared == 0 {
        return Err("the two files have no workload in common".into());
    }
    let _ = writeln!(
        out,
        "change: B against A, positive = improvement. Simulated-result metrics are {}.",
        if same_seed {
            "exact (same seed): any difference is a verdict"
        } else {
            "held to their bound (different seeds)"
        }
    );
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::dist;

    fn host() -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == "sim_cycles_per_s")
            .unwrap()
    }

    fn around(center: f64, rel: f64) -> Metric {
        Metric::of(dist(&[
            center * (1.0 - rel),
            center * (1.0 - rel / 2.0),
            center,
            center * (1.0 + rel / 2.0),
            center * (1.0 + rel),
        ]))
    }

    #[test]
    fn host_metrics_follow_bound_and_spread() {
        let spec = host();
        let a = around(1000.0, 0.02);
        assert_eq!(judge(spec, &a, &around(1010.0, 0.02), false), Verdict::Same);
        assert_eq!(judge(spec, &a, &around(700.0, 0.02), false), Verdict::Worse);
        assert_eq!(
            judge(spec, &a, &around(1400.0, 0.02), false),
            Verdict::Better
        );
        // Noisy sides overlap: no claim.
        assert_eq!(
            judge(spec, &around(1000.0, 0.4), &around(900.0, 0.4), false),
            Verdict::Unresolved
        );
        // Noisy, but every run of B beats every run of A.
        assert_eq!(
            judge(spec, &around(1000.0, 0.3), &around(4000.0, 0.3), false),
            Verdict::Better
        );
    }

    #[test]
    fn exact_metrics_match_to_the_digit_on_equal_seeds() {
        let spec = END_TO_END
            .iter()
            .find(|m| m.name == "sim_latency_p99_cycles")
            .unwrap();
        let (a, b) = (Metric::single(208.0), Metric::single(209.0));
        assert_eq!(judge(spec, &a, &a, true), Verdict::Same);
        assert_eq!(judge(spec, &a, &b, true), Verdict::Worse);
        assert_eq!(judge(spec, &b, &a, true), Verdict::Better);
        // Different seeds: the bound applies instead.
        assert_eq!(judge(spec, &a, &b, false), Verdict::Same);
    }

    #[test]
    fn compare_reports_every_pairing_and_flags_worse() {
        let record = |cps: f64| {
            let mut members = Vec::new();
            for spec in &END_TO_END {
                let m = if spec.name == "sim_cycles_per_s" {
                    around(cps, 0.01)
                } else {
                    Metric::single(1.0)
                };
                members.push((
                    spec.name,
                    Value::obj([
                        ("value", Value::Num(m.value)),
                        ("n", Value::Num(m.dist.n as f64)),
                        ("min", Value::Num(m.dist.min)),
                        ("q1", Value::Num(m.dist.q1)),
                        ("median", Value::Num(m.dist.median)),
                        ("q3", Value::Num(m.dist.q3)),
                        ("max", Value::Num(m.dist.max)),
                    ]),
                ));
            }
            Value::obj([
                ("seed", Value::Num(1.0)),
                (
                    "workloads",
                    Value::Arr(vec![Value::obj([
                        ("name", Value::str("w")),
                        ("end_to_end", Value::obj(members)),
                    ])]),
                ),
            ])
        };
        let (text, worse) = compare(&record(1000.0), &record(1000.0)).unwrap();
        assert!(!worse);
        assert_eq!(text.matches(" same ").count(), END_TO_END.len());
        let (text, worse) = compare(&record(1000.0), &record(500.0)).unwrap();
        assert!(worse && text.contains("worse"));
        assert!(compare(&Value::Null, &record(1.0)).is_err());
    }
}
