//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default *exclusive* method), because that is the rule the
//! benchmark contract applies to the ten-seed spread check: using the
//! same arithmetic here means `--compare` and the driver agree on what
//! "the distance between the first and third quartile" is.

/// Five-number summary (plus count) of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Number of repetitions.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice: a metric with no repetitions is a harness
/// bug, not a measurement.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, `statistics.quantiles(values, n=4)`.
/// A single value is its own quartiles (Python raises there; a
/// one-repetition smoke run still needs a summary).
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Summarizes one metric's repetitions.
#[must_use]
pub fn dist(values: &[f64]) -> Dist {
    let v = sorted(values);
    let [q1, _, q3] = quartiles(values);
    Dist {
        n: v.len(),
        min: v[0],
        q1,
        median: median(values),
        q3,
        max: v[v.len() - 1],
    }
}

impl Dist {
    /// Inter-quartile distance as a share of the median — the spread
    /// the contract bounds. Zero when the median is zero.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values computed with CPython 3.11
    /// `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
        let odd = [105.0, 99.0, 101.0, 98.0, 110.0, 102.0, 100.0];
        assert_eq!(quartiles(&odd), [99.0, 101.0, 105.0]);
    }

    #[test]
    fn dist_reports_spread_as_share_of_median() {
        let d = dist(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((d.n, d.min, d.max, d.median), (5, 1.0, 5.0, 3.0));
        assert!((d.spread() - 1.0).abs() < 1e-12);
        assert_eq!(dist(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
