//! Sample statistics and the regression verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same samples with Python's standard library.

use crate::catalogue::Better;
use crate::json::{obj, Json};

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, as `statistics.quantiles(xs, n=4)` gives
/// them. One sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub samples: Vec<f64>,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            samples: samples.to_vec(),
            median: median(samples),
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        obj([
            ("unit", Json::from(unit)),
            ("n", Json::from(self.samples.len() as u64)),
            ("median", Json::from(self.median)),
            ("q1", Json::from(self.q1)),
            ("q3", Json::from(self.q3)),
            ("samples", Json::from(&self.samples[..])),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Summary, String> {
        let samples = v.get("samples").map(Json::nums).unwrap_or_default();
        if samples.is_empty() {
            return Err("summary without samples".into());
        }
        Ok(Summary::of(&samples))
    }
}

/// How a change's metric compares with its base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The run-to-run spread is wider than the bound, so a move of the
    /// bound's size could be noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better). For a higher-is-better metric the ratio is inverted, so a
/// halving and a doubling of time read the same.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => a / b - 1.0,
    }
}

/// Compares change `b` against base `a` for a metric that may worsen by
/// at most `bound` (a share of the base median).
///
/// When either side's spread exceeds the bound the answer is
/// `Unresolved`, unless every sample of `b` beats every sample of `a`.
/// Otherwise a move beyond the bound is `Better` or `Worse`, and a
/// smaller one is `Same`.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let w = worsening(a.median, b.median, better);
    if a.spread().max(b.spread()) > bound {
        let beats = |x: f64, y: f64| worsening(y, x, better) < 0.0;
        let all_better = b
            .samples
            .iter()
            .all(|&x| a.samples.iter().all(|&y| beats(x, y)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let back = Summary::from_json(&s.to_json("s")).unwrap();
        assert_eq!(back, s);
    }

    fn tight(m: f64) -> Summary {
        Summary::of(&[m * 0.999, m, m * 1.001])
    }

    #[test]
    fn verdict_uses_the_bound_and_the_direction() {
        let a = tight(10.0);
        assert_eq!(
            verdict(&a, &tight(10.5), Better::Lower, 0.08),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &tight(11.0), Better::Lower, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &tight(9.0), Better::Lower, 0.08),
            Verdict::Better
        );
        // Higher is better: a drop in throughput is the regression.
        assert_eq!(
            verdict(&a, &tight(9.0), Better::Higher, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &tight(11.0), Better::Higher, 0.08),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = Summary::of(&[8.0, 10.0, 12.0, 14.0]);
        let b = Summary::of(&[9.0, 10.0, 11.0, 12.0]);
        assert!(a.spread() > 0.08);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.08), Verdict::Unresolved);
        let far = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(verdict(&a, &far, Better::Lower, 0.08), Verdict::Better);
        assert_eq!(verdict(&far, &a, Better::Lower, 0.08), Verdict::Unresolved);
    }
}
