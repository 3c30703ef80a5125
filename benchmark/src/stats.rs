//! Order statistics and the regression rule of `massf-benchmark compare`.

/// Median, extremes and count of a sample, as every timing is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Option<Summary> {
    let sorted = sorted(values);
    Some(Summary {
        median: median_of_sorted(&sorted)?,
        min: *sorted.first()?,
        max: *sorted.last()?,
        n: sorted.len(),
    })
}

pub fn median(values: &[f64]) -> Option<f64> {
    median_of_sorted(&sorted(values))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(v: &[f64]) -> Option<f64> {
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so that a spread computed here is the
/// spread the driver computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Python: j = i*(n+1) // 4, clamped to 1..n-1; delta = i*(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median; 0 for a sample
/// too small to have quartiles.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the base's median.
    pub relative: f64,
    /// An absolute allowance in the metric's unit, for metrics whose base can
    /// be so small that the relative share is below their resolution (a 5 MiB
    /// process may grow by a page-cache accident worth more than 10 %).
    pub absolute_floor: f64,
    pub lower_is_better: bool,
}

impl Bound {
    /// Largest worsening allowed from `base`, in the metric's unit.
    pub fn allowance(&self, base: f64) -> f64 {
        (self.relative * base.abs()).max(self.absolute_floor)
    }

    /// By how much `new` is worse than `base` (negative when it is better).
    pub fn worsening(&self, base: f64, new: f64) -> f64 {
        if self.lower_is_better {
            new - base
        } else {
            base - new
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a median inside the
    /// bound shows nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Judges the runs `new` against the runs `base` of one metric on one
/// workload: REGRESSED when the median worsened by more than the bound
/// allows; otherwise UNRESOLVED when either side's quartile spread exceeds
/// the allowance, unless every run of `new` reads better than every run of
/// `base`; otherwise PASS.
pub fn judge(bound: &Bound, base: &[f64], new: &[f64]) -> Option<Verdict> {
    let (b, n) = (summarize(base)?, summarize(new)?);
    let allowance = bound.allowance(b.median);
    if bound.worsening(b.median, n.median) > allowance {
        return Some(Verdict::Regressed);
    }
    let widest = |values: &[f64]| quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1);
    let all_better = if bound.lower_is_better {
        n.max < b.min
    } else {
        n.min > b.max
    };
    if widest(base).max(widest(new)) > allowance && !all_better {
        return Some(Verdict::Unresolved);
    }
    Some(Verdict::Pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), 5.5 / 5.5);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    const TIME: Bound = Bound {
        relative: 0.10,
        absolute_floor: 0.0,
        lower_is_better: true,
    };

    #[test]
    fn regression_rule() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            judge(&TIME, &base, &[1.05, 1.06, 1.04, 1.05, 1.05]),
            Some(Verdict::Pass)
        );
        assert_eq!(
            judge(&TIME, &base, &[1.15, 1.16, 1.14, 1.15, 1.15]),
            Some(Verdict::Regressed)
        );
        // Inside the bound by median, but the new side is all over the place.
        assert_eq!(
            judge(&TIME, &base, &[0.80, 1.30, 1.05, 0.70, 1.25]),
            Some(Verdict::Unresolved)
        );
        // Wide, but every new run beats every base run.
        assert_eq!(
            judge(&TIME, &base, &[0.50, 0.90, 0.60, 0.95, 0.70]),
            Some(Verdict::Pass)
        );
        assert_eq!(judge(&TIME, &[], &base), None);
    }

    #[test]
    fn absolute_floor_covers_small_bases() {
        let rss = Bound {
            relative: 0.10,
            absolute_floor: 2.0,
            lower_is_better: true,
        };
        // 5 MiB -> 6.5 MiB is +30 % but under the 2 MiB floor.
        assert_eq!(judge(&rss, &[5.0], &[6.5]), Some(Verdict::Pass));
        assert_eq!(judge(&rss, &[5.0], &[7.5]), Some(Verdict::Regressed));
        // 400 MiB: the relative share (40 MiB) governs.
        assert_eq!(judge(&rss, &[400.0], &[430.0]), Some(Verdict::Pass));
        assert_eq!(judge(&rss, &[400.0], &[445.0]), Some(Verdict::Regressed));
        assert_eq!(rss.allowance(5.0), 2.0);
        assert_eq!(rss.allowance(400.0), 40.0);
    }

    #[test]
    fn higher_is_better_metrics_worsen_downwards() {
        let rate = Bound {
            relative: 0.10,
            absolute_floor: 0.0,
            lower_is_better: false,
        };
        assert_eq!(judge(&rate, &[100.0], &[95.0]), Some(Verdict::Pass));
        assert_eq!(judge(&rate, &[100.0], &[85.0]), Some(Verdict::Regressed));
    }
}
