//! Sample statistics and the parent-versus-change rule.

use serde::{Deserialize, Serialize};

/// Median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    median(&values.iter().map(|v| (v - m).abs()).collect::<Vec<_>>())
}

/// A metric's distribution over the samples of a results file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Unit.
    pub unit: String,
    /// Samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation.
    pub mad: f64,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(unit: &str, values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            unit: unit.to_string(),
            n: values.len(),
            median: median(values),
            q1,
            q3,
            mad: mad(values),
        }
    }
}

/// What a change did to one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least nine tenths of the pairs by more than the parent's
    /// quartile spread.
    Improved,
    /// Within the bound, and the runs are steady enough to tell.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The spread between runs is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for the report.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs a comparison may rest on.
pub const MIN_PAIRS: usize = 10;

/// Applies the rule to `pairs` of `(parent, change)` values measured in
/// alternation. `bound` is the share of the parent's median by which the
/// change may be worse; `higher_better` gives the direction.
///
/// - improved: the change wins at least 9/10 of the pairs (ties count for
///   neither side) and the medians differ by more than the parent's
///   quartile spread;
/// - unresolved: the parent's or the change's quartile spread is wider
///   than the bound, unless every change run beats every parent run;
/// - regressed: the change's median is worse by more than the bound;
/// - unchanged otherwise.
pub fn judge(pairs: &[(f64, f64)], bound: f64, higher_better: bool) -> Verdict {
    let better = |a: f64, b: f64| if higher_better { a > b } else { a < b };
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (pm, cm) = (median(&parent), median(&change));
    let (pq1, pq3) = quartiles(&parent);
    let (cq1, cq3) = quartiles(&change);
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    if wins * 10 >= pairs.len() * 9 && better(cm, pm) && (cm - pm).abs() > pq3 - pq1 {
        return Verdict::Improved;
    }
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let spread = ((pq3 - pq1) / pm.abs()).max((cq3 - cq1) / cm.abs());
    if spread > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_better { pm - cm } else { cm - pm };
    if worse_by > bound * pm.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Pairs two sample series `(started_ms, value)` measured in
/// alternation: sorted by start time, the merged series must fall into
/// consecutive twos with one sample from each side. `None` when it does
/// not, or when fewer than [`MIN_PAIRS`] pairs result.
pub fn alternating_pairs(parent: &[(u64, f64)], change: &[(u64, f64)]) -> Option<Vec<(f64, f64)>> {
    let mut merged: Vec<(u64, bool, f64)> = parent
        .iter()
        .map(|&(t, v)| (t, false, v))
        .chain(change.iter().map(|&(t, v)| (t, true, v)))
        .collect();
    merged.sort_by_key(|&(t, side, _)| (t, side));
    if !merged.len().is_multiple_of(2) {
        return None;
    }
    let pairs: Option<Vec<(f64, f64)>> = merged
        .chunks(2)
        .map(|c| match (c[0].1, c[1].1) {
            (false, true) => Some((c[0].2, c[1].2)),
            (true, false) => Some((c[1].2, c[0].2)),
            _ => None,
        })
        .collect();
    pairs.filter(|p| p.len() >= MIN_PAIRS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    const STEADY: [f64; 10] = [
        100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0,
    ];

    #[test]
    fn nine_of_ten_wins_is_the_boundary() {
        // Lower is better; the change is ~10% faster in 9 pairs, slower
        // in one.
        let mut change: Vec<f64> = STEADY.iter().map(|v| v * 0.9).collect();
        change[3] = 101.0;
        assert_eq!(
            judge(&pairs(&STEADY, &change), 0.05, false),
            Verdict::Improved
        );
        change[5] = 101.0; // 8/10 wins: not a gain, and not worse either
        assert_eq!(
            judge(&pairs(&STEADY, &change), 0.05, false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let mut change: Vec<f64> = STEADY.iter().map(|v| v * 0.9).collect();
        change[0] = STEADY[0];
        assert_eq!(
            judge(&pairs(&STEADY, &change), 0.05, false),
            Verdict::Improved
        );
        change[1] = STEADY[1];
        assert_eq!(
            judge(&pairs(&STEADY, &change), 0.05, false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn gain_must_exceed_the_parent_spread() {
        // Every pair won, but by less than the parent's quartile spread.
        let change: Vec<f64> = STEADY.iter().map(|v| v - 0.1).collect();
        assert_eq!(
            judge(&pairs(&STEADY, &change), 0.05, false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn regression_past_the_bound_and_direction() {
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.08).collect();
        assert_eq!(
            judge(&pairs(&STEADY, &slower), 0.05, false),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&pairs(&STEADY, &slower), 0.10, false),
            Verdict::Unchanged
        );
        // For a throughput the same numbers are a gain.
        assert_eq!(
            judge(&pairs(&STEADY, &slower), 0.05, true),
            Verdict::Improved
        );
    }

    #[test]
    fn unresolved_when_the_spread_exceeds_the_bound() {
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0,
        ];
        let same: Vec<f64> = noisy.iter().rev().copied().collect();
        assert_eq!(
            judge(&pairs(&noisy, &same), 0.05, false),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let far: Vec<f64> = noisy.iter().map(|v| v - 50.0).collect();
        assert_ne!(
            judge(&pairs(&noisy, &far), 0.05, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn pairs_must_alternate() {
        let parent: Vec<(u64, f64)> = (0..10).map(|i| (i * 10, 1.0)).collect();
        let change: Vec<(u64, f64)> = (0..10).map(|i| (i * 10 + 5, 2.0)).collect();
        let p = alternating_pairs(&parent, &change).expect("alternating");
        assert_eq!(p.len(), 10);
        assert!(p.iter().all(|&(a, b)| a == 1.0 && b == 2.0));
        // Change-first pairs alternate too.
        let early: Vec<(u64, f64)> = (0..10).map(|i| (i * 10 + 15, 1.0)).collect();
        assert!(alternating_pairs(&early, &change).is_some());
        // Two parent runs back to back do not.
        let mut bunched = parent.clone();
        bunched[1].0 = 1;
        assert!(alternating_pairs(&bunched, &change).is_none());
        // Nine pairs are too few.
        assert!(alternating_pairs(&parent[..9], &change[..9]).is_none());
    }
}
