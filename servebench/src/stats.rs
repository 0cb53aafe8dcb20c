//! The benchmark's own statistics: latency percentiles that count
//! failures as misses, quartiles as Python's `statistics.quantiles(values, n=4)` gives them, and the
//! comparison rules for two sets of runs.

/// Latency reported for a percentile that falls on a shed, failed or
/// wrong request: such a request has no latency and misses every limit.
pub const MISS_LATENCY_MS: f64 = 1e9;

/// A run is invalid when the generator's p99 lag exceeds this share of
/// the workload's latency limit: the load it offered was not the load
/// it meant to offer, so its figures say nothing about the program.
pub const MAX_LAG_SHARE: f64 = 0.25;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, memory, failures).
    Lower,
    /// Larger values are better (throughput, success share).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of request latencies where each of `misses` requests
/// (shed, failed or wrong) counts as slower than every served one.
/// Returns `f64::INFINITY` when the percentile lands on a miss, and
/// `None` when no request was sent.
pub fn percentile_with_misses(served: &[f64], misses: usize, p: f64) -> Option<f64> {
    let total = served.len() + misses;
    if total == 0 {
        return None;
    }
    let rank = ((p * total as f64).ceil() as usize).clamp(1, total);
    if rank > served.len() {
        return Some(f64::INFINITY);
    }
    let mut sorted = served.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Highest percentile whose tail holds at least ten samples (the guide's
/// rule for which tail a sample size supports), from p50 up to p99.9.
pub fn supported_tail(samples: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|p| (samples as f64 * (1.0 - p)).floor() >= 10.0)
        .unwrap_or(0.5)
}

/// Median of `values` (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// Whether a run's generator kept to its schedule (see [`MAX_LAG_SHARE`]).
pub fn run_valid(lag_p99_ms: f64, limit_ms: f64) -> bool {
    lag_p99_ms <= MAX_LAG_SHARE * limit_ms
}

/// The choosing-metrics §8 verdict on a claimed gain.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimVerdict {
    /// Pairs in which the change read strictly better.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Median of the parent's runs.
    pub parent_median: f64,
    /// Median of the change's runs.
    pub change_median: f64,
    /// Interquartile distance of the parent's runs.
    pub parent_iqr: f64,
    /// Whether the claim holds: at least ten pairs, wins in at least
    /// nine tenths of them, and medians further apart than the parent's
    /// interquartile distance, in the better direction.
    pub holds: bool,
}

/// Applies §8 to paired runs (`pairs[i] = (parent, change)`, alternating
/// which side ran first). Ties count for neither side.
pub fn claim_verdict(pairs: &[(f64, f64)], better: Better) -> Option<ClaimVerdict> {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (q1, q3) = quartiles(&parent)?;
    let wins = pairs
        .iter()
        .filter(|(p, c)| better.is_better(*c, *p))
        .count();
    let parent_median = median(&parent);
    let change_median = median(&change);
    let parent_iqr = q3 - q1;
    let holds = pairs.len() >= 10
        && wins * 10 >= pairs.len() * 9
        && better.is_better(change_median, parent_median)
        && (change_median - parent_median).abs() > parent_iqr;
    Some(ClaimVerdict {
        wins,
        pairs: pairs.len(),
        parent_median,
        change_median,
        parent_iqr,
        holds,
    })
}

/// Verdict on one metric and workload for a change that claims nothing
/// there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundVerdict {
    /// The change's median is within the bound of the parent's.
    WithinBound {
        /// Change over parent median minus one, signed so that positive
        /// is worse.
        worse_share: f64,
    },
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed {
        /// As in `WithinBound`.
        worse_share: f64,
    },
    /// A side's run-to-run spread exceeds the bound, so a shift within
    /// it cannot be told from noise.
    Unresolved {
        /// The wider of the two sides' interquartile shares.
        spread: f64,
    },
    /// Every run of the change reads better than every run of the parent.
    AllBetter,
}

/// Applies the per-metric bound: a worse median by more than `bound` of
/// the parent's is a regression; a spread wider than `bound` on either
/// side is unresolved unless every change run beats every parent run.
pub fn bound_verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> BoundVerdict {
    let all_better = !parent.is_empty()
        && !change.is_empty()
        && change
            .iter()
            .all(|&c| parent.iter().all(|&p| better.is_better(c, p)));
    if all_better {
        return BoundVerdict::AllBetter;
    }
    let spread = iqr_share(parent)
        .unwrap_or(0.0)
        .max(iqr_share(change).unwrap_or(0.0));
    if spread > bound {
        return BoundVerdict::Unresolved { spread };
    }
    let p = median(parent);
    let c = median(change);
    let ratio = if p == 0.0 { 0.0 } else { c / p - 1.0 };
    let worse_share = match better {
        Better::Lower => ratio,
        Better::Higher => -ratio,
    };
    if worse_share > bound {
        BoundVerdict::Regressed { worse_share }
    } else {
        BoundVerdict::WithinBound { worse_share }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_misses_in_percentiles() {
        let served: Vec<f64> = (1..=98).map(f64::from).collect();
        // 98 served + 2 misses: p50 is the 50th fastest, p99 lands on a
        // miss, p98 on the slowest served request.
        assert_eq!(percentile_with_misses(&served, 2, 0.50), Some(50.0));
        assert_eq!(percentile_with_misses(&served, 2, 0.98), Some(98.0));
        assert_eq!(
            percentile_with_misses(&served, 2, 0.99),
            Some(f64::INFINITY)
        );
        assert_eq!(percentile_with_misses(&served, 0, 0.99), Some(98.0));
        assert_eq!(percentile_with_misses(&[], 0, 0.5), None);
        assert_eq!(percentile_with_misses(&[], 3, 0.5), Some(f64::INFINITY));
    }

    #[test]
    fn nearest_rank_and_tail_support() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), 990.0);
        assert_eq!(nearest_rank(&v, 1.0), 1000.0);
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(10_000), 0.999);
        assert_eq!(supported_tail(150), 0.9);
        assert_eq!(supported_tail(5), 0.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((iqr_share(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn lag_validity_uses_the_stated_share_of_the_limit() {
        assert!(run_valid(12.5, 50.0));
        assert!(!run_valid(12.6, 50.0));
    }

    #[test]
    fn claim_needs_nine_in_ten_wins_and_a_gap_beyond_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + i as f64 * 0.1).collect();
        let faster: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p - 1.0)).collect();
        let v = claim_verdict(&faster, Better::Lower).unwrap();
        assert_eq!((v.wins, v.pairs), (10, 10));
        assert!(v.holds);

        // Nine wins of ten still holds; eight does not.
        let mut nine = faster.clone();
        nine[0].1 = nine[0].0 + 1.0;
        assert!(claim_verdict(&nine, Better::Lower).unwrap().holds);
        let mut eight = nine.clone();
        eight[1].1 = eight[1].0;
        let v = claim_verdict(&eight, Better::Lower).unwrap();
        assert_eq!(v.wins, 8, "a tie counts for neither side");
        assert!(!v.holds);

        // Every pair won, but by less than the parent's own spread.
        let tiny: Vec<(f64, f64)> = parent.iter().map(|&p| (p, p - 0.01)).collect();
        assert!(!claim_verdict(&tiny, Better::Lower).unwrap().holds);

        // Fewer than ten pairs never holds; direction matters.
        assert!(!claim_verdict(&faster[..9], Better::Lower).unwrap().holds);
        assert!(!claim_verdict(&faster, Better::Higher).unwrap().holds);
    }

    #[test]
    fn bound_verdict_flags_regressions_and_noise() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.2, 100.1, 99.9];
        assert!(matches!(
            bound_verdict(&parent, &same, Better::Lower, 0.1),
            BoundVerdict::WithinBound { .. }
        ));
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert!(matches!(
            bound_verdict(&parent, &slower, Better::Lower, 0.1),
            BoundVerdict::Regressed { .. }
        ));
        // The same shift is an improvement for a higher-is-better metric.
        assert_eq!(
            bound_verdict(&parent, &slower, Better::Higher, 0.1),
            BoundVerdict::AllBetter
        );
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert!(matches!(
            bound_verdict(&parent, &noisy, Better::Lower, 0.1),
            BoundVerdict::Unresolved { .. }
        ));
    }
}
