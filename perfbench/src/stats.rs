//! Summary statistics: medians, quartiles, the tail-percentile rule and
//! geometric means.

/// Median; the mean of the two middle values for an even count. Callers
/// pass at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads computed here match those computed from the printed results.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A tail percentile chosen by the rule "the highest percentile with at
/// least ten samples beyond it".
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Candidate percentiles in tenths of a percent, highest first.
const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`LADDER`] that leaves at least ten samples
/// beyond it (nearest-rank), or `None` when even the median does not.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    LADDER.iter().find_map(|&p10| {
        let rank = (p10 * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            pct: p10 as f64 / 10.0,
            value: s[rank - 1],
            beyond: n - rank,
            n,
        })
    })
}

/// Geometric mean of positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Interquartile range as a share of the median — the spread measure the
/// benchmark is tuned against.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(Tail { pct: 99.0, value: 990.0, beyond: 10, n: 1000 }));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(Tail { pct: 99.9, value: 9990.0, beyond: 10, n: 10_000 }));
        // 999 samples: p99 leaves only 9 beyond, so p95 is reported.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| (t.pct, t.beyond)), Some((95.0, 49)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(Tail { pct: 50.0, value: 10.0, beyond: 10, n: 20 }));
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
    }
}
