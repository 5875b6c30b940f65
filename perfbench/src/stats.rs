//! Order statistics with their sample counts.

/// Nearest-rank quantile of an ascending slice: the smallest value with
/// at least `q · n` samples at or below it. `None` on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n`
/// samples — the count that says whether a percentile is supported.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n - rank.max(1).min(n)
}

/// Median, p90 and p99 of a sample plus its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarizes `values` (sorted in place). An empty sample reads 0
    /// with `n = 0`, so the count shows it carries no information.
    pub fn of(values: &mut [f64]) -> Summary {
        values.sort_by(f64::total_cmp);
        let q = |p| quantile(values, p).unwrap_or(0.0);
        Summary {
            n: values.len(),
            p50: q(0.5),
            p90: q(0.9),
            p99: q(0.99),
        }
    }
}

/// Nearest-rank `q` quantile of `values` (sorted in place); 0 when
/// empty.
pub fn quantile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, q).unwrap_or(0.0)
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    Summary::of(values).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.99), 1);
    }

    #[test]
    fn small_and_empty_samples() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.0));
        assert_eq!(beyond(0, 0.5), 0);
        assert_eq!(beyond(1, 0.5), 0);
        assert_eq!(beyond(3, 0.5), 1);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 1000);
        assert_eq!((s.p50, s.p90, s.p99), (500.0, 900.0, 990.0));
        let mut empty: Vec<f64> = Vec::new();
        assert_eq!(Summary::of(&mut empty).n, 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
