//! Prefix sums over the aggregation column.
//!
//! Section 4.3: "In an efficient implementation of `M` the subquery variances
//! are computed with pre-computed prefix sums." [`PrefixSums`] stores the
//! running Σt and Σt² of a value sequence (sorted by predicate), giving O(1)
//! range sums and therefore O(1) evaluation of every `V_i(q)` variance oracle
//! used by the partitioning optimizers.

use crate::kahan::KahanSum;

/// Cumulative Σt and Σt² with O(1) half-open range queries.
#[derive(Debug, Clone)]
pub struct PrefixSums {
    /// `cum[i]` = sum of the first `i` values; length n+1.
    cum: Vec<f64>,
    /// `cum_sq[i]` = sum of squares of the first `i` values; length n+1.
    cum_sq: Vec<f64>,
}

impl PrefixSums {
    /// Build from the value sequence (already ordered by predicate key).
    pub fn build(values: &[f64]) -> Self {
        let mut cum = Vec::with_capacity(values.len() + 1);
        let mut cum_sq = Vec::with_capacity(values.len() + 1);
        cum.push(0.0);
        cum_sq.push(0.0);
        let mut s = KahanSum::new();
        let mut s2 = KahanSum::new();
        for &v in values {
            s.add(v);
            s2.add(v * v);
            cum.push(s.total());
            cum_sq.push(s2.total());
        }
        Self { cum, cum_sq }
    }

    /// Number of underlying values.
    #[inline]
    pub fn len(&self) -> usize {
        self.cum.len() - 1
    }

    /// True when built over an empty sequence.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Σ t over the half-open index range `[lo, hi)`.
    #[inline]
    pub fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi && hi <= self.len());
        self.cum[hi] - self.cum[lo]
    }

    /// Σ t² over the half-open index range `[lo, hi)`.
    #[inline]
    pub fn range_sum_sq(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi && hi <= self.len());
        self.cum_sq[hi] - self.cum_sq[lo]
    }

    /// The scatter term `n·Σt² − (Σt)²` over `[lo, hi)` with `n = hi - lo`.
    ///
    /// This is the V_i(q) kernel shared by the SUM/COUNT/AVG variance
    /// formulas of Section 4.2.1 (there written `N_i Σ t² − (Σ t)²`).
    /// Clamped at zero: catastrophic cancellation on near-constant ranges can
    /// otherwise produce tiny negative values.
    #[inline]
    pub fn scatter(&self, lo: usize, hi: usize) -> f64 {
        let n = (hi - lo) as f64;
        let s = self.range_sum(lo, hi);
        (n * self.range_sum_sq(lo, hi) - s * s).max(0.0)
    }

    /// Mean of the values in `[lo, hi)`; 0.0 on an empty range.
    #[inline]
    pub fn range_mean(&self, lo: usize, hi: usize) -> f64 {
        if lo == hi {
            return 0.0;
        }
        self.range_sum(lo, hi) / (hi - lo) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::population_variance;

    fn naive_sum(v: &[f64], lo: usize, hi: usize) -> f64 {
        v[lo..hi].iter().sum()
    }

    #[test]
    fn range_queries_match_naive() {
        let v: Vec<f64> = (0..50).map(|i| (i as f64) * 1.5 - 10.0).collect();
        let p = PrefixSums::build(&v);
        assert_eq!(p.len(), 50);
        for lo in 0..=50 {
            for hi in lo..=50 {
                assert!((p.range_sum(lo, hi) - naive_sum(&v, lo, hi)).abs() < 1e-9);
                let naive_sq: f64 = v[lo..hi].iter().map(|x| x * x).sum();
                assert!((p.range_sum_sq(lo, hi) - naive_sq).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_sequence() {
        let p = PrefixSums::build(&[]);
        assert!(p.is_empty());
        assert_eq!(p.range_sum(0, 0), 0.0);
        assert_eq!(p.range_mean(0, 0), 0.0);
    }

    #[test]
    fn scatter_matches_population_variance() {
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let p = PrefixSums::build(&v);
        for lo in 0..v.len() {
            for hi in (lo + 2)..=v.len() {
                let pv = population_variance(&v[lo..hi]);
                let n = (hi - lo) as f64;
                assert!(
                    (p.scatter(lo, hi) / (n * n) - pv).abs() < 1e-10,
                    "range [{lo},{hi})"
                );
            }
        }
    }

    #[test]
    fn scatter_never_negative_on_constant_data() {
        // Constant data at awkward magnitude: cancellation territory.
        let v = vec![1e8 + 0.1; 1000];
        let p = PrefixSums::build(&v);
        for hi in 2..=1000 {
            assert!(p.scatter(0, hi) >= 0.0);
        }
    }

    #[test]
    fn singleton_ranges() {
        let v = [7.0, -2.0];
        let p = PrefixSums::build(&v);
        assert_eq!(p.range_sum(0, 1), 7.0);
        assert_eq!(p.scatter(0, 1), 0.0);
        assert_eq!(p.range_mean(1, 2), -2.0);
    }
}
