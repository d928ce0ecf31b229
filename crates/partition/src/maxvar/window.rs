//! The AVG discretization of Appendix A.4 (1-D algorithm).
//!
//! Lemma A.4: the AVG query with the largest variance in any partition
//! spans fewer than `2δm` samples, and any such query is covered by two
//! `δm`-length windows. The paper's index therefore stores, for every
//! position, the `δm`-window with the largest **sum of squared values**
//! `Σt²` — a partition-independent score — and evaluates the true variance
//! `V_i(q′)` of the winning window against the actual partition at query
//! time. Lemma A.5 proves `V_i(q′) ≥ V_i(q*) / 4`.
//!
//! We serve the argmax with an idempotent sparse table (O(1) per query
//! after O(m log m) build, a log factor better than the paper's BST).

use pass_common::PrefixSums;

use super::{MaxVarOracle, SparseArgmaxTable};

/// Pre-scored `δm`-length windows (score = `Σt²`) with O(1) range-argmax.
#[derive(Debug, Clone)]
pub struct WindowIndex {
    window: usize,
    n: usize,
    /// Prefix sums of the underlying sequence, for variance evaluation.
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    table: SparseArgmaxTable,
}

impl WindowIndex {
    /// Build over a value sequence's prefix sums with window length
    /// `window` (= δm). O(m log m).
    pub fn build(prefix: &PrefixSums, window: usize) -> Self {
        let window = window.max(1);
        let n = prefix.len();
        let scores: Vec<f64> = if n >= window {
            (0..=(n - window))
                .map(|i| prefix.range_sum_sq(i, i + window))
                .collect()
        } else {
            Vec::new()
        };
        let table = SparseArgmaxTable::build(&scores);
        // Keep our own prefix copies so the index owns everything it needs
        // at DP time (the DP borrows the sample prefix elsewhere).
        let sum: Vec<f64> = (0..=n).map(|i| prefix.range_sum(0, i)).collect();
        let sum_sq: Vec<f64> = (0..=n).map(|i| prefix.range_sum_sq(0, i)).collect();
        Self {
            window,
            n,
            sum,
            sum_sq,
            table,
        }
    }

    /// Window length δm.
    pub fn window(&self) -> usize {
        self.window
    }

    /// AVG variance of window `[g, g+window)` inside partition `[lo, hi)`.
    fn window_variance(&self, g: usize, lo: usize, hi: usize) -> f64 {
        let n_i = (hi - lo) as f64;
        let w = self.window as f64;
        let s = self.sum[g + self.window] - self.sum[g];
        let s2 = self.sum_sq[g + self.window] - self.sum_sq[g];
        ((n_i * s2 - s * s) / (n_i * w * w)).max(0.0)
    }

    /// The best window fully inside `[lo, hi)` by `Σt²` score, as
    /// `(start_index, score)`.
    pub fn argmax_window(&self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        if hi < lo + self.window || self.table.is_empty() {
            return None;
        }
        let last_start = (hi - self.window).min(self.table.len() - 1);
        let g = self.table.range_argmax(lo, last_start + 1)?;
        Some((g, self.table.score(g)))
    }
}

impl MaxVarOracle for WindowIndex {
    fn max_variance(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(hi <= self.n);
        // Lemma A.4/A.5 assume n_i >= 2δm; smaller partitions are treated
        // as zero-variance ("because of the small number of samples").
        if hi < lo || hi - lo < 2 * self.window {
            return 0.0;
        }
        match self.argmax_window(lo, hi) {
            Some((g, _)) => self.window_variance(g, lo, hi),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::VarianceOracle;
    use pass_common::rng::rng_from_seed;
    use pass_common::AggKind;
    use rand::Rng;

    #[test]
    fn quarter_approximation_vs_meaningful_queries() {
        // Lemma A.5: against all queries with length in [δm, 2δm) — where
        // the true optimum lies (Lemma A.4) — the returned window's variance
        // is at least a quarter of the maximum.
        let mut rng = rng_from_seed(7);
        for trial in 0..40 {
            let n = rng.gen_range(24..80);
            let delta_m = rng.gen_range(2..5);
            let v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 50.0).collect();
            let prefix = pass_common::PrefixSums::build(&v);
            let idx = WindowIndex::build(&prefix, delta_m);
            let oracle = VarianceOracle::new(&prefix, AggKind::Avg).unwrap();
            let mut exact = 0.0f64;
            for g in 0..n {
                for w in (g + delta_m)..=(g + 2 * delta_m - 1).min(n) {
                    exact = exact.max(oracle.query_variance(0, n, g, w));
                }
            }
            let approx = idx.max_variance(0, n);
            assert!(
                approx >= exact / 4.0 - 1e-9,
                "trial {trial}: approx {approx} < exact/4 {}",
                exact / 4.0
            );
            // The returned value is itself a genuine query variance, so it
            // cannot exceed the max over all length-δm.. queries.
            assert!(approx <= exact + 1e-9, "trial {trial}");
        }
    }

    #[test]
    fn exact_for_length_delta_m_queries() {
        // Among length-exactly-δm queries the index is exact: it returns
        // the max-Σt² window, and for fixed length the variance is maximal
        // there or the quarter bound cannot bind below the true max.
        let v: Vec<f64> = vec![1.0, 2.0, 100.0, 3.0, 1.0, 2.0, 1.0, 1.0];
        let prefix = pass_common::PrefixSums::build(&v);
        let idx = WindowIndex::build(&prefix, 2);
        let (g, _) = idx.argmax_window(0, 8).unwrap();
        // Best Σt² window must contain the 100.
        assert!(g == 1 || g == 2);
        assert!(idx.max_variance(0, 8) > 0.0);
    }

    #[test]
    fn small_partitions_score_zero() {
        let v = vec![1.0, 100.0, 2.0, 99.0];
        let prefix = pass_common::PrefixSums::build(&v);
        let idx = WindowIndex::build(&prefix, 3);
        // 4 < 2·3: treated as zero-variance.
        assert_eq!(idx.max_variance(0, 4), 0.0);
    }

    #[test]
    fn argmax_respects_range() {
        let v: Vec<f64> = (0..20)
            .map(|i| if i >= 15 { 1000.0 } else { 1.0 })
            .collect();
        let prefix = pass_common::PrefixSums::build(&v);
        let idx = WindowIndex::build(&prefix, 3);
        // Searching only the calm prefix must not return the wild suffix.
        let (start, _) = idx.argmax_window(0, 14).unwrap();
        assert!(start + idx.window() <= 14);
    }

    #[test]
    fn degenerate_inputs() {
        let prefix = pass_common::PrefixSums::build(&[]);
        let idx = WindowIndex::build(&prefix, 5);
        assert_eq!(idx.max_variance(0, 0), 0.0);
        assert!(idx.argmax_window(0, 0).is_none());

        let prefix = pass_common::PrefixSums::build(&[1.0, 2.0]);
        let idx = WindowIndex::build(&prefix, 5);
        assert_eq!(idx.max_variance(0, 2), 0.0);
    }
}
