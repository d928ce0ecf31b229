//! The SUM/COUNT discretization of Lemma A.3.
//!
//! Split the candidate partition at its median item into halves `q1, q2`
//! and return `max(V(q1), V(q2))`. Lemma A.3 proves this is at least a
//! quarter of the true maximum variance, and it costs O(1) per call on top
//! of prefix sums — this is what drops the DP from O(k·m²·…) to
//! O(k·m·log m).

use crate::variance::VarianceOracle;

use super::MaxVarOracle;

/// `M([lo,hi)) ≈ max(V(left half), V(right half))` — a ¼-approximation for
/// SUM and COUNT queries.
#[derive(Debug, Clone, Copy)]
pub struct MedianSplit<'a> {
    oracle: VarianceOracle<'a>,
}

impl<'a> MedianSplit<'a> {
    pub fn new(oracle: VarianceOracle<'a>) -> Self {
        Self { oracle }
    }
}

impl MaxVarOracle for MedianSplit<'_> {
    fn max_variance(&self, lo: usize, hi: usize) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let mid = lo + (hi - lo) / 2;
        let left = self.oracle.query_variance(lo, hi, lo, mid);
        let right = self.oracle.query_variance(lo, hi, mid, hi);
        left.max(right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxvar::Exhaustive;
    use pass_common::rng::rng_from_seed;
    use pass_common::{AggKind, PrefixSums};
    use rand::Rng;

    #[test]
    fn quarter_approximation_holds_on_random_data() {
        // Lemma A.3: V(returned) >= V(optimal) / 4.
        let mut rng = rng_from_seed(42);
        for trial in 0..50 {
            let n = rng.gen_range(8..60);
            let v: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen::<f64>() < 0.3 {
                        0.0
                    } else {
                        rng.gen::<f64>() * 100.0
                    }
                })
                .collect();
            let p = PrefixSums::build(&v);
            for kind in [AggKind::Sum, AggKind::Count] {
                let oracle = VarianceOracle::new(&p, kind).unwrap();
                let approx = MedianSplit::new(oracle).max_variance(0, n);
                let exact = Exhaustive::new(oracle, 1).max_variance(0, n);
                assert!(
                    approx >= exact / 4.0 - 1e-9,
                    "trial {trial} {kind}: approx {approx} < exact/4 {}",
                    exact / 4.0
                );
                assert!(approx <= exact + 1e-9, "approx cannot beat exact");
            }
        }
    }

    #[test]
    fn empty_and_singleton_ranges() {
        let v = vec![1.0, 2.0, 3.0];
        let p = PrefixSums::build(&v);
        let ms = MedianSplit::new(VarianceOracle::new(&p, AggKind::Sum).unwrap());
        assert_eq!(ms.max_variance(1, 1), 0.0);
        assert_eq!(ms.max_variance(2, 1), 0.0);
        // Singleton: left half empty, right half = the item.
        assert!(ms.max_variance(0, 1) >= 0.0);
    }

    #[test]
    fn constant_data_matches_exhaustive_for_sum() {
        // For constant values the max-variance SUM query is the half split,
        // which is exactly what the median-split oracle evaluates — so the
        // approximation is tight here (16·10·(1 − 10/20) = 80).
        let v = vec![4.0; 20];
        let p = PrefixSums::build(&v);
        let oracle = VarianceOracle::new(&p, AggKind::Sum).unwrap();
        let approx = MedianSplit::new(oracle).max_variance(0, 20);
        let exact = Exhaustive::new(oracle, 1).max_variance(0, 20);
        assert!((approx - exact).abs() < 1e-12);
        assert!((approx - 80.0).abs() < 1e-12);
    }

    #[test]
    fn count_split_is_exact_at_even_sizes() {
        // COUNT's max-variance query is exactly the half split (Lemma A.1),
        // so the median-split approximation is tight here.
        let v = vec![1.0; 16];
        let p = PrefixSums::build(&v);
        let oracle = VarianceOracle::new(&p, AggKind::Count).unwrap();
        let approx = MedianSplit::new(oracle).max_variance(0, 16);
        let exact = Exhaustive::new(oracle, 1).max_variance(0, 16);
        assert!((approx - exact).abs() < 1e-12);
    }
}
