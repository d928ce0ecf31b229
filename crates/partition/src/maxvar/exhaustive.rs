//! Exact maximum-variance query by exhaustive enumeration — the strawman
//! `M` of Section 4.3. O(len²) per call; the oracle of the exact test DPs
//! on small inputs and the ground truth for the approximation-factor tests
//! of the discretized oracles.

use crate::variance::VarianceOracle;

use super::MaxVarOracle;

/// Exhaustive `M([lo,hi))`: max `V_i(q)` over every contiguous query
/// `[g, w) ⊆ [lo, hi)` containing at least `min_items` rows (the paper's
/// δN meaningful-overlap assumption).
#[derive(Debug, Clone, Copy)]
pub struct Exhaustive<'a> {
    oracle: VarianceOracle<'a>,
    min_items: usize,
}

impl<'a> Exhaustive<'a> {
    pub fn new(oracle: VarianceOracle<'a>, min_items: usize) -> Self {
        Self {
            oracle,
            min_items: min_items.max(1),
        }
    }

    /// The maximizing query range itself, with its variance.
    pub fn argmax(&self, lo: usize, hi: usize) -> Option<(std::ops::Range<usize>, f64)> {
        let mut best: Option<(std::ops::Range<usize>, f64)> = None;
        // For AVG, Lemma A.4 bounds the optimum below 2·min_items samples;
        // still enumerate everything here — this is the reference oracle.
        for g in lo..hi {
            for w in (g + self.min_items)..=hi {
                let v = self.oracle.query_variance(lo, hi, g, w);
                if best.as_ref().is_none_or(|(_, b)| v > *b) {
                    best = Some((g..w, v));
                }
            }
        }
        best
    }
}

impl MaxVarOracle for Exhaustive<'_> {
    fn max_variance(&self, lo: usize, hi: usize) -> f64 {
        self.argmax(lo, hi).map_or(0.0, |(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::{AggKind, PrefixSums};

    #[test]
    fn finds_the_high_variance_pocket() {
        // Mostly constant with one wild range in the middle.
        let mut v = vec![5.0; 30];
        v[12] = 100.0;
        v[13] = -80.0;
        let p = PrefixSums::build(&v);
        let ex = Exhaustive::new(VarianceOracle::new(&p, AggKind::Sum).unwrap(), 2);
        let (range, var) = ex.argmax(0, 30).unwrap();
        assert!(var > 0.0);
        assert!(range.contains(&12) && range.contains(&13));
    }

    #[test]
    fn min_items_filters_tiny_queries() {
        let v = vec![0.0, 100.0, 0.0, 0.0];
        let p = PrefixSums::build(&v);
        // With min_items = 4 the only query is the whole partition.
        let ex = Exhaustive::new(VarianceOracle::new(&p, AggKind::Avg).unwrap(), 4);
        let (range, _) = ex.argmax(0, 4).unwrap();
        assert_eq!(range, 0..4);
    }

    #[test]
    fn empty_when_range_smaller_than_min_items() {
        let v = vec![1.0, 2.0];
        let p = PrefixSums::build(&v);
        let ex = Exhaustive::new(VarianceOracle::new(&p, AggKind::Sum).unwrap(), 3);
        assert!(ex.argmax(0, 2).is_none());
        assert_eq!(ex.max_variance(0, 2), 0.0);
    }

    #[test]
    fn constant_partition_keeps_membership_variance_only() {
        // Constant value 3 in a 10-row partition: the worst SUM query is the
        // half split with V = 9·5·(1 − 5/10) = 22.5 (pure membership
        // uncertainty — the value spread term is zero).
        let v = vec![3.0; 10];
        let p = PrefixSums::build(&v);
        let ex = Exhaustive::new(VarianceOracle::new(&p, AggKind::Sum).unwrap(), 1);
        assert!((ex.max_variance(0, 10) - 22.5).abs() < 1e-12);
    }

    #[test]
    fn count_max_is_half_range() {
        // Lemma A.1: COUNT max variance at N_iq = N_i/2.
        let v = vec![1.0; 16];
        let p = PrefixSums::build(&v);
        let ex = Exhaustive::new(VarianceOracle::new(&p, AggKind::Count).unwrap(), 1);
        let (range, var) = ex.argmax(0, 16).unwrap();
        assert_eq!(range.len(), 8);
        assert!((var - 4.0).abs() < 1e-12); // 8·(1 − 8/16) = 4
    }
}
