//! The AQP++ hill-climbing partition selector (the Section 5.1.3 baseline).
//!
//! AQP++ [Peng et al. 2018] chooses which aggregate queries to precompute by
//! iterative hill climbing over boundary positions rather than by dynamic
//! programming. Following the paper's re-implementation ("we implemented the
//! hill-climbing algorithm described in the AQP++ paper ... partition the
//! dataset with the hill-climbing algorithm then pre-compute aggregations"),
//! we start from equal-depth boundaries and greedily move one boundary at a
//! time while the worst-case partition variance improves.
//!
//! Section 5.3 notes their implementation "performs very similar to the
//! equal partitioning" — a useful sanity property the tests assert.

use pass_common::{AggKind, Result};
use pass_table::SortedTable;

use crate::maxvar::{MaxVarOracle, MedianSplit};
use crate::spec::{Partitioner1D, Partitioning1D};
use crate::variance::VarianceOracle;

/// Hill-climbing boundary optimizer.
#[derive(Debug, Clone, Copy)]
pub struct HillClimb {
    pub kind: AggKind,
    /// Maximum full passes over the boundary set.
    pub max_rounds: usize,
}

impl HillClimb {
    pub fn new(kind: AggKind) -> Self {
        Self {
            kind,
            max_rounds: 20,
        }
    }

    /// Worst partition score under the O(1) median-split oracle.
    fn objective(oracle: &MedianSplit<'_>, cuts: &[usize], n: usize) -> f64 {
        let mut worst = 0.0f64;
        let mut start = 0;
        for &c in cuts.iter().chain(std::iter::once(&n)) {
            worst = worst.max(oracle.max_variance(start, c));
            start = c;
        }
        worst
    }
}

impl Partitioner1D for HillClimb {
    fn name(&self) -> &'static str {
        "HillClimb"
    }

    fn partition(&self, sorted: &SortedTable, k: usize) -> Result<Partitioning1D> {
        let n = sorted.len();
        let k = k.clamp(1, n.max(1));
        let mut cuts: Vec<usize> = (1..k).map(|j| j * n / k).collect();
        cuts.retain(|&c| c > 0 && c < n);
        if n == 0 || cuts.is_empty() {
            return Partitioning1D::new(n, cuts);
        }

        // COUNT's optimum is the equal start point already (Lemma A.1).
        let scoring_kind = if self.kind == AggKind::Count {
            return Partitioning1D::new(n, cuts);
        } else {
            AggKind::Sum // AQP++ scores with a single generic objective
        };
        let oracle = MedianSplit::new(VarianceOracle::new(sorted.prefix(), scoring_kind)?);

        let mut best_obj = Self::objective(&oracle, &cuts, n);
        let mut step = (n / (4 * k)).max(1);
        for _ in 0..self.max_rounds {
            let mut improved = false;
            for i in 0..cuts.len() {
                let lo_limit = if i == 0 { 1 } else { cuts[i - 1] + 1 };
                let hi_limit = if i + 1 == cuts.len() {
                    n - 1
                } else {
                    cuts[i + 1] - 1
                };
                for candidate in [cuts[i].saturating_sub(step), cuts[i] + step] {
                    let candidate = candidate.clamp(lo_limit, hi_limit);
                    if candidate == cuts[i] {
                        continue;
                    }
                    let old = cuts[i];
                    cuts[i] = candidate;
                    let obj = Self::objective(&oracle, &cuts, n);
                    if obj < best_obj {
                        best_obj = obj;
                        improved = true;
                    } else {
                        cuts[i] = old;
                    }
                }
            }
            if !improved {
                if step == 1 {
                    break;
                }
                step = (step / 2).max(1);
            }
        }
        // Snap cuts to key boundaries: a cut inside a run of equal keys
        // would make adjacent partition rectangles overlap, which breaks
        // the geometric covered-region test AQP++'s gap estimator uses.
        let keys = sorted.keys();
        let snapped: Vec<usize> = cuts
            .into_iter()
            .map(|c| {
                let key = keys[c];
                keys.partition_point(|&k| k < key)
            })
            .filter(|&c| c > 0 && c < n)
            .collect();
        Partitioning1D::new(n, snapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equal::EqualDepth;
    use crate::maxvar::Exhaustive;
    use pass_common::rng::rng_from_seed;
    use rand::Rng;

    fn sorted_from(values: Vec<f64>) -> SortedTable {
        SortedTable::from_sorted((0..values.len()).map(|i| i as f64).collect(), values)
    }

    fn exhaustive_objective(s: &SortedTable, p: &Partitioning1D, kind: AggKind) -> f64 {
        let oracle = Exhaustive::new(VarianceOracle::new(s.prefix(), kind).unwrap(), 1);
        p.ranges()
            .into_iter()
            .map(|r| oracle.max_variance(r.start, r.end))
            .fold(0.0, f64::max)
    }

    #[test]
    fn never_worse_than_its_equal_depth_start() {
        let mut rng = rng_from_seed(41);
        let values: Vec<f64> = (0..200)
            .map(|i| {
                if i < 150 {
                    0.0
                } else {
                    rng.gen::<f64>() * 100.0
                }
            })
            .collect();
        let s = sorted_from(values);
        let hc = HillClimb::new(AggKind::Sum).partition(&s, 8).unwrap();
        let eq = EqualDepth.partition(&s, 8).unwrap();
        assert!(
            exhaustive_objective(&s, &hc, AggKind::Sum)
                <= exhaustive_objective(&s, &eq, AggKind::Sum) + 1e-9
        );
    }

    #[test]
    fn similar_to_equal_on_homogeneous_data() {
        // Section 5.3's observation: on unremarkable data hill climbing
        // stays close to equal partitioning.
        let mut rng = rng_from_seed(42);
        let values: Vec<f64> = (0..160).map(|_| rng.gen::<f64>()).collect();
        let s = sorted_from(values);
        let hc = HillClimb::new(AggKind::Sum).partition(&s, 4).unwrap();
        let eq = EqualDepth.partition(&s, 4).unwrap();
        for (a, b) in hc.cuts().iter().zip(eq.cuts()) {
            assert!(
                (*a as i64 - *b as i64).unsigned_abs() <= 40,
                "hc cut {a} far from eq cut {b}"
            );
        }
    }

    #[test]
    fn count_returns_equal_cuts_directly() {
        let s = sorted_from(vec![1.0; 100]);
        let p = HillClimb::new(AggKind::Count).partition(&s, 5).unwrap();
        assert_eq!(p.cuts(), &[20, 40, 60, 80]);
    }

    #[test]
    fn keeps_cuts_ordered_and_valid() {
        let mut rng = rng_from_seed(43);
        let values: Vec<f64> = (0..300).map(|_| rng.gen::<f64>() * 50.0).collect();
        let s = sorted_from(values);
        let p = HillClimb::new(AggKind::Sum).partition(&s, 10).unwrap();
        let cuts = p.cuts();
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        assert!(cuts.iter().all(|&c| c > 0 && c < 300));
    }

    #[test]
    fn single_bucket_request() {
        let s = sorted_from(vec![1.0, 2.0, 3.0]);
        let p = HillClimb::new(AggKind::Sum).partition(&s, 1).unwrap();
        assert_eq!(p.len(), 1);
    }
}
