//! Equal partitionings: the EQ baseline of Section 5.3, which is also the
//! COUNT optimum of Lemma A.1, and the key-space variant.

use pass_common::Result;
use pass_table::SortedTable;

use crate::spec::{Partitioner1D, Partitioning1D};

/// Interior cuts splitting `n` rows into `k` near-equal buckets.
pub(crate) fn equal_count_cuts(n: usize, k: usize) -> Vec<usize> {
    let k = k.clamp(1, n);
    (1..k)
        .map(|j| j * n / k)
        .filter(|&c| c > 0 && c < n)
        .collect()
}

/// Equal-depth (equal-frequency) partitioning — the paper's EQ baseline and
/// the strata constructor for plain stratified sampling. It is also the
/// provably optimal partitioning for 1-D COUNT queries (Lemma A.1), which
/// is what [`Adp`](crate::Adp) builds for COUNT.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualDepth;

impl Partitioner1D for EqualDepth {
    fn name(&self) -> &'static str {
        "EQ"
    }

    fn partition(&self, sorted: &SortedTable, k: usize) -> Result<Partitioning1D> {
        Partitioning1D::new(sorted.len(), equal_count_cuts(sorted.len(), k))
    }
}

/// Equal-width partitioning of the key space (classic histogram buckets).
/// Not used by PASS itself but a natural comparison point for the
/// partitioning ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualWidth;

impl Partitioner1D for EqualWidth {
    fn name(&self) -> &'static str {
        "EqWidth"
    }

    fn partition(&self, sorted: &SortedTable, k: usize) -> Result<Partitioning1D> {
        let n = sorted.len();
        if n == 0 {
            return Partitioning1D::new(0, Vec::new());
        }
        let lo = sorted.key(0);
        let hi = sorted.key(n - 1);
        if lo == hi {
            return Ok(Partitioning1D::single(n));
        }
        let k = k.max(1);
        let width = (hi - lo) / k as f64;
        let cuts: Vec<usize> = (1..k)
            .map(|j| {
                let boundary = lo + j as f64 * width;
                sorted.keys().partition_point(|&key| key < boundary)
            })
            .filter(|&c| c > 0 && c < n)
            .collect();
        Partitioning1D::new(n, cuts)
    }
}

#[cfg(test)]
mod tests {
    use pass_common::AggKind;

    use super::*;
    use crate::Adp;

    fn sorted_uniform_keys(n: usize) -> SortedTable {
        SortedTable::from_sorted((0..n).map(|i| i as f64).collect(), vec![1.0; n])
    }

    #[test]
    fn equal_depth_bucket_sizes_differ_by_at_most_one() {
        let s = sorted_uniform_keys(103);
        let p = EqualDepth.partition(&s, 8).unwrap();
        let sizes: Vec<usize> = p.ranges().into_iter().map(|r| r.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 103);
    }

    #[test]
    fn k_larger_than_n_degrades_gracefully() {
        let s = sorted_uniform_keys(3);
        let p = EqualDepth.partition(&s, 10).unwrap();
        assert!(p.len() <= 3);
    }

    #[test]
    fn equal_width_splits_key_space() {
        // Keys clustered at both ends: equal-width puts the cut midway in
        // key space, not at the median row.
        let keys = vec![0.0, 0.1, 0.2, 0.3, 9.7, 9.8, 9.9, 10.0];
        let s = SortedTable::from_sorted(keys, vec![1.0; 8]);
        let p = EqualWidth.partition(&s, 2).unwrap();
        assert_eq!(p.cuts(), &[4]); // boundary at key 5.0 → row 4
    }

    #[test]
    fn equal_width_constant_keys_single_bucket() {
        let s = SortedTable::from_sorted(vec![5.0; 10], vec![1.0; 10]);
        let p = EqualWidth.partition(&s, 4).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn count_optimal_equals_equal_depth() {
        // Lemma A.1: ADP's COUNT partitioning is the equal-depth one.
        let s = sorted_uniform_keys(64);
        assert_eq!(
            Adp::new(AggKind::Count).partition(&s, 7).unwrap().cuts(),
            EqualDepth.partition(&s, 7).unwrap().cuts()
        );
    }

    #[test]
    fn names() {
        assert_eq!(EqualDepth.name(), "EQ");
        assert_eq!(EqualWidth.name(), "EqWidth");
    }
}
