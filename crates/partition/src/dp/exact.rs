//! The exact (reference) dynamic programs of Section 4.3, kept as test
//! code.
//!
//! Both use the exhaustive max-variance oracle and therefore compute an
//! optimal partitioning for AVG (and a √2-approximation for SUM, since a 1-D
//! query partially intersects at most two partitions — Lemma 4.1). They are
//! polynomially expensive and exist as ground truth for testing `Adp` (here
//! and in `adp.rs`), so they compile only under `cfg(test)`.

#[cfg(test)]
pub(crate) use reference::{MonotoneDp, NaiveDp};

#[cfg(test)]
mod reference {
    use pass_common::{AggKind, Result};
    use pass_table::SortedTable;

    use crate::dp::engine::{dp_cuts, SearchStrategy};
    use crate::maxvar::Exhaustive;
    use crate::spec::{Partitioner1D, Partitioning1D};
    use crate::variance::VarianceOracle;

    /// O(kN² + N⁴): exhaustive oracle (each of the ≤ N²/2 ranges scored once),
    /// linear `h` scan.
    #[derive(Debug, Clone, Copy)]
    pub struct NaiveDp {
        pub kind: AggKind,
        /// Minimum meaningful query size (δN of Section 4.2.1).
        pub min_items: usize,
    }

    impl NaiveDp {
        pub fn new(kind: AggKind) -> Self {
            Self { kind, min_items: 1 }
        }
    }

    impl Partitioner1D for NaiveDp {
        fn name(&self) -> &'static str {
            "NaiveDP"
        }

        fn partition(&self, sorted: &SortedTable, k: usize) -> Result<Partitioning1D> {
            let n = sorted.len();
            let oracle = Exhaustive::new(
                VarianceOracle::new(sorted.prefix(), self.kind)?,
                self.min_items,
            );
            let (cuts, _) = dp_cuts(n, k, 1, &oracle, SearchStrategy::Linear);
            Partitioning1D::new(n, cuts)
        }
    }

    /// O(min(k log N, N) · N³): exhaustive oracle (each probed range scored
    /// once), binary `h` search via monotonicity.
    #[derive(Debug, Clone, Copy)]
    pub struct MonotoneDp {
        pub kind: AggKind,
        pub min_items: usize,
    }

    impl MonotoneDp {
        pub fn new(kind: AggKind) -> Self {
            Self { kind, min_items: 1 }
        }
    }

    impl Partitioner1D for MonotoneDp {
        fn name(&self) -> &'static str {
            "MonotoneDP"
        }

        fn partition(&self, sorted: &SortedTable, k: usize) -> Result<Partitioning1D> {
            let n = sorted.len();
            let oracle = Exhaustive::new(
                VarianceOracle::new(sorted.prefix(), self.kind)?,
                self.min_items,
            );
            let (cuts, _) = dp_cuts(n, k, 1, &oracle, SearchStrategy::Binary);
            Partitioning1D::new(n, cuts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxvar::{Exhaustive, MaxVarOracle};
    use crate::spec::{Partitioner1D, Partitioning1D};
    use crate::variance::VarianceOracle;
    use pass_common::rng::rng_from_seed;
    use pass_common::{AggKind, PassError};
    use pass_table::SortedTable;
    use rand::Rng;

    fn sorted_from(values: Vec<f64>) -> SortedTable {
        let keys: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
        SortedTable::from_sorted(keys, values)
    }

    /// Objective value of a partitioning under the exhaustive oracle.
    fn objective(sorted: &SortedTable, p: &Partitioning1D, kind: AggKind) -> f64 {
        let oracle = Exhaustive::new(VarianceOracle::new(sorted.prefix(), kind).unwrap(), 1);
        p.ranges()
            .into_iter()
            .map(|r| oracle.max_variance(r.start, r.end))
            .fold(0.0, f64::max)
    }

    #[test]
    fn naive_beats_or_ties_equal_partitioning() {
        let mut rng = rng_from_seed(21);
        let values: Vec<f64> = (0..24)
            .map(|i| {
                if i < 18 {
                    0.0
                } else {
                    rng.gen::<f64>() * 100.0
                }
            })
            .collect();
        let s = sorted_from(values);
        let dp = NaiveDp::new(AggKind::Sum).partition(&s, 4).unwrap();
        let eq = Partitioning1D::new(24, vec![6, 12, 18]).unwrap();
        assert!(objective(&s, &dp, AggKind::Sum) <= objective(&s, &eq, AggKind::Sum) + 1e-9);
    }

    #[test]
    fn naive_is_optimal_among_all_partitionings_small() {
        // Brute-force every 3-bucket partitioning of 10 items and verify the
        // DP matches the optimum.
        let values = vec![0.0, 0.0, 5.0, 0.0, 9.0, 0.0, 0.0, 40.0, 41.0, 0.5];
        let s = sorted_from(values);
        let dp = NaiveDp::new(AggKind::Avg).partition(&s, 3).unwrap();
        let dp_obj = objective(&s, &dp, AggKind::Avg);
        let mut best = f64::INFINITY;
        for c1 in 1..9 {
            for c2 in (c1 + 1)..10 {
                let p = Partitioning1D::new(10, vec![c1, c2]).unwrap();
                best = best.min(objective(&s, &p, AggKind::Avg));
            }
        }
        assert!(
            (dp_obj - best).abs() < 1e-9,
            "dp {dp_obj} vs brute force {best}"
        );
    }

    #[test]
    fn monotone_matches_naive() {
        let mut rng = rng_from_seed(22);
        for trial in 0..5 {
            let values: Vec<f64> = (0..30).map(|_| rng.gen::<f64>() * 10.0).collect();
            let s = sorted_from(values);
            for kind in [AggKind::Sum, AggKind::Avg] {
                let a = NaiveDp::new(kind).partition(&s, 4).unwrap();
                let b = MonotoneDp::new(kind).partition(&s, 4).unwrap();
                let oa = objective(&s, &a, kind);
                let ob = objective(&s, &b, kind);
                assert!(
                    (oa - ob).abs() < 1e-9,
                    "trial {trial} {kind}: naive {oa} vs monotone {ob}"
                );
            }
        }
    }

    #[test]
    fn empty_input_is_a_typed_error() {
        let s = sorted_from(Vec::new());
        for result in [
            NaiveDp::new(AggKind::Sum).partition(&s, 3),
            MonotoneDp::new(AggKind::Avg).partition(&s, 3),
        ] {
            assert!(
                matches!(result, Err(PassError::EmptyInput(_))),
                "{result:?}"
            );
        }
    }

    #[test]
    fn min_max_objectives_are_a_typed_error() {
        // MIN/MAX have no variance oracle: as for `Adp`, asking the exact
        // DPs for one is an invalid parameter (it used to reach an
        // `unreachable!` in release and a debug assertion otherwise).
        let s = sorted_from((0..12).map(f64::from).collect());
        for kind in [AggKind::Min, AggKind::Max] {
            for result in [
                NaiveDp::new(kind).partition(&s, 3),
                MonotoneDp::new(kind).partition(&s, 3),
            ] {
                assert!(
                    matches!(result, Err(PassError::InvalidParameter("strategy_agg", _))),
                    "{kind}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(NaiveDp::new(AggKind::Sum).name(), "NaiveDP");
        assert_eq!(MonotoneDp::new(AggKind::Sum).name(), "MonotoneDP");
    }
}
