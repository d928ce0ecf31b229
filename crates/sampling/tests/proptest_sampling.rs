//! Property tests for the sampling substrate: without-replacement
//! invariants, estimator exactness at full sampling and stratified
//! combination conservation.

use proptest::prelude::*;

use pass_common::rng::rng_from_seed;
use pass_common::{AggKind, Query, Rect};
use pass_sampling::estimator::estimate;
use pass_sampling::{combine_strata, Sample, StratumEstimate};
use pass_table::Table;

fn table_strategy() -> impl Strategy<Value = Table> {
    prop::collection::vec((0.0f64..100.0, -50.0f64..50.0), 2..150).prop_map(|rows| {
        let (keys, values): (Vec<f64>, Vec<f64>) = rows.into_iter().unzip();
        Table::one_dim(keys, values).unwrap()
    })
}

proptest! {
    /// Uniform sampling never duplicates rows and stays within bounds.
    #[test]
    fn sampling_without_replacement(t in table_strategy(), k in 1usize..100, seed in 0u64..500) {
        let mut rng = rng_from_seed(seed);
        let s = Sample::uniform(&t, k, &mut rng).unwrap();
        prop_assert!(s.k() <= t.n_rows());
        prop_assert!(s.k() <= k.max(1) || s.k() == t.n_rows());
        prop_assert_eq!(s.population(), t.n_rows() as u64);
    }

    /// A full sample reproduces SUM/COUNT exactly with zero estimator
    /// variance (the FPC collapses it).
    #[test]
    fn full_sample_estimators_are_exact(t in table_strategy(), a in 0.0f64..100.0, b in 0.0f64..100.0) {
        let mut rng = rng_from_seed(1);
        let s = Sample::uniform(&t, t.n_rows(), &mut rng).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let rect = Rect::interval(lo, hi);
        for agg in [AggKind::Sum, AggKind::Count] {
            let pv = estimate(agg, &s, &rect).unwrap();
            let truth = t
                .ground_truth(&Query::new(agg, rect.clone()))
                .unwrap();
            prop_assert!((pv.value - truth).abs() < 1e-6 * truth.abs().max(1.0), "{agg}");
            prop_assert!(pv.variance.abs() < 1e-9, "{agg} variance {}", pv.variance);
        }
    }

    /// SUM/COUNT combination conserves totals: combining per-stratum
    /// estimates equals estimating the union when strata tile the space.
    #[test]
    fn stratified_sum_is_additive(
        values in prop::collection::vec(0.0f64..10.0, 10..100),
        cut_frac in 0.1f64..0.9,
    ) {
        let n = values.len();
        let cut = ((n as f64) * cut_frac) as usize;
        let keys: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Table::one_dim(keys, values).unwrap();
        // Full per-stratum samples: estimates are exact.
        let s1 = Sample::from_indices(&t, &(0..cut).collect::<Vec<_>>(), cut as u64).unwrap();
        let s2 = Sample::from_indices(&t, &(cut..n).collect::<Vec<_>>(), (n - cut) as u64).unwrap();
        let rect = Rect::interval(-1.0, n as f64);
        let e1 = estimate(AggKind::Sum, &s1, &rect).unwrap();
        let e2 = estimate(AggKind::Sum, &s2, &rect).unwrap();
        let combined = combine_strata(
            AggKind::Sum,
            &[
                StratumEstimate { point: e1, population: cut as u64 },
                StratumEstimate { point: e2, population: (n - cut) as u64 },
            ],
            n as u64,
        );
        let truth = t.ground_truth(&Query::new(AggKind::Sum, rect)).unwrap();
        prop_assert!((combined.value - truth).abs() < 1e-6 * truth.abs().max(1.0));
    }
}
