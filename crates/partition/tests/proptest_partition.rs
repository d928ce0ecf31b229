//! Property tests for the partitioning optimizers: structural invariants
//! of every partitioner, the variance-monotonicity lemma, the discretized
//! oracles' approximation bounds, and ADP's budget behaviour.

use proptest::prelude::*;

use pass_common::{AggKind, PrefixSums};
use pass_partition::maxvar::{Exhaustive, MaxVarOracle, MedianSplit, WindowIndex};
use pass_partition::{Adp, EqualDepth, EqualWidth, HillClimb, Partitioner1D, VarianceOracle};
use pass_table::SortedTable;

fn sorted_table() -> impl Strategy<Value = SortedTable> {
    prop::collection::vec(prop_oneof![Just(0.0f64), 0.1f64..100.0, Just(7.0)], 8..300).prop_map(
        |values| {
            // Keys with occasional duplicates (every third key repeats).
            let keys: Vec<f64> = (0..values.len()).map(|i| (i - i % 3) as f64).collect();
            SortedTable::from_sorted(keys, values)
        },
    )
}

fn all_partitioners() -> Vec<Box<dyn Partitioner1D>> {
    vec![
        Box::new(Adp::new(AggKind::Sum).with_samples(256)),
        Box::new(Adp::new(AggKind::Avg).with_samples(256)),
        Box::new(Adp::new(AggKind::Count)),
        Box::new(EqualDepth),
        Box::new(EqualWidth),
        Box::new(HillClimb::new(AggKind::Sum)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every partitioner returns a valid partitioning: buckets tile the
    /// row range exactly and the bucket count respects the budget.
    #[test]
    fn partitioners_produce_valid_tilings(sorted in sorted_table(), k in 1usize..20) {
        for p in all_partitioners() {
            let part = p.partition(&sorted, k).unwrap();
            prop_assert!(part.len() <= k.max(1), "{}", p.name());
            let ranges = part.ranges();
            prop_assert_eq!(ranges[0].start, 0, "{}", p.name());
            prop_assert_eq!(ranges[ranges.len() - 1].end, sorted.len());
            for w in ranges.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start, "{}", p.name());
            }
            prop_assert!(ranges.iter().all(|r| !r.is_empty()), "{}", p.name());
        }
    }

    /// The Section 4.3 monotonicity lemma: growing a partition around a
    /// fixed query never decreases the query's variance.
    #[test]
    fn variance_monotone_under_partition_growth(
        values in prop::collection::vec(-50.0f64..50.0, 10..80),
        q_lo_frac in 0.2f64..0.5,
        q_len_frac in 0.05f64..0.3,
    ) {
        let prefix = PrefixSums::build(&values);
        let n = values.len();
        let q_lo = ((n as f64) * q_lo_frac) as usize;
        let q_hi = (q_lo + ((n as f64) * q_len_frac) as usize + 1).min(n);
        for kind in [AggKind::Sum, AggKind::Avg, AggKind::Count] {
            let oracle = VarianceOracle::new(&prefix, kind).unwrap();
            let mut last = 0.0f64;
            // Partitions nested around the query: [q_lo - g, q_hi + g).
            for g in 0..q_lo.min(n - q_hi) {
                let v = oracle.query_variance(q_lo - g, q_hi + g, q_lo, q_hi);
                prop_assert!(
                    v + 1e-9 >= last,
                    "{kind}: shrank from {last} to {v} at growth {g}"
                );
                last = v;
            }
        }
    }

    /// Median-split stays within [exact/4, exact] for SUM on arbitrary
    /// data (Lemma A.3, both directions).
    #[test]
    fn median_split_quarter_bound(values in prop::collection::vec(-100.0f64..100.0, 4..60)) {
        let prefix = PrefixSums::build(&values);
        let oracle = VarianceOracle::new(&prefix, AggKind::Sum).unwrap();
        let approx = MedianSplit::new(oracle).max_variance(0, values.len());
        let exact = Exhaustive::new(oracle, 1).max_variance(0, values.len());
        prop_assert!(approx <= exact + 1e-9);
        prop_assert!(approx >= exact / 4.0 - 1e-9);
    }

    /// The AVG window index never reports a variance exceeding the true
    /// maximum over meaningful queries.
    #[test]
    fn window_index_is_conservative(values in prop::collection::vec(0.0f64..100.0, 12..80), dm in 2usize..5) {
        let prefix = PrefixSums::build(&values);
        let idx = WindowIndex::build(&prefix, dm);
        let oracle = VarianceOracle::new(&prefix, AggKind::Avg).unwrap();
        let exact = Exhaustive::new(oracle, dm).max_variance(0, values.len());
        prop_assert!(idx.max_variance(0, values.len()) <= exact + 1e-9);
    }

    /// ADP with duplicate keys never splits a key run, and its cuts land
    /// strictly inside the row range.
    #[test]
    fn adp_respects_key_runs(sorted in sorted_table(), k in 2usize..16) {
        let part = Adp::new(AggKind::Sum)
            .with_samples(128)
            .partition(&sorted, k)
            .unwrap();
        let keys = sorted.keys();
        for &c in part.cuts() {
            prop_assert!(c > 0 && c < sorted.len());
            prop_assert_ne!(keys[c - 1], keys[c], "cut at {} splits key {}", c, keys[c]);
        }
    }

    /// ADP uses its full budget whenever the key space allows it.
    #[test]
    fn adp_exhausts_budget_on_distinct_keys(
        values in prop::collection::vec(-10.0f64..10.0, 32..200),
        k in 2usize..16,
    ) {
        let keys: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
        let sorted = SortedTable::from_sorted(keys, values);
        let part = Adp::new(AggKind::Sum)
            .with_samples(sorted.len())
            .partition(&sorted, k)
            .unwrap();
        prop_assert_eq!(part.len(), k.min(sorted.len()));
    }
}
