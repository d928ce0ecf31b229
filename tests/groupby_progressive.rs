//! Property-based tests (proptest) pinning the online-aggregation
//! contract of [`Synopsis::estimate_group_by_progressive`]:
//!
//! * published snapshot CI widths are **non-increasing**, per group,
//!   from the first snapshot through the final one;
//! * under exact engines (PASS at `sample_rate: 1.0`) every
//!   intermediate snapshot's CI **contains the final point estimate**
//!   — the refinement narrows onto the answer, it never excludes it;
//! * the final snapshot is **bit-identical** to the non-progressive
//!   [`estimate_group_by`] answer — streaming is a view of
//!   the same computation, not a different estimator.

use proptest::prelude::*;

use pass::common::{
    estimate_group_by, AggKind, EngineSpec, GroupByQuery, GroupBySnapshot, PassSpec, ShardPlan,
    Synopsis,
};
use pass::table::Table;
use pass::Engine;

/// Strategy: a small categorical table (category code on the predicate
/// dimension, value with per-category offset plus noise) and a shard
/// count.
fn table_params() -> impl Strategy<Value = (Vec<f64>, usize, usize)> {
    (
        prop::collection::vec(-20.0f64..100.0, 60..240),
        2usize..5, // categories
        2usize..5, // shards
    )
}

fn build_table(noise: &[f64], categories: usize) -> Table {
    let cat: Vec<f64> = (0..noise.len()).map(|i| (i % categories) as f64).collect();
    let values: Vec<f64> = noise
        .iter()
        .enumerate()
        .map(|(i, v)| ((i % categories) + 1) as f64 * 50.0 + v)
        .collect();
    Table::one_dim(cat, values).unwrap()
}

fn keys(categories: usize) -> Vec<f64> {
    (0..categories).map(|c| c as f64).collect()
}

/// Collect every published snapshot plus the returned final groups.
fn run_progressive(
    engine: &dyn Synopsis,
    query: &GroupByQuery,
) -> (Vec<GroupBySnapshot>, Vec<pass::GroupResult>) {
    let mut snapshots = Vec::new();
    let groups = engine
        .estimate_group_by_progressive(query, &mut |snap| {
            snapshots.push(snap);
            true
        })
        .unwrap();
    (snapshots, groups)
}

/// A group row's CI width; `Err` rows are infinitely wide (any later
/// answer is an improvement).
fn row_width(row: &pass::GroupResult) -> f64 {
    row.estimate
        .as_ref()
        .map_or(f64::INFINITY, |est| est.ci_half)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact engines (PASS, full sample): widths tighten monotonically
    /// to zero, every intermediate CI contains the final point, and the
    /// final snapshot is the non-progressive answer bit for bit.
    #[test]
    fn progressive_refinement_tightens_onto_the_exact_answer(
        (noise, categories, shards) in table_params(),
        agg_idx in 0usize..3,
    ) {
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg][agg_idx];
        let table = build_table(&noise, categories);
        let spec = EngineSpec::sharded(
            EngineSpec::Pass(PassSpec {
                partitions: 4,
                sample_rate: 1.0,
                seed: 7,
                ..PassSpec::default()
            }),
            ShardPlan::row_range(shards),
        );
        let engine = Engine::build(&table, &spec).unwrap();
        let query = GroupByQuery::over(agg, 0, &keys(categories), 1);

        let (snapshots, groups) = run_progressive(engine.as_ref(), &query);
        prop_assert!(!snapshots.is_empty());
        let last = snapshots.last().unwrap();
        prop_assert!(last.last);
        prop_assert_eq!(last.shards_merged, last.shards_total);

        // Final snapshot ≡ returned groups ≡ the non-progressive path.
        let direct = estimate_group_by(&engine, &query).unwrap();
        prop_assert_eq!(&last.groups, &groups);
        prop_assert_eq!(&groups, &direct);

        for (g, row) in direct.iter().enumerate() {
            let final_est = row.estimate.as_ref().unwrap();
            let mut prev = f64::INFINITY;
            for snap in &snapshots {
                let width = row_width(&snap.groups[g]);
                // Monotone refinement, snapshot over snapshot.
                prop_assert!(
                    width <= prev + 1e-9,
                    "group {g}: width {width} grew past {prev}"
                );
                prev = width;
                // Soundness: every intermediate CI contains the final
                // point estimate (exact engine — the final point is the
                // true answer of the estimator).
                if let Ok(est) = &snap.groups[g].estimate {
                    let (lo, hi) = est.ci();
                    prop_assert!(
                        lo - 1e-6 <= final_est.value && final_est.value <= hi + 1e-6,
                        "group {g}: final {} outside intermediate CI [{lo}, {hi}]",
                        final_est.value
                    );
                }
            }
            // Full sample: the final answer is exact with a zero CI.
            prop_assert!(final_est.exact);
            prop_assert_eq!(final_est.ci_half, 0.0);
        }
    }

    /// Sampling engines: the stream still refines monotonically and the
    /// final snapshot is still bit-identical to the direct path, even
    /// when answers carry sampling error (and some groups may be
    /// availability `Err` rows on some shards).
    #[test]
    fn progressive_stream_is_consistent_under_sampling(
        (noise, categories, shards) in table_params(),
        sample_k in 40usize..120,
    ) {
        let table = build_table(&noise, categories);
        let spec = EngineSpec::sharded(
            EngineSpec::uniform(sample_k).with_seed(5),
            ShardPlan::row_range(shards),
        );
        let engine = Engine::build(&table, &spec).unwrap();
        let query = GroupByQuery::over(AggKind::Sum, 0, &keys(categories), 1);

        let (snapshots, groups) = run_progressive(engine.as_ref(), &query);
        prop_assert!(!snapshots.is_empty());
        prop_assert_eq!(&snapshots.last().unwrap().groups, &groups);
        prop_assert_eq!(&groups, &estimate_group_by(&engine, &query).unwrap());

        // Published widths never widen, per group, across the stream —
        // intermediates by the publish filter, the final snapshot
        // because exact merging beats extrapolation.
        for g in 0..categories {
            let mut prev = f64::INFINITY;
            for snap in &snapshots {
                let width = row_width(&snap.groups[g]);
                prop_assert!(width <= prev + 1e-9, "group {g}");
                prev = width;
            }
        }

        // Snapshot metadata is coherent: merged counts increase and
        // only the last snapshot is flagged final.
        let mut prev_merged = 0;
        for (i, snap) in snapshots.iter().enumerate() {
            prop_assert!(snap.shards_merged > prev_merged);
            prop_assert!(snap.shards_merged <= snap.shards_total);
            prop_assert_eq!(snap.last, i == snapshots.len() - 1);
            prop_assert_eq!(snap.groups.len(), categories);
            prev_merged = snap.shards_merged;
        }
    }

    /// Early stop: returning `false` from the publish callback after
    /// the first snapshot yields exactly that snapshot's groups.
    #[test]
    fn stopping_the_stream_returns_the_last_offered_snapshot(
        (noise, categories, shards) in table_params(),
    ) {
        let table = build_table(&noise, categories);
        let spec = EngineSpec::sharded(
            EngineSpec::Pass(PassSpec {
                partitions: 4,
                sample_rate: 1.0,
                seed: 11,
                ..PassSpec::default()
            }),
            ShardPlan::row_range(shards),
        );
        let engine = Engine::build(&table, &spec).unwrap();
        let query = GroupByQuery::over(AggKind::Sum, 0, &keys(categories), 1);

        let mut seen = Vec::new();
        let groups = engine
            .estimate_group_by_progressive(&query, &mut |snap| {
                seen.push(snap);
                false
            })
            .unwrap();
        prop_assert_eq!(seen.len(), 1, "stopped after the first offer");
        prop_assert_eq!(&groups, &seen[0].groups);
    }
}
