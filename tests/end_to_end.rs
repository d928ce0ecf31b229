//! End-to-end integration tests spanning every crate: datasets → specs →
//! `Session::run_workload`, asserting the paper's headline claims at
//! test scale.

use pass::common::{AggKind, PartitionStrategy, PassSpec, Query, Synopsis};
use pass::core::Pass;
use pass::table::datasets::{adversarial, DatasetId};
use pass::table::SortedTable;
use pass::workload::{challenging_queries, random_queries};
use pass::{EngineSpec, Session};

/// The Table 1 premise: controlling for sample budget, PASS is more
/// accurate than uniform sampling on every dataset for every aggregate.
#[test]
fn pass_beats_uniform_sampling_across_datasets_and_aggregates() {
    for id in DatasetId::ALL {
        let table = id.generate(60_000, 1);
        let sorted = SortedTable::from_table(&table, 0);
        // Budget-matching US requires PASS's realized sample count, so
        // build PASS concretely and adopt it into the session.
        let pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: 32,
                sample_rate: 0.01,
                seed: 2,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let budget = pass.total_samples();
        let mut session = Session::new(table);
        session.add_synopsis("pass", Box::new(pass));
        session
            .add_engine("us", &EngineSpec::uniform(budget).with_seed(2))
            .unwrap();
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let queries = random_queries(&sorted, 120, agg, 600, 3);
            let rows = session.run_workload(&queries);
            let (p, u) = (&rows[0], &rows[1]);
            assert!(
                p.median_relative_error <= u.median_relative_error * 1.05,
                "{id}/{agg}: PASS {} vs US {}",
                p.median_relative_error,
                u.median_relative_error
            );
        }
    }
}

/// The Figure 6 premise: variance-optimized partitioning (ADP) beats
/// equal-depth partitioning on challenging workloads over skewed data.
#[test]
fn adp_beats_equal_depth_on_adversarial_challenging_queries() {
    let table = adversarial(120_000, 4);
    let sorted = SortedTable::from_table(&table, 0);
    let queries = challenging_queries(&sorted, 150, AggKind::Sum, 4_096, 0.01, 5);

    let spec = |strategy| {
        EngineSpec::Pass(PassSpec {
            partitions: 32,
            sample_rate: 0.01,
            strategy,
            seed: 6,
            ..PassSpec::default()
        })
    };
    let session = Session::with_engines(
        table,
        &[
            ("adp", spec(PartitionStrategy::Adp(AggKind::Sum))),
            ("eq", spec(PartitionStrategy::EqualDepth)),
        ],
    )
    .unwrap();
    let rows = session.run_workload(&queries);
    let (a, e) = (&rows[0], &rows[1]);
    assert!(
        a.median_ci_ratio < e.median_ci_ratio,
        "ADP CI {} should beat EQ CI {}",
        a.median_ci_ratio,
        e.median_ci_ratio
    );
    assert!(
        a.median_relative_error <= e.median_relative_error,
        "ADP err {} vs EQ err {}",
        a.median_relative_error,
        e.median_relative_error
    );
}

/// PASS skip rates are near 1 for selective 1-D queries (Figure 8's
/// right-panel behaviour in one dimension).
#[test]
fn skip_rate_is_high_for_selective_queries() {
    let table = DatasetId::NycTaxi.generate(80_000, 7);
    let sorted = SortedTable::from_table(&table, 0);
    let queries = random_queries(&sorted, 100, AggKind::Sum, 800, 9);
    let session = Session::with_engines(
        table,
        &[(
            "pass",
            EngineSpec::Pass(PassSpec {
                partitions: 64,
                sample_rate: 0.02,
                seed: 8,
                ..PassSpec::default()
            }),
        )],
    )
    .unwrap();
    let summary = &session.run_workload(&queries)[0];
    assert!(
        summary.mean_skip_rate > 0.97,
        "skip rate {}",
        summary.mean_skip_rate
    );
}

/// All engines answer the same workload without panicking and their
/// summaries are internally consistent.
#[test]
fn all_engines_run_one_workload() {
    let table = DatasetId::Intel.generate(40_000, 10);
    let sorted = SortedTable::from_table(&table, 0);
    let queries = random_queries(&sorted, 60, AggKind::Sum, 400, 11);

    let session = Session::with_engines(
        table,
        &[
            (
                "pass",
                EngineSpec::Pass(PassSpec {
                    partitions: 16,
                    sample_rate: 0.01,
                    seed: 12,
                    ..PassSpec::default()
                }),
            ),
            ("us", EngineSpec::uniform(400).with_seed(12)),
            ("st", EngineSpec::stratified(16, 400).with_seed(12)),
            ("aqp", EngineSpec::aqppp(16, 400).with_seed(12)),
            ("verdict", EngineSpec::verdict(0.05).with_seed(12)),
            ("spn", EngineSpec::spn(0.5).with_seed(12)),
        ],
    )
    .unwrap();

    let rows = session.run_workload(&queries);
    assert_eq!(rows.len(), session.engine_names().len());
    for summary in &rows {
        let name = &summary.engine;
        assert_eq!(summary.queries, queries.len(), "{name}");
        assert!(summary.median_relative_error.is_finite());
        assert!(summary.storage_bytes > 0);
        assert!(summary.median_relative_error < 0.5, "{name}");
        assert!(summary.build_ms >= 0.0);
    }
}

/// Determinism across the whole pipeline: same seeds → identical results.
#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let table = DatasetId::Instacart.generate(30_000, 13);
        let sorted = SortedTable::from_table(&table, 0);
        let queries = random_queries(&sorted, 50, AggKind::Avg, 300, 15);
        let session = Session::with_engines(
            table,
            &[(
                "pass",
                EngineSpec::Pass(PassSpec {
                    partitions: 16,
                    sample_rate: 0.01,
                    seed: 14,
                    ..PassSpec::default()
                }),
            )],
        )
        .unwrap();
        session.run_workload(&queries)[0].median_relative_error
    };
    assert_eq!(run(), run());
}

/// Exactness contract: queries aligned with leaf boundaries have zero
/// error, zero CI, and matching hard bounds — across aggregates, whether
/// asked one at a time or as a batch.
#[test]
fn aligned_queries_are_exact_end_to_end() {
    let table = DatasetId::NycTaxi.generate(50_000, 16);
    let pass = Pass::from_spec(
        &table,
        &PassSpec {
            partitions: 32,
            sample_rate: 0.005,
            seed: 17,
            ..PassSpec::default()
        },
    )
    .unwrap();
    let leaves = pass.tree().leaves();
    // Union of leaves 3..=9 is a contiguous aligned range.
    let lo = pass.tree().rect_lo(leaves[3], 0);
    let hi = pass.tree().rect_hi(leaves[9], 0);
    let queries: Vec<Query> = AggKind::ALL
        .into_iter()
        .map(|agg| Query::interval(agg, lo, hi))
        .collect();
    let batch = pass.estimate_many(&queries);
    for (q, batched) in queries.iter().zip(batch) {
        let est = pass.estimate(q).unwrap();
        let batched = batched.unwrap();
        let truth = table.ground_truth(q).unwrap();
        assert!(est.exact, "{}", q.agg);
        assert!(
            (est.value - truth).abs() <= 1e-9 * truth.abs().max(1.0),
            "{}: {} vs {truth}",
            q.agg,
            est.value
        );
        assert_eq!(est.value, batched.value, "{}", q.agg);
        assert_eq!(est.exact, batched.exact, "{}", q.agg);
    }
}
