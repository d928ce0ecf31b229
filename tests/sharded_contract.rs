//! Contract tests for the sharding layer: a `ShardedSynopsis` must
//! preserve the statistical contract of the engine it shards.
//!
//! The pinned guarantees, for **every** engine in the standard Section 5
//! suite (`Engine::standard_suite`):
//!
//! 1. A 1-shard row-range plan is **bit-identical** (asserted within
//!    1e-9 relative) to the unsharded engine on the standard query
//!    suite, CIs included — the merge layer adds no distortion, and the
//!    merged CI trivially contains the unsharded CI.
//! 2. For K > 1 disjoint shards, merged COUNT/SUM point estimates equal
//!    the **sum of the per-shard estimates exactly** (disjoint strata
//!    compose linearly), and the merged CI is the root-sum-square of the
//!    shard CIs — conservative in that it contains every component CI.
//!    The merged AVG is **ΣSUM/ΣCOUNT of the shards' own answers**, bit
//!    for bit, and the merged hard bounds of every aggregate contain the
//!    truth.
//! 3. `EngineSpec::Sharded` round-trips through JSON and through
//!    `Engine::build(..).spec()`.
//! 4. The batched and parallel paths of a sharded engine agree
//!    element-wise with the single-query path (the workspace-wide
//!    `Synopsis` contract).

use pass::common::{
    estimate_many_parallel, AggKind, EngineSpec, PassError, Query, ShardPlan, Synopsis, ThreadPool,
};
use pass::table::datasets::uniform;
use pass::table::Table;
use pass::{Engine, Session};
use pass_baselines::ShardedSynopsis;

/// The paper's comparison set at a shared budget.
fn suite() -> Vec<EngineSpec> {
    Engine::standard_suite(16, 800, 3)
}

/// Broad SUM/COUNT queries every engine can answer on every shard (the
/// "standard query suite" of the sharding contract).
fn query_suite() -> Vec<Query> {
    let mut queries = Vec::new();
    for agg in [AggKind::Sum, AggKind::Count] {
        for i in 0..8 {
            let lo = i as f64 / 10.0;
            queries.push(Query::interval(agg, lo, lo + 0.25));
        }
        queries.push(Query::interval(agg, 0.0, 1.0));
    }
    queries
}

/// The standard query suite's rectangles under `agg`.
fn suite_rects(agg: AggKind) -> Vec<Query> {
    query_suite()
        .into_iter()
        .filter(|q| q.agg == AggKind::Sum)
        .map(|q| Query::new(agg, q.rect))
        .collect()
}

fn assert_rel_close(a: f64, b: f64, tol: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(1e-12);
    assert!(
        (a - b).abs() <= tol * scale,
        "{what}: {a} vs {b} (rel {})",
        (a - b).abs() / scale
    );
}

/// Contract 1: one shard ≡ unsharded, CIs, bounds, and errors included.
#[test]
fn single_shard_row_range_is_identical_to_unsharded() {
    let table = uniform(20_000, 11);
    // The broad suite plus queries narrow enough that sampling engines
    // refuse (EmptyInput) — identity must hold on the error side too.
    let mut queries = query_suite();
    for agg in AggKind::ALL {
        queries.push(Query::interval(agg, 0.5 - 1e-9, 0.5 + 1e-9));
        queries.push(Query::interval(agg, 5.0, 6.0));
    }
    for spec in suite() {
        let unsharded = Engine::build(&table, &spec).unwrap();
        let sharded = Engine::build(
            &table,
            &EngineSpec::sharded(spec.clone(), ShardPlan::row_range(1)),
        )
        .unwrap();
        for q in &queries {
            match (unsharded.estimate(q), sharded.estimate(q)) {
                (Ok(a), Ok(b)) => {
                    assert_rel_close(a.value, b.value, 1e-9, unsharded.name());
                    assert_rel_close(a.ci_half, b.ci_half, 1e-9, unsharded.name());
                    assert_eq!(a.exact, b.exact, "{}", unsharded.name());
                    assert_eq!(a.hard_bounds, b.hard_bounds, "{}", unsharded.name());
                    // Containment: the merged CI covers the unsharded CI.
                    let (alo, ahi) = a.ci();
                    let (blo, bhi) = b.ci();
                    assert!(
                        blo <= alo + 1e-9 && bhi >= ahi - 1e-9,
                        "{}: merged CI [{blo}, {bhi}] must contain [{alo}, {ahi}]",
                        unsharded.name()
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{} on {q:?}", unsharded.name()),
                (a, b) => panic!(
                    "{} on {q:?}: unsharded {a:?} vs 1-sharded {b:?}",
                    unsharded.name()
                ),
            }
        }
    }
}

/// Contract 2: merged COUNT/SUM = Σ per-shard estimates, CI = RSS of the
/// shard CIs, and merged AVG = ΣSUM/ΣCOUNT of the shards' own answers —
/// for every engine, at K ∈ {2, 4}.
#[test]
fn merged_count_sum_is_the_exact_sum_of_shard_estimates() {
    let table = uniform(20_000, 12);
    for spec in suite() {
        for k in [2usize, 4] {
            let plan = ShardPlan::row_range(k);
            let sharded = ShardedSynopsis::build(&table, &spec, &plan).unwrap();
            // Independently rebuild the same per-shard engines (shard i
            // gets the derived per-shard seed, shard 0 the spec verbatim).
            let shard_engines: Vec<_> = table
                .split(&plan)
                .unwrap()
                .iter()
                .enumerate()
                .map(|(i, t)| Engine::build(t, &ShardedSynopsis::shard_spec(&spec, i)).unwrap())
                .collect();
            assert_eq!(sharded.n_shards(), k);
            for q in query_suite() {
                let merged = sharded.estimate(&q).unwrap();
                let (mut value_sum, mut var_sum) = (0.0f64, 0.0f64);
                let mut each_ci = Vec::new();
                for engine in &shard_engines {
                    match engine.estimate(&q) {
                        Ok(est) => {
                            value_sum += est.value;
                            var_sum += est.ci_half * est.ci_half;
                            each_ci.push(est.ci_half);
                        }
                        // An empty shard match contributes zero.
                        Err(PassError::EmptyInput(_)) => {}
                        Err(other) => panic!("{}: {other}", engine.name()),
                    }
                }
                let name = sharded.name();
                assert_rel_close(merged.value, value_sum, 1e-9, name);
                assert_rel_close(merged.ci_half, var_sum.sqrt(), 1e-9, name);
                // Conservative: the merged CI is at least every component.
                for ci in each_ci {
                    assert!(merged.ci_half + 1e-12 >= ci, "{name}");
                }
            }
            // AVG is one ratio of the merged COUNT and SUM, bit for bit.
            for avg in suite_rects(AggKind::Avg) {
                let total = |agg: AggKind| -> f64 {
                    let q = Query::new(agg, avg.rect.clone());
                    sharded
                        .shard_engines()
                        .iter()
                        .map(|engine| match engine.estimate(&q) {
                            Ok(est) => est.value,
                            Err(PassError::EmptyInput(_)) => 0.0,
                            Err(other) => panic!("{}: {other}", engine.name()),
                        })
                        .sum()
                };
                let want = total(AggKind::Sum) / total(AggKind::Count);
                let got = sharded.estimate(&avg).unwrap().value;
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}: {got} vs {want}",
                    sharded.name()
                );
            }
        }
    }
}

/// Contract 2, hard-bound side: when every shard provides hard bounds
/// (PASS does), the merged bounds still contain the truth — summed for
/// COUNT/SUM, the extremum for MIN/MAX, and for AVG the corner extremes
/// of the summed SUM bounds over the summed COUNT bounds.
#[test]
fn sharded_pass_hard_bounds_still_contain_the_truth() {
    let table = uniform(20_000, 13);
    let spec = suite().remove(0); // PASS, storage-matched
    let mut queries = query_suite();
    for agg in [AggKind::Avg, AggKind::Min, AggKind::Max] {
        queries.extend(suite_rects(agg));
    }
    for plan in [ShardPlan::row_range(4), ShardPlan::hash_dim(0, 4)] {
        let sharded = ShardedSynopsis::build(&table, &spec, &plan).unwrap();
        for q in &queries {
            let est = sharded.estimate(q).unwrap();
            let truth = table.ground_truth(q).unwrap();
            // A shard whose rows miss the range refuses MIN/MAX, and a
            // merge that skipped a shard claims no bounds. Otherwise PASS
            // shards all give bounds and so does the merge — AVG's too,
            // since every shard answers its COUNT and SUM, even a shard
            // with no AVG of its own.
            let min_max = matches!(q.agg, AggKind::Min | AggKind::Max);
            let skipped = min_max
                && sharded
                    .shard_engines()
                    .iter()
                    .any(|shard| shard.estimate(q).is_err());
            assert_eq!(est.hard_bounds.is_none(), skipped, "{plan:?} {q:?}");
            let Some((lb, ub)) = est.hard_bounds else {
                continue;
            };
            assert!(
                lb - 1e-6 <= truth && truth <= ub + 1e-6,
                "{q:?}: truth {truth} outside [{lb}, {ub}]"
            );
        }
        // Whole-space COUNT is answered exactly from the shard roots and
        // the exact contributions add back to n.
        let whole = Query::interval(AggKind::Count, -1.0, 2.0);
        let est = sharded.estimate(&whole).unwrap();
        assert!(est.exact, "all-exact shard answers merge exactly");
        assert_eq!(est.value, table.n_rows() as f64);
    }
}

/// Merged estimates stay accurate: K-sharded engines track ground truth
/// on broad queries about as well as their unsharded counterparts.
#[test]
fn sharded_estimates_track_ground_truth() {
    let table = uniform(40_000, 14);
    for spec in suite() {
        for plan in [ShardPlan::row_range(4), ShardPlan::hash_dim(0, 4)] {
            let sharded =
                Engine::build(&table, &EngineSpec::sharded(spec.clone(), plan.clone())).unwrap();
            for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
                let q = Query::interval(agg, 0.1, 0.9);
                let truth = table.ground_truth(&q).unwrap();
                let est = sharded.estimate(&q).unwrap();
                let rel = (est.value - truth).abs() / truth.abs();
                assert!(
                    rel < 0.3,
                    "{} {agg} under {plan:?}: rel {rel}",
                    sharded.name()
                );
            }
        }
    }
}

/// Contract 3: `EngineSpec::Sharded` round-trips through JSON and builds.
#[test]
fn sharded_specs_round_trip_through_json_and_build() {
    let table = uniform(5_000, 15);
    for inner in suite() {
        for plan in [ShardPlan::row_range(3), ShardPlan::hash_dim(0, 5)] {
            let spec = EngineSpec::sharded(inner.clone(), plan);
            let json = spec.to_json();
            assert_eq!(
                EngineSpec::from_json(&json).unwrap(),
                spec,
                "JSON round-trip: {json}"
            );
            let engine = Engine::build(&table, &spec).unwrap();
            assert_eq!(engine.spec(), spec, "{}", engine.name());
        }
    }
    // Nested sharded specs survive too.
    let nested = EngineSpec::sharded(
        EngineSpec::sharded(EngineSpec::uniform(100), ShardPlan::row_range(2)),
        ShardPlan::row_range(2),
    );
    assert_eq!(EngineSpec::from_json(&nested.to_json()).unwrap(), nested);
}

/// Contract 4: single, batched, and parallel paths agree element-wise,
/// across every aggregate kind.
#[test]
fn sharded_batched_and_parallel_paths_are_bit_identical() {
    let table = uniform(20_000, 16);
    for inner in [
        suite().remove(0),                     // PASS
        EngineSpec::uniform(600).with_seed(3), // US
    ] {
        let sharded = ShardedSynopsis::build(&table, &inner, &ShardPlan::row_range(3)).unwrap();
        let queries: Vec<Query> = (0..120)
            .map(|i| {
                let lo = (i % 40) as f64 / 50.0;
                let agg = AggKind::ALL[i % AggKind::ALL.len()];
                Query::interval(agg, lo, lo + 0.2)
            })
            .collect();
        let single: Vec<_> = queries.iter().map(|q| sharded.estimate(q)).collect();
        let batched = sharded.estimate_many(&queries);
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            let parallel = estimate_many_parallel(&sharded, &queries, &pool);
            for ((s, b), p) in single.iter().zip(&batched).zip(&parallel) {
                match (s, b, p) {
                    (Ok(s), Ok(b), Ok(p)) => {
                        assert_eq!(s.value, b.value, "batched departs from single");
                        assert_eq!(s.value, p.value, "parallel departs ({threads} threads)");
                        assert_eq!(s.ci_half, b.ci_half);
                        assert_eq!(s.ci_half, p.ci_half);
                        assert_eq!(s.hard_bounds, p.hard_bounds);
                    }
                    (Err(s), Err(b), Err(p)) => {
                        assert_eq!(s, b);
                        assert_eq!(s, p);
                    }
                    other => panic!("paths disagree: {other:?}"),
                }
            }
        }
    }
}

/// Sharded engines ride the whole session stack: named registration via
/// `add_sharded_engine`, caching, handles, and workload scoring.
#[test]
fn sharded_engine_through_the_session_facade() {
    let table = uniform(20_000, 17);
    let spec = suite().remove(0);
    let mut session = Session::new(table);
    session
        .add_sharded_engine("pass-sharded", &spec, &ShardPlan::row_range(4))
        .unwrap();
    session.add_engine("pass", &spec).unwrap();
    let queries = query_suite();
    // Batched through the facade ≡ single through the facade.
    let batch = session.estimate_many("pass-sharded", &queries).unwrap();
    for (q, b) in queries.iter().zip(batch) {
        assert_eq!(
            session.estimate("pass-sharded", q).unwrap().value,
            b.unwrap().value
        );
    }
    // Workload evaluation produces sane, comparable rows for both.
    let rows = session.run_workload(&queries);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert!(row.median_relative_error < 0.1, "{}", row.engine);
    }
    // Storage is the sum over shards. The inner spec applies per shard
    // (each shard keeps its own sample budget and tree), so K shards
    // store roughly K× the unsharded engine — more than one, at most
    // about K + tree overhead.
    let sharded_bytes = session.engine("pass-sharded").unwrap().storage_bytes();
    let unsharded_bytes = session.engine("pass").unwrap().storage_bytes();
    assert!(sharded_bytes > unsharded_bytes);
    assert!(
        (sharded_bytes as f64) < 6.0 * unsharded_bytes as f64,
        "{sharded_bytes} vs {unsharded_bytes}"
    );
}

/// Degenerate plans: more shards than rows drops the empty shards but
/// still answers; zero shards is rejected at build.
#[test]
fn degenerate_plans_behave() {
    let tiny = Table::one_dim(vec![0.1, 0.2, 0.3], vec![1.0, 2.0, 3.0]).unwrap();
    let sharded =
        ShardedSynopsis::build(&tiny, &EngineSpec::uniform(3), &ShardPlan::row_range(8)).unwrap();
    assert_eq!(sharded.n_shards(), 3, "empty shards dropped");
    let q = Query::interval(AggKind::Sum, 0.0, 1.0);
    assert_rel_close(sharded.estimate(&q).unwrap().value, 6.0, 1e-9, "tiny sum");
    assert!(
        ShardedSynopsis::build(&tiny, &EngineSpec::uniform(3), &ShardPlan::row_range(0)).is_err()
    );
}
