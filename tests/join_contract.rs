//! Statistically-pinned contract for the JOIN engine family
//! (`EngineSpec::Join` → `pass_baselines::JoinSynopsis`).
//!
//! The pinned guarantees:
//!
//! 1. **Unbiasedness** — averaged over ≥64 independently seeded builds,
//!    SUM/COUNT estimates land within a small fraction of one CI
//!    half-width of the exact nested-loop join answer (the estimator
//!    mean concentrates at the truth like σ/√seeds).
//! 2. **Coverage** — the 99% CI contains the nested-loop truth in at
//!    least 95 of 100 seeded builds, same bar as the US engine.
//! 3. **Bit-identity** — single, batched, parallel, sharded-batch,
//!    cached, served, and snapshot-reloaded answers are the *same
//!    `Estimate` values* (floats compared bitwise via `Estimate`'s
//!    `PartialEq`), and a 1-shard plan reproduces the unsharded engine
//!    to 1e-9 relative.
//! 4. **Corners** — empty joins answer 0 ± 0 for SUM/COUNT and a typed
//!    `EmptyInput` for AVG; dangling FKs drop like an inner join;
//!    MIN/MAX are typed rejections on every path; zero-truth
//!    `relative_error` follows the documented 0-vs-∞ convention.

use pass::common::rng::derive_seed;
use pass::common::{
    estimate_many_parallel, AggKind, Aggregates, EngineSpec, Estimate, JoinSpec, PassError, Query,
    Rect, ShardPlan, Synopsis, ThreadPool,
};
use pass::table::datasets::uniform;
use pass::table::Table;
use pass::{Engine, ServeConfig, Session};
use pass_baselines::{JoinSynopsis, ShardedSynopsis};

/// A fact table (value = `(i % 13) + 1`, `x` uniform in [0, 1), FK
/// cycling over the dimension keys with every `dangle_every`-th row
/// pointed at a key the dimension side does not carry) and a dimension
/// side whose single attribute is 10× the key.
fn fixture(fact_n: usize, dim_n: usize, dangle_every: usize, k: usize) -> (Table, JoinSpec) {
    let values: Vec<f64> = (0..fact_n).map(|i| (i % 13) as f64 + 1.0).collect();
    let x: Vec<f64> = (0..fact_n).map(|i| i as f64 / fact_n as f64).collect();
    let fk: Vec<f64> = (0..fact_n)
        .map(|i| {
            if dangle_every > 0 && i % dangle_every == 0 {
                -1.0
            } else {
                (i % dim_n) as f64
            }
        })
        .collect();
    let fact = Table::new(
        values,
        vec![x, fk],
        vec!["v".into(), "x".into(), "fk".into()],
    )
    .unwrap();
    let dim_keys: Vec<f64> = (0..dim_n).map(|key| key as f64).collect();
    let dim_attr: Vec<f64> = dim_keys.iter().map(|key| key * 10.0).collect();
    (fact, JoinSpec::new(1, dim_keys, vec![dim_attr], k))
}

/// Exact join answer by nested-loop reference: for every fact row, find
/// its (unique) dimension partner, form the joined point, and aggregate
/// the fact value if the point falls inside the rectangle. Rows without
/// a partner are dropped — inner-join semantics.
fn nested_loop_truth(fact: &Table, spec: &JoinSpec, agg: AggKind, rect: &Rect) -> Option<f64> {
    let mut state = Aggregates::empty();
    for i in 0..fact.n_rows() {
        let key = fact.predicate(spec.fk_dim, i);
        let Some(row) = spec.dim_keys.iter().position(|&k| k == key) else {
            continue;
        };
        let mut point: Vec<f64> = (0..fact.dims()).map(|d| fact.predicate(d, i)).collect();
        point.extend(spec.dim_attrs.iter().map(|col| col[row]));
        if (0..rect.dims()).all(|d| rect.lo(d) <= point[d] && point[d] <= rect.hi(d)) {
            state.insert(fact.value(i));
        }
    }
    state.answer(agg)
}

/// The standard join query suite: SUM/COUNT/AVG over rectangles that
/// constrain the fact's `x`, leave the FK column unconstrained, and
/// constrain the dimension attribute — queries only the join can answer.
fn query_suite() -> Vec<Query> {
    let mut queries = Vec::new();
    for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
        for i in 0..6 {
            let lo = i as f64 / 10.0;
            queries.push(Query::new(
                agg,
                Rect::new(&[(lo, lo + 0.35), (-2.0, 100.0), (10.0, 120.0)]),
            ));
        }
    }
    queries
}

fn assert_rel_close(a: f64, b: f64, tol: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(1e-12);
    assert!(
        (a - b).abs() <= tol * scale,
        "{what}: {a} vs {b} (rel {})",
        (a - b).abs() / scale
    );
}

/// Contract 1: the estimator is unbiased. Averaged over 64 derived
/// seeds, SUM and COUNT estimates sit within a quarter CI half-width of
/// the nested-loop truth (the mean of 64 iid draws has σ/8 spread, so a
/// quarter half-width is a > 5σ allowance — a real bias trips it).
#[test]
fn join_estimates_are_unbiased_across_seeds() {
    let (fact, spec) = fixture(20_000, 16, 7, 1_500);
    let rect = Rect::new(&[(0.15, 0.85), (-2.0, 100.0), (20.0, 110.0)]);
    for agg in [AggKind::Sum, AggKind::Count] {
        let truth = nested_loop_truth(&fact, &spec, agg, &rect).unwrap();
        let q = Query::new(agg, rect.clone());
        let (mut est_sum, mut ci_sum) = (0.0f64, 0.0f64);
        const SEEDS: u64 = 64;
        for s in 0..SEEDS {
            let seeded = EngineSpec::Join(spec.clone()).with_seed(derive_seed(41, s));
            let est = Engine::build(&fact, &seeded).unwrap().estimate(&q).unwrap();
            est_sum += est.value;
            ci_sum += est.ci_half;
        }
        let mean = est_sum / SEEDS as f64;
        let avg_ci = ci_sum / SEEDS as f64;
        assert!(
            (mean - truth).abs() <= 0.25 * avg_ci,
            "{agg}: mean {mean} vs truth {truth} (avg ci {avg_ci})"
        );
    }
}

/// Contract 2: the 99% CI covers the nested-loop truth at least 95
/// times in 100 seeded builds — the same statistical bar the US engine
/// pins for single-table estimation.
#[test]
fn join_ci_coverage_meets_nominal() {
    let (fact, spec) = fixture(20_000, 16, 0, 1_000);
    let rect = Rect::new(&[(0.1, 0.6), (-2.0, 100.0), (0.0, 100.0)]);
    for agg in [AggKind::Sum, AggKind::Count] {
        let truth = nested_loop_truth(&fact, &spec, agg, &rect).unwrap();
        let q = Query::new(agg, rect.clone());
        let mut covered = 0;
        for seed in 0..100u64 {
            let engine =
                Engine::build(&fact, &EngineSpec::Join(spec.clone()).with_seed(seed)).unwrap();
            let est = engine.estimate(&q).unwrap();
            if (est.value - truth).abs() <= est.ci_half {
                covered += 1;
            }
        }
        assert!(covered >= 95, "{agg}: coverage {covered}/100");
    }
}

/// Contract 3a: single, batched, and parallel query paths return the
/// same `Estimate`s bit-for-bit (`Estimate`'s `PartialEq` compares the
/// floats bitwise through `==`), errors matching on the error side.
#[test]
fn single_batched_and_parallel_paths_are_bit_identical() {
    let (fact, spec) = fixture(10_000, 8, 5, 800);
    let join = Engine::build(&fact, &EngineSpec::join(spec)).unwrap();
    // The suite plus a sliver no sampled tuple hits (AVG errs there) and
    // MIN/MAX (typed rejections): identity must hold on the error side.
    let mut queries = query_suite();
    queries.push(Query::new(
        AggKind::Avg,
        Rect::new(&[(0.5, 0.5 + 1e-12), (5.0, 5.0), (1e6, 1e7)]),
    ));
    for agg in [AggKind::Min, AggKind::Max] {
        queries.push(Query::new(
            agg,
            Rect::new(&[(0.0, 1.0), (-2.0, 100.0), (0.0, 100.0)]),
        ));
    }
    let single: Vec<_> = queries.iter().map(|q| join.estimate(q)).collect();
    let batched = join.estimate_many(&queries);
    assert_eq!(single, batched, "batched departs from single");
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        let parallel = estimate_many_parallel(&join, &queries, &pool);
        assert_eq!(single, parallel, "parallel departs ({threads} threads)");
    }
}

/// Contract 3b: a 1-shard row-range plan reproduces the unsharded
/// engine to 1e-9 relative, and a 4-shard engine's batched path is
/// bit-identical to its own per-query path.
#[test]
fn sharded_join_matches_unsharded_and_stays_self_consistent() {
    let (fact, spec) = fixture(12_000, 8, 6, 900);
    let inner = EngineSpec::join(spec);
    let unsharded = Engine::build(&fact, &inner).unwrap();
    let one_shard = Engine::build(
        &fact,
        &EngineSpec::sharded(inner.clone(), ShardPlan::row_range(1)),
    )
    .unwrap();
    for q in query_suite() {
        match (unsharded.estimate(&q), one_shard.estimate(&q)) {
            (Ok(a), Ok(b)) => {
                assert_rel_close(a.value, b.value, 1e-9, "1-shard value");
                assert_rel_close(a.ci_half, b.ci_half, 1e-9, "1-shard ci");
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("1-shard split on {q:?}: {a:?} vs {b:?}"),
        }
    }
    let four = ShardedSynopsis::build(&fact, &inner, &ShardPlan::row_range(4)).unwrap();
    assert_eq!(four.n_shards(), 4);
    assert_eq!(four.dims(), 3, "sharded join keeps the joined arity");
    let queries = query_suite();
    let singles: Vec<_> = queries.iter().map(|q| four.estimate(q)).collect();
    assert_eq!(singles, four.estimate_many(&queries));
    // And the merged estimates still track the nested-loop truth.
    let inner_spec = match &inner {
        EngineSpec::Join(j) => j.clone(),
        _ => unreachable!(),
    };
    for q in &queries {
        if let Ok(est) = four.estimate(q) {
            if let Some(truth) = nested_loop_truth(&fact, &inner_spec, q.agg, &q.rect) {
                assert_rel_close(est.value, truth, 0.35, "4-shard vs truth");
            }
        }
    }
}

/// Contract 3c: the session facade serves join answers identical to the
/// bare engine, and its per-engine cache returns the same bits on a
/// repeat query.
#[test]
fn session_cache_and_serving_preserve_join_answers() {
    let (fact, spec) = fixture(10_000, 8, 4, 700);
    let engine_spec = EngineSpec::join(spec);
    let bare = Engine::build(&fact, &engine_spec).unwrap();

    let mut session = Session::new(fact.clone());
    session.add_engine("join", &engine_spec).unwrap();
    let queries = query_suite();
    for q in &queries {
        let first = session.estimate("join", q).unwrap();
        assert_eq!(first, bare.estimate(q).unwrap(), "facade departs on {q:?}");
        let second = session.estimate("join", q).unwrap();
        assert_eq!(first, second, "cached repeat departs on {q:?}");
    }
    let stats = session.cache_stats("join").unwrap();
    assert!(stats.hits >= queries.len() as u64, "repeats must hit");

    // Served answers come off worker threads; still the same bits.
    let serve = session
        .serve("join", ServeConfig::new().with_workers(2))
        .unwrap();
    for q in &queries {
        let got = serve
            .submit_to("join", q)
            .unwrap()
            .wait()
            .results()
            .unwrap();
        assert_eq!(got[0], session.estimate("join", q), "served {q:?}");
    }
    serve.shutdown();
}

/// Contract 3d: snapshot round-trips reproduce the engine bit-for-bit —
/// identity, storage (the hash index is counted from the spec's keys, not
/// shipped), and every answer — through both the raw `Engine` path and
/// the session facade.
#[test]
fn snapshot_round_trip_is_bit_identical() {
    let (fact, spec) = fixture(8_000, 16, 5, 600);
    let engine_spec = EngineSpec::join(spec);
    let original = Engine::build(&fact, &engine_spec).unwrap();
    let mut bytes = Vec::new();
    original.save(&mut bytes).unwrap();
    let loaded = Engine::load(&bytes).unwrap();
    assert_eq!(loaded.name(), original.name());
    assert_eq!(loaded.spec(), original.spec());
    assert_eq!(loaded.dims(), original.dims());
    assert_eq!(loaded.storage_bytes(), original.storage_bytes());
    let queries = query_suite();
    let before: Vec<_> = queries.iter().map(|q| original.estimate(q)).collect();
    let after: Vec<_> = queries.iter().map(|q| loaded.estimate(q)).collect();
    assert_eq!(before, after, "answers drift through the snapshot");

    let mut session = Session::new(fact);
    session.add_engine("join", &engine_spec).unwrap();
    let mut via_session = Vec::new();
    session.save_engine("join", &mut via_session).unwrap();
    session.load_engine("join2", &via_session).unwrap();
    for q in &queries {
        assert_eq!(
            session.estimate("join", q),
            session.estimate("join2", q),
            "session reload departs on {q:?}"
        );
    }
}

/// Contract 4a: a dimension side sharing no keys with the fact side
/// produces the empty join — SUM/COUNT answer exactly 0 ± 0 and AVG is
/// a typed `EmptyInput`, both through the registry path.
#[test]
fn empty_join_answers_zero_or_typed_empty() {
    let fact = uniform(3_000, 5);
    let spec = JoinSpec::new(0, vec![50.0, 60.0], vec![vec![1.0, 2.0]], 400);
    let join = Engine::build(&fact, &EngineSpec::join(spec)).unwrap();
    let rect = Rect::new(&[(f64::NEG_INFINITY, f64::INFINITY); 2]);
    for agg in [AggKind::Sum, AggKind::Count] {
        let est = join.estimate(&Query::new(agg, rect.clone())).unwrap();
        assert_eq!(est.value, 0.0, "{agg}");
        assert_eq!(est.ci_half, 0.0, "{agg}");
    }
    assert!(matches!(
        join.estimate(&Query::new(AggKind::Avg, rect)),
        Err(PassError::EmptyInput(_))
    ));
}

/// Contract 4b: dangling FKs are excluded exactly like an inner join —
/// the whole-space COUNT estimate tracks the matched-row count, not the
/// fact row count.
#[test]
fn dangling_fks_drop_like_an_inner_join() {
    let (fact, spec) = fixture(16_000, 8, 3, 2_000);
    let everything = Rect::new(&[(f64::NEG_INFINITY, f64::INFINITY); 3]);
    let truth = nested_loop_truth(&fact, &spec, AggKind::Count, &everything).unwrap();
    assert!(truth < fact.n_rows() as f64, "fixture must dangle rows");
    let join = Engine::build(&fact, &EngineSpec::join(spec)).unwrap();
    let est = join
        .estimate(&Query::new(AggKind::Count, everything))
        .unwrap();
    assert_rel_close(est.value, truth, 0.1, "dangling COUNT");
}

/// Contract 4c: MIN/MAX are typed `InvalidParameter("agg", ..)`
/// rejections on the direct, batched, sharded, and facade paths alike.
#[test]
fn min_max_are_typed_rejections_on_every_path() {
    let (fact, spec) = fixture(2_000, 4, 0, 300);
    let engine_spec = EngineSpec::join(spec);
    let join = Engine::build(&fact, &engine_spec).unwrap();
    let sharded = Engine::build(
        &fact,
        &EngineSpec::sharded(engine_spec.clone(), ShardPlan::row_range(2)),
    )
    .unwrap();
    let mut session = Session::new(fact);
    session.add_engine("join", &engine_spec).unwrap();
    let rect = Rect::new(&[(0.0, 1.0), (-1.0, 10.0), (0.0, 40.0)]);
    for agg in [AggKind::Min, AggKind::Max] {
        let q = Query::new(agg, rect.clone());
        for (path, result) in [
            ("direct", join.estimate(&q)),
            (
                "batched",
                join.estimate_many(std::slice::from_ref(&q)).remove(0),
            ),
            ("sharded", sharded.estimate(&q)),
            ("session", session.estimate("join", &q)),
        ] {
            assert!(
                matches!(result, Err(PassError::InvalidParameter("agg", _))),
                "{path} {agg}: {result:?}"
            );
        }
    }
}

/// Contract 4d: the zero-truth convention of `Estimate::relative_error`
/// holds for join estimates — a query whose join matches nothing yields
/// a 0-valued estimate with relative error 0 against the 0 truth, while
/// any nonzero estimate against a 0 truth reads ∞ (never NaN).
#[test]
fn zero_truth_relative_error_follows_the_documented_convention() {
    let (fact, spec) = fixture(4_000, 8, 0, 500);
    let join = Engine::build(&fact, &EngineSpec::join(spec.clone())).unwrap();
    // Nothing joins into attr > 1e6, so truth and estimate are both 0.
    let rect = Rect::new(&[(0.0, 1.0), (-1.0, 100.0), (1e6, 1e7)]);
    let q = Query::new(AggKind::Sum, rect.clone());
    assert_eq!(
        nested_loop_truth(&fact, &spec, AggKind::Sum, &rect),
        Some(0.0)
    );
    let est = join.estimate(&q).unwrap();
    assert_eq!(est.value, 0.0);
    assert_eq!(est.relative_error(0.0), 0.0, "0 est vs 0 truth is exact");
    // A nonzero estimate against a zero truth is infinitely wrong.
    let nonzero = Estimate::approximate(5.0, 1.0);
    assert_eq!(nonzero.relative_error(0.0), f64::INFINITY);
    assert!(!nonzero.relative_error(0.0).is_nan());
}

/// `EngineSpec::Join` survives JSON and the registry round-trip, and
/// `with_seed` reaches the embedded spec.
#[test]
fn join_spec_round_trips_through_json_and_registry() {
    let (fact, spec) = fixture(2_000, 8, 0, 250);
    let engine_spec = EngineSpec::join(spec).with_seed(9);
    assert_eq!(engine_spec.seed(), Some(9));
    assert_eq!(engine_spec.kind(), "join");
    let json = engine_spec.to_json();
    assert_eq!(EngineSpec::from_json(&json).unwrap(), engine_spec, "{json}");
    let engine = Engine::build(&fact, &engine_spec).unwrap();
    assert_eq!(engine.spec(), engine_spec);
    assert_eq!(engine.name(), "JOIN");
    // Also through the sharded wrapper: shard 0 keeps the spec verbatim.
    assert_eq!(
        ShardedSynopsis::shard_spec(&engine_spec, 0),
        engine_spec,
        "shard 0 must keep the seed"
    );
    assert_ne!(
        ShardedSynopsis::shard_spec(&engine_spec, 1).seed(),
        engine_spec.seed(),
        "later shards must derive fresh seeds"
    );
}

/// The direct `JoinSynopsis` constructor and the registry agree — the
/// registry adds nothing but dispatch.
#[test]
fn registry_matches_direct_construction() {
    let (fact, spec) = fixture(6_000, 8, 4, 500);
    let direct = JoinSynopsis::build(&fact, &spec).unwrap();
    let via_registry = Engine::build(&fact, &EngineSpec::Join(spec)).unwrap();
    for q in query_suite() {
        assert_eq!(direct.estimate(&q), via_registry.estimate(&q));
    }
    assert_eq!(direct.storage_bytes(), via_registry.storage_bytes());
}
