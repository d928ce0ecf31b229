//! Contract tests: every `Synopsis` implementation honours the shared
//! behavioural contract `Session` and its workload scoring rely on.
//!
//! Engines are constructed exclusively through the spec-driven registry
//! (`Engine::build`), so these tests also pin the registry's surface.

use std::sync::Arc;

use pass::common::rng::derive_seed;
use pass::common::{
    apply_group_availability, estimate_group_by, AggKind, EngineSpec, Estimate, GroupByQuery,
    JoinSpec, PartitionStrategy, PassError, PassSpec, Query, Rect, Result, ShardPlan, Synopsis,
};
use pass::core::Pass;
use pass::table::datasets::{taxi, uniform};
use pass::table::Table;
use pass::{Engine, Session};

/// One spec per registered engine kind (PASS + five baselines).
fn specs() -> Vec<EngineSpec> {
    vec![
        EngineSpec::Pass(PassSpec {
            partitions: 16,
            sample_rate: 0.05,
            seed: 1,
            ..PassSpec::default()
        }),
        EngineSpec::uniform(500).with_seed(1),
        EngineSpec::stratified(16, 500).with_seed(1),
        EngineSpec::aqppp(16, 500).with_seed(1),
        EngineSpec::verdict(0.1).with_seed(1),
        EngineSpec::spn(0.5).with_seed(1),
    ]
}

fn engines(table: &Table) -> Vec<Arc<dyn Synopsis>> {
    Engine::build_all(table, &specs()).expect("every registered engine builds")
}

/// The registry's standard suite is the paper's Section 5 comparison set:
/// six engines, in this order, with these display names. Docs and bench
/// tables cite the set by position and name, so drift here is a contract
/// break, not a tweak.
#[test]
fn standard_suite_order_and_names_are_pinned() {
    let specs = Engine::standard_suite(16, 400, 3);
    assert_eq!(specs.len(), 6);
    assert!(matches!(&specs[0], EngineSpec::Pass(p) if p.total_samples == Some(400)));
    assert!(matches!(specs[1], EngineSpec::Uniform { k: 400, seed: 3 }));
    assert!(matches!(
        specs[2],
        EngineSpec::Stratified {
            strata: 16,
            k: 400,
            seed: 3
        }
    ));
    assert!(matches!(
        &specs[3],
        EngineSpec::AqpPlusPlus {
            partitions: 16,
            k: 400,
            seed: 3,
            tree_dims: None
        }
    ));
    assert!(matches!(specs[4], EngineSpec::Verdict { ratio, seed: 3 } if ratio == 0.1));
    assert!(matches!(specs[5], EngineSpec::Spn { ratio, seed: 3 } if ratio == 0.5));

    let t = uniform(3_000, 4);
    let names: Vec<String> = specs
        .iter()
        .map(|s| Engine::build(&t, s).unwrap().name().to_owned())
        .collect();
    assert_eq!(
        names,
        ["PASS", "US", "ST", "AQP++", "VerdictDB-10%", "DeepDB-50%"]
    );
}

#[test]
fn names_are_nonempty_and_distinct() {
    let t = uniform(5_000, 2);
    let engines = engines(&t);
    let names: Vec<String> = engines.iter().map(|e| e.name().to_string()).collect();
    for n in &names {
        assert!(!n.is_empty());
    }
    let mut dedup = names.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), names.len(), "duplicate names: {names:?}");
}

#[test]
fn dims_and_storage_reported() {
    let t = uniform(5_000, 3);
    for e in engines(&t) {
        assert_eq!(e.dims(), 1, "{}", e.name());
        assert!(e.storage_bytes() > 0, "{}", e.name());
    }
}

/// The arity contract (§3.1: a synopsis over d predicate columns answers
/// d-dimensional rectangles), field for field, for every standard-suite
/// engine at 1-D and 3-D (ST is 1-D only), JOIN, and PASS sharded by
/// `row_range` and by `hash_dim` — through `Engine::build`,
/// `Session::estimate[_many]` and `Serve::submit` alike. A query of
/// `dims ± 1` dimensions is exactly `DimensionMismatch { expected: dims,
/// got }` (a MAX one too: JOIN checks arity before it refuses MIN/MAX);
/// in a mixed batch that error sits at the wrong query's position and
/// every other answer is its single-query answer. A PASS update at the
/// wrong arity is the same error and leaves the epoch where it was.
#[test]
fn dimension_mismatch_is_an_error_not_a_panic() {
    let flat = uniform(5_000, 4);
    let (cube, cube_spec) = taxi_3d(5_000, 4);
    let (fact, join) = join_fixture();
    let mut cases: Vec<(&Table, EngineSpec)> = Vec::new();
    for spec in Engine::standard_suite(16, 400, 4) {
        cases.push((&flat, spec.clone()));
        if !matches!(spec, EngineSpec::Stratified { .. }) {
            cases.push((&cube, spec));
        }
    }
    cases.push((&fact, EngineSpec::Join(join)));
    let pass = EngineSpec::Pass(PassSpec {
        partitions: 16,
        ..PassSpec::default()
    });
    for plan in [ShardPlan::row_range(3), ShardPlan::hash_dim(0, 3)] {
        cases.push((&cube, EngineSpec::sharded(pass.clone(), plan)));
    }
    for (table, spec) in cases {
        // The join adds one dimension, its attribute (10 × the key).
        let extra: &[(f64, f64)] = match spec {
            EngineSpec::Join(_) => &[(20.0, 110.0)],
            _ => &[],
        };
        let engine = Engine::build(table, &spec).unwrap();
        let dims = engine.dims();
        let ctx = format!("{} at {dims}-D", engine.name());
        let wrong = |got: usize| Query::new(AggKind::Max, Rect::whole(got));
        let mismatch = |got: usize| {
            Err(PassError::DimensionMismatch {
                expected: dims,
                got,
            })
        };
        // Twelve right-arity queries with wrong ones among them, one
        // dimension over and one short in turn (inserted in position
        // order, so each lands at its index).
        let mut batch = pin_queries(table, extra, 12);
        let wrong_at = [(2, dims + 1), (6, dims - 1), (10, dims + 1), (13, dims - 1)];
        for &(at, got) in &wrong_at {
            batch.insert(at, wrong(got));
        }
        let singles: Vec<_> = batch.iter().map(|q| engine.estimate(q)).collect();
        let check_batch = |path: &str, answers: &[Result<Estimate>]| {
            assert_eq!(answers.len(), batch.len(), "{ctx} via {path}");
            for (i, answer) in answers.iter().enumerate() {
                match wrong_at.iter().find(|&&(at, _)| at == i) {
                    Some(&(_, got)) => assert_eq!(answer, &mismatch(got), "{ctx} via {path} [{i}]"),
                    None => assert_eq!(answer, &singles[i], "{ctx} via {path} [{i}]"),
                }
            }
        };
        let mut session = Session::new(table.clone());
        session.add_engine("e", &spec).unwrap();
        let serve = session
            .serve("e", pass::ServeConfig::new().with_workers(1))
            .unwrap();
        for got in [dims - 1, dims + 1] {
            assert_eq!(engine.estimate(&wrong(got)), mismatch(got), "{ctx}");
            assert_eq!(session.estimate("e", &wrong(got)), mismatch(got), "{ctx}");
            let served = serve.submit_to("e", &wrong(got)).unwrap().wait().results();
            assert_eq!(served.unwrap(), [mismatch(got)], "{ctx} served");
        }
        check_batch("Engine::build", &engine.estimate_many(&batch));
        check_batch("Session", &session.estimate_many("e", &batch).unwrap());
        let options = pass::SubmitOptions::default();
        let served = serve
            .submit("e", &batch, &options)
            .unwrap()
            .wait()
            .results();
        check_batch("Serve::submit", &served.unwrap());
    }

    for (table, spec) in [(&flat, PassSpec::default()), (&cube, cube_spec)] {
        let mut live = Pass::from_spec(table, &spec).unwrap();
        let dims = live.dims();
        let epoch = live.update_epoch();
        for got in [dims - 1, dims + 1] {
            let point = vec![0.5; got];
            let mismatch = PassError::DimensionMismatch {
                expected: dims,
                got,
            };
            assert_eq!(live.insert(&point, 1.0), Err(mismatch.clone()), "{dims}-D");
            assert_eq!(live.delete(&point, 1.0), Err(mismatch), "{dims}-D");
        }
        assert_eq!(
            live.update_epoch(),
            epoch,
            "{dims}-D: a refused update moved the epoch"
        );
    }
}

#[test]
fn broad_queries_are_reasonably_accurate_everywhere() {
    let t = uniform(50_000, 5);
    let q = Query::interval(AggKind::Sum, 0.1, 0.9);
    let truth = t.ground_truth(&q).unwrap();
    for e in engines(&t) {
        let est = e.estimate(&q).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.15, "{}: rel {rel}", e.name());
    }
}

#[test]
fn count_estimates_are_never_negative() {
    let t = uniform(10_000, 6);
    for e in engines(&t) {
        for (lo, hi) in [(0.0, 1.0), (0.4999, 0.5001), (0.0, 0.001)] {
            let q = Query::interval(AggKind::Count, lo, hi);
            if let Ok(est) = e.estimate(&q) {
                assert!(est.value >= -1e-9, "{}: COUNT {}", e.name(), est.value);
            }
        }
    }
}

#[test]
fn sum_count_of_disjoint_region_is_zero_when_answerable() {
    let t = uniform(10_000, 7);
    for e in engines(&t) {
        for agg in [AggKind::Sum, AggKind::Count] {
            let q = Query::interval(agg, 5.0, 6.0); // outside [0, 1)
                                                    // Model-based engines may legitimately refuse (Err); those that
                                                    // answer must answer zero.
            if let Ok(est) = e.estimate(&q) {
                assert!(
                    est.value.abs() < 1e-9,
                    "{}: {agg} of empty region = {}",
                    e.name(),
                    est.value
                );
            }
        }
    }
}

/// The batched contract: `estimate_many` agrees element-wise with repeated
/// `estimate` for **every** engine — including PASS's shared-traversal
/// override and everything forwarded through `Box<dyn Synopsis>`.
#[test]
fn estimate_many_agrees_with_repeated_estimate_for_every_engine() {
    let t = uniform(20_000, 8);
    let queries: Vec<Query> = (0..32)
        .map(|i| {
            let lo = i as f64 / 40.0;
            let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg][i % 3];
            Query::interval(agg, lo, lo + 0.25)
        })
        .collect();
    for e in engines(&t) {
        let batch = e.estimate_many(&queries);
        assert_eq!(batch.len(), queries.len(), "{}", e.name());
        for (q, batched) in queries.iter().zip(batch) {
            match (e.estimate(q), batched) {
                (Ok(single), Ok(batched)) => {
                    assert_eq!(single.value, batched.value, "{} on {q:?}", e.name());
                    assert_eq!(single.ci_half, batched.ci_half, "{}", e.name());
                    assert_eq!(single.exact, batched.exact, "{}", e.name());
                    assert_eq!(single.hard_bounds, batched.hard_bounds, "{}", e.name());
                }
                (Err(single), Err(batched)) => {
                    assert_eq!(single, batched, "{} on {q:?}", e.name())
                }
                (single, batched) => panic!(
                    "{} on {q:?}: single {single:?} vs batched {batched:?}",
                    e.name()
                ),
            }
        }
    }
}

/// The 3-D taxi projection (pickup time, pickup date, pickup zone) and
/// the KD-PASS spec the multi-dimensional batch contracts build on it.
fn taxi_3d(rows: usize, seed: u64) -> (Table, PassSpec) {
    let table = taxi(rows, seed).project(&[1, 2, 3]).unwrap();
    let spec = PassSpec {
        partitions: 64,
        sample_rate: 0.02,
        seed,
        ..PassSpec::default()
    };
    (table, spec)
}

/// `n` 3-D queries over `table`'s bounding box, all five aggregates in
/// rotation: boxes of every size from a sliver to the whole space (the
/// root covered, no partial leaf), some outside the data (nothing to
/// answer from), every eleventh a repeat of one seven places earlier.
fn queries_3d(table: &Table, n: usize) -> Vec<Query> {
    let full = table.bounding_rect().unwrap();
    let mut queries: Vec<Query> = Vec::with_capacity(n);
    for i in 0..n {
        let agg = AggKind::ALL[i % AggKind::ALL.len()];
        let rect = if i % 11 == 10 {
            queries[i - 7].rect.clone()
        } else if i % 17 == 3 {
            full.clone()
        } else if i % 23 == 5 {
            Rect::new(&[(full.hi(0) + 1.0, full.hi(0) + 2.0), (0.0, 1.0), (0.0, 1.0)])
        } else {
            let side = |d: usize| {
                let span = full.hi(d) - full.lo(d);
                let lo = full.lo(d) + span * ((i * (7 + 2 * d) + d) % 19) as f64 / 24.0;
                (lo, lo + span * (0.02 + ((i + 5 * d) % 13) as f64 / 16.0))
            };
            Rect::new(&[side(0), side(1), side(2)])
        };
        queries.push(Query::new(agg, rect));
    }
    queries
}

/// `estimate_many` ≡ repeated `estimate` — value, CI, exactness, hard
/// bounds and both accounting fields, bit for bit (`Estimate`'s equality
/// compares bit patterns), errors variant for variant — at batch lengths
/// on both sides of every edge the batch path has: one query (no batch),
/// a group of four short, full and over, and the 256-query window one
/// short, full and one over. From length 3 up the middle query is
/// replaced by a 1-D one, which must be the only `DimensionMismatch`.
fn assert_batches_match_singles(engine: &dyn Synopsis, queries: &[Query]) {
    let singles: Vec<_> = queries.iter().map(|q| engine.estimate(q)).collect();
    assert!(
        singles.iter().any(|r| r.is_err()) && singles.iter().filter(|r| r.is_ok()).count() > 900,
        "{}: the queries should mostly, not only, be answerable",
        engine.name()
    );
    let wrong_arity = Query::interval(AggKind::Sum, 0.0, 1.0);
    for len in [1, 2, 3, 5, 64, 255, 256, 257, 1_000] {
        let mut batch = queries[..len].to_vec();
        let mid = (len >= 3).then_some(len / 2);
        if let Some(mid) = mid {
            batch[mid] = wrong_arity.clone();
        }
        let answers = engine.estimate_many(&batch);
        assert_eq!(answers.len(), len, "{} at {len}", engine.name());
        for (i, answer) in answers.iter().enumerate() {
            let ctx = format!("{} at {len}, query {i}: {:?}", engine.name(), batch[i]);
            if Some(i) == mid {
                assert!(
                    matches!(
                        answer,
                        Err(PassError::DimensionMismatch {
                            expected: 3,
                            got: 1
                        })
                    ),
                    "{ctx}: {answer:?}"
                );
            } else {
                assert_eq!(answer, &singles[i], "{ctx}");
            }
        }
    }
}

/// The multi-dimensional batch contract: PASS answers a d-dimensional
/// batch by scanning each partial leaf once for all the queries that
/// share it, and that must be invisible — on a k-d tree, on a tree lifted
/// out of two of the three dimensions (workload shift: every intersecting
/// leaf is partial), and under a 4-way sharded engine whose shards each
/// take the batch path.
#[test]
fn multi_dimensional_batches_match_single_estimates_bitwise() {
    let (table, spec) = taxi_3d(30_000, 21);
    let queries = queries_3d(&table, 1_000);
    let lifted = PassSpec {
        tree_dims: Some(vec![0, 1]),
        partitions: 32,
        ..spec.clone()
    };
    let kd = EngineSpec::Pass(spec);
    for spec in [
        kd.clone(),
        EngineSpec::Pass(lifted),
        EngineSpec::sharded(kd, ShardPlan::row_range(4)),
    ] {
        let engine = Engine::build(&table, &spec).unwrap();
        assert_eq!(engine.dims(), 3);
        assert_batches_match_singles(&engine, &queries);
    }
}

/// KD-PASS answers are pinned across commits: FNV-1a over the value and
/// `ci_half` bits of 400 fixed queries on the benchmark's configuration
/// (3-D taxi, `Adp(Sum)`, 256 leaves), recorded before the k-d split
/// became one selection and one pass. A row that moves in `perm`, a
/// rectangle bit or a node aggregate moves a sample or an answer, and
/// shows up here.
#[test]
fn multi_dimensional_kd_pass_answers_are_pinned_across_commits() {
    let (table, spec) = taxi_3d(60_000, 7);
    let spec = PassSpec {
        partitions: 256,
        strategy: PartitionStrategy::Adp(AggKind::Sum),
        ..spec
    };
    let engine = Pass::from_spec(&table, &spec).unwrap();
    let mut hash = 0xcbf29ce484222325_u64;
    let mut answered = 0;
    for query in queries_3d(&table, 400) {
        let words = match engine.estimate(&query) {
            Ok(e) => {
                answered += 1;
                [e.value.to_bits(), e.ci_half.to_bits()]
            }
            Err(_) => [u64::MAX; 2],
        };
        for word in words {
            hash = (hash ^ word).wrapping_mul(0x100000001b3);
        }
    }
    assert!(answered > 350, "only {answered} of 400 answered");
    assert_eq!(hash, 0x3971cbde08fb4d9b, "answer hash {hash:#018x}");
}

/// A deterministic unit-interval stream: `derive_seed` over a counter.
fn unit(state: &mut u64) -> f64 {
    *state += 1;
    (derive_seed(0x27, *state) >> 11) as f64 / (1u64 << 53) as f64
}

/// 12 000 rows keyed `0..2 000` and `2 500..4 500` — every key three
/// times, so equal keys straddle equal-depth cuts, and a gap no row lies
/// in — with a run of 1 800 rows all valued 7, wide enough for
/// zero-variance leaves and internal nodes.
fn table_1d() -> Table {
    let key = |i: usize| match (i / 3) as f64 {
        k if k < 2_000.0 => k,
        k => k + 500.0,
    };
    let value = |i: usize| match i {
        4_800..6_600 => 7.0,
        _ => ((i * 7_919) % 1_000) as f64 / 10.0,
    };
    Table::one_dim(
        (0..12_000).map(key).collect(),
        (0..12_000).map(value).collect(),
    )
    .unwrap()
}

/// `n` 1-D queries over [`table_1d`]'s keys, all five aggregates in
/// rotation: points on a key, intervals of every width, the whole line,
/// the gap, and intervals beyond either end of the data.
fn queries_1d(n: usize) -> Vec<Query> {
    let mut state = 0x1d;
    (0..n)
        .map(|i| {
            let agg = AggKind::ALL[i % AggKind::ALL.len()];
            let lo = (unit(&mut state) * 4_600.0 - 50.0).floor();
            let (lo, hi) = match i % 9 {
                0 => (lo, lo),
                1 => (f64::NEG_INFINITY, f64::INFINITY),
                2 => (2_050.0 + (i % 50) as f64, 2_400.0),
                3 => (4_600.0, 5_000.0 + i as f64),
                4 => (-100.0 - i as f64, -1.0),
                _ => (lo, lo + unit(&mut state) * 1_500.0),
            };
            Query::interval(agg, lo, hi)
        })
        .collect()
}

/// 1-D PASS answers are pinned across commits: FNV-1a over the value,
/// `ci_half` and hard-bound bits of 500 fixed queries (all five
/// aggregates), on an ADP and an equal-depth tree, each as built and after
/// 3 000 inserts and deletes — inserts in the gap, on existing keys and
/// beyond the data, deletes of table rows. Recorded before the 1-D
/// frontier became a two-path descent; a frontier node out of order, a
/// visit or a scanned row that changes shows up here. Then the one update
/// those streams never make, checked against the truth instead.
#[test]
fn one_dimensional_pass_answers_are_pinned_across_commits() {
    let table = table_1d();
    let queries = queries_1d(500);
    let mut hashes = Vec::new();
    for strategy in [
        PartitionStrategy::Adp(AggKind::Sum),
        PartitionStrategy::EqualDepth,
    ] {
        let spec = PassSpec {
            partitions: 64,
            sample_rate: 0.02,
            strategy,
            seed: 27,
            ..PassSpec::default()
        };
        let mut pass = Pass::from_spec(&table, &spec).unwrap();
        for updated in [false, true] {
            if updated {
                let mut state = 0x5eed;
                for op in 0..3_000 {
                    if op % 3 == 2 {
                        let row = op * 11 % table.n_rows();
                        pass.delete(&[table.predicate(0, row)], table.value(row))
                            .unwrap();
                    } else {
                        let key = match op % 4 {
                            0 => 2_000.0 + unit(&mut state) * 500.0,
                            1 => (unit(&mut state) * 2_000.0).floor(),
                            2 => 4_500.0 + unit(&mut state) * 100.0,
                            _ => -unit(&mut state) * 100.0,
                        };
                        pass.insert(&[key], unit(&mut state) * 100.0).unwrap();
                    }
                }
            }
            hashes.push(fnv_answers_1d(&pass, &queries));
        }
    }
    // The two after-update hashes were re-recorded when an updated 1-D
    // stratum began to stay in key order (before: 0xe5cfbbf0ad159682 and
    // 0x8514478aead07d1f): the sorted scan folds its rows in key order, and
    // reservoir position `j` names another row. The as-built hashes did
    // not move.
    let expected: [u64; 4] = [
        0x421e2bf974d0f0e0,
        0xb8b6653de887abb8,
        0xffb42a4eb980646a,
        0x86308f599667f1be,
    ];
    assert_eq!(hashes, expected, "answer hashes {hashes:#018x?}");
    single_key_leaf_then_an_insert_in_the_gap_after_it();
}

/// FNV-1a over the value, `ci_half` and hard-bound bits of each answer to
/// `queries` (a refusal hashes as four all-ones words); more than 350 of
/// the 500 [`queries_1d`] must be answered.
fn fnv_answers_1d(pass: &Pass, queries: &[Query]) -> u64 {
    let mut hash = 0xcbf29ce484222325_u64;
    let mut answered = 0;
    for query in queries {
        let words = match pass.estimate(query) {
            Ok(e) => {
                answered += 1;
                let (lb, ub) = e.hard_bounds.unwrap_or((f64::NAN, f64::NAN));
                [e.value, e.ci_half, lb, ub].map(f64::to_bits)
            }
            Err(_) => [u64::MAX; 4],
        };
        for word in words {
            hash = (hash ^ word).wrapping_mul(0x100000001b3);
        }
    }
    assert!(answered > 350, "only {answered} of 500 answered");
    hash
}

/// A delta-encoded 1-D PASS's answers are pinned across commits: FNV-1a
/// as above over the 500 [`queries_1d`], all five aggregates, on an ADP
/// and an equal-depth tree. Recorded while the build still overwrote each
/// sampled value through the row mutator `replace_row`, which cleared
/// every stratum's sorted flag: the build now rewrites values only, the
/// strata keep the sorted scan, and the answers must not move.
#[test]
fn delta_encoded_one_dimensional_pass_answers_are_pinned_across_commits() {
    let table = table_1d();
    let queries = queries_1d(500);
    let hashes: Vec<u64> = [
        PartitionStrategy::Adp(AggKind::Sum),
        PartitionStrategy::EqualDepth,
    ]
    .map(|strategy| {
        let spec = PassSpec {
            partitions: 64,
            sample_rate: 0.02,
            strategy,
            delta_encode: true,
            seed: 27,
            ..PassSpec::default()
        };
        let pass = Pass::from_spec(&table, &spec).unwrap();
        assert!(pass.leaf_samples().iter().all(|s| s.sorted_1d()));
        fnv_answers_1d(&pass, &queries)
    })
    .to_vec();
    assert_eq!(
        hashes,
        [0xf7b42efa60e79c56, 0xad9cd1ddb2416bfa],
        "answer hashes {hashes:#018x?}"
    );
}

/// FNV-1a over every word of an answer: the value, CI and hard-bound
/// bits, `exact`, both accounting fields — or, for a refusal, the error
/// variant alone (its text may change; its kind may not).
fn fnv_answer(hash: &mut u64, answer: &Result<Estimate>) {
    let words = match answer {
        Ok(e) => {
            let (lb, ub) = e.hard_bounds.unwrap_or((f64::NAN, f64::NAN));
            [
                e.value.to_bits(),
                e.ci_half.to_bits(),
                lb.to_bits(),
                ub.to_bits(),
                u64::from(e.exact),
                e.tuples_processed,
                e.tuples_skipped,
            ]
        }
        Err(err) => {
            let variant = match err {
                PassError::DimensionMismatch { .. } => 1,
                PassError::InvalidParameter(..) => 2,
                PassError::EmptyInput(_) => 3,
                PassError::Load(_) => 4,
                PassError::Snapshot(_) => 5,
            };
            [u64::MAX, variant, 0, 0, 0, 0, 0]
        }
    };
    for word in words {
        *hash = (*hash ^ word).wrapping_mul(0x100000001b3);
    }
}

/// `n` queries over `table`'s bounding box (plus `extra` dimensions the
/// engine adds, each held at its given span), all five aggregates in
/// rotation: a point on a table row, the whole domain, a region beyond
/// the data, and random boxes.
fn pin_queries(table: &Table, extra: &[(f64, f64)], n: usize) -> Vec<Query> {
    let full = table.bounding_rect().unwrap();
    let dims = table.dims();
    let mut state = 0xba5e;
    (0..n)
        .map(|i| {
            let agg = AggKind::ALL[i % AggKind::ALL.len()];
            let row = (unit(&mut state) * table.n_rows() as f64) as usize;
            let mut bounds: Vec<(f64, f64)> = (0..dims)
                .map(|d| match i % 7 {
                    0 => (table.predicate(d, row), table.predicate(d, row)),
                    1 => (f64::NEG_INFINITY, f64::INFINITY),
                    2 => (full.hi(d) + 1.0, full.hi(d) + 2.0),
                    _ => {
                        let span = full.hi(d) - full.lo(d);
                        let lo = full.lo(d) + span * unit(&mut state);
                        (lo, lo + span * unit(&mut state) * 0.6)
                    }
                })
                .collect();
            bounds.extend(extra.iter().map(|&(lo, hi)| match i % 7 {
                1 => (f64::NEG_INFINITY, f64::INFINITY),
                _ => (lo, hi),
            }));
            Query::new(agg, Rect::new(&bounds))
        })
        .collect()
}

/// A 6 000-row fact table (a value, `x` in [0, 1) and an FK cycling
/// over 16 keys, every seventh dangling) and a JOIN spec whose dimension
/// side carries one attribute, 10 × the key. Its queries span three
/// dimensions: the fact side's two, then the attribute.
fn join_fixture() -> (Table, JoinSpec) {
    let n = 6_000;
    let values = (0..n).map(|i| (i % 13) as f64 + 1.0).collect();
    let x = (0..n).map(|i| i as f64 / n as f64).collect();
    let fk = (0..n)
        .map(|i| if i % 7 == 0 { -1.0 } else { (i % 16) as f64 })
        .collect();
    let names = ["v", "x", "fk"].map(String::from).to_vec();
    let fact = Table::new(values, vec![x, fk], names).unwrap();
    let keys: Vec<f64> = (0..16).map(f64::from).collect();
    let attr = keys.iter().map(|key| key * 10.0).collect();
    let spec = JoinSpec::new(1, keys, vec![attr], 800);
    (fact, JoinSpec { seed: 5, ..spec })
}

/// The baselines' answers are pinned across commits the way PASS's are
/// above: FNV-1a over every answer of `pin_queries`, through `estimate`
/// and then `estimate_many`, for the six standard-suite engines, 3-D and
/// shifted KD-US, a 100 % VerdictDB scramble (its exact path), the JOIN
/// engine, and `Sharded[3]` US and PASS under both shard plans. Recorded
/// before the sampling engines shared one estimator state; the four
/// sharded hashes re-recorded when a multi-shard AVG became one ratio of
/// the merged COUNT and SUM, which moved its hard bounds, exactness and
/// accounting but no value, CI or error.
#[test]
fn baseline_answers_are_pinned_across_commits() {
    let flat = uniform(4_000, 9);
    let taxi_3d = taxi(3_000, 78).project(&[0, 1, 2]).unwrap();
    let (fact, join) = join_fixture();
    let kd_us = |tree_dims| EngineSpec::AqpPlusPlus {
        partitions: 16,
        k: 300,
        seed: 5,
        tree_dims,
    };
    let suite = Engine::standard_suite(8, 300, 5);
    let mut cases: Vec<(&Table, EngineSpec)> =
        suite.iter().map(|spec| (&flat, spec.clone())).collect();
    cases.extend([
        (&taxi_3d, kd_us(None)),
        (&taxi_3d, kd_us(Some(vec![0, 1]))),
        (&flat, EngineSpec::verdict(1.0).with_seed(5)),
        (&fact, EngineSpec::Join(join)),
    ]);
    for inner in &suite[..2] {
        for plan in [ShardPlan::row_range(3), ShardPlan::hash_dim(0, 3)] {
            cases.push((&flat, EngineSpec::sharded(inner.clone(), plan)));
        }
    }
    let mut hashes = Vec::new();
    for (table, spec) in cases {
        let engine = Engine::build(table, &spec).unwrap();
        // The join adds one dimension, its attribute (10 × the key).
        let extra: &[(f64, f64)] = match spec {
            EngineSpec::Join(_) => &[(20.0, 110.0)],
            _ => &[],
        };
        let queries = pin_queries(table, extra, 210);
        let mut hash = 0xcbf29ce484222325_u64;
        let mut answered = 0;
        for query in &queries {
            let answer = engine.estimate(query);
            answered += usize::from(answer.is_ok());
            fnv_answer(&mut hash, &answer);
        }
        assert!(
            answered > 100,
            "{}: only {answered} answered",
            engine.name()
        );
        for answer in engine.estimate_many(&queries) {
            fnv_answer(&mut hash, &answer);
        }
        hashes.push(hash);
    }
    let expected: [u64; 14] = [
        0x666a2a03367e6851,
        0x32910db415984a8d,
        0xe0d91e11135b0571,
        0xd5550268f0ded099,
        0x31a56828638f8155,
        0x4275255c0d81cb61,
        0x090731e32d3f8755,
        0x2ddc14cf7983ef05,
        0x68bcbc660ce2ca2d,
        0x80d59c9218aac9b9,
        0xbb72e5c914dc6f7d,
        0x304580bb04811e81,
        0xcfe54d9c9a071dd9,
        0x0125ef86bdcf5875,
    ];
    assert_eq!(hashes, expected, "answer hashes {hashes:#018x?}");
}

/// The update the pinned trees above never make: an equal-depth leaf
/// holding key 100 alone, its left neighbour ending on 100 as well, and a
/// row inserted at 101, in the key gap before the next leaf. It must go
/// to the single-key leaf — grown into the left neighbour instead, that
/// neighbour would pass it, and queries ending on 100 would count the new
/// row as covered — and the updated synopsis must save and load.
fn single_key_leaf_then_an_insert_in_the_gap_after_it() {
    // 288 rows in 12 leaves of 24: keys 0..84, then 36 rows of key 100
    // (rows 84..120), then keys 102..270.
    let key = |i: usize| match i {
        0..84 => i as f64,
        84..120 => 100.0,
        _ => (i - 18) as f64,
    };
    let mut rows: Vec<(f64, f64)> = (0..288).map(|i| (key(i), (i % 10) as f64 + 1.0)).collect();
    let table = Table::one_dim(
        rows.iter().map(|r| r.0).collect(),
        rows.iter().map(|r| r.1).collect(),
    )
    .unwrap();
    let spec = PassSpec {
        partitions: 12,
        sample_rate: 0.1,
        strategy: PartitionStrategy::EqualDepth,
        seed: 27,
        ..PassSpec::default()
    };
    let mut pass = Pass::from_spec(&table, &spec).unwrap();
    let bounds = |pass: &Pass, leaf: usize| {
        let (tree, id) = (pass.tree(), pass.tree().leaves()[leaf]);
        (tree.rect_lo(id, 0), tree.rect_hi(id, 0))
    };
    assert_eq!(
        [3, 4, 5].map(|leaf| bounds(&pass, leaf)),
        [(72.0, 100.0), (100.0, 100.0), (102.0, 125.0)]
    );

    pass.insert(&[101.0], 1_000.0).unwrap();
    rows.push((101.0, 1_000.0));
    assert_eq!(bounds(&pass, 3), (72.0, 100.0), "the left neighbour stays");
    assert_eq!(
        bounds(&pass, 4),
        (100.0, 101.0),
        "the single-key leaf grows"
    );

    let mut bytes = Vec::new();
    pass.save(&mut bytes).unwrap();
    let loaded = Engine::load(&bytes).expect("the updated synopsis loads");
    for (lo, hi) in [
        (f64::NEG_INFINITY, 100.0),
        (72.0, 100.0),
        (100.0, 100.0),
        (100.5, 101.5),
        (f64::NEG_INFINITY, f64::INFINITY),
    ] {
        let values: Vec<f64> = rows
            .iter()
            .filter(|r| lo <= r.0 && r.0 <= hi)
            .map(|r| r.1)
            .collect();
        let sum: f64 = values.iter().sum();
        let count = values.len() as f64;
        for (agg, truth) in [
            (AggKind::Count, count),
            (AggKind::Sum, sum),
            (AggKind::Avg, sum / count),
            (
                AggKind::Min,
                values.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            (
                AggKind::Max,
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ),
        ] {
            let query = Query::interval(agg, lo, hi);
            let est = pass.estimate(&query).unwrap();
            let what = format!("{agg} [{lo}, {hi}]: {est:?}, truth {truth}");
            if let Some((lb, ub)) = est.hard_bounds {
                assert!(lb <= truth && truth <= ub, "{what}");
            }
            if est.exact {
                assert!((est.value - truth).abs() <= 1e-9 * truth.abs(), "{what}");
            }
            assert_eq!(loaded.estimate(&query).unwrap(), est, "{what}");
        }
    }
}

/// The same contract on a synopsis that has absorbed updates: 2 000
/// inserts and deletes widen leaf boxes (so they overlap), move
/// populations and evict sampled rows, and the stream ends by deleting
/// every sampled row of two leaves — strata with tuples but no sample,
/// which the batch scan must answer as the single path does
/// (`0 ± 0` for SUM/COUNT, nothing for the rest).
#[test]
fn multi_dimensional_batches_match_single_estimates_after_an_update_stream() {
    let (table, spec) = taxi_3d(30_000, 22);
    let mut pass = Pass::from_spec(&table, &spec).unwrap();
    let point = |t: &Table, i: usize| [t.predicate(0, i), t.predicate(1, i), t.predicate(2, i)];
    let donor = taxi_3d(2_000, 23).0;
    for op in 0..1_980 {
        if op % 3 == 2 {
            // Each table row is deleted at most once.
            let row = op * 13 % table.n_rows();
            pass.delete(&point(&table, row), table.value(row)).unwrap();
        } else {
            pass.insert(&point(&donor, op), donor.value(op)).unwrap();
        }
    }
    let mut ops = 1_980;
    for leaf in [5, 40] {
        while pass.leaf_samples()[leaf].k() > 0 {
            let rows = pass.leaf_samples()[leaf].rows();
            let (at, value) = (point(rows, 0), rows.value(0));
            assert!(pass.delete(&at, value).unwrap(), "a sampled row is evicted");
            ops += 1;
        }
    }
    assert!((1_980..=2_100).contains(&ops), "{ops} ops");
    let drained = pass.leaf_samples().iter().filter(|s| s.k() == 0);
    assert!(drained.filter(|s| s.population() > 0).count() >= 2);
    assert_batches_match_singles(&pass, &queries_3d(&table, 1_000));
}

/// A multi-dimensional group-by is a batch of per-category selections
/// (paper §4.5), so it takes the batch path too: its rows equal the
/// availability rule over the engine's own single-query answers, row for
/// row — for a date no row carries (99) as for the ones they do.
#[test]
fn multi_dimensional_group_by_matches_per_category_estimates() {
    let (table, spec) = taxi_3d(30_000, 24);
    let engine = Engine::build(&table, &EngineSpec::Pass(spec)).unwrap();
    let full = table.bounding_rect().unwrap();
    let noon = (full.lo(0) + full.hi(0)) / 2.0;
    let base = full.narrowed(0, full.lo(0), noon);
    let dates: Vec<f64> = (0..31).step_by(3).map(f64::from).chain([99.0]).collect();
    for agg in AggKind::ALL {
        let group_by = GroupByQuery::new(agg, 1, &dates, base.clone());
        let rows = estimate_group_by(&engine, &group_by).unwrap();
        assert_eq!(rows.len(), dates.len());
        for (row, &date) in rows.iter().zip(&dates) {
            assert_eq!(row.key, date);
            let single = engine.estimate(&group_by.query_for(date).unwrap());
            assert_eq!(
                row.estimate,
                apply_group_availability(single),
                "{agg} {date}"
            );
        }
    }
}

/// The spec round-trip contract: every registry-built engine reports the
/// spec it was built from, verbatim, and the spec survives JSON.
#[test]
fn specs_round_trip_through_build_and_json() {
    let t = uniform(5_000, 9);
    for spec in specs() {
        let engine = Engine::build(&t, &spec).unwrap();
        assert_eq!(engine.spec(), spec, "{}", engine.name());
        let json = spec.to_json();
        assert_eq!(
            EngineSpec::from_json(&json).unwrap(),
            spec,
            "JSON round-trip: {json}"
        );
    }
}

/// A PASS spec as it arrives from outside — through JSON — with the ADP
/// objective and partition budget chosen by the caller.
fn adp_json_spec(objective: AggKind, partitions: usize) -> EngineSpec {
    let spec = EngineSpec::Pass(PassSpec {
        partitions,
        strategy: PartitionStrategy::Adp(objective),
        ..PassSpec::default()
    });
    EngineSpec::from_json(&spec.to_json()).unwrap()
}

/// ADP's AVG objective needs `2δm` samples per bucket; a table smaller
/// than that has no feasible bucket and used to panic the DP's clamp.
#[test]
fn adp_avg_builds_on_tables_smaller_than_one_feasible_bucket() {
    for rows in [1usize, 2, 3, 5] {
        let keys: Vec<f64> = (0..rows).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..rows).map(|i| (i * i) as f64 + 1.0).collect();
        let t = Table::one_dim(keys, values).unwrap();
        for k in [1usize, 4, 64] {
            let spec = adp_json_spec(AggKind::Avg, k);
            let engine =
                Engine::build(&t, &spec).unwrap_or_else(|e| panic!("{rows} rows, k={k}: {e}"));
            let EngineSpec::Pass(pass_spec) = &spec else {
                panic!("not a PASS spec: {spec:?}");
            };
            let pass = Pass::from_spec(&t, pass_spec).unwrap();
            let tree = pass.tree();
            let leaves = tree.leaves();
            assert!(leaves.len() <= k, "{rows} rows, k={k}: {}", leaves.len());
            let covered: u64 = leaves.iter().map(|&l| tree.agg(l).count).sum();
            assert_eq!(covered, rows as u64, "{rows} rows, k={k}");
            let whole = Query::interval(AggKind::Count, f64::NEG_INFINITY, f64::INFINITY);
            let est = engine.estimate(&whole).unwrap();
            assert!(est.exact, "{rows} rows, k={k}");
            assert_eq!(est.value, rows as f64, "{rows} rows, k={k}");
        }
    }
}

/// A 200-row, two-dimensional table whose predicate columns the caller
/// may spoil.
fn small_2d(spoil: impl FnOnce(&mut [Vec<f64>; 2])) -> Table {
    let mut columns = [0usize, 1].map(|d| {
        (0..200)
            .map(|i| ((i * (31 + 22 * d)) % 199) as f64)
            .collect::<Vec<f64>>()
    });
    spoil(&mut columns);
    let values = (0..200).map(|i| (i % 13) as f64 + 1.0).collect();
    let names = ["v", "x", "y"].map(String::from).to_vec();
    Table::new(values, columns.to_vec(), names).unwrap()
}

/// The engines whose build runs the k-d expansion on a multi-dimensional
/// table: KD-PASS, PASS with breadth-first (KD-US-style) strata, and
/// AQP++ in its KD-US form.
fn kd_specs() -> [EngineSpec; 3] {
    let pass = |strategy| {
        EngineSpec::Pass(PassSpec {
            partitions: 8,
            sample_rate: 0.1,
            strategy,
            ..PassSpec::default()
        })
    };
    [
        pass(PartitionStrategy::Adp(AggKind::Sum)),
        pass(PartitionStrategy::EqualDepth),
        EngineSpec::aqppp(8, 50),
    ]
}

/// A NaN predicate cell has no place on either side of a median: every
/// k-d build refuses the table with a typed error, whichever dimension
/// holds it (the median comparator used to panic on it).
#[test]
fn multi_dimensional_builds_refuse_a_nan_predicate_cell() {
    for dim in 0..2 {
        let table = small_2d(|columns| columns[dim][77] = f64::NAN);
        for spec in kd_specs() {
            match Engine::build(&table, &spec) {
                Err(PassError::InvalidParameter("predicates", _)) => {}
                other => panic!("{spec:?}, NaN in dimension {dim}: {:?}", other.err()),
            }
        }
        let EngineSpec::Pass(spec) = &kd_specs()[0] else {
            panic!("not a PASS spec");
        };
        assert!(matches!(
            Pass::from_spec(&table, spec),
            Err(PassError::InvalidParameter("predicates", _))
        ));
    }
}

/// A column that is one infinity throughout has the width `inf − inf`,
/// NaN, which the widest-dimension pick used to panic on. It is a column
/// of width zero: the build splits the other dimension and answers. A
/// column with only some infinite cells always built, and still does.
#[test]
fn multi_dimensional_builds_accept_infinite_predicate_cells() {
    let whole = Query::new(
        AggKind::Count,
        Rect::new(&[(f64::NEG_INFINITY, f64::INFINITY); 2]),
    );
    for inf in [f64::INFINITY, f64::NEG_INFINITY] {
        let all = small_2d(|columns| columns[1].fill(inf));
        let some = small_2d(|columns| columns[0][..40].fill(inf));
        for (table, what) in [(all, "every"), (some, "some")] {
            for spec in kd_specs() {
                let ctx = format!("{spec:?}, {what} cell {inf}");
                let engine = Engine::build(&table, &spec).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let count = engine
                    .estimate(&whole)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(count.value, 200.0, "{ctx}");
            }
        }
    }
}

/// MIN/MAX have no variance objective: a 1-D ADP build asked to optimize
/// for one is a typed error (it used to reach an `unreachable!`).
#[test]
fn adp_min_max_objective_is_an_invalid_parameter_on_1d() {
    let t = uniform(2_000, 12);
    for agg in [AggKind::Min, AggKind::Max] {
        match Engine::build(&t, &adp_json_spec(agg, 16)) {
            Err(PassError::InvalidParameter("strategy_agg", _)) => {}
            other => panic!("{agg}: expected InvalidParameter, got {:?}", other.err()),
        }
    }
}

/// The same engines behave identically when owned by a `Session`.
#[test]
fn session_preserves_the_contract() {
    let t = uniform(10_000, 10);
    let named: Vec<(String, EngineSpec)> = specs()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (format!("e{i}"), s))
        .collect();
    let engines: Vec<(&str, EngineSpec)> =
        named.iter().map(|(n, s)| (n.as_str(), s.clone())).collect();
    let session = Session::with_engines(t, &engines).unwrap();
    let q = Query::interval(AggKind::Sum, 0.2, 0.8);
    for (name, spec) in &engines {
        assert_eq!(session.spec(name), Some(spec.clone()));
        let direct = session.engine(name).unwrap().estimate(&q).unwrap();
        let via_session = session.estimate(name, &q).unwrap();
        assert_eq!(direct.value, via_session.value);
        let batch = session
            .estimate_many(name, std::slice::from_ref(&q))
            .unwrap();
        assert_eq!(batch[0].as_ref().unwrap().value, direct.value);
    }
}
