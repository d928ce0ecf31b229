//! The concurrency contract: parallel execution and the per-session query
//! cache must be invisible in results — only in wall clock and counters.
//!
//! * `estimate_many_parallel` is element-wise **bit-identical** to the
//!   sequential `estimate_many` for every engine in the registry's
//!   standard suite, at every pool width;
//! * a second identical workload pass through a `Session` is answered
//!   entirely from the cache, with estimates identical to the first pass;
//! * `SessionHandle` clones serving concurrently agree with the session.

use pass::common::{
    estimate_many_parallel, AggKind, EngineSpec, Estimate, Query, Rect, Result, ShardPlan,
    ThreadPool,
};
use pass::table::datasets::{taxi, uniform};
use pass::table::{SortedTable, Table};
use pass::workload::random_queries;
use pass::{Engine, Session};

/// A mixed-aggregate workload exercising covered, partial, and disjoint
/// frontiers.
fn workload(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            let lo = (i % 90) as f64 / 100.0;
            let agg = AggKind::ALL[i % AggKind::ALL.len()];
            Query::interval(agg, lo, lo + 0.05 + (i % 7) as f64 * 0.1)
        })
        .collect()
}

fn assert_identical(name: &str, threads: usize, a: &[Result<Estimate>], b: &[Result<Estimate>]) {
    assert_eq!(a.len(), b.len(), "{name} at {threads} threads");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.value, y.value, "{name} t{threads} q{i}: value");
                assert_eq!(x.ci_half, y.ci_half, "{name} t{threads} q{i}: ci");
                assert_eq!(x.exact, y.exact, "{name} t{threads} q{i}: exact");
                assert_eq!(
                    x.hard_bounds, y.hard_bounds,
                    "{name} t{threads} q{i}: bounds"
                );
                assert_eq!(
                    x.tuples_processed, y.tuples_processed,
                    "{name} t{threads} q{i}: accounting"
                );
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "{name} t{threads} q{i}"),
            (x, y) => panic!("{name} t{threads} q{i}: {x:?} vs {y:?}"),
        }
    }
}

/// [`workload`] in three dimensions over `table`'s bounding box: PASS
/// answers such a batch leaf by leaf rather than query by query, so how a
/// pool cuts the batch decides which queries share a leaf scan.
fn workload_3d(table: &Table, n: usize) -> Vec<Query> {
    let full = table.bounding_rect().unwrap();
    (0..n)
        .map(|i| {
            let side = |d: usize| {
                let span = full.hi(d) - full.lo(d);
                let lo = full.lo(d) + span * ((i * (3 + d)) % 17) as f64 / 20.0;
                (lo, lo + span * (0.05 + ((i + d) % 7) as f64 * 0.1))
            };
            let agg = AggKind::ALL[i % AggKind::ALL.len()];
            Query::new(agg, Rect::new(&[side(0), side(1), side(2)]))
        })
        .collect()
}

/// Parallel determinism across the whole standard suite, and for PASS in
/// three dimensions (plain and sharded): sharding a batch over worker
/// threads must not change a single bit of any answer, for any engine,
/// at any pool width.
#[test]
fn parallel_is_bit_identical_to_sequential_for_the_standard_suite() {
    let mut specs = Engine::standard_suite(16, 800, 41);
    // Sharded engines chunk the query batch like everyone else; each
    // chunk runs the shard-outer loop on its worker's own scratch.
    let pass = specs[0].clone();
    for k in [1, 2, 4] {
        specs.push(EngineSpec::sharded(pass.clone(), ShardPlan::row_range(k)));
    }
    specs.push(EngineSpec::sharded(
        EngineSpec::sharded(pass.clone(), ShardPlan::row_range(2)),
        ShardPlan::row_range(2),
    ));
    let table_3d = taxi(20_000, 47).project(&[1, 2, 3]).unwrap();
    let queries_3d = workload_3d(&table_3d, 600);
    let specs_3d = vec![
        pass.clone(),
        EngineSpec::sharded(pass, ShardPlan::row_range(4)),
    ];
    for (table, queries, specs) in [
        (uniform(20_000, 40), workload(256), specs),
        (table_3d, queries_3d, specs_3d),
    ] {
        for spec in specs {
            let engine = Engine::build(&table, &spec).unwrap();
            let sequential = engine.estimate_many(&queries);
            for threads in [1, 2, 3, 4, 8] {
                let pool = ThreadPool::new(threads);
                let parallel = estimate_many_parallel(&engine, &queries, &pool);
                assert_identical(engine.name(), threads, &sequential, &parallel);
            }
        }
    }
}

/// A second identical workload pass through the session reports 100%
/// cache hits, byte-identical summary metrics, and the engines' own
/// answers query by query.
#[test]
fn second_workload_pass_hits_the_cache_completely() {
    let table = uniform(15_000, 42);
    let sorted = SortedTable::from_table(&table, 0);
    let queries = random_queries(&sorted, 120, AggKind::Sum, 400, 43);
    let mut session = Session::new(table);
    for (i, spec) in Engine::standard_suite(16, 800, 44).into_iter().enumerate() {
        session.add_engine(format!("e{i}"), &spec).unwrap();
    }
    let first = session.run_workload(&queries);
    let second = session.run_workload(&queries);
    assert_eq!(first.len(), session.engine_names().len());
    for (first, second) in first.iter().zip(&second) {
        let name = &first.engine;
        assert_eq!(first.cache_hits, 0, "{name}: cold cache");
        assert_eq!(first.cache_misses as usize, queries.len(), "{name}");
        assert_eq!(
            second.cache_hits as usize,
            queries.len(),
            "{name}: 100% hits"
        );
        assert_eq!(second.cache_misses, 0, "{name}");
        assert_eq!(
            first.median_relative_error, second.median_relative_error,
            "{name}: cached metrics identical"
        );
        assert_eq!(first.failures, second.failures, "{name}");
        let cached = session.estimate_many(name, &queries).unwrap();
        let fresh = session.engine(name).unwrap().estimate_many(&queries);
        assert_identical(name, 1, &fresh, &cached);
    }
}

/// Handles cloned from one session answer concurrently and identically,
/// sharing one cache.
#[test]
fn concurrent_handles_agree_and_share_the_cache() {
    let mut session = Session::new(uniform(10_000, 46));
    session
        .add_engine("pass", &pass::EngineSpec::pass())
        .unwrap();
    let queries = workload(64);
    let expected: Vec<Result<Estimate>> = session.estimate_many("pass", &queries).unwrap();
    let handle = session.handle("pass").unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let worker = handle.clone();
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let got = worker.estimate_many(queries);
                assert_identical("handle", 4, expected, &got);
            });
        }
    });
    let stats = handle.cache_stats();
    assert_eq!(stats.misses as usize, queries.len(), "one cold pass");
    assert_eq!(
        stats.hits as usize,
        4 * queries.len(),
        "all handle passes hit"
    );
}
