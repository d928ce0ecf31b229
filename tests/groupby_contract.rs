//! Contract tests for the group-by surface: every engine in the
//! standard Section 5 suite must answer a [`GroupByQuery`] identically
//! through every path that can serve it.
//!
//! The pinned guarantees, for **every** engine in
//! `Engine::standard_suite`:
//!
//! 1. The direct [`estimate_group_by`] answer, the cached
//!    session facade ([`Session::group_by`], first call and fully
//!    cached repeat), the rows of the group's queries answered in
//!    parallel through a [`Session::handle`]
//!    ([`GroupByQuery::rows`] over `estimate_many_parallel`), and
//!    [`estimate_group_by`] over the handle are **bit-identical** row
//!    for row — `Err` rows included.
//! 2. A 1-shard row-range sharded engine answers group-bys
//!    bit-identically to its unsharded counterpart, availability-rule
//!    errors included (mirrors `sharded_contract.rs` contract 1).
//! 3. A K-shard engine's group-by rows equal the availability rule
//!    applied to its own per-category single-query path — the sharded
//!    merge layer adds no group-by-specific distortion.
//! 4. A **served** group-by — validated against the engine's arity,
//!    its [`GroupByQuery::queries`] submitted as one plain request, the
//!    results read through [`GroupByQuery::rows`] — is bit-identical to
//!    [`Session::group_by`], for every engine, sharded engines included,
//!    also when the worker coalesces it with queued plain requests
//!    (contract 7).
//! 5. **Empty groups are never silent zeros**: a category with no
//!    sampled evidence surfaces the stratified-availability rule as an
//!    `Err` row (sampling engines) or an answer carrying real evidence
//!    (hard bounds / exactness — PASS), never a bare `0 ± 0` that reads
//!    like a confident empty group.
//! 6. A group-by **is** a batch of selection queries (paper §4.5): for
//!    every engine, every sharding of it and nested sharding, the rows
//!    equal the availability rule mapped over the engine's own
//!    `estimate_many` answers to [`GroupByQuery::queries`] — no layer
//!    adds a group-by-specific path.
//! 7. Group-bys queued behind plain requests on a paused single worker
//!    coalesce with them into one batch per engine, and every row still
//!    equals [`Session::group_by`] computed on a cold cache.

use pass::common::{
    apply_group_availability, estimate_group_by, AggKind, EngineSpec, GroupByQuery, PassError,
    Query, ShardPlan, Synopsis, ThreadPool,
};
use pass::table::Table;
use pass::{Engine, Serve, ServeConfig, Session, SubmitOptions, Ticket};

/// The paper's comparison set at a shared budget.
fn suite() -> Vec<EngineSpec> {
    Engine::standard_suite(16, 800, 3)
}

/// A categorical table: 8 category codes on the predicate dimension,
/// values that differ per category (so per-group answers are distinct)
/// with a deterministic wobble (so they are not degenerate constants).
fn categorical_table() -> Table {
    let n = 8_000;
    let cat: Vec<f64> = (0..n).map(|i| (i % 8) as f64).collect();
    let values: Vec<f64> = (0..n)
        .map(|i| ((i % 8) + 1) as f64 * 5.0 + ((i / 8) % 10) as f64 * 0.25)
        .collect();
    Table::one_dim(cat, values).unwrap()
}

/// [`categorical_table`] plus a rare category (code 9, four rows) that
/// sorts past every other key, so a single stratum holds all of it.
fn rare_category_table() -> Table {
    let base = categorical_table();
    let mut cat = base.predicate_column(0).to_vec();
    let mut values = base.values().to_vec();
    for i in 0..4 {
        cat.push(9.0);
        values.push(100.0 + i as f64);
    }
    Table::one_dim(cat, values).unwrap()
}

/// Every present category, plus one (42.0) that no row carries — the
/// availability-rule probe rides along through every path.
const CATEGORIES: [f64; 9] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 42.0];

fn group_query(agg: AggKind) -> GroupByQuery {
    GroupByQuery::over(agg, 0, &CATEGORIES, 1)
}

/// Serve a group-by the one way there is: validate it against the
/// engine's arity, then submit its per-category queries as one plain
/// request. [`GroupByQuery::rows`] of the ticket's results are the rows.
fn submit_group_by(
    serve: &Serve,
    session: &Session,
    name: &str,
    q: &GroupByQuery,
    options: &SubmitOptions,
) -> Ticket {
    q.validate(session.engine(name).unwrap().dims()).unwrap();
    serve.submit(name, &q.queries().unwrap(), options).unwrap()
}

fn served_rows(q: &GroupByQuery, ticket: &Ticket) -> Vec<pass::GroupResult> {
    q.rows(ticket.wait().results().unwrap())
}

/// Contract 1: direct, cached (cold and warm), parallel, and handle
/// paths are bit-identical for every engine and aggregate.
#[test]
fn group_by_is_identical_across_direct_cached_parallel_and_handle_paths() {
    let table = categorical_table();
    let pool = ThreadPool::new(3);
    for spec in suite() {
        let raw = Engine::build(&table, &spec).unwrap();
        let mut session = Session::new(categorical_table());
        session.add_engine("e", &spec).unwrap();
        let handle = session.handle("e").unwrap();
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = group_query(agg);
            let direct = estimate_group_by(&raw, &q).unwrap();
            assert_eq!(direct.len(), CATEGORIES.len(), "{}", raw.name());
            let cold = session.group_by("e", &q).unwrap();
            assert_eq!(direct, cold, "{} {agg}: cached(cold) vs direct", raw.name());
            let warm = session.group_by("e", &q).unwrap();
            assert_eq!(direct, warm, "{} {agg}: cached(warm) vs direct", raw.name());
            let parallel = q.rows(handle.estimate_many_parallel(&q.queries().unwrap(), &pool));
            assert_eq!(direct, parallel, "{} {agg}: parallel vs direct", raw.name());
            assert_eq!(
                direct,
                estimate_group_by(&handle, &q).unwrap(),
                "{} {agg}: handle vs direct",
                raw.name()
            );
        }
        // The warm passes above were fully cache-served: per-category
        // rows were keyed and reused, not recomputed.
        let stats = session.cache_stats("e").unwrap();
        assert!(stats.hits >= stats.misses, "{}: {stats:?}", raw.name());

        // AVG over a category no row carries (42) and over one only the
        // last stratum can see (9: four rows at the top of the key
        // range): each row — error variant included — is the
        // availability rule over the engine's own single-query answer.
        let rare = Engine::build(&rare_category_table(), &spec).unwrap();
        let q = GroupByQuery::over(AggKind::Avg, 0, &[42.0, 9.0], 1);
        for row in estimate_group_by(&rare, &q).unwrap() {
            assert_eq!(
                row.estimate,
                apply_group_availability(rare.estimate(&q.query_for(row.key).unwrap())),
                "{} AVG group {}",
                rare.name(),
                row.key
            );
        }
    }
}

/// Contract 2: one shard ≡ unsharded, `Err` rows included.
#[test]
fn one_shard_group_by_is_identical_to_unsharded() {
    let table = categorical_table();
    for spec in suite() {
        let unsharded = Engine::build(&table, &spec).unwrap();
        let sharded = Engine::build(
            &table,
            &EngineSpec::sharded(spec.clone(), ShardPlan::row_range(1)),
        )
        .unwrap();
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = group_query(agg);
            let a = estimate_group_by(&unsharded, &q).unwrap();
            let b = estimate_group_by(&sharded, &q).unwrap();
            assert_eq!(a, b, "{} {agg}: 1-shard vs unsharded", unsharded.name());
        }
    }
}

/// Contract 3: the K-shard group-by row for a category equals the
/// availability rule applied to the sharded engine's own single-query
/// answer for that category's equality rectangle.
#[test]
fn sharded_group_by_rows_match_the_single_query_path() {
    let table = categorical_table();
    for spec in suite() {
        for k in [2usize, 4] {
            let sharded = Engine::build(
                &table,
                &EngineSpec::sharded(spec.clone(), ShardPlan::row_range(k)),
            )
            .unwrap();
            for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
                let q = group_query(agg);
                let rows = estimate_group_by(&sharded, &q).unwrap();
                for row in rows {
                    let single =
                        apply_group_availability(sharded.estimate(&q.query_for(row.key).unwrap()));
                    assert_eq!(
                        row.estimate,
                        single,
                        "{} {agg} k={k} group {}",
                        sharded.name(),
                        row.key
                    );
                }
            }
        }
    }
}

/// Contract 4: served group-bys resolve bit-identical to the session
/// facade, for every engine plus a 4-shard engine — and malformed ones
/// fail in the client's validation with the direct error, NaN
/// categories and empty category lists included, before taking a queue
/// slot.
#[test]
fn served_group_by_matches_the_session_answer() {
    let mut session = Session::new(categorical_table());
    let mut names: Vec<String> = Vec::new();
    for (i, spec) in suite().into_iter().enumerate() {
        let name = format!("e{i}");
        session.add_engine(&name, &spec).unwrap();
        names.push(name);
    }
    session
        .add_sharded_engine("sharded", &suite().remove(0), &ShardPlan::row_range(4))
        .unwrap();
    names.push("sharded".to_string());
    let name_refs: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
    let serve = session
        .serve_multi(&name_refs, ServeConfig::new().with_workers(2))
        .unwrap();
    let options = SubmitOptions::default();
    for name in &names {
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = group_query(agg);
            let ticket = submit_group_by(&serve, &session, name, &q, &options);
            assert_eq!(
                served_rows(&q, &ticket),
                session.group_by(name, &q).unwrap(),
                "{name} {agg}: served vs session"
            );
        }
    }

    // Malformed queries — wrong arity, out-of-range group dimension or
    // a NaN category, with or without further categories — fail the
    // recipe's validation exactly as they fail direct, and the NaN one
    // fails the query expansion with the same error.
    let accepted = serve.stats().accepted;
    for categories in [&[][..], &[0.0, 1.0][..]] {
        let mut nan = categories.to_vec();
        nan.push(f64::NAN);
        for q in [
            GroupByQuery::over(AggKind::Sum, 0, categories, 2),
            GroupByQuery::over(AggKind::Sum, 3, categories, 1),
            GroupByQuery::over(AggKind::Sum, 0, &nan, 1),
        ] {
            for name in &names {
                let direct = session.group_by(name, &q).unwrap_err();
                let dims = session.engine(name).unwrap().dims();
                assert_eq!(q.validate(dims).unwrap_err(), direct, "{name}: {q:?}");
            }
        }
        let q = GroupByQuery::over(AggKind::Sum, 0, &nan, 1);
        assert_eq!(q.queries().unwrap_err(), q.validate(1).unwrap_err());
    }
    assert_eq!(serve.stats().accepted, accepted);
}

/// Contract 5 (regression): a category with zero sampled evidence is an
/// availability `Err`, never a silent `0 ± 0` row.
#[test]
fn empty_groups_surface_the_availability_rule_not_a_silent_zero() {
    let table = categorical_table();
    for spec in suite() {
        let engine = Engine::build(&table, &spec).unwrap();
        for agg in [AggKind::Sum, AggKind::Count] {
            let rows = estimate_group_by(&engine, &GroupByQuery::over(agg, 0, &[42.0], 1)).unwrap();
            match &rows[0].estimate {
                // The availability rule: the engine admits it cannot
                // vouch for the group.
                Err(PassError::EmptyInput(_)) => {}
                Err(other) => panic!("{} {agg}: unexpected error {other}", engine.name()),
                // An Ok row must carry real evidence for "empty":
                // exactness or hard bounds — never an unqualified
                // non-exact zero with a zero-width CI.
                Ok(est) => {
                    assert!(
                        est.exact || est.hard_bounds.is_some() || est.ci_half > 0.0,
                        "{} {agg}: silent zero {est:?}",
                        engine.name()
                    );
                }
            }
        }
    }
    // The uniform-sampling engine specifically: no sampled tuple can
    // match a category absent from the table, so the row *must* be the
    // availability error (this was the silent-zero bug).
    let us = Engine::build(&table, &EngineSpec::uniform(800).with_seed(3)).unwrap();
    let rows = estimate_group_by(&us, &GroupByQuery::over(AggKind::Sum, 0, &[42.0], 1)).unwrap();
    assert!(
        matches!(rows[0].estimate, Err(PassError::EmptyInput(_))),
        "US must refuse an evidence-free group, got {:?}",
        rows[0].estimate
    );
}

/// Contract 6: group-by rows are the availability rule mapped over the
/// engine's own `estimate_many` answers to the per-category expansion —
/// for every suite engine, `Sharded{K=1,2,4}` of each and
/// `Sharded(Sharded(PASS))`, both fixture tables, all five aggregates.
/// `Ok` rows compare bit for bit (`Estimate`'s equality is `to_bits` on
/// every float field), `Err` rows by variant.
#[test]
fn group_by_is_the_availability_rule_over_the_batched_selection_queries() {
    let mut specs = Vec::new();
    for spec in suite() {
        for k in [1usize, 2, 4] {
            specs.push(EngineSpec::sharded(spec.clone(), ShardPlan::row_range(k)));
        }
        specs.push(spec);
    }
    specs.push(EngineSpec::sharded(
        EngineSpec::sharded(suite().remove(0), ShardPlan::row_range(2)),
        ShardPlan::row_range(2),
    ));
    let mut categories = CATEGORIES.to_vec();
    categories.push(9.0);
    for table in [categorical_table(), rare_category_table()] {
        for spec in &specs {
            let engine = Engine::build(&table, spec).unwrap();
            for agg in AggKind::ALL {
                let q = GroupByQuery::over(agg, 0, &categories, 1);
                let rows = estimate_group_by(&engine, &q).unwrap();
                let batch = engine.estimate_many(&q.queries().unwrap());
                assert_eq!(rows.len(), batch.len(), "{} {agg}", engine.name());
                for (row, raw) in rows.iter().zip(batch) {
                    let same = match (&row.estimate, &apply_group_availability(raw)) {
                        (Ok(a), Ok(b)) => a == b,
                        (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
                        _ => false,
                    };
                    assert!(same, "{} {agg} group {}", engine.name(), row.key);
                }
            }
        }
    }
}

/// Contract 7: on a paused single worker, each engine's plain requests
/// and the group-bys queued behind them drain as one coalesced batch,
/// and every served row equals [`Session::group_by`] on a cold cache —
/// for every suite engine plus PASS sharded by `hash_dim(0, 4)` (each
/// group lives in one shard) and by `row_range(4)`.
#[test]
fn queued_group_bys_coalesce_with_plain_requests_and_match_the_session() {
    let mut session = Session::new(categorical_table());
    let mut names: Vec<String> = Vec::new();
    for (i, spec) in suite().into_iter().enumerate() {
        let name = format!("e{i}");
        session.add_engine(&name, &spec).unwrap();
        names.push(name);
    }
    for (name, plan) in [
        ("hash", ShardPlan::hash_dim(0, 4)),
        ("range", ShardPlan::row_range(4)),
    ] {
        session
            .add_sharded_engine(name, &EngineSpec::pass(), &plan)
            .unwrap();
        names.push(name.to_string());
    }
    let aggs = [AggKind::Sum, AggKind::Count, AggKind::Avg];
    let want: Vec<[_; 3]> = names
        .iter()
        .map(|name| {
            let rows = aggs.map(|agg| session.group_by(name, &group_query(agg)).unwrap());
            session.clear_cache(name).unwrap();
            rows
        })
        .collect();

    let name_refs: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
    let config = ServeConfig::new().with_workers(1).paused();
    let serve = session.serve_multi(&name_refs, config).unwrap();
    let options = SubmitOptions::default();
    // Per engine, contiguous in the queue: two plain requests (one of
    // them a COUNT group's own equality query), then the three
    // group-bys.
    let plain = [
        Query::interval(AggKind::Sum, 0.0, 3.0),
        group_query(AggKind::Count).query_for(2.0).unwrap(),
    ];
    let tickets: Vec<(Vec<Ticket>, Vec<Ticket>)> = names
        .iter()
        .map(|name| {
            let plain = plain
                .iter()
                .map(|q| serve.submit_to(name, q).unwrap())
                .collect();
            let groups = aggs
                .iter()
                .map(|&agg| submit_group_by(&serve, &session, name, &group_query(agg), &options))
                .collect();
            (plain, groups)
        })
        .collect();
    serve.resume();
    for ((name, want), (plain_tickets, group_tickets)) in names.iter().zip(&want).zip(&tickets) {
        for (agg, (ticket, want)) in aggs.iter().zip(group_tickets.iter().zip(want)) {
            let rows = served_rows(&group_query(*agg), ticket);
            assert_eq!(&rows, want, "{name} {agg}: coalesced vs session");
        }
        for ticket in plain_tickets {
            assert!(ticket.wait().is_done(), "{name}");
        }
    }
    let stats = serve.shutdown();
    assert_eq!(stats.completed, 5 * names.len() as u64);
    for row in &stats.per_engine {
        assert_eq!(
            row.batches, 1,
            "{}: the queued requests did not coalesce",
            row.engine
        );
    }
}
