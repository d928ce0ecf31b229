//! Exact quality rows for every engine, pinned (ROADMAP item 14).
//!
//! Every engine of `Engine::standard_suite` answers Table 1's random 1-D
//! COUNT, SUM and AVG queries on each dataset of `DatasetId::ALL`, and
//! KD-PASS and KD-US answer Fig. 8's 3-D AVG templates, all at a size
//! this file fixes and under fixed seeds. Each (engine, query set) gives
//! one [`Row`] of integer counts and median bit patterns, scored as
//! `Session::run_workload` scores: over the queries with a defined truth,
//! a failed query counting as relative error and CI ratio 1.0.
//!
//! [`PINNED`] records the rows as the estimators stand today. A change to
//! an estimator, an interval or an allocation shows up as a diff of this
//! table, never as a loosened bound: the test prints the measured table
//! in the source's own layout.

use pass::common::{AggKind, EngineSpec, PassSpec, Query};
use pass::table::datasets::{taxi, DatasetId};
use pass::table::{SortedTable, Table};
use pass::workload::{median, random_queries, template_queries};
use pass::{Engine, Session};

/// Rows of every generated table.
const ROWS: usize = 20_000;
/// Queries per aggregate and query set.
const QUERIES: usize = 64;
/// Leaves of every partitioned engine.
const PARTITIONS: usize = 16;
/// The shared sample budget of the standard suite, in rows.
const K: usize = 200;
/// Seed of every table, query set and build.
const SEED: u64 = 0x51;
/// Table 1's aggregates, in column order.
const AGGS: [AggKind; 3] = [AggKind::Count, AggKind::Sum, AggKind::Avg];

/// One engine over one query set: queries with a defined truth,
/// failures, exact answers, answers whose `value ± ci_half` holds the
/// truth, answers whose hard bounds hold it, and the bit patterns of the
/// median relative error and median CI ratio.
type Row = (u32, u32, u32, u32, u32, u64, u64);

/// The standard suite's rows (PASS, US, ST, AQP++, VerdictDB-10%,
/// DeepDB-50%) per dataset and aggregate, in `DatasetId::ALL` × [`AGGS`]
/// order; then KD-PASS and KD-US on the 3-D templates.
#[rustfmt::skip]
const PINNED: &[Row] = &[
    (64, 0, 0, 62, 64, 0x3f8c82cd9a4088aa, 0x3fa977c87a6270be), // pass/COUNT/Intel
    (64, 0, 0, 61, 0, 0x3fa1f26314c82d78, 0x3fc48441abe4748e), // uniform/COUNT/Intel
    (64, 0, 0, 60, 0, 0x3f8976acedfb1204, 0x3fa5e17e35a8a5cf), // stratified/COUNT/Intel
    (64, 0, 0, 59, 0, 0x3f9b93db5c916bd3, 0x3fb1b478cdcc0a65), // aqppp/COUNT/Intel
    (64, 0, 0, 64, 0, 0x3f943d3e621773e4, 0x3fac62db85dc12be), // verdict/COUNT/Intel
    (64, 0, 0, 0, 0, 0x3f59b8b0ceab5db6, 0x0000000000000000), // spn/COUNT/Intel
    (64, 0, 0, 61, 64, 0x3f9a89a07e61ff52, 0x3fbaec19d4120f41), // pass/SUM/Intel
    (64, 0, 0, 64, 0, 0x3fc56bf8363eecfa, 0x3fda46f772042d96), // uniform/SUM/Intel
    (64, 0, 0, 63, 0, 0x3fa5f56f14e3680e, 0x3fcd610a131a1b2a), // stratified/SUM/Intel
    (64, 0, 0, 52, 0, 0x3fa6926a90d74df2, 0x3fba58b6a3a193ab), // aqppp/SUM/Intel
    (64, 0, 0, 63, 0, 0x3fa65fe3f7a7a7ee, 0x3fc1f00e2f4ca0a4), // verdict/SUM/Intel
    (64, 0, 0, 0, 0, 0x3fa8a8ae15c3e17e, 0x0000000000000000), // spn/SUM/Intel
    (64, 0, 0, 63, 64, 0x3f9706d6700d0ffc, 0x3fbb69ec1e5f6a5b), // pass/AVG/Intel
    (64, 0, 0, 64, 0, 0x3fc01cba75cbc86c, 0x3fd92d0f1d5ac062), // uniform/AVG/Intel
    (64, 0, 0, 64, 0, 0x3fa8c561728078ee, 0x3fcae72e45bfb587), // stratified/AVG/Intel
    (64, 0, 0, 64, 0, 0x3f96fccfcef7f3aa, 0x3fc2aeef9cd62e56), // aqppp/AVG/Intel
    (64, 0, 0, 64, 0, 0x3f97dded1b44eb87, 0x3fb932de24d89e72), // verdict/AVG/Intel
    (64, 0, 0, 0, 0, 0x3fa97632931c56f0, 0x0000000000000000), // spn/AVG/Intel
    (64, 0, 4, 60, 64, 0x3f8036caa7404789, 0x3fa02a5db6836588), // pass/COUNT/Insta
    (64, 0, 0, 63, 0, 0x3f9e3f2ddeec8e78, 0x3fc3535cf4532022), // uniform/COUNT/Insta
    (64, 0, 0, 52, 0, 0x3f83873309b1b314, 0x3fa3a5fb8e7a92ac), // stratified/COUNT/Insta
    (64, 0, 0, 61, 0, 0x3f8b2817f7a0d8a7, 0x3fae847a39f999cd), // aqppp/COUNT/Insta
    (64, 0, 0, 62, 0, 0x3f8a10eaf3cbb214, 0x3fa8308b06cef50c), // verdict/COUNT/Insta
    (64, 0, 0, 0, 0, 0x3f8287a802135cc2, 0x0000000000000000), // spn/COUNT/Insta
    (64, 0, 4, 54, 64, 0x3f8d81e6b9f9c6c6, 0x3fae27823c2c33aa), // pass/SUM/Insta
    (64, 0, 0, 64, 0, 0x3fac6efa541a6b94, 0x3fd595d37557a59f), // uniform/SUM/Insta
    (64, 0, 0, 64, 0, 0x3faafef7eb7dc904, 0x3fd0eb238113e53e), // stratified/SUM/Insta
    (64, 0, 0, 52, 0, 0x3f941dbd94d6fe30, 0x3fb39608b8ad9878), // aqppp/SUM/Insta
    (64, 0, 0, 64, 0, 0x3fa12ab1f3246c43, 0x3fbb3afdcef10ee8), // verdict/SUM/Insta
    (64, 0, 0, 0, 0, 0x3fce6c75057fa246, 0x0000000000000000), // spn/SUM/Insta
    (64, 0, 3, 57, 64, 0x3f8d9e109c5eadbc, 0x3fb03b365b4e95fc), // pass/AVG/Insta
    (64, 0, 0, 64, 0, 0x3fa3709ddaec13b2, 0x3fd325fc4c1018c7), // uniform/AVG/Insta
    (64, 0, 0, 64, 0, 0x3fa93354d57709b8, 0x3fd013730a2ebc4b), // stratified/AVG/Insta
    (64, 0, 0, 60, 0, 0x3f97978aab5e1a99, 0x3fbcf9ae320877c8), // aqppp/AVG/Insta
    (64, 0, 0, 64, 0, 0x3f9fb9cad8dd1f5e, 0x3fb6adea793b4631), // verdict/AVG/Insta
    (64, 0, 0, 0, 0, 0x3fc4feb25cb7f297, 0x0000000000000000), // spn/AVG/Insta
    (64, 0, 0, 60, 64, 0x3f8d24a39174892b, 0x3fa9e537526d6219), // pass/COUNT/NYC
    (64, 0, 0, 61, 0, 0x3fa1f26314c82d78, 0x3fc48441abe4748e), // uniform/COUNT/NYC
    (64, 0, 0, 60, 0, 0x3f8976acedfb1204, 0x3fa5e17e35a8a5cf), // stratified/COUNT/NYC
    (64, 0, 0, 62, 0, 0x3f954afa263c046e, 0x3fb567dc685f9426), // aqppp/COUNT/NYC
    (64, 0, 0, 64, 0, 0x3f943d3e621773e4, 0x3fac62db85dc12be), // verdict/COUNT/NYC
    (64, 0, 0, 0, 0, 0x3f74300580c607bf, 0x0000000000000000), // spn/COUNT/NYC
    (64, 0, 0, 63, 64, 0x3f9f96087a416f0b, 0x3fb7b047989cd92a), // pass/SUM/NYC
    (64, 0, 0, 63, 0, 0x3faf6cf44d791366, 0x3fd120050a58e7b3), // uniform/SUM/NYC
    (64, 0, 0, 63, 0, 0x3fbe61999abcf555, 0x3fca12ce69d7bf8d), // stratified/SUM/NYC
    (64, 0, 0, 64, 0, 0x3f9d9fc867bdba9f, 0x3fbb437b01696c8c), // aqppp/SUM/NYC
    (64, 0, 0, 64, 0, 0x3f952594aecc8aec, 0x3fbafc9e6088d3f0), // verdict/SUM/NYC
    (64, 0, 0, 0, 0, 0x3f838312e95836c4, 0x0000000000000000), // spn/SUM/NYC
    (64, 0, 0, 64, 64, 0x3f949e4b58d9a857, 0x3fb5946515f3cbde), // pass/AVG/NYC
    (64, 0, 0, 64, 0, 0x3fb01f1fad57c2e6, 0x3fd0c6c3f4d1df98), // uniform/AVG/NYC
    (64, 0, 0, 60, 0, 0x3fbd331b541b4562, 0x3fca412700ed4eba), // stratified/AVG/NYC
    (64, 0, 0, 64, 0, 0x3f90bb8bf2b346dc, 0x3fc47dcd4e35e29b), // aqppp/AVG/NYC
    (64, 0, 0, 64, 0, 0x3f92b10f83857e5c, 0x3fb0429e0981ce0e), // verdict/AVG/NYC
    (64, 0, 0, 0, 0, 0x3f81a74db685368e, 0x0000000000000000), // spn/AVG/NYC
    (64, 0, 0, 64, 64, 0x3fa0bfc85d849bb9, 0x3fcad63993678c8c), // KD-PASS/AVG/3D
    (64, 0, 0, 64, 0, 0x3fb236685ca9b4e4, 0x3fdd261fa3f1f712), // KD-US/AVG/3D
];

/// Score `engine`'s answers to `queries` in `session`.
fn row(session: &Session, engine: &str, queries: &[Query]) -> Row {
    let (mut n, mut failures, mut exact, mut covers, mut bounded) = (0, 0, 0, 0, 0);
    let (mut errors, mut ratios) = (Vec::new(), Vec::new());
    for query in queries {
        let Some(truth) = session.ground_truth(query) else {
            continue;
        };
        n += 1;
        let Ok(est) = session.estimate(engine, query) else {
            failures += 1;
            errors.push(1.0);
            ratios.push(1.0);
            continue;
        };
        exact += u32::from(est.exact);
        covers += u32::from((est.value - truth).abs() <= est.ci_half);
        bounded += u32::from(
            est.hard_bounds
                .is_some_and(|(lb, ub)| lb <= truth && truth <= ub),
        );
        errors.push(est.relative_error(truth));
        ratios.push(est.ci_ratio(truth));
    }
    let (error, ratio) = (median(&errors).to_bits(), median(&ratios).to_bits());
    (n, failures, exact, covers, bounded, error, ratio)
}

/// A session over `table` holding `engines`, each built at [`SEED`].
fn session(table: Table, engines: &[(String, EngineSpec)]) -> Session {
    let mut session = Session::new(table);
    for (name, spec) in engines {
        session.add_engine(name.as_str(), spec).unwrap();
    }
    session
}

fn measure() -> Vec<(String, Row)> {
    let mut rows = Vec::new();
    for id in DatasetId::ALL {
        let table = id.generate(ROWS, SEED);
        let sorted = SortedTable::from_table(&table, 0);
        let min_rows = (sorted.len() / 100).max(10);
        let suite = Engine::standard_suite(PARTITIONS, K, SEED);
        let named: Vec<(String, EngineSpec)> = (suite.into_iter())
            .map(|spec| (spec.kind().to_owned(), spec))
            .collect();
        let session = session(table, &named);
        for (a, agg) in (0..).zip(AGGS) {
            let queries = random_queries(&sorted, QUERIES, agg, min_rows, SEED + a);
            for (name, _) in &named {
                rows.push((format!("{name}/{agg}/{id}"), row(&session, name, &queries)));
            }
        }
    }
    let table = taxi(ROWS, SEED).project(&[1, 2, 3]).unwrap();
    let queries = template_queries(&table, QUERIES, AggKind::Avg, SEED);
    let kd = [
        (
            "KD-PASS".to_owned(),
            EngineSpec::Pass(PassSpec {
                partitions: 4 * PARTITIONS,
                seed: SEED,
                sample_rate: 0.02,
                ..PassSpec::default()
            }),
        ),
        (
            "KD-US".to_owned(),
            EngineSpec::aqppp(4 * PARTITIONS, K).with_seed(SEED),
        ),
    ];
    let session = session(table, &kd);
    for (name, _) in &kd {
        rows.push((format!("{name}/AVG/3D"), row(&session, name, &queries)));
    }
    rows
}

#[test]
fn quality_rows_are_pinned() {
    let rows = measure();
    for (label, (n, f, e, c, b, error, ratio)) in &rows {
        let (error, ratio) = (f64::from_bits(*error), f64::from_bits(*ratio));
        println!("{label:<22} n {n:>2} fail {f:>2} exact {e:>2} ci {c:>2} bounds {b:>2} err {error:.4} ratio {ratio:.4}");
    }
    let measured: Vec<Row> = rows.iter().map(|(_, row)| *row).collect();
    if measured != PINNED {
        println!("const PINNED: &[Row] = &[");
        for (label, (n, f, e, c, b, error, ratio)) in &rows {
            println!("    ({n}, {f}, {e}, {c}, {b}, {error:#018x}, {ratio:#018x}), // {label}");
        }
        println!("];");
    }
    assert_eq!(measured, PINNED, "the quality rows moved");
}
