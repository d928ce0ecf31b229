//! Exact work rows for PASS, pinned (ROADMAP item 15).
//!
//! Where `quality_rows.rs` pins what the estimators answer, this file pins
//! how much work they do to answer it, from public counts only:
//!
//! * the MCF frontier: Σ `McfResult::visited` and Σ covered, partial and
//!   zero-variance entries of [`mcf`];
//! * the scan: Σ `tuples_processed` and Σ `tuples_skipped` of
//!   `Pass::estimate_many`, which must be the same at batch lengths 1, 4
//!   and 256, and Σ `k_pred` of `ScanScratch::estimate` over every
//!   partial leaf's sample;
//! * the cache: the hits and misses of a `CachedSynopsis` over a fixed
//!   refresh sequence with one insert in its middle.
//!
//! Two query sets, each on its own seeded PASS (seed [`SEED`]):
//!
//! * `md` — `batch_md`-like: [`MD_QUERIES`] 3-D SUM/COUNT/AVG templates
//!   on a KD-PASS of [`MD_LEAVES`] leaves over taxi predicate dimensions
//!   1–3, [`ROWS`] rows, a 2 % sample;
//! * `1d` — `adhoc_1d`-like: [`QUERIES_1D`] random intervals, all five
//!   aggregates interleaved, on a 1-D PASS of [`LEAVES_1D`] leaves over
//!   [`ROWS`] NYC taxi rows, a 2 % sample.
//!
//! A change to the traversal, the scan kernels, the sample allocation or
//! the cache shows up as a diff of [`PINNED`]; the test prints the
//! measured table in the source's own layout.

use pass::common::{AggKind, CachedSynopsis, PassSpec, Query, Synopsis};
use pass::core::{mcf, Pass};
use pass::sampling::ScanScratch;
use pass::table::datasets::{taxi, DatasetId};
use pass::table::SortedTable;
use pass::workload::{random_queries, template_queries};

/// Rows of both tables.
const ROWS: usize = 40_000;
/// Leaves of the KD-PASS.
const MD_LEAVES: usize = 256;
/// Leaves of the 1-D PASS.
const LEAVES_1D: usize = 64;
/// 3-D template queries (a multiple of 3; more than one 256-query batch).
const MD_QUERIES: usize = 300;
/// 1-D interval queries (a multiple of 5).
const QUERIES_1D: usize = 200;
/// Per-leaf sampling rate of both builds.
const SAMPLE_RATE: f64 = 0.02;
/// Seed of every table, query set and build.
const SEED: u64 = 0x15;
/// Entries the refresh sequence's cache holds.
const CACHE_CAPACITY: usize = 24;
/// Lookups in the refresh sequence.
const REFRESHES: usize = 400;

/// One PASS over one query set: Σ visited, Σ covered, Σ partial,
/// Σ zero-variance, answered queries, Σ tuples processed, Σ tuples
/// skipped, Σ `k_pred` over partial leaves, cache hits, cache misses.
type Row = [u64; 10];

#[rustfmt::skip]
const PINNED: &[Row] = &[
    [51660, 6554, 21098, 0, 300, 90394, 11909606, 37723, 69, 331], // md
    [4388, 1068, 398, 0, 200, 6494, 7993506, 3188, 94, 306], // 1d
];

/// Σ tuples processed and skipped and the answered count of `queries`
/// asked through `estimate_many` in batches of `batch`.
fn scan_counts(pass: &Pass, queries: &[Query], batch: usize) -> [u64; 3] {
    let mut counts = [0; 3];
    for chunk in queries.chunks(batch) {
        for est in pass.estimate_many(chunk).into_iter().flatten() {
            counts[0] += 1;
            counts[1] += est.tuples_processed;
            counts[2] += est.tuples_skipped;
        }
    }
    counts
}

/// Hits and misses of a fresh cache over `pass` across a skewed refresh
/// sequence of `queries`, one insert (at `point`) halfway through.
fn cache_counts(pass: &Pass, queries: &[Query], point: &[f64]) -> [u64; 2] {
    let mut cached = CachedSynopsis::new(pass.clone(), CACHE_CAPACITY);
    let mut state = SEED;
    for i in 0..REFRESHES {
        if i == REFRESHES / 2 {
            cached.inner_mut().insert(point, 1.0).unwrap();
        }
        // A 64-bit LCG; squaring its unit draw skews refreshes toward the
        // first queries, as a dashboard's popular widgets are.
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        let _ = cached.estimate(&queries[(unit * unit * queries.len() as f64) as usize]);
    }
    let stats = cached.cache().stats();
    [stats.hits, stats.misses]
}

/// The work row of `pass` over `queries`.
fn row(pass: &Pass, queries: &[Query], point: &[f64]) -> Row {
    let tree = pass.tree();
    let zero_variance_rule = PassSpec::default().zero_variance_rule;
    let mut scan = ScanScratch::default();
    let (mut visited, mut covered, mut partial, mut zero_var, mut k_pred) = (0, 0, 0, 0, 0);
    for query in queries {
        let frontier = mcf(tree, query, zero_variance_rule);
        visited += frontier.visited as u64;
        covered += frontier.covered.len() as u64;
        partial += frontier.partial.len() as u64;
        zero_var += frontier.zero_var.len() as u64;
        for &id in &frontier.partial {
            let sample = &pass.leaf_samples()[tree.leaf_index(id).unwrap()];
            k_pred += scan
                .estimate(query.agg, sample, &query.rect)
                .map_or(0, |pv| pv.k_pred);
        }
    }
    let [answered, processed, skipped] = scan_counts(pass, queries, 1);
    for batch in [4, 256] {
        assert_eq!(
            scan_counts(pass, queries, batch),
            [answered, processed, skipped],
            "batches of {batch} did other work than single queries"
        );
    }
    let [hits, misses] = cache_counts(pass, queries, point);
    [
        visited, covered, partial, zero_var, answered, processed, skipped, k_pred, hits, misses,
    ]
}

fn spec(partitions: usize) -> PassSpec {
    PassSpec {
        partitions,
        sample_rate: SAMPLE_RATE,
        seed: SEED,
        ..PassSpec::default()
    }
}

fn measure() -> Vec<(&'static str, Row)> {
    let table = taxi(ROWS, SEED).project(&[1, 2, 3]).unwrap();
    let per_agg = MD_QUERIES / AggKind::SAMPLED.len();
    let streams: Vec<Vec<Query>> = (0..)
        .zip(AggKind::SAMPLED)
        .map(|(i, agg)| template_queries(&table, per_agg, agg, SEED + i))
        .collect();
    let md: Vec<Query> = (0..per_agg)
        .flat_map(|i| streams.iter().map(move |s| s[i].clone()))
        .collect();
    let pass = Pass::from_spec(&table, &spec(MD_LEAVES)).unwrap();
    let md_row = row(&pass, &md, &table.point(0));

    let table = DatasetId::NycTaxi.generate(ROWS, SEED);
    let sorted = SortedTable::from_table(&table, 0);
    let per_agg = QUERIES_1D / AggKind::ALL.len();
    let min_rows = (sorted.len() / 100).max(10);
    let streams: Vec<Vec<Query>> = (0..)
        .zip(AggKind::ALL)
        .map(|(i, agg)| random_queries(&sorted, per_agg, agg, min_rows, SEED + i))
        .collect();
    let one_d: Vec<Query> = (0..per_agg)
        .flat_map(|i| streams.iter().map(move |s| s[i].clone()))
        .collect();
    let pass = Pass::from_spec(&table, &spec(LEAVES_1D)).unwrap();
    let one_d_row = row(&pass, &one_d, &table.point(0));
    vec![("md", md_row), ("1d", one_d_row)]
}

#[test]
fn work_rows_are_pinned() {
    let rows = measure();
    let measured: Vec<Row> = rows.iter().map(|(_, row)| *row).collect();
    if measured != PINNED {
        println!("const PINNED: &[Row] = &[");
        for (label, row) in &rows {
            let cells: Vec<String> = row.iter().map(u64::to_string).collect();
            println!("    [{}], // {label}", cells.join(", "));
        }
        println!("];");
    }
    assert_eq!(measured, PINNED, "the work rows moved");
}
