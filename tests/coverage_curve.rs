//! Coverage of the nominal-99 % interval against the per-stratum sample
//! size K — a characterization, not a target (ROADMAP item 1(c)).
//!
//! 1-D PASS and 3-D KD-PASS are built on equal-depth leaves of
//! [`LEAF_ROWS`] rows, at sample rates that give every stratum exactly K
//! rows, K ∈ {1, 2, 4, 8, 16, 32, 64}, from [`BUILDS`] build seeds each.
//! Every build answers the same seeded partial SUM/COUNT/AVG queries, and
//! an answer covers when its `value ± ci_half` holds the exact truth.
//! [`PINNED`] records how many did, per arity, K and aggregate, as the
//! estimator stands today: a change to the interval shows up as a diff
//! of this table, never as a loosened bound. The K = 1 row is where a
//! one-row stratum's zero variance shows: its intervals are points.
//! docs/FIGURES.md plots the curve.

use pass::common::{AggKind, PartitionStrategy, PassSpec, Query, Rect, Synopsis};
use pass::core::Pass;
use pass::table::datasets::taxi;
use pass::table::Table;

/// Rows in every equal-depth leaf.
const LEAF_ROWS: usize = 128;
/// The two shapes on the curve: predicate columns of the taxi table and
/// leaves per build (a 3-D k-d expansion splits a leaf into eight, so
/// its equal-depth leaf counts are powers of eight).
const SHAPES: [(&[usize], usize); 2] = [(&[0], 16), (&[0, 1, 5], 64)];
/// Build seeds per (arity, K).
const BUILDS: u64 = 16;
/// Seeded queries per arity, each asked as SUM, COUNT and AVG.
const QUERIES: usize = 64;
/// Per-stratum sample sizes on the curve.
const KS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const AGGS: [AggKind; 3] = [AggKind::Sum, AggKind::Count, AggKind::Avg];

/// Covered and checked partial answers, `(covered, checked)` for SUM,
/// COUNT and AVG, one row per K of [`KS`]: 1-D PASS, then 3-D KD-PASS.
#[rustfmt::skip]
const PINNED: [[[(u32, u32); 3]; 7]; 2] = [
    [
        [(0, 1024), (0, 1024), (62, 1024)],
        [(749, 1024), (565, 1024), (832, 1024)],
        [(879, 1024), (857, 1024), (943, 1024)],
        [(929, 1024), (948, 1024), (982, 1024)],
        [(986, 1024), (996, 1024), (1006, 1024)],
        [(990, 1024), (1005, 1024), (1011, 1024)],
        [(1005, 1024), (1015, 1024), (1011, 1024)],
    ],
    [
        [(128, 848), (128, 848), (172, 720)],
        [(669, 848), (665, 848), (693, 720)],
        [(728, 848), (758, 848), (716, 720)],
        [(789, 848), (800, 848), (719, 720)],
        [(821, 848), (827, 848), (719, 720)],
        [(834, 848), (838, 848), (720, 720)],
        [(832, 848), (835, 848), (720, 720)],
    ],
];

/// Uniform draw in [0, 1) from a splitmix64 stream.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1_u64 << 53) as f64
}

/// Random rectangles over `table`'s bounding box, each side a random
/// sub-interval of its dimension.
fn queries(table: &Table, seed: u64) -> Vec<Rect> {
    let full = table.bounding_rect().unwrap();
    let mut rng = seed;
    (0..QUERIES)
        .map(|_| {
            let bounds: Vec<(f64, f64)> = (0..table.dims())
                .map(|d| {
                    let (a, b) = (unit(&mut rng), unit(&mut rng));
                    let at = |t: f64| full.lo(d) + t * (full.hi(d) - full.lo(d));
                    (at(a.min(b)), at(a.max(b)))
                })
                .collect();
            Rect::new(&bounds)
        })
        .collect()
}

/// Covered and checked partial answers per aggregate, over every build
/// at `k` rows per stratum.
fn coverage(table: &Table, leaves: usize, rects: &[Rect], k: usize) -> [(u32, u32); 3] {
    let truths: Vec<[Option<f64>; 3]> = rects
        .iter()
        .map(|r| AGGS.map(|agg| table.ground_truth(&Query::new(agg, r.clone()))))
        .collect();
    let mut counts = [(0, 0); 3];
    for seed in 0..BUILDS {
        let spec = PassSpec {
            partitions: leaves,
            sample_rate: k as f64 / LEAF_ROWS as f64,
            strategy: PartitionStrategy::EqualDepth,
            seed: 0xC0FE + seed,
            ..PassSpec::default()
        };
        let pass = Pass::from_spec(table, &spec).unwrap();
        let strata: Vec<usize> = pass.leaf_samples().iter().map(|s| s.k()).collect();
        assert_eq!(
            strata,
            vec![k; leaves],
            "{}-D: strata of K = {k}",
            table.dims()
        );
        for (rect, truth) in rects.iter().zip(&truths) {
            for (a, agg) in AGGS.into_iter().enumerate() {
                let (Ok(est), Some(truth)) =
                    (pass.estimate(&Query::new(agg, rect.clone())), truth[a])
                else {
                    continue;
                };
                if est.exact {
                    continue;
                }
                let tol = 1e-9 * truth.abs().max(1.0);
                counts[a].1 += 1;
                if (est.value - truth).abs() <= est.ci_half + tol {
                    counts[a].0 += 1;
                }
            }
        }
    }
    counts
}

#[test]
fn coverage_versus_k_is_pinned() {
    let mut measured = [[[(0, 0); 3]; 7]; 2];
    for (t, &(columns, leaves)) in SHAPES.iter().enumerate() {
        let table = taxi(leaves * LEAF_ROWS, 3).project(columns).unwrap();
        let rects = queries(&table, 0x5EED + t as u64);
        for (i, &k) in KS.iter().enumerate() {
            measured[t][i] = coverage(&table, leaves, &rects, k);
            let [s, c, a] = measured[t][i].map(|(hit, n)| f64::from(hit) / f64::from(n));
            let d = table.dims();
            println!("{d}-D K = {k:>2}: SUM {s:.4}  COUNT {c:.4}  AVG {a:.4}");
        }
    }
    assert_eq!(measured, PINNED, "the coverage-versus-K curve moved");
}
