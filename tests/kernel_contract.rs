//! Kernel-contract property tests: the column-at-a-time scan kernels
//! (`pass::sampling::kernel`) are pinned **bit-for-bit** to the
//! row-at-a-time reference estimators (`pass::sampling::estimator`) for
//! all five aggregates, including the empty-match and AVG-undefined
//! corners, signed zeros in the data, and the 1-D sorted binary-search
//! fast path against the d-dimensional group kernel.
//!
//! The d-dimensional path is one vectorized kernel (keep lanes for four
//! queries, φ formed inside the moment loops, then the reference's
//! additions) that a single query enters in one lane of four, so
//! the suite also walks every sample size 1..=70 — each vector-lane
//! remainder — through every entry point (`Sample`, forced d-dimensional
//! path, `SampleArena::view`, grouped batch), with
//! `K_pred ∈ {0, 1, k}`, NaN predicate cells, `±inf`/NaN/1e300 values in
//! rows the predicate rejects, and magnitudes that take Neumaier's
//! `|value| > |sum|` arm. The batch entry points answer four queries per
//! pass in lockstep, so the hostile strata are also asked batches of
//! 1..=9 mixed-aggregate queries — every group fill, both padding
//! patterns, a lane matching nothing beside one matching every row and
//! one matching a single row. The group kernel is compiled twice, for
//! the target's baseline ISA and with AVX2, and chosen at run time; the
//! grouped checks hold the build this CPU dispatches to and the portable
//! build to the reference alike. The group's predicate pass is unrolled
//! for one to three dimensions and folds a wider rectangle in a chunk at a
//! time, so one test walks every arity 1..=5. CI runs it in release too:
//! that is the codegen the bit-identity rests on.
//!
//! "Bit-for-bit" is literal: every comparison goes through `f64::to_bits`,
//! so even a `-0.0` vs `+0.0` drift (the `Iterator::sum` seed subtlety the
//! kernels replicate) fails the suite.

use proptest::prelude::*;

use pass::common::{AggKind, Query, Rect};
use pass::sampling::estimator::estimate as reference;
use pass::sampling::kernel::GROUP;
use pass::sampling::{PointVariance, Sample, SampleArena, ScanScratch};
use pass::table::Table;

/// Collapse an estimate to raw bits so equality is exact, not approximate.
fn bits(pv: Option<PointVariance>) -> Option<(u64, u64, u64)> {
    pv.map(|p| (p.value.to_bits(), p.variance.to_bits(), p.k_pred))
}

/// Value pool with signed zeros, constants, and noise — the mix that
/// exercises every accumulation-order subtlety.
fn values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(42.0),
            -100.0f64..100.0,
            Just(1e-9),
        ],
        n..n * 2 + 1,
    )
}

/// A query interval over predicate space, including empty-selection
/// intervals far outside the data (`[5,6]` when keys live in `[0,1]`).
fn interval() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) }),
        Just((5.0, 6.0)),   // matches nothing: SUM/COUNT 0, AVG None
        Just((0.0, 1.0)),   // matches everything
        Just((-0.0, 0.25)), // signed-zero boundary
    ]
}

/// Deterministic pseudo-random predicate column in [0, 1).
fn keys(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// Values spanning sixty decades with both signs: consecutive addends
/// routinely out-weigh the running sum, which is the branch of Neumaier's
/// update the benign pool above never takes.
fn wide_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            (-30i32..=30).prop_map(|e| 10f64.powi(e)),
            (-30i32..=30).prop_map(|e| -(10f64.powi(e))),
            -100.0f64..100.0,
            Just(-0.0),
        ],
        n,
    )
}

/// Values a rejected row may hold: the kernels compute `scale · v` for
/// every row and then discard the unmatched ones, so none of these may
/// leak into a sum (`0 · inf`, NaN, or an overflowing product).
fn poison(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(1e300),
            Just(-1e300),
        ],
        n,
    )
}

/// A `k`-row 3-D stratum over `vals[..k]`. `nan_cell[i] < 3` plants a NaN
/// in that predicate dimension of row `i` (the join engine's dangling-FK
/// shape: the row can match no rectangle).
fn stratum_3d(vals: &[f64], k: usize, seed: u64, nan_cell: &[u8]) -> Table {
    let mut preds = vec![
        keys(k, seed),
        keys(k, seed ^ 0xabcdef),
        keys(k, seed ^ 0x5eed),
    ];
    for (i, &c) in nan_cell.iter().take(k).enumerate() {
        if let Some(col) = preds.get_mut(c as usize) {
            col[i] = f64::NAN;
        }
    }
    Table::new(
        vals[..k].to_vec(),
        preds,
        vec!["val".into(), "d0".into(), "d1".into(), "d2".into()],
    )
    .unwrap()
}

/// Every kernel entry point that can answer `(agg, rect)` on `s` —
/// `Sample`, the forced d-dimensional path, the flat-arena view, the grouped
/// batch — against the reference, all five aggregates, on one reused
/// scratch.
fn assert_every_path_matches(s: &Sample, rect: &Rect, scratch: &mut ScanScratch) {
    let k = s.k();
    let arena = SampleArena::from_samples(std::slice::from_ref(s));
    let queries: Vec<Query> = AggKind::ALL
        .into_iter()
        .map(|agg| Query::new(agg, rect.clone()))
        .collect();
    let mut batch = Vec::new();
    scratch.estimate_batch(s, &queries, &mut batch);
    for (q, grouped) in queries.iter().zip(batch) {
        let want = bits(reference(q.agg, s, rect));
        let ctx = format!("{} k={k} {rect:?}", q.agg);
        assert_eq!(
            bits(scratch.estimate(q.agg, s, rect)),
            want,
            "sample: {ctx}"
        );
        assert_eq!(
            bits(scratch.estimate_unsorted(q.agg, s, rect)),
            want,
            "mask path: {ctx}"
        );
        assert_eq!(
            bits(scratch.estimate_view(q.agg, &arena.view(0), rect)),
            want,
            "arena view: {ctx}"
        );
        assert_eq!(bits(grouped), want, "grouped batch: {ctx}");
    }
}

/// One generated batch lane: which rows its rectangle keeps (`0` none,
/// `1` all, `2`/`3`/`4` only the first / middle / last row, `5` whatever
/// the random rectangle beside it keeps) and its aggregate's index.
type LanePick = (u8, usize, ((f64, f64), (f64, f64), (f64, f64)));

fn lane_picks() -> impl Strategy<Value = Vec<LanePick>> {
    prop::collection::vec(
        (0u8..6, 0usize..5, (interval(), interval(), interval())),
        1..=9usize,
    )
}

/// The queries `picks` describe over the `k` rows of `rows`. A point
/// rectangle on a row with a NaN cell takes 0.5 there and keeps nothing.
fn lane_queries(picks: &[LanePick], rows: &Table, k: usize) -> Vec<Query> {
    let point = |i: usize| {
        let at = |d| {
            let c = rows.predicate(d, i);
            let c = if c.is_nan() { 0.5 } else { c };
            (c, c)
        };
        Rect::new(&[at(0), at(1), at(2)])
    };
    picks
        .iter()
        .map(|&(keeps, agg, (r0, r1, r2))| {
            let rect = match keeps {
                0 => Rect::new(&[(5.0, 6.0); 3]),
                1 => Rect::new(&[(0.0, 1.0); 3]),
                2 => point(0),
                3 => point(k / 2),
                4 => point(k - 1),
                _ => Rect::new(&[r0, r1, r2]),
            };
            Query::new(AggKind::ALL[agg], rect)
        })
        .collect()
}

/// Both grouped entry points — `estimate_batch` over the `Sample` (spare
/// lanes of the last group repeat its last query) and `estimate_group`
/// over the arena view, as `Pass`'s batch path calls it (here the spare
/// lanes repeat the group's first query) — against the reference and the
/// single-query view path, query by query. Both dispatch to the group
/// kernel build the CPU supports (AVX2 on most `x86_64` hosts), so the
/// portable build (`estimate_group_portable`) is held to the reference
/// beside them; on a host without AVX2 the two are one function.
fn assert_groups_match(s: &Sample, queries: &[Query], scratch: &mut ScanScratch) {
    let arena = SampleArena::from_samples(std::slice::from_ref(s));
    let view = arena.view(0);
    let mut batch = Vec::new();
    scratch.estimate_batch(s, queries, &mut batch);
    assert_eq!(batch.len(), queries.len());
    let (mut grouped, mut portable) = (Vec::new(), Vec::new());
    for group in queries.chunks(GROUP) {
        let lane = |l: usize| &group[if l < group.len() { l } else { 0 }];
        let bounds: [Vec<(f64, f64)>; GROUP] = std::array::from_fn(|l| {
            let rect = &lane(l).rect;
            (0..rect.dims()).map(|d| (rect.lo(d), rect.hi(d))).collect()
        });
        let aggs = std::array::from_fn(|l| lane(l).agg);
        let bounds = std::array::from_fn(|l| bounds[l].as_slice());
        let points = scratch.estimate_group(&view, aggs, bounds);
        grouped.extend_from_slice(&points[..group.len()]);
        let points = scratch.estimate_group_portable(&view, aggs, bounds);
        portable.extend_from_slice(&points[..group.len()]);
    }
    for (i, q) in queries.iter().enumerate() {
        let want = bits(reference(q.agg, s, &q.rect));
        let ctx = format!(
            "lane {i} of {}: {} k={} {:?}",
            queries.len(),
            q.agg,
            s.k(),
            q.rect
        );
        assert_eq!(bits(batch[i]), want, "estimate_batch, {ctx}");
        assert_eq!(bits(grouped[i]), want, "estimate_group, {ctx}");
        assert_eq!(bits(portable[i]), want, "estimate_group_portable, {ctx}");
        assert_eq!(
            bits(scratch.estimate_view(q.agg, &view, &q.rect)),
            want,
            "estimate_view, {ctx}"
        );
    }
}

fn table_2d(vals: &[f64], seed: u64) -> Table {
    let n = vals.len();
    Table::new(
        vals.to_vec(),
        vec![keys(n, seed), keys(n, seed ^ 0xabcdef)],
        vec!["val".into(), "d0".into(), "d1".into()],
    )
    .unwrap()
}

proptest! {
    /// Multi-dimensional group kernel ≡ reference, all five aggregates, with
    /// a non-trivial finite-population correction.
    #[test]
    fn kernel_matches_reference_bitwise(vals in values(4), seed in 1u64..5_000, (lo, hi) in interval()) {
        let t = table_2d(&vals, seed);
        let n = t.n_rows();
        let s = Sample::from_indices(&t, &(0..n).collect::<Vec<_>>(), 3 * n as u64).unwrap();
        let rect = Rect::new(&[(lo, hi), (0.1, 0.9)]);
        let mut scratch = ScanScratch::new();
        for agg in AggKind::ALL {
            prop_assert_eq!(
                bits(scratch.estimate(agg, &s, &rect)),
                bits(reference(agg, &s, &rect)),
                "{} diverged from the reference", agg
            );
        }
    }

    /// 1-D sorted fast path ≡ forced d-dimensional path ≡ reference on the same
    /// sample, including samples holding `-0.0` values.
    #[test]
    fn sorted_fast_path_matches_mask_path(vals in values(3), seed in 1u64..5_000, (lo, hi) in interval()) {
        let n = vals.len();
        let mut ks = keys(n, seed);
        ks.sort_by(f64::total_cmp);
        let t = Table::one_dim(ks, vals).unwrap();
        let s = Sample::from_indices(&t, &(0..n).collect::<Vec<_>>(), 2 * n as u64).unwrap();
        prop_assert!(s.sorted_1d(), "sorted predicate column must be detected");
        let rect = Rect::interval(lo, hi);
        let mut scratch = ScanScratch::new();
        for agg in AggKind::ALL {
            let fast = bits(scratch.estimate(agg, &s, &rect));
            let masked = bits(scratch.estimate_unsorted(agg, &s, &rect));
            let refr = bits(reference(agg, &s, &rect));
            prop_assert_eq!(fast, masked, "{} fast path diverged from mask path", agg);
            prop_assert_eq!(masked, refr, "{} mask path diverged from reference", agg);
        }
    }

    /// 3-D strata of every size 1..=70 with hostile contents: NaN
    /// predicate cells, `±inf`/NaN/1e300 values in every row the
    /// rectangle rejects, and wide-magnitude values in the rows it keeps.
    /// The same stratum then answers a batch of 1..=9 mixed-aggregate
    /// lanes — the rectangle again, plus lanes keeping nothing, every
    /// row, or one row — through the lockstep group kernel, poisoned
    /// wherever no lane of the batch keeps the row.
    #[test]
    fn hostile_3d_strata_match_reference_bitwise(
        k in 1usize..=70,
        seed in 1u64..5_000,
        vals in wide_values(70),
        bad in poison(70),
        nan_cell in prop::collection::vec(0u8..12, 70),
        rect in (interval(), interval(), interval()),
        picks in lane_picks(),
    ) {
        let rect = Rect::new(&[rect.0, rect.1, rect.2]);
        let clean = stratum_3d(&vals, k, seed, &nan_cell);
        let hostile = |kept: &dyn Fn(usize) -> bool| {
            let vals: Vec<f64> = (0..k).map(|i| if kept(i) { vals[i] } else { bad[i] }).collect();
            Sample::from_rows(stratum_3d(&vals, k, seed, &nan_cell), 3 * k as u64).unwrap()
        };
        let mut scratch = ScanScratch::new();
        let s = hostile(&|i| clean.matches(&rect, i));
        assert_every_path_matches(&s, &rect, &mut scratch);

        let mut queries = lane_queries(&picks, &clean, k);
        queries[picks.len() / 2].rect = rect;
        let s = hostile(&|i| queries.iter().any(|q| clean.matches(&q.rect, i)));
        assert_groups_match(&s, &queries, &mut scratch);
    }

    /// Batch evaluation ≡ per-query evaluation, element-wise, over many
    /// groups and a last group the batch does not fill.
    #[test]
    fn batch_matches_singles_across_tiles(vals in values(4), seed in 1u64..5_000) {
        let t = table_2d(&vals, seed);
        let n = t.n_rows();
        let s = Sample::from_indices(&t, &(0..n).collect::<Vec<_>>(), n as u64).unwrap();
        let queries: Vec<Query> = (0..70)
            .map(|i| {
                let agg = AggKind::ALL[i % AggKind::ALL.len()];
                let lo = (i as f64 / 100.0) % 1.0;
                Query::new(agg, Rect::new(&[(lo, lo + 0.4), (0.0, 0.8)]))
            })
            .collect();
        let mut scratch = ScanScratch::new();
        let mut batch = Vec::new();
        scratch.estimate_batch(&s, &queries, &mut batch);
        prop_assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(batch) {
            prop_assert_eq!(
                bits(b),
                bits(scratch.estimate(q.agg, &s, &q.rect)),
                "batch diverged for {}", q.agg
            );
        }
    }
}

/// The empty-sample corner stays pinned: SUM/COUNT answer `0 ± 0`,
/// AVG/MIN/MAX are undefined — on every kernel entry point.
#[test]
fn empty_sample_corner_is_pinned() {
    let t = Table::one_dim(vec![0.5], vec![1.0]).unwrap();
    let s = Sample::from_indices(&t, &[], 10).unwrap();
    let rect = Rect::interval(0.0, 1.0);
    let mut scratch = ScanScratch::new();
    for agg in AggKind::ALL {
        assert_eq!(
            bits(scratch.estimate(agg, &s, &rect)),
            bits(reference(agg, &s, &rect)),
            "{agg} empty-sample contract"
        );
    }
    let queries: Vec<Query> = AggKind::ALL
        .into_iter()
        .map(|agg| Query::interval(agg, 0.0, 1.0))
        .collect();
    let mut batch = Vec::new();
    scratch.estimate_batch(&s, &queries, &mut batch);
    for (q, b) in queries.iter().zip(batch) {
        assert_eq!(bits(b), bits(reference(q.agg, &s, &q.rect)));
    }
}

/// Every sample size 1..=70 — each remainder of a 2-, 4- or 8-lane
/// vector loop, with and without whole vectors before it — at the three
/// selectivities the kernels special-case: `K_pred = 0` (hoisted
/// constant), `K_pred = 1` (a point rectangle on one row, moved through
/// the stratum so it lands in vector body and tail alike) and
/// `K_pred = k`. Values climb in magnitude with alternating sign, so
/// each matched addend out-weighs the running sum.
#[test]
fn every_lane_remainder_at_kpred_zero_one_and_all() {
    let vals: Vec<f64> = (0..70)
        .map(|i| (if i % 2 == 0 { 1.0 } else { -1.0 }) * 3f64.powi(i))
        .collect();
    let mut scratch = ScanScratch::new();
    for k in 1..=70usize {
        let rows = stratum_3d(&vals, k, 0x7a55 + k as u64, &[]);
        let point = |i: usize| {
            let at = |d| (rows.predicate(d, i), rows.predicate(d, i));
            Rect::new(&[at(0), at(1), at(2)])
        };
        let rects = [
            Rect::new(&[(5.0, 6.0); 3]),
            point(0),
            point(k / 2),
            point(k - 1),
            Rect::new(&[(0.0, 1.0); 3]),
        ];
        let s = Sample::from_rows(rows, 3 * k as u64).unwrap();
        let k_preds: Vec<usize> = rects.iter().map(|r| s.k_pred(r)).collect();
        assert_eq!(k_preds, [0, 1, 1, 1, k], "test premise at k={k}");
        for rect in &rects {
            assert_every_path_matches(&s, rect, &mut scratch);
        }
        // The five selectivities side by side in one batch (two groups,
        // the second one lane full), the aggregates rotating through the
        // lanes with `k` so each meets each selectivity.
        let queries: Vec<Query> = rects
            .iter()
            .enumerate()
            .map(|(i, rect)| Query::new(AggKind::ALL[(i + k) % 5], rect.clone()))
            .collect();
        assert_groups_match(&s, &queries, &mut scratch);
    }
}

/// A `k`-row stratum in `dims` dimensions for the arity sweep. Its
/// values are `-0.0` and magnitudes from 1e-6 to 1e6 of both signs; its
/// predicate cells include `-0.0` and `±inf`, which a rectangle can keep.
/// The `hostile` twin also puts NaN, `+inf` or `-inf` in every fourth
/// value cell and a NaN in one predicate cell of every twelfth row, which
/// no rectangle can keep.
fn arity_stratum(dims: usize, k: usize, hostile: bool) -> Table {
    const ODD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let seed = (dims * 100 + k) as u64;
    let mut preds: Vec<Vec<f64>> = (0..dims)
        .map(|d| keys(k, seed ^ (d as u64 * 0x9e37)))
        .collect();
    for (i, d) in (0..k).zip((0..dims).cycle()) {
        preds[d][i] = match i % 12 {
            2 | 8 => -0.0,
            4 => f64::INFINITY,
            10 => f64::NEG_INFINITY,
            5 if hostile => f64::NAN,
            _ => preds[d][i],
        };
    }
    let values = (0..k)
        .map(|i| match i % 5 {
            _ if hostile && i % 4 == 1 => ODD[i % 3],
            0 => -0.0,
            r => (if i % 2 == 0 { 1.0 } else { -1.0 }) * 10f64.powi(r as i32 * 3 - 6),
        })
        .collect();
    let names = std::iter::once("val".to_string())
        .chain((0..dims).map(|d| format!("d{d}")))
        .collect();
    Table::new(values, preds, names).unwrap()
}

/// The group kernel's predicate pass is unrolled for one to three
/// dimensions and folds a wider rectangle in a chunk at a time, so every
/// arity 1..=5 crosses it, at `K ∈ {0, 1, 2, 3, 5, 26, 67}`: batches of
/// nine mixed-aggregate lanes keeping nothing, every row, the row at
/// either end or in the middle, or a band, over both twins of
/// [`arity_stratum`] — so NaN, `±inf` and `-0.0` sit in rows the lanes
/// keep and rows they reject. Every lane goes through `estimate_group`,
/// `estimate_group_portable`, `estimate_batch` and `estimate_view`
/// against the reference, bit for bit.
#[test]
fn group_kernel_matches_reference_at_every_arity() {
    let mut scratch = ScanScratch::new();
    for dims in 1..=5usize {
        for k in [0usize, 1, 2, 3, 5, 26, 67] {
            for hostile in [false, true] {
                let rows = arity_stratum(dims, k, hostile);
                let every = Rect::new(&vec![(f64::NEG_INFINITY, f64::INFINITY); dims]);
                let none = Rect::new(&vec![(5.0, 6.0); dims]);
                let point = |i: usize| {
                    let at = |d| (rows.predicate(d, i), rows.predicate(d, i));
                    Rect::new(&(0..dims).map(at).collect::<Vec<_>>())
                };
                let mut rects = vec![none.clone(), every.clone()];
                if k > 0 {
                    rects.extend([
                        point(0),
                        point(k / 2),
                        point(k - 1),
                        Rect::new(&vec![(0.2, 0.9); dims]),
                        every,
                        none,
                        Rect::new(&vec![(-0.0, 0.6); dims]),
                    ]);
                }
                let s = Sample::from_rows(rows, 3 * k as u64 + 1).unwrap();
                let k_preds: Vec<usize> = rects.iter().map(|r| s.k_pred(r)).collect();
                let nan_rows = if hostile { (k + 6) / 12 } else { 0 };
                let ctx = format!("premise: dims={dims} k={k} {k_preds:?}");
                assert_eq!(k_preds[..2], [0, k - nan_rows], "{ctx}");
                if !hostile && k > 0 {
                    assert_eq!(k_preds[2..5], [1, 1, 1], "{ctx}");
                }
                let queries: Vec<Query> = rects
                    .into_iter()
                    .enumerate()
                    .map(|(q, rect)| Query::new(AggKind::ALL[(q + k + dims) % 5], rect))
                    .collect();
                assert_groups_match(&s, &queries, &mut scratch);
            }
        }
    }
}
