//! Workload generators (Sections 5.1–5.4).
//!
//! All generators produce rectangular queries grounded on actual data
//! values (the Section 4.2 observation that only tuple-grounded rectangles
//! are meaningful) and guarantee a minimum selectivity so that relative
//! error and CI ratio are well defined.

use rand::Rng;

use pass_common::rng::rng_from_seed;
use pass_common::{AggKind, PrefixSums, Query, Rect};
use pass_partition::maxvar::WindowIndex;
use pass_table::{SortedTable, Table};

/// `n` random 1-D interval queries over the sorted key space, each
/// matching at least `min_rows` rows.
pub fn random_queries(
    sorted: &SortedTable,
    n: usize,
    agg: AggKind,
    min_rows: usize,
    seed: u64,
) -> Vec<Query> {
    random_queries_in(sorted, 0..sorted.len(), n, agg, min_rows, seed)
}

/// Random interval queries constrained to a sorted-row range (used for the
/// Figure 6 "challenging" workload over the adversarial tail).
pub fn random_queries_in(
    sorted: &SortedTable,
    region: std::ops::Range<usize>,
    n: usize,
    agg: AggKind,
    min_rows: usize,
    seed: u64,
) -> Vec<Query> {
    let mut rng = rng_from_seed(seed);
    let len = region.len();
    let min_rows = min_rows.clamp(1, len);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let span = rng.gen_range(min_rows..=len);
        let start = region.start + rng.gen_range(0..=(len - span));
        let lo = sorted.key(start);
        let hi = sorted.key(start + span - 1);
        out.push(Query::interval(agg, lo, hi));
    }
    out
}

/// The Section 5.3 challenging workload: random queries drawn from around
/// the maximum-variance window, located with the fast discretization
/// method (the same `Σt²`-scored δm-window index ADP uses).
pub fn challenging_queries(
    sorted: &SortedTable,
    n: usize,
    agg: AggKind,
    opt_samples: usize,
    delta: f64,
    seed: u64,
) -> Vec<Query> {
    let total = sorted.len();
    let m = opt_samples.clamp(16, total);
    // Evenly strided optimization sample (deterministic; the window only
    // needs to locate the volatile region).
    let positions: Vec<usize> = (0..m).map(|i| i * total / m).collect();
    let values: Vec<f64> = positions.iter().map(|&p| sorted.value(p)).collect();
    let prefix = PrefixSums::build(&values);
    let delta_m = ((delta * m as f64).round() as usize).clamp(2, m / 2);
    let index = WindowIndex::build(&prefix, delta_m);
    let (g, _) = index.argmax_window(0, m).unwrap_or((0, 0.0));
    // Map the winning sample window back to full rows, slightly widened so
    // queries vary around the hot region while staying dominated by it
    // (the paper draws its challenging queries "from the interval with the
    // maximum variance").
    let row_lo = positions[g];
    let row_hi = positions[(g + delta_m - 1).min(m - 1)];
    let width = (row_hi - row_lo).max(1);
    let lo = row_lo.saturating_sub(width / 2);
    let hi = (row_hi + width / 2).min(total - 1);
    random_queries_in(sorted, lo..hi + 1, n, agg, (width / 2).max(1), seed)
}

/// The non-NaN cells of the first `dims` predicate columns, each sorted
/// for quantile lookup.
fn sorted_columns(table: &Table, dims: usize) -> Vec<Vec<f64>> {
    (0..dims)
        .map(|dim| {
            let column = table.predicate_column(dim).iter();
            let mut cells: Vec<f64> = column.copied().filter(|v| !v.is_nan()).collect();
            // NaN-free, so the fallback never applies; a stable sort under
            // `partial_cmp` keeps `±0.0` in row order.
            cells.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            cells
        })
        .collect()
}

/// An interval covering a random `[0.3, 0.9]` quantile span of a sorted
/// column (at least one cell); a column with no cells is unbounded.
fn quantile_span(rng: &mut impl Rng, col: &[f64]) -> (f64, f64) {
    let rows = col.len();
    if rows == 0 {
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    let frac = rng.gen_range(0.3..0.9);
    let span = (((rows as f64) * frac) as usize).max(1);
    let start = rng.gen_range(0..=(rows - span));
    (col[start], col[start + span - 1])
}

/// Multi-dimensional template queries (Section 5.4): per dimension an
/// interval covering a random `[0.3, 0.9]` quantile span of the column's
/// non-NaN cells, grounded on data values. A zero-row table gets none.
pub fn template_queries(table: &Table, n: usize, agg: AggKind, seed: u64) -> Vec<Query> {
    if table.n_rows() == 0 {
        return Vec::new();
    }
    let mut rng = rng_from_seed(seed);
    let sorted_cols = sorted_columns(table, table.dims());
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let bounds: Vec<(f64, f64)> = sorted_cols
            .iter()
            .map(|col| quantile_span(&mut rng, col))
            .collect();
        out.push(Query::new(agg, Rect::new(&bounds)));
    }
    out
}

/// Template queries constraining only the first `constrained` predicate
/// dimensions; the remaining dimensions are unbounded. This is the
/// Section 5.4 template family Q1..Qd expressed in the table's full arity
/// (so one synopsis can serve every template — the workload-shift setup).
pub fn template_queries_partial(
    table: &Table,
    constrained: usize,
    n: usize,
    agg: AggKind,
    seed: u64,
) -> Vec<Query> {
    assert!(constrained >= 1 && constrained <= table.dims());
    if table.n_rows() == 0 {
        return Vec::new();
    }
    let mut rng = rng_from_seed(seed);
    let sorted_cols = sorted_columns(table, constrained);
    let d = table.dims();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut bounds: Vec<(f64, f64)> = Vec::with_capacity(d);
        for col in &sorted_cols {
            bounds.push(quantile_span(&mut rng, col));
        }
        for _ in constrained..d {
            bounds.push((f64::NEG_INFINITY, f64::INFINITY));
        }
        out.push(Query::new(agg, Rect::new(&bounds)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::Truth;
    use pass_table::datasets::{adversarial, taxi, uniform};

    #[test]
    fn random_queries_ground_on_data_and_respect_min_rows() {
        let t = uniform(5_000, 1);
        let s = SortedTable::from_table(&t, 0);
        let truth = Truth::new(&t);
        let qs = random_queries(&s, 200, AggKind::Sum, 50, 2);
        assert_eq!(qs.len(), 200);
        for q in &qs {
            assert!(truth.matching_rows(&q.rect) >= 50);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = uniform(1_000, 3);
        let s = SortedTable::from_table(&t, 0);
        let a = random_queries(&s, 20, AggKind::Avg, 10, 7);
        let b = random_queries(&s, 20, AggKind::Avg, 10, 7);
        assert_eq!(a, b);
        let c = random_queries(&s, 20, AggKind::Avg, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn restricted_region_respected() {
        let t = uniform(2_000, 4);
        let s = SortedTable::from_table(&t, 0);
        let qs = random_queries_in(&s, 500..1_000, 50, AggKind::Sum, 10, 5);
        let lo = s.key(500);
        let hi = s.key(999);
        for q in &qs {
            assert!(q.rect.lo(0) >= lo && q.rect.hi(0) <= hi);
        }
    }

    #[test]
    fn challenging_queries_target_the_volatile_tail() {
        // Adversarial data: the max-variance window lives in the last 12.5%.
        let t = adversarial(40_000, 5);
        let s = SortedTable::from_table(&t, 0);
        let qs = challenging_queries(&s, 100, AggKind::Sum, 2_000, 0.01, 6);
        let tail_start_key = s.key((40_000_f64 * 0.8) as usize);
        let in_tail = qs.iter().filter(|q| q.rect.lo(0) >= tail_start_key).count();
        assert!(in_tail > 90, "{in_tail}/100 queries in the tail");
    }

    #[test]
    fn partial_templates_leave_trailing_dims_unbounded() {
        let t = taxi(2_000, 9).project(&[1, 2, 3, 4]).unwrap();
        let qs = template_queries_partial(&t, 2, 20, AggKind::Sum, 10);
        for q in &qs {
            assert_eq!(q.dims(), 4);
            assert!(q.rect.lo(0).is_finite() && q.rect.hi(0).is_finite());
            assert!(q.rect.lo(2) == f64::NEG_INFINITY);
            assert!(q.rect.hi(3) == f64::INFINITY);
        }
    }

    #[test]
    fn template_queries_have_nontrivial_selectivity() {
        let t = taxi(5_000, 7).project(&[1, 2, 3]).unwrap();
        let truth = Truth::new(&t);
        let qs = template_queries(&t, 50, AggKind::Avg, 8);
        let mut nonempty = 0;
        for q in &qs {
            assert_eq!(q.dims(), 3);
            if truth.matching_rows(&q.rect) > 0 {
                nonempty += 1;
            }
        }
        assert!(nonempty >= 45, "{nonempty}/50 non-empty");
    }

    /// FNV-1a over every query's aggregate and bound bits.
    fn fingerprint(queries: &[Query]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for q in queries {
            eat(q.agg as u64);
            eat(q.dims() as u64);
            for d in 0..q.dims() {
                eat(q.rect.lo(d).to_bits());
                eat(q.rect.hi(d).to_bits());
            }
        }
        h
    }

    /// Template queries over NaN-free tables are pinned bit for bit (the
    /// benchmark's `batch_md` draws its queries this way): the hashes
    /// were recorded before NaN cells and empty tables were handled.
    #[test]
    fn template_queries_on_nan_free_tables_are_pinned() {
        let taxi3 = taxi(3_000, 7).project(&[1, 2, 3]).unwrap();
        let small = uniform(5, 2);
        let got = [
            fingerprint(&template_queries(&taxi3, 64, AggKind::Avg, 8)),
            fingerprint(&template_queries(&taxi3, 64, AggKind::Sum, 0x3D01)),
            fingerprint(&template_queries(&small, 32, AggKind::Count, 3)),
            fingerprint(&template_queries_partial(&taxi3, 2, 64, AggKind::Sum, 10)),
        ];
        assert_eq!(
            got,
            [
                0x4a85_5288_be30_eefd,
                0x1250_3b92_d23b_0916,
                0x1f79_effd_a74e_e2e2,
                0x4976_83fe_a2ef_e460,
            ],
            "{got:#x?}"
        );
    }

    /// A 2-D table whose first column is `first`, second column `0..n`.
    fn table_2d(first: Vec<f64>) -> Table {
        let n = first.len();
        let second = (0..n).map(|i| i as f64).collect();
        let names = ["v", "a", "b"].map(String::from).to_vec();
        Table::new(vec![1.0; n], vec![first, second], names).unwrap()
    }

    #[test]
    fn template_queries_draw_quantiles_over_non_nan_cells() {
        let mut first: Vec<f64> = (0..40).map(|i| i as f64).collect();
        for i in (0..40).step_by(3) {
            first[i] = f64::NAN;
        }
        let t = table_2d(first);
        let full = template_queries(&t, 30, AggKind::Sum, 4);
        let partial = template_queries_partial(&t, 2, 30, AggKind::Sum, 4);
        assert_eq!((full.len(), partial.len()), (30, 30));
        for q in full.iter().chain(&partial) {
            let (lo, hi) = (q.rect.lo(0), q.rect.hi(0));
            assert!(lo <= hi && lo % 3.0 != 0.0 && hi % 3.0 != 0.0, "{q:?}");
            assert!(q.rect.lo(1) >= 0.0 && q.rect.hi(1) <= 39.0, "{q:?}");
        }
        // A column with no non-NaN cell leaves its dimension unbounded.
        let t = table_2d(vec![f64::NAN; 10]);
        for q in template_queries(&t, 5, AggKind::Sum, 4)
            .iter()
            .chain(&template_queries_partial(&t, 1, 5, AggKind::Sum, 4))
        {
            assert_eq!(
                (q.rect.lo(0), q.rect.hi(0)),
                (f64::NEG_INFINITY, f64::INFINITY)
            );
        }
        // One non-NaN cell is every quantile.
        let t = table_2d(vec![f64::NAN, 2.5, f64::NAN]);
        for q in template_queries(&t, 5, AggKind::Sum, 4) {
            assert_eq!((q.rect.lo(0), q.rect.hi(0)), (2.5, 2.5));
        }
    }

    #[test]
    fn template_queries_over_a_zero_row_table_are_none() {
        let t = table_2d(Vec::new());
        assert!(template_queries(&t, 10, AggKind::Avg, 1).is_empty());
        assert!(template_queries_partial(&t, 1, 10, AggKind::Avg, 1).is_empty());
    }
}
