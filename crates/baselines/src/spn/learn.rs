//! SPN structure learning (a compact LearnSPN).
//!
//! Recursively: try to split *columns* into independent groups (Product
//! node); when the columns are dependent, split *rows* by 2-means
//! clustering (Sum node); bottom out in single-column histogram leaves.
//! Independence testing uses |Pearson correlation| on a row subsample in
//! place of DeepDB's RDC — cheaper, same role.

use rand::Rng;

use pass_common::rng::{derive_seed, rng_from_seed};
use pass_common::Result;
use pass_table::Table;

use super::histogram::Histogram;

/// Stop row-splitting below this many rows.
const MIN_ROWS: usize = 512;
/// Histogram bins per leaf.
const BINS: usize = 64;
/// |Pearson| at or above this links two columns as dependent.
const CORR_THRESHOLD: f64 = 0.3;
/// Maximum recursion depth (Sum+Product levels).
const MAX_DEPTH: usize = 12;
/// Rows used for the correlation test.
const CORR_SAMPLE: usize = 2_000;

/// SPN node (arena-indexed).
#[derive(Debug, Clone)]
pub enum Node {
    /// Weighted mixture over row clusters: `(weight, child)`.
    Sum(Vec<(f64, usize)>),
    /// Independent column groups: `(columns, child)`.
    Product(Vec<(Vec<usize>, usize)>),
    /// Single-column histogram.
    Leaf { col: usize, hist: Histogram },
}

/// Column accessor treating the aggregate column as index `dims`.
fn column_value(table: &Table, col: usize, row: usize) -> f64 {
    if col == table.dims() {
        table.value(row)
    } else {
        table.predicate(col, row)
    }
}

/// Train over a `ratio` row-sample of `table`. Returns the node arena and
/// root id.
pub fn learn(table: &Table, ratio: f64, seed: u64) -> Result<(Vec<Node>, usize)> {
    let n = table.n_rows();
    let k = ((n as f64) * ratio).round().max(1.0) as usize;
    let mut rng = rng_from_seed(derive_seed(seed, 71));
    let rows: Vec<u32> = if k >= n {
        (0..n as u32).collect()
    } else {
        let mut idx: Vec<u32> = rand::seq::index::sample(&mut rng, n, k)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        idx.sort_unstable();
        idx
    };
    let cols: Vec<usize> = (0..=table.dims()).collect();
    let mut arena = Vec::new();
    let root = build(table, &rows, &cols, 0, &mut rng, &mut arena);
    Ok((arena, root))
}

fn build<R: Rng>(
    table: &Table,
    rows: &[u32],
    cols: &[usize],
    depth: usize,
    rng: &mut R,
    arena: &mut Vec<Node>,
) -> usize {
    if cols.len() == 1 {
        return push_leaf(table, rows, cols[0], arena);
    }
    if rows.len() < MIN_ROWS || depth >= MAX_DEPTH {
        return push_naive_product(table, rows, cols, arena);
    }
    // Try an independence-based column split first.
    let groups = independent_groups(table, rows, cols, rng);
    if groups.len() > 1 {
        let children: Vec<(Vec<usize>, usize)> = groups
            .into_iter()
            .map(|g| {
                let child = build(table, rows, &g, depth + 1, rng, arena);
                (g, child)
            })
            .collect();
        arena.push(Node::Product(children));
        return arena.len() - 1;
    }
    // Dependent columns: split rows by 2-means.
    match two_means(table, rows, cols, rng) {
        Some((left, right)) => {
            let wl = left.len() as f64 / rows.len() as f64;
            let wr = 1.0 - wl;
            let cl = build(table, &left, cols, depth + 1, rng, arena);
            let cr = build(table, &right, cols, depth + 1, rng, arena);
            arena.push(Node::Sum(vec![(wl, cl), (wr, cr)]));
            arena.len() - 1
        }
        None => push_naive_product(table, rows, cols, arena),
    }
}

fn push_leaf(table: &Table, rows: &[u32], col: usize, arena: &mut Vec<Node>) -> usize {
    let values: Vec<f64> = rows
        .iter()
        .map(|&r| column_value(table, col, r as usize))
        .collect();
    arena.push(Node::Leaf {
        col,
        hist: Histogram::build(&values, BINS),
    });
    arena.len() - 1
}

/// Product of single-column leaves (naive factorization fallback).
fn push_naive_product(table: &Table, rows: &[u32], cols: &[usize], arena: &mut Vec<Node>) -> usize {
    let children: Vec<(Vec<usize>, usize)> = cols
        .iter()
        .map(|&c| (vec![c], push_leaf(table, rows, c, arena)))
        .collect();
    arena.push(Node::Product(children));
    arena.len() - 1
}

/// Union-find column grouping by |Pearson| on a row subsample.
#[allow(clippy::needless_range_loop)] // pairwise (i, j) correlation loop
fn independent_groups<R: Rng>(
    table: &Table,
    rows: &[u32],
    cols: &[usize],
    rng: &mut R,
) -> Vec<Vec<usize>> {
    let sample: Vec<u32> = if rows.len() <= CORR_SAMPLE {
        rows.to_vec()
    } else {
        (0..CORR_SAMPLE)
            .map(|_| rows[rng.gen_range(0..rows.len())])
            .collect()
    };
    let data: Vec<Vec<f64>> = cols
        .iter()
        .map(|&c| {
            sample
                .iter()
                .map(|&r| column_value(table, c, r as usize))
                .collect()
        })
        .collect();
    let mut parent: Vec<usize> = (0..cols.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..cols.len() {
        for j in (i + 1)..cols.len() {
            if pearson(&data[i], &data[j]).abs() >= CORR_THRESHOLD {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for i in 0..cols.len() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(cols[i]);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// 2-means over rows (columns z-normalized), ~8 Lloyd iterations.
/// Returns `None` when the rows do not separate (degenerate cluster).
fn two_means<R: Rng>(
    table: &Table,
    rows: &[u32],
    cols: &[usize],
    rng: &mut R,
) -> Option<(Vec<u32>, Vec<u32>)> {
    let d = cols.len();
    // Normalization statistics.
    let mut mean = vec![0.0; d];
    let mut var = vec![0.0; d];
    for &r in rows {
        for (j, &c) in cols.iter().enumerate() {
            mean[j] += column_value(table, c, r as usize);
        }
    }
    for m in mean.iter_mut() {
        *m /= rows.len() as f64;
    }
    for &r in rows {
        for (j, &c) in cols.iter().enumerate() {
            let dlt = column_value(table, c, r as usize) - mean[j];
            var[j] += dlt * dlt;
        }
    }
    let scale: Vec<f64> = var
        .iter()
        .map(|&v| {
            let sd = (v / rows.len() as f64).sqrt();
            if sd > 0.0 {
                1.0 / sd
            } else {
                0.0
            }
        })
        .collect();

    let point = |r: u32| -> Vec<f64> {
        cols.iter()
            .enumerate()
            .map(|(j, &c)| (column_value(table, c, r as usize) - mean[j]) * scale[j])
            .collect()
    };
    let mut c0 = point(rows[rng.gen_range(0..rows.len())]);
    let mut c1 = point(rows[rng.gen_range(0..rows.len())]);
    if c0 == c1 {
        // Nudge: pick the farthest row from c0.
        let far = rows
            .iter()
            .max_by(|&&a, &&b| dist2(&point(a), &c0).total_cmp(&dist2(&point(b), &c0)))
            .copied()?;
        c1 = point(far);
    }
    let mut assign = vec![false; rows.len()];
    for _ in 0..8 {
        let mut changed = false;
        for (i, &r) in rows.iter().enumerate() {
            let p = point(r);
            let side = dist2(&p, &c1) < dist2(&p, &c0);
            if side != assign[i] {
                assign[i] = side;
                changed = true;
            }
        }
        // Recompute centroids.
        let mut acc0 = vec![0.0; d];
        let mut acc1 = vec![0.0; d];
        let (mut n0, mut n1) = (0usize, 0usize);
        for (i, &r) in rows.iter().enumerate() {
            let p = point(r);
            if assign[i] {
                for (a, v) in acc1.iter_mut().zip(&p) {
                    *a += v;
                }
                n1 += 1;
            } else {
                for (a, v) in acc0.iter_mut().zip(&p) {
                    *a += v;
                }
                n0 += 1;
            }
        }
        if n0 == 0 || n1 == 0 {
            return None;
        }
        for a in acc0.iter_mut() {
            *a /= n0 as f64;
        }
        for a in acc1.iter_mut() {
            *a /= n1 as f64;
        }
        c0 = acc0;
        c1 = acc1;
        if !changed {
            break;
        }
    }
    let left: Vec<u32> = rows
        .iter()
        .zip(&assign)
        .filter(|(_, &a)| !a)
        .map(|(&r, _)| r)
        .collect();
    let right: Vec<u32> = rows
        .iter()
        .zip(&assign)
        .filter(|(_, &a)| a)
        .map(|(&r, _)| r)
        .collect();
    if left.is_empty() || right.is_empty() {
        None
    } else {
        Some((left, right))
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_table::datasets::uniform;

    #[test]
    fn learns_some_structure() {
        let t = uniform(10_000, 1);
        let (arena, root) = learn(&t, 1.0, 2).unwrap();
        assert!(root < arena.len());
        assert!(arena.len() >= 2, "at least a product of two leaves");
    }

    #[test]
    fn pearson_basics() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-9);
        let z: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-9);
        let c = vec![5.0; 100];
        assert_eq!(pearson(&x, &c), 0.0);
    }

    #[test]
    fn correlated_columns_grouped_together() {
        // value = predicate → the two columns must land in one group.
        let keys: Vec<f64> = (0..5_000).map(|i| i as f64).collect();
        let vals = keys.clone();
        let t = Table::one_dim(keys, vals).unwrap();
        let mut rng = rng_from_seed(3);
        let groups = independent_groups(&t, &(0..5_000u32).collect::<Vec<_>>(), &[0, 1], &mut rng);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn independent_columns_split_apart() {
        let t = uniform(5_000, 4); // independent key and value
        let mut rng = rng_from_seed(5);
        let groups = independent_groups(&t, &(0..5_000u32).collect::<Vec<_>>(), &[0, 1], &mut rng);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn two_means_separates_bimodal_rows() {
        // Two blobs along the key axis.
        let keys: Vec<f64> = (0..1_000)
            .map(|i| {
                if i < 500 {
                    i as f64
                } else {
                    10_000.0 + i as f64
                }
            })
            .collect();
        let vals = vec![1.0; 1_000];
        let t = Table::one_dim(keys, vals).unwrap();
        let mut rng = rng_from_seed(6);
        let rows: Vec<u32> = (0..1_000).collect();
        let (left, right) = two_means(&t, &rows, &[0], &mut rng).unwrap();
        assert_eq!(left.len() + right.len(), 1_000);
        // Clusters should basically match the blobs.
        let small_cluster = left.len().min(right.len());
        assert!((400..=600).contains(&small_cluster));
    }

    #[test]
    fn constant_rows_do_not_cluster() {
        let t = Table::one_dim(vec![1.0; 100], vec![2.0; 100]).unwrap();
        let mut rng = rng_from_seed(7);
        let rows: Vec<u32> = (0..100).collect();
        assert!(two_means(&t, &rows, &[0, 1], &mut rng).is_none());
    }

    use pass_table::Table;
}
