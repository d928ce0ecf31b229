//! The multi-dimensional AVG discretization — Appendix A.4's "second
//! algorithm".
//!
//! For a partition (point set) in d dimensions, build a modified k-d tree
//! whose leaves hold between δm and 2δm points ("if a node contains less
//! than 2δm and more than δm items we create two leaf nodes"), score each
//! leaf by `Σ t²`, and return the AVG variance of the best-scoring leaf's
//! point set as the approximate maximum. The paper shows this is a
//! `δ^{1-1/d}/2` approximation of the true maximum-variance AVG query,
//! with no range tree required ("we can find all the necessary sums in
//! O(m log m) time without constructing a range tree").

use std::cmp::Ordering;

use pass_table::Table;

/// Result of the Appendix A.4 second algorithm on one partition.
#[derive(Debug, Clone)]
pub struct KdAvgResult {
    /// Approximate maximum AVG variance `V_i(q')`.
    pub variance: f64,
    /// The rows of the winning leaf (the approximate argmax query).
    pub rows: Vec<u32>,
}

/// Approximate the maximum AVG-query variance among the `rows` of `table`
/// (one candidate partition), with minimum meaningful query size
/// `delta_m` points. Returns `None` when the partition holds fewer than
/// `2·delta_m` points (the Lemma A.4 smallness convention).
pub fn max_avg_variance_kd(table: &Table, rows: &[u32], delta_m: usize) -> Option<KdAvgResult> {
    let delta_m = delta_m.max(1);
    let n_i = rows.len();
    if n_i < 2 * delta_m {
        return None;
    }
    // Recursively median-split until leaves hold < 2δm points, cycling
    // dimensions; collect leaves of >= δm points.
    let mut best: Option<(f64, Vec<u32>)> = None; // (Σt², leaf rows)
    let mut stack: Vec<(Vec<u32>, usize)> = vec![(rows.to_vec(), 0)];
    while let Some((set, depth)) = stack.pop() {
        if set.len() < 2 * delta_m {
            // A leaf (δm <= len < 2δm guaranteed by the splitting rule,
            // except degenerate inputs where we still accept >= δm).
            if set.len() >= delta_m {
                let score: f64 = set
                    .iter()
                    .map(|&r| {
                        let v = table.value(r as usize);
                        v * v
                    })
                    .sum();
                if best.as_ref().is_none_or(|(b, _)| score > *b) {
                    best = Some((score, set));
                }
            }
            continue;
        }
        let dim = depth % table.dims();
        let mut sorted = set;
        sorted.sort_by(|&a, &b| {
            let (x, y) = (
                table.predicate(dim, a as usize),
                table.predicate(dim, b as usize),
            );
            // `<` / `>` as the k-d split compares cells, else equal — with
            // a NaN cell after every number, so the order stays total and
            // the sort cannot panic. Without NaN this is `partial_cmp`.
            if x < y {
                Ordering::Less
            } else if x > y {
                Ordering::Greater
            } else {
                x.is_nan().cmp(&y.is_nan())
            }
        });
        let mid = sorted.len() / 2;
        let right = sorted.split_off(mid);
        stack.push((sorted, depth + 1));
        stack.push((right, depth + 1));
    }
    let (_, leaf_rows) = best?;
    // V_i(q') = [n_i·Σt² − (Σt)²] / (n_i·|q'|²)  (Appendix A.2's AVG form).
    let (mut s, mut s2) = (0.0f64, 0.0f64);
    for &r in &leaf_rows {
        let v = table.value(r as usize);
        s += v;
        s2 += v * v;
    }
    let q_len = leaf_rows.len() as f64;
    let variance = ((n_i as f64 * s2 - s * s) / (n_i as f64 * q_len * q_len)).max(0.0);
    Some(KdAvgResult {
        variance,
        rows: leaf_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_table::datasets::taxi;
    use pass_table::Table;

    fn rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn finds_the_high_energy_pocket() {
        // 2-D points; values huge in one spatial corner.
        let n = 400;
        let x: Vec<f64> = (0..n).map(|i| (i % 20) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| (i / 20) as f64).collect();
        let values: Vec<f64> = (0..n)
            .map(|i| {
                if x[i] < 5.0 && y[i] < 5.0 {
                    100.0 + (i % 7) as f64
                } else {
                    1.0
                }
            })
            .collect();
        let t = Table::new(
            values,
            vec![x.clone(), y.clone()],
            vec!["v".into(), "x".into(), "y".into()],
        )
        .unwrap();
        let result = max_avg_variance_kd(&t, &rows(n), 8).unwrap();
        assert!(result.variance > 0.0);
        // The winning leaf must be dominated by the hot corner.
        let hot = result
            .rows
            .iter()
            .filter(|&&r| x[r as usize] < 5.0 && y[r as usize] < 5.0)
            .count();
        assert!(
            hot * 2 > result.rows.len(),
            "{hot}/{} rows in hot corner",
            result.rows.len()
        );
    }

    #[test]
    fn leaf_sizes_respect_delta_m() {
        let t = taxi(1_000, 3).project(&[1, 2]).unwrap();
        let dm = 16;
        let result = max_avg_variance_kd(&t, &rows(1_000), dm).unwrap();
        assert!(result.rows.len() >= dm);
        assert!(result.rows.len() < 2 * dm);
    }

    #[test]
    fn small_partitions_return_none() {
        let t = taxi(100, 4).project(&[1]).unwrap();
        assert!(max_avg_variance_kd(&t, &rows(100), 64).is_none());
    }

    #[test]
    fn a_nan_predicate_cell_sorts_last_instead_of_panicking() {
        // The median sort used to `expect` a NaN-free column. A NaN cell
        // now sorts after every number, so the split still halves the
        // points and the score is the AVG variance of a δm leaf.
        let n = 200;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                if i % 17 == 3 {
                    f64::NAN
                } else {
                    (i * 37 % 101) as f64
                }
            })
            .collect();
        let y: Vec<f64> = (0..n).map(|i| (i * 53 % 89) as f64).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
        let names = ["v", "x", "y"].map(String::from).to_vec();
        let t = Table::new(values, vec![x, y], names).unwrap();
        let result = max_avg_variance_kd(&t, &rows(n), 8).unwrap();
        assert!(result.variance.is_finite() && result.variance > 0.0);
        assert!(
            (8..16).contains(&result.rows.len()),
            "{}",
            result.rows.len()
        );
    }

    #[test]
    fn variance_is_a_genuine_query_variance() {
        // The reported variance must match recomputing the formula on the
        // returned rows.
        let t = taxi(500, 5).project(&[1, 2]).unwrap();
        let result = max_avg_variance_kd(&t, &rows(500), 10).unwrap();
        let (mut s, mut s2) = (0.0, 0.0);
        for &r in &result.rows {
            let v = t.value(r as usize);
            s += v;
            s2 += v * v;
        }
        let q = result.rows.len() as f64;
        let expected = (500.0 * s2 - s * s) / (500.0 * q * q);
        assert!((result.variance - expected).abs() < 1e-9);
    }
}
