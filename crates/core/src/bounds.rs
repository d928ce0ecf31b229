//! Deterministic hard bounds (Section 2.3).
//!
//! Because every partition's true SUM/COUNT/MIN/MAX are known exactly, any
//! query result can be bracketed deterministically: fully include the
//! partially-overlapping partitions for the upper bound and omit them for
//! the lower bound (SUM/COUNT); bracket AVG between the covered average and
//! the partial extrema. These are 100%-confidence intervals — "no other
//! commonly used sample-based data structure offers this benefit".
//!
//! The paper assumes non-negative values (footnote 2). We additionally
//! handle negative values soundly by widening the partial contribution to
//! `[N_i·min_i, 0]` / `[0, N_i·max_i]` as needed.

use pass_common::AggKind;

use crate::mcf::Frontier;
use crate::tree::PartitionTree;

/// Hard bounds `(lb, ub)` for a query given its coverage frontier —
/// `None` when the query provably matches nothing relevant (AVG/MIN/MAX of
/// an empty selection) — plus the exact covered-partition contribution
/// for SUM/COUNT (`0.0` for other aggregates).
///
/// Aggregates are read straight off the frontier ids (no materialized
/// per-query node lists), in frontier order, so the summations are
/// unchanged from the materializing formulation. The bounds computation
/// already folds the covered partitions' sums (SUM's `base`) and counts
/// (COUNT's `lb`) — the very folds the partial-aggregation step needs —
/// with `Iterator::sum` in frontier order. Returning that fold lets the
/// query path run it once; the bits are those of a standalone
/// partial-aggregation fold because it *is* that fold.
pub(crate) fn hard_bounds_exact(
    tree: &PartitionTree,
    frontier: Frontier<'_>,
    agg: AggKind,
) -> (Option<(f64, f64)>, f64) {
    let covered = || frontier.covered.iter().map(|&id| tree.agg(id));
    // 0-variance-rule nodes have an unknown matching count, so for hard
    // bounds they behave like partial nodes (only their extrema are safe).
    let partial = || {
        frontier
            .partial
            .iter()
            .chain(frontier.zero_var)
            .map(|&id| tree.agg(id))
    };
    // A covered node bounds MIN from above (MAX from below) by an
    // extremum it is known to attain. After a deletion touched its stored
    // extremum only the opposite one is still safe on that side.
    let covered_attained = || {
        frontier.covered.iter().map(|&id| {
            let a = tree.agg(id);
            match (agg, tree.has_loose_extrema(id)) {
                (AggKind::Min, false) | (AggKind::Max, true) => a.min,
                _ => a.max,
            }
        })
    };
    let no_partial = frontier.partial.is_empty() && frontier.zero_var.is_empty();
    if frontier.covered.is_empty() && no_partial {
        // The exact contribution is still the (empty) covered fold, so its
        // bits — including the `Iterator::sum` seed — match a standalone
        // partial-aggregation pass.
        return match agg {
            AggKind::Sum => (Some((0.0, 0.0)), covered().map(|a| a.sum).sum()),
            AggKind::Count => (Some((0.0, 0.0)), covered().map(|a| a.count as f64).sum()),
            _ => (None, 0.0),
        };
    }
    match agg {
        AggKind::Count => {
            let lb: f64 = covered().map(|a| a.count as f64).sum();
            let ub: f64 = lb + partial().map(|a| a.count as f64).sum::<f64>();
            (Some((lb, ub)), lb)
        }
        AggKind::Sum => {
            let base: f64 = covered().map(|a| a.sum).sum();
            let mut lb = base;
            let mut ub = base;
            for a in partial() {
                // Non-negative partitions contribute [0, SUM_i] exactly as
                // in the paper; mixed-sign partitions widen to the sound
                // envelope.
                if a.min >= 0.0 {
                    ub += a.sum;
                } else if a.max <= 0.0 {
                    lb += a.sum;
                } else {
                    lb += a.count as f64 * a.min.min(0.0);
                    ub += a.count as f64 * a.max.max(0.0);
                }
            }
            (Some((lb, ub)), base)
        }
        AggKind::Avg => {
            let cov_sum: f64 = covered().map(|a| a.sum).sum();
            let cov_count: f64 = covered().map(|a| a.count as f64).sum();
            let partial_max = partial().map(|a| a.max).fold(f64::NEG_INFINITY, f64::max);
            let partial_min = partial().map(|a| a.min).fold(f64::INFINITY, f64::min);
            let bounds = if cov_count > 0.0 {
                let cov_avg = cov_sum / cov_count;
                let ub = if no_partial {
                    cov_avg
                } else {
                    cov_avg.max(partial_max)
                };
                let lb = if no_partial {
                    cov_avg
                } else {
                    cov_avg.min(partial_min)
                };
                Some((lb, ub))
            } else if !no_partial {
                Some((partial_min, partial_max))
            } else {
                None
            };
            (bounds, 0.0)
        }
        AggKind::Min => {
            // True MIN is at most the smallest attained covered minimum,
            // and at least the smallest stored minimum over every
            // partition that may contribute.
            let cov_min = covered().map(|a| a.min).fold(f64::INFINITY, f64::min);
            let all_min = partial().map(|a| a.min).fold(cov_min, f64::min);
            let bounds = if frontier.covered.is_empty() {
                // The query may match nothing; the lower envelope is still
                // sound *if* it matches. Report the widest sound bracket.
                Some((
                    all_min,
                    partial().map(|a| a.max).fold(f64::NEG_INFINITY, f64::max),
                ))
            } else {
                Some((all_min, covered_attained().fold(f64::INFINITY, f64::min)))
            };
            (bounds, 0.0)
        }
        AggKind::Max => {
            let cov_max = covered().map(|a| a.max).fold(f64::NEG_INFINITY, f64::max);
            let all_max = partial().map(|a| a.max).fold(cov_max, f64::max);
            let bounds = if frontier.covered.is_empty() {
                Some((
                    partial().map(|a| a.min).fold(f64::INFINITY, f64::min),
                    all_max,
                ))
            } else {
                Some((
                    covered_attained().fold(f64::NEG_INFINITY, f64::max),
                    all_max,
                ))
            };
            (bounds, 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcf::mcf;
    use pass_common::{Query, Rect};
    use pass_partition::Partitioning1D;
    use pass_table::{SortedTable, Table};

    fn fixture() -> (Table, PartitionTree) {
        let keys: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..80).map(|i| ((i * 13) % 29) as f64 + 1.0).collect();
        let table = Table::one_dim(keys.clone(), values.clone()).unwrap();
        let s = SortedTable::from_sorted(keys, values);
        let p = Partitioning1D::new(80, vec![20, 40, 60]).unwrap();
        (table, PartitionTree::from_partitioning(&s, &p).unwrap())
    }

    #[test]
    fn bounds_always_contain_the_truth() {
        let (table, tree) = fixture();
        for agg in AggKind::ALL {
            for (lo, hi) in [
                (0.0, 79.0),
                (5.0, 33.0),
                (20.0, 59.0),
                (41.0, 44.0),
                (0.0, 19.0),
            ] {
                let q = Query::new(agg, Rect::interval(lo, hi));
                let frontier = mcf(&tree, &q, false);
                let Some((lb, ub)) = hard_bounds_exact(&tree, frontier.frontier(), agg).0 else {
                    continue;
                };
                let truth = table.ground_truth(&q).unwrap();
                assert!(
                    lb - 1e-9 <= truth && truth <= ub + 1e-9,
                    "{agg} [{lo},{hi}]: truth {truth} outside [{lb},{ub}]"
                );
            }
        }
    }

    #[test]
    fn aligned_queries_have_tight_sum_count_bounds() {
        let (table, tree) = fixture();
        let q = Query::interval(AggKind::Sum, 20.0, 59.0);
        let frontier = mcf(&tree, &q, false);
        assert!(frontier.partial.is_empty());
        let (lb, ub) = hard_bounds_exact(&tree, frontier.frontier(), AggKind::Sum)
            .0
            .unwrap();
        let truth = table.ground_truth(&q).unwrap();
        assert_eq!(lb, ub);
        assert!((lb - truth).abs() < 1e-9);
    }

    #[test]
    fn empty_frontier_semantics() {
        let (_, tree) = fixture();
        let q = Query::interval(AggKind::Sum, 900.0, 950.0);
        let frontier = mcf(&tree, &q, false);
        assert_eq!(
            hard_bounds_exact(&tree, frontier.frontier(), AggKind::Sum).0,
            Some((0.0, 0.0))
        );
        assert_eq!(
            hard_bounds_exact(&tree, frontier.frontier(), AggKind::Count).0,
            Some((0.0, 0.0))
        );
        assert_eq!(
            hard_bounds_exact(&tree, frontier.frontier(), AggKind::Avg).0,
            None
        );
        assert_eq!(
            hard_bounds_exact(&tree, frontier.frontier(), AggKind::Min).0,
            None
        );
    }

    #[test]
    fn negative_values_still_bracket_sum() {
        let keys: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..40).map(|i| i as f64 - 20.0).collect(); // mixed sign
        let table = Table::one_dim(keys.clone(), values.clone()).unwrap();
        let s = SortedTable::from_sorted(keys, values);
        let p = Partitioning1D::new(40, vec![10, 20, 30]).unwrap();
        let tree = PartitionTree::from_partitioning(&s, &p).unwrap();
        for (lo, hi) in [(3.0, 27.0), (15.0, 24.0), (0.0, 39.0)] {
            let q = Query::interval(AggKind::Sum, lo, hi);
            let frontier = mcf(&tree, &q, false);
            let (lb, ub) = hard_bounds_exact(&tree, frontier.frontier(), AggKind::Sum)
                .0
                .unwrap();
            let truth = table.ground_truth(&q).unwrap();
            assert!(lb - 1e-9 <= truth && truth <= ub + 1e-9);
        }
    }

    #[test]
    fn avg_bounds_use_partial_extrema() {
        let (table, tree) = fixture();
        // Partially covers leaf 0 only: bounds are that leaf's min/max.
        let q = Query::interval(AggKind::Avg, 3.0, 9.0);
        let frontier = mcf(&tree, &q, false);
        let (lb, ub) = hard_bounds_exact(&tree, frontier.frontier(), AggKind::Avg)
            .0
            .unwrap();
        let truth = table.ground_truth(&q).unwrap();
        assert!(lb <= truth && truth <= ub);
        let leaf0 = tree.agg(tree.leaves()[0]);
        assert_eq!(lb, leaf0.min);
        assert_eq!(ub, leaf0.max);
    }

    #[test]
    fn minmax_bounds_shrink_with_coverage() {
        let (table, tree) = fixture();
        // Fully covered query: MAX bounds pin down between covered max and
        // overall candidate max.
        let q = Query::interval(AggKind::Max, 0.0, 79.0);
        let frontier = mcf(&tree, &q, false);
        let (lb, ub) = hard_bounds_exact(&tree, frontier.frontier(), AggKind::Max)
            .0
            .unwrap();
        let truth = table.ground_truth(&q).unwrap();
        assert_eq!(lb, truth);
        assert_eq!(ub, truth);
    }
}
