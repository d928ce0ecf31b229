//! Query processing (Section 3.3): index lookup → partial aggregation →
//! sample estimation → combined result with CI and hard bounds.

use pass_common::{AggKind, Estimate, PassError, Query, Result};
use pass_sampling::{combine_strata, PointVariance, SampleArena, ScanScratch, StratumEstimate};

use crate::bounds::hard_bounds_exact;
use crate::mcf::{McfResult, McfScratch};
use crate::tree::PartitionTree;

/// Answer `query` over the annotated tree and the flat arena of its
/// per-leaf stratified samples, on the caller's `scratch`. `lambda` scales
/// the confidence interval; `zero_variance_rule` enables the Section 3.4
/// AVG short-circuit.
pub(crate) fn process_arena(
    scratch: &mut McfScratch,
    tree: &PartitionTree,
    arena: &SampleArena,
    query: &Query,
    lambda: f64,
    zero_variance_rule: bool,
) -> Result<Estimate> {
    if query.dims() != tree.dims() {
        return Err(PassError::DimensionMismatch {
            expected: tree.dims(),
            got: query.dims(),
        });
    }
    scratch.run(tree, query, zero_variance_rule);
    let (frontier, scan, strata) = scratch.parts();
    process_frontier(tree, arena, query, lambda, frontier, scan, strata)
}

/// Finish one query from its (pre-computed) coverage frontier: partial
/// aggregation, sample estimation, hard bounds, accounting. Sample scans
/// run on the `scan` kernel scratch and per-stratum estimates accumulate
/// into the reusable `strata` buffer, so a warmed-up scratch finishes the
/// whole query without touching the allocator. The covered SUM/COUNT fold
/// is shared with the bounds computation ([`hard_bounds_exact`]) and the
/// sample accounting rides the per-aggregate partial-leaf loop, so each
/// frontier list is walked once.
#[allow(clippy::too_many_arguments)]
fn process_frontier(
    tree: &PartitionTree,
    arena: &SampleArena,
    query: &Query,
    lambda: f64,
    frontier: &McfResult,
    scan: &mut ScanScratch,
    strata: &mut Vec<StratumEstimate>,
) -> Result<Estimate> {
    let (bounds, exact_part) = hard_bounds_exact(tree, frontier, query.agg);

    // Sample accounting, accumulated by the partial-leaf scan loops:
    // every partial leaf's whole sample is scanned.
    let mut processed = 0u64;

    let mut est = match query.agg {
        AggKind::Sum | AggKind::Count => process_sum_count(
            tree,
            arena,
            query,
            lambda,
            frontier,
            exact_part,
            scan,
            strata,
            &mut processed,
        )?,
        AggKind::Avg => process_avg(
            tree,
            arena,
            query,
            lambda,
            frontier,
            &bounds,
            scan,
            strata,
            &mut processed,
        )?,
        AggKind::Min | AggKind::Max => {
            process_minmax(tree, arena, query, frontier, &bounds, scan, &mut processed)?
        }
    };
    let skipped = tree.total_rows().saturating_sub(processed);
    est = est.with_accounting(processed, skipped);
    if let Some((lb, ub)) = bounds {
        est = est.with_hard_bounds(lb, ub);
    }
    Ok(est)
}

/// The sample stratum of a partial frontier node (or of the leaf an
/// update landed in). MCF only ever emits leaves as partial; a frontier
/// that lists an internal node is refused rather than answered from the
/// wrong stratum.
#[inline]
pub(crate) fn stratum_of(tree: &PartitionTree, id: usize) -> Result<usize> {
    tree.leaf_index(id).ok_or_else(|| {
        PassError::InvalidParameter("frontier", format!("partial node {id} is not a leaf"))
    })
}

#[allow(clippy::too_many_arguments)]
fn process_sum_count(
    tree: &PartitionTree,
    arena: &SampleArena,
    query: &Query,
    lambda: f64,
    frontier: &McfResult,
    // Partial Aggregation: exact contribution of covered partitions,
    // folded once inside `hard_bounds_exact` (same addends, same order).
    exact_part: f64,
    scan: &mut ScanScratch,
    strata: &mut Vec<StratumEstimate>,
    processed: &mut u64,
) -> Result<Estimate> {
    // Sample Estimation over partial leaves (w_i = 1 for SUM/COUNT).
    strata.clear();
    for &id in &frontier.partial {
        let view = arena.view(stratum_of(tree, id)?);
        *processed += view.k() as u64;
        if let Some(point) = scan.estimate_view(query.agg, &view, &query.rect) {
            strata.push(StratumEstimate {
                point,
                // Sample populations track leaf counts (an invariant the
                // update path maintains and tests), so the view already
                // carries `tree.agg(id).count`.
                population: view.population,
            });
        }
    }
    let combined = combine_strata(query.agg, strata, 0);

    let value = exact_part + combined.value;
    let ci_half = lambda * combined.variance.sqrt();
    Ok(if frontier.partial.is_empty() {
        Estimate::exact(value)
    } else {
        Estimate::approximate(value, ci_half)
    })
}

#[allow(clippy::too_many_arguments)]
fn process_avg(
    tree: &PartitionTree,
    arena: &SampleArena,
    query: &Query,
    lambda: f64,
    frontier: &McfResult,
    bounds: &Option<(f64, f64)>,
    scan: &mut ScanScratch,
    strata: &mut Vec<StratumEstimate>,
    processed: &mut u64,
) -> Result<Estimate> {
    // Relevant strata: covered partitions plus partial leaves with sample
    // evidence. N_q is their total size (Section 3.3's weighting).
    strata.clear();
    // Covered nodes contribute exactly; 0-variance nodes contribute their
    // constant value exactly too (Section 3.4's rule), weighted by their
    // full population per the paper's prescription.
    for &id in frontier.covered.iter().chain(&frontier.zero_var) {
        let agg = tree.agg(id);
        if let Some(avg) = agg.avg() {
            strata.push(StratumEstimate {
                point: PointVariance {
                    value: avg,
                    variance: 0.0,
                    k_pred: agg.count,
                },
                population: agg.count,
            });
        }
    }
    let mut n_q: u64 = strata.iter().map(|s| s.population).sum();
    for &id in &frontier.partial {
        let view = arena.view(stratum_of(tree, id)?);
        *processed += view.k() as u64;
        if let Some(point) = scan.estimate_view(AggKind::Avg, &view, &query.rect) {
            // Weight partial strata by their *estimated relevant*
            // population N_i · K_pred/K_i rather than the full N_i: only a
            // fraction of a partially-covered stratum contributes to the
            // average, and the sample selectivity is its unbiased
            // estimate. (With full-N_i weights a barely-touched stratum
            // would swamp fully-covered ones. The view's population is
            // N_i: sample populations track leaf counts.)
            let n_i = view.population as f64;
            let selectivity = point.k_pred as f64 / view.k().max(1) as f64;
            let population = ((n_i * selectivity).round() as u64).max(1);
            n_q += population;
            strata.push(StratumEstimate { point, population });
        }
    }

    if strata.is_empty() {
        // No covered partition and no sampled evidence. Fall back to the
        // deterministic bracket when one exists; otherwise the selection is
        // provably empty.
        return match bounds {
            Some((lb, ub)) => {
                Ok(Estimate::approximate((lb + ub) / 2.0, (ub - lb) / 2.0)
                    .with_hard_bounds(*lb, *ub))
            }
            None => Err(PassError::EmptyInput("AVG over empty selection")),
        };
    }

    let combined = combine_strata(AggKind::Avg, strata, n_q);
    let ci_half = lambda * combined.variance.sqrt();
    // 0-variance contributions are exact in value but approximate in
    // weight, so only a frontier with neither partial nor zero-var nodes
    // is fully exact.
    if frontier.partial.is_empty() && frontier.zero_var.is_empty() {
        Ok(Estimate::exact(combined.value))
    } else {
        Ok(Estimate::approximate(combined.value, ci_half))
    }
}

fn process_minmax(
    tree: &PartitionTree,
    arena: &SampleArena,
    query: &Query,
    frontier: &McfResult,
    bounds: &Option<(f64, f64)>,
    scan: &mut ScanScratch,
    processed: &mut u64,
) -> Result<Estimate> {
    let mut best: Option<f64> = None;
    let mut fold = |v: f64| {
        best = Some(match (best, query.agg) {
            (None, _) => v,
            (Some(b), AggKind::Min) => b.min(v),
            (Some(b), _) => b.max(v),
        });
    };
    for &id in &frontier.covered {
        let agg = tree.agg(id);
        if !agg.is_empty() {
            fold(match query.agg {
                AggKind::Min => agg.min,
                _ => agg.max,
            });
        }
    }
    for &id in &frontier.partial {
        let view = arena.view(stratum_of(tree, id)?);
        *processed += view.k() as u64;
        if let Some(point) = scan.estimate_view(query.agg, &view, &query.rect) {
            fold(point.value);
        }
    }
    // A covered node whose stored extremum a deletion touched answers
    // with a bound, not with an attained value.
    let loose = || {
        frontier
            .covered
            .iter()
            .any(|&id| tree.has_loose_extrema(id))
    };
    match best {
        Some(value) => {
            if frontier.partial.is_empty() && !loose() {
                Ok(Estimate::exact(value))
            } else {
                Ok(Estimate::approximate(value, 0.0))
            }
        }
        None => {
            match bounds {
                Some((lb, ub)) => Ok(Estimate::approximate((lb + ub) / 2.0, (ub - lb) / 2.0)
                    .with_hard_bounds(*lb, *ub)),
                None => Err(PassError::EmptyInput("MIN/MAX over empty selection")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::rng_from_seed;
    use pass_common::{Query, LAMBDA_99};
    use pass_partition::Partitioning1D;
    use pass_sampling::Sample;
    use pass_table::{SortedTable, Table};

    /// `process_arena` over per-leaf samples on a fresh scratch.
    fn process(
        tree: &PartitionTree,
        leaf_samples: &[Sample],
        query: &Query,
        lambda: f64,
        zero_variance_rule: bool,
    ) -> Result<Estimate> {
        process_arena(
            &mut McfScratch::default(),
            tree,
            &SampleArena::from_samples(leaf_samples),
            query,
            lambda,
            zero_variance_rule,
        )
    }

    /// Fixture: 400 rows, keys 0..400, values with per-leaf structure;
    /// 8 leaves of 50; full per-leaf samples (so estimates are exact up to
    /// FPC) or partial samples depending on `rate`.
    fn fixture(rate: f64, seed: u64) -> (Table, PartitionTree, Vec<Sample>) {
        let n = 400;
        let keys: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..n).map(|i| ((i * 7) % 50) as f64 + 1.0).collect();
        let table = Table::one_dim(keys.clone(), values.clone()).unwrap();
        let s = SortedTable::from_sorted(keys, values);
        let cuts: Vec<usize> = (1..8).map(|i| i * 50).collect();
        let p = Partitioning1D::new(n, cuts).unwrap();
        let tree = PartitionTree::from_partitioning(&s, &p).unwrap();
        let mut rng = rng_from_seed(seed);
        let samples: Vec<Sample> = p
            .ranges()
            .into_iter()
            .map(|r| {
                let k = ((r.len() as f64) * rate).ceil() as usize;
                Sample::uniform_from_range(&table, r, k.max(1), &mut rng).unwrap()
            })
            .collect();
        (table, tree, samples)
    }

    #[test]
    fn aligned_queries_are_exact_for_all_aggregates() {
        let (table, tree, samples) = fixture(0.1, 1);
        for agg in AggKind::ALL {
            // Keys 50..=149 align with leaves 1 and 2 exactly.
            let q = Query::interval(agg, 50.0, 149.0);
            let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
            let truth = table.ground_truth(&q).unwrap();
            assert!(est.exact, "{agg} should be exact");
            assert!((est.value - truth).abs() < 1e-9, "{agg}");
            assert_eq!(est.ci_half, 0.0);
        }
    }

    #[test]
    fn partial_queries_estimate_within_ci_mostly() {
        // 99% CI over many seeds: coverage must be high.
        let mut covered = 0;
        let trials = 100;
        for seed in 0..trials {
            let (table, tree, samples) = fixture(0.2, 100 + seed);
            let q = Query::interval(AggKind::Sum, 30.0, 270.0);
            let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
            let truth = table.ground_truth(&q).unwrap();
            if (est.value - truth).abs() <= est.ci_half {
                covered += 1;
            }
        }
        assert!(covered >= 90, "coverage {covered}/{trials}");
    }

    #[test]
    fn hard_bounds_contain_truth_for_every_query_shape() {
        let (table, tree, samples) = fixture(0.1, 3);
        for agg in AggKind::ALL {
            for (lo, hi) in [(0.0, 399.0), (13.0, 77.0), (49.0, 51.0), (350.0, 360.0)] {
                let q = Query::new(agg, pass_common::Rect::interval(lo, hi));
                let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
                let truth = table.ground_truth(&q).unwrap();
                let (lb, ub) = est.hard_bounds.expect("bounds exist for nonempty query");
                assert!(
                    lb - 1e-9 <= truth && truth <= ub + 1e-9,
                    "{agg} [{lo},{hi}]: truth {truth} outside [{lb},{ub}]"
                );
            }
        }
    }

    #[test]
    fn accounting_reflects_skipping() {
        let (_, tree, samples) = fixture(0.1, 4);
        // Aligned query: no samples processed, everything skipped.
        let q = Query::interval(AggKind::Sum, 50.0, 149.0);
        let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
        assert_eq!(est.tuples_processed, 0);
        assert_eq!(est.tuples_skipped, 400);
        assert_eq!(est.skip_rate(), 1.0);
        // Straddling query: two partial leaves' samples processed.
        let q = Query::interval(AggKind::Sum, 30.0, 270.0);
        let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
        let expected: u64 = samples[0].k() as u64 + samples[5].k() as u64;
        assert_eq!(est.tuples_processed, expected);
        assert!(est.skip_rate() > 0.9);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (_, tree, samples) = fixture(0.1, 5);
        let q = Query::new(
            AggKind::Sum,
            pass_common::Rect::new(&[(0.0, 1.0), (0.0, 1.0)]),
        );
        assert!(matches!(
            process(&tree, &samples, &q, LAMBDA_99, true),
            Err(PassError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn internal_node_in_the_partial_frontier_is_a_typed_error() {
        let (_, tree, samples) = fixture(0.1, 5);
        let arena = SampleArena::from_samples(&samples);
        assert!(!tree.is_leaf(tree.root()));
        let frontier = McfResult {
            partial: vec![tree.root()],
            ..McfResult::default()
        };
        for agg in AggKind::ALL {
            let got = process_frontier(
                &tree,
                &arena,
                &Query::interval(agg, 30.0, 270.0),
                LAMBDA_99,
                &frontier,
                &mut ScanScratch::new(),
                &mut Vec::new(),
            );
            assert!(
                matches!(got, Err(PassError::InvalidParameter("frontier", _))),
                "{agg}: {got:?}"
            );
        }
    }

    #[test]
    fn empty_selection_semantics() {
        let (_, tree, samples) = fixture(0.1, 6);
        let q = Query::interval(AggKind::Sum, 1000.0, 2000.0);
        let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
        assert_eq!(est.value, 0.0);
        assert!(est.exact);
        let q = Query::interval(AggKind::Avg, 1000.0, 2000.0);
        assert!(process(&tree, &samples, &q, LAMBDA_99, true).is_err());
    }

    #[test]
    fn zero_variance_rule_makes_constant_region_avg_exact() {
        // Leaf 0 constant: an AVG query inside it is answered exactly even
        // though the overlap is partial.
        let n = 100;
        let keys: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..n)
            .map(|i| if i < 25 { 4.0 } else { (i % 13) as f64 })
            .collect();
        let table = Table::one_dim(keys.clone(), values.clone()).unwrap();
        let s = SortedTable::from_sorted(keys, values);
        let p = Partitioning1D::new(n, vec![25, 50, 75]).unwrap();
        let tree = PartitionTree::from_partitioning(&s, &p).unwrap();
        let mut rng = rng_from_seed(7);
        let samples: Vec<Sample> = p
            .ranges()
            .into_iter()
            .map(|r| Sample::uniform_from_range(&table, r, 3, &mut rng).unwrap())
            .collect();
        let q = Query::interval(AggKind::Avg, 5.0, 20.0);
        let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
        // The value is exactly the constant, no samples were touched, and
        // the CI collapses — but the estimate is not flagged `exact`
        // because the matching count (hence AVG weighting against other
        // strata) is unknown under partial overlap.
        assert_eq!(est.value, 4.0);
        assert_eq!(est.ci_half, 0.0);
        assert_eq!(est.tuples_processed, 0);
        // Hard bounds degrade gracefully to the node's (constant) extrema.
        assert_eq!(est.hard_bounds, Some((4.0, 4.0)));
        // Without the rule the same query scans the leaf's sample.
        let est = process(&tree, &samples, &q, LAMBDA_99, false).unwrap();
        assert!(est.tuples_processed > 0);
    }

    #[test]
    fn estimates_are_reasonably_accurate() {
        let (table, tree, samples) = fixture(0.3, 8);
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = Query::interval(agg, 20.0, 333.0);
            let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
            let truth = table.ground_truth(&q).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.15, "{agg}: rel error {rel}");
        }
    }

    #[test]
    fn minmax_point_estimates_bounded_by_hard_bounds() {
        let (_, tree, samples) = fixture(0.2, 9);
        for agg in [AggKind::Min, AggKind::Max] {
            let q = Query::interval(agg, 33.0, 222.0);
            let est = process(&tree, &samples, &q, LAMBDA_99, true).unwrap();
            let (lb, ub) = est.hard_bounds.unwrap();
            assert!(lb <= est.value && est.value <= ub);
        }
    }
}
