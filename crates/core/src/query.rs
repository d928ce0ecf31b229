//! Query processing (Section 3.3): index lookup → partial aggregation →
//! sample estimation → combined result with CI and hard bounds.
//!
//! A 1-D query walks its two boundary paths, scans each partial leaf as
//! it meets it, and combines ([`process_arena`]). Over a
//! multi-dimensional tree, queries go a window at a time
//! ([`process_batch`]; a single query is a window of one): one lockstep
//! walk classifies the whole window, each partial leaf's sample is
//! scanned once for the run of queries that share it — four at a time
//! through the lockstep group kernel — and every query is then finished
//! through the same code, reading each partial leaf's point from the
//! slot the scan left it in.

use pass_common::{check_dims, AggKind, Estimate, PassError, Query, Result};
use pass_sampling::{
    combine_strata, kernel::GROUP, PointVariance, SampleArena, SampleView, StratumEstimate,
};

use crate::bounds::hard_bounds_exact;
use crate::mcf::{BatchScratch, Frontier, McfScratch};
use crate::tree::PartitionTree;

/// The most queries one window walks. On 256-query 3-D batches over 256
/// leaves (71 partial leaves a query), windows of 16 / 32 / 64 / 128 /
/// 256 queries answered 73 k / 78 k / 82 k / 83 k / 80–83 k queries a
/// second: the wider the window, the more queries share each leaf scan
/// and the fuller its groups of four, until (from about a hundred
/// queries on) nothing more is gained.
const WINDOW: usize = 256;

/// A window holds at most this many (query, leaf) pairs' worth of
/// queries — `PAIR_BUDGET / leaves` of them, at least one — so a tree
/// with thousands of leaves cannot balloon the per-pair buffers. Over
/// 256 leaves that is 128 queries, which measured as fast as 256.
const PAIR_BUDGET: usize = 1 << 15;

/// Answer `query` over the annotated tree and the flat arena of its
/// per-leaf stratified samples, on the caller's `scratch`.
/// `zero_variance_rule` enables the Section 3.4 AVG short-circuit.
pub(crate) fn process_arena(
    scratch: &mut McfScratch,
    tree: &PartitionTree,
    arena: &SampleArena,
    query: &Query,
    zero_variance_rule: bool,
) -> Result<Estimate> {
    // A query of the wrong arity is refused before anything is classified.
    check_dims(tree.dims(), query.dims())?;
    if tree.dims() > 1 {
        let window = std::slice::from_ref(query);
        scan_window(scratch, tree, arena, window, zero_variance_rule);
        return finish(scratch, tree, arena, window, 0);
    }
    scratch.run(tree, query, zero_variance_rule);
    let McfScratch {
        result,
        scan,
        strata,
        ..
    } = scratch;
    let scan_now = |_, view: &SampleView<'_>| scan.estimate_view(query.agg, view, &query.rect);
    process_frontier(tree, arena, query, result.frontier(), scan_now, strata)
}

/// Answer a batch over a multi-dimensional arena, element-wise
/// bit-identical to [`process_arena`] per query: window by window, walk
/// and scan ([`scan_window`]), then finish each query in its own
/// frontier order from the scanned slots. Every buffer but the answers
/// lives in `scratch`.
pub(crate) fn process_batch(
    scratch: &mut McfScratch,
    tree: &PartitionTree,
    arena: &SampleArena,
    queries: &[Query],
    zero_variance_rule: bool,
) -> Vec<Result<Estimate>> {
    // alloc: the batch's answers — all a warmed-up batch allocates.
    let mut out = Vec::with_capacity(queries.len());
    let width = (PAIR_BUDGET / tree.n_leaves().max(1)).clamp(1, WINDOW);
    for window in queries.chunks(width) {
        scan_window(scratch, tree, arena, window, zero_variance_rule);
        out.extend((0..window.len()).map(|j| finish(scratch, tree, arena, window, j)));
    }
    out
}

/// Walk `window` ([`McfScratch::walk`]) and scan each partial leaf once
/// for the run of queries that share it, [`GROUP`] per pass, leaving each
/// query's point in its slot. A short group's spare lanes ask for the
/// empty box, so a window of one makes the single-query kernel call.
fn scan_window(
    scratch: &mut McfScratch,
    tree: &PartitionTree,
    arena: &SampleArena,
    window: &[Query],
    zero_variance_rule: bool,
) {
    scratch.walk(tree, window, zero_variance_rule);
    let McfScratch {
        result,
        scan,
        batch,
        ..
    } = scratch;
    let BatchScratch {
        aggs,
        bounds,
        walked,
        placed,
        slots,
        ..
    } = batch;
    let (dims, empty) = (tree.dims(), window.len());
    slots.clear();
    slots.resize(result.partial.len(), None);
    let mut placed = placed.iter();
    // MCF emits only leaves as partial; one without a stratum gets no
    // scan, and `stratum_of` refuses its query when it is finished.
    for run in walked[1].chunk_by(|a, b| a.1 == b.1) {
        let Some(stratum) = tree.leaf_index(run[0].1) else {
            placed.nth(run.len() - 1);
            continue;
        };
        let view = arena.view(stratum);
        for group in run.chunks(GROUP) {
            let query = |lane: usize| group.get(lane).map_or(empty, |&(q, _)| q as usize);
            let points = scan.estimate_group(
                &view,
                std::array::from_fn(|lane| aggs[group[lane.min(group.len() - 1)].0 as usize]),
                std::array::from_fn(|lane| &bounds[query(lane) * dims..][..dims]),
            );
            for (&at, point) in placed.by_ref().zip(points).take(group.len()) {
                slots[at as usize] = point;
            }
        }
    }
}

/// Finish the `j`-th query of the window [`scan_window`] just scanned.
fn finish(
    scratch: &mut McfScratch,
    tree: &PartitionTree,
    arena: &SampleArena,
    window: &[Query],
    j: usize,
) -> Result<Estimate> {
    let McfScratch {
        result,
        strata,
        batch,
        ..
    } = scratch;
    let query = &window[j];
    check_dims(tree.dims(), query.dims())?;
    let from = j.checked_sub(1).map_or([0; 3], |i| batch.ends[i]);
    let to = batch.ends[j];
    let frontier = Frontier {
        covered: &result.covered[from[0]..to[0]],
        partial: &result.partial[from[1]..to[1]],
        zero_var: &result.zero_var[from[2]..to[2]],
    };
    let slots = &batch.slots[from[1]..to[1]];
    let scanned = |i: usize, _: &SampleView<'_>| slots[i];
    process_frontier(tree, arena, query, frontier, scanned, strata)
}

/// Finish one query from its (pre-computed) coverage frontier: partial
/// aggregation, sample estimation, hard bounds, accounting.
/// `point(j, view)` yields the estimate of the frontier's `j`-th partial
/// leaf, whose sample is `view` — scanned there and then for a single
/// query, read from the slot the batch scan filled otherwise — and
/// per-stratum estimates accumulate into the reusable `strata` buffer, so
/// a warmed-up scratch finishes the whole query without touching the
/// allocator. The covered SUM/COUNT fold is shared with the bounds
/// computation ([`hard_bounds_exact`]) and the sample accounting rides
/// the partial-leaf loop, so each frontier list is walked once.
///
/// Every aggregate is one [`combine_strata`] over its strata, answered by
/// [`PointVariance::evaluate`]; what this function decides is which
/// strata enter and when the answer is `exact`.
fn process_frontier(
    tree: &PartitionTree,
    arena: &SampleArena,
    query: &Query,
    frontier: Frontier<'_>,
    mut point: impl FnMut(usize, &SampleView<'_>) -> Option<PointVariance>,
    strata: &mut Vec<StratumEstimate>,
) -> Result<Estimate> {
    let agg = query.agg;
    // Partial Aggregation: SUM/COUNT's exact contribution of covered
    // partitions is folded once inside `hard_bounds_exact` (same addends,
    // same order). AVG's and MIN/MAX's enter as zero-variance strata,
    // weighted by their full population.
    let (bounds, exact_part) = hard_bounds_exact(tree, frontier, agg);
    strata.clear();
    // `N_q`, the relevant strata's total size (Section 3.3's weighting).
    let mut n_q = 0u64;
    match agg {
        // 0-variance nodes contribute their constant value exactly too
        // (Section 3.4's rule).
        AggKind::Avg => {
            for &id in frontier.covered.iter().chain(frontier.zero_var) {
                let node = tree.agg(id);
                if let Some(avg) = node.avg() {
                    n_q += node.count;
                    strata.push(StratumEstimate::exact(avg, node.count));
                }
            }
        }
        AggKind::Min | AggKind::Max => {
            for &id in frontier.covered {
                let node = tree.agg(id);
                if !node.is_empty() {
                    let extremum = if agg == AggKind::Min {
                        node.min
                    } else {
                        node.max
                    };
                    strata.push(StratumEstimate::exact(extremum, node.count));
                }
            }
        }
        AggKind::Sum | AggKind::Count => {}
    }
    // Sample Estimation over partial leaves, every one of whose samples is
    // scanned. The view's population is the leaf's count `N_i` (an
    // invariant the update path maintains and tests); AVG weighs a leaf
    // by its estimated relevant population instead.
    let mut processed = 0u64;
    for (j, &id) in frontier.partial.iter().enumerate() {
        let view = arena.view(stratum_of(tree, id)?);
        processed += view.k() as u64;
        if let Some(point) = point(j, &view) {
            let stratum = match agg {
                AggKind::Avg => StratumEstimate::relevant(point, view.population, view.k()),
                _ => StratumEstimate {
                    point,
                    population: view.population,
                },
            };
            n_q += stratum.population;
            strata.push(stratum);
        }
    }

    // Only a frontier without partial leaves is exact — for AVG also
    // without 0-variance nodes (exact in value, approximate in weight),
    // and for MIN/MAX without a covered node whose stored extremum a
    // deletion touched (a bound, not an attained value).
    let exact = frontier.partial.is_empty()
        && match agg {
            AggKind::Sum | AggKind::Count => true,
            AggKind::Avg => frontier.zero_var.is_empty(),
            AggKind::Min | AggKind::Max => !frontier
                .covered
                .iter()
                .any(|&id| tree.has_loose_extrema(id)),
        };
    let mut est = if strata.is_empty() && !matches!(agg, AggKind::Sum | AggKind::Count) {
        // No covered partition and no sampled evidence: the midpoint of
        // the deterministic bracket when one exists, otherwise the
        // selection is provably empty.
        let Some((lb, ub)) = bounds else {
            return Err(PassError::EmptyInput(match agg {
                AggKind::Avg => "AVG over empty selection",
                _ => "MIN/MAX over empty selection",
            }));
        };
        Estimate::approximate((lb + ub) / 2.0, (ub - lb) / 2.0)
    } else {
        let sampled = combine_strata(agg, strata, n_q);
        let value = match agg {
            AggKind::Sum | AggKind::Count => exact_part + sampled.value,
            _ => sampled.value,
        };
        if exact {
            Estimate::exact(value)
        } else {
            PointVariance { value, ..sampled }.evaluate(agg)
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

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::rng_from_seed;
    use pass_common::Query;
    use pass_partition::Partitioning1D;
    use pass_sampling::{Sample, ScanScratch};
    use pass_table::{SortedTable, Table};

    use crate::mcf::McfResult;

    /// `process_arena` over per-leaf samples on a fresh scratch.
    fn process(
        tree: &PartitionTree,
        leaf_samples: &[Sample],
        query: &Query,
        zero_variance_rule: bool,
    ) -> Result<Estimate> {
        process_arena(
            &mut McfScratch::default(),
            tree,
            &SampleArena::from_samples(leaf_samples),
            query,
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
            let est = process(&tree, &samples, &q, true).unwrap();
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
            let est = process(&tree, &samples, &q, true).unwrap();
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
                let est = process(&tree, &samples, &q, true).unwrap();
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
        let est = process(&tree, &samples, &q, true).unwrap();
        assert_eq!(est.tuples_processed, 0);
        assert_eq!(est.tuples_skipped, 400);
        assert_eq!(est.skip_rate(), 1.0);
        // Straddling query: two partial leaves' samples processed.
        let q = Query::interval(AggKind::Sum, 30.0, 270.0);
        let est = process(&tree, &samples, &q, true).unwrap();
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
            process(&tree, &samples, &q, true),
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
        let mut scan = ScanScratch::new();
        for agg in AggKind::ALL {
            let query = Query::interval(agg, 30.0, 270.0);
            let got = process_frontier(
                &tree,
                &arena,
                &query,
                frontier.frontier(),
                |_, view: &SampleView<'_>| scan.estimate_view(agg, view, &query.rect),
                &mut Vec::new(),
            );
            assert!(
                matches!(got, Err(PassError::InvalidParameter("frontier", _))),
                "{agg}: {got:?}"
            );
        }
    }

    #[test]
    fn a_window_is_sized_by_the_leaf_count_and_the_batch_still_matches_singles() {
        use pass_common::{PassSpec, Rect};
        // 600 leaves over dimension 0 of a 2-D table, lifted: a query
        // that constrains dimension 1 can cover no leaf, so every leaf it
        // meets is partial, and a window takes 32 768 / 600 = 54 queries.
        let table = pass_table::datasets::taxi(12_000, 3)
            .project(&[1, 2])
            .unwrap();
        let spec = PassSpec {
            partitions: 600,
            sample_rate: 0.01,
            tree_dims: Some(vec![0]),
            ..PassSpec::default()
        };
        let pass = crate::Pass::from_spec(&table, &spec).unwrap();
        let full = table.bounding_rect().unwrap();
        let span = full.hi(1) - full.lo(1);
        let queries: Vec<Query> = (0..300)
            .map(|i| {
                let lo = full.lo(1) + span * (i % 9) as f64 / 10.0;
                let rect = Rect::new(&[(full.lo(0), full.hi(0)), (lo, lo + span / 7.0)]);
                Query::new(AggKind::ALL[i % 5], rect)
            })
            .collect();
        let leaves = pass.tree.n_leaves();
        assert_eq!(leaves, 600);
        let width = (PAIR_BUDGET / leaves).clamp(1, WINDOW);
        assert_eq!(width, 54);
        let scratch = &mut McfScratch::default();
        scan_window(scratch, &pass.tree, &pass.arena, &queries[..width], true);
        let pairs = scratch.result.partial.len() + scratch.result.zero_var.len();
        assert_eq!(pairs, width * leaves);
        assert!(pairs <= PAIR_BUDGET);
        let batch = process_batch(scratch, &pass.tree, &pass.arena, &queries, true);
        assert_eq!(batch.len(), queries.len());
        for (q, batched) in queries.iter().zip(batch) {
            let single = process_arena(scratch, &pass.tree, &pass.arena, q, true);
            assert_eq!(batched, single, "{q:?}");
        }
    }

    #[test]
    fn empty_selection_semantics() {
        let (_, tree, samples) = fixture(0.1, 6);
        let q = Query::interval(AggKind::Sum, 1000.0, 2000.0);
        let est = process(&tree, &samples, &q, true).unwrap();
        assert_eq!(est.value, 0.0);
        assert!(est.exact);
        let q = Query::interval(AggKind::Avg, 1000.0, 2000.0);
        assert!(process(&tree, &samples, &q, true).is_err());
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
        let est = process(&tree, &samples, &q, true).unwrap();
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
        let est = process(&tree, &samples, &q, false).unwrap();
        assert!(est.tuples_processed > 0);
    }

    #[test]
    fn estimates_are_reasonably_accurate() {
        let (table, tree, samples) = fixture(0.3, 8);
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = Query::interval(agg, 20.0, 333.0);
            let est = process(&tree, &samples, &q, true).unwrap();
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
            let est = process(&tree, &samples, &q, true).unwrap();
            let (lb, ub) = est.hard_bounds.unwrap();
            assert!(lb <= est.value && est.value <= ub);
        }
    }
}
