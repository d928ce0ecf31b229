//! The Minimal Coverage Frontier algorithm (Algorithm 1, Section 3.2).
//!
//! A depth-first search over the partition tree classifying nodes against
//! the query rectangle:
//!
//! * a node fully inside the query → **covered** (answered exactly from its
//!   aggregates; none of its descendants are visited);
//! * a node disjoint from the query → skipped entirely;
//! * a partially overlapping internal node → recurse into its children;
//! * a partially overlapping **leaf** → estimated from its stratified
//!   sample.
//!
//! The 0-variance rule (Section 3.4) adds one base case for AVG queries:
//! a partially overlapping node whose values are all identical
//! (min == max) contributes its exact value, so it is returned as covered
//! without touching any samples.
//!
//! Workload shift (Section 5.4.1) needs no traversal of its own: the tree
//! is [lifted](PartitionTree::lifted) into the query's space at build
//! time, after which a constraint on an unindexed dimension makes every
//! intersecting node partial and the search below descends to the leaves.

use pass_common::{AggKind, Query, RectRelation};
use pass_sampling::{PointVariance, ScanScratch, StratumEstimate};

use crate::tree::{NodeId, PartitionTree};

/// The coverage frontier of a query.
#[derive(Debug, Clone, Default)]
pub struct McfResult {
    /// Nodes fully covered by the predicate (`R_cover`).
    pub covered: Vec<NodeId>,
    /// Partially covered leaves (`R_partial`).
    pub partial: Vec<NodeId>,
    /// Partially covered nodes admitted by the 0-variance rule: their
    /// constant value makes the AVG *estimate* exact, but — unlike truly
    /// covered nodes — their matching count is unknown, so hard bounds
    /// must treat them like partial nodes (extrema only).
    pub zero_var: Vec<NodeId>,
    /// Nodes visited during the search (the O(γ log B) cost driver).
    pub visited: usize,
}

/// The three node lists of one query's coverage frontier, borrowed — what
/// finishing an estimate reads. A single query lends its whole
/// [`McfResult`]; a batch lends each query's slice of the lists its
/// window shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frontier<'a> {
    pub(crate) covered: &'a [NodeId],
    pub(crate) partial: &'a [NodeId],
    pub(crate) zero_var: &'a [NodeId],
}

impl McfResult {
    /// The whole result as one query's [`Frontier`].
    pub(crate) fn frontier(&self) -> Frontier<'_> {
        Frontier {
            covered: &self.covered,
            partial: &self.partial,
            zero_var: &self.zero_var,
        }
    }

    /// Total population of all returned partitions (`N_q` for AVG weights —
    /// Section 3.3: "the total size in all relevant partitions").
    pub fn relevant_population(&self, tree: &PartitionTree) -> u64 {
        self.covered
            .iter()
            .chain(&self.partial)
            .chain(&self.zero_var)
            .map(|&id| tree.agg(id).count)
            .sum()
    }
}

/// Run MCF for `query` over `tree`. `zero_variance_rule` enables the AVG
/// base case (it is ignored for other aggregates).
pub fn mcf(tree: &PartitionTree, query: &Query, zero_variance_rule: bool) -> McfResult {
    let mut scratch = McfScratch::default();
    scratch.run(tree, query, zero_variance_rule);
    scratch.result
}

/// Reusable MCF working state: the DFS stack, the frontier buffers, the
/// scan-kernel scratch, the stratum-combination buffer, and the batch
/// path's window buffers.
///
/// A query would otherwise allocate (and free) several vectors; `Pass`
/// answers every query on its thread's scratch
/// ([`with_local`](Self::with_local)), so once the buffers have grown a
/// query runs allocation-free — frontier classification, per-leaf sample
/// scans, and stratum combination all reuse them. `run` is the one MCF
/// traversal in the workspace; [`mcf`] wraps it.
#[derive(Debug, Default)]
pub struct McfScratch {
    stack: Vec<NodeId>,
    /// The most recent query's frontier (cleared, not freed, per run).
    /// Inside a batch window: the frontiers of all its queries, end to
    /// end.
    pub result: McfResult,
    /// Scan-kernel buffers for per-leaf sample estimates.
    pub scan: ScanScratch,
    /// Reusable per-stratum estimate buffer (cleared per query).
    pub(crate) strata: Vec<StratumEstimate>,
    pub(crate) batch: BatchScratch,
}

/// What one window of the batch path (`query::process_batch`) keeps
/// beside the shared frontier lists: its queries flattened for the scan,
/// the (query, partial leaf) pairs inverted by stratum, and one scanned
/// point per pair. Cleared and refilled per window, never freed.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Per window query: where its covered / partial / zero-variance ids
    /// end in [`McfScratch::result`]'s three lists (each begins where
    /// the previous query's end).
    pub(crate) ends: Vec<[usize; 3]>,
    /// Per window query: its aggregate, and its rectangle as `dims`
    /// inclusive `(lo, hi)` pairs — the scan reads these, never a `Rect`.
    pub(crate) aggs: Vec<AggKind>,
    pub(crate) bounds: Vec<(f64, f64)>,
    /// Counting sort by stratum: the cursor of each stratum in `order`.
    pub(crate) cursor: Vec<u32>,
    /// Every pair as (index into `result.partial`, window query), grouped
    /// by stratum, a stratum's pairs in query order. A window closes
    /// within one tree's leaves of its pair budget, far inside `u32`.
    pub(crate) order: Vec<(u32, u32)>,
    /// The scanned point of each pair, indexed like `result.partial`.
    pub(crate) slots: Vec<Option<PointVariance>>,
}

impl McfScratch {
    /// Run `f` against this thread's reusable scratch. Every worker of a
    /// parallel batch is its own thread, so each gets a private scratch
    /// for free. Not re-entrant: `f` must not call `with_local` again.
    pub fn with_local<R>(f: impl FnOnce(&mut McfScratch) -> R) -> R {
        use std::cell::RefCell;
        thread_local! {
            static SCRATCH: RefCell<McfScratch> = RefCell::new(McfScratch::default());
        }
        SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }

    /// Classify `query` over `tree` into `self.result`, reusing buffers.
    pub fn run(&mut self, tree: &PartitionTree, query: &Query, zero_variance_rule: bool) {
        self.clear();
        self.classify(tree, query, zero_variance_rule);
    }

    /// Empty the frontier lists (and the visit count), keeping capacity.
    pub(crate) fn clear(&mut self) {
        let result = &mut self.result;
        result.covered.clear();
        result.partial.clear();
        result.zero_var.clear();
        result.visited = 0;
    }

    /// Classify `query` over `tree`, *appending* its frontier to
    /// `self.result` (and its visits to the count): [`run`](Self::run)
    /// clears first, a batch window lays its queries' frontiers end to
    /// end.
    ///
    /// The disjoint test runs before the emptiness check: most visited
    /// nodes are disjoint siblings along the descent, and classifying them
    /// from the interleaved rect pairs alone keeps the (much larger)
    /// aggregate array out of the traversal's cache footprint. An empty
    /// node is skipped whichever test fires first, so the emitted frontier
    /// — including order — is identical to the original empty-check-first
    /// loop. When the tree reports no empty nodes at all (the common case:
    /// leaves are born populated and only deletions can zero a count), the
    /// emptiness check vanishes and the traversal never loads an aggregate.
    pub(crate) fn classify(
        &mut self,
        tree: &PartitionTree,
        query: &Query,
        zero_variance_rule: bool,
    ) {
        let result = &mut self.result;
        let apply_zero_var = zero_variance_rule && query.agg == AggKind::Avg;
        self.stack.clear();
        if tree.dims() == 1 {
            // Interval fast loop: query bounds and the visit counter live
            // in registers, and node bounds come straight off the packed
            // `(lo, hi)` column (node id indexes it directly in 1-D), so a
            // disjoint node costs one 16-byte load and one fused compare —
            // paid when its parent expands, so disjoint children never
            // touch the stack at all. Every child of an expanded node is
            // still counted in `visited` exactly once (at expansion
            // instead of at pop), so the total matches the pop-time
            // formulation node for node, and disjoint nodes emit nothing,
            // so the frontier — including order — is unchanged.
            let (ql, qh) = (query.rect.lo(0), query.rect.hi(0));
            let pairs = tree.rect_pairs();
            let check_empty = tree.has_empty_nodes();
            let mut visited = 1usize; // the root is always examined
            let root = tree.root();
            let (rl, rh) = pairs[root];
            if rl <= qh && ql <= rh {
                self.stack.push(root);
            }
            while let Some(top) = self.stack.pop() {
                // Inner descent: a partial internal node hands its last
                // non-disjoint child straight to the next iteration
                // (exactly the node the LIFO pop would produce) and only
                // its earlier surviving siblings touch the stack.
                let mut id = top;
                let (mut nl, mut nh) = pairs[id];
                loop {
                    // `id` is non-disjoint — tested when pushed/descended.
                    if check_empty && tree.agg(id).is_empty() {
                        break;
                    }
                    if ql <= nl && nh <= qh {
                        result.covered.push(id);
                        break;
                    }
                    if apply_zero_var && tree.agg(id).is_zero_variance() {
                        // 0-variance rule: constant values make AVG exact
                        // even under partial overlap.
                        result.zero_var.push(id);
                        break;
                    }
                    let children = tree.children(id);
                    match children.split_last() {
                        None => {
                            result.partial.push(id);
                            break;
                        }
                        Some((&last, rest)) => {
                            for &sib in rest {
                                visited += 1;
                                let (sl, sh) = pairs[sib];
                                if sl <= qh && ql <= sh {
                                    self.stack.push(sib);
                                }
                            }
                            visited += 1;
                            let (ll, lh) = pairs[last];
                            if ll <= qh && ql <= lh {
                                (id, nl, nh) = (last, ll, lh);
                                continue;
                            }
                            break;
                        }
                    }
                }
            }
            result.visited += visited;
            return;
        }
        let check_empty = tree.has_empty_nodes();
        self.stack.push(tree.root());
        while let Some(id) = self.stack.pop() {
            result.visited += 1;
            match tree.relation_to(id, &query.rect) {
                RectRelation::Disjoint => {}
                relation => {
                    if check_empty && tree.agg(id).is_empty() {
                        continue;
                    }
                    if relation == RectRelation::Covered {
                        result.covered.push(id);
                    } else if apply_zero_var && tree.agg(id).is_zero_variance() {
                        // 0-variance rule: constant values make AVG exact
                        // even under partial overlap.
                        result.zero_var.push(id);
                    } else if tree.is_leaf(id) {
                        result.partial.push(id);
                    } else {
                        self.stack.extend_from_slice(tree.children(id));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::{AggKind, Query};
    use pass_partition::Partitioning1D;
    use pass_table::SortedTable;

    /// 100 rows, keys 0..100, values = key; 4 leaves of 25.
    fn tree() -> PartitionTree {
        let keys: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let values = keys.clone();
        let s = SortedTable::from_sorted(keys, values);
        let p = Partitioning1D::new(100, vec![25, 50, 75]).unwrap();
        PartitionTree::from_partitioning(&s, &p).unwrap()
    }

    #[test]
    fn aligned_query_is_fully_covered() {
        let t = tree();
        // Exactly leaves 1 and 2: keys 25..=74.
        let q = Query::interval(AggKind::Sum, 25.0, 74.0);
        let r = mcf(&t, &q, false);
        assert!(r.partial.is_empty(), "aligned query needs no samples");
        let covered_rows: u64 = r.covered.iter().map(|&id| t.agg(id).count).sum();
        assert_eq!(covered_rows, 50);
    }

    #[test]
    fn whole_space_query_returns_root_only() {
        let t = tree();
        let q = Query::interval(AggKind::Sum, -10.0, 1000.0);
        let r = mcf(&t, &q, false);
        assert_eq!(r.covered, vec![t.root()]);
        assert!(r.partial.is_empty());
        assert_eq!(r.visited, 1, "root covered: nothing else visited");
    }

    #[test]
    fn disjoint_query_returns_nothing() {
        let t = tree();
        let q = Query::interval(AggKind::Sum, 500.0, 600.0);
        let r = mcf(&t, &q, false);
        assert!(r.covered.is_empty());
        assert!(r.partial.is_empty());
    }

    #[test]
    fn straddling_query_mixes_covered_and_partial() {
        let t = tree();
        // 10..=60: partially hits leaf 0 (0..=24), covers leaf 1 (25..=49),
        // partially hits leaf 2 (50..=74).
        let q = Query::interval(AggKind::Sum, 10.0, 60.0);
        let r = mcf(&t, &q, false);
        assert_eq!(r.partial.len(), 2);
        let covered_rows: u64 = r.covered.iter().map(|&id| t.agg(id).count).sum();
        assert_eq!(covered_rows, 25);
        assert_eq!(r.relevant_population(&t), 75);
    }

    #[test]
    fn partial_nodes_are_always_leaves() {
        let t = tree();
        for (lo, hi) in [(10.0, 60.0), (0.0, 37.0), (60.0, 99.0), (24.0, 26.0)] {
            let q = Query::interval(AggKind::Sum, lo, hi);
            let r = mcf(&t, &q, false);
            for &id in &r.partial {
                assert!(t.is_leaf(id), "partial node {id} is internal");
            }
        }
    }

    #[test]
    fn frontier_is_minimal_no_node_is_ancestor_of_another() {
        let t = tree();
        let q = Query::interval(AggKind::Sum, 5.0, 95.0);
        let r = mcf(&t, &q, false);
        let all: Vec<NodeId> = r.covered.iter().chain(&r.partial).copied().collect();
        for &a in &all {
            let mut p = t.parent(a);
            while let Some(id) = p {
                assert!(!all.contains(&id), "{id} is an ancestor of {a}");
                p = t.parent(id);
            }
        }
    }

    #[test]
    fn frontier_partitions_the_relevant_rows() {
        // Sum of covered counts + partial counts must equal the number of
        // rows in partitions the query touches (computed by brute force).
        let t = tree();
        let q = Query::interval(AggKind::Sum, 13.0, 88.0);
        let r = mcf(&t, &q, false);
        // Touched leaves: all four.
        assert_eq!(r.relevant_population(&t), 100);
    }

    #[test]
    fn zero_variance_rule_short_circuits_avg() {
        // Leaf 0 (keys 0..25) constant value; others varying.
        let keys: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..100)
            .map(|i| if i < 25 { 7.0 } else { i as f64 })
            .collect();
        let s = SortedTable::from_sorted(keys, values);
        let p = Partitioning1D::new(100, vec![25, 50, 75]).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        // Query partially overlaps leaf 0 only.
        let q = Query::interval(AggKind::Avg, 5.0, 30.0);
        let with_rule = mcf(&t, &q, true);
        let without_rule = mcf(&t, &q, false);
        assert!(without_rule.partial.len() > with_rule.partial.len());
        // The rule must not fire for SUM: counts still unknown.
        let q_sum = Query::interval(AggKind::Sum, 5.0, 30.0);
        let sum_with_rule = mcf(&t, &q_sum, true);
        assert_eq!(sum_with_rule.partial.len(), without_rule.partial.len());
    }

    #[test]
    fn selective_queries_visit_few_nodes() {
        // A query touching one leaf visits O(log B) nodes, far fewer than
        // the total node count.
        let keys: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let s = SortedTable::from_sorted(keys.clone(), keys);
        let cuts: Vec<usize> = (1..64).map(|i| i * 16).collect();
        let p = Partitioning1D::new(1024, cuts).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        let q = Query::interval(AggKind::Sum, 100.0, 105.0);
        let r = mcf(&t, &q, false);
        assert!(
            r.visited < 20,
            "visited {} of {} nodes",
            r.visited,
            t.n_nodes()
        );
    }

    #[test]
    fn batch_frontiers_match_single_query_mcf() {
        // One scratch reused across a batch — how `Pass` runs every
        // query — emits exactly the frontier a fresh `mcf` would: no
        // state leaks from one query into the next.
        let t = tree();
        let queries: Vec<Query> = [
            (10.0, 60.0),
            (25.0, 74.0),
            (-10.0, 1000.0),
            (500.0, 600.0),
            (0.0, 37.0),
            (24.0, 26.0),
            (60.0, 99.0),
        ]
        .into_iter()
        .flat_map(|(lo, hi)| {
            [
                Query::interval(AggKind::Sum, lo, hi),
                Query::interval(AggKind::Avg, lo, hi),
            ]
        })
        .collect();
        for zero_var in [false, true] {
            let mut scratch = McfScratch::default();
            for q in &queries {
                scratch.run(&t, q, zero_var);
                let single = mcf(&t, q, zero_var);
                assert_eq!(scratch.result.covered, single.covered, "{q:?}");
                assert_eq!(scratch.result.partial, single.partial, "{q:?}");
                assert_eq!(scratch.result.zero_var, single.zero_var, "{q:?}");
                assert_eq!(scratch.result.visited, single.visited, "{q:?}");
            }
        }
    }

    #[test]
    fn batch_zero_variance_rule_applies_per_query() {
        // Mixed-aggregate batch on one scratch over a tree with one
        // constant leaf: the AVG query takes the 0-variance shortcut, the
        // SUM query after it must not inherit it.
        let keys: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..100)
            .map(|i| if i < 25 { 7.0 } else { i as f64 })
            .collect();
        let s = SortedTable::from_sorted(keys, values);
        let p = Partitioning1D::new(100, vec![25, 50, 75]).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        let mut scratch = McfScratch::default();
        scratch.run(&t, &Query::interval(AggKind::Avg, 5.0, 30.0), true);
        let avg_partial = scratch.result.partial.len();
        assert!(!scratch.result.zero_var.is_empty());
        scratch.run(&t, &Query::interval(AggKind::Sum, 5.0, 30.0), true);
        assert!(scratch.result.zero_var.is_empty());
        assert!(scratch.result.partial.len() > avg_partial);
    }

    #[test]
    fn empty_batch_is_fine() {
        use pass_common::{PassSpec, Synopsis};
        // The batch path borrows the thread's scratch and runs nothing.
        let pass = crate::Pass::from_spec(
            &pass_table::datasets::uniform(1_000, 1),
            &PassSpec {
                partitions: 4,
                ..PassSpec::default()
            },
        )
        .unwrap();
        assert!(pass.estimate_many(&[]).is_empty());
    }

    #[test]
    fn multi_dim_classification() {
        use pass_partition::{build_kd, KdExpansion};
        let table = pass_table::datasets::taxi(500, 11)
            .project(&[1, 2])
            .unwrap();
        let kd = build_kd(&table, 16, KdExpansion::BreadthFirst, 0).unwrap();
        let t = PartitionTree::from_kd(&table, &kd).unwrap();
        let rect = table.bounding_rect().unwrap();
        // Whole space: root covered.
        let q = Query::new(AggKind::Sum, rect.clone());
        let r = mcf(&t, &q, false);
        assert_eq!(r.covered, vec![t.root()]);
        // Left half in dim 0: a mix, but every returned covered node's rect
        // must be inside the query and every partial must intersect it.
        let mid = (rect.lo(0) + rect.hi(0)) / 2.0;
        let q = Query::new(AggKind::Sum, rect.narrowed(0, rect.lo(0), mid));
        let r = mcf(&t, &q, false);
        for &id in &r.covered {
            assert!(q.rect.contains_rect(&t.rect(id)));
        }
        for &id in &r.partial {
            assert!(q.rect.intersects(&t.rect(id)));
        }
    }
}
