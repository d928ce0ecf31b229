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
//! A multi-dimensional tree is searched once for a whole window of
//! queries (`McfScratch::walk`). On a 1-D tree the same frontier, in the
//! same order, comes from walking two boundary paths instead of searching
//! ([`McfScratch::run`]): a binary tree whose sibling intervals are in key
//! order can only be cut by the query's two endpoints, and every node off
//! their root-to-leaf paths is either covered or disjoint.
//!
//! Workload shift (Section 5.4.1) needs no traversal of its own: the tree
//! is [lifted](PartitionTree::lifted) into the query's space at build
//! time, after which a constraint on an unindexed dimension makes every
//! intersecting node partial and the search below descends to the leaves.

use pass_common::{AggKind, Query};
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

/// Reusable MCF working state: the 1-D descent's pending covered nodes,
/// the frontier buffers, the scan-kernel scratch, the stratum-combination
/// buffer, and the lockstep walk's window buffers.
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
    /// After a window's walk: the frontiers of all its queries, end to
    /// end.
    pub result: McfResult,
    /// Scan-kernel buffers for per-leaf sample estimates.
    pub scan: ScanScratch,
    /// Reusable per-stratum estimate buffer (cleared per query).
    pub(crate) strata: Vec<StratumEstimate>,
    pub(crate) batch: BatchScratch,
}

/// What one window of the lockstep walk ([`McfScratch::walk`]) keeps
/// beside the shared frontier lists. Cleared and refilled per window,
/// never freed.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Per window query: where its covered / partial / zero-variance ids
    /// end in [`McfScratch::result`]'s three lists (each begins where
    /// the previous query's end).
    pub(crate) ends: Vec<[usize; 3]>,
    /// Per window query: its aggregate, and its rectangle as `dims`
    /// inclusive `(lo, hi)` pairs, then one empty box (`lo = +∞`,
    /// `hi = −∞`) for the scan's spare lanes.
    pub(crate) aggs: Vec<AggKind>,
    pub(crate) bounds: Vec<(f64, f64)>,
    /// The walk's query lists, and the nodes it has still to visit, each
    /// with its list's range in `active`.
    active: Vec<u32>,
    pending: Vec<(NodeId, u32, u32)>,
    /// Every (window query, node) the walk emitted as covered, partial
    /// or zero-variance, in walk order: a partial leaf's queries are one
    /// run, in query order. Then where each partial pair was scattered
    /// to in `result.partial`, and the scanned point of each entry there.
    pub(crate) walked: [Vec<(u32, NodeId)>; 3],
    pub(crate) placed: Vec<u32>,
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

    /// Classify `query` over `tree` into `self.result`, reusing buffers:
    /// a 1-D tree by the two-path descent (`descend_1d`), any other by the
    /// lockstep walk (`walk`) of a window of one.
    pub fn run(&mut self, tree: &PartitionTree, query: &Query, zero_variance_rule: bool) {
        if tree.dims() > 1 {
            return self.walk(tree, std::slice::from_ref(query), zero_variance_rule);
        }
        self.clear();
        let apply_zero_var = zero_variance_rule && query.agg == AggKind::Avg;
        let (ql, qh) = (query.rect.lo(0), query.rect.hi(0));
        self.descend_1d(tree, ql, qh, apply_zero_var);
    }

    /// Empty the frontier lists (and the visit count), keeping capacity.
    fn clear(&mut self) {
        let result = &mut self.result;
        result.covered.clear();
        result.partial.clear();
        result.zero_var.clear();
        result.visited = 0;
    }

    /// Classify a window of queries over a multi-dimensional `tree` in one
    /// depth-first walk, and lay each query's frontier end to end in
    /// `self.result` (a query of the wrong arity gets an empty one). Each
    /// node is visited once for all the queries that reach it, children
    /// right to left, and sorts them, branch-free and in query order, into
    /// disjoint, covered, zero-variance (AVG only) and the rest: partial
    /// at a leaf, handed on at an internal node. For one query that is its
    /// own search, so a stable scatter by query gives each its search's
    /// lists, and `result.visited` sums the searches' visit counts.
    pub(crate) fn walk(&mut self, tree: &PartitionTree, queries: &[Query], zero_var: bool) {
        self.clear();
        let (dims, result, b) = (tree.dims(), &mut self.result, &mut self.batch);
        b.aggs.clear();
        b.bounds.clear();
        b.active.clear();
        let empty = (f64::INFINITY, f64::NEG_INFINITY);
        for (q, query) in queries.iter().enumerate() {
            b.aggs.push(query.agg);
            if query.dims() == dims {
                b.bounds
                    .extend((0..dims).map(|d| (query.rect.lo(d), query.rect.hi(d))));
                b.active.push(q as u32);
            }
            b.bounds.resize((q + 1) * dims, empty);
        }
        b.bounds.resize((queries.len() + 1) * dims, empty);
        b.walked.iter_mut().for_each(Vec::clear);
        result.visited = b.active.len();
        b.pending.clear();
        b.pending.push((tree.root(), 0, b.active.len() as u32));
        let check_empty = tree.has_empty_nodes();
        let mut lens = [0; 3];
        while let Some((id, from, to)) = b.pending.pop() {
            if check_empty && tree.agg(id).is_empty() {
                continue;
            }
            // Every list grows to hold every query this node could add.
            let (from, to) = (from as usize, to as usize);
            for (list, len) in b.walked.iter_mut().zip(lens) {
                list.resize(list.len().max(len + to - from), (0, 0));
            }
            b.active.resize(b.active.len().max(to + to - from), 0);
            let zero_var_node = zero_var && tree.agg(id).is_zero_variance();
            let leaf = tree.is_leaf(id);
            // A query is written at the end of each list it may join, and
            // the end moves past it only if it joins.
            let (reach, handed) = b.active.split_at_mut(to);
            let [covered, partial, zero] = b.walked.each_mut().map(Vec::as_mut_slice);
            let ([nc, np, nz], mut nh) = (&mut lens, 0);
            for &q in &reach[from..] {
                let query = &b.bounds[q as usize * dims..];
                let (meets, inside) = tree.relation(id, query);
                let cut = meets & !inside;
                let zero_var = cut & zero_var_node & (b.aggs[q as usize] == AggKind::Avg);
                covered[*nc] = (q, id);
                *nc += usize::from(meets & inside);
                // Branches on the node go the same way for every query.
                if zero_var_node {
                    zero[*nz] = (q, id);
                    *nz += usize::from(zero_var);
                }
                if leaf {
                    partial[*np] = (q, id);
                    *np += usize::from(cut & !zero_var);
                } else {
                    handed[nh] = q;
                    nh += usize::from(cut & !zero_var);
                }
            }
            if nh > 0 {
                let children = tree.children(id);
                result.visited += children.len() * nh;
                let range = |c| (c, to as u32, (to + nh) as u32);
                b.pending.extend(children.iter().map(|&c| range(c)));
            }
        }
        for (list, len) in b.walked.iter_mut().zip(lens) {
            list.truncate(len);
        }
        self.scatter(queries.len());
    }

    /// Lay the walked pairs out by query into `self.result` — a counting
    /// sort, so each query keeps its walk order — with each query's ends
    /// and where each partial pair went.
    fn scatter(&mut self, n_queries: usize) {
        let (result, b) = (&mut self.result, &mut self.batch);
        b.ends.clear();
        b.ends.resize(n_queries, [0; 3]);
        for (c, list) in b.walked.iter().enumerate() {
            for &(q, _) in list {
                b.ends[q as usize][c] += 1;
            }
        }
        // Each query's starts; placing its nodes moves them to its ends.
        let mut total = [0; 3];
        for (i, at) in b.ends.iter_mut().flatten().enumerate() {
            (*at, total[i % 3]) = (total[i % 3], total[i % 3] + *at);
        }
        b.placed.clear();
        let McfResult {
            covered,
            partial,
            zero_var,
            ..
        } = result;
        for (c, (out, list)) in [covered, partial, zero_var]
            .into_iter()
            .zip(&b.walked)
            .enumerate()
        {
            out.resize(list.len(), 0);
            for &(q, id) in list {
                let at = &mut b.ends[q as usize][c];
                out[*at] = id;
                b.placed.extend((c == 1).then_some(*at as u32));
                *at += 1;
            }
        }
    }

    /// The 1-D frontier of `[ql, qh]` as two boundary paths instead of a
    /// search (docs/ARCHITECTURE.md, "MCF traversal", has the argument).
    ///
    /// A 1-D tree is binary, and sibling boxes are in key order — the
    /// left child's box ends where the right child's begins or before —
    /// inside their parent's box. So the frontier is:
    ///
    /// 1. the **shared path** from the root while at most one child meets
    ///    the query, both bounds cutting;
    /// 2. at the first node where both children meet it, the **right
    ///    boundary path** under the right child, where only `qh` can cut:
    ///    a step whose right child meets the query has a covered left
    ///    child, and these are emitted bottom-up once the path ends;
    /// 3. then the **left boundary path** under the left child, where only
    ///    `ql` can cut: a step whose left child meets the query has a
    ///    covered right child, emitted top-down as it is met.
    ///
    /// That is the order, and the visit count, of the depth-first search,
    /// which visits a node's right child before its left: the covered,
    /// partial and zero-variance lists come out identical, node for node.
    /// Each node the path reaches passes the search's checks in the
    /// search's order — empty, covered, zero-variance, leaf — and an
    /// expanded node counts its two children as visited.
    fn descend_1d(&mut self, tree: &PartitionTree, ql: f64, qh: f64, apply_zero_var: bool) {
        let Self { stack, result, .. } = self;
        let pairs = tree.rect_pairs();
        let meets = |id: NodeId| {
            let (lo, hi) = pairs[id];
            lo <= qh && ql <= hi
        };
        let walk = Walk1d {
            tree,
            check_empty: tree.has_empty_nodes(),
            apply_zero_var,
        };

        result.visited += 1;
        let root = tree.root();
        if !meets(root) {
            return;
        }
        let mut id = root;
        let (left, right) = loop {
            let (lo, hi) = pairs[id];
            let Some((left, right)) = walk.settle(id, ql <= lo && hi <= qh, result) else {
                return;
            };
            id = match (meets(left), meets(right)) {
                (true, true) => break (left, right),
                (true, false) => left,
                (false, true) => right,
                (false, false) => return,
            };
        };

        // Under `right` every box starts at or after `left`'s end, which
        // the query reaches: a node meets the query iff it starts by `qh`
        // and is covered iff it ends by `qh`.
        stack.clear();
        let mut id = right;
        while let Some((l, r)) = walk.settle(id, pairs[id].1 <= qh, result) {
            id = if pairs[r].0 <= qh {
                stack.push(l);
                r
            } else if pairs[l].0 <= qh {
                l
            } else {
                break;
            };
        }
        for &covered in stack.iter().rev() {
            walk.settle(covered, true, result);
        }

        // Under `left` every box ends by `right`'s start, which the query
        // reaches: a node meets the query iff it ends at or after `ql` and
        // is covered iff it starts there.
        let mut id = left;
        while let Some((l, r)) = walk.settle(id, ql <= pairs[id].0, result) {
            id = if ql <= pairs[l].1 {
                walk.settle(r, true, result);
                l
            } else if ql <= pairs[r].1 {
                r
            } else {
                break;
            };
        }
    }
}

/// What the 1-D descent consults at each node it reaches: the tree, and
/// whether this query runs the search's two optional checks.
struct Walk1d<'t> {
    tree: &'t PartitionTree,
    check_empty: bool,
    apply_zero_var: bool,
}

impl Walk1d<'_> {
    /// The search's checks at node `id`, already known to meet the query
    /// (`covered` says whether it lies inside it): an empty node is
    /// skipped, a covered, zero-variance or leaf node emitted, and `None`
    /// ends the path; an internal node yields its (left, right) children,
    /// both counted as visited. Always inlined: as a closure it was
    /// called, not inlined, at its four call sites, which cost `adhoc_1d`
    /// about 7 % of its throughput (2-vCPU Xeon, one pinned core).
    #[inline(always)]
    fn settle(
        &self,
        id: NodeId,
        covered: bool,
        result: &mut McfResult,
    ) -> Option<(NodeId, NodeId)> {
        let tree = self.tree;
        if self.check_empty && tree.agg(id).is_empty() {
            return None;
        }
        if covered {
            result.covered.push(id);
            return None;
        }
        if self.apply_zero_var && tree.agg(id).is_zero_variance() {
            // 0-variance rule: constant values make AVG exact even under
            // partial overlap.
            result.zero_var.push(id);
            return None;
        }
        // invariant: a 1-D internal node has exactly two children
        // (`from_partitioning` pairs nodes, a 1-D k-d split has two sides,
        // and the snapshot decoder refuses any other shape).
        let children = tree.children(id);
        debug_assert!(children.len() != 1 && children.len() <= 2);
        match (children.first(), children.last()) {
            (Some(&left), Some(&right)) => {
                result.visited += 2;
                Some((left, right))
            }
            _ => {
                result.partial.push(id);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::derive_seed;
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

    /// The 1-D search the two-path descent replaced, kept as the
    /// reference it is held to: a push-filtered depth-first search that
    /// tests each child when its parent expands, counts it visited there,
    /// and takes a node's children right to left.
    fn dfs_1d(tree: &PartitionTree, query: &Query, zero_variance_rule: bool) -> McfResult {
        let mut result = McfResult::default();
        let mut stack = Vec::new();
        let apply_zero_var = zero_variance_rule && query.agg == AggKind::Avg;
        let (ql, qh) = (query.rect.lo(0), query.rect.hi(0));
        let pairs = tree.rect_pairs();
        let check_empty = tree.has_empty_nodes();
        let mut visited = 1usize; // the root is always examined
        let root = tree.root();
        let (rl, rh) = pairs[root];
        if rl <= qh && ql <= rh {
            stack.push(root);
        }
        while let Some(top) = stack.pop() {
            // A partial internal node hands its last non-disjoint child
            // straight to the next iteration and only its earlier
            // surviving siblings touch the stack.
            let mut id = top;
            let (mut nl, mut nh) = pairs[id];
            loop {
                if check_empty && tree.agg(id).is_empty() {
                    break;
                }
                if ql <= nl && nh <= qh {
                    result.covered.push(id);
                    break;
                }
                if apply_zero_var && tree.agg(id).is_zero_variance() {
                    result.zero_var.push(id);
                    break;
                }
                match tree.children(id).split_last() {
                    None => {
                        result.partial.push(id);
                        break;
                    }
                    Some((&last, rest)) => {
                        for &sib in rest {
                            visited += 1;
                            let (sl, sh) = pairs[sib];
                            if sl <= qh && ql <= sh {
                                stack.push(sib);
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
        result.visited = visited;
        result
    }

    /// Every internal node of a 1-D tree has two children whose boxes are
    /// in key order — the left one ends where the right one starts or
    /// before — and whose hull is their parent's box.
    fn assert_siblings_ordered(t: &PartitionTree, ctx: &str) {
        for id in 0..t.n_nodes() {
            let (lo, hi) = t.rect_pairs()[id];
            match *t.children(id) {
                [] => {}
                [l, r] => {
                    let (ll, lh) = t.rect_pairs()[l];
                    let (rl, rh) = t.rect_pairs()[r];
                    assert!(lh <= rl, "{ctx}: node {id}: [{ll}, {lh}] then [{rl}, {rh}]");
                    assert_eq!((ll, rh), (lo, hi), "{ctx}: node {id}");
                }
                ref other => panic!("{ctx}: node {id} has children {other:?}"),
            }
        }
    }

    /// A deterministic unit-interval stream: `derive_seed` over a counter.
    fn unit(state: &mut u64) -> f64 {
        *state += 1;
        (derive_seed(0x27, *state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Queries whose bounds come from the tree as it is now: node box
    /// endpoints (cut keys, shared by touching siblings), points on them,
    /// points and intervals in the gaps between sibling boxes, everything
    /// up to or from a box's end, the whole line, intervals beyond either
    /// end, and random spans — each asked as AVG (the zero-variance rule)
    /// and SUM.
    fn probe_queries(t: &PartitionTree, state: &mut u64) -> Vec<Query> {
        let pairs = t.rect_pairs();
        let (root_lo, root_hi) = pairs[t.root()];
        let (lo_end, hi_end) = (root_lo.max(-1e6), root_hi.min(1e6));
        let span = hi_end - lo_end;
        let node = |state: &mut u64| pairs[(unit(state) * pairs.len() as f64) as usize];
        // The key range between a node's two children.
        let gap = |state: &mut u64| {
            let id = (unit(state) * t.n_nodes() as f64) as usize;
            match *t.children(id) {
                [l, r] => (pairs[l].1, pairs[r].0),
                _ => node(state),
            }
        };
        let mut out = Vec::new();
        for i in 0..144 {
            let (lo, hi) = match i % 12 {
                0 => (f64::NEG_INFINITY, f64::INFINITY),
                1 => (root_hi + 1.0, root_hi + 2.0 + unit(state)),
                2 => (f64::NEG_INFINITY, root_lo - unit(state) - 1.0),
                3 => {
                    let key = node(state).0;
                    (key, key)
                }
                4 => {
                    let (a, b) = gap(state);
                    ((a + b) / 2.0, (a + b) / 2.0)
                }
                5 => gap(state),
                6 => (node(state).1, node(state).0),
                7 => (node(state).0, node(state).1),
                8 => (f64::NEG_INFINITY, node(state).1),
                9 => (node(state).0, f64::INFINITY),
                _ => {
                    let a = lo_end + (1.2 * unit(state) - 0.1) * span;
                    (a, a + unit(state) * unit(state) * span)
                }
            };
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            out.push(Query::interval(AggKind::Avg, lo, hi));
            out.push(Query::interval(AggKind::Sum, lo, hi));
        }
        out
    }

    /// What the differential runs saw, so a run that never reached a case
    /// fails rather than passing vacuously.
    #[derive(Default)]
    struct Seen {
        zero_var: usize,
        zero_var_internal: usize,
        covered_runs: usize,
        partial_pairs: usize,
        empty_trees: usize,
        point_hits: usize,
    }

    /// Hold the descent to the search on `queries`, with and without the
    /// zero-variance rule: the three lists, in order, and the visit count.
    fn assert_descent_matches_dfs(
        t: &PartitionTree,
        queries: &[Query],
        seen: &mut Seen,
        ctx: &str,
    ) {
        let mut scratch = McfScratch::default();
        for q in queries {
            for zero_var in [false, true] {
                scratch.run(t, q, zero_var);
                let (got, want) = (&scratch.result, dfs_1d(t, q, zero_var));
                let what = format!("{ctx}: {q:?} zero_var={zero_var}");
                assert_eq!(got.covered, want.covered, "covered, {what}");
                assert_eq!(got.partial, want.partial, "partial, {what}");
                assert_eq!(got.zero_var, want.zero_var, "zero_var, {what}");
                assert_eq!(got.visited, want.visited, "visited, {what}");
                seen.zero_var += usize::from(!got.zero_var.is_empty());
                let internal = got.zero_var.iter().any(|&id| !t.is_leaf(id));
                seen.zero_var_internal += usize::from(internal);
                seen.covered_runs += usize::from(got.covered.len() >= 3);
                seen.partial_pairs += usize::from(got.partial.len() == 2);
                let point = q.rect.lo(0) == q.rect.hi(0);
                seen.point_hits += usize::from(point && !got.partial.is_empty());
            }
        }
        seen.empty_trees += usize::from(t.has_empty_nodes());
    }

    /// 3 000 rows keyed `0..1 000` and `1 400..1 900` — every key twice,
    /// so equal keys straddle equal-depth cuts and sibling boxes touch,
    /// and a gap — except that rows `600..750` share key 300. Cut into 48
    /// equal-depth leaves (a cut every 62.5 rows), that is two leaves
    /// holding key 300 alone, the leaf before them ending on it, and the
    /// gap `301..375` after them. The values of keys `600..800` are all 5,
    /// so zero-variance leaves and internal nodes exist.
    fn differential_table() -> pass_table::Table {
        let key = |i: usize| match (i / 2) as f64 {
            k if (300.0..375.0).contains(&k) => 300.0,
            k if k < 1_000.0 => k,
            k => k + 400.0,
        };
        let constant = |k: f64| (600.0..800.0).contains(&k);
        let mut state = 0xd1ff;
        let (mut keys, mut values) = (Vec::new(), Vec::new());
        for i in 0..3_000 {
            let k = key(i);
            keys.push(k);
            values.push(if constant(k) {
                5.0
            } else {
                100.0 * unit(&mut state)
            });
        }
        pass_table::Table::one_dim(keys, values).unwrap()
    }

    /// `t` encoded and decoded back: the snapshot decoder must accept
    /// every tree a build and updates leave.
    fn reloaded(t: &PartitionTree) -> PartitionTree {
        use pass_common::snapshot::{Codec, Cursor};
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        let mut c = Cursor::new(&bytes, "tree");
        let loaded = PartitionTree::decode(&mut c).unwrap();
        c.done().unwrap();
        loaded
    }

    #[test]
    fn descent_matches_the_search_on_built_and_updated_trees() {
        use pass_common::{PartitionStrategy, PassSpec};
        let table = differential_table();
        let strategies = [
            ("ADP(SUM)", PartitionStrategy::Adp(AggKind::Sum), None),
            ("ADP(AVG)", PartitionStrategy::Adp(AggKind::Avg), None),
            ("EqualDepth", PartitionStrategy::EqualDepth, None),
            ("HillClimb", PartitionStrategy::HillClimb, None),
            (
                "1-D k-d",
                PartitionStrategy::Adp(AggKind::Sum),
                Some(vec![0]),
            ),
        ];
        let mut seen = Seen::default();
        let mut touching = 0;
        for (name, strategy, tree_dims) in strategies {
            let spec = PassSpec {
                partitions: 48,
                sample_rate: 0.05,
                strategy,
                tree_dims,
                seed: 27,
                ..PassSpec::default()
            };
            let mut pass = crate::Pass::from_spec(&table, &spec).unwrap();
            let mut state = 0x27;
            assert_siblings_ordered(&pass.tree, name);
            let queries = probe_queries(&pass.tree, &mut state);
            assert_descent_matches_dfs(&pass.tree, &queries, &mut seen, name);
            touching += (0..pass.tree.n_nodes())
                .filter(|&id| match *pass.tree.children(id) {
                    [l, r] => pass.tree.rect_pairs()[l].1 == pass.tree.rect_pairs()[r].0,
                    _ => false,
                })
                .count();
            if matches!(strategy, PartitionStrategy::EqualDepth) {
                // A leaf holding key 300 alone, after one ending on it and
                // before a gap: an insert in the gap after 300 is as near
                // to both.
                let leaves = pass.tree.leaves_in_key_order();
                let bounds = |id: NodeId| pass.tree.rect_pairs()[id];
                assert!(
                    leaves.windows(3).any(|w| {
                        bounds(w[0]).1 == 300.0
                            && bounds(w[1]) == (300.0, 300.0)
                            && bounds(w[2]).0 > 300.0
                    }),
                    "{name}: no single-key leaf between one ending on its key and a gap"
                );
            }

            // 25 000 inserts and deletes in phases — mixed, draining, then
            // refilling — so leaves empty out and fill again. Inserts land
            // in the gap, on cut keys, just past a box's end, beyond
            // either end of the data and at random; the zero-variance band
            // keeps its constant value. Every 1 000 ops the tree goes
            // through the snapshot codec, and the decoded tree is checked.
            let mut live: Vec<(f64, f64)> = (0..table.n_rows())
                .map(|r| (table.predicate(0, r), table.value(r)))
                .collect();
            for op in 0..25_000 {
                let insert = match op / 2_500 % 3 {
                    0 => unit(&mut state) < 0.5,
                    1 => unit(&mut state) < 0.1,
                    _ => unit(&mut state) < 0.9,
                };
                if insert || live.is_empty() {
                    let pairs = pass.tree.rect_pairs();
                    let box_of =
                        |state: &mut u64| pairs[(unit(state) * pairs.len() as f64) as usize];
                    let key = match op % 6 {
                        0 => 1_000.0 + 400.0 * unit(&mut state),
                        1 => box_of(&mut state).0,
                        2 => box_of(&mut state).1 + 0.5 * unit(&mut state),
                        3 => 1_900.0 + 50.0 * unit(&mut state),
                        4 => -50.0 * unit(&mut state),
                        _ => (1_900.0 * unit(&mut state)).floor(),
                    };
                    let value = match (600.0..800.0).contains(&key) {
                        true => 5.0,
                        false => 100.0 * unit(&mut state),
                    };
                    pass.insert(&[key], value).unwrap();
                    live.push((key, value));
                } else {
                    // Draining deletes the row nearest a target that moves
                    // every 100 ops, so whole leaves empty out.
                    let target = 1_900.0 * unit(&mut (op as u64 / 100));
                    let pick = match op / 2_500 % 3 {
                        1 => (0..live.len())
                            .min_by(|&a, &b| {
                                let d = |i: usize| (live[i].0 - target).abs();
                                d(a).total_cmp(&d(b))
                            })
                            .unwrap(),
                        _ => (unit(&mut state) * live.len() as f64) as usize,
                    };
                    let (key, value) = live[pick];
                    // A row whose key is shared with a lower leaf is
                    // routed there; once that leaf is empty, the delete
                    // is refused and the row stays live.
                    if pass.delete(&[key], value).is_ok() {
                        live.swap_remove(pick);
                    }
                }
                if op % 1_000 == 999 {
                    let ctx = format!("{name} after {} ops", op + 1);
                    assert_siblings_ordered(&pass.tree, &ctx);
                    let loaded = reloaded(&pass.tree);
                    assert_eq!(loaded.rect_pairs(), pass.tree.rect_pairs(), "{ctx}");
                    let queries = probe_queries(&loaded, &mut state);
                    assert_descent_matches_dfs(&loaded, &queries, &mut seen, &ctx);
                }
            }
        }
        let Seen {
            zero_var,
            zero_var_internal,
            covered_runs,
            partial_pairs,
            empty_trees,
            point_hits,
        } = seen;
        assert!(touching > 10, "touching siblings: {touching}");
        assert!(zero_var > 100, "zero-variance frontiers: {zero_var}");
        assert!(zero_var_internal > 10, "internal ones: {zero_var_internal}");
        assert!(
            covered_runs > 1_000,
            "three or more covered: {covered_runs}"
        );
        assert!(partial_pairs > 1_000, "two partial leaves: {partial_pairs}");
        assert!(empty_trees > 10, "checks with an empty node: {empty_trees}");
        assert!(point_hits > 100, "point queries in a leaf: {point_hits}");
    }

    /// The d-dimensional search the lockstep walk replaced, kept as the
    /// reference it is held to: a depth-first search that counts a node
    /// visited when it pops it, skips it if disjoint or empty, and
    /// otherwise emits it or pushes its children, left to right.
    fn dfs_kd(tree: &PartitionTree, query: &Query, zero_variance_rule: bool) -> McfResult {
        use pass_common::RectRelation;
        let mut result = McfResult::default();
        let apply_zero_var = zero_variance_rule && query.agg == AggKind::Avg;
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            result.visited += 1;
            let relation = tree.rect(id).relation_to(&query.rect);
            if relation == RectRelation::Disjoint || tree.agg(id).is_empty() {
                continue;
            }
            if relation == RectRelation::Covered {
                result.covered.push(id);
            } else if apply_zero_var && tree.agg(id).is_zero_variance() {
                result.zero_var.push(id);
            } else if tree.is_leaf(id) {
                result.partial.push(id);
            } else {
                stack.extend_from_slice(tree.children(id));
            }
        }
        result
    }

    /// 4 000 rows over the unit cube, the values of every row with
    /// `x0 < 0.55` all 5, so zero-variance leaves and internal nodes
    /// exist.
    fn cube_table() -> pass_table::Table {
        let mut state = 0x3d;
        let predicates: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..4_000).map(|_| unit(&mut state)).collect())
            .collect();
        let values = (0..4_000)
            .map(|r| match predicates[0][r] < 0.55 {
                true => 5.0,
                false => 100.0 * unit(&mut state),
            })
            .collect();
        let names = ["v", "x", "y", "z"].map(String::from).to_vec();
        pass_table::Table::new(values, predicates, names).unwrap()
    }

    /// Boxes over `t`'s space: the whole space, beyond the data, node
    /// boxes (covered), node corners (points), one-dimension slabs and
    /// random boxes, under every aggregate in turn; every seventh query
    /// has the wrong arity.
    fn probe_boxes(t: &PartitionTree, state: &mut u64) -> Vec<Query> {
        use pass_common::Rect;
        let dims = t.dims();
        let node = |state: &mut u64| t.rect((unit(state) * t.n_nodes() as f64) as usize);
        (0..84)
            .map(|i| {
                let agg = AggKind::ALL[i % 5];
                let rect = match i % 7 {
                    0 => return Query::interval(agg, 0.2, 0.4),
                    1 => Rect::new(&vec![(f64::NEG_INFINITY, f64::INFINITY); dims]),
                    2 => Rect::new(&vec![(2.0, 3.0); dims]),
                    3 => node(state),
                    4 => {
                        let corner: Vec<_> = (0..dims).map(|d| node(state).lo(d)).collect();
                        Rect::new(&corner.iter().map(|&x| (x, x)).collect::<Vec<_>>())
                    }
                    5 => {
                        let mut slab = vec![(f64::NEG_INFINITY, f64::INFINITY); dims];
                        let a = unit(state);
                        slab[i % dims] = (a, a + 0.3 * unit(state));
                        Rect::new(&slab)
                    }
                    _ => Rect::new(
                        &(0..dims)
                            .map(|_| {
                                let a = 1.2 * unit(state) - 0.1;
                                (a, a + unit(state) * unit(state))
                            })
                            .collect::<Vec<_>>(),
                    ),
                };
                Query::new(agg, rect)
            })
            .collect()
    }

    /// Hold the walk to the search on `queries` in windows of every
    /// width, with and without the zero-variance rule: each query's three
    /// lists in order, an empty frontier for a query of the wrong arity,
    /// and the window's summed visit count.
    fn assert_walk_matches_dfs(t: &PartitionTree, queries: &[Query], seen: &mut Seen, ctx: &str) {
        let mut scratch = McfScratch::default();
        for zero_var in [false, true] {
            for width in 1..=queries.len() {
                for window in queries.chunks(width) {
                    match window {
                        [query] => scratch.run(t, query, zero_var),
                        _ => scratch.walk(t, window, zero_var),
                    }
                    let (mut from, mut visited) = ([0; 3], 0);
                    for (j, q) in window.iter().enumerate() {
                        let to = scratch.batch.ends[j];
                        let want = match q.dims() == t.dims() {
                            true => dfs_kd(t, q, zero_var),
                            false => McfResult::default(),
                        };
                        let got = &scratch.result;
                        let what = format!("{ctx}: {q:?} zero_var={zero_var} width={width}");
                        assert_eq!(got.covered[from[0]..to[0]], want.covered, "covered, {what}");
                        assert_eq!(got.partial[from[1]..to[1]], want.partial, "partial, {what}");
                        assert_eq!(
                            got.zero_var[from[2]..to[2]],
                            want.zero_var,
                            "zero_var, {what}"
                        );
                        seen.zero_var += usize::from(!want.zero_var.is_empty());
                        let internal = want.zero_var.iter().any(|&id| !t.is_leaf(id));
                        seen.zero_var_internal += usize::from(internal);
                        seen.covered_runs += usize::from(want.covered.len() >= 3);
                        seen.partial_pairs += usize::from(want.partial.len() >= 2);
                        (from, visited) = (to, visited + want.visited);
                    }
                    assert_eq!(
                        scratch.result.visited, visited,
                        "visited, {ctx} width={width}"
                    );
                }
            }
        }
        seen.empty_trees += usize::from(t.has_empty_nodes());
    }

    #[test]
    fn the_walk_matches_the_search_on_kd_lifted_and_emptied_trees() {
        use pass_common::PassSpec;
        let table = cube_table();
        let mut seen = Seen::default();
        for (name, tree_dims) in [("k-d", None), ("lifted", Some(vec![0, 2]))] {
            let spec = PassSpec {
                partitions: 128,
                sample_rate: 0.05,
                tree_dims,
                seed: 31,
                ..PassSpec::default()
            };
            let mut pass = crate::Pass::from_spec(&table, &spec).unwrap();
            let mut state = 0x31;
            let queries = probe_boxes(&pass.tree, &mut state);
            assert_walk_matches_dfs(&pass.tree, &queries, &mut seen, name);
            // Deleting every row with `x2 < 0.3` empties the leaves that
            // hold only such rows; the walk then meets empty nodes.
            for r in (0..table.n_rows()).filter(|&r| table.predicate(2, r) < 0.3) {
                let point: Vec<f64> = (0..3).map(|d| table.predicate(d, r)).collect();
                let _ = pass.delete(&point, table.value(r));
            }
            assert!(pass.tree.has_empty_nodes(), "{name}: no leaf emptied");
            let queries = probe_boxes(&pass.tree, &mut state);
            assert_walk_matches_dfs(&pass.tree, &queries, &mut seen, &format!("{name}, emptied"));
        }
        let Seen {
            zero_var,
            zero_var_internal,
            covered_runs,
            partial_pairs,
            empty_trees,
            ..
        } = seen;
        assert!(zero_var > 100, "zero-variance frontiers: {zero_var}");
        assert!(zero_var_internal > 10, "internal ones: {zero_var_internal}");
        assert!(covered_runs > 100, "three or more covered: {covered_runs}");
        assert!(
            partial_pairs > 100,
            "two or more partial leaves: {partial_pairs}"
        );
        assert_eq!(empty_trees, 2, "checks with an empty node");
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
