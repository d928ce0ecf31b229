//! The partition tree: nodes annotated with exact aggregates (Section 3.2).
//!
//! Invariants (Definition 3.1): every child's row set is contained in its
//! parent's, siblings are disjoint, and siblings union to their parent.
//! Each node stores the exact SUM/COUNT/MIN/MAX ([`Aggregates`]) of its
//! partition plus a rectangle ψ — here the *tight bounding box* of the
//! partition's predicate points, which keeps MCF classification sound and
//! as sharp as possible.
//!
//! # Layout
//!
//! The tree is a struct-of-arrays arena, not a node-of-pointers graph: node
//! `id` owns `aggs[id]`, the packed rectangle bounds
//! `rect[id*dims + d] = (lo, hi)`, and the CSR-style child range
//! `child_flat[start..][..count]` described by the packed
//! `child_span[id] = (start, count)`. An MCF traversal therefore walks a
//! handful of contiguous slices instead of chasing a heap `Vec<NodeId>`
//! per node; packing a node's `(lo, hi)` into one tuple makes the 1-D
//! interval test a single aligned 16-byte load (two separate bounds
//! columns cost a miss each, two interleaved `f64`s two bounds checks),
//! and the packed span makes the leaf test plus child lookup a single
//! 8-byte load.
//! `relation` classifies a node against a query in one fused pass over
//! its coordinates. The tree's *shape* is fixed at build time:
//! `insert`/`delete` change aggregates and grow rectangles, never the
//! node set, the child ranges or the leaf indices.
//!
//! The tree also tracks whether *any* node's aggregate is empty
//! (`has_empty`): leaves are born non-empty and only deletions can zero a
//! count, so in the common case the MCF loop skips the per-node emptiness
//! load entirely — the aggregate array stays out of the traversal's cache
//! footprint. The flag is maintained on the update's own leaf-to-root
//! path: `remove_on_path` sets it when a count on the path reaches zero,
//! and `insert_on_path` rescans the aggregate column only when it refills
//! an empty node (the one case where the answer depends on nodes off the
//! path). After every update it equals what the rescan would compute.
//!
//! The same tree is the update path's index: `locate_leaf` finds the leaf
//! a point belongs to by a nearest-child-first branch-and-bound from the
//! root instead of a scan over the leaves. In a 1-D tree it breaks ties so
//! that no update moves a box past its neighbour: siblings stay in key
//! order, and every node's interval stays the hull of its children's.
//!
//! Trees come from two constructors:
//! * [`PartitionTree::from_partitioning`] — 1-D: optimizer leaves paired
//!   bottom-up into a balanced binary tree (Section 5.3's construction);
//! * [`PartitionTree::from_kd`] — multi-d: a 1:1 copy of the k-d expansion
//!   (Section 4.4).
//!
//! A tree built over a *projection* of the predicate space (workload
//! shift, Section 5.4.1) is [`lifted`](PartitionTree::lifted) into the
//! full space once, at build time: every node becomes `(−∞, +∞)` in the
//! dimensions the tree does not index, after which queries and updates
//! treat it like any other tree (docs/ARCHITECTURE.md has the argument).

use pass_common::{Aggregates, PassError, Rect, Result};
use pass_partition::{KdBuild, Partitioning1D};
use pass_table::{SortedTable, Table};

/// Index of a node in the tree arena.
pub type NodeId = usize;

/// An arena-allocated partition tree in struct-of-arrays layout.
///
/// Fields are `pub(crate)` so the snapshot codec (`crate::snapshot`) can
/// serialize the arena *exactly*, keeping a loaded tree bit-identical in
/// layout, not just in logical shape.
#[derive(Debug, Clone)]
pub struct PartitionTree {
    pub(crate) dims: usize,
    pub(crate) root: NodeId,
    pub(crate) n_leaves: usize,
    /// Exact aggregates, one per node.
    pub(crate) aggs: Vec<Aggregates>,
    /// Packed rectangle bounds, node-major: `rect[id * dims + d]` is the
    /// `(lo, hi)` pair of dimension `d` — one indexed load per interval
    /// test.
    pub(crate) rect: Vec<(f64, f64)>,
    /// Packed `(start, count)` of each node's child range in `child_flat`
    /// (`count == 0` ⇒ leaf) — leaf test and child lookup in one load.
    pub(crate) child_span: Vec<(u32, u32)>,
    /// All child ids, grouped per node.
    pub(crate) child_flat: Vec<NodeId>,
    /// Parent id (`None` for the root) — needed by dynamic updates.
    pub(crate) parent: Vec<Option<NodeId>>,
    /// For leaves: index into the synopsis' per-leaf sample array.
    pub(crate) leaf_index: Vec<Option<usize>>,
    /// Whether any node's aggregate is empty. `false` lets MCF skip the
    /// per-node emptiness load; kept in step by the two path mutators.
    pub(crate) has_empty: bool,
    /// Per node: a deletion removed a value at the stored MIN or MAX, so
    /// the stored extrema still bracket the partition's values but may no
    /// longer be attained (see [`has_loose_extrema`](Self::has_loose_extrema)).
    pub(crate) loose_extrema: Vec<bool>,
}

impl PartitionTree {
    fn with_capacity(dims: usize, nodes: usize) -> Self {
        Self {
            dims,
            root: 0,
            n_leaves: 0,
            aggs: Vec::with_capacity(nodes),
            rect: Vec::with_capacity(nodes * dims),
            child_span: Vec::with_capacity(nodes),
            child_flat: Vec::with_capacity(nodes),
            parent: Vec::with_capacity(nodes),
            leaf_index: Vec::with_capacity(nodes),
            has_empty: false,
            loose_extrema: Vec::with_capacity(nodes),
        }
    }

    /// Append a childless node and return its id.
    pub(crate) fn push_node(
        &mut self,
        rect: &Rect,
        agg: Aggregates,
        parent: Option<NodeId>,
        leaf_index: Option<usize>,
    ) -> NodeId {
        debug_assert_eq!(rect.dims(), self.dims);
        let id = self.aggs.len();
        self.has_empty |= agg.is_empty();
        self.aggs.push(agg);
        for d in 0..self.dims {
            self.rect.push((rect.lo(d), rect.hi(d)));
        }
        self.child_span.push((self.child_flat.len() as u32, 0));
        self.parent.push(parent);
        self.leaf_index.push(leaf_index);
        self.loose_extrema.push(false);
        id
    }

    /// Register `children` (already pushed) under `id`, which must not have
    /// children yet.
    fn set_children(&mut self, id: NodeId, children: &[NodeId]) {
        debug_assert_eq!(self.child_span[id].1, 0, "node already has children");
        self.child_span[id] = (self.child_flat.len() as u32, children.len() as u32);
        self.child_flat.extend_from_slice(children);
    }

    /// Build a balanced binary tree bottom-up over 1-D optimizer leaves.
    pub fn from_partitioning(sorted: &SortedTable, partitioning: &Partitioning1D) -> Result<Self> {
        if sorted.is_empty() {
            return Err(PassError::EmptyInput("partition tree over empty table"));
        }
        debug_assert_eq!(sorted.len(), partitioning.n_rows());
        let n_leaves = partitioning.len();
        let mut tree = Self::with_capacity(1, 2 * n_leaves);
        // Current level: leaves in key order.
        let mut level: Vec<NodeId> = Vec::with_capacity(n_leaves);
        for (leaf_index, range) in partitioning.ranges().into_iter().enumerate() {
            let agg = range_aggregates(sorted, range.clone());
            let rect = Rect::interval(sorted.key(range.start), sorted.key(range.end - 1));
            level.push(tree.push_node(&rect, agg, None, Some(leaf_index)));
        }
        // Pair adjacent nodes until one root remains.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 1 {
                    next.push(pair[0]);
                    continue;
                }
                let (a, b) = (pair[0], pair[1]);
                let agg = tree.aggs[a].merge(&tree.aggs[b]);
                let rect = tree.rect(a).union(&tree.rect(b));
                let id = tree.push_node(&rect, agg, None, None);
                tree.set_children(id, &[a, b]);
                tree.parent[a] = Some(id);
                tree.parent[b] = Some(id);
                next.push(id);
            }
            level = next;
        }
        tree.root = level[0];
        tree.n_leaves = n_leaves;
        Ok(tree)
    }

    /// Build from a k-d expansion: one tree node per k-d node, aggregates
    /// computed over the node's rows. Leaf indices are assigned in
    /// [`KdBuild::leaf_ids`] order.
    pub fn from_kd(table: &Table, kd: &KdBuild) -> Result<Self> {
        if table.n_rows() == 0 {
            return Err(PassError::EmptyInput("partition tree over empty table"));
        }
        let mut tree = Self::with_capacity(table.dims(), kd.nodes.len());
        // Every node owns a contiguous `perm` range, so one gather of the
        // value column into `perm` order gives each node a slice.
        let values: Vec<f64> = kd.perm.iter().map(|&r| table.value(r as usize)).collect();
        for info in &kd.nodes {
            let agg = Aggregates::from_values(&values[info.start..info.end]);
            let id = tree.push_node(&info.rect, agg, None, None);
            debug_assert_eq!(id + 1, tree.n_nodes());
        }
        // Wire children and parents (every id already exists).
        for (id, info) in kd.nodes.iter().enumerate() {
            if !info.children.is_empty() {
                tree.set_children(id, &info.children);
                for &c in &info.children {
                    tree.parent[c] = Some(id);
                }
            }
        }
        // Assign leaf indices in kd leaf order.
        let mut n_leaves = 0;
        for id in 0..tree.n_nodes() {
            if tree.is_leaf(id) {
                tree.leaf_index[id] = Some(n_leaves);
                n_leaves += 1;
            }
        }
        tree.root = kd.root;
        tree.n_leaves = n_leaves;
        Ok(tree)
    }

    /// Re-express a tree built over a projection in the full `arity`-
    /// dimensional predicate space: tree dimension `j` becomes dimension
    /// `dims[j]`, and every node is unbounded in the dimensions `dims`
    /// does not name (see the module docs for why that is all workload
    /// shift needs). Shape, aggregates and leaf indices are untouched. A
    /// mapping that names a dimension twice is refused: the second tree
    /// dimension's bounds would overwrite the first's.
    pub fn lifted(mut self, dims: &[usize], arity: usize) -> Result<Self> {
        let repeats = (1..dims.len()).any(|j| dims[..j].contains(&dims[j]));
        if dims.len() != self.dims || dims.iter().any(|&d| d >= arity) || repeats {
            return Err(PassError::InvalidParameter(
                "dims",
                format!(
                    "{dims:?} does not map a {}-dimensional tree into {arity} dimensions",
                    self.dims
                ),
            ));
        }
        let mut rect = vec![(f64::NEG_INFINITY, f64::INFINITY); self.n_nodes() * arity];
        for (wide, narrow) in rect.chunks_mut(arity).zip(self.rect.chunks(self.dims)) {
            for (&d, &bounds) in dims.iter().zip(narrow) {
                wide[d] = bounds;
            }
        }
        self.rect = rect;
        self.dims = arity;
        Ok(self)
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the arena.
    pub fn n_nodes(&self) -> usize {
        self.aggs.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Predicate dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total rows in the tree (root count).
    pub fn total_rows(&self) -> u64 {
        self.aggs[self.root].count
    }

    /// Exact aggregates of node `id`.
    #[inline]
    pub fn agg(&self, id: NodeId) -> &Aggregates {
        &self.aggs[id]
    }

    /// Child ids of node `id` (empty for leaves).
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let (start, count) = self.child_span[id];
        &self.child_flat[start as usize..(start + count) as usize]
    }

    /// Whether node `id` has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.child_span[id].1 == 0
    }

    /// Parent of node `id` (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.parent[id]
    }

    /// The sample-array slot leaf `id` owns (`None` for internal nodes).
    #[inline]
    pub fn leaf_index(&self, id: NodeId) -> Option<usize> {
        self.leaf_index[id]
    }

    /// Inclusive lower bound of node `id`'s rectangle in dimension `d`.
    #[inline]
    pub fn rect_lo(&self, id: NodeId, d: usize) -> f64 {
        self.rect[id * self.dims + d].0
    }

    /// Inclusive upper bound of node `id`'s rectangle in dimension `d`.
    #[inline]
    pub fn rect_hi(&self, id: NodeId, d: usize) -> f64 {
        self.rect[id * self.dims + d].1
    }

    /// The raw packed `(lo, hi)` bounds, node-major: node `id`, dimension
    /// `d` at index `id * dims + d`. For 1-D trees a node's pair sits at
    /// `[id]` — one bounds-checked 16-byte load — and the MCF interval
    /// loop reads it directly instead of paying the per-call stride
    /// multiply.
    #[inline]
    pub(crate) fn rect_pairs(&self) -> &[(f64, f64)] {
        &self.rect
    }

    /// Whether any node's aggregate is currently empty (see the module
    /// docs) — `false` lets traversals skip per-node emptiness loads.
    #[inline]
    pub(crate) fn has_empty_nodes(&self) -> bool {
        self.has_empty
    }

    /// Whether node `id`'s stored MIN/MAX may be stale: they still bracket
    /// every value in the partition, but a deletion removed a value at one
    /// of them, so neither is known to be attained. Such a node can bound
    /// a MIN/MAX answer from the conservative side only.
    #[inline]
    pub fn has_loose_extrema(&self, id: NodeId) -> bool {
        self.loose_extrema[id]
    }

    /// Materialize node `id`'s bounding rectangle. Cold-path convenience —
    /// hot loops should use `relation` / [`rect_lo`](Self::rect_lo) /
    /// [`rect_hi`](Self::rect_hi) instead.
    pub fn rect(&self, id: NodeId) -> Rect {
        let base = id * self.dims;
        Rect::new(&self.rect[base..base + self.dims])
    }

    /// Whether node `id`'s box meets a query box (`q`, one inclusive
    /// `(lo, hi)` pair per dimension) and whether it lies inside it: the
    /// MCF trichotomy, both tests fused into one pass over the
    /// coordinates, every compare run.
    #[inline(always)]
    pub(crate) fn relation(&self, id: NodeId, q: &[(f64, f64)]) -> (bool, bool) {
        let dims = self.dims;
        let (mut meets, mut inside) = (true, true);
        for (&(nl, nh), &(ql, qh)) in self.rect[id * dims..][..dims].iter().zip(&q[..dims]) {
            meets &= (nl <= qh) & (ql <= nh);
            inside &= (ql <= nl) & (nh <= qh);
        }
        (meets, inside)
    }

    /// Does node `id`'s rectangle contain the point?
    #[inline]
    pub fn contains_point(&self, id: NodeId, point: &[f64]) -> bool {
        debug_assert_eq!(point.len(), self.dims);
        let base = id * self.dims;
        (0..self.dims).all(|d| {
            let p = point[d];
            let (lo, hi) = self.rect[base + d];
            lo <= p && p <= hi
        })
    }

    /// L1 distance from `point` to node `id`'s rectangle, summed over the
    /// dimensions in order: zero exactly when the rectangle contains the
    /// point, and never more than the distance to any rectangle inside
    /// this one (each term, and each rounded partial sum, is monotone in
    /// the bounds).
    #[inline]
    fn box_distance(&self, id: NodeId, point: &[f64]) -> f64 {
        let base = id * self.dims;
        let mut dist = 0.0;
        for (&(lo, hi), &p) in self.rect[base..base + self.dims].iter().zip(point) {
            if p < lo {
                dist += lo - p;
            } else if p > hi {
                dist += p - hi;
            }
        }
        dist
    }

    /// The leaf an update at `point` belongs to, with its sample slot:
    /// the leaf of least [L1 box distance](Self::box_distance). A point
    /// inside one or more leaf boxes goes to the lowest-indexed of them.
    /// A point in a gap between the tight boxes (or outside the root's)
    /// goes to the nearest leaf; among equally near ones, a
    /// multi-dimensional tree takes the lowest leaf index, and a 1-D tree
    /// the last leaf in key order that ends below the point if it ties,
    /// else the first that starts above it. `None` only for a tree
    /// without leaves.
    ///
    /// The 1-D rule picks a leaf beside the point's gap, so growing it to
    /// the point moves no box past its neighbour — the order the 1-D MCF
    /// descent relies on (docs/ARCHITECTURE.md, "MCF traversal"). Lowest
    /// index would not do: a single-key leaf `[5, 5]` and its left
    /// neighbour `[a, 5]` are equally near 6, and growing the neighbour
    /// takes it past the single-key leaf.
    ///
    /// Branch-and-bound from the root, nearest child first: a node's box
    /// contains its descendants' boxes, so its distance bounds theirs from
    /// below and a subtree farther than the best leaf so far is skipped.
    /// A contained point costs depth × fan-out distance tests; equal
    /// distances are never pruned, because neither leaf indices nor key
    /// order follow the visiting order, and the tie has to be compared.
    pub(crate) fn locate_leaf(&self, point: &[f64]) -> Option<(NodeId, usize)> {
        debug_assert_eq!(point.len(), self.dims);
        let mut best = NearestLeaf {
            dist: f64::INFINITY,
            leaf_index: usize::MAX,
            id: None,
            below: false,
        };
        let root_dist = self.box_distance(self.root, point);
        self.nearest_leaf_under(self.root, root_dist, point, false, &mut best);
        best.id.map(|id| (id, best.leaf_index))
    }

    /// The search under node `id`. `best_before` says whether the best
    /// leaf so far lies before this subtree in key order — what a 1-D tie
    /// is broken by; a 1-D node's children are in key order, so it is
    /// known from the child the best leaf last came from.
    fn nearest_leaf_under(
        &self,
        id: NodeId,
        dist: f64,
        point: &[f64],
        best_before: bool,
        best: &mut NearestLeaf,
    ) {
        let children = self.children(id);
        if children.is_empty() {
            if let Some(leaf_index) = self.leaf_index[id] {
                let below = self.dims == 1 && point[0] > self.rect[id].1;
                let candidate = NearestLeaf {
                    dist,
                    leaf_index,
                    id: Some(id),
                    below,
                };
                if candidate.beats(best, best_before, self.dims == 1) {
                    *best = candidate;
                }
            }
            return;
        }
        // The nearest child first — it tightens `best` before its siblings
        // are tested — then the others in child order.
        let mut nearest = (0, f64::INFINITY);
        for (pos, &child) in children.iter().enumerate() {
            let child_dist = self.box_distance(child, point);
            if child_dist < nearest.1 {
                nearest = (pos, child_dist);
            }
        }
        let mut found_in = None;
        let mut visit = |pos: usize, child_dist: f64, best: &mut NearestLeaf| {
            let before = found_in.map_or(best_before, |found: usize| found < pos);
            let held = best.id;
            self.nearest_leaf_under(children[pos], child_dist, point, before, best);
            if best.id != held {
                found_in = Some(pos);
            }
        };
        if nearest.1 <= best.dist {
            visit(nearest.0, nearest.1, best);
        }
        for (pos, &child) in children.iter().enumerate() {
            let child_dist = self.box_distance(child, point);
            if pos != nearest.0 && child_dist <= best.dist {
                visit(pos, child_dist, best);
            }
        }
    }

    /// Absorb an inserted tuple on the path from `leaf` to the root: every
    /// rectangle on it grows to hold `point` (written straight into the
    /// bounds column) and every aggregate takes `value`.
    pub(crate) fn insert_on_path(&mut self, leaf: NodeId, point: &[f64], value: f64) {
        let mut refilled = false;
        let mut cursor = Some(leaf);
        while let Some(id) = cursor {
            if !self.contains_point(id, point) {
                let base = id * self.dims;
                for (bounds, &p) in self.rect[base..base + self.dims].iter_mut().zip(point) {
                    *bounds = (bounds.0.min(p), bounds.1.max(p));
                }
            }
            let agg = &mut self.aggs[id];
            refilled |= agg.is_empty();
            agg.insert(value);
            cursor = self.parent[id];
        }
        if refilled {
            self.refresh_has_empty();
        }
    }

    /// Recompute [`has_empty_nodes`](Self::has_empty_nodes) by scanning
    /// the aggregate column: an insert refilled an empty node, and whether
    /// another is still empty is not a fact about its path.
    fn refresh_has_empty(&mut self) {
        self.has_empty = self.aggs.iter().any(Aggregates::is_empty);
    }

    /// Drop a deleted tuple's `value` from every aggregate on the path
    /// from `leaf` (which must hold at least one tuple) to the root. A
    /// node whose stored extremum the value touched is marked
    /// [loose](Self::has_loose_extrema).
    pub(crate) fn remove_on_path(&mut self, leaf: NodeId, value: f64) {
        let mut cursor = Some(leaf);
        while let Some(id) = cursor {
            let agg = &mut self.aggs[id];
            if agg.remove(value) {
                self.loose_extrema[id] = true;
            }
            self.has_empty |= agg.is_empty();
            cursor = self.parent[id];
        }
    }

    /// Leaf ids in leaf-index order.
    pub fn leaves(&self) -> Vec<NodeId> {
        let mut out: Vec<(usize, NodeId)> = self
            .leaf_index
            .iter()
            .enumerate()
            .filter_map(|(id, li)| li.map(|li| (li, id)))
            .collect();
        out.sort_unstable();
        out.into_iter().map(|(_, id)| id).collect()
    }

    /// Logical storage of the aggregate hierarchy: 4 statistics + 2·d
    /// rectangle bounds per node, 8 bytes each (Table 2 accounting). `d`
    /// counts the dimensions the tree indexes: one in which the root is
    /// unbounded (see [`lifted`](Self::lifted)) carries no information
    /// and counts no bounds.
    pub fn storage_bytes(&self) -> usize {
        let root = self.root * self.dims;
        let indexed = self.rect[root..root + self.dims]
            .iter()
            .filter(|&&bounds| bounds != (f64::NEG_INFINITY, f64::INFINITY))
            .count();
        self.n_nodes() * (4 + 2 * indexed) * std::mem::size_of::<f64>()
    }
}

/// The best leaf a [`PartitionTree::locate_leaf`] search has seen so far.
struct NearestLeaf {
    dist: f64,
    leaf_index: usize,
    id: Option<NodeId>,
    /// In a 1-D tree: the leaf ends below the point.
    below: bool,
}

impl NearestLeaf {
    /// Whether this leaf replaces `best` ([`PartitionTree::locate_leaf`]
    /// has the rule); `best_before` says `best` precedes it in key order.
    fn beats(&self, best: &NearestLeaf, best_before: bool, one_dim: bool) -> bool {
        if best.id.is_none() || self.dist < best.dist {
            return true;
        }
        if self.dist > best.dist {
            return false;
        }
        if !one_dim || self.dist == 0.0 {
            return self.leaf_index < best.leaf_index;
        }
        match (best.below, self.below) {
            // Two leaves ending below the point: the later one.
            (true, true) => best_before,
            // Two starting above it: the earlier one.
            (false, false) => !best_before,
            // One on each side: the one below.
            (_, below) => below,
        }
    }
}

fn range_aggregates(sorted: &SortedTable, range: std::ops::Range<usize>) -> Aggregates {
    let values = &sorted.values()[range];
    Aggregates::from_values(values)
}

#[cfg(test)]
impl PartitionTree {
    /// The rule [`locate_leaf`](Self::locate_leaf) implements, as the scan
    /// over every leaf it replaced — the oracle the search is pinned to.
    pub(crate) fn locate_leaf_linear(&self, point: &[f64]) -> Option<NodeId> {
        let dist = |id: NodeId| {
            let mut dist = 0.0;
            for (d, &p) in point.iter().enumerate() {
                let (lo, hi) = (self.rect_lo(id, d), self.rect_hi(id, d));
                if p < lo {
                    dist += lo - p;
                } else if p > hi {
                    dist += p - hi;
                }
            }
            dist
        };
        let mut best: Option<(NodeId, f64)> = None;
        for id in self.leaves() {
            if self.contains_point(id, point) {
                return Some(id);
            }
            if best.is_none_or(|(_, b)| dist(id) < b) {
                best = Some((id, dist(id)));
            }
        }
        let (_, least) = best?;
        if self.dims != 1 {
            return best.map(|(id, _)| id);
        }
        // The leaves at that distance in key order: the last below the
        // point, else the first above it.
        let ties: Vec<NodeId> = self
            .leaves_in_key_order()
            .into_iter()
            .filter(|&id| dist(id) == least)
            .collect();
        ties.iter()
            .rev()
            .find(|&&id| point[0] > self.rect_hi(id, 0))
            .or(ties.first())
            .copied()
    }

    /// The leaves left to right: children in child order, which in a 1-D
    /// tree is key order.
    pub(crate) fn leaves_in_key_order(&self) -> Vec<NodeId> {
        let (mut out, mut stack) = (Vec::new(), vec![self.root]);
        while let Some(id) = stack.pop() {
            match self.children(id) {
                [] => out.push(id),
                kids => stack.extend(kids.iter().rev()),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::{AggKind, RectRelation};
    use pass_partition::{build_kd, KdExpansion};
    use pass_table::datasets::{taxi, uniform};

    fn sorted(n: usize, seed: u64) -> SortedTable {
        SortedTable::from_table(&uniform(n, seed), 0)
    }

    #[test]
    fn one_dim_tree_structure() {
        let s = sorted(100, 1);
        let p = Partitioning1D::new(100, vec![25, 50, 75]).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        assert_eq!(t.n_leaves(), 4);
        // 4 leaves + 2 internal + root = 7 nodes.
        assert_eq!(t.n_nodes(), 7);
        assert_eq!(t.total_rows(), 100);
        assert!(t.parent(t.root()).is_none());
    }

    #[test]
    fn parent_aggregates_are_merges_of_children() {
        let s = sorted(200, 2);
        let p = Partitioning1D::new(200, vec![30, 80, 120, 170]).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        for id in 0..t.n_nodes() {
            if t.is_leaf(id) {
                continue;
            }
            let merged = t
                .children(id)
                .iter()
                .fold(Aggregates::empty(), |acc, &c| acc.merge(t.agg(c)));
            assert!((t.agg(id).sum - merged.sum).abs() < 1e-9);
            assert_eq!(t.agg(id).count, merged.count);
            assert_eq!(t.agg(id).min, merged.min);
            assert_eq!(t.agg(id).max, merged.max);
        }
    }

    #[test]
    fn parent_pointers_consistent() {
        let s = sorted(64, 3);
        let p = Partitioning1D::new(64, (1..8).map(|i| i * 8).collect()).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        for id in 0..t.n_nodes() {
            for &c in t.children(id) {
                assert_eq!(t.parent(c), Some(id));
            }
        }
    }

    #[test]
    fn odd_leaf_count_builds_valid_tree() {
        let s = sorted(90, 4);
        let p = Partitioning1D::new(90, vec![30, 60]).unwrap(); // 3 leaves
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.total_rows(), 90);
        // Root still aggregates everything.
        let whole = Aggregates::from_values(s.values());
        assert!((t.agg(t.root()).sum - whole.sum).abs() < 1e-9);
    }

    #[test]
    fn single_leaf_tree_is_just_root() {
        let s = sorted(10, 5);
        let p = Partitioning1D::single(10);
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.leaves(), vec![t.root()]);
    }

    #[test]
    fn leaf_rects_bound_their_keys() {
        let s = sorted(150, 6);
        let p = Partitioning1D::new(150, vec![50, 100]).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        let key_bounds = p.key_bounds(&s);
        for (li, id) in t.leaves().into_iter().enumerate() {
            assert_eq!(t.rect_lo(id, 0), key_bounds[li].0);
            assert_eq!(t.rect_hi(id, 0), key_bounds[li].1);
        }
    }

    #[test]
    fn kd_tree_mirrors_expansion() {
        let table = taxi(800, 7).project(&[1, 2]).unwrap();
        let kd = build_kd(
            &table,
            10,
            KdExpansion::MaxVariance {
                kind: AggKind::Sum,
                balance: 2,
            },
            0,
        )
        .unwrap();
        let t = PartitionTree::from_kd(&table, &kd).unwrap();
        assert_eq!(t.n_nodes(), kd.nodes.len());
        assert_eq!(t.n_leaves(), kd.n_leaves());
        assert_eq!(t.total_rows(), 800);
        assert_eq!(t.dims(), 2);
        // Parent merge invariant in the kd case too.
        for id in 0..t.n_nodes() {
            if t.is_leaf(id) {
                continue;
            }
            let merged_count: u64 = t.children(id).iter().map(|&c| t.agg(c).count).sum();
            assert_eq!(t.agg(id).count, merged_count);
        }
    }

    #[test]
    fn from_kd_aggregates_match_a_per_node_indirect_gather() {
        // The oracle is the loop `from_kd` ran before it gathered the value
        // column once: every node's values fetched through `perm`.
        let table = taxi(5_000, 7).project(&[1, 2, 3]).unwrap();
        for expansion in [
            KdExpansion::BreadthFirst,
            KdExpansion::MaxVariance {
                kind: AggKind::Sum,
                balance: 2,
            },
        ] {
            let kd = build_kd(&table, 64, expansion, 3).unwrap();
            let t = PartitionTree::from_kd(&table, &kd).unwrap();
            assert_eq!(t.n_nodes(), kd.nodes.len());
            for (id, info) in kd.nodes.iter().enumerate() {
                let values: Vec<f64> = kd.perm[info.start..info.end]
                    .iter()
                    .map(|&r| table.value(r as usize))
                    .collect();
                let expected = Aggregates::from_values(&values);
                let got = t.agg(id);
                assert_eq!(got.count, expected.count, "node {id}");
                for (name, a, b) in [
                    ("sum", got.sum, expected.sum),
                    ("sum_sq", got.sum_sq, expected.sum_sq),
                    ("min", got.min, expected.min),
                    ("max", got.max, expected.max),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "node {id} {name}");
                }
            }
        }
    }

    #[test]
    fn leaves_enumerate_in_leaf_index_order() {
        let s = sorted(40, 8);
        let p = Partitioning1D::new(40, vec![10, 20, 30]).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        for (expect, id) in t.leaves().into_iter().enumerate() {
            assert_eq!(t.leaf_index(id), Some(expect));
        }
    }

    /// The trichotomy `relation` gives node `id` against `query`.
    fn relation_of(t: &PartitionTree, id: NodeId, query: &Rect) -> RectRelation {
        let pairs: Vec<(f64, f64)> = (0..query.dims())
            .map(|d| (query.lo(d), query.hi(d)))
            .collect();
        match t.relation(id, &pairs) {
            (false, _) => RectRelation::Disjoint,
            (true, true) => RectRelation::Covered,
            (true, false) => RectRelation::Partial,
        }
    }

    #[test]
    fn relation_matches_rect_reference() {
        let s = sorted(120, 10);
        let p = Partitioning1D::new(120, vec![40, 80]).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        for lo in [-1.0, 0.0, 0.3, 0.9] {
            let query = Rect::interval(lo, lo + 0.25);
            for id in 0..t.n_nodes() {
                assert_eq!(
                    relation_of(&t, id, &query),
                    t.rect(id).relation_to(&query),
                    "node {id} query [{lo}, {}]",
                    lo + 0.25
                );
            }
        }
    }

    #[test]
    fn lifted_tree_keeps_the_narrow_classification_and_never_covers_outside_it() {
        let table = taxi(800, 7).project(&[1, 2]).unwrap();
        let kd = build_kd(&table, 12, KdExpansion::BreadthFirst, 0).unwrap();
        let narrow = PartitionTree::from_kd(&table, &kd).unwrap();
        // Tree dimension 0 becomes dimension 2, tree dimension 1 becomes 0.
        let lifted = narrow.clone().lifted(&[2, 0], 4).unwrap();
        assert_eq!((lifted.dims(), lifted.leaves()), (4, narrow.leaves()));
        assert_eq!(lifted.storage_bytes(), narrow.storage_bytes());
        const OPEN: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);
        let b = table.bounding_rect().unwrap();
        let (mid0, mid1) = ((b.lo(0) + b.hi(0)) / 2.0, (b.lo(1) + b.hi(1)) / 2.0);
        let window = Rect::new(&[(b.lo(0), mid0), (mid1, b.hi(1))]);
        let open = Rect::new(&[(mid1, b.hi(1)), OPEN, (b.lo(0), mid0), OPEN]);
        let constrained = open.narrowed(3, 0.0, 1.0);
        for id in 0..narrow.n_nodes() {
            let (n, l) = (narrow.rect(id), lifted.rect(id));
            let wide = Rect::new(&[(n.lo(1), n.hi(1)), OPEN, (n.lo(0), n.hi(0)), OPEN]);
            assert_eq!(l, wide);
            // Unindexed dimensions open: the narrow tree's verdict. One of
            // them constrained: still skipped when disjoint, never covered.
            let verdict = relation_of(&narrow, id, &window);
            assert_eq!(relation_of(&lifted, id, &open), verdict);
            let shifted = relation_of(&lifted, id, &constrained);
            assert_eq!(
                shifted == RectRelation::Disjoint,
                verdict == RectRelation::Disjoint
            );
            assert_ne!(shifted, RectRelation::Covered);
            assert_eq!(
                lifted.contains_point(id, &[mid1, 1e300, mid0, -1e300]),
                narrow.contains_point(id, &[mid0, mid1])
            );
        }
        // A mapping names one in-range dimension per tree dimension, and
        // no dimension twice.
        assert!(narrow.clone().lifted(&[0], 4).is_err());
        assert!(narrow.clone().lifted(&[0, 4], 4).is_err());
        assert!(matches!(
            narrow.clone().lifted(&[1, 1], 4),
            Err(PassError::InvalidParameter("dims", _))
        ));
    }

    #[test]
    fn widening_orders_whatever_bounds_a_node_held() {
        let s = sorted(40, 8);
        let p = Partitioning1D::new(40, vec![10, 20, 30]).unwrap();
        let mut t = PartitionTree::from_partitioning(&s, &p).unwrap();
        // No constructor stores `lo > hi` (`Rect::new` refuses it) and the
        // snapshot decoder rejects it, but widening must not depend on
        // that: plant one.
        let leaf = t.leaves()[1];
        t.rect[leaf] = (0.9, 0.1);
        for point in [0.5, 2.0, -1.0, f64::INFINITY] {
            let mut widened = t.clone();
            widened.insert_on_path(leaf, &[point], 1.0);
            let mut cursor = Some(leaf);
            while let Some(id) = cursor {
                assert!(widened.contains_point(id, &[point]), "node {id} at {point}");
                cursor = widened.parent(id);
            }
        }
    }

    #[test]
    fn a_point_beside_single_key_leaves_grows_the_leaf_next_to_its_gap() {
        // Leaves [0, 5], [5, 5], [5, 5] and [8, 9]: three end on key 5.
        let keys = vec![0.0, 1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 8.0, 9.0];
        let s = SortedTable::from_sorted(keys.clone(), keys);
        let p = Partitioning1D::new(9, vec![3, 5, 7]).unwrap();
        let mut t = PartitionTree::from_partitioning(&s, &p).unwrap();
        let leaves = t.leaves();
        for (point, expect) in [
            // Inside boxes: the lowest index that holds the point.
            (5.0, 0),
            (4.0, 0),
            // Equally near all three leaves ending on 5: the last of them.
            (6.0, 2),
            // Equally near [5, 6] below and [8, 9] above: the one below.
            (7.0, 2),
            (f64::INFINITY, 3),
            (f64::NEG_INFINITY, 0),
        ] {
            let (leaf, _) = t.locate_leaf(&[point]).unwrap();
            assert_eq!(leaf, leaves[expect], "{point}");
            assert_eq!(t.locate_leaf_linear(&[point]), Some(leaf), "{point}");
            t.insert_on_path(leaf, &[point], 1.0);
            for id in 0..t.n_nodes() {
                if let [l, r] = *t.children(id) {
                    assert!(t.rect_hi(l, 0) <= t.rect_lo(r, 0), "{point}: node {id}");
                }
            }
        }
    }

    #[test]
    fn storage_accounting_scales_with_nodes() {
        let s = sorted(64, 9);
        let p = Partitioning1D::new(64, vec![16, 32, 48]).unwrap();
        let t = PartitionTree::from_partitioning(&s, &p).unwrap();
        assert_eq!(t.storage_bytes(), t.n_nodes() * 6 * 8);
    }
}
