//! Balanced k-d trees for multi-dimensional PASS (Section 4.4 / 5.4).
//!
//! The higher-dimensional optimizer parameterizes the search space by
//! balanced k-d trees with fanout `2^d`: every expansion splits a leaf at
//! the median of *each* predicate attribute simultaneously. Two expansion
//! policies reproduce the Section 5.4 systems:
//!
//! * **KD-PASS** ([`KdExpansion::MaxVariance`]): greedily expand the leaf
//!   containing the (approximate) maximum-variance query, subject to the
//!   "leaf depths differ by at most 2" balance rule;
//! * **KD-US** ([`KdExpansion::BreadthFirst`]): always expand the
//!   shallowest leaf, ties broken randomly — the baseline's uniform
//!   refinement.
//!
//! Node rectangles are the *tight bounding boxes* of the node's points.
//! This is sound for MCF classification (a node covered by the query rect
//! has all of its rows matching; a node disjoint from it has none) and
//! strictly tighter than splitting-plane boxes.
//!
//! # What a split costs
//!
//! A split of one range in one dimension is **one selection and one
//! pass**. `select_nth_unstable_by` puts the median row at the middle;
//! its value is the pivot. Rows that share a value must not straddle a
//! split, so the boundary is one of two tie-safe ones — every `< pivot`
//! row left, or every `<= pivot` row left — whichever is nearer the
//! middle. One read of the column counts both and notes where the last
//! row of each candidate left side sits. If that row is already the last
//! one before the boundary, the left side's rows *are* the prefix, in the
//! order a stable partition would leave them, and nothing moves.
//!
//! Only when a row equal to the pivot sits on the wrong side does the
//! allocate-and-copy stable partition run. After a selection, only such
//! rows can: everything before the middle is `<= pivot`, everything after
//! it `>= pivot`. The standard library's quickselect goes further — it
//! partitions strictly (`< p` | `>= p`) and finishes by sorting the last
//! small block, so the pivot's equals end up next to each other — and no
//! table tried here (taxi in 2, 3 and 5 dimensions, a five-value
//! categorical column, signed zeros, a plateau at the median) moved a
//! single row. That is an observation about one implementation, not
//! part of `select_nth_unstable_by`'s contract, so the check reads the
//! rows rather than trusting it, and the fallback stays.
//!
//! Around the split, a candidate leaf that is the only one (the root,
//! always) is expanded without being scored, and bounding boxes and
//! scores walk one hoisted column at a time. A NaN predicate cell is
//! refused in the root's bounding-box pass, the one pass that reads every
//! cell; no later comparison can meet one.

use std::cmp::Ordering;

use rand::Rng;

use pass_common::rng::rng_from_seed;
use pass_common::{AggKind, PassError, Rect, Result};
use pass_table::Table;

/// One node of the expansion tree.
#[derive(Debug, Clone)]
pub struct KdNodeInfo {
    /// Tight bounding rectangle of the node's points.
    pub rect: Rect,
    /// Half-open range into [`KdBuild::perm`].
    pub start: usize,
    pub end: usize,
    /// Child node ids (empty for leaves). Up to `2^d` children.
    pub children: Vec<usize>,
    pub depth: usize,
}

impl KdNodeInfo {
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A built k-d expansion: an arena of nodes over a permutation of row ids,
/// where every node owns a contiguous `perm` range.
#[derive(Debug, Clone)]
pub struct KdBuild {
    pub perm: Vec<u32>,
    pub nodes: Vec<KdNodeInfo>,
    pub root: usize,
}

impl KdBuild {
    /// Ids of all current leaves, in arena order.
    pub fn leaf_ids(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_leaf())
            .collect()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Row ids (into the original table) owned by a node.
    pub fn rows_of(&self, node: usize) -> &[u32] {
        let n = &self.nodes[node];
        &self.perm[n.start..n.end]
    }
}

/// Which leaf to expand next.
#[derive(Debug, Clone, Copy)]
pub enum KdExpansion {
    /// KD-PASS: leaf with the maximum approximate query variance, with leaf
    /// depths constrained to differ by at most `balance` (the paper uses 2).
    MaxVariance { kind: AggKind, balance: usize },
    /// KD-US: shallowest leaf first, random tie-break.
    BreadthFirst,
}

/// Grow a k-d expansion over the table's predicate space until (at most)
/// `max_leaves` leaves exist or no leaf is expandable. A table with a NaN
/// predicate cell has no median to split at and is an
/// [`InvalidParameter`](PassError::InvalidParameter).
pub fn build_kd(
    table: &Table,
    max_leaves: usize,
    expansion: KdExpansion,
    seed: u64,
) -> Result<KdBuild> {
    grow(
        table,
        max_leaves,
        expansion,
        seed,
        pick_max_variance_leaf,
        expand_leaf,
    )
}

/// The expansion loop, over its two steps (the tests run it once more
/// with the previous implementation of each).
fn grow(
    table: &Table,
    max_leaves: usize,
    expansion: KdExpansion,
    seed: u64,
    pick_max_variance: impl Fn(&Table, &KdBuild, &mut Vec<f64>, AggKind, usize) -> Option<usize>,
    expand: impl Fn(&Table, &mut KdBuild, usize) -> usize,
) -> Result<KdBuild> {
    let n = table.n_rows();
    if n == 0 {
        return Err(PassError::EmptyInput("kd build over empty table"));
    }
    if max_leaves == 0 {
        return Err(PassError::InvalidParameter(
            "max_leaves",
            "must be at least 1".into(),
        ));
    }
    let mut build = KdBuild {
        perm: (0..n as u32).collect(),
        nodes: Vec::new(),
        root: 0,
    };
    build.nodes.push(KdNodeInfo {
        rect: root_rect(table)?,
        start: 0,
        end: n,
        children: Vec::new(),
        depth: 0,
    });

    // Cached per-leaf expansion scores (MaxVariance policy only).
    let mut scores: Vec<f64> = vec![f64::NAN; 1];
    let mut rng = rng_from_seed(seed);

    while build.n_leaves() < max_leaves {
        let leaf = match expansion {
            KdExpansion::MaxVariance { kind, balance } => {
                pick_max_variance(table, &build, &mut scores, kind, balance)
            }
            KdExpansion::BreadthFirst => pick_shallowest_leaf(&build, &mut rng),
        };
        let Some(leaf) = leaf else { break };
        let made = expand(table, &mut build, leaf);
        if made == 0 {
            // Indivisible leaf: mark it permanently unexpandable by giving
            // it a -inf score / treat via children still empty. Use score.
            if scores.len() < build.nodes.len() {
                scores.resize(build.nodes.len(), f64::NAN);
            }
            scores[leaf] = f64::NEG_INFINITY;
            // For BreadthFirst, avoid an infinite loop on indivisible
            // leaves: if every leaf is indivisible we are done.
            if build
                .leaf_ids()
                .iter()
                .all(|&l| scores.get(l).copied() == Some(f64::NEG_INFINITY))
            {
                break;
            }
            continue;
        }
        scores.resize(build.nodes.len(), f64::NAN);
    }
    Ok(build)
}

/// Order two predicate cells — `partial_cmp` without its `None`, so a
/// selection's `is_less` is one compare and nothing here can panic.
#[inline]
fn cmp_cells(a: f64, b: f64) -> Ordering {
    // invariant: `root_rect` returned `Err` for any table holding a NaN,
    // the only value for which the two differ.
    debug_assert!(!a.is_nan() && !b.is_nan(), "NaN predicate");
    if a < b {
        Ordering::Less
    } else if a > b {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

/// `(lo, hi)` of `cells` by `<` / `>`, so the first of several equal
/// extremes (`-0.0` and `0.0`) is the one kept.
fn bounds(cells: impl Iterator<Item = f64>) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in cells {
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    (lo, hi)
}

/// The root's bounding rectangle, from the one pass that reads every
/// predicate cell — which is where a NaN, unorderable by every later
/// comparison, is found and refused.
fn root_rect(table: &Table) -> Result<Rect> {
    let mut sides = Vec::with_capacity(table.dims());
    for dim in 0..table.dims() {
        let col = table.predicate_column(dim);
        let mut nan = false;
        sides.push(bounds(col.iter().map(|&v| {
            nan |= v.is_nan();
            v
        })));
        if nan {
            return Err(PassError::InvalidParameter(
                "predicates",
                format!("column {dim} holds a NaN, which a k-d split cannot order"),
            ));
        }
    }
    Ok(Rect::new(&sides))
}

/// Tight bounding rectangle of a set of rows, one column at a time.
fn bounding_rect(table: &Table, rows: &[u32]) -> Rect {
    let sides: Vec<(f64, f64)> = (0..table.dims())
        .map(|dim| {
            let col = table.predicate_column(dim);
            bounds(rows.iter().map(|&r| col[r as usize]))
        })
        .collect();
    Rect::new(&sides)
}

#[cfg(test)]
thread_local! {
    /// How often [`split_at_pivot`] on this thread had to move rows.
    static REPARTITIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Split `rows` in place at the tie-safe boundary nearest the median of
/// `col` and return the left side's length; `None` when every row shares
/// one value (or there are fewer than two rows).
fn median_split(col: &[f64], rows: &mut [u32]) -> Option<usize> {
    if rows.len() < 2 {
        return None;
    }
    let target = rows.len() / 2;
    rows.select_nth_unstable_by(target, |&a, &b| cmp_cells(col[a as usize], col[b as usize]));
    split_at_pivot(col, rows, target)
}

/// The split around `rows[target]`'s value, the pivot. Of the two tie-safe
/// boundaries — all `< pivot` left, or all `<= pivot` left — the one
/// nearest `target` wins, and one read of the column finds for both how
/// many rows go left and where the last of them sits. A last row already
/// at the boundary means `rows` is split as a stable partition would
/// leave it; only otherwise are rows moved.
fn split_at_pivot(col: &[f64], rows: &mut [u32], target: usize) -> Option<usize> {
    let pivot = col[rows[target] as usize];
    // Per boundary: (rows going left, one past the last of them).
    let (mut less, mut less_eq) = ((0, 0), (0, 0));
    for (i, &r) in rows.iter().enumerate() {
        let v = col[r as usize];
        if v < pivot {
            less = (less.0 + 1, i + 1);
        }
        if v <= pivot {
            less_eq = (less_eq.0 + 1, i + 1);
        }
    }
    let (mid, last, strict) = [(less.0, less.1, true), (less_eq.0, less_eq.1, false)]
        .into_iter()
        .filter(|&(c, ..)| c > 0 && c < rows.len())
        .min_by_key(|&(c, ..)| c.abs_diff(target))?;
    if last != mid {
        // Rows equal to the pivot sit on the wrong side of the boundary
        // (module docs: possible after any selection, not seen after the
        // standard library's): move them with a stable two-way partition.
        #[cfg(test)]
        REPARTITIONS.with(|c| c.set(c.get() + 1));
        let (left, right): (Vec<u32>, Vec<u32>) = rows.iter().partition(|&&r| {
            let v = col[r as usize];
            if strict {
                v < pivot
            } else {
                v <= pivot
            }
        });
        rows[..mid].copy_from_slice(&left);
        rows[mid..].copy_from_slice(&right);
    }
    Some(mid)
}

/// Split a leaf at the median of every dimension (fanout 2^d). Returns the
/// number of children created (0 when the leaf is indivisible).
fn expand_leaf(table: &Table, build: &mut KdBuild, leaf: usize) -> usize {
    let (start, end, depth) = {
        let node = &build.nodes[leaf];
        (node.start, node.end, node.depth)
    };
    if end - start < 2 {
        return 0;
    }
    let d = table.dims();
    // A leaf whose bounding box is a single point is indivisible: every
    // split would create identical overlapping children.
    {
        let rect = &build.nodes[leaf].rect;
        if (0..d).all(|dim| rect.lo(dim) == rect.hi(dim)) {
            return 0;
        }
    }
    // Recursively median-split the range across dims 0..d. Splits are
    // *value-based*: rows sharing the boundary value never straddle a
    // split, so sibling bounding boxes are disjoint in the split dimension
    // (a geometric invariant AQP++'s covered-region test relies on).
    let mut ranges = vec![(start, end)];
    for dim in 0..d {
        let col = table.predicate_column(dim);
        let mut next = Vec::with_capacity(ranges.len() * 2);
        for (s, e) in ranges {
            match median_split(col, &mut build.perm[s..e]) {
                Some(mid) => next.extend([(s, s + mid), (s + mid, e)]),
                // Every row shares this dimension's value: no split here.
                None => next.push((s, e)),
            }
        }
        ranges = next;
    }
    // Degenerate check: if splitting achieved nothing (all coordinates
    // equal), every range but one is empty.
    let nonempty: Vec<(usize, usize)> = ranges.into_iter().filter(|(s, e)| e > s).collect();
    if nonempty.len() < 2 {
        return 0;
    }
    let mut created = 0;
    for (s, e) in nonempty {
        let rect = bounding_rect(table, &build.perm[s..e]);
        build.nodes.push(KdNodeInfo {
            rect,
            start: s,
            end: e,
            children: Vec::new(),
            depth: depth + 1,
        });
        let id = build.nodes.len() - 1;
        build.nodes[leaf].children.push(id);
        created += 1;
    }
    created
}

/// KD-PASS leaf choice: maximum cached approximate variance among leaves
/// whose expansion keeps the depth spread within `balance`. A lone
/// candidate — the root, always — wins without being scored.
fn pick_max_variance_leaf(
    table: &Table,
    build: &KdBuild,
    scores: &mut Vec<f64>,
    kind: AggKind,
    balance: usize,
) -> Option<usize> {
    let leaves = build.leaf_ids();
    let min_depth = leaves.iter().map(|&l| build.nodes[l].depth).min()?;
    scores.resize(build.nodes.len(), f64::NAN);
    // Expanding creates depth+1 leaves; keep max−min ≤ balance. A score of
    // −inf marks a leaf that turned out indivisible.
    let candidates: Vec<usize> = leaves
        .into_iter()
        .filter(|&l| {
            let node = &build.nodes[l];
            node.len() >= 2 && node.depth < min_depth + balance && scores[l] != f64::NEG_INFINITY
        })
        .collect();
    if let [only] = candidates[..] {
        return Some(only);
    }
    let mut best: Option<(usize, f64)> = None;
    for l in candidates {
        if scores[l].is_nan() {
            scores[l] = leaf_score(table, build, l, kind);
        }
        if best.is_none_or(|(_, b)| scores[l] > b) {
            best = Some((l, scores[l]));
        }
    }
    best.map(|(l, _)| l)
}

/// KD-US leaf choice: shallowest leaf, random tie-break.
fn pick_shallowest_leaf<R: Rng>(build: &KdBuild, rng: &mut R) -> Option<usize> {
    let leaves: Vec<usize> = build
        .leaf_ids()
        .into_iter()
        .filter(|&l| build.nodes[l].len() >= 2)
        .collect();
    let min_depth = leaves.iter().map(|&l| build.nodes[l].depth).min()?;
    let shallowest: Vec<usize> = leaves
        .into_iter()
        .filter(|&l| build.nodes[l].depth == min_depth)
        .collect();
    shallowest.get(rng.gen_range(0..shallowest.len())).copied()
}

/// Approximate max query variance inside a leaf — the multi-dimensional
/// median-split discretization (Lemma A.3 generalizes to any equal-count
/// split): split the leaf's rows at the median of its widest dimension and
/// score both halves with the Section 4.2.1 formulas.
fn leaf_score(table: &Table, build: &KdBuild, leaf: usize, kind: AggKind) -> f64 {
    let node = &build.nodes[leaf];
    let rows = &build.perm[node.start..node.end];
    let n_i = rows.len();
    if n_i < 2 {
        return f64::NEG_INFINITY;
    }
    // AVG: use Appendix A.4's second algorithm (δm-leaf k-d scoring),
    // with δm scaled to the leaf so every leaf remains scoreable.
    if kind == AggKind::Avg {
        let delta_m = (n_i / 16).clamp(2, 256);
        if let Some(result) = crate::maxvar::max_avg_variance_kd(table, rows, delta_m) {
            return result.variance;
        }
        // Leaf too small for the k-d routine: fall through to the
        // median-split score below.
    }
    // Widest dimension of the bounding box, the last of several equally
    // wide. A column that is all `+inf` (or all `-inf`) has the width
    // `inf − inf`: NaN, counted as the zero it is. Widths are then never
    // negative, so the total order agrees with `<` on every pair.
    let width = |dim: usize| {
        let w = node.rect.hi(dim) - node.rect.lo(dim);
        if w.is_nan() {
            0.0
        } else {
            w
        }
    };
    let dim = (0..table.dims())
        .max_by(|&a, &b| width(a).total_cmp(&width(b)))
        .unwrap_or(0);
    // Median split by that dimension (copy; scoring must not reorder perm).
    let col = table.predicate_column(dim);
    let mut order: Vec<u32> = rows.to_vec();
    let mid = n_i / 2;
    order.select_nth_unstable_by(mid, |&a, &b| cmp_cells(col[a as usize], col[b as usize]));
    let values = table.values();
    let score_half = |half: &[u32]| -> f64 {
        let n_q = half.len() as f64;
        if n_q == 0.0 {
            return 0.0;
        }
        let (mut s, mut s2) = (0.0, 0.0);
        for &r in half {
            let v = values[r as usize];
            s += v;
            s2 += v * v;
        }
        let scatter = (n_i as f64 * s2 - s * s).max(0.0);
        match kind {
            AggKind::Sum => scatter / n_i as f64,
            AggKind::Avg => scatter / (n_i as f64 * n_q * n_q),
            AggKind::Count => n_q * (1.0 - n_q / n_i as f64),
            _ => 0.0,
        }
    };
    score_half(&order[..mid]).max(score_half(&order[mid..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_table::datasets::{taxi, uniform};

    fn two_dim_table(n: usize, seed: u64) -> Table {
        taxi(n, seed).project(&[1, 2]).unwrap()
    }

    /// `expand_leaf`, `pick_max_variance_leaf` and what they call, as they
    /// were before a split became one selection and one pass: two counting
    /// passes and an unconditional stable partition per split, every
    /// candidate scored, `table.predicate(dim, row)` per cell.
    mod reference {
        use super::super::*;

        /// Tight bounding rectangle of a set of rows.
        fn bounding_rect(table: &Table, rows: &[u32]) -> Rect {
            let d = table.dims();
            let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); d];
            for &r in rows {
                for (dim, b) in bounds.iter_mut().enumerate() {
                    let v = table.predicate(dim, r as usize);
                    if v < b.0 {
                        b.0 = v;
                    }
                    if v > b.1 {
                        b.1 = v;
                    }
                }
            }
            Rect::new(&bounds)
        }

        /// Split a leaf at the median of every dimension (fanout 2^d). Returns the
        /// number of children created (0 when the leaf is indivisible).
        pub fn expand_leaf(table: &Table, build: &mut KdBuild, leaf: usize) -> usize {
            let (start, end, depth) = {
                let node = &build.nodes[leaf];
                (node.start, node.end, node.depth)
            };
            if end - start < 2 {
                return 0;
            }
            let d = table.dims();
            // A leaf whose bounding box is a single point is indivisible: every
            // split would create identical overlapping children.
            {
                let rect = &build.nodes[leaf].rect;
                if (0..d).all(|dim| rect.lo(dim) == rect.hi(dim)) {
                    return 0;
                }
            }
            // Recursively median-split the range across dims 0..d. Splits are
            // *value-based*: rows sharing the boundary value never straddle a
            // split, so sibling bounding boxes are disjoint in the split dimension
            // (a geometric invariant AQP++'s covered-region test relies on).
            let mut ranges = vec![(start, end)];
            for dim in 0..d {
                let mut next = Vec::with_capacity(ranges.len() * 2);
                for (s, e) in ranges {
                    if e - s < 2 {
                        next.push((s, e));
                        continue;
                    }
                    let slice = &mut build.perm[s..e];
                    let target = (e - s) / 2;
                    slice.select_nth_unstable_by(target, |&a, &b| {
                        table
                            .predicate(dim, a as usize)
                            .partial_cmp(&table.predicate(dim, b as usize))
                            .expect("NaN predicate")
                    });
                    let pivot = table.predicate(dim, slice[target] as usize);
                    // Choose the tie-safe boundary (all `< pivot` left, or all
                    // `<= pivot` left) closest to the median.
                    let less = slice
                        .iter()
                        .filter(|&&r| table.predicate(dim, r as usize) < pivot)
                        .count();
                    let less_eq = slice
                        .iter()
                        .filter(|&&r| table.predicate(dim, r as usize) <= pivot)
                        .count();
                    let candidates = [less, less_eq];
                    let mid_local = candidates
                        .into_iter()
                        .filter(|&c| c > 0 && c < e - s)
                        .min_by_key(|&c| c.abs_diff(target));
                    let Some(mid_local) = mid_local else {
                        // Every row shares this dimension's value: no split here.
                        next.push((s, e));
                        continue;
                    };
                    // Stable two-way partition by the chosen threshold.
                    let threshold_is_less = mid_local == less;
                    let (mut left, mut right) = (Vec::new(), Vec::new());
                    for &r in slice.iter() {
                        let v = table.predicate(dim, r as usize);
                        let goes_left = if threshold_is_less {
                            v < pivot
                        } else {
                            v <= pivot
                        };
                        if goes_left {
                            left.push(r);
                        } else {
                            right.push(r);
                        }
                    }
                    let mid = s + left.len();
                    slice[..left.len()].copy_from_slice(&left);
                    slice[left.len()..].copy_from_slice(&right);
                    next.push((s, mid));
                    next.push((mid, e));
                }
                ranges = next;
            }
            // Degenerate check: if splitting achieved nothing (all coordinates
            // equal), every range but one is empty.
            let nonempty: Vec<(usize, usize)> = ranges.into_iter().filter(|(s, e)| e > s).collect();
            if nonempty.len() < 2 {
                return 0;
            }
            let mut created = 0;
            for (s, e) in nonempty {
                let rect = bounding_rect(table, &build.perm[s..e]);
                build.nodes.push(KdNodeInfo {
                    rect,
                    start: s,
                    end: e,
                    children: Vec::new(),
                    depth: depth + 1,
                });
                let id = build.nodes.len() - 1;
                build.nodes[leaf].children.push(id);
                created += 1;
            }
            created
        }

        /// KD-PASS leaf choice: maximum cached approximate variance among leaves
        /// whose expansion keeps the depth spread within `balance`.
        pub fn pick_max_variance_leaf(
            table: &Table,
            build: &KdBuild,
            scores: &mut Vec<f64>,
            kind: AggKind,
            balance: usize,
        ) -> Option<usize> {
            let leaves = build.leaf_ids();
            let min_depth = leaves.iter().map(|&l| build.nodes[l].depth).min()?;
            scores.resize(build.nodes.len(), f64::NAN);
            let mut best: Option<(usize, f64)> = None;
            for &l in &leaves {
                let node = &build.nodes[l];
                if node.len() < 2 {
                    continue;
                }
                // Expanding creates depth+1 leaves; keep max−min ≤ balance.
                if node.depth + 1 > min_depth + balance {
                    continue;
                }
                if scores[l].is_nan() {
                    scores[l] = leaf_score(table, build, l, kind);
                }
                if scores[l] == f64::NEG_INFINITY {
                    continue;
                }
                if best.is_none_or(|(_, b)| scores[l] > b) {
                    best = Some((l, scores[l]));
                }
            }
            best.map(|(l, _)| l)
        }

        /// Approximate max query variance inside a leaf — the multi-dimensional
        /// median-split discretization (Lemma A.3 generalizes to any equal-count
        /// split): split the leaf's rows at the median of its widest dimension and
        /// score both halves with the Section 4.2.1 formulas.
        fn leaf_score(table: &Table, build: &KdBuild, leaf: usize, kind: AggKind) -> f64 {
            let node = &build.nodes[leaf];
            let rows = &build.perm[node.start..node.end];
            let n_i = rows.len();
            if n_i < 2 {
                return f64::NEG_INFINITY;
            }
            // AVG: use Appendix A.4's second algorithm (δm-leaf k-d scoring),
            // with δm scaled to the leaf so every leaf remains scoreable.
            if kind == AggKind::Avg {
                let delta_m = (n_i / 16).clamp(2, 256);
                if let Some(result) = crate::maxvar::max_avg_variance_kd(table, rows, delta_m) {
                    return result.variance;
                }
                // Leaf too small for the k-d routine: fall through to the
                // median-split score below.
            }
            // Widest dimension of the bounding box.
            let dim = (0..table.dims())
                .max_by(|&a, &b| {
                    let wa = node.rect.hi(a) - node.rect.lo(a);
                    let wb = node.rect.hi(b) - node.rect.lo(b);
                    wa.partial_cmp(&wb).expect("finite widths")
                })
                .unwrap_or(0);
            // Median split by that dimension (copy; scoring must not reorder perm).
            let mut order: Vec<u32> = rows.to_vec();
            let mid = n_i / 2;
            order.select_nth_unstable_by(mid, |&a, &b| {
                table
                    .predicate(dim, a as usize)
                    .partial_cmp(&table.predicate(dim, b as usize))
                    .expect("NaN predicate")
            });
            let score_half = |half: &[u32]| -> f64 {
                let n_q = half.len() as f64;
                if n_q == 0.0 {
                    return 0.0;
                }
                let (mut s, mut s2) = (0.0, 0.0);
                for &r in half {
                    let v = table.value(r as usize);
                    s += v;
                    s2 += v * v;
                }
                let scatter = (n_i as f64 * s2 - s * s).max(0.0);
                match kind {
                    AggKind::Sum => scatter / n_i as f64,
                    AggKind::Avg => scatter / (n_i as f64 * n_q * n_q),
                    AggKind::Count => n_q * (1.0 - n_q / n_i as f64),
                    _ => 0.0,
                }
            };
            score_half(&order[..mid]).max(score_half(&order[mid..]))
        }
    }

    fn reference_build(
        table: &Table,
        max_leaves: usize,
        expansion: KdExpansion,
        seed: u64,
    ) -> Result<KdBuild> {
        grow(
            table,
            max_leaves,
            expansion,
            seed,
            reference::pick_max_variance_leaf,
            reference::expand_leaf,
        )
    }

    #[test]
    fn root_only_when_max_leaves_is_one() {
        let t = uniform(100, 1);
        let b = build_kd(&t, 1, KdExpansion::BreadthFirst, 0).unwrap();
        assert_eq!(b.n_leaves(), 1);
        assert_eq!(b.nodes.len(), 1);
    }

    #[test]
    fn children_partition_parent_rows() {
        let t = two_dim_table(500, 2);
        let b = build_kd(
            &t,
            16,
            KdExpansion::MaxVariance {
                kind: AggKind::Sum,
                balance: 2,
            },
            0,
        )
        .unwrap();
        for (id, node) in b.nodes.iter().enumerate() {
            if node.is_leaf() {
                continue;
            }
            let child_total: usize = node.children.iter().map(|&c| b.nodes[c].len()).sum();
            assert_eq!(child_total, node.len(), "node {id}");
            // Children ranges are contiguous and inside the parent.
            for &c in &node.children {
                assert!(b.nodes[c].start >= node.start);
                assert!(b.nodes[c].end <= node.end);
                assert_eq!(b.nodes[c].depth, node.depth + 1);
            }
        }
    }

    #[test]
    fn leaves_cover_all_rows_exactly_once() {
        let t = two_dim_table(300, 3);
        let b = build_kd(&t, 12, KdExpansion::BreadthFirst, 7).unwrap();
        let mut seen = vec![false; t.n_rows()];
        for l in b.leaf_ids() {
            for &r in b.rows_of(l) {
                assert!(!seen[r as usize], "row {r} in two leaves");
                seen[r as usize] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn rects_bound_their_rows() {
        let t = two_dim_table(400, 4);
        let b = build_kd(
            &t,
            20,
            KdExpansion::MaxVariance {
                kind: AggKind::Avg,
                balance: 2,
            },
            0,
        )
        .unwrap();
        for (id, node) in b.nodes.iter().enumerate() {
            for &r in &b.perm[node.start..node.end] {
                let point = t.point(r as usize);
                assert!(node.rect.contains_point(&point), "node {id} row {r}");
            }
        }
    }

    #[test]
    fn fanout_is_2_pow_d() {
        let t = two_dim_table(1000, 5);
        let b = build_kd(&t, 5, KdExpansion::BreadthFirst, 1).unwrap();
        let root = &b.nodes[b.root];
        assert_eq!(root.children.len(), 4, "2 dims → fanout 4");
    }

    #[test]
    fn balance_constraint_limits_depth_spread() {
        let t = two_dim_table(2000, 6);
        let b = build_kd(
            &t,
            64,
            KdExpansion::MaxVariance {
                kind: AggKind::Sum,
                balance: 2,
            },
            0,
        )
        .unwrap();
        let depths: Vec<usize> = b.leaf_ids().iter().map(|&l| b.nodes[l].depth).collect();
        let min = *depths.iter().min().unwrap();
        let max = *depths.iter().max().unwrap();
        assert!(max - min <= 2, "depth spread {min}..{max}");
    }

    #[test]
    fn breadth_first_is_near_perfectly_balanced() {
        let t = two_dim_table(2000, 7);
        let b = build_kd(&t, 16, KdExpansion::BreadthFirst, 3).unwrap();
        let depths: Vec<usize> = b.leaf_ids().iter().map(|&l| b.nodes[l].depth).collect();
        let min = *depths.iter().min().unwrap();
        let max = *depths.iter().max().unwrap();
        assert!(max - min <= 1, "breadth-first spread {min}..{max}");
    }

    #[test]
    fn max_variance_targets_volatile_region() {
        // 1-D table: calm first half, wild second half. The max-variance
        // expansion should refine the wild side more.
        let n = 1024;
        let keys: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    1.0
                } else {
                    ((i * 37) % 100) as f64
                }
            })
            .collect();
        let t = Table::one_dim(keys, values).unwrap();
        let b = build_kd(
            &t,
            8,
            KdExpansion::MaxVariance {
                kind: AggKind::Sum,
                balance: 8,
            },
            0,
        )
        .unwrap();
        let volatile_leaves = b
            .leaf_ids()
            .iter()
            .filter(|&&l| b.nodes[l].rect.lo(0) >= (n / 2) as f64 - 1.0)
            .count();
        let calm_leaves = b.n_leaves() - volatile_leaves;
        assert!(
            volatile_leaves > calm_leaves,
            "volatile {volatile_leaves} vs calm {calm_leaves}"
        );
    }

    #[test]
    fn sibling_boxes_are_value_disjoint_under_heavy_ties() {
        // Categorical-style dimension with few distinct values: sibling
        // bounding boxes must never overlap (ties cannot straddle splits).
        let n = 2_000;
        let keys: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64).collect();
        let other: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
        let t = Table::new(
            values,
            vec![keys, other],
            vec!["v".into(), "cat".into(), "x".into()],
        )
        .unwrap();
        let b = build_kd(&t, 32, KdExpansion::BreadthFirst, 1).unwrap();
        // Check all leaf pairs: their point sets are disjoint by
        // construction; their rects must not properly overlap (sharing at
        // most nothing, since splits are value-based).
        let leaves = b.leaf_ids();
        for (i, &a) in leaves.iter().enumerate() {
            for &c in &leaves[i + 1..] {
                let ra = &b.nodes[a].rect;
                let rc = &b.nodes[c].rect;
                // Disjoint in at least one dimension, strictly.
                let separated = (0..2).any(|d| ra.hi(d) < rc.lo(d) || rc.hi(d) < ra.lo(d));
                assert!(separated, "leaves {a} and {c} overlap: {ra:?} vs {rc:?}");
            }
        }
    }

    #[test]
    fn indivisible_data_terminates() {
        // All rows at the same point: nothing to split.
        let t = Table::one_dim(vec![5.0; 50], vec![1.0; 50]).unwrap();
        let b = build_kd(&t, 8, KdExpansion::BreadthFirst, 0).unwrap();
        assert_eq!(b.n_leaves(), 1);
        let b = build_kd(
            &t,
            8,
            KdExpansion::MaxVariance {
                kind: AggKind::Sum,
                balance: 2,
            },
            0,
        )
        .unwrap();
        assert_eq!(b.n_leaves(), 1);
    }

    /// FNV-1a over everything a `KdBuild` holds: `perm`, the root id, and
    /// every node's range, depth, children and rectangle bits.
    fn build_hash(b: &KdBuild) -> u64 {
        let mut words: Vec<u64> = b.perm.iter().map(|&r| u64::from(r)).collect();
        words.push(b.root as u64);
        for node in &b.nodes {
            words.extend([node.start as u64, node.end as u64, node.depth as u64]);
            words.push(node.children.len() as u64);
            words.extend(node.children.iter().map(|&c| c as u64));
            for dim in 0..node.rect.dims() {
                words.extend([node.rect.lo(dim).to_bits(), node.rect.hi(dim).to_bits()]);
            }
        }
        words.iter().fold(0xcbf29ce484222325_u64, |a, &w| {
            (a ^ w).wrapping_mul(0x100000001b3)
        })
    }

    #[test]
    fn builds_are_pinned_across_commits() {
        // The 3-D taxi build (KD-PASS, 256 leaves), hashed before a split
        // became one selection and one pass — the k-d counterpart of
        // `dp::adp`'s `cuts_are_pinned_across_commits`. The hash follows
        // `select_nth_unstable_by`'s row order: a toolchain that changes
        // it moves these, and the reference differential tells the two
        // causes apart.
        for (seed, expected) in [(7, 0x0ddcb058bbd03663_u64), (11, 0x939223c198d7474a)] {
            let t = taxi(50_000, seed).project(&[1, 2, 3]).unwrap();
            let b = build_kd(
                &t,
                256,
                KdExpansion::MaxVariance {
                    kind: AggKind::Sum,
                    balance: 2,
                },
                seed,
            )
            .unwrap();
            let hash = build_hash(&b);
            assert_eq!(hash, expected, "seed {seed}: build hash {hash:#018x}");
        }
    }

    fn table_of(columns: Vec<Vec<f64>>) -> Table {
        let n = columns[0].len();
        let values = (0..n).map(|i| ((i * 37) % 101) as f64 - 20.0).collect();
        let names = (0..=columns.len()).map(|c| format!("c{c}")).collect();
        Table::new(values, columns, names).unwrap()
    }

    /// `n` distinct keys in a scrambled order (`n` prime).
    fn scrambled(n: usize, step: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * step) % n) as f64).collect()
    }

    /// A dimension with five distinct values beside a tie-free one.
    fn categorical_table() -> Table {
        let n = 2_003;
        let cat = (0..n).map(|i| ((i * 7) % 5) as f64).collect();
        table_of(vec![cat, scrambled(n, 7_919)])
    }

    /// No two rows share a value in either dimension, and both boxes are
    /// equally wide — `leaf_score` takes the last of the widest.
    fn tie_free_table() -> Table {
        table_of(vec![scrambled(3_001, 7_919), scrambled(3_001, 1_301)])
    }

    fn differential_tables() -> Vec<(&'static str, Table)> {
        let n = 1_009;
        let zeros = [-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.0];
        let signed_zeros = (0..n).map(|i| zeros[(i * 5) % 7]).collect();
        // 30 % of the rows share the median's value.
        let plateau = scrambled(n, 389)
            .into_iter()
            .map(|k| {
                if (400.0..700.0).contains(&k) {
                    500.0
                } else {
                    k
                }
            })
            .collect();
        let some_infinite = scrambled(n, 271)
            .into_iter()
            .map(|k| match k as usize % 50 {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                _ => k,
            })
            .collect();
        let mut tables = vec![
            ("taxi 2-D", taxi(4_000, 3).project(&[1, 2]).unwrap()),
            ("taxi 3-D", taxi(4_000, 7).project(&[1, 2, 3]).unwrap()),
            (
                "taxi 5-D",
                taxi(4_000, 11).project(&[1, 2, 3, 4, 5]).unwrap(),
            ),
            ("categorical", categorical_table()),
            ("tie-free", tie_free_table()),
            (
                "signed zeros",
                table_of(vec![signed_zeros, scrambled(n, 31)]),
            ),
            (
                "all-equal column",
                table_of(vec![vec![5.0; n], scrambled(n, 97)]),
            ),
            (
                "duplicates at the median",
                table_of(vec![plateau, scrambled(n, 53)]),
            ),
            (
                "some infinite cells",
                table_of(vec![some_infinite, scrambled(n, 11)]),
            ),
        ];
        for n in [2, 3, 17] {
            tables.push(("tiny", table_of(vec![scrambled(n, 1), scrambled(n, 1)])));
        }
        tables
    }

    fn assert_same_build(a: &KdBuild, b: &KdBuild, ctx: &str) {
        assert_eq!(a.perm, b.perm, "{ctx}: perm");
        assert_eq!((a.root, a.nodes.len()), (b.root, b.nodes.len()), "{ctx}");
        for (id, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(
                (x.start, x.end, x.depth, &x.children),
                (y.start, y.end, y.depth, &y.children),
                "{ctx}: node {id}"
            );
            for dim in 0..x.rect.dims() {
                assert_eq!(
                    (x.rect.lo(dim).to_bits(), x.rect.hi(dim).to_bits()),
                    (y.rect.lo(dim).to_bits(), y.rect.hi(dim).to_bits()),
                    "{ctx}: node {id} dim {dim}"
                );
            }
        }
    }

    #[test]
    fn builds_match_the_two_pass_reference_exactly() {
        let max_variance = |kind| KdExpansion::MaxVariance { kind, balance: 2 };
        let expansions = [
            KdExpansion::BreadthFirst,
            max_variance(AggKind::Sum),
            max_variance(AggKind::Count),
            max_variance(AggKind::Avg),
        ];
        for (name, table) in differential_tables() {
            for expansion in expansions {
                for (leaves, seed) in [(7, 5), (64, 9)] {
                    let ctx = format!(
                        "{name} ({} rows), {expansion:?}, {leaves} leaves",
                        table.n_rows()
                    );
                    let built = build_kd(&table, leaves, expansion, seed).unwrap();
                    let expected = reference_build(&table, leaves, expansion, seed).unwrap();
                    assert_same_build(&built, &expected, &ctx);
                }
            }
        }
    }

    #[test]
    fn the_stable_partition_runs_only_when_ties_sit_on_the_wrong_side() {
        let repartitions = || REPARTITIONS.with(|c| c.replace(0));
        repartitions();
        // No ties, nothing to move — whatever the selection does.
        build_kd(&tie_free_table(), 64, KdExpansion::BreadthFirst, 1).unwrap();
        assert_eq!(repartitions(), 0);
        // Arrangements a selection at index 4 may leave (`<= 5` before it,
        // `>= 5` after), as (cells, split cells, left length, moved).
        let cases: [([f64; 8], [f64; 8], usize, usize); 3] = [
            // `<` and `<=` are equally near: `<` wins, and is in place.
            (
                [1., 2., 5., 5., 5., 5., 9., 7.],
                [1., 2., 5., 5., 5., 5., 9., 7.],
                2,
                0,
            ),
            // `<` wins; a 5 sits before the 2.
            (
                [1., 5., 2., 5., 5., 9., 5., 7.],
                [1., 2., 5., 5., 5., 9., 5., 7.],
                2,
                1,
            ),
            // `<=` is nearer; a 5 sits after the 9.
            (
                [1., 5., 5., 5., 5., 9., 5., 7.],
                [1., 5., 5., 5., 5., 5., 9., 7.],
                6,
                1,
            ),
        ];
        for (cells, split, mid, moved) in cases {
            // Row ids count down, so a row is not its own position.
            let col: Vec<f64> = cells.iter().rev().copied().collect();
            let mut rows: Vec<u32> = (0..8).rev().collect();
            assert_eq!(split_at_pivot(&col, &mut rows, 4), Some(mid), "{cells:?}");
            let after: Vec<f64> = rows.iter().map(|&r| col[r as usize]).collect();
            assert_eq!(after, split, "{cells:?}");
            // Stable: equal cells keep their order, so row ids still fall.
            let fives: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|&r| col[r as usize] == 5.0)
                .collect();
            assert!(fives.windows(2).all(|w| w[0] > w[1]), "{cells:?}: {rows:?}");
            assert_eq!(repartitions(), moved, "{cells:?}");
        }
        // One value throughout: no boundary.
        assert_eq!(split_at_pivot(&[3.0; 4], &mut [0, 1, 2, 3], 2), None);
    }

    #[test]
    fn a_nan_predicate_cell_is_a_typed_error() {
        for dim in 0..2 {
            let mut columns = vec![scrambled(211, 31), scrambled(211, 53)];
            columns[dim][100] = f64::NAN;
            let table = table_of(columns);
            for expansion in [
                KdExpansion::BreadthFirst,
                KdExpansion::MaxVariance {
                    kind: AggKind::Sum,
                    balance: 2,
                },
            ] {
                let err = build_kd(&table, 8, expansion, 0).unwrap_err();
                assert!(
                    matches!(err, PassError::InvalidParameter("predicates", _)),
                    "dim {dim}: {err}"
                );
            }
        }
    }

    #[test]
    fn a_column_of_one_infinity_counts_as_zero_width() {
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            for kind in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
                let table = table_of(vec![scrambled(211, 31), vec![inf; 211]]);
                let expansion = KdExpansion::MaxVariance { kind, balance: 2 };
                let b = build_kd(&table, 16, expansion, 0).unwrap();
                assert_eq!(b.n_leaves(), 16, "{inf} {kind}");
                // Only the finite dimension can be split: fanout 2.
                assert_eq!(b.nodes[b.root].children.len(), 2);
            }
        }
    }

    #[test]
    fn empty_table_rejected() {
        let t = Table::one_dim(vec![], vec![]).unwrap();
        assert!(build_kd(&t, 4, KdExpansion::BreadthFirst, 0).is_err());
    }
}
