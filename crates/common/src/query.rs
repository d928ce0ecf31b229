//! Rectangular queries over the predicate space.
//!
//! The paper restricts the query class `Q` to "rectangular region" predicates
//! `x_i <= C_i <= y_i` for each predicate column `C_i` (Section 3.1/4.1).
//! [`Rect`] models such a region with inclusive bounds; [`Query`] pairs a
//! rectangle with an aggregate kind. The geometric relation between a query
//! rectangle and a partition rectangle drives the MCF classification into
//! covered / partial / none (Section 2.3).

use crate::agg::AggKind;
use crate::error::{PassError, Result};
use crate::estimate::Estimate;

/// Dimensions a [`Rect`] keeps inline. One, two and three dimensions are
/// every query the benchmark's workloads ask, and three pairs make a
/// [`Query`] (and the cache key holding one) exactly one 64-byte cache
/// line. Keys are stored by value in the result cache, so capacity is
/// paid for per entry: a fourth pair measured ~55 ns more per cache
/// miss-and-insert.
const INLINE_DIMS: usize = 3;

/// The one coordinate container: per-dimension `(lo, hi)` pairs, inline
/// up to [`INLINE_DIMS`] dimensions and on the heap beyond. Which side a
/// rectangle sits on is a function of its arity alone, and everything
/// reads through [`Coords::pairs`], so the padding of the inline array
/// is never observed.
#[derive(Clone)]
enum Coords {
    Inline {
        dims: u8,
        pairs: [(f64, f64); INLINE_DIMS],
    },
    Spilled(Box<[(f64, f64)]>),
}

impl Coords {
    /// Collect `dims` pairs (`pairs` yields exactly that many).
    fn from_pairs(dims: usize, pairs: impl Iterator<Item = (f64, f64)>) -> Self {
        if dims > INLINE_DIMS {
            return Coords::Spilled(pairs.collect());
        }
        let mut inline = [(0.0, 0.0); INLINE_DIMS];
        for (slot, pair) in inline.iter_mut().zip(pairs) {
            *slot = pair;
        }
        Coords::Inline {
            dims: dims as u8,
            pairs: inline,
        }
    }

    #[inline]
    fn pairs(&self) -> &[(f64, f64)] {
        match self {
            // `dims <= INLINE_DIMS`: `from_pairs` is the only constructor.
            Coords::Inline { dims, pairs } => &pairs[..usize::from(*dims)],
            Coords::Spilled(pairs) => pairs,
        }
    }

    #[inline]
    fn pairs_mut(&mut self) -> &mut [(f64, f64)] {
        match self {
            Coords::Inline { dims, pairs } => &mut pairs[..usize::from(*dims)],
            Coords::Spilled(pairs) => pairs,
        }
    }
}

/// An axis-aligned rectangle with inclusive bounds, one interval per
/// predicate dimension. A partition condition ψ and a query predicate are
/// both rectangles.
///
/// The bounds of up to three dimensions live **inline** in the value, so
/// building, cloning and dropping such a rectangle (and the [`Query`] or
/// cache key holding it) never touches the heap; a rectangle of more
/// dimensions **spills** its bounds into one heap block and behaves
/// identically. Equality compares the live dimensions only, as `f64`s
/// (`0.0 == -0.0`); rectangles of different arity are never equal.
#[derive(Clone)]
pub struct Rect {
    coords: Coords,
}

impl std::fmt::Debug for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Rect").field(&self.bounds()).finish()
    }
}

impl PartialEq for Rect {
    fn eq(&self, other: &Self) -> bool {
        self.bounds() == other.bounds()
    }
}

/// How a partition rectangle relates to a query rectangle (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectRelation {
    /// Every tuple in the partition satisfies the predicate
    /// (partition ⊆ query).
    Covered,
    /// No tuple in the partition can satisfy the predicate.
    Disjoint,
    /// Some tuples may satisfy the predicate.
    Partial,
}

impl Rect {
    /// Build from per-dimension inclusive `(lo, hi)` pairs.
    ///
    /// # Panics
    /// Panics when a dimension has `lo > hi` or a NaN bound — a malformed
    /// rectangle is a programming error, not a data error.
    pub fn new(bounds: &[(f64, f64)]) -> Self {
        for &(l, h) in bounds {
            assert!(!l.is_nan() && !h.is_nan(), "NaN rectangle bound");
            assert!(l <= h, "rectangle bound lo {l} > hi {h}");
        }
        Self {
            coords: Coords::from_pairs(bounds.len(), bounds.iter().copied()),
        }
    }

    /// One-dimensional interval `[lo, hi]`.
    pub fn interval(lo: f64, hi: f64) -> Self {
        Self::new(&[(lo, hi)])
    }

    /// The degenerate "whole space" rectangle (ψ = True for the tree root).
    pub fn whole(dims: usize) -> Self {
        let open = (f64::NEG_INFINITY, f64::INFINITY);
        Self {
            coords: Coords::from_pairs(dims, std::iter::repeat_n(open, dims)),
        }
    }

    /// The `(lo, hi)` pair of every dimension, in order.
    #[inline]
    pub(crate) fn bounds(&self) -> &[(f64, f64)] {
        self.coords.pairs()
    }

    /// Number of predicate dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.bounds().len()
    }

    /// Inclusive lower bound of dimension `d`.
    #[inline]
    pub fn lo(&self, d: usize) -> f64 {
        self.bounds()[d].0
    }

    /// Inclusive upper bound of dimension `d`.
    #[inline]
    pub fn hi(&self, d: usize) -> f64 {
        self.bounds()[d].1
    }

    /// Does the rectangle contain the point (one coordinate per dimension)?
    #[inline]
    pub fn contains_point(&self, point: &[f64]) -> bool {
        debug_assert_eq!(point.len(), self.dims());
        self.bounds()
            .iter()
            .zip(point)
            .all(|(&(l, h), &p)| l <= p && p <= h)
    }

    /// Is `other` entirely inside `self`?
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        self.bounds()
            .iter()
            .zip(other.bounds())
            .all(|(&(sl, sh), &(ol, oh))| sl <= ol && oh <= sh)
    }

    /// Do the rectangles share at least one point?
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        self.bounds()
            .iter()
            .zip(other.bounds())
            .all(|(&(sl, sh), &(ol, oh))| sl <= oh && ol <= sh)
    }

    /// Classify `self` (a partition) against `query` for the MCF trichotomy.
    pub fn relation_to(&self, query: &Rect) -> RectRelation {
        if !self.intersects(query) {
            RectRelation::Disjoint
        } else if query.contains_rect(self) {
            RectRelation::Covered
        } else {
            RectRelation::Partial
        }
    }

    /// Restrict dimension `d` to `[lo, hi] ∩ [self.lo(d), self.hi(d)]`,
    /// producing a child partition condition (conjunction with the parent ψ).
    pub fn narrowed(&self, d: usize, lo: f64, hi: f64) -> Self {
        let mut out = self.clone();
        let pair = &mut out.coords.pairs_mut()[d];
        *pair = (pair.0.max(lo), pair.1.min(hi));
        assert!(pair.0 <= pair.1, "narrowing produced empty interval");
        out
    }

    /// Smallest rectangle containing both (disjunction of sibling ψ's, used
    /// when deriving the parent from children).
    pub fn union(&self, other: &Rect) -> Self {
        debug_assert_eq!(other.dims(), self.dims());
        let pairs = self
            .bounds()
            .iter()
            .zip(other.bounds())
            .map(|(&(sl, sh), &(ol, oh))| (sl.min(ol), sh.max(oh)));
        Self {
            coords: Coords::from_pairs(self.dims().min(other.dims()), pairs),
        }
    }
}

/// An aggregate query: `SELECT agg(A) FROM P WHERE rect` (Section 3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Which aggregate to compute.
    pub agg: AggKind,
    /// The rectangular predicate (one inclusive interval per dimension).
    pub rect: Rect,
}

impl Query {
    /// An aggregate query over a rectangular predicate.
    pub fn new(agg: AggKind, rect: Rect) -> Self {
        Self { agg, rect }
    }

    /// Convenience constructor for the common 1-D case.
    pub fn interval(agg: AggKind, lo: f64, hi: f64) -> Self {
        Self::new(agg, Rect::interval(lo, hi))
    }

    /// Number of predicate dimensions.
    pub fn dims(&self) -> usize {
        self.rect.dims()
    }
}

/// A group-by aggregate query (paper Section 4.5): `SELECT agg(A) ...
/// WHERE base GROUP BY dim`, restricted to categorical group columns so
/// every group rewrites to one equality rectangle per category.
///
/// `base` constrains the remaining dimensions (its bounds on `dim` are
/// overwritten per group); `categories` are the distinct codes to
/// aggregate, one [`GroupResult`] each, in order.
///
/// ```
/// use pass_common::{AggKind, GroupByQuery};
///
/// let q = GroupByQuery::over(AggKind::Sum, 0, &[0.0, 1.0, 2.0], 1);
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.query_for(1.0).unwrap().rect.lo(0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByQuery {
    /// Which aggregate to compute per group.
    pub agg: AggKind,
    /// The (categorical) predicate dimension grouped over.
    pub dim: usize,
    /// The distinct category codes, one result row each, in order.
    pub categories: Vec<f64>,
    /// Bounds on the remaining dimensions (pass the bounding rectangle,
    /// or [`Rect::whole`], for an unfiltered group-by); its interval on
    /// [`dim`](Self::dim) is overwritten per group.
    pub base: Rect,
}

impl GroupByQuery {
    /// A group-by over `categories` of dimension `dim`, filtered by
    /// `base` on the remaining dimensions.
    pub fn new(agg: AggKind, dim: usize, categories: &[f64], base: Rect) -> Self {
        Self {
            agg,
            dim,
            categories: categories.to_vec(),
            base,
        }
    }

    /// An unfiltered group-by over a `dims`-dimensional predicate space
    /// (`base` = [`Rect::whole`]).
    pub fn over(agg: AggKind, dim: usize, categories: &[f64], dims: usize) -> Self {
        Self::new(agg, dim, categories, Rect::whole(dims))
    }

    /// Number of groups (one [`GroupResult`] per category).
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// Whether the query has no categories (answered as zero rows).
    pub fn is_empty(&self) -> bool {
        self.categories.is_empty()
    }

    /// Validate against a synopsis of `dims` predicate dimensions: the
    /// base rectangle must match the arity, the group dimension must be
    /// in range, and category codes must be comparable (no NaN).
    /// [`estimate_group_by`](crate::estimate_group_by) runs this before
    /// touching the engine, and a served group-by runs it before it
    /// submits [`queries`](Self::queries), so rule errors are identical
    /// across direct/cached/sharded/served answers.
    pub fn validate(&self, dims: usize) -> Result<()> {
        if self.base.dims() != dims {
            return Err(PassError::DimensionMismatch {
                expected: dims,
                got: self.base.dims(),
            });
        }
        if self.dim >= dims {
            return Err(PassError::InvalidParameter(
                "dim",
                format!("group-by dimension {} out of range 0..{dims}", self.dim),
            ));
        }
        if self.categories.iter().any(|c| c.is_nan()) {
            return Err(nan_category());
        }
        Ok(())
    }

    /// The per-group selection query: the equality rectangle
    /// `dim = key`, base bounds elsewhere. A NaN `key` is the
    /// [`validate`](Self::validate) error, not a malformed rectangle.
    pub fn query_for(&self, key: f64) -> Result<Query> {
        if key.is_nan() {
            return Err(nan_category());
        }
        let bounds: Vec<(f64, f64)> = (0..self.base.dims())
            .map(|d| {
                if d == self.dim {
                    (key, key)
                } else {
                    (self.base.lo(d), self.base.hi(d))
                }
            })
            .collect();
        Ok(Query::new(self.agg, Rect::new(&bounds)))
    }

    /// Every group's selection query, in category order, or the
    /// [`validate`](Self::validate) error of a NaN category.
    pub fn queries(&self) -> Result<Vec<Query>> {
        self.categories.iter().map(|&k| self.query_for(k)).collect()
    }

    /// The answer rows: `answers` are an engine's answers to
    /// [`queries`](Self::queries), in order; each becomes its category's
    /// [`GroupResult`] with the group availability rule
    /// ([`apply_group_availability`]) applied.
    pub fn rows(&self, answers: Vec<Result<Estimate>>) -> Vec<GroupResult> {
        debug_assert_eq!(answers.len(), self.len());
        self.categories
            .iter()
            .zip(answers)
            .map(|(&key, estimate)| GroupResult {
                key,
                estimate: apply_group_availability(estimate),
            })
            .collect()
    }
}

/// The error of a NaN group-by category code.
fn nan_category() -> PassError {
    PassError::InvalidParameter(
        "categories",
        "group-by category codes must not be NaN".into(),
    )
}

/// One group's row in a group-by answer.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// The group key (the categorical code).
    pub key: f64,
    /// The estimate, or the rule error for groups the synopsis cannot
    /// answer (e.g. AVG of an empty group, or a group with no sampled
    /// evidence — see [`apply_group_availability`]).
    pub estimate: Result<Estimate>,
}

/// The group-by availability rule — the group-level analogue of the
/// sharded silent-shard rule.
///
/// A sampling engine whose sample holds **zero rows of a group** answers
/// SUM/COUNT with a *silent zero*: `0 ± 0`, not exact, no hard bounds —
/// an answer that claims certainty on zero evidence (the group may hold
/// thousands of unsampled rows). Inside a group-by that is
/// indistinguishable from a genuinely empty group, so group-by rows
/// ([`GroupByQuery::rows`]) convert it to the same rule error
/// evidence-free AVG/MIN/MAX already surface. The rule reads the
/// outermost engine's answer only: a cache stores the raw estimate, and
/// a sharded engine merges its shards' raw answers first (silent zeros
/// add nothing and carry no bounds), so the row errs exactly when no
/// shard holds evidence — and layered paths (cached over sharded over
/// the engine) agree bit-for-bit.
///
/// Answers with any exactness claim, uncertainty, or hard bounds pass
/// through untouched, and the conversion is idempotent.
pub fn apply_group_availability(result: Result<Estimate>) -> Result<Estimate> {
    match result {
        Ok(est)
            if !est.exact
                && est.value == 0.0
                && est.ci_half == 0.0
                && est.hard_bounds.is_none() =>
        {
            Err(PassError::EmptyInput(
                "no sampled tuple matches the predicate",
            ))
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_point() {
        let r = Rect::interval(2.0, 5.0);
        assert!(r.contains_point(&[2.0]));
        assert!(r.contains_point(&[5.0]));
        assert!(!r.contains_point(&[5.1]));
        assert!(!r.contains_point(&[1.9]));
    }

    #[test]
    #[should_panic(expected = "rectangle bound lo")]
    fn inverted_bounds_panic() {
        let _ = Rect::interval(5.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_bounds_panic() {
        let _ = Rect::interval(f64::NAN, 2.0);
    }

    #[test]
    fn relation_trichotomy_1d() {
        let q = Rect::interval(10.0, 20.0);
        assert_eq!(
            Rect::interval(12.0, 18.0).relation_to(&q),
            RectRelation::Covered
        );
        assert_eq!(
            Rect::interval(10.0, 20.0).relation_to(&q),
            RectRelation::Covered
        );
        assert_eq!(
            Rect::interval(21.0, 30.0).relation_to(&q),
            RectRelation::Disjoint
        );
        assert_eq!(
            Rect::interval(5.0, 15.0).relation_to(&q),
            RectRelation::Partial
        );
        assert_eq!(
            Rect::interval(5.0, 25.0).relation_to(&q),
            RectRelation::Partial
        );
    }

    #[test]
    fn relation_trichotomy_2d() {
        let q = Rect::new(&[(0.0, 10.0), (0.0, 10.0)]);
        let inside = Rect::new(&[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(inside.relation_to(&q), RectRelation::Covered);
        let off_in_one_dim = Rect::new(&[(1.0, 2.0), (11.0, 12.0)]);
        assert_eq!(off_in_one_dim.relation_to(&q), RectRelation::Disjoint);
        let straddle = Rect::new(&[(5.0, 15.0), (5.0, 9.0)]);
        assert_eq!(straddle.relation_to(&q), RectRelation::Partial);
    }

    #[test]
    fn touching_boundaries_intersect() {
        // Inclusive bounds: sharing a single point counts as intersection.
        let a = Rect::interval(0.0, 5.0);
        let b = Rect::interval(5.0, 9.0);
        assert!(a.intersects(&b));
        assert_eq!(b.relation_to(&a), RectRelation::Partial);
    }

    #[test]
    fn whole_space_covers_everything() {
        let root = Rect::whole(3);
        let q = Rect::new(&[(0.0, 1.0), (-5.0, 5.0), (2.0, 2.0)]);
        assert!(root.contains_rect(&q));
        assert_eq!(q.relation_to(&root), RectRelation::Covered);
        assert_eq!(root.relation_to(&q), RectRelation::Partial);
    }

    #[test]
    fn narrowing_builds_children() {
        let parent = Rect::whole(2);
        let child = parent.narrowed(0, 0.0, 10.0).narrowed(1, -1.0, 1.0);
        assert_eq!(child.lo(0), 0.0);
        assert_eq!(child.hi(0), 10.0);
        assert_eq!(child.lo(1), -1.0);
        assert_eq!(child.hi(1), 1.0);
    }

    #[test]
    fn union_is_bounding_box() {
        let a = Rect::new(&[(0.0, 1.0), (0.0, 1.0)]);
        let b = Rect::new(&[(2.0, 3.0), (-1.0, 0.5)]);
        let u = a.union(&b);
        assert_eq!(u.lo(0), 0.0);
        assert_eq!(u.hi(0), 3.0);
        assert_eq!(u.lo(1), -1.0);
        assert_eq!(u.hi(1), 1.0);
    }

    #[test]
    fn query_constructors() {
        let q = Query::interval(AggKind::Avg, 1.0, 2.0);
        assert_eq!(q.dims(), 1);
        assert_eq!(q.agg, AggKind::Avg);
    }

    #[test]
    fn group_by_query_expands_to_equality_rectangles() {
        let base = Rect::new(&[(0.0, 10.0), (-1.0, 1.0)]);
        let q = GroupByQuery::new(AggKind::Count, 1, &[0.25, 0.5], base);
        assert!(q.validate(2).is_ok());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        let queries = q.queries().unwrap();
        assert_eq!(queries.len(), 2);
        // The group dimension collapses to the equality point; the other
        // dimension keeps the base bounds.
        assert_eq!(queries[0].rect.lo(1), 0.25);
        assert_eq!(queries[0].rect.hi(1), 0.25);
        assert_eq!(queries[0].rect.lo(0), 0.0);
        assert_eq!(queries[0].rect.hi(0), 10.0);
        assert_eq!(queries[1].agg, AggKind::Count);
    }

    #[test]
    fn a_nan_category_is_the_validation_error_not_a_panic() {
        let q = GroupByQuery::over(AggKind::Sum, 0, &[1.0, f64::NAN], 1);
        let invalid = q.validate(1).unwrap_err();
        assert_eq!(q.queries().unwrap_err(), invalid);
        assert_eq!(q.query_for(f64::NAN).unwrap_err(), invalid);
        assert!(q.query_for(1.0).is_ok());
    }

    #[test]
    fn group_by_validation_rejects_bad_shapes() {
        let q = GroupByQuery::over(AggKind::Sum, 0, &[1.0], 1);
        assert!(matches!(
            q.validate(2),
            Err(PassError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        let q = GroupByQuery::over(AggKind::Sum, 3, &[1.0], 2);
        assert!(matches!(
            q.validate(2),
            Err(PassError::InvalidParameter("dim", _))
        ));
        let q = GroupByQuery::over(AggKind::Sum, 0, &[f64::NAN], 1);
        assert!(matches!(
            q.validate(1),
            Err(PassError::InvalidParameter("categories", _))
        ));
        assert!(GroupByQuery::over(AggKind::Sum, 0, &[], 1)
            .validate(1)
            .is_ok());
    }

    #[test]
    fn availability_rule_converts_only_silent_zeros() {
        // The silent zero: inexact, zero value, zero CI, no bounds.
        let silent = Ok(Estimate::approximate(0.0, 0.0));
        assert!(matches!(
            apply_group_availability(silent),
            Err(PassError::EmptyInput(_))
        ));
        // An exact zero is a real (empty-group) answer.
        let exact = Ok(Estimate::exact(0.0));
        assert_eq!(apply_group_availability(exact).unwrap().value, 0.0);
        // Uncertainty or hard bounds are evidence; pass through.
        let with_ci = Ok(Estimate::approximate(0.0, 0.5));
        assert!(apply_group_availability(with_ci).is_ok());
        let with_bounds = Ok(Estimate::approximate(0.0, 0.0).with_hard_bounds(0.0, 9.0));
        assert!(apply_group_availability(with_bounds).is_ok());
        // Errors pass through unchanged (idempotent).
        let err: Result<Estimate> = Err(PassError::EmptyInput("x"));
        assert!(matches!(
            apply_group_availability(err),
            Err(PassError::EmptyInput("x"))
        ));
    }
}
