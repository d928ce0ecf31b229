//! Property tests for the foundation types: rectangle geometry (on both
//! sides of `Rect`'s inline capacity, against a `Vec`-backed reference),
//! cache-key identity, mergeable aggregates, prefix sums, and compensated
//! summation.

use std::hash::{DefaultHasher, Hash, Hasher};

use proptest::prelude::*;

use pass_common::{AggKind, Aggregates, KahanSum, PrefixSums, Query, QueryKey, Rect, RectRelation};

fn rect_1d() -> impl Strategy<Value = Rect> {
    (-100.0f64..100.0, 0.0f64..50.0).prop_map(|(lo, w)| Rect::interval(lo, lo + w))
}

fn rect_2d() -> impl Strategy<Value = Rect> {
    (
        -100.0f64..100.0,
        0.0f64..50.0,
        -100.0f64..100.0,
        0.0f64..50.0,
    )
        .prop_map(|(x, w, y, h)| Rect::new(&[(x, x + w), (y, y + h)]))
}

/// The rectangle as it was before its bounds moved inline: two `Vec`s and
/// the textbook definitions. `Rect` must agree with it at every arity.
#[derive(Debug, Clone, PartialEq)]
struct VecRect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl VecRect {
    fn new(bounds: &[(f64, f64)]) -> Self {
        Self {
            lo: bounds.iter().map(|b| b.0).collect(),
            hi: bounds.iter().map(|b| b.1).collect(),
        }
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.lo
            .iter()
            .copied()
            .zip(self.hi.iter().copied())
            .collect()
    }

    fn contains_point(&self, p: &[f64]) -> bool {
        (0..p.len()).all(|d| self.lo[d] <= p[d] && p[d] <= self.hi[d])
    }

    fn contains_rect(&self, o: &VecRect) -> bool {
        (0..self.lo.len()).all(|d| self.lo[d] <= o.lo[d] && o.hi[d] <= self.hi[d])
    }

    fn intersects(&self, o: &VecRect) -> bool {
        (0..self.lo.len()).all(|d| self.lo[d] <= o.hi[d] && o.lo[d] <= self.hi[d])
    }

    fn relation_to(&self, query: &VecRect) -> RectRelation {
        if !self.intersects(query) {
            RectRelation::Disjoint
        } else if query.contains_rect(self) {
            RectRelation::Covered
        } else {
            RectRelation::Partial
        }
    }
}

/// The `(lo, hi)` pairs `rect` reports through its accessors.
fn bounds_of(rect: &Rect) -> Vec<(f64, f64)> {
    (0..rect.dims()).map(|d| (rect.lo(d), rect.hi(d))).collect()
}

/// Bounds of 1 to 8 dimensions — the inline capacity (3) sits inside the
/// range — drawn from a few shared grid values, so touching, nested,
/// degenerate and signed-zero intervals all occur.
fn bounds_nd() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let coord = || {
        prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(1.0),
            Just(2.5),
            Just(-3.0),
            -10.0f64..10.0
        ]
    };
    (1usize..=8, prop::collection::vec((coord(), coord()), 8)).prop_map(|(dims, pairs)| {
        pairs[..dims]
            .iter()
            .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect()
    })
}

fn hash_of(key: &QueryKey) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

fn bits_of(query: &Query) -> (AggKind, Vec<(u64, u64)>) {
    let bits = bounds_of(&query.rect)
        .iter()
        .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
        .collect();
    (query.agg, bits)
}

proptest! {
    /// Construction, accessors, geometry and equality agree with the
    /// `Vec`-backed reference at every arity from 1 to 8.
    #[test]
    fn rect_agrees_with_the_vec_backed_reference(
        a in bounds_nd(),
        b in bounds_nd(),
        point in prop::collection::vec(-4.0f64..4.0, 8),
        narrow in (0usize..8, -0.5f64..1.0, 0.0f64..1.5),
    ) {
        // Give `b` the arity of `a`: the binary operations want one arity.
        let dims = a.len();
        let b: Vec<(f64, f64)> = (0..dims).map(|d| b[d % b.len()]).collect();
        let (ra, rb) = (Rect::new(&a), Rect::new(&b));
        let (va, vb) = (VecRect::new(&a), VecRect::new(&b));
        prop_assert_eq!(ra.dims(), dims);
        prop_assert_eq!(bounds_of(&ra), va.bounds());
        prop_assert_eq!(ra.clone(), ra.clone());
        prop_assert_eq!(ra == rb, va == vb);
        prop_assert_eq!(ra.contains_point(&point[..dims]), va.contains_point(&point[..dims]));
        prop_assert_eq!(ra.contains_rect(&rb), va.contains_rect(&vb));
        prop_assert_eq!(ra.intersects(&rb), va.intersects(&vb));
        prop_assert_eq!(ra.relation_to(&rb), va.relation_to(&vb));

        let union = ra.union(&rb);
        let want: Vec<(f64, f64)> = (0..dims)
            .map(|d| (a[d].0.min(b[d].0), a[d].1.max(b[d].1)))
            .collect();
        prop_assert_eq!(bounds_of(&union), want);

        let whole = Rect::whole(dims);
        prop_assert_eq!(
            bounds_of(&whole),
            vec![(f64::NEG_INFINITY, f64::INFINITY); dims]
        );
        prop_assert!(whole.contains_rect(&ra));

        // Narrow one dimension to a window that meets it: from a point
        // below or inside the interval to one inside or above it.
        let (d, from, to) = narrow;
        let d = d % dims;
        let width = a[d].1 - a[d].0;
        let lo = (a[d].0 + from * width).min(a[d].1);
        let hi = (a[d].0 + to * width).max(lo);
        let narrowed = ra.narrowed(d, lo, hi);
        let mut want = a.clone();
        want[d] = (a[d].0.max(lo), a[d].1.min(hi));
        prop_assert_eq!(bounds_of(&narrowed), want);
        // A different arity is a different rectangle, whatever the prefix.
        prop_assert_ne!(Rect::new(&a[..dims - 1]), ra);
    }

    /// `QueryKey` equality and hash are exactly bitwise equality of
    /// `(agg, bounds)`: the arity counts, the inline padding does not.
    #[test]
    fn query_key_identity_is_bitwise(
        a in bounds_nd(),
        b in bounds_nd(),
        aggs in (0usize..5, 0usize..5),
    ) {
        let qa = Query::new(AggKind::ALL[aggs.0], Rect::new(&a));
        let qb = Query::new(AggKind::ALL[aggs.1], Rect::new(&b));
        let (ka, kb) = (QueryKey::new(&qa), QueryKey::new(&qb));
        prop_assert_eq!(ka == kb, bits_of(&qa) == bits_of(&qb));
        // Equal keys hash equal, on either side of the inline capacity.
        let twin = QueryKey::new(&Query::new(qa.agg, Rect::new(&a)));
        prop_assert_eq!(&ka, &twin);
        prop_assert_eq!(hash_of(&ka), hash_of(&twin));
        prop_assert_eq!(hash_of(&ka), hash_of(&ka.clone()));
        if ka == kb {
            prop_assert_eq!(hash_of(&ka), hash_of(&kb));
        }
    }

    /// Containment implies intersection, and the relation classification is
    /// consistent with the primitive predicates.
    #[test]
    fn rect_relation_consistency(a in rect_2d(), b in rect_2d()) {
        if b.contains_rect(&a) {
            prop_assert!(a.intersects(&b));
            prop_assert_eq!(a.relation_to(&b), RectRelation::Covered);
        }
        if !a.intersects(&b) {
            prop_assert_eq!(a.relation_to(&b), RectRelation::Disjoint);
            prop_assert_eq!(b.relation_to(&a), RectRelation::Disjoint);
        }
        // Intersection is symmetric.
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    /// A rectangle always covers itself; the whole space covers everything.
    #[test]
    fn rect_self_and_whole(a in rect_2d()) {
        prop_assert_eq!(a.relation_to(&a), RectRelation::Covered);
        let whole = Rect::whole(2);
        prop_assert_eq!(a.relation_to(&whole), RectRelation::Covered);
        prop_assert!(whole.contains_rect(&a));
    }

    /// Union is the smallest box containing both operands.
    #[test]
    fn rect_union_contains_both(a in rect_1d(), b in rect_1d()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        // Minimality in 1-D: bounds touch one of the operands.
        prop_assert!(u.lo(0) == a.lo(0) || u.lo(0) == b.lo(0));
        prop_assert!(u.hi(0) == a.hi(0) || u.hi(0) == b.hi(0));
    }

    /// Aggregate merge is commutative and associative, and matches
    /// concatenation.
    #[test]
    fn aggregates_merge_laws(
        xs in prop::collection::vec(-1e3f64..1e3, 0..40),
        ys in prop::collection::vec(-1e3f64..1e3, 0..40),
        zs in prop::collection::vec(-1e3f64..1e3, 0..40),
    ) {
        let (a, b, c) = (
            Aggregates::from_values(&xs),
            Aggregates::from_values(&ys),
            Aggregates::from_values(&zs),
        );
        let ab = a.merge(&b);
        let ba = b.merge(&a);
        prop_assert!((ab.sum - ba.sum).abs() < 1e-9);
        prop_assert_eq!(ab.count, ba.count);
        prop_assert_eq!(ab.min, ba.min);
        prop_assert_eq!(ab.max, ba.max);

        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        prop_assert!((left.sum - right.sum).abs() < 1e-9);
        prop_assert_eq!(left.count, right.count);

        let concat: Vec<f64> = xs.iter().chain(&ys).copied().collect();
        let direct = Aggregates::from_values(&concat);
        prop_assert!((ab.sum - direct.sum).abs() < 1e-6);
        prop_assert_eq!(ab.count, direct.count);
        prop_assert_eq!(ab.min, direct.min);
        prop_assert_eq!(ab.max, direct.max);
    }

    /// Insert/remove round-trips leave SUM/COUNT unchanged.
    #[test]
    fn aggregates_insert_remove_roundtrip(
        base in prop::collection::vec(-1e3f64..1e3, 1..30),
        v in -1e3f64..1e3,
    ) {
        let mut a = Aggregates::from_values(&base);
        let before = a;
        a.insert(v);
        a.remove(v);
        prop_assert!((a.sum - before.sum).abs() < 1e-9);
        prop_assert_eq!(a.count, before.count);
        // Extrema stay conservative (bracketing the true ones).
        prop_assert!(a.min <= before.min);
        prop_assert!(a.max >= before.max);
    }

    /// Prefix sums reproduce arbitrary range sums.
    #[test]
    fn prefix_sums_arbitrary_ranges(
        values in prop::collection::vec(-1e4f64..1e4, 1..200),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let p = PrefixSums::build(&values);
        let n = values.len();
        let (mut lo, mut hi) = (((n as f64) * a) as usize, ((n as f64) * b) as usize);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let naive: f64 = values[lo..hi].iter().sum();
        prop_assert!((p.range_sum(lo, hi) - naive).abs() < 1e-6 * naive.abs().max(1.0));
        prop_assert!(p.scatter(lo, hi) >= 0.0, "scatter is clamped non-negative");
    }

    /// Kahan summation is at least as accurate as naive summation against
    /// an exact reference (integers, exactly representable).
    #[test]
    fn kahan_matches_exact_on_integers(values in prop::collection::vec(-1_000_000i64..1_000_000, 0..500)) {
        let exact: i64 = values.iter().sum();
        let kahan = KahanSum::sum_iter(values.iter().map(|&v| v as f64));
        prop_assert_eq!(kahan, exact as f64);
    }
}

/// The cases a padded inline array could get wrong, by name: signed
/// zeros are different keys (and equal rectangles), and a 1-D `[0, 0]`
/// is not a 2-D `[(0, 0), (0, 0)]` although both pad to the same bytes.
#[test]
fn query_keys_tell_signed_zeros_and_arities_apart() {
    let key = |bounds: &[(f64, f64)]| QueryKey::new(&Query::new(AggKind::Sum, Rect::new(bounds)));
    assert_eq!(Rect::interval(0.0, 0.0), Rect::interval(-0.0, 0.0));
    assert_ne!(key(&[(0.0, 0.0)]), key(&[(-0.0, 0.0)]));
    assert_ne!(key(&[(0.0, 0.0)]), key(&[(0.0, 0.0), (0.0, 0.0)]));
    assert_ne!(
        hash_of(&key(&[(0.0, 0.0)])),
        hash_of(&key(&[(0.0, 0.0), (0.0, 0.0)]))
    );
    assert_ne!(
        Rect::interval(0.0, 0.0),
        Rect::new(&[(0.0, 0.0), (0.0, 0.0)])
    );
    // The same holds across the spill boundary (3 inline, 4 spilled).
    let zeros = [(0.0, 0.0); 4];
    assert_ne!(key(&zeros[..3]), key(&zeros));
    assert_ne!(Rect::new(&zeros[..3]), Rect::new(&zeros));
    assert_eq!(key(&zeros), key(&zeros));
    assert_eq!(hash_of(&key(&zeros)), hash_of(&key(&zeros)));
    // The aggregate is part of the identity.
    let count = QueryKey::new(&Query::interval(AggKind::Count, 0.0, 0.0));
    assert_ne!(key(&[(0.0, 0.0)]), count);
}
