//! φ-transform estimators (Section 2.1).
//!
//! SUM, COUNT, and AVG are all rewritten as averages of a transformed
//! attribute φ over the sample (Equation 1):
//!
//! * COUNT: `φ(t) = Predicate(t) · N`
//! * SUM:   `φ(t) = Predicate(t) · N · a`
//! * AVG:   `φ(t) = Predicate(t) · (K / K_pred) · a`   (Equation 2)
//!
//! The estimate is `mean(φ(S))` and its CI half-width is
//! `λ · sqrt(var(φ(S)) / K)` (Equation 4), scaled by the finite-population
//! correction `(N-K)/(N-1)` (footnote 1).
//!
//! This module is the *reference* implementation: row-at-a-time, written to
//! mirror the paper's equations. It is the oracle for the φ sums, not a
//! second implementation: every engine runs the allocation-free,
//! column-at-a-time kernels in [`crate::kernel`], which
//! `tests/kernel_contract.rs` pins bit-identical to these functions. Both
//! hand their sums to [`PointVariance::from_phi`], the one copy of the
//! interval formula, which this crate's `tests/exhaustive_oracle.rs`
//! checks over every sample of a small stratum. `pass-lint` rule `reference-only` keeps this
//! module's functions out of everything but tests and benches.

use pass_common::kahan::KahanSum;
use pass_common::{AggKind, Rect};

use crate::kernel::PointVariance;
use crate::sample::Sample;

/// Estimate `agg` over the population the sample represents, restricted to
/// the rows matching `rect`.
///
/// Returns `None` for AVG when no sampled tuple matches (the estimator is
/// undefined — Section 2.1's selectivity pitfall); SUM/COUNT estimate 0 with
/// zero variance in that case (every φ value in the sample is 0, so the
/// empirical variance genuinely is 0 — this is precisely the "unreliable CI
/// at small effective sample size" phenomenon the paper discusses).
pub fn estimate(agg: AggKind, sample: &Sample, rect: &Rect) -> Option<PointVariance> {
    let k = sample.k();
    let n = sample.population() as f64;
    let rows = sample.rows();

    // Materialize φ explicitly — the readable form the kernels replicate
    // addition-for-addition without this Vec.
    let mut phi = Vec::with_capacity(k);
    let mut k_pred = 0u64;
    match agg {
        AggKind::Count => {
            for i in 0..k {
                if rows.matches(rect, i) {
                    k_pred += 1;
                    phi.push(n);
                } else {
                    phi.push(0.0);
                }
            }
        }
        AggKind::Sum => {
            for i in 0..k {
                if rows.matches(rect, i) {
                    k_pred += 1;
                    phi.push(n * rows.value(i));
                } else {
                    phi.push(0.0);
                }
            }
        }
        AggKind::Avg => {
            // Two passes: K_pred first, then the scaling (infinite with no
            // match, when it scales nothing and `from_phi` answers `None`).
            for i in 0..k {
                if rows.matches(rect, i) {
                    k_pred += 1;
                }
            }
            let scale = k as f64 / k_pred as f64;
            for i in 0..k {
                if rows.matches(rect, i) {
                    phi.push(scale * rows.value(i));
                } else {
                    phi.push(0.0);
                }
            }
        }
        AggKind::Min | AggKind::Max => return estimate_minmax(agg, sample, rect),
    }

    // The sums the kernels replicate; `from_phi` turns them into the answer.
    let mean = KahanSum::sum_iter(phi.iter().copied()) / k as f64;
    let ss = KahanSum::sum_iter(phi.iter().map(|&p| (p - mean) * (p - mean)));
    PointVariance::from_phi(agg, k, k_pred, sample.population(), phi.iter().sum(), ss)
}

/// Sample-based MIN/MAX estimate: the extremum of the matching sampled
/// values. No CLT variance exists for extrema; variance is reported as 0 and
/// engines should pair this with deterministic hard bounds when available.
pub fn estimate_minmax(agg: AggKind, sample: &Sample, rect: &Rect) -> Option<PointVariance> {
    debug_assert!(matches!(agg, AggKind::Min | AggKind::Max));
    let rows = sample.rows();
    let mut best: Option<f64> = None;
    let mut k_pred = 0u64;
    for i in 0..sample.k() {
        if !rows.matches(rect, i) {
            continue;
        }
        k_pred += 1;
        let v = rows.value(i);
        best = Some(match (best, agg) {
            (None, _) => v,
            (Some(b), AggKind::Min) => b.min(v),
            (Some(b), _) => b.max(v),
        });
    }
    best.map(|value| PointVariance {
        value,
        variance: 0.0,
        k_pred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::rng_from_seed;
    use pass_common::{Query, LAMBDA_99};
    use pass_table::datasets::uniform;
    use pass_table::Table;

    /// Full-table "sample": estimators must become exact (FPC = 0).
    #[test]
    fn full_sample_is_exact_with_zero_variance() {
        let t = uniform(300, 1);
        let mut rng = rng_from_seed(2);
        let s = Sample::uniform(&t, 300, &mut rng).unwrap();
        let rect = Rect::interval(0.2, 0.8);
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let pv = estimate(agg, &s, &rect).unwrap();
            let truth = t.ground_truth(&Query::new(agg, rect.clone())).unwrap();
            assert!(
                (pv.value - truth).abs() < 1e-6 * truth.abs().max(1.0),
                "{agg}: {} vs truth {truth}",
                pv.value
            );
            assert!(pv.variance.abs() < 1e-9, "{agg} variance {}", pv.variance);
        }
    }

    #[test]
    fn estimates_are_unbiased_over_many_draws() {
        let t = uniform(2_000, 3);
        let rect = Rect::interval(0.25, 0.75);
        let q = Query::new(AggKind::Sum, rect.clone());
        let truth = t.ground_truth(&q).unwrap();
        let mut acc = 0.0;
        let trials = 300;
        for trial in 0..trials {
            let mut rng = rng_from_seed(100 + trial);
            let s = Sample::uniform(&t, 200, &mut rng).unwrap();
            acc += estimate(AggKind::Sum, &s, &rect).unwrap().value;
        }
        let mean = acc / trials as f64;
        assert!(
            (mean - truth).abs() / truth < 0.02,
            "mean of estimates {mean} vs truth {truth}"
        );
    }

    #[test]
    fn ci_coverage_near_nominal() {
        // 99% CI should cover the truth in the vast majority of trials.
        let t = uniform(5_000, 4);
        let rect = Rect::interval(0.1, 0.9);
        let q = Query::new(AggKind::Avg, rect.clone());
        let truth = t.ground_truth(&q).unwrap();
        let trials = 200;
        let mut covered = 0;
        for trial in 0..trials {
            let mut rng = rng_from_seed(500 + trial);
            let s = Sample::uniform(&t, 400, &mut rng).unwrap();
            let pv = estimate(AggKind::Avg, &s, &rect).unwrap();
            let half = LAMBDA_99 * pv.variance.sqrt();
            if (pv.value - truth).abs() <= half {
                covered += 1;
            }
        }
        assert!(
            covered as f64 / trials as f64 > 0.95,
            "coverage {covered}/{trials}"
        );
    }

    #[test]
    fn avg_with_no_matching_sample_is_none() {
        let t = uniform(100, 5);
        let mut rng = rng_from_seed(6);
        let s = Sample::uniform(&t, 10, &mut rng).unwrap();
        let empty_rect = Rect::interval(5.0, 6.0); // outside [0,1)
        assert!(estimate(AggKind::Avg, &s, &empty_rect).is_none());
        let sum = estimate(AggKind::Sum, &s, &empty_rect).unwrap();
        assert_eq!(sum.value, 0.0);
        assert_eq!(sum.k_pred, 0);
    }

    #[test]
    fn empty_sample_semantics() {
        let t = uniform(10, 7);
        let s = Sample::from_indices(&t, &[], 10).unwrap();
        let rect = Rect::interval(0.0, 1.0);
        assert_eq!(estimate(AggKind::Sum, &s, &rect).unwrap().value, 0.0);
        assert!(estimate(AggKind::Avg, &s, &rect).is_none());
        assert!(estimate(AggKind::Min, &s, &rect).is_none());
    }

    #[test]
    fn count_scaling_matches_selectivity() {
        // Hand-built table: 10 rows, predicate 0..10. Sample half.
        let t = Table::one_dim((0..10).map(|i| i as f64).collect(), vec![1.0; 10]).unwrap();
        let s = Sample::from_indices(&t, &[0, 2, 4, 6, 8], 10).unwrap();
        // Predicate matches keys < 5: sampled keys 0,2,4 → 3 of 5 → est 6.
        let pv = estimate(AggKind::Count, &s, &Rect::interval(0.0, 4.5)).unwrap();
        assert_eq!(pv.value, 6.0);
        assert_eq!(pv.k_pred, 3);
    }

    #[test]
    fn minmax_estimates_from_matching_rows() {
        let t = Table::one_dim(
            (0..6).map(|i| i as f64).collect(),
            vec![10.0, 50.0, 20.0, 40.0, 30.0, 60.0],
        )
        .unwrap();
        let s = Sample::from_indices(&t, &[1, 3, 5], 6).unwrap();
        let rect = Rect::interval(0.0, 4.0); // keys 1 and 3 match
        let mn = estimate(AggKind::Min, &s, &rect).unwrap();
        let mx = estimate(AggKind::Max, &s, &rect).unwrap();
        assert_eq!(mn.value, 40.0);
        assert_eq!(mx.value, 50.0);
        assert_eq!(mn.k_pred, 2);
    }
}
