//! Merging disjoint parts' answers — the algebra behind sharded synopses.
//!
//! When one logical table is partitioned into disjoint shards (see
//! [`ShardPlan`](crate::ShardPlan)), each shard's engine answers a query
//! only for *its* rows. [`merge_available`] reduces the shards' plain
//! answers to one query into a single [`Estimate`] using the classic
//! stratified-estimator identities (cf. the sampling-algebra literature
//! in `PAPERS.md`):
//!
//! * **COUNT / SUM** — point estimates add exactly across disjoint
//!   shards, and the variances of independently built shards add, so the
//!   merged λ-CI half-width is the root-sum-square of the shard
//!   half-widths (each is λ·σᵢ, so RSS = λ·√Σσᵢ²).
//! * **MIN / MAX** — the extremum of the shard extrema; the winning
//!   shard's CI is kept.
//!
//! AVG is never merged shard by shard. Like PASS's own AVG over several
//! strata (paper §3.3), a sharded AVG asks every shard for COUNT and SUM,
//! merges each, and answers [`ratio`] of the two merged estimates once.
//!
//! Hard bounds compose soundly: SUM/COUNT bounds add, MIN/MAX bounds take
//! the corresponding extremum, and [`ratio`]'s AVG bounds are the corner
//! extremes of the SUM bounds over the COUNT bounds. A merged estimate
//! is `exact` only when every part was.
//!
//! The merge of a *single* answer returns it verbatim — so a 1-shard plan
//! is bit-identical to the unsharded engine, for every aggregate and
//! every engine. `tests/sharded_contract.rs` pins this together with the
//! K-shard additivity contract.

use std::cmp::Ordering;

use crate::agg::AggKind;
use crate::error::{PassError, Result};
use crate::estimate::Estimate;

/// One part's answer, wrapped for [`PartialEstimate::merge_available`].
///
/// A shim: the `benchmark` package names exactly these two calls, so they
/// delegate to the free [`merge_available`] until the benchmark moves off
/// them (ROADMAP item 2), and then the type goes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialEstimate(Estimate);

impl PartialEstimate {
    /// Wrap a part's own answer; the aggregate is named at the merge.
    pub fn from_local(_agg: AggKind, local: Estimate) -> Self {
        Self(local)
    }

    /// [`merge_available`] over wrapped answers.
    pub fn merge_available(agg: AggKind, parts: &[Result<PartialEstimate>]) -> Result<Estimate> {
        let parts: Vec<Result<Estimate>> = parts
            .iter()
            .map(|part| part.as_ref().map(|p| p.0.clone()).map_err(Clone::clone))
            .collect();
        merge_available(agg, &parts)
    }
}

/// Merge one query's answers from disjoint parts (one answer per part,
/// COUNT, SUM, MIN or MAX) under the stratified **availability rule**: a
/// part that failed with [`PassError::EmptyInput`] (the shard/stratum
/// could not match any tuple) contributes zero to COUNT/SUM and is
/// skipped for MIN/MAX — but only when some other part answered. If *no*
/// part answered, the first error propagates (so a 1-part merge is
/// identical to the lone part, errors included). Any other error aborts
/// the merge. A silent part keeps the merged answer from claiming hard
/// bounds or exactness — it may hold unsampled matching rows the
/// answering parts' bounds know nothing about (its zero for COUNT/SUM
/// carries neither).
///
/// This is the one merge the sharded single-query, sharded batched, and
/// progressive group-by paths all reduce through, which is what keeps
/// them bit-identical to each other. Several AVG answers do not merge:
/// merge their COUNTs and SUMs and take the [`ratio`].
pub fn merge_available(agg: AggKind, parts: &[Result<Estimate>]) -> Result<Estimate> {
    let zero = Estimate::approximate(0.0, 0.0);
    let mut answered = Vec::with_capacity(parts.len());
    let mut silent = 0usize;
    let mut first_err = None;
    for part in parts {
        match part {
            Ok(est) => answered.push(est),
            Err(err @ PassError::EmptyInput(_)) => {
                silent += 1;
                first_err.get_or_insert(err);
            }
            Err(err) => return Err(err.clone()),
        }
    }
    if answered.is_empty() {
        return Err(first_err
            .cloned()
            .unwrap_or(PassError::EmptyInput("no shard could answer the query")));
    }
    if agg.is_additive() {
        answered.extend(std::iter::repeat_n(&zero, silent));
    }
    let mut est = merge(agg, &answered)?;
    if silent > 0 && !agg.is_additive() {
        est.hard_bounds = None;
        est.exact = false;
    }
    Ok(est)
}

/// Reduce one answer per part into the merged [`Estimate`] (see the
/// module docs for the algebra); a single answer merges to itself
/// verbatim. Hard bounds need every part to carry them — for MIN/MAX
/// either side needs all parts, so all-or-nothing keeps the pair simple
/// and sound.
fn merge(agg: AggKind, parts: &[&Estimate]) -> Result<Estimate> {
    let [first, rest @ ..] = parts else {
        return Err(PassError::EmptyInput("no shard could answer the query"));
    };
    if rest.is_empty() {
        return Ok((*first).clone());
    }
    let bounds: Option<Vec<(f64, f64)>> = parts.iter().map(|p| p.hard_bounds).collect();
    let (mut est, hard_bounds) = match agg {
        AggKind::Count | AggKind::Sum => {
            let value = parts.iter().map(|p| p.value).sum();
            let ci_half = parts
                .iter()
                .map(|p| p.ci_half * p.ci_half)
                .sum::<f64>()
                .sqrt();
            let bounds = bounds.map(|b| (b.iter().map(|b| b.0).sum(), b.iter().map(|b| b.1).sum()));
            (Estimate::approximate(value, ci_half), bounds)
        }
        AggKind::Min | AggKind::Max => {
            let min = agg == AggKind::Min;
            let winner = parts
                .iter()
                .copied()
                .min_by(|a, b| {
                    let ord = a.value.partial_cmp(&b.value).unwrap_or(Ordering::Equal);
                    if min {
                        ord
                    } else {
                        ord.reverse()
                    }
                })
                .unwrap_or(first);
            let (pick, init): (fn(f64, f64) -> f64, f64) = if min {
                (f64::min, f64::INFINITY)
            } else {
                (f64::max, f64::NEG_INFINITY)
            };
            let side =
                |b: &[(f64, f64)], s: fn(&(f64, f64)) -> f64| b.iter().map(s).fold(init, pick);
            let bounds = bounds.map(|b| (side(&b, |b| b.0), side(&b, |b| b.1)));
            (Estimate::approximate(winner.value, winner.ci_half), bounds)
        }
        AggKind::Avg => {
            return Err(PassError::InvalidParameter(
                "agg",
                "AVG answers do not merge; take the ratio of the merged COUNT and SUM".into(),
            ))
        }
    };
    est.exact = parts.iter().all(|p| p.exact);
    est.hard_bounds = hard_bounds;
    Ok(est.with_accounting(
        parts.iter().map(|p| p.tuples_processed).sum(),
        parts.iter().map(|p| p.tuples_skipped).sum(),
    ))
}

/// AVG as the ratio of a COUNT and a SUM over one selection — a sharded
/// AVG's merged COUNT and SUM, or one shard's own: delta-method CI
/// (covariance dropped — conservative), exact iff both components are,
/// and hard bounds from the corner extremes of `sum/count` over the
/// component bounds (sound: the ratio is monotone in each argument at
/// fixed other, so its range over a box is attained at a corner) when
/// the count is provably positive. Errors on an estimated-empty
/// selection, matching the engines' own AVG availability.
pub fn ratio(count: &Estimate, sum: &Estimate) -> Result<Estimate> {
    if count.value <= 0.0 {
        return Err(PassError::EmptyInput(
            "AVG over an (estimated) empty selection",
        ));
    }
    let value = sum.value / count.value;
    let ci_half = (sum.ci_half * sum.ci_half + value * value * count.ci_half * count.ci_half)
        .sqrt()
        / count.value;
    let mut est = Estimate::approximate(value, ci_half);
    est.exact = count.exact && sum.exact;
    if let (Some((sl, su)), Some((cl, cu))) = (sum.hard_bounds, count.hard_bounds) {
        if cl > 0.0 {
            let corners = [sl / cl, sl / cu, su / cl, su / cu];
            let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            est = est.with_hard_bounds(lo, hi);
        }
    }
    // Both components scanned the same state; don't double-count.
    Ok(est.with_accounting(
        count.tuples_processed.max(sum.tuples_processed),
        count.tuples_skipped.max(sum.tuples_skipped),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_part(value: f64, ci: f64) -> Result<Estimate> {
        Ok(Estimate::approximate(value, ci))
    }

    #[test]
    fn single_partial_merges_to_its_local_estimate_verbatim() {
        for agg in AggKind::ALL {
            let local = Estimate::approximate(7.5, 1.25)
                .with_hard_bounds(0.0, 20.0)
                .with_accounting(10, 90);
            let merged = merge_available(agg, &[Ok(local.clone())]).unwrap();
            assert_eq!(merged, local, "{agg}");
        }
    }

    #[test]
    fn count_and_sum_values_add_and_variances_add() {
        let merged =
            merge_available(AggKind::Sum, &[sum_part(10.0, 3.0), sum_part(20.0, 4.0)]).unwrap();
        assert_eq!(merged.value, 30.0);
        assert!((merged.ci_half - 5.0).abs() < 1e-12, "RSS of 3,4 is 5");
        assert!(!merged.exact);

        let counts = [Ok(Estimate::exact(5.0)), Ok(Estimate::exact(7.0))];
        let merged = merge_available(AggKind::Count, &counts).unwrap();
        assert_eq!(merged.value, 12.0);
        assert_eq!(merged.ci_half, 0.0);
        assert!(merged.exact, "all-exact partials merge exactly");
        assert_eq!(merged.hard_bounds, Some((12.0, 12.0)));
    }

    #[test]
    fn merged_ci_is_at_least_every_component_ci() {
        let parts = [sum_part(1.0, 0.5), sum_part(2.0, 2.5), sum_part(3.0, 1.0)];
        let merged = merge_available(AggKind::Sum, &parts).unwrap();
        for p in &parts {
            assert!(merged.ci_half + 1e-12 >= p.as_ref().unwrap().ci_half);
        }
    }

    #[test]
    fn avg_merges_as_ratio_of_merged_sum_and_count() {
        let counts = [sum_part(10.0, 1.0), sum_part(30.0, 2.0)];
        let sums = [sum_part(30.0, 5.0), sum_part(150.0, 12.0)];
        let count = merge_available(AggKind::Count, &counts).unwrap();
        let merged = ratio(&count, &merge_available(AggKind::Sum, &sums).unwrap()).unwrap();
        assert!((merged.value - 180.0 / 40.0).abs() < 1e-12);
        let sum_ci = (25.0f64 + 144.0).sqrt();
        let count_ci = (1.0f64 + 4.0).sqrt();
        let want = (sum_ci * sum_ci + 4.5 * 4.5 * count_ci * count_ci).sqrt() / 40.0;
        assert!((merged.ci_half - want).abs() < 1e-12);

        // Several AVG answers do not merge directly.
        assert!(matches!(
            merge_available(AggKind::Avg, &[sum_part(3.0, 0.1), sum_part(5.0, 0.1)]),
            Err(PassError::InvalidParameter("agg", _))
        ));
        // Estimated-empty selections cannot produce an AVG.
        let empty =
            merge_available(AggKind::Count, &[sum_part(0.0, 0.0), sum_part(0.0, 0.0)]).unwrap();
        assert!(ratio(&empty, &empty).is_err());
    }

    #[test]
    fn min_max_take_the_extremum_and_its_ci() {
        let parts: Vec<Result<Estimate>> = [(4.0, 0.5), (2.0, 0.25), (9.0, 1.0)]
            .iter()
            .map(|&(v, ci)| Ok(Estimate::approximate(v, ci).with_hard_bounds(v - 1.0, v + 1.0)))
            .collect();
        let merged = merge_available(AggKind::Min, &parts).unwrap();
        assert_eq!(merged.value, 2.0);
        assert_eq!(merged.ci_half, 0.25);
        assert_eq!(merged.hard_bounds, Some((1.0, 3.0)));

        let merged = merge_available(AggKind::Max, &parts).unwrap();
        assert_eq!(merged.value, 9.0);
        assert_eq!(merged.hard_bounds, Some((8.0, 10.0)));
    }

    #[test]
    fn hard_bounds_require_every_partial_to_have_them() {
        let with = Ok(Estimate::approximate(1.0, 0.1).with_hard_bounds(0.0, 2.0));
        let merged = merge_available(AggKind::Sum, &[with, sum_part(2.0, 0.1)]).unwrap();
        assert_eq!(merged.hard_bounds, None);
    }

    #[test]
    fn accounting_sums_across_partials() {
        let a = Ok(Estimate::approximate(1.0, 0.0).with_accounting(10, 100));
        let b = Ok(Estimate::approximate(2.0, 0.0).with_accounting(5, 50));
        let merged = merge_available(AggKind::Sum, &[a, b]).unwrap();
        assert_eq!(merged.tuples_processed, 15);
        assert_eq!(merged.tuples_skipped, 150);
    }

    #[test]
    fn merging_nothing_is_an_error() {
        assert!(merge_available(AggKind::Sum, &[]).is_err());
        assert!(PartialEstimate::merge_available(AggKind::Sum, &[]).is_err());
    }

    #[test]
    fn merge_available_applies_the_stratified_availability_rule() {
        let answered = Ok(Estimate::approximate(10.0, 3.0).with_hard_bounds(4.0, 16.0));
        let silent: Result<Estimate> = Err(PassError::EmptyInput("no match"));

        // Mixed additive: the silent part contributes a boundless zero.
        let est = merge_available(AggKind::Sum, &[answered.clone(), silent.clone()]).unwrap();
        assert_eq!(est.value, 10.0);
        assert_eq!(est.ci_half, 3.0);
        assert_eq!(est.hard_bounds, None);
        assert!(!est.exact);

        // Mixed non-additive: the silent part is skipped and the merge
        // loses hard bounds and exactness.
        let est =
            merge_available(AggKind::Min, &[Ok(Estimate::exact(2.0)), silent.clone()]).unwrap();
        assert_eq!(est.value, 2.0);
        assert_eq!(est.hard_bounds, None);
        assert!(!est.exact);

        // All-silent: the first error propagates — no fabricated 0 ± 0.
        assert_eq!(
            merge_available(AggKind::Sum, &[silent.clone(), silent.clone()]),
            Err(PassError::EmptyInput("no match"))
        );
        // A single answering part merges to itself verbatim.
        let est = merge_available(AggKind::Sum, &[answered]).unwrap();
        assert_eq!(est.hard_bounds, Some((4.0, 16.0)));
        // A hard (non-availability) error aborts the merge.
        let hard: Result<Estimate> = Err(PassError::InvalidParameter("k", "zero".into()));
        assert!(matches!(
            merge_available(AggKind::Sum, &[silent, hard]),
            Err(PassError::InvalidParameter(..))
        ));
    }

    #[test]
    fn the_partial_estimate_shim_delegates_to_merge_available() {
        let answer = Estimate::approximate(10.0, 3.0).with_hard_bounds(4.0, 16.0);
        let silent = PassError::EmptyInput("no match");
        for agg in [AggKind::Sum, AggKind::Max] {
            let wrapped = [
                Ok(PartialEstimate::from_local(agg, answer.clone())),
                Ok(PartialEstimate::from_local(agg, Estimate::exact(2.0))),
                Err(silent.clone()),
            ];
            let plain = [
                Ok(answer.clone()),
                Ok(Estimate::exact(2.0)),
                Err(silent.clone()),
            ];
            assert_eq!(
                PartialEstimate::merge_available(agg, &wrapped),
                merge_available(agg, &plain),
                "{agg}"
            );
        }
    }

    #[test]
    fn ratio_is_the_delta_method_avg_with_corner_bounds() {
        let count = Estimate::approximate(10.0, 1.0).with_hard_bounds(8.0, 12.0);
        let sum = Estimate::approximate(30.0, 5.0).with_hard_bounds(24.0, 48.0);
        let avg = ratio(&count, &sum).unwrap();
        assert_eq!(avg.value, 3.0);
        let want_ci = (25.0f64 + 9.0).sqrt() / 10.0;
        assert!((avg.ci_half - want_ci).abs() < 1e-12);
        // Corner-derived hard bounds: sum/count over the box extremes.
        assert_eq!(avg.hard_bounds, Some((2.0, 6.0)));
        assert!(!avg.exact);

        // Exact components make the ratio exact with degenerate bounds.
        let exact = ratio(&Estimate::exact(4.0), &Estimate::exact(20.0)).unwrap();
        assert!(exact.exact);
        assert_eq!(exact.value, 5.0);
        assert_eq!(exact.hard_bounds, Some((5.0, 5.0)));

        // An estimated-empty selection refuses, like the engines do.
        let zero = Estimate::approximate(0.0, 0.0);
        assert!(ratio(&zero, &zero).is_err());
        // A non-positive count lower bound withholds hard bounds.
        let unbounded = Estimate::approximate(10.0, 1.0).with_hard_bounds(0.0, 12.0);
        assert_eq!(ratio(&unbounded, &sum).unwrap().hard_bounds, None);
    }
}
