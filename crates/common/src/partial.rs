//! Mergeable partial estimates — the algebra behind sharded synopses.
//!
//! When one logical table is partitioned into disjoint shards (see
//! [`ShardPlan`](crate::ShardPlan)), each shard's engine answers a query
//! only for *its* rows. A [`PartialEstimate`] carries what the merge
//! needs: the shard's own [`Estimate`] of the query plus the mergeable
//! COUNT/SUM components. [`PartialEstimate::merge`] reduces shard
//! partials into one [`Estimate`] using the classic stratified-estimator
//! identities (cf. the sampling-algebra literature in `PAPERS.md`):
//!
//! * **COUNT / SUM** — point estimates add exactly across disjoint
//!   shards, and the variances of independently built shards add, so the
//!   merged λ-CI half-width is the root-sum-square of the shard
//!   half-widths (each is λ·σᵢ, so RSS = λ·√Σσᵢ²).
//! * **AVG** — merged as the ratio of the merged SUM and COUNT
//!   estimates; the CI uses the first-order delta method *without* the
//!   (typically positive, variance-reducing) SUM/COUNT covariance term,
//!   so it is conservative.
//! * **MIN / MAX** — the extremum of the shard extrema; the winning
//!   shard's CI is kept.
//!
//! Hard bounds compose soundly: SUM/COUNT bounds add, AVG bounds span
//! the shard AVG bounds (a mean of a union lies between the per-part
//! means), MIN/MAX bounds take the corresponding extremum. A merged
//! estimate is `exact` only when every contributing partial was.
//!
//! The merge of a *single* partial returns the shard's own estimate
//! verbatim — so a 1-shard plan is bit-identical to the unsharded
//! engine, for every aggregate and every engine. `tests/sharded_contract.rs`
//! pins this together with the K-shard additivity contract.

use crate::agg::AggKind;
use crate::error::{PassError, Result};
use crate::estimate::Estimate;
use crate::query::Query;

/// One shard's mergeable contribution to a query (see the module docs
/// for the merge algebra).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialEstimate {
    /// The aggregate this partial answers.
    pub agg: AggKind,
    /// The shard's own estimate of the query over its rows alone.
    pub local: Estimate,
    /// Estimated number of the shard's rows matching the predicate
    /// (meaningful for COUNT and AVG merges; 0 otherwise).
    pub count: f64,
    /// λ-CI half-width of [`count`](Self::count).
    pub count_ci: f64,
    /// Estimated SUM of the shard's matching rows (meaningful for SUM
    /// and AVG merges; 0 otherwise).
    pub sum: f64,
    /// λ-CI half-width of [`sum`](Self::sum).
    pub sum_ci: f64,
}

impl PartialEstimate {
    /// A partial for an aggregate whose merge needs only the shard's own
    /// estimate: COUNT, SUM, MIN, MAX — or *any* aggregate when the
    /// merge is over a single shard, since a one-partial merge returns
    /// `local` verbatim and never reads the components.
    pub fn from_local(agg: AggKind, local: Estimate) -> Self {
        let (count, count_ci, sum, sum_ci) = match agg {
            AggKind::Count => (local.value, local.ci_half, 0.0, 0.0),
            AggKind::Sum => (0.0, 0.0, local.value, local.ci_half),
            _ => (0.0, 0.0, 0.0, 0.0),
        };
        Self {
            agg,
            local,
            count,
            count_ci,
            sum,
            sum_ci,
        }
    }

    /// An AVG partial: the shard's own AVG estimate plus the COUNT and
    /// SUM estimates the ratio merge is built from.
    pub fn for_avg(local: Estimate, count: &Estimate, sum: &Estimate) -> Self {
        Self {
            agg: AggKind::Avg,
            local,
            count: count.value,
            count_ci: count.ci_half,
            sum: sum.value,
            sum_ci: sum.ci_half,
        }
    }

    /// The zero contribution of a shard that could not match any tuple
    /// (COUNT/SUM only): value 0, no uncertainty, no hard bounds, not
    /// exact — the shard may hold unsampled matching rows.
    pub fn empty(agg: AggKind) -> Self {
        debug_assert!(
            matches!(agg, AggKind::Count | AggKind::Sum),
            "only COUNT/SUM have a well-defined zero contribution"
        );
        Self::from_local(agg, Estimate::approximate(0.0, 0.0))
    }

    /// The decomposition for merges over **multiple** shards: AVG
    /// expands to COUNT + SUM only (a K-way merge recomputes AVG as
    /// ΣSUM/ΣCOUNT and never reads a shard's own AVG answer, so issuing
    /// it would be pure wasted engine work). A single-shard merge needs
    /// no decomposition at all — one [`from_local`](Self::from_local)
    /// partial of the query's own answer merges to it verbatim.
    pub fn merge_queries(query: &Query) -> Vec<Query> {
        let expanded = match query.agg {
            AggKind::Avg => vec![
                Query::new(AggKind::Count, query.rect.clone()),
                Query::new(AggKind::Sum, query.rect.clone()),
            ],
            _ => vec![query.clone()],
        };
        debug_assert_eq!(expanded.len(), Self::merge_width(query.agg));
        expanded
    }

    /// How many sub-queries [`merge_queries`](Self::merge_queries)
    /// produces for an aggregate.
    pub fn merge_width(agg: AggKind) -> usize {
        match agg {
            AggKind::Avg => 2,
            _ => 1,
        }
    }

    /// Build the partial for `query` from a shard's answers to
    /// [`merge_queries`](Self::merge_queries), in order (the first
    /// failing answer is the partial's error): the AVG local is
    /// synthesized as the SUM/COUNT ratio with the same
    /// delta-method CI the K-way merge uses (so a merge that collapses
    /// to one answering shard is consistent with the K-way formula),
    /// exactness when both components are exact, and hard bounds from
    /// the corner extremes of the component bounds when the count is
    /// provably positive.
    pub fn assemble_merge(
        query: &Query,
        answers: impl IntoIterator<Item = Result<Estimate>>,
    ) -> Result<PartialEstimate> {
        let mut answers = answers.into_iter();
        let mut next = || {
            answers
                .next()
                .unwrap_or(Err(PassError::EmptyInput("missing partial sub-answer")))
        };
        match query.agg {
            AggKind::Avg => {
                let count = next()?;
                let sum = next()?;
                let local = ratio_local(&count, &sum)?;
                Ok(PartialEstimate::for_avg(local, &count, &sum))
            }
            agg => Ok(PartialEstimate::from_local(agg, next()?)),
        }
    }

    /// [`merge`](Self::merge) with the stratified **availability rule**
    /// applied first: a part that failed with
    /// [`PassError::EmptyInput`] (the shard/stratum could not match any
    /// tuple) contributes zero to additive aggregates and is skipped for
    /// AVG/MIN/MAX — but only when some other part answered. If *no*
    /// part answered, the first error propagates (so a 1-part merge is
    /// identical to the lone part, errors included). Any other error
    /// aborts the merge. A merge that skipped a silent part drops hard
    /// bounds and exactness — the silent part may hold unsampled
    /// matching rows the surviving parts' bounds know nothing about
    /// (additive merges get this for free from their zero partials).
    ///
    /// This is the one merge the sharded single-query, sharded batched,
    /// and progressive group-by paths all reduce through, which is what
    /// keeps them bit-identical to each other.
    pub fn merge_available(agg: AggKind, parts: &[Result<PartialEstimate>]) -> Result<Estimate> {
        let mut answered = Vec::with_capacity(parts.len());
        let mut silent = 0usize;
        let mut first_err: Option<PassError> = None;
        for part in parts {
            match part {
                Ok(p) => answered.push(p.clone()),
                Err(err @ PassError::EmptyInput(_)) => {
                    silent += 1;
                    if first_err.is_none() {
                        first_err = Some(err.clone());
                    }
                }
                Err(err) => return Err(err.clone()),
            }
        }
        if answered.is_empty() {
            return Err(
                first_err.unwrap_or(PassError::EmptyInput("no shard could answer the query"))
            );
        }
        if agg.is_additive() {
            answered.extend((0..silent).map(|_| PartialEstimate::empty(agg)));
        }
        let mut est = PartialEstimate::merge(&answered)?;
        if silent > 0 && !agg.is_additive() {
            // A skipped silent part may hold unsampled matching rows, so
            // deterministic bounds and exactness claims from the
            // answering parts alone no longer hold for the whole table.
            est.hard_bounds = None;
            est.exact = false;
        }
        Ok(est)
    }

    /// Reduce shard partials (one per shard, same aggregate) into a
    /// single merged [`Estimate`]. See the module docs for the algebra;
    /// a single partial merges to its `local` estimate verbatim.
    pub fn merge(parts: &[PartialEstimate]) -> Result<Estimate> {
        let Some(first) = parts.first() else {
            return Err(PassError::EmptyInput("no shard partials to merge"));
        };
        if parts.len() == 1 {
            return Ok(first.local.clone());
        }
        let agg = first.agg;
        debug_assert!(
            parts.iter().all(|p| p.agg == agg),
            "merging partials of mixed aggregates"
        );
        let processed: u64 = parts.iter().map(|p| p.local.tuples_processed).sum();
        let skipped: u64 = parts.iter().map(|p| p.local.tuples_skipped).sum();
        let exact = parts.iter().all(|p| p.local.exact);
        let rss = |ci: &dyn Fn(&PartialEstimate) -> f64| -> f64 {
            parts.iter().map(|p| ci(p) * ci(p)).sum::<f64>().sqrt()
        };

        let mut est = match agg {
            AggKind::Count => {
                let value: f64 = parts.iter().map(|p| p.count).sum();
                Estimate::approximate(value, rss(&|p| p.count_ci))
            }
            AggKind::Sum => {
                let value: f64 = parts.iter().map(|p| p.sum).sum();
                Estimate::approximate(value, rss(&|p| p.sum_ci))
            }
            AggKind::Avg => {
                let count: f64 = parts.iter().map(|p| p.count).sum();
                let sum: f64 = parts.iter().map(|p| p.sum).sum();
                if count <= 0.0 {
                    return Err(PassError::EmptyInput(
                        "merged AVG over an (estimated) empty selection",
                    ));
                }
                let value = sum / count;
                let sum_ci = rss(&|p| p.sum_ci);
                let count_ci = rss(&|p| p.count_ci);
                // First-order delta method for the ratio, covariance
                // dropped (conservative — see module docs).
                let ci_half =
                    (sum_ci * sum_ci + value * value * count_ci * count_ci).sqrt() / count;
                Estimate::approximate(value, ci_half)
            }
            AggKind::Min | AggKind::Max => {
                let winner = parts
                    .iter()
                    .min_by(|a, b| {
                        let (x, y) = (a.local.value, b.local.value);
                        let ord = x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal);
                        if agg == AggKind::Min {
                            ord
                        } else {
                            ord.reverse()
                        }
                    })
                    // `parts` is non-empty (checked on entry); fall back
                    // to the first partial rather than panic.
                    .unwrap_or(first);
                Estimate::approximate(winner.local.value, winner.local.ci_half)
            }
        };
        est.exact = exact;
        est.hard_bounds = merge_hard_bounds(agg, parts);
        Ok(est.with_accounting(processed, skipped))
    }
}

/// The SUM/COUNT ratio as an AVG estimate: delta-method CI (covariance
/// dropped — conservative), exact iff both components are, hard bounds
/// from the corner extremes of `sum/count` over the component bounds
/// (sound: the ratio is monotone in each argument at fixed other, so
/// its range over a box is attained at a corner) when the count is
/// provably positive. Errors on an estimated-empty selection, matching
/// the engines' own AVG availability.
fn ratio_local(count: &Estimate, sum: &Estimate) -> Result<Estimate> {
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
    // Both components scanned the same shard state; don't double-count.
    Ok(est.with_accounting(
        count.tuples_processed.max(sum.tuples_processed),
        count.tuples_skipped.max(sum.tuples_skipped),
    ))
}

/// Sound hard bounds of the merged answer, when every partial carries
/// bounds (for MIN/MAX the lower/upper side needs all shards, so the
/// all-or-nothing rule keeps the pair simple and sound).
fn merge_hard_bounds(agg: AggKind, parts: &[PartialEstimate]) -> Option<(f64, f64)> {
    let mut bounds = Vec::with_capacity(parts.len());
    for p in parts {
        bounds.push(p.local.hard_bounds?);
    }
    let fold = |f: fn(f64, f64) -> f64, init: f64, side: fn(&(f64, f64)) -> f64| {
        bounds.iter().map(side).fold(init, f)
    };
    Some(match agg {
        AggKind::Sum | AggKind::Count => (
            bounds.iter().map(|b| b.0).sum(),
            bounds.iter().map(|b| b.1).sum(),
        ),
        // The AVG of a union lies between the smallest and largest
        // per-shard AVG bound.
        AggKind::Avg => (
            fold(f64::min, f64::INFINITY, |b| b.0),
            fold(f64::max, f64::NEG_INFINITY, |b| b.1),
        ),
        AggKind::Min => (
            fold(f64::min, f64::INFINITY, |b| b.0),
            fold(f64::min, f64::INFINITY, |b| b.1),
        ),
        AggKind::Max => (
            fold(f64::max, f64::NEG_INFINITY, |b| b.0),
            fold(f64::max, f64::NEG_INFINITY, |b| b.1),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Rect;

    fn sum_part(value: f64, ci: f64) -> PartialEstimate {
        PartialEstimate::from_local(AggKind::Sum, Estimate::approximate(value, ci))
    }

    #[test]
    fn single_partial_merges_to_its_local_estimate_verbatim() {
        for agg in AggKind::ALL {
            let local = Estimate::approximate(7.5, 1.25)
                .with_hard_bounds(0.0, 20.0)
                .with_accounting(10, 90);
            let part = match agg {
                AggKind::Avg => PartialEstimate::for_avg(
                    local.clone(),
                    &Estimate::approximate(4.0, 0.5),
                    &Estimate::approximate(30.0, 2.0),
                ),
                _ => PartialEstimate::from_local(agg, local.clone()),
            };
            assert_eq!(PartialEstimate::merge(&[part]).unwrap(), local, "{agg}");
        }
    }

    #[test]
    fn count_and_sum_values_add_and_variances_add() {
        let merged = PartialEstimate::merge(&[sum_part(10.0, 3.0), sum_part(20.0, 4.0)]).unwrap();
        assert_eq!(merged.value, 30.0);
        assert!((merged.ci_half - 5.0).abs() < 1e-12, "RSS of 3,4 is 5");
        assert!(!merged.exact);

        let counts = [
            PartialEstimate::from_local(AggKind::Count, Estimate::exact(5.0)),
            PartialEstimate::from_local(AggKind::Count, Estimate::exact(7.0)),
        ];
        let merged = PartialEstimate::merge(&counts).unwrap();
        assert_eq!(merged.value, 12.0);
        assert_eq!(merged.ci_half, 0.0);
        assert!(merged.exact, "all-exact partials merge exactly");
        assert_eq!(merged.hard_bounds, Some((12.0, 12.0)));
    }

    #[test]
    fn merged_ci_is_at_least_every_component_ci() {
        let parts = [sum_part(1.0, 0.5), sum_part(2.0, 2.5), sum_part(3.0, 1.0)];
        let merged = PartialEstimate::merge(&parts).unwrap();
        for p in &parts {
            assert!(merged.ci_half + 1e-12 >= p.local.ci_half);
        }
    }

    #[test]
    fn avg_merges_as_ratio_of_merged_sum_and_count() {
        let a = PartialEstimate::for_avg(
            Estimate::approximate(3.0, 0.1),
            &Estimate::approximate(10.0, 1.0),
            &Estimate::approximate(30.0, 5.0),
        );
        let b = PartialEstimate::for_avg(
            Estimate::approximate(5.0, 0.1),
            &Estimate::approximate(30.0, 2.0),
            &Estimate::approximate(150.0, 12.0),
        );
        let merged = PartialEstimate::merge(&[a, b]).unwrap();
        assert!((merged.value - 180.0 / 40.0).abs() < 1e-12);
        let sum_ci = (25.0f64 + 144.0).sqrt();
        let count_ci = (1.0f64 + 4.0).sqrt();
        let want = (sum_ci * sum_ci + 4.5 * 4.5 * count_ci * count_ci).sqrt() / 40.0;
        assert!((merged.ci_half - want).abs() < 1e-12);

        // Estimated-empty selections cannot produce an AVG.
        let empty = PartialEstimate::for_avg(
            Estimate::approximate(0.0, 0.0),
            &Estimate::approximate(0.0, 0.0),
            &Estimate::approximate(0.0, 0.0),
        );
        assert!(PartialEstimate::merge(&[empty.clone(), empty]).is_err());
    }

    #[test]
    fn min_max_take_the_extremum_and_its_ci() {
        let parts: Vec<PartialEstimate> = [(4.0, 0.5), (2.0, 0.25), (9.0, 1.0)]
            .iter()
            .map(|&(v, ci)| {
                PartialEstimate::from_local(
                    AggKind::Min,
                    Estimate::approximate(v, ci).with_hard_bounds(v - 1.0, v + 1.0),
                )
            })
            .collect();
        let merged = PartialEstimate::merge(&parts).unwrap();
        assert_eq!(merged.value, 2.0);
        assert_eq!(merged.ci_half, 0.25);
        assert_eq!(merged.hard_bounds, Some((1.0, 3.0)));

        let parts: Vec<PartialEstimate> = parts
            .into_iter()
            .map(|p| PartialEstimate::from_local(AggKind::Max, p.local))
            .collect();
        let merged = PartialEstimate::merge(&parts).unwrap();
        assert_eq!(merged.value, 9.0);
        assert_eq!(merged.hard_bounds, Some((8.0, 10.0)));
    }

    #[test]
    fn hard_bounds_require_every_partial_to_have_them() {
        let with = sum_part(1.0, 0.1);
        let mut without = sum_part(2.0, 0.1);
        without.local.hard_bounds = None;
        let merged = PartialEstimate::merge(&[with, without]).unwrap();
        assert_eq!(merged.hard_bounds, None);
    }

    #[test]
    fn accounting_sums_across_partials() {
        let mut a = sum_part(1.0, 0.0);
        a.local = a.local.with_accounting(10, 100);
        let mut b = sum_part(2.0, 0.0);
        b.local = b.local.with_accounting(5, 50);
        let merged = PartialEstimate::merge(&[
            PartialEstimate::from_local(AggKind::Sum, a.local.clone()),
            PartialEstimate::from_local(AggKind::Sum, b.local.clone()),
        ])
        .unwrap();
        assert_eq!(merged.tuples_processed, 15);
        assert_eq!(merged.tuples_skipped, 150);
    }

    #[test]
    fn merging_nothing_is_an_error() {
        assert!(PartialEstimate::merge(&[]).is_err());
    }

    #[test]
    fn merge_available_applies_the_stratified_availability_rule() {
        let answered = Ok(PartialEstimate::from_local(
            AggKind::Sum,
            Estimate::approximate(10.0, 3.0).with_hard_bounds(4.0, 16.0),
        ));
        let silent: Result<PartialEstimate> = Err(PassError::EmptyInput("no match"));

        // Mixed additive: the silent part contributes a boundless zero.
        let est =
            PartialEstimate::merge_available(AggKind::Sum, &[answered.clone(), silent.clone()])
                .unwrap();
        assert_eq!(est.value, 10.0);
        assert_eq!(est.ci_half, 3.0);
        assert_eq!(est.hard_bounds, None);
        assert!(!est.exact);

        // Mixed non-additive: the silent part is skipped and the merge
        // loses hard bounds and exactness.
        let min = Ok(PartialEstimate::from_local(
            AggKind::Min,
            Estimate::exact(2.0),
        ));
        let est = PartialEstimate::merge_available(AggKind::Min, &[min, silent.clone()]).unwrap();
        assert_eq!(est.value, 2.0);
        assert_eq!(est.hard_bounds, None);
        assert!(!est.exact);

        // All-silent: the first error propagates — no fabricated 0 ± 0.
        assert_eq!(
            PartialEstimate::merge_available(AggKind::Sum, &[silent.clone(), silent.clone()]),
            Err(PassError::EmptyInput("no match"))
        );
        // A single answering part merges to its local verbatim.
        let est = PartialEstimate::merge_available(AggKind::Sum, &[answered]).unwrap();
        assert_eq!(est.hard_bounds, Some((4.0, 16.0)));
        // A hard (non-availability) error aborts the merge.
        let hard: Result<PartialEstimate> = Err(PassError::InvalidParameter("k", "zero".into()));
        assert!(matches!(
            PartialEstimate::merge_available(AggKind::Sum, &[silent, hard]),
            Err(PassError::InvalidParameter(..))
        ));
    }

    #[test]
    fn merge_decomposition_skips_the_avg_sub_query() {
        let q = Query::new(AggKind::Avg, Rect::interval(0.0, 1.0));
        let expanded = PartialEstimate::merge_queries(&q);
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded[0].agg, AggKind::Count);
        assert_eq!(expanded[1].agg, AggKind::Sum);
        assert_eq!(PartialEstimate::merge_width(AggKind::Avg), 2);
        assert_eq!(PartialEstimate::merge_width(AggKind::Sum), 1);
        let sum_q = Query::new(AggKind::Sum, Rect::interval(0.0, 1.0));
        assert_eq!(PartialEstimate::merge_queries(&sum_q), vec![sum_q]);
    }

    #[test]
    fn assemble_merge_synthesizes_a_consistent_avg_local() {
        let q = Query::new(AggKind::Avg, Rect::interval(0.0, 1.0));
        let count = Estimate::approximate(10.0, 1.0).with_hard_bounds(8.0, 12.0);
        let sum = Estimate::approximate(30.0, 5.0).with_hard_bounds(24.0, 48.0);
        let part =
            PartialEstimate::assemble_merge(&q, [Ok(count.clone()), Ok(sum.clone())]).unwrap();
        assert_eq!(part.count, 10.0);
        assert_eq!(part.sum, 30.0);
        // The synthesized local is the delta-method ratio — exactly what
        // the K-way merge of this single partial must produce.
        let merged = PartialEstimate::merge(std::slice::from_ref(&part)).unwrap();
        assert_eq!(merged.value, 3.0);
        let want_ci = (25.0f64 + 9.0).sqrt() / 10.0;
        assert!((merged.ci_half - want_ci).abs() < 1e-12);
        // Corner-derived hard bounds: sum/count over the box extremes.
        assert_eq!(merged.hard_bounds, Some((2.0, 6.0)));
        assert!(!merged.exact);

        // Exact components make the ratio exact with degenerate bounds.
        let exact = PartialEstimate::assemble_merge(
            &q,
            [Ok(Estimate::exact(4.0)), Ok(Estimate::exact(20.0))],
        )
        .unwrap();
        assert!(exact.local.exact);
        assert_eq!(exact.local.value, 5.0);
        assert_eq!(exact.local.hard_bounds, Some((5.0, 5.0)));

        // An estimated-empty selection refuses, like the engines do.
        assert!(PartialEstimate::assemble_merge(
            &q,
            [
                Ok(Estimate::approximate(0.0, 0.0)),
                Ok(Estimate::approximate(0.0, 0.0))
            ],
        )
        .is_err());
        // A non-positive count lower bound withholds hard bounds.
        let unbounded = PartialEstimate::assemble_merge(
            &q,
            [
                Ok(Estimate::approximate(10.0, 1.0).with_hard_bounds(0.0, 12.0)),
                Ok(sum),
            ],
        )
        .unwrap();
        assert_eq!(unbounded.local.hard_bounds, None);
    }
}
