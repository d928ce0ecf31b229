//! A synopsis over one logical table partitioned across per-shard engines.
//!
//! [`ShardedSynopsis`] interprets an [`EngineSpec::Sharded`] spec: the
//! table is cut into disjoint shards by a
//! [`ShardPlan`] (`Table::split`), one inner
//! engine is built per shard — **concurrently**, on a
//! [`pass_common::ThreadPool`] — and at query time every shard answers a
//! mergeable [`PartialEstimate`] which
//! [`PartialEstimate::merge`] reduces to a single [`Estimate`].
//!
//! The statistical contract (pinned by `tests/sharded_contract.rs`):
//!
//! * **1-shard identity** — a single-shard plan is bit-identical to the
//!   unsharded engine for every aggregate (the merge of one partial is
//!   the shard's own estimate, verbatim).
//! * **COUNT/SUM additivity** — the merged point estimate is exactly the
//!   sum of the per-shard estimates (disjoint strata compose linearly),
//!   and the merged CI is the root-sum-square of the shard CIs
//!   (variances of independently built shards add), so it is at least as
//!   wide as every component.
//! * **Availability** — a shard that cannot match any tuple
//!   (`PassError::EmptyInput`) contributes zero to COUNT/SUM and is
//!   skipped for AVG/MIN/MAX, like an empty stratum in a stratified
//!   estimator; only if *no* shard can answer does the query fail. A
//!   merge that skipped a silent shard drops its hard bounds and
//!   exactness claim — the silent shard may hold unsampled matching
//!   rows the surviving shards' bounds know nothing about.
//!
//! Batch scheduling is **shard-outer / query-inner**: each shard answers
//! the whole (expanded) batch through its own `estimate_many`, keeping
//! the inner engine's batched-traversal wins (PASS reuses one MCF
//! scratch across the batch per shard).
//! `pass_common::estimate_many_parallel` chunks the *queries* across a
//! pool like for any other engine, each chunk running the shard-outer
//! loop. There is one scatter–gather: `estimate` is the one-query batch,
//! and a group-by (`pass_common::estimate_group_by`) is the batch of its
//! per-category queries.

use std::sync::Arc;

use pass_common::rng::derive_seed;
use pass_common::{
    apply_group_availability, AggKind, EngineSpec, Estimate, GroupByQuery, GroupBySnapshot,
    GroupResult, PartialEstimate, PassError, Query, Result, ShardPlan, Synopsis, ThreadPool,
    LAMBDA_99,
};
use pass_table::Table;

use crate::Engine;

/// K per-shard engines over disjoint partitions of one logical table,
/// merged behind the ordinary [`Synopsis`] contract.
pub struct ShardedSynopsis {
    pub(crate) shards: Vec<Arc<dyn Synopsis>>,
    pub(crate) plan: ShardPlan,
    pub(crate) inner_spec: EngineSpec,
    pub(crate) name: String,
    pub(crate) dims: usize,
}

impl ShardedSynopsis {
    /// Split `table` by `plan` and build one `inner` engine per shard,
    /// concurrently on a machine-sized [`ThreadPool`].
    pub fn build(table: &Table, inner: &EngineSpec, plan: &ShardPlan) -> Result<Self> {
        Self::build_with_pool(table, inner, plan, &ThreadPool::with_default_parallelism())
    }

    /// [`build`](Self::build) with an explicit pool. Shard builds are
    /// independent and deterministic per shard, so the pool width never
    /// changes what gets built — only how fast.
    pub fn build_with_pool(
        table: &Table,
        inner: &EngineSpec,
        plan: &ShardPlan,
        pool: &ThreadPool,
    ) -> Result<Self> {
        let shard_tables = table.split(plan)?;
        let built: Vec<Result<Arc<dyn Synopsis>>> =
            pool.map_chunks(shard_tables.len(), 1, |range| {
                range
                    .map(|i| Engine::build(&shard_tables[i], &Self::shard_spec(inner, i)))
                    .collect()
            });
        let shards = built.into_iter().collect::<Result<Vec<_>>>()?;
        let name = format!("Sharded[{}]-{}", shards.len(), shards[0].name());
        // The merged synopsis answers whatever arity its shards answer —
        // which is the table's arity for single-table engines, but wider
        // for join engines (fact dims + dimension-attribute dims), so
        // ask the shard rather than the table.
        let dims = shards[0].dims();
        Ok(Self {
            shards,
            plan: plan.clone(),
            inner_spec: inner.clone(),
            name,
            dims,
        })
    }

    /// The spec shard `index`'s engine is built from. Shard 0 keeps
    /// `inner` verbatim — which is what makes a 1-shard plan bit-identical
    /// to the unsharded engine — and every later shard gets an
    /// independently derived seed, so per-shard sampling errors are
    /// uncorrelated and the root-sum-square CI merge's independence
    /// assumption actually holds (identical seeds on similarly laid-out
    /// shards would correlate the errors and under-cover).
    pub fn shard_spec(inner: &EngineSpec, index: usize) -> EngineSpec {
        // Stream label separating shard reseeding from other derivations.
        const SHARD_STREAM: u64 = 0x5AAD_5EED;
        match (index, inner.seed()) {
            (0, _) | (_, None) => inner.clone(),
            (i, Some(seed)) => inner
                .clone()
                .with_seed(derive_seed(seed, SHARD_STREAM ^ i as u64)),
        }
    }

    /// Number of (non-empty) shards actually built.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in shard order.
    pub fn shard_engines(&self) -> &[Arc<dyn Synopsis>] {
        &self.shards
    }

    /// The plan the table was split by.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// One shard's partial for each of `queries`, assembled from that
    /// shard's `answers` to [`expand`](Self::expand)'s concatenated
    /// sub-queries. The batched and the progressive path both turn shard
    /// answers into partials here and reduce them through
    /// [`PartialEstimate::merge_available`], which is what makes a
    /// progressive stream's final snapshot the batch answer.
    fn shard_partials<'a>(
        &self,
        queries: &'a [Query],
        answers: &'a [Result<Estimate>],
    ) -> impl Iterator<Item = Result<PartialEstimate>> + 'a {
        let multi = self.multi_shard();
        let mut cursor = 0usize;
        queries.iter().map(move |q| {
            let width = if multi {
                PartialEstimate::merge_width(q.agg)
            } else {
                1
            };
            let own = answers.get(cursor..cursor + width);
            cursor += width;
            match own {
                None => Err(PassError::InvalidParameter(
                    "shard_answers",
                    "a shard is short of the expanded batch".into(),
                )),
                // Width 1 — every single-shard query and every
                // non-AVG one: the shard's answer is the partial.
                Some([only]) => only
                    .clone()
                    .map(|est| PartialEstimate::from_local(q.agg, est)),
                Some(own) => PartialEstimate::assemble_merge(q, own.iter().cloned()),
            }
        })
    }

    /// Merge per-shard answers to the expanded batch back into one result
    /// per original query (`shard_answers[i]` is shard i's answers to
    /// [`expand`](Self::expand)'s concatenated sub-queries).
    ///
    /// The merge is the stratified availability rule
    /// ([`PartialEstimate::merge_available`]): a shard that cannot match
    /// any tuple (`PassError::EmptyInput`) contributes a zero partial for
    /// additive aggregates — but only when **some other shard answered**.
    /// If no shard can answer, the first shard's error propagates, which
    /// keeps a 1-shard plan identical to the unsharded engine on the
    /// error side too (and avoids fabricating a confident `0 ± 0` out of
    /// pure refusals). Zero partials carry no hard bounds and are not
    /// exact, so their unsampled matching rows still poison the merged
    /// bounds/exactness. Any other error fails the query.
    fn merge_expanded(
        &self,
        queries: &[Query],
        shard_answers: &[Vec<Result<Estimate>>],
    ) -> Vec<Result<Estimate>> {
        let mut columns: Vec<_> = shard_answers
            .iter()
            .map(|answers| self.shard_partials(queries, answers))
            .collect();
        queries
            .iter()
            .map(|q| {
                let parts: Vec<Result<PartialEstimate>> =
                    columns.iter_mut().filter_map(Iterator::next).collect();
                PartialEstimate::merge_available(q.agg, &parts)
            })
            .collect()
    }

    /// Whether this synopsis merges across more than one shard — which
    /// selects the decomposition: multi-shard merges use
    /// [`PartialEstimate::merge_queries`] (AVG as COUNT + SUM; the
    /// per-shard AVG answer would be discarded by a K-way merge, so it
    /// is never issued), while a single-shard plan passes each query
    /// through untouched (the merge of one partial returns the shard's
    /// own estimate verbatim, so sub-queries would be pure waste).
    fn multi_shard(&self) -> bool {
        self.shards.len() > 1
    }

    /// The batch each shard answers: every query expanded into its
    /// partial sub-queries, concatenated in query order.
    fn expand(&self, queries: &[Query]) -> Vec<Query> {
        if self.multi_shard() {
            queries
                .iter()
                .flat_map(PartialEstimate::merge_queries)
                .collect()
        } else {
            queries.to_vec()
        }
    }
}

/// The extrapolated intermediate estimate for one group after merging
/// `merged` of `total` shards — the online-aggregation view published in
/// non-final [`GroupBySnapshot`]s.
///
/// The point estimate assumes the remaining shards look like the merged
/// prefix (row-range shards of one logical table): additive aggregates
/// scale by `total / merged`, AVG keeps the prefix ratio. The CI is the
/// scaled prefix CI **plus an inter-shard dispersion margin**
///
/// ```text
/// λ₉₉ · (total − merged) · spread · √(1/merged + 1/(total − merged)) · √(merged/(merged − 1))
/// ```
///
/// where `spread` is the largest deviation of a per-shard value from
/// the prefix mean (floored at a tenth of the mean's magnitude, and at
/// the lone shard's own magnitude when `merged == 1`, where the
/// small-sample factor is dropped). The two √ factors are the
/// homogeneous-shard error model taken seriously: the extrapolation
/// error is `remaining · (mean_unseen − mean_prefix)`, whose deviation
/// scales with `√(1/merged + 1/remaining)`, and a max-deviation spread
/// over `merged` values needs the `√(merged/(merged−1))` small-sample
/// inflation to be a conservative scale proxy. The margin shrinks as
/// shards merge and vanishes at the final snapshot, which is what makes
/// widths non-increasing in practice; it is a *statistical* interval
/// under the homogeneous-shard assumption, so intermediates never claim
/// hard bounds or exactness — the final snapshot's estimate is
/// authoritative.
///
/// A prefix with no answering shard yet propagates its availability
/// error (the group's width is infinite until some shard answers).
fn extrapolate_group(
    agg: AggKind,
    parts: &[Result<PartialEstimate>],
    merged: usize,
    total: usize,
) -> Result<Estimate> {
    debug_assert!(0 < merged && merged < total);
    let prefix = apply_group_availability(PartialEstimate::merge_available(agg, parts))?;
    let k = merged as f64;
    let remaining = (total - merged) as f64;
    let spread_of = |values: &[f64]| -> f64 {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let dev = if values.len() == 1 {
            values[0].abs()
        } else {
            values.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max)
        };
        dev.max(0.1 * mean.abs())
    };
    // The doc-comment margin: a lone merged shard already uses its own
    // magnitude as the spread, so it skips the (undefined) small-sample
    // inflation.
    let small_sample = if merged > 1 {
        (k / (k - 1.0)).sqrt()
    } else {
        1.0
    };
    let margin = |spread: f64| {
        LAMBDA_99 * remaining * spread * (1.0 / k + 1.0 / remaining).sqrt() * small_sample
    };
    let (value, ci_half) = match agg {
        AggKind::Sum | AggKind::Count => {
            // Silent shards contributed an estimated zero to the prefix,
            // so they count as zero in the dispersion too.
            let values: Vec<f64> = parts
                .iter()
                .map(|p| p.as_ref().map_or(0.0, |p| p.local.value))
                .collect();
            let scale = total as f64 / k;
            (
                prefix.value * scale,
                scale * prefix.ci_half + margin(spread_of(&values)),
            )
        }
        AggKind::Avg => {
            // The prefix ratio already estimates the global AVG; silent
            // shards are excluded exactly as the merge excluded them.
            let values: Vec<f64> = parts
                .iter()
                .filter_map(|p| p.as_ref().ok().map(|p| p.local.value))
                .collect();
            (prefix.value, prefix.ci_half + margin(spread_of(&values)))
        }
        // MIN/MAX never publish intermediates (a prefix extremum has no
        // sound extrapolation); unreachable by construction, but answer
        // the prefix conservatively rather than panic.
        AggKind::Min | AggKind::Max => (prefix.value, prefix.ci_half),
    };
    Ok(Estimate::approximate(value, ci_half)
        .with_accounting(prefix.tuples_processed, prefix.tuples_skipped))
}

/// A group row's CI half-width for the progressive skip filter: errored
/// rows are infinitely wide (so an error can refine into an answer but a
/// published answer can never regress into an error).
fn row_width(row: &GroupResult) -> f64 {
    match &row.estimate {
        Ok(est) => est.ci_half,
        Err(_) => f64::INFINITY,
    }
}

impl Synopsis for ShardedSynopsis {
    fn name(&self) -> &str {
        &self.name
    }

    /// The one-query case of [`estimate_many`](Self::estimate_many). The
    /// arity check stays in front: the batch path answers mixed-arity
    /// batches query by query through here.
    fn estimate(&self, query: &Query) -> Result<Estimate> {
        if query.dims() != self.dims {
            return Err(PassError::DimensionMismatch {
                expected: self.dims,
                got: query.dims(),
            });
        }
        self.estimate_many(std::slice::from_ref(query))
            .pop()
            .unwrap_or(Err(PassError::EmptyInput(
                "no shard could answer the query",
            )))
    }

    /// Shard-outer / query-inner: each shard answers the whole expanded
    /// batch through its own batched path, then partials merge per query.
    fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
        if queries.iter().any(|q| q.dims() != self.dims) {
            // Mixed-arity batches keep per-query error semantics.
            return queries.iter().map(|q| self.estimate(q)).collect();
        }
        let expanded = self.expand(queries);
        let shard_answers: Vec<Vec<Result<Estimate>>> = self
            .shards
            .iter()
            .map(|s| s.estimate_many(&expanded))
            .collect();
        self.merge_expanded(queries, &shard_answers)
    }

    /// True online aggregation: shards merge one at a time, and after
    /// each prefix a refining snapshot is offered to `publish` — the
    /// extrapolated view of `extrapolate_group` for intermediate
    /// prefixes, the exact merged answer for the final one — the rows of
    /// [`pass_common::estimate_group_by`], because the same per-shard
    /// partials go through the same merge as in
    /// [`estimate_many`](Self::estimate_many).
    ///
    /// A **skip filter** keeps the published stream monotone: an
    /// intermediate snapshot is published only if no group's CI widened
    /// against the last published snapshot (errored groups count as
    /// infinitely wide). MIN/MAX publish no intermediates at all — a
    /// prefix extremum has no sound extrapolation. The final snapshot is
    /// always published. `publish` returning `false` stops the refinement
    /// early and returns the groups of the snapshot just offered.
    fn estimate_group_by_progressive(
        &self,
        query: &GroupByQuery,
        publish: &mut dyn FnMut(GroupBySnapshot) -> bool,
    ) -> Result<Vec<GroupResult>> {
        query.validate(self.dims)?;
        if !self.multi_shard() {
            return self.shards[0].estimate_group_by_progressive(query, publish);
        }
        let total = self.shards.len();
        let queries = query.queries();
        let expanded = self.expand(&queries);
        let mut columns: Vec<Vec<Result<PartialEstimate>>> = vec![Vec::new(); query.len()];
        let mut last_widths: Option<Vec<f64>> = None;
        for (s, shard) in self.shards.iter().enumerate() {
            let answers = shard.estimate_many(&expanded);
            for (column, part) in columns
                .iter_mut()
                .zip(self.shard_partials(&queries, &answers))
            {
                column.push(part);
            }
            let merged = s + 1;
            let is_last = merged == total;
            if !is_last && matches!(query.agg, AggKind::Min | AggKind::Max) {
                continue;
            }
            let groups: Vec<GroupResult> = if is_last {
                query.rows(
                    columns
                        .iter()
                        .map(|parts| PartialEstimate::merge_available(query.agg, parts))
                        .collect(),
                )
            } else {
                query
                    .categories
                    .iter()
                    .zip(&columns)
                    .map(|(&key, parts)| GroupResult {
                        key,
                        estimate: extrapolate_group(query.agg, parts, merged, total),
                    })
                    .collect()
            };
            let widths: Vec<f64> = groups.iter().map(row_width).collect();
            if !is_last {
                if let Some(last) = &last_widths {
                    let widens = widths.iter().zip(last).any(|(w, l)| w > l);
                    if widens {
                        continue;
                    }
                }
            }
            let keep_going = publish(GroupBySnapshot {
                shards_merged: merged,
                shards_total: total,
                groups: groups.clone(),
                last: is_last,
            });
            last_widths = Some(widths);
            if is_last || !keep_going {
                return Ok(groups);
            }
        }
        // The loop always returns at the final shard; an empty shard set
        // cannot be built (`ShardPlan` guarantees at least one shard).
        Err(PassError::EmptyInput("no shard could answer the query"))
    }

    fn spec(&self) -> EngineSpec {
        EngineSpec::Sharded {
            inner: Box::new(self.inner_spec.clone()),
            plan: self.plan.clone(),
        }
    }

    /// One header section (shard count + arity) followed by every shard's
    /// own state sections, recursively.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        crate::snapshot::save_sharded(self, out)
    }

    /// Sum over the shards (the sharding layer itself stores nothing).
    fn storage_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.storage_bytes()).sum()
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::estimate_group_by;
    use pass_table::datasets::uniform;

    #[test]
    fn builds_one_engine_per_shard_and_sums_storage() {
        let t = uniform(8_000, 1);
        let sharded =
            ShardedSynopsis::build(&t, &EngineSpec::uniform(200), &ShardPlan::row_range(4))
                .unwrap();
        assert_eq!(sharded.n_shards(), 4);
        assert_eq!(sharded.name(), "Sharded[4]-US");
        assert_eq!(sharded.dims(), 1);
        let per_shard: usize = sharded
            .shard_engines()
            .iter()
            .map(|s| s.storage_bytes())
            .sum();
        assert_eq!(sharded.storage_bytes(), per_shard);
        assert!(sharded.storage_bytes() > 0);
    }

    #[test]
    fn build_width_does_not_change_what_is_built() {
        let t = uniform(4_000, 2);
        let spec = EngineSpec::uniform(100).with_seed(3);
        let plan = ShardPlan::row_range(3);
        let serial =
            ShardedSynopsis::build_with_pool(&t, &spec, &plan, &ThreadPool::new(1)).unwrap();
        let parallel =
            ShardedSynopsis::build_with_pool(&t, &spec, &plan, &ThreadPool::new(4)).unwrap();
        let q = Query::interval(AggKind::Sum, 0.1, 0.9);
        assert_eq!(
            serial.estimate(&q).unwrap().value,
            parallel.estimate(&q).unwrap().value
        );
    }

    #[test]
    fn dimension_mismatch_is_uniformly_rejected() {
        let t = uniform(1_000, 3);
        let sharded =
            ShardedSynopsis::build(&t, &EngineSpec::uniform(100), &ShardPlan::row_range(2))
                .unwrap();
        let q = Query::new(
            AggKind::Sum,
            pass_common::Rect::new(&[(0.0, 1.0), (0.0, 1.0)]),
        );
        assert!(matches!(
            sharded.estimate(&q),
            Err(PassError::DimensionMismatch { .. })
        ));
        let batch = sharded.estimate_many(std::slice::from_ref(&q));
        assert!(matches!(batch[0], Err(PassError::DimensionMismatch { .. })));
    }

    /// A mock shard: answers every query with a fixed estimate, or
    /// refuses with `EmptyInput` — the deterministic way to pin the
    /// availability rule (real sampling engines answer SUM/COUNT with
    /// 0 ± 0 rather than erroring, so only model-based engines exercise
    /// the additive `EmptyInput` path, and only data-dependently).
    struct MockShard(Option<Estimate>);

    impl Synopsis for MockShard {
        fn name(&self) -> &str {
            "MOCK"
        }
        fn estimate(&self, _q: &Query) -> Result<Estimate> {
            self.0
                .clone()
                .ok_or(PassError::EmptyInput("no sampled tuple matches"))
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn dims(&self) -> usize {
            1
        }
    }

    fn mock_sharded(shards: Vec<Arc<dyn Synopsis>>) -> ShardedSynopsis {
        ShardedSynopsis {
            plan: ShardPlan::row_range(shards.len()),
            inner_spec: EngineSpec::uniform(1),
            name: format!("Sharded[{}]-MOCK", shards.len()),
            dims: 1,
            shards,
        }
    }

    #[test]
    fn empty_input_shards_follow_stratified_availability() {
        let answering = || -> Arc<dyn Synopsis> {
            Arc::new(MockShard(Some(
                Estimate::approximate(10.0, 3.0).with_hard_bounds(4.0, 16.0),
            )))
        };
        let silent = || -> Arc<dyn Synopsis> { Arc::new(MockShard(None)) };

        // Mixed additive: the silent shard contributes zero — but with
        // no hard bounds and no exactness claim, since it may hold
        // unsampled matching rows; the CI is the answering shard's.
        let mixed = mock_sharded(vec![answering(), silent()]);
        for agg in [AggKind::Sum, AggKind::Count] {
            let est = mixed.estimate(&Query::interval(agg, 0.0, 1.0)).unwrap();
            assert_eq!(est.value, 10.0, "{agg}");
            assert_eq!(est.ci_half, 3.0, "{agg}");
            assert_eq!(est.hard_bounds, None, "{agg}");
            assert!(!est.exact, "{agg}");
        }
        // Mixed non-additive: the silent shard is skipped, and because
        // it may hold unsampled matching rows, the merged answer keeps
        // no hard bounds and no exactness claim. (AVG is recomputed as
        // SUM/COUNT of the answering shards: the mock answers 10 for
        // both sub-queries, so the ratio is 1.)
        for (agg, want) in [
            (AggKind::Avg, 1.0),
            (AggKind::Min, 10.0),
            (AggKind::Max, 10.0),
        ] {
            let est = mixed.estimate(&Query::interval(agg, 0.0, 1.0)).unwrap();
            assert_eq!(est.value, want, "{agg}");
            assert_eq!(est.hard_bounds, None, "{agg}");
            assert!(!est.exact, "{agg}");
        }

        // All-silent: the query fails with the shard's own error — no
        // fabricated 0 ± 0 — matching the unsharded engine at K = 1.
        let all_silent = mock_sharded(vec![silent(), silent()]);
        let single_silent = mock_sharded(vec![silent()]);
        for agg in AggKind::ALL {
            let q = Query::interval(agg, 0.0, 1.0);
            for sharded in [&all_silent, &single_silent] {
                assert!(
                    matches!(sharded.estimate(&q), Err(PassError::EmptyInput(_))),
                    "{agg}"
                );
            }
        }

        // Real engines, end to end: MIN over a region nothing sampled —
        // every shard refuses, so the query fails.
        let t = uniform(10_000, 4);
        let sharded =
            ShardedSynopsis::build(&t, &EngineSpec::uniform(4), &ShardPlan::row_range(8)).unwrap();
        let disjoint = Query::interval(AggKind::Min, 5.0, 6.0);
        assert!(sharded.estimate(&disjoint).is_err());
    }

    #[test]
    fn short_shard_answers_are_a_typed_error_not_a_panic() {
        let answering = || -> Arc<dyn Synopsis> { Arc::new(MockShard(Some(Estimate::exact(1.0)))) };
        let q = Query::interval(AggKind::Avg, 0.0, 1.0);
        let queries = std::slice::from_ref(&q);
        let short = |got: &[Result<Estimate>]| {
            matches!(got, [Err(PassError::InvalidParameter("shard_answers", _))])
        };
        // One shard that returned nothing for a one-query batch.
        let single = mock_sharded(vec![answering()]);
        assert!(short(&single.merge_expanded(queries, &[vec![]])));
        // Two shards, AVG expands to COUNT + SUM: the second shard's
        // answers stop one short.
        let multi = mock_sharded(vec![answering(), answering()]);
        let full = vec![Ok(Estimate::exact(1.0)), Ok(Estimate::exact(2.0))];
        let cut = full[..1].to_vec();
        assert!(short(&multi.merge_expanded(queries, &[full.clone(), cut])));
        assert!(multi.merge_expanded(queries, &[full.clone(), full])[0].is_ok());
    }

    #[test]
    fn group_by_merges_per_group_with_the_availability_rule() {
        let answering = || -> Arc<dyn Synopsis> {
            Arc::new(MockShard(Some(
                Estimate::approximate(10.0, 3.0).with_hard_bounds(4.0, 16.0),
            )))
        };
        let silent = || -> Arc<dyn Synopsis> { Arc::new(MockShard(None)) };
        let gq = GroupByQuery::over(AggKind::Sum, 0, &[1.0, 2.0], 1);

        // Mixed: the silent shard contributes a boundless zero per group.
        let mixed = mock_sharded(vec![answering(), silent()]);
        let rows = estimate_group_by(&mixed, &gq).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            let est = r.estimate.as_ref().unwrap();
            assert_eq!(est.value, 10.0);
            assert_eq!(est.hard_bounds, None);
            assert!(!est.exact);
        }
        // All-silent: per-row errors, never a fabricated zero row.
        let all_silent = mock_sharded(vec![silent(), silent()]);
        let rows = estimate_group_by(&all_silent, &gq).unwrap();
        assert!(rows.iter().all(|r| r.estimate.is_err()));
        // A 1-shard plan forwards to the lone shard verbatim.
        let single = mock_sharded(vec![answering()]);
        let direct = estimate_group_by(&single.shard_engines()[0], &gq).unwrap();
        assert_eq!(estimate_group_by(&single, &gq).unwrap(), direct);
        // Malformed queries are rejected as a whole.
        let bad = GroupByQuery::over(AggKind::Sum, 3, &[1.0], 1);
        assert!(estimate_group_by(&mixed, &bad).is_err());
    }

    #[test]
    fn progressive_snapshots_tighten_into_the_exact_answer() {
        let answering = || -> Arc<dyn Synopsis> {
            Arc::new(MockShard(Some(
                Estimate::approximate(10.0, 3.0).with_hard_bounds(4.0, 16.0),
            )))
        };
        let sharded = mock_sharded(vec![answering(), answering(), answering()]);
        let gq = GroupByQuery::over(AggKind::Sum, 0, &[1.0], 1);
        let mut snaps = Vec::new();
        let groups = sharded
            .estimate_group_by_progressive(&gq, &mut |s| {
                snaps.push(s);
                true
            })
            .unwrap();
        let final_snap = snaps.last().unwrap();
        assert!(final_snap.last);
        assert_eq!(final_snap.shards_merged, 3);
        assert_eq!(final_snap.groups, groups);
        // The final snapshot is the non-progressive answer, bit for bit.
        assert_eq!(groups, estimate_group_by(&sharded, &gq).unwrap());
        // CI widths only tighten, and intermediates claim no hard bounds.
        let widths: Vec<f64> = snaps.iter().map(|s| row_width(&s.groups[0])).collect();
        for pair in widths.windows(2) {
            assert!(pair[1] <= pair[0], "widths must not widen: {widths:?}");
        }
        for s in &snaps[..snaps.len() - 1] {
            assert!(!s.last);
            let est = s.groups[0].estimate.as_ref().unwrap();
            assert_eq!(est.hard_bounds, None);
            assert!(!est.exact);
        }
        // Early stop returns the snapshot just offered.
        let mut offered = 0;
        let stopped = sharded
            .estimate_group_by_progressive(&gq, &mut |_| {
                offered += 1;
                false
            })
            .unwrap();
        assert_eq!(offered, 1);
        assert_eq!(stopped.len(), 1);
        // A 1-shard plan streams exactly one final snapshot.
        let single = mock_sharded(vec![answering()]);
        let mut snaps = Vec::new();
        let groups = single
            .estimate_group_by_progressive(&gq, &mut |s| {
                snaps.push(s);
                true
            })
            .unwrap();
        assert_eq!(snaps.len(), 1);
        assert!(snaps[0].last);
        assert_eq!(snaps[0].groups, groups);
    }

    #[test]
    fn nested_sharding_composes() {
        let t = uniform(4_000, 5);
        let spec = EngineSpec::sharded(
            EngineSpec::sharded(EngineSpec::uniform(100), ShardPlan::row_range(2)),
            ShardPlan::row_range(2),
        );
        let engine = Engine::build(&t, &spec).unwrap();
        assert_eq!(engine.spec(), spec);
        let q = Query::interval(AggKind::Count, 0.0, 1.0);
        let truth = t.ground_truth(&q).unwrap();
        // COUNT of everything is exact for US shards (all sampled rows
        // match), so the nested merge reproduces it exactly.
        assert!((engine.estimate(&q).unwrap().value - truth).abs() < 1e-9);
    }
}
