//! A synopsis over one logical table partitioned across per-shard engines.
//!
//! [`ShardedSynopsis`] interprets an [`EngineSpec::Sharded`] spec: the
//! table is cut into disjoint shards by a
//! [`ShardPlan`] (`Table::split`), one inner
//! engine is built per shard — **concurrently**, on a
//! [`pass_common::ThreadPool`] — and at query time every shard answers
//! with plain [`Estimate`]s that [`merge_available`] reduces to one. Over
//! several shards AVG is asked as COUNT + SUM and answered as the [`ratio`]
//! of the merged COUNT and SUM, like PASS's AVG over strata (paper §3.3).
//!
//! The statistical contract (pinned by `tests/sharded_contract.rs`):
//!
//! * **1-shard identity** — a single-shard plan is bit-identical to the
//!   unsharded engine for every aggregate (each query passes through
//!   untouched, and the merge of one answer is that answer, verbatim).
//! * **COUNT/SUM additivity** — the merged point estimate is exactly the
//!   sum of the per-shard estimates (disjoint strata compose linearly),
//!   and the merged CI is the root-sum-square of the shard CIs
//!   (variances of independently built shards add), so it is at least as
//!   wide as every component.
//! * **AVG** — ΣSUM/ΣCOUNT of the shards' own answers with the ratio's
//!   delta-method CI, hard bounds from the summed SUM and COUNT bounds,
//!   and exact when every COUNT and SUM answer is.
//! * **Availability** — a shard that cannot match any tuple
//!   (`PassError::EmptyInput`) contributes zero to COUNT/SUM (AVG's
//!   included) and is skipped for MIN/MAX, like an empty stratum in a
//!   stratified estimator; only if *no* shard can answer does the query
//!   fail. A silent shard keeps the merged answer from claiming hard
//!   bounds or exactness — it may hold unsampled matching rows the
//!   answering shards' bounds know nothing about.
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

use pass_common::partial::{merge_available, ratio};
use pass_common::rng::derive_seed;
use pass_common::{
    AggKind, EngineSpec, Estimate, PassError, Query, Result, ShardPlan, Synopsis, ThreadPool,
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

    /// Whether a query of `agg` is asked as COUNT then SUM: an AVG merged
    /// across several shards is their [`ratio`] and never reads a shard's
    /// own AVG. A single-shard plan passes each query through untouched
    /// (the merge of one answer is that answer, verbatim).
    fn splits(&self, agg: AggKind) -> bool {
        agg == AggKind::Avg && self.shards.len() > 1
    }

    /// The batch each shard answers: every query's sub-queries,
    /// concatenated in query order.
    fn expand(&self, queries: &[Query]) -> Vec<Query> {
        let mut expanded = Vec::with_capacity(queries.len());
        for q in queries {
            if self.splits(q.agg) {
                expanded.extend(
                    [AggKind::Count, AggKind::Sum].map(|agg| Query::new(agg, q.rect.clone())),
                );
            } else {
                expanded.push(q.clone());
            }
        }
        expanded
    }

    /// Merge one query's answers (shard s's answers to its sub-queries at
    /// index s) under the stratified availability rule of
    /// [`merge_available`]: a split AVG is the [`ratio`] of its
    /// merged COUNT and merged SUM, anything else merges directly.
    fn merge_query(&self, agg: AggKind, own: &[&[Result<Estimate>]]) -> Result<Estimate> {
        let merged = |sub: usize, agg: AggKind| {
            let answers: Vec<Result<Estimate>> =
                own.iter().filter_map(|a| a.get(sub).cloned()).collect();
            merge_available(agg, &answers)
        };
        if self.splits(agg) {
            ratio(&merged(0, AggKind::Count)?, &merged(1, AggKind::Sum)?)
        } else {
            merged(0, agg)
        }
    }

    /// Merge per-shard answers to the expanded batch back into one result
    /// per original query (`shard_answers[i]` is shard i's answers to
    /// [`expand`](Self::expand)'s concatenated sub-queries). A query whose
    /// answers some shard is short of gets a typed error, not a panic.
    fn merge_expanded(
        &self,
        queries: &[Query],
        shard_answers: &[Vec<Result<Estimate>>],
    ) -> Vec<Result<Estimate>> {
        let mut cursor = 0usize;
        queries
            .iter()
            .map(|q| {
                let width = if self.splits(q.agg) { 2 } else { 1 };
                let own = cursor..cursor + width;
                cursor += width;
                let column = shard_answers
                    .iter()
                    .map(|answers| {
                        answers.get(own.clone()).ok_or_else(|| {
                            PassError::InvalidParameter(
                                "shard_answers",
                                "a shard is short of the expanded batch".into(),
                            )
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                self.merge_query(q.agg, &column)
            })
            .collect()
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
    /// batch through its own batched path, then the answers merge per query.
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
    use pass_common::{estimate_group_by, GroupByQuery};
    use pass_table::datasets::uniform;
    use proptest::prelude::*;

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
    fn merge_decomposition_skips_the_avg_sub_query() {
        let answering = || -> Arc<dyn Synopsis> { Arc::new(MockShard(Some(Estimate::exact(1.0)))) };
        let batch = [
            Query::interval(AggKind::Avg, 0.0, 1.0),
            Query::interval(AggKind::Sum, 0.0, 1.0),
        ];
        // Over several shards AVG is asked as COUNT then SUM, never as
        // itself; other aggregates are asked as they are.
        let multi = mock_sharded(vec![answering(), answering()]);
        let aggs: Vec<AggKind> = multi.expand(&batch).iter().map(|q| q.agg).collect();
        assert_eq!(aggs, [AggKind::Count, AggKind::Sum, AggKind::Sum]);
        // A 1-shard plan passes each query through untouched.
        let single = mock_sharded(vec![answering()]);
        assert_eq!(single.expand(&batch), batch.to_vec());
    }

    #[test]
    fn an_exact_empty_shard_keeps_a_multi_shard_avg_exact() {
        // A shard that answers COUNT and SUM with an exact 0 has no AVG of
        // its own, but its zeros are exact: ΣSUM/ΣCOUNT = (0 + 4)/(0 + 4)
        // stays exact, with degenerate bounds.
        let sharded = mock_sharded(vec![
            Arc::new(MockShard(Some(Estimate::exact(0.0)))),
            Arc::new(MockShard(Some(Estimate::exact(4.0)))),
        ]);
        let est = sharded
            .estimate(&Query::interval(AggKind::Avg, 0.0, 1.0))
            .unwrap();
        assert_eq!(est.value, 1.0);
        assert!(est.exact);
        assert_eq!(est.hard_bounds, Some((1.0, 1.0)));
    }

    /// A mock shard answering COUNT and SUM with fixed estimates.
    struct CountSumShard {
        count: Estimate,
        sum: Estimate,
    }

    impl Synopsis for CountSumShard {
        fn name(&self) -> &str {
            "MOCK"
        }
        fn estimate(&self, q: &Query) -> Result<Estimate> {
            match q.agg {
                AggKind::Count => Ok(self.count.clone()),
                AggKind::Sum => Ok(self.sum.clone()),
                _ => Err(PassError::InvalidParameter("agg", "COUNT/SUM only".into())),
            }
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn dims(&self) -> usize {
            1
        }
    }

    /// A shard's AVG bounds as the corner extremes of its SUM bounds over
    /// its COUNT bounds, when its COUNT is provably positive.
    fn own_avg_bounds(count: &Estimate, sum: &Estimate) -> Option<(f64, f64)> {
        let ((cl, cu), (sl, su)) = (count.hard_bounds?, sum.hard_bounds?);
        let corners = [sl / cl, sl / cu, su / cl, su / cu];
        (cl > 0.0).then(|| {
            let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        })
    }

    /// An AVG's value, CI half-width and (span of the shards' own) bounds.
    type AvgReference = (f64, f64, Option<(f64, f64)>);

    /// The K-way AVG merge of per-shard AVG partials that one ratio of the
    /// merged COUNT and SUM replaced, kept as the reference for its value
    /// and CI bits: a shard whose estimated COUNT is not positive is
    /// silent; one answering shard gives its own delta-method ratio
    /// verbatim; several give ΣSUM/ΣCOUNT over the answering shards with
    /// the root-sum-square CIs. Its bounds spanned the shards' own AVG
    /// bounds, so they are returned only when every shard has them.
    fn reference_avg(shards: &[(Estimate, Estimate)]) -> Option<AvgReference> {
        let answering: Vec<&(Estimate, Estimate)> =
            shards.iter().filter(|(c, _)| c.value > 0.0).collect();
        let delta = |count: f64, sum: f64, count_ci: f64, sum_ci: f64| {
            let value = sum / count;
            let ci = (sum_ci * sum_ci + value * value * count_ci * count_ci).sqrt() / count;
            (value, ci)
        };
        let (value, ci) = match answering.as_slice() {
            [] => return None,
            [(c, s)] => delta(c.value, s.value, c.ci_half, s.ci_half),
            many => {
                let rss = |ci: fn(&(Estimate, Estimate)) -> f64| {
                    many.iter().map(|p| ci(p) * ci(p)).sum::<f64>().sqrt()
                };
                delta(
                    many.iter().map(|(c, _)| c.value).sum(),
                    many.iter().map(|(_, s)| s.value).sum(),
                    rss(|p| p.0.ci_half),
                    rss(|p| p.1.ci_half),
                )
            }
        };
        let span = shards
            .iter()
            .map(|(c, s)| own_avg_bounds(c, s))
            .collect::<Option<Vec<_>>>()
            .map(|b| {
                let lo = b.iter().map(|b| b.0).fold(f64::INFINITY, f64::min);
                let hi = b.iter().map(|b| b.1).fold(f64::NEG_INFINITY, f64::max);
                (lo, hi)
            });
        Some((value, ci, span))
    }

    /// One shard's COUNT and SUM answers: estimated-empty (count 0,
    /// bounded or exact), exact, or approximate with bounds whose COUNT
    /// lower bound may reach 0; COUNT and SUM share the shard's accounting.
    /// An estimated-empty shard reports 0 ± 0: one reporting a CI would
    /// now widen the merged CI, the one intended departure from the old
    /// bits.
    fn count_sum_answers() -> impl Strategy<Value = (Estimate, Estimate)> {
        let empty = (0.0f64..5.0, -50.0f64..0.0, 0.0f64..50.0, 0u64..100).prop_map(
            |(cu, sl, su, processed)| {
                (
                    Estimate::approximate(0.0, 0.0)
                        .with_hard_bounds(0.0, cu)
                        .with_accounting(processed, 0),
                    Estimate::approximate(0.0, 0.0)
                        .with_hard_bounds(sl, su)
                        .with_accounting(processed, 0),
                )
            },
        );
        let exact = (1u32..200, -100.0f64..100.0, 0u64..100).prop_map(|(c, avg, processed)| {
            let c = f64::from(c);
            (
                Estimate::exact(c).with_accounting(processed, 7),
                Estimate::exact(c * avg).with_accounting(processed, 7),
            )
        });
        let approximate = (
            (1.0f64..200.0, 0.0f64..20.0, 0.0f64..1.2, 0.0f64..1.0),
            (
                -100.0f64..100.0,
                0.0f64..500.0,
                0.0f64..200.0,
                0.0f64..200.0,
            ),
            0u64..1_000,
        )
            .prop_map(
                |((c, c_ci, down, up), (avg, s_ci, s_down, s_up), processed)| {
                    let s = c * avg;
                    (
                        Estimate::approximate(c, c_ci)
                            .with_hard_bounds(c * (1.0 - down), c * (1.0 + up))
                            .with_accounting(processed, processed / 2),
                        Estimate::approximate(s, s_ci)
                            .with_hard_bounds(s - s_down, s + s_up)
                            .with_accounting(processed, processed / 2),
                    )
                },
            );
        prop_oneof![
            1 => empty,
            1 => Just((Estimate::exact(0.0), Estimate::exact(0.0))),
            2 => exact,
            6 => approximate,
        ]
    }

    proptest! {
        #[test]
        fn multi_shard_avg_keeps_the_old_value_and_ci_bits_with_tighter_sound_bounds(
            shards in prop::collection::vec(count_sum_answers(), 2..=8),
            picks in prop::collection::vec(prop::collection::vec(0usize..4, 8), 16),
        ) {
            let sharded = mock_sharded(
                shards
                    .iter()
                    .map(|(count, sum)| -> Arc<dyn Synopsis> {
                        Arc::new(CountSumShard { count: count.clone(), sum: sum.clone() })
                    })
                    .collect(),
            );
            let got = sharded.estimate(&Query::interval(AggKind::Avg, 0.0, 1.0));
            let Some((value, ci_half, span)) = reference_avg(&shards) else {
                prop_assert!(matches!(got, Err(PassError::EmptyInput(_))), "{got:?}");
                continue;
            };
            let est = got.unwrap();
            prop_assert_eq!(est.value.to_bits(), value.to_bits(), "{} vs {}", est.value, value);
            prop_assert_eq!(est.ci_half.to_bits(), ci_half.to_bits(), "{} vs {}", est.ci_half, ci_half);
            // Every shard scanned its state once for both sub-queries.
            let processed: u64 = shards.iter().map(|(c, _)| c.tuples_processed).sum();
            prop_assert_eq!(est.tuples_processed, processed);
            prop_assert_eq!(est.exact, shards.iter().all(|(c, s)| c.exact && s.exact));

            // Bounds exist exactly when ΣCOUNT is provably positive.
            let count_lo: f64 = shards.iter().map(|(c, _)| c.hard_bounds.unwrap().0).sum();
            prop_assert_eq!(est.hard_bounds.is_some(), count_lo > 0.0);
            let Some((lo, hi)) = est.hard_bounds else { continue };
            let tol = 1e-12 * lo.abs().max(hi.abs()).max(1.0);
            // Inside the span of the shards' own AVG bounds (mediant
            // inequality) wherever every shard has them.
            if let Some((old_lo, old_hi)) = span {
                prop_assert!(old_lo - tol <= lo && hi <= old_hi + tol, "[{lo}, {hi}] vs [{old_lo}, {old_hi}]");
            }
            // Sound: every ΣSUM/ΣCOUNT inside the shards' bound boxes,
            // sampled at their corners, lies within.
            let uniform = (0..4).map(|corner| vec![corner; 8]);
            for pick in picks.iter().cloned().chain(uniform) {
                let (sum, count) = shards.iter().zip(&pick).fold((0.0, 0.0), |(sum, count), ((c, s), &corner)| {
                    let ((cl, cu), (sl, su)) = (c.hard_bounds.unwrap(), s.hard_bounds.unwrap());
                    let s = if corner & 1 == 0 { sl } else { su };
                    let c = if corner & 2 == 0 { cl } else { cu };
                    (sum + s, count + c)
                });
                let r = sum / count;
                prop_assert!(lo - tol <= r && r <= hi + tol, "{r} outside [{lo}, {hi}]");
            }
        }
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
