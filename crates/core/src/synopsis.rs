//! The [`Pass`] synopsis and its construction (the user-facing API of
//! Section 3.1).
//!
//! The user picks an aggregation column and predicate columns (by shaping
//! the input [`Table`]), a partition budget `k` (standing in for the
//! construction-time limit τ_c) and a sampling budget (standing in for the
//! query-time limit τ_q) in a [`PassSpec`]; [`Pass::from_spec`] optimizes
//! the partitioning, erects the aggregate tree, and draws the per-leaf
//! stratified samples.

use rand::seq::index::sample as index_sample;
use rand::Rng;

use pass_common::rng::{derive_seed, rng_from_seed};
use pass_common::{AggKind, EngineSpec, Estimate, PassError, PassSpec, Query, Result, Synopsis};
use pass_partition::{
    build_kd, Adp, EqualDepth, EqualWidth, HillClimb, KdExpansion, Partitioner1D,
};
use pass_sampling::{Sample, SampleArena};
use pass_table::{SortedTable, Table};

use crate::mcf::McfScratch;
use crate::tree::PartitionTree;

// The strategy enum is shared vocabulary (it appears inside `PassSpec`);
// re-exported here so existing `pass_core::PartitionStrategy` paths keep
// working.
pub use pass_common::PartitionStrategy;

fn partitioner_1d(spec: &PassSpec) -> Box<dyn Partitioner1D> {
    match spec.strategy {
        PartitionStrategy::Adp(kind) => Box::new(
            Adp::new(kind)
                .with_samples(spec.opt_samples)
                .with_delta(spec.adp_delta)
                .with_seed(derive_seed(spec.seed, 1)),
        ),
        PartitionStrategy::EqualDepth => Box::new(EqualDepth),
        PartitionStrategy::HillClimb => Box::new(HillClimb::new(AggKind::Sum)),
        PartitionStrategy::EqualWidth => Box::new(EqualWidth),
    }
}

/// The sorted-DP path for 1-D tables.
fn build_1d(spec: &PassSpec, table: &Table) -> Result<Pass> {
    let sorted = SortedTable::from_table_ordered(table, 0)?;
    let partitioning = partitioner_1d(spec).partition(&sorted, spec.partitions)?;
    let tree = PartitionTree::from_partitioning(&sorted, &partitioning)?;
    // Per-range sampling reads rows in partition order: the sorted view's
    // own columns, now that the partitioner and the tree are done with it.
    let sorted_table = sorted.into_table()?;
    let mut rng = rng_from_seed(derive_seed(spec.seed, 2));
    let leaf_sizes: Vec<usize> = partitioning.ranges().iter().map(|r| r.len()).collect();
    let allocations = allocate_samples(spec, &leaf_sizes);
    let mut samples = Vec::with_capacity(leaf_sizes.len());
    for (range, k) in partitioning.ranges().into_iter().zip(allocations) {
        samples.push(Sample::uniform_from_range(
            &sorted_table,
            range,
            k,
            &mut rng,
        )?);
    }
    Ok(Pass::from_parts(spec, tree, samples, 0))
}

/// The k-d expansion path: the tree is built over `tree_table`, the
/// per-leaf samples are drawn from `sample_table` (same rows). The two
/// are one table for a plain multi-d build; a workload-shift build hands
/// the tree a projection while the samples keep every predicate column.
/// `stream` and `stream + 1` label the expansion and sampling seeds.
fn build_kd_sampled(
    spec: &PassSpec,
    tree_table: &Table,
    sample_table: &Table,
    stream: u64,
) -> Result<Pass> {
    let expansion = match spec.strategy {
        PartitionStrategy::Adp(kind) => KdExpansion::MaxVariance {
            kind,
            balance: spec.kd_balance,
        },
        _ => KdExpansion::BreadthFirst,
    };
    let kd = build_kd(
        tree_table,
        spec.partitions,
        expansion,
        derive_seed(spec.seed, stream),
    )?;
    let tree = PartitionTree::from_kd(tree_table, &kd)?;
    let leaves = kd.leaf_ids();
    let leaf_sizes: Vec<usize> = leaves.iter().map(|&l| kd.nodes[l].len()).collect();
    let allocations = allocate_samples(spec, &leaf_sizes);
    let mut rng = rng_from_seed(derive_seed(spec.seed, stream + 1));
    let mut samples = Vec::with_capacity(leaves.len());
    for (&leaf, k) in leaves.iter().zip(allocations) {
        let rows = kd.rows_of(leaf);
        let chosen: Vec<usize> = if k >= rows.len() {
            rows.iter().map(|&r| r as usize).collect()
        } else {
            index_sample(&mut rng, rows.len(), k)
                .into_iter()
                .map(|i| rows[i] as usize)
                .collect()
        };
        samples.push(Sample::from_indices(
            sample_table,
            &chosen,
            rows.len() as u64,
        )?);
    }
    Ok(Pass::from_parts(spec, tree, samples, 0))
}

/// Per-leaf sample sizes: proportional to leaf populations, at least 1
/// per non-empty leaf, matching either the rate or the BSS cap.
fn allocate_samples(spec: &PassSpec, leaf_sizes: &[usize]) -> Vec<usize> {
    match spec.total_samples {
        None => leaf_sizes
            .iter()
            .map(|&n| ((n as f64 * spec.sample_rate).round() as usize).clamp(1, n.max(1)))
            .collect(),
        Some(total) => {
            let n_total: usize = leaf_sizes.iter().sum();
            if n_total == 0 {
                return vec![0; leaf_sizes.len()];
            }
            leaf_sizes
                .iter()
                .map(|&n| {
                    let share = (total as f64 * n as f64 / n_total as f64).round() as usize;
                    share.clamp(usize::from(n > 0), n.max(1))
                })
                .collect()
        }
    }
}

/// A built PASS synopsis: aggregate tree + per-leaf stratified samples.
#[derive(Debug, Clone)]
pub struct Pass {
    pub(crate) tree: PartitionTree,
    pub(crate) samples: Vec<Sample>,
    /// Flat, cache-resident mirror of `samples` — the structure the query
    /// hot path actually scans. Derived: flattened once in
    /// [`from_parts`](Self::from_parts); each mutation epoch copies the one
    /// stratum it touched back in.
    pub(crate) arena: SampleArena,
    /// The declarative configuration this synopsis was built from — also
    /// where the zero-variance rule and the update seed are read from.
    pub(crate) spec: PassSpec,
    /// Mutations absorbed since the build (inserts, deletes) — the
    /// [`Synopsis::update_epoch`] counter that lets `CachedSynopsis` drop
    /// stale answers automatically.
    pub(crate) mutation_epoch: u64,
}

impl Pass {
    /// Assemble a synopsis from its stored parts — the one place a `Pass`
    /// value is made, shared by the build and the snapshot loader.
    pub(crate) fn from_parts(
        spec: &PassSpec,
        tree: PartitionTree,
        samples: Vec<Sample>,
        mutation_epoch: u64,
    ) -> Pass {
        Pass {
            arena: SampleArena::from_samples(&samples),
            tree,
            samples,
            spec: spec.clone(),
            mutation_epoch,
        }
    }

    /// Build from a declarative [`PassSpec`] — the one construction path
    /// (the registry and `Session` come through here). 1-D tables take
    /// the sorted-DP path, higher-dimensional tables the k-d expansion
    /// path. With [`PassSpec::tree_dims`] set (workload shift, Section
    /// 5.4.1) the tree is built over those predicate dimensions only and
    /// then [lifted](PartitionTree::lifted) into the table's full arity,
    /// while the samples keep every predicate column: dimensions outside
    /// the tree are handled by sampling after tree-based skipping.
    pub fn from_spec(table: &Table, spec: &PassSpec) -> Result<Pass> {
        if table.n_rows() == 0 {
            return Err(PassError::EmptyInput("PASS over empty table"));
        }
        EngineSpec::Pass(spec.clone()).validate()?;
        match &spec.tree_dims {
            Some(dims) => {
                let mut pass = build_kd_sampled(spec, &table.project(dims)?, table, 5)?;
                pass.tree = pass.tree.lifted(dims, table.dims())?;
                Ok(pass)
            }
            None if table.dims() == 1 => build_1d(spec, table),
            None => build_kd_sampled(spec, table, table, 3),
        }
    }

    /// The annotated partition tree.
    pub fn tree(&self) -> &PartitionTree {
        &self.tree
    }

    /// Per-leaf stratified samples (leaf-index order).
    pub fn leaf_samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The flat arena the query path scans: after every update, what
    /// [`SampleArena::from_samples`] builds over the leaf samples.
    #[doc(hidden)]
    pub fn arena(&self) -> &SampleArena {
        &self.arena
    }

    /// Total stored sample rows.
    pub fn total_samples(&self) -> usize {
        self.samples.iter().map(|s| s.k()).sum()
    }

    /// Mutations absorbed since the build (see [`Synopsis::update_epoch`]).
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// Record one absorbed mutation of `stratum`'s sample. Every path that
    /// changes query-visible state (`insert`, `delete`) must call this so
    /// epoch-aware caches never serve stale answers. Doubling as the
    /// derived-state choke point, it also copies that stratum into the
    /// flat [`SampleArena`] — O(K_i), the other strata untouched — so the
    /// hot path can keep trusting the arena between mutations. (The
    /// tree's empty-node flag is kept by the tree's own path mutators.)
    pub(crate) fn bump_mutation_epoch(&mut self, stratum: usize) {
        self.mutation_epoch += 1;
        self.arena.set_stratum(stratum, &self.samples[stratum]);
    }

    /// Answer one query on `scratch` — the single path behind
    /// [`estimate`](Synopsis::estimate) and
    /// [`estimate_many`](Synopsis::estimate_many).
    fn answer(&self, scratch: &mut McfScratch, query: &Query) -> Result<Estimate> {
        crate::query::process_arena(
            scratch,
            &self.tree,
            &self.arena,
            query,
            self.spec.zero_variance_rule,
        )
    }

    /// Draw a deterministic RNG for update operations.
    pub(crate) fn update_rng(&self, salt: u64) -> impl Rng {
        rng_from_seed(derive_seed(self.spec.seed, 0xD11 ^ salt))
    }
}

impl Synopsis for Pass {
    fn name(&self) -> &str {
        "PASS"
    }

    fn estimate(&self, query: &Query) -> Result<Estimate> {
        McfScratch::with_local(|scratch| self.answer(scratch, query))
    }

    /// The whole batch runs on one borrow of the thread's scratch and is
    /// element-wise bit-identical to repeated
    /// [`estimate`](Self::estimate).
    ///
    /// Over a multi-dimensional tree, where a query meets tens of partial
    /// leaves and the queries of a batch share them, the batch is cut
    /// into windows of up to 256 queries (32 768 ÷ the tree's leaf
    /// count, at least one; 128 over 256 leaves). One lockstep walk of
    /// the tree classifies a whole window, and each partial leaf's sample
    /// is scanned once for the run of queries that share it, four queries
    /// per pass of the lockstep group kernel. Each query is then finished
    /// exactly as a single one is — a single query is a window of one —
    /// reading the scanned points back. A warmed-up batch allocates its
    /// answer vector and nothing else. A 1-D tree, where a query has at
    /// most two partial leaves and each scan is a binary search, has
    /// nothing to share: its batches are a loop of single queries on the
    /// same scratch.
    fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
        McfScratch::with_local(|scratch| {
            if self.tree.dims() > 1 {
                crate::query::process_batch(
                    scratch,
                    &self.tree,
                    &self.arena,
                    queries,
                    self.spec.zero_variance_rule,
                )
            } else {
                queries.iter().map(|q| self.answer(scratch, q)).collect()
            }
        })
    }

    fn spec(&self) -> EngineSpec {
        EngineSpec::Pass(self.spec.clone())
    }

    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        crate::snapshot::save_pass(self, out)
    }

    /// Streaming updates make `Pass` the one mutable engine in the
    /// workspace; exposing the mutation count lets `CachedSynopsis`
    /// invalidate stale entries automatically (no manual `clear_cache`).
    fn update_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    fn storage_bytes(&self) -> usize {
        let sample_bytes: usize = self.samples.iter().map(Sample::storage_bytes).sum();
        self.tree.storage_bytes() + sample_bytes
    }

    fn dims(&self) -> usize {
        self.tree.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::{estimate_group_by, GroupByQuery, Rect};
    use pass_table::datasets::{adversarial, instacart, taxi, uniform};

    /// `partitions`, `sample_rate` and `seed` set, every other knob default.
    fn spec(partitions: usize, sample_rate: f64, seed: u64) -> PassSpec {
        PassSpec {
            partitions,
            sample_rate,
            seed,
            ..PassSpec::default()
        }
    }

    #[test]
    fn builds_and_answers_on_uniform_data() {
        let t = uniform(20_000, 1);
        let pass = Pass::from_spec(&t, &spec(32, 0.02, 2)).unwrap();
        assert_eq!(pass.tree().n_leaves(), 32);
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = Query::interval(agg, 0.1, 0.8);
            let est = pass.estimate(&q).unwrap();
            let truth = t.ground_truth(&q).unwrap();
            let rel = (est.value - truth).abs() / truth.abs();
            assert!(rel < 0.1, "{agg}: rel {rel}");
        }
    }

    #[test]
    fn a_nan_predicate_key_is_a_typed_refusal() {
        let t = Table::one_dim(vec![1.0, f64::NAN, 3.0, 4.0], vec![1.0; 4]).unwrap();
        let err = Pass::from_spec(&t, &spec(2, 1.0, 0)).err();
        assert!(
            matches!(err, Some(PassError::InvalidParameter("predicates", _))),
            "{err:?}"
        );
    }

    #[test]
    fn sample_budget_respected_in_bss_mode() {
        let t = uniform(10_000, 3);
        let pass = Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 16,
                total_samples: Some(200),
                ..PassSpec::default()
            },
        )
        .unwrap();
        let total = pass.total_samples();
        assert!(
            (184..=216).contains(&total),
            "rounding keeps totals near the cap: {total}"
        );
    }

    #[test]
    fn equal_depth_strategy_builds() {
        let t = uniform(5_000, 4);
        let pass = Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 8,
                strategy: PartitionStrategy::EqualDepth,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let sizes: Vec<u64> = pass
            .tree()
            .leaves()
            .into_iter()
            .map(|id| pass.tree().agg(id).count)
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn adp_beats_equal_depth_on_adversarial_data() {
        let t = adversarial(50_000, 5);
        let q = Query::interval(AggKind::Sum, 44_000.0, 48_123.0);
        let truth = t.ground_truth(&q).unwrap();
        let mut errors = [0.0f64; 2];
        for (slot, strategy) in [
            (0, PartitionStrategy::Adp(AggKind::Sum)),
            (1, PartitionStrategy::EqualDepth),
        ] {
            // Median error over several seeds for stability.
            let mut errs: Vec<f64> = (0..7)
                .map(|seed| {
                    let pass = Pass::from_spec(
                        &t,
                        &PassSpec {
                            partitions: 16,
                            sample_rate: 0.002,
                            strategy,
                            seed: 100 + seed,
                            ..PassSpec::default()
                        },
                    )
                    .unwrap();
                    let est = pass.estimate(&q).unwrap();
                    (est.value - truth).abs() / truth
                })
                .collect();
            errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            errors[slot] = errs[errs.len() / 2];
        }
        assert!(
            errors[0] <= errors[1] * 1.5,
            "ADP {} should not lose badly to EQ {}",
            errors[0],
            errors[1]
        );
    }

    #[test]
    fn multi_dim_build_and_query() {
        let t = taxi(20_000, 6).project(&[1, 2]).unwrap();
        let pass = Pass::from_spec(&t, &spec(64, 0.02, 7)).unwrap();
        assert_eq!(pass.dims(), 2);
        let rect = t.bounding_rect().unwrap();
        let mid0 = (rect.lo(0) + rect.hi(0)) / 2.0;
        let q = Query::new(AggKind::Sum, rect.narrowed(0, rect.lo(0), mid0));
        let est = pass.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.2, "rel {rel}");
        // Hard bounds must hold in multi-d too.
        let (lb, ub) = est.hard_bounds.unwrap();
        assert!(lb - 1e-9 <= truth && truth <= ub + 1e-9);
    }

    #[test]
    fn invalid_builds_rejected() {
        let t = uniform(100, 10);
        assert!(Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 0,
                ..PassSpec::default()
            }
        )
        .is_err());
        let empty = Table::one_dim(vec![], vec![]).unwrap();
        assert!(Pass::from_spec(&empty, &PassSpec::default()).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let t = uniform(5_000, 11);
        let a = Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 16,
                seed: 5,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let b = Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 16,
                seed: 5,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let q = Query::interval(AggKind::Sum, 0.3, 0.6);
        assert_eq!(a.estimate(&q).unwrap().value, b.estimate(&q).unwrap().value);
    }

    #[test]
    fn workload_shift_answers_wider_arity_queries() {
        // 3-predicate table; tree indexes only dims [0, 1].
        let t = taxi(10_000, 20).project(&[1, 2, 3]).unwrap();
        let pass = Pass::from_spec(
            &t,
            &PassSpec {
                tree_dims: Some(vec![0, 1]),
                ..spec(32, 0.05, 21)
            },
        )
        .unwrap();
        assert_eq!(pass.dims(), 3);
        let full = t.bounding_rect().unwrap();
        // Q3-style query: constrains all three dims.
        let rect = Rect::new(&[
            (full.lo(0), (full.lo(0) + full.hi(0)) / 2.0),
            (full.lo(1), full.hi(1)),
            (full.lo(2), (full.lo(2) + full.hi(2)) / 2.0),
        ]);
        let q = Query::new(AggKind::Sum, rect);
        let est = pass.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.3, "rel {rel}");
        // Hard bounds stay sound under shift.
        let (lb, ub) = est.hard_bounds.unwrap();
        assert!(lb - 1e-9 <= truth && truth <= ub + 1e-9);

        // Q1-style query: only dim 0 constrained, so coverage is decidable
        // and most tuples should be answered exactly from aggregates.
        let rect = Rect::new(&[
            (full.lo(0), (full.lo(0) + full.hi(0)) / 2.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
        ]);
        let q1 = Query::new(AggKind::Sum, rect);
        let est1 = pass.estimate(&q1).unwrap();
        let truth1 = t.ground_truth(&q1).unwrap();
        assert!((est1.value - truth1).abs() / truth1 < 0.2);
        assert!(est1.skip_rate() > 0.5, "skipping still engages");
    }

    #[test]
    fn estimate_many_is_bit_identical_to_single_estimates() {
        let t = uniform(20_000, 30);
        let pass = Pass::from_spec(&t, &spec(32, 0.02, 31)).unwrap();
        let queries: Vec<Query> = (0..64)
            .map(|i| {
                let lo = (i as f64) / 80.0;
                let agg = AggKind::ALL[i % AggKind::ALL.len()];
                Query::interval(agg, lo, lo + 0.2)
            })
            .collect();
        let batch = pass.estimate_many(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(batch) {
            match (pass.estimate(q), b) {
                (Ok(single), Ok(batched)) => {
                    assert_eq!(single.value, batched.value, "{q:?}");
                    assert_eq!(single.ci_half, batched.ci_half, "{q:?}");
                    assert_eq!(single.exact, batched.exact, "{q:?}");
                    assert_eq!(single.hard_bounds, batched.hard_bounds, "{q:?}");
                    assert_eq!(single.tuples_processed, batched.tuples_processed, "{q:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{q:?}"),
                (a, b) => panic!("{q:?}: single {a:?} vs batched {b:?}"),
            }
        }
    }

    #[test]
    fn estimate_many_handles_mismatched_dims_and_shifted_trees() {
        let t = uniform(5_000, 32);
        let pass = Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 8,
                seed: 33,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let queries = vec![
            Query::interval(AggKind::Sum, 0.1, 0.9),
            Query::new(AggKind::Sum, Rect::new(&[(0.0, 1.0), (0.0, 1.0)])),
        ];
        let results = pass.estimate_many(&queries);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(PassError::DimensionMismatch { .. })
        ));

        // Workload-shift synopses ride the same batch path and stay
        // element-wise consistent.
        let t3 = taxi(5_000, 34).project(&[1, 2, 3]).unwrap();
        let shifted = Pass::from_spec(
            &t3,
            &PassSpec {
                tree_dims: Some(vec![0, 1]),
                ..spec(16, 0.05, 35)
            },
        )
        .unwrap();
        let full = t3.bounding_rect().unwrap();
        let q = Query::new(AggKind::Sum, full);
        let batch = shifted.estimate_many(std::slice::from_ref(&q));
        assert_eq!(
            batch[0].as_ref().unwrap().value,
            shifted.estimate(&q).unwrap().value
        );
    }

    #[test]
    fn estimate_many_parallel_is_bit_identical_to_sequential() {
        use pass_common::{estimate_many_parallel, ThreadPool};
        let t = uniform(20_000, 50);
        let pass = Pass::from_spec(&t, &spec(32, 0.02, 51)).unwrap();
        let queries: Vec<Query> = (0..256)
            .map(|i| {
                let lo = (i % 80) as f64 / 100.0;
                let agg = AggKind::ALL[i % AggKind::ALL.len()];
                Query::interval(agg, lo, lo + 0.15)
            })
            .collect();
        let sequential = pass.estimate_many(&queries);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let parallel = estimate_many_parallel(&pass, &queries, &pool);
            assert_eq!(parallel.len(), sequential.len());
            for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
                match (s, p) {
                    (Ok(s), Ok(p)) => {
                        assert_eq!(s.value, p.value, "threads {threads} query {i}");
                        assert_eq!(s.ci_half, p.ci_half, "threads {threads} query {i}");
                        assert_eq!(s.hard_bounds, p.hard_bounds, "threads {threads} query {i}");
                    }
                    (Err(s), Err(p)) => assert_eq!(s, p),
                    (s, p) => panic!("threads {threads} query {i}: {s:?} vs {p:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_path_handles_shifted_trees_and_mixed_arity() {
        use pass_common::{estimate_many_parallel, ThreadPool};
        let pool = ThreadPool::new(2);
        // Mixed-arity batch: falls back to per-query semantics, sharded.
        let t = uniform(5_000, 52);
        let pass = Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 8,
                seed: 53,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let mut queries: Vec<Query> = (0..64)
            .map(|i| Query::interval(AggKind::Sum, i as f64 / 100.0, 0.9))
            .collect();
        queries.push(Query::new(
            AggKind::Sum,
            Rect::new(&[(0.0, 1.0), (0.0, 1.0)]),
        ));
        let seq = pass.estimate_many(&queries);
        let par = estimate_many_parallel(&pass, &queries, &pool);
        for (s, p) in seq.iter().zip(&par) {
            match (s, p) {
                (Ok(s), Ok(p)) => assert_eq!(s.value, p.value),
                (Err(s), Err(p)) => assert_eq!(s, p),
                other => panic!("{other:?}"),
            }
        }

        // Workload-shift synopsis: same path, still element-wise equal.
        let t3 = taxi(6_000, 54).project(&[1, 2, 3]).unwrap();
        let shifted = Pass::from_spec(
            &t3,
            &PassSpec {
                tree_dims: Some(vec![0, 1]),
                ..spec(16, 0.05, 55)
            },
        )
        .unwrap();
        let full = t3.bounding_rect().unwrap();
        let queries: Vec<Query> = (0..48)
            .map(|i| {
                let hi = full.lo(0) + (full.hi(0) - full.lo(0)) * (i + 1) as f64 / 48.0;
                Query::new(AggKind::Sum, full.narrowed(0, full.lo(0), hi))
            })
            .collect();
        let seq = shifted.estimate_many(&queries);
        let par = estimate_many_parallel(&shifted, &queries, &pool);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.as_ref().unwrap().value, p.as_ref().unwrap().value);
        }
    }

    #[test]
    fn thread_local_scratch_leaks_no_state_between_engines() {
        let t1 = uniform(10_000, 60);
        let one_d = Pass::from_spec(&t1, &spec(16, 0.02, 61)).unwrap();
        let t3 = taxi(8_000, 62).project(&[1, 2, 3]).unwrap();
        let kd = Pass::from_spec(&t3, &spec(32, 0.05, 63)).unwrap();
        let shifted = Pass::from_spec(
            &t3,
            &PassSpec {
                tree_dims: Some(vec![0, 1]),
                ..spec(16, 0.05, 64)
            },
        )
        .unwrap();
        // Each batch ends in a query of the other arity, so the
        // mixed-arity rejection runs inside `estimate_many` too.
        let full = t3.bounding_rect().unwrap();
        let mut q1: Vec<Query> = (0..39)
            .map(|i| {
                let lo = i as f64 / 50.0;
                Query::interval(AggKind::ALL[i % AggKind::ALL.len()], lo, lo + 0.15)
            })
            .collect();
        let mut q3: Vec<Query> = (0..39)
            .map(|i| {
                let d = i % 3;
                let span = full.hi(d) - full.lo(d);
                let lo = full.lo(d) + span * (i % 7) as f64 / 10.0;
                Query::new(
                    AggKind::ALL[i % AggKind::ALL.len()],
                    full.narrowed(d, lo, lo + span * 0.3),
                )
            })
            .collect();
        q1.push(Query::new(AggKind::Sum, Rect::new(&[(0.0, 1.0); 3])));
        q3.push(Query::interval(AggKind::Sum, 0.0, 1.0));

        // Reference: every batch on its own fresh thread, i.e. on a
        // scratch nothing else has touched.
        let fresh = |engine: &Pass, queries: &[Query]| {
            std::thread::scope(|s| s.spawn(|| engine.estimate_many(queries)).join().unwrap())
        };
        let want = [fresh(&one_d, &q1), fresh(&kd, &q3), fresh(&shifted, &q3)];

        // Same thread, engines interleaved chunk by chunk.
        let mut got: [Vec<Result<Estimate>>; 3] = Default::default();
        for (c1, c3) in q1.chunks(8).zip(q3.chunks(8)) {
            got[0].extend(one_d.estimate_many(c1));
            got[1].extend(kd.estimate_many(c3));
            got[2].extend(shifted.estimate_many(c3));
        }
        assert_eq!(got, want);
        assert!(matches!(
            got[0][39],
            Err(PassError::DimensionMismatch { .. })
        ));
        assert!(got.iter().all(|g| g[..39].iter().any(|r| r.is_ok())));
    }

    #[test]
    fn group_by_matches_per_group_truth() {
        // Small categorical table: 5 categories, distinct per-category sums.
        let n = 5_000;
        let cat: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let values: Vec<f64> = (0..n).map(|i| ((i % 5) + 1) as f64 * 10.0).collect();
        let table = Table::one_dim(cat, values).unwrap();
        let pass = Pass::from_spec(&table, &spec(8, 0.2, 1)).unwrap();
        let base = table.bounding_rect().unwrap();
        let groups = estimate_group_by(
            &pass,
            &GroupByQuery::new(AggKind::Sum, 0, &[0.0, 1.0, 2.0, 3.0, 4.0], base),
        )
        .unwrap();
        assert_eq!(groups.len(), 5);
        for g in groups {
            let q = Query::interval(AggKind::Sum, g.key, g.key);
            let truth = table.ground_truth(&q).unwrap();
            let est = g.estimate.unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.15, "group {}: rel {rel}", g.key);
        }
    }

    #[test]
    fn group_by_on_skewed_catalog() {
        // Instacart-style reorder rates per product bucket.
        let table = instacart(40_000, 2);
        let pass = Pass::from_spec(&table, &spec(32, 0.05, 3)).unwrap();
        let base = table.bounding_rect().unwrap();
        // Group over a handful of popular product ids (guaranteed present).
        let mut cats: Vec<f64> = table.predicate_column(0)[..2_000].to_vec();
        cats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        cats.dedup();
        cats.truncate(10);
        let groups =
            estimate_group_by(&pass, &GroupByQuery::new(AggKind::Count, 0, &cats, base)).unwrap();
        for g in &groups {
            let est = g.estimate.as_ref().unwrap();
            assert!(est.value >= 0.0);
            let truth = table
                .ground_truth(&Query::interval(AggKind::Count, g.key, g.key))
                .unwrap();
            // COUNT per equality group: hard bounds must bracket truth.
            let (lb, ub) = est.hard_bounds.unwrap();
            assert!(lb - 1e-9 <= truth && truth <= ub + 1e-9, "group {}", g.key);
        }
    }

    #[test]
    fn group_by_invalid_dims_rejected() {
        let table = Table::one_dim(vec![1.0, 2.0], vec![3.0, 4.0]).unwrap();
        let pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: 2,
                sample_rate: 1.0,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let base = table.bounding_rect().unwrap();
        let group_by = |dim, base| {
            estimate_group_by(&pass, &GroupByQuery::new(AggKind::Sum, dim, &[1.0], base))
        };
        assert!(group_by(5, base).is_err());
        assert!(group_by(0, Rect::new(&[(0.0, 1.0), (0.0, 1.0)])).is_err());
    }

    #[test]
    fn spec_round_trips_through_build() {
        let spec = PassSpec {
            partitions: 16,
            sample_rate: 0.03,
            seed: 40,
            strategy: PartitionStrategy::EqualDepth,
            ..PassSpec::default()
        };
        let t = uniform(2_000, 41);
        let pass = Pass::from_spec(&t, &spec).unwrap();
        assert_eq!(pass.spec(), EngineSpec::Pass(spec));
    }
}
