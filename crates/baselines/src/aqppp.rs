//! AQP++ [Peng et al. 2018] and its multi-dimensional variant KD-US
//! (Section 5.4).
//!
//! AQP++ precomputes a set of aggregate queries — here partition aggregates
//! over hill-climbing boundaries (1-D) or a breadth-first k-d tree (d > 1)
//! — and answers a new query as *closest precomputed aggregate + uniform
//! sample estimate of the gap*. The crucial difference from PASS: the gap
//! is estimated from one **global uniform sample**, not per-partition
//! stratified samples, and the partitioning is not variance-optimized.

use pass_common::kahan::KahanSum;
use pass_common::rng::{derive_seed, rng_from_seed};
use pass_common::{
    check_dims, AggKind, EngineSpec, Estimate, PassError, Query, Rect, Result, Synopsis,
};
use pass_core::{mcf::mcf, PartitionTree};
use pass_partition::{build_kd, HillClimb, KdExpansion, Partitioner1D};
use pass_sampling::{combine_strata, PointVariance, Sample, StratumEstimate};
use pass_table::{SortedTable, Table};

/// Precomputed aggregates + one uniform sample for the gap.
#[derive(Debug, Clone)]
pub struct AqpPlusPlus {
    pub(crate) tree: PartitionTree,
    pub(crate) sample: Sample,
    pub(crate) name: &'static str,
    /// Requested (partitions, sample size, seed, tree dims), kept for
    /// [`Synopsis::spec`].
    pub(crate) requested: (usize, usize, u64, Option<Vec<usize>>),
}

/// Precomputed aggregates over a breadth-first k-d tree on `table`.
fn kd_tree(table: &Table, partitions: usize, seed: u64) -> Result<PartitionTree> {
    let kd = build_kd(table, partitions, KdExpansion::BreadthFirst, seed)?;
    PartitionTree::from_kd(table, &kd)
}

impl AqpPlusPlus {
    /// Build with `partitions` precomputed aggregates and a uniform sample
    /// of `k` rows. 1-D tables use hill climbing, higher dimensions the
    /// breadth-first k-d expansion. With `tree_dims` (workload shift,
    /// Section 5.4.1) the aggregates are precomputed over a k-d tree on
    /// those dimensions only, lifted into the table's arity, while the
    /// uniform sample keeps every predicate column.
    pub fn build(
        table: &Table,
        partitions: usize,
        k: usize,
        seed: u64,
        tree_dims: Option<&[usize]>,
    ) -> Result<Self> {
        if table.n_rows() == 0 {
            return Err(PassError::EmptyInput("AQP++ over empty table"));
        }
        // `stream` labels the tree's seed, `stream + 1` the sample's.
        let (tree, name, stream) = match tree_dims {
            None if table.dims() == 1 => {
                let sorted = SortedTable::from_table_ordered(table, 0)?;
                let partitioning = HillClimb::new(AggKind::Sum).partition(&sorted, partitions)?;
                let tree = PartitionTree::from_partitioning(&sorted, &partitioning)?;
                (tree, "AQP++", 1)
            }
            None => (
                kd_tree(table, partitions, derive_seed(seed, 1))?,
                "KD-US",
                1,
            ),
            Some(dims) => {
                let narrow = kd_tree(&table.project(dims)?, partitions, derive_seed(seed, 3))?;
                (narrow.lifted(dims, table.dims())?, "KD-US", 3)
            }
        };
        let mut rng = rng_from_seed(derive_seed(seed, stream + 1));
        let sample = Sample::uniform(table, k, &mut rng)?;
        Ok(Self {
            tree,
            sample,
            name,
            requested: (partitions, k, seed, tree_dims.map(<[usize]>::to_vec)),
        })
    }

    /// The tree of precomputed aggregates.
    pub fn tree(&self) -> &PartitionTree {
        &self.tree
    }

    /// Estimate `Σ φ` over the gap region: sampled rows matching the query
    /// but not lying in any covered partition. `agg` is SUM or COUNT, which
    /// always have an answer.
    fn gap_estimate(&self, agg: AggKind, rect: &Rect, covered: &[usize]) -> PointVariance {
        let rows = self.sample.rows();
        let k = self.sample.k();
        let n = self.sample.population() as f64;
        // The rectangle part of the gap predicate is evaluated with the
        // columnar mask kernel; only mask hits pay for the (pointwise)
        // covered-partition exclusion. Row order is unchanged, so the φ
        // vector — and every downstream bit — matches the old
        // row-at-a-time loop.
        let mut phi = Vec::with_capacity(k);
        let mut k_pred = 0u64;
        pass_sampling::with_scratch(|scratch| {
            let mask = scratch.match_mask(k, rect, |d| rows.predicate_column(d));
            let in_gap = |i: usize| -> bool {
                if mask[i] == 0 {
                    return false;
                }
                let point: Vec<f64> = (0..rows.dims()).map(|d| rows.predicate(d, i)).collect();
                !covered
                    .iter()
                    .any(|&id| self.tree.contains_point(id, &point))
            };
            for i in 0..k {
                if in_gap(i) {
                    k_pred += 1;
                    phi.push(match agg {
                        AggKind::Count => n,
                        _ => n * rows.value(i),
                    });
                } else {
                    phi.push(0.0);
                }
            }
        });
        let mean = KahanSum::sum_iter(phi.iter().copied()) / k as f64;
        let ss = KahanSum::sum_iter(phi.iter().map(|&p| (p - mean) * (p - mean)));
        let (sum, population) = (phi.iter().sum(), self.sample.population());
        PointVariance::from_phi(agg, k, k_pred, population, sum, ss).unwrap_or_default()
    }
}

impl Synopsis for AqpPlusPlus {
    fn name(&self) -> &str {
        self.name
    }

    fn spec(&self) -> EngineSpec {
        let (partitions, k, seed, tree_dims) = self.requested.clone();
        EngineSpec::AqpPlusPlus {
            partitions,
            k,
            seed,
            tree_dims,
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        crate::snapshot::save_aqppp(self, out);
        Ok(())
    }

    fn estimate(&self, query: &Query) -> Result<Estimate> {
        check_dims(self.tree.dims(), query.dims())?;
        let frontier = mcf(&self.tree, query, false);
        let covered = &frontier.covered;
        let exact_sum = || covered.iter().map(|&id| self.tree.agg(id).sum).sum::<f64>();
        let exact_count = || {
            let counts = covered.iter().map(|&id| self.tree.agg(id).count as f64);
            counts.sum::<f64>()
        };

        let est = match query.agg {
            AggKind::Sum | AggKind::Count => {
                let exact = match query.agg {
                    AggKind::Sum => exact_sum(),
                    _ => exact_count(),
                };
                if frontier.partial.is_empty() {
                    Estimate::exact(exact)
                } else {
                    let gap = self.gap_estimate(query.agg, &query.rect, covered);
                    let value = exact + gap.value;
                    PointVariance { value, ..gap }.evaluate(query.agg)
                }
            }
            AggKind::Avg => {
                // AVG via the SUM/COUNT pair with first-order error
                // propagation (AQP++ itself treats AVG as SUM/COUNT).
                let (exact_sum, exact_count) = (exact_sum(), exact_count());
                let sum = self.gap_estimate(AggKind::Sum, &query.rect, covered);
                let count = self.gap_estimate(AggKind::Count, &query.rect, covered);
                let total_sum = exact_sum + sum.value;
                let total_count = exact_count + count.value;
                if total_count <= 0.0 {
                    return Err(crate::us::NO_MATCH);
                }
                let value = total_sum / total_count;
                // Var(S/C) ≈ var_S/C² + S²·var_C/C⁴ (independence
                // approximation; AQP++ reports the same first-order CI).
                let variance = sum.variance / (total_count * total_count)
                    + total_sum * total_sum * count.variance / total_count.powi(4);
                if frontier.partial.is_empty() && count.k_pred == 0 {
                    Estimate::exact(value)
                } else {
                    PointVariance {
                        value,
                        variance,
                        ..count
                    }
                    .evaluate(query.agg)
                }
            }
            AggKind::Min | AggKind::Max => {
                // Precomputed extrema of covered partitions, as
                // zero-variance strata, then the sample scan's extremum.
                let mut strata: Vec<StratumEstimate> = covered
                    .iter()
                    .filter_map(|&id| {
                        let node = self.tree.agg(id);
                        Some(StratumEstimate::exact(node.answer(query.agg)?, node.count))
                    })
                    .collect();
                let sampled = pass_sampling::with_scratch(|scratch| {
                    scratch.estimate(query.agg, &self.sample, &query.rect)
                });
                strata.extend(sampled.map(|point| StratumEstimate {
                    point,
                    population: self.sample.population(),
                }));
                if strata.is_empty() {
                    return Err(crate::us::NO_MATCH);
                }
                // An extremum's answer carries no sample accounting.
                return Ok(combine_strata(query.agg, &strata, 0).evaluate(query.agg));
            }
        };
        let k = self.sample.k() as u64;
        Ok(est.with_accounting(k, self.tree.total_rows().saturating_sub(k)))
    }

    fn storage_bytes(&self) -> usize {
        self.tree.storage_bytes() + self.sample.storage_bytes()
    }

    fn dims(&self) -> usize {
        self.tree.dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_table::datasets::{taxi, uniform};

    #[test]
    fn one_dim_estimates_track_truth() {
        let t = uniform(20_000, 1);
        let a = AqpPlusPlus::build(&t, 32, 1_000, 2, None).unwrap();
        assert_eq!(a.name(), "AQP++");
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = Query::interval(agg, 0.15, 0.85);
            let est = a.estimate(&q).unwrap();
            let truth = t.ground_truth(&q).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.1, "{agg}: rel {rel}");
        }
    }

    #[test]
    fn aligned_queries_are_exact() {
        // A query covering the whole key space aligns with the root.
        let t = uniform(5_000, 3);
        let a = AqpPlusPlus::build(&t, 16, 200, 4, None).unwrap();
        let q = Query::interval(AggKind::Sum, -1.0, 2.0);
        let est = a.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap();
        assert!(est.exact);
        assert!((est.value - truth).abs() < 1e-6);
    }

    #[test]
    fn covered_regions_reduce_variance() {
        // The same query answered with and without precomputation: the
        // AQP++ CI should be no wider than pure uniform sampling's,
        // because the covered part is deterministic.
        let t = uniform(30_000, 5);
        let q = Query::interval(AggKind::Sum, 0.01, 0.93);
        let mut aqp_wins = 0;
        for seed in 0..10 {
            let a = AqpPlusPlus::build(&t, 64, 600, seed, None).unwrap();
            let us = crate::us::UniformSynopsis::build(&t, 600, seed).unwrap();
            let aw = a.estimate(&q).unwrap().ci_half;
            let uw = us.estimate(&q).unwrap().ci_half;
            if aw <= uw {
                aqp_wins += 1;
            }
        }
        assert!(aqp_wins >= 8, "AQP++ narrower CI in {aqp_wins}/10 runs");
    }

    #[test]
    fn multi_dim_becomes_kd_us() {
        let t = taxi(10_000, 6).project(&[1, 2]).unwrap();
        let a = AqpPlusPlus::build(&t, 64, 500, 7, None).unwrap();
        assert_eq!(a.name(), "KD-US");
        let rect = t.bounding_rect().unwrap();
        let mid = (rect.lo(0) + rect.hi(0)) / 2.0;
        let q = Query::new(AggKind::Sum, rect.narrowed(0, rect.lo(0), mid));
        let est = a.estimate(&q).unwrap();
        let truth = t.ground_truth(&q).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.25, "rel {rel}");
    }

    #[test]
    fn duplicate_keys_do_not_bias_the_gap_estimator() {
        // Regression: heavy key duplication (Instacart-style categorical
        // predicate) used to let covered-partition rectangles overlap
        // partial ones, silently dropping boundary rows from the gap
        // estimate. With a 100% sample the estimate must be exact.
        let t = pass_table::datasets::instacart(30_000, 3);
        let a = AqpPlusPlus::build(&t, 32, t.n_rows(), 4, None).unwrap();
        let (lo, hi) = t.predicate_range(0).unwrap();
        let span = hi - lo;
        for (qlo, qhi) in [
            (lo + 0.13 * span, lo + 0.77 * span),
            (lo + 0.4 * span, lo + 0.45 * span),
            (lo, hi),
        ] {
            let q = Query::interval(AggKind::Sum, qlo, qhi);
            let est = a.estimate(&q).unwrap();
            let truth = t.ground_truth(&q).unwrap();
            assert!(
                (est.value - truth).abs() <= 1e-6 * truth.abs().max(1.0),
                "[{qlo},{qhi}]: {} vs truth {truth}",
                est.value
            );
        }
    }

    #[test]
    fn an_empty_predicate_is_an_avg_error() {
        let t = uniform(1_000, 8);
        let a = AqpPlusPlus::build(&t, 8, 100, 9, None).unwrap();
        assert!(a
            .estimate(&Query::interval(AggKind::Avg, 7.0, 8.0))
            .is_err());
        // SUM of an empty region estimates 0 (nothing matches; region is
        // disjoint from every partition so it is also exactly covered).
        let est = a
            .estimate(&Query::interval(AggKind::Sum, 7.0, 8.0))
            .unwrap();
        assert_eq!(est.value, 0.0);
    }

    #[test]
    fn a_nan_predicate_key_is_a_typed_refusal() {
        let t = Table::one_dim(vec![1.0, f64::NAN, 3.0, 4.0], vec![1.0; 4]).unwrap();
        let err = AqpPlusPlus::build(&t, 2, 2, 0, None).err();
        assert!(
            matches!(err, Some(PassError::InvalidParameter("predicates", _))),
            "{err:?}"
        );
    }
}
