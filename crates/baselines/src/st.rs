//! ST — stratified sampling over equal-depth strata (Section 2.2).
//!
//! `B` strata over the first predicate dimension, `K/B` uniform samples in
//! each, weighted recombination at query time. Unlike PASS there are no
//! precomputed aggregates: every stratum intersecting the query is
//! estimated from its sample, even when fully covered.

use pass_common::rng::rng_from_seed;
use pass_common::{check_dims, AggKind, EngineSpec, Estimate, PassError, Query, Result, Synopsis};
use pass_partition::{EqualDepth, Partitioner1D};
use pass_sampling::{combine_strata, with_scratch, Sample, StratumEstimate};
use pass_table::{SortedTable, Table};

/// One stratum: its key interval, population, and sample.
#[derive(Debug, Clone)]
pub(crate) struct Stratum {
    pub(crate) key_lo: f64,
    pub(crate) key_hi: f64,
    pub(crate) sample: Sample,
}

/// Classic stratified sampling synopsis (1-D strata).
#[derive(Debug, Clone)]
pub struct StratifiedSynopsis {
    pub(crate) strata: Vec<Stratum>,
    pub(crate) total_rows: u64,
    /// Requested (strata, budget, seed), kept for [`Synopsis::spec`].
    pub(crate) requested: (usize, usize, u64),
}

impl StratifiedSynopsis {
    /// Build `b` equal-depth strata with a total budget of `k` samples.
    pub fn build(table: &Table, b: usize, k: usize, seed: u64) -> Result<Self> {
        if table.n_rows() == 0 {
            return Err(PassError::EmptyInput("ST over empty table"));
        }
        if table.dims() != 1 {
            return Err(PassError::InvalidParameter(
                "table",
                "ST stratifies over exactly one predicate column".into(),
            ));
        }
        let sorted = SortedTable::from_table_ordered(table, 0)?;
        let partitioning = EqualDepth.partition(&sorted, b)?;
        let sorted_table = Table::one_dim(sorted.keys().to_vec(), sorted.values().to_vec())?;
        let per_stratum = (k / partitioning.len()).max(1);
        let mut rng = rng_from_seed(seed);
        let bounds = partitioning.key_bounds(&sorted);
        let mut strata = Vec::with_capacity(partitioning.len());
        for (range, (key_lo, key_hi)) in partitioning.ranges().into_iter().zip(bounds) {
            let sample = Sample::uniform_from_range(&sorted_table, range, per_stratum, &mut rng)?;
            strata.push(Stratum {
                key_lo,
                key_hi,
                sample,
            });
        }
        Ok(Self {
            strata,
            total_rows: table.n_rows() as u64,
            requested: (b, k, seed),
        })
    }

    /// Number of strata.
    pub fn n_strata(&self) -> usize {
        self.strata.len()
    }
}

impl Synopsis for StratifiedSynopsis {
    fn name(&self) -> &str {
        "ST"
    }

    fn spec(&self) -> EngineSpec {
        let (strata, k, seed) = self.requested;
        EngineSpec::Stratified { strata, k, seed }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        crate::snapshot::save_st(self, out);
        Ok(())
    }

    fn estimate(&self, query: &Query) -> Result<Estimate> {
        check_dims(1, query.dims())?;
        let (q_lo, q_hi) = (query.rect.lo(0), query.rect.hi(0));
        let mut estimates = Vec::new();
        let mut processed = 0u64;
        let mut n_q = 0u64;
        for s in &self.strata {
            if s.key_hi < q_lo || s.key_lo > q_hi {
                continue; // stratum cannot intersect the predicate
            }
            processed += s.sample.k() as u64;
            let point = with_scratch(|scratch| scratch.estimate(query.agg, &s.sample, &query.rect));
            let (population, k) = (s.sample.population(), s.sample.k());
            let stratum = match point {
                // AVG weighs a stratum by its estimated relevant
                // population, and one with no relevant tuple not at all.
                Some(point) if query.agg == AggKind::Avg && point.k_pred > 0 => {
                    StratumEstimate::relevant(point, population, k)
                }
                Some(point) if query.agg != AggKind::Avg => StratumEstimate { point, population },
                _ => continue,
            };
            n_q += stratum.population;
            estimates.push(stratum);
        }
        // SUM/COUNT of no stratum is `0 ± 0`; nothing else has an answer.
        if estimates.is_empty() && !matches!(query.agg, AggKind::Sum | AggKind::Count) {
            return Err(crate::us::NO_MATCH);
        }
        let combined = combine_strata(query.agg, &estimates, n_q);
        Ok(combined
            .evaluate(query.agg)
            .with_accounting(processed, self.total_rows - processed))
    }

    fn storage_bytes(&self) -> usize {
        // Samples + per-stratum key bounds and population.
        self.strata
            .iter()
            .map(|s| s.sample.storage_bytes() + 3 * std::mem::size_of::<f64>())
            .sum()
    }

    fn dims(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_table::datasets::{adversarial, uniform};

    #[test]
    fn estimates_track_truth() {
        let t = uniform(20_000, 1);
        let st = StratifiedSynopsis::build(&t, 32, 2_000, 2).unwrap();
        assert_eq!(st.n_strata(), 32);
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = Query::interval(agg, 0.2, 0.8);
            let est = st.estimate(&q).unwrap();
            let truth = t.ground_truth(&q).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.1, "{agg}: rel {rel}");
        }
    }

    #[test]
    fn only_intersecting_strata_processed() {
        let t = uniform(10_000, 3);
        let st = StratifiedSynopsis::build(&t, 10, 1_000, 4).unwrap();
        // Query inside roughly one stratum.
        let q = Query::interval(AggKind::Sum, 0.0, 0.05);
        let est = st.estimate(&q).unwrap();
        assert!(
            est.tuples_processed <= 2 * 100,
            "processed {}",
            est.tuples_processed
        );
    }

    #[test]
    fn beats_uniform_on_skewed_selective_queries() {
        // On adversarial data with a selective query over the volatile
        // tail, stratification should (median over seeds) beat uniform.
        let t = adversarial(40_000, 5);
        let q = Query::interval(AggKind::Sum, 36_000.0, 38_000.0);
        let truth = t.ground_truth(&q).unwrap();
        let median_err = |build: &dyn Fn(u64) -> f64| {
            let mut errs: Vec<f64> = (0..9).map(build).collect();
            errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            errs[4]
        };
        let st_err = median_err(&|seed| {
            let st = StratifiedSynopsis::build(&t, 64, 800, seed).unwrap();
            (st.estimate(&q).unwrap().value - truth).abs() / truth
        });
        let us_err = median_err(&|seed| {
            let us = crate::us::UniformSynopsis::build(&t, 800, seed).unwrap();
            match us.estimate(&q) {
                Ok(e) => (e.value - truth).abs() / truth,
                Err(_) => 1.0, // no matching sample at all
            }
        });
        assert!(
            st_err <= us_err * 1.2,
            "ST {st_err} should be competitive with US {us_err}"
        );
    }

    #[test]
    fn empty_selection_semantics() {
        let t = uniform(1_000, 6);
        let st = StratifiedSynopsis::build(&t, 8, 100, 7).unwrap();
        let q = Query::interval(AggKind::Sum, 5.0, 6.0);
        assert_eq!(st.estimate(&q).unwrap().value, 0.0);
        assert!(st
            .estimate(&Query::interval(AggKind::Avg, 5.0, 6.0))
            .is_err());
    }

    #[test]
    fn rejects_multi_dim_tables() {
        let t = pass_table::datasets::taxi(500, 8);
        assert!(StratifiedSynopsis::build(&t, 8, 100, 9).is_err());
    }

    #[test]
    fn a_nan_predicate_key_is_a_typed_refusal() {
        let t = Table::one_dim(vec![1.0, f64::NAN, 3.0, 4.0], vec![1.0; 4]).unwrap();
        let err = StratifiedSynopsis::build(&t, 2, 2, 0).err();
        assert!(
            matches!(err, Some(PassError::InvalidParameter("predicates", _))),
            "{err:?}"
        );
    }
}
