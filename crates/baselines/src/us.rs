//! US — plain uniform sampling (Section 2.1).

use pass_common::rng::rng_from_seed;
use pass_common::{EngineSpec, Estimate, PassError, Query, Result, Synopsis};
use pass_sampling::{with_scratch, PointVariance, Sample};
use pass_table::Table;

/// One uniform sample of `K` rows; every query is answered with the
/// φ-transform estimators and a CLT confidence interval.
#[derive(Debug, Clone)]
pub struct UniformSynopsis {
    pub(crate) sample: Sample,
    pub(crate) dims: usize,
    pub(crate) total_rows: u64,
    /// Requested sample size and seed, kept for [`Synopsis::spec`].
    pub(crate) requested_k: usize,
    pub(crate) seed: u64,
}

impl UniformSynopsis {
    /// Draw `k` rows from the table.
    pub fn build(table: &Table, k: usize, seed: u64) -> Result<Self> {
        if table.n_rows() == 0 {
            return Err(PassError::EmptyInput("US over empty table"));
        }
        let mut rng = rng_from_seed(seed);
        let sample = Sample::uniform(table, k, &mut rng)?;
        Ok(Self {
            sample,
            dims: table.dims(),
            total_rows: table.n_rows() as u64,
            requested_k: k,
            seed,
        })
    }

    /// The underlying sample.
    pub fn sample(&self) -> &Sample {
        &self.sample
    }
}

/// The refusal when no sampled tuple matches a query's predicate — US's,
/// and ST's and AQP++'s when nothing answers.
pub(crate) const NO_MATCH: PassError =
    PassError::EmptyInput("no sampled tuple matches the predicate");

impl Synopsis for UniformSynopsis {
    fn name(&self) -> &str {
        "US"
    }

    fn spec(&self) -> EngineSpec {
        EngineSpec::Uniform {
            k: self.requested_k,
            seed: self.seed,
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> Result<()> {
        crate::snapshot::save_us(self, out);
        Ok(())
    }

    fn estimate(&self, query: &Query) -> Result<Estimate> {
        if query.dims() != self.dims {
            return Err(PassError::DimensionMismatch {
                expected: self.dims,
                got: query.dims(),
            });
        }
        let point = with_scratch(|scratch| scratch.estimate(query.agg, &self.sample, &query.rect));
        // US scans its whole sample for every query; nothing is safely
        // skipped (there is no index to prove irrelevance).
        let k = self.sample.k() as u64;
        Ok(point
            .ok_or(NO_MATCH)?
            .evaluate(query.agg)
            .with_accounting(k, self.total_rows - k))
    }

    /// Batch path: four queries per pass over the sample, in lockstep,
    /// via [`pass_sampling::ScanScratch::estimate_batch`]; element-wise
    /// bit-identical to [`estimate`](Synopsis::estimate).
    fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
        if queries.iter().any(|q| q.dims() != self.dims) {
            return queries.iter().map(|q| self.estimate(q)).collect();
        }
        let k = self.sample.k() as u64;
        with_scratch(|scratch| {
            let mut points = Vec::with_capacity(queries.len());
            scratch.estimate_batch(&self.sample, queries, &mut points);
            let answer = |(q, point): (&Query, Option<PointVariance>)| {
                let est = point.ok_or(NO_MATCH)?.evaluate(q.agg);
                Ok(est.with_accounting(k, self.total_rows - k))
            };
            queries.iter().zip(points).map(answer).collect()
        })
    }

    fn storage_bytes(&self) -> usize {
        self.sample.storage_bytes()
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::AggKind;
    use pass_table::datasets::uniform;

    #[test]
    fn estimates_track_truth() {
        let t = uniform(20_000, 1);
        let us = UniformSynopsis::build(&t, 2_000, 2).unwrap();
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let q = Query::interval(agg, 0.2, 0.8);
            let est = us.estimate(&q).unwrap();
            let truth = t.ground_truth(&q).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(rel < 0.1, "{agg}: rel {rel}");
            assert!(est.ci_half > 0.0, "{agg} has sampling uncertainty");
        }
    }

    #[test]
    fn selective_queries_suffer() {
        // The classic pitfall: a very selective predicate leaves few (or
        // zero) matching sampled tuples.
        let t = uniform(50_000, 3);
        let us = UniformSynopsis::build(&t, 100, 4).unwrap();
        let q = Query::interval(AggKind::Avg, 0.50000, 0.50002);
        // Either errors (no matching sample) or has a CI; both are honest.
        match us.estimate(&q) {
            Err(_) => {}
            Ok(est) => assert!(!est.exact),
        }
    }

    #[test]
    fn ci_covers_truth_usually() {
        let t = uniform(10_000, 5);
        let q = Query::interval(AggKind::Sum, 0.1, 0.6);
        let truth = t.ground_truth(&q).unwrap();
        let mut covered = 0;
        for seed in 0..100 {
            let us = UniformSynopsis::build(&t, 500, seed).unwrap();
            let est = us.estimate(&q).unwrap();
            if (est.value - truth).abs() <= est.ci_half {
                covered += 1;
            }
        }
        assert!(covered >= 95, "coverage {covered}/100");
    }

    #[test]
    fn no_skipping_in_accounting() {
        let t = uniform(1_000, 6);
        let us = UniformSynopsis::build(&t, 100, 7).unwrap();
        let est = us
            .estimate(&Query::interval(AggKind::Sum, 0.0, 1.0))
            .unwrap();
        assert_eq!(est.tuples_processed, 100);
    }

    #[test]
    fn storage_is_sample_payload() {
        let t = uniform(1_000, 8);
        let us = UniformSynopsis::build(&t, 50, 9).unwrap();
        assert_eq!(us.storage_bytes(), 50 * 2 * 8);
    }
}
