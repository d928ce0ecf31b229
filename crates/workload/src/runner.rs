//! Engine-agnostic workload evaluation.

use std::time::Instant;

use pass_common::{estimate_many_parallel, Estimate, Query, Result, Synopsis, ThreadPool};

use crate::metrics::{median, WorkloadSummary};
use crate::truth::Truth;

/// Per-query outcome (kept for debugging / plotting; the benchmark tables
/// use the summary).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub truth: Option<f64>,
    pub estimate: Option<f64>,
    pub relative_error: f64,
    pub ci_ratio: f64,
    pub skip_rate: f64,
    pub tuples_processed: u64,
    pub latency_us: f64,
}

/// How [`run_workload`] drives the engine over the workload.
#[derive(Debug, Clone, Copy)]
pub enum Exec<'a> {
    /// One [`Synopsis::estimate`] call per query, each timed on its own.
    PerQuery,
    /// One [`Synopsis::estimate_many`] call: engines that share work
    /// across a batch (PASS reuses its traversal buffers) amortize it.
    Batched,
    /// [`estimate_many_parallel`]: the batch sharded across the pool's
    /// worker threads against the (immutable) synopsis.
    Parallel(&'a ThreadPool),
}

/// Evaluate `synopsis` over the workload. Pre-computed truths may be
/// supplied (one per query) to amortize ground-truth evaluation across
/// engines; pass `None` to compute them here.
///
/// Error metrics are element-wise identical under every [`Exec`]. The
/// batch modes report per-query latency as the batch wall clock divided
/// by the batch size, so `throughput_qps` is where batching and
/// multi-core speedup show up.
pub fn run_workload<S: Synopsis + ?Sized>(
    synopsis: &S,
    queries: &[Query],
    truth: &Truth,
    precomputed_truths: Option<&[Option<f64>]>,
    exec: Exec<'_>,
) -> (WorkloadSummary, Vec<QueryOutcome>) {
    let run_start = Instant::now();
    // A batch has one wall clock: amortize it into per-query latency.
    let amortized = |estimates: Vec<Result<Estimate>>| -> Vec<(Result<Estimate>, f64)> {
        let per_query_us = run_start.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64;
        estimates.into_iter().map(|e| (e, per_query_us)).collect()
    };
    let timed = match exec {
        Exec::PerQuery => queries
            .iter()
            .map(|q| {
                let start = Instant::now();
                let est = synopsis.estimate(q);
                (est, start.elapsed().as_secs_f64() * 1e6)
            })
            .collect(),
        Exec::Batched => amortized(synopsis.estimate_many(queries)),
        Exec::Parallel(pool) => amortized(estimate_many_parallel(synopsis, queries, pool)),
    };
    let wall_secs = run_start.elapsed().as_secs_f64();
    let (outcomes, failures) = collect_outcomes(queries, timed, truth, precomputed_truths);
    summarize(synopsis, outcomes, failures, queries.len(), wall_secs)
}

/// Pair each (estimate, latency) with its ground truth and classify:
/// answered, failed (penalized at 100% error), or undefined truth
/// (excluded from error statistics entirely).
fn collect_outcomes(
    queries: &[Query],
    timed: Vec<(Result<Estimate>, f64)>,
    truth: &Truth,
    precomputed_truths: Option<&[Option<f64>]>,
) -> (Vec<QueryOutcome>, usize) {
    let mut outcomes = Vec::with_capacity(queries.len());
    let mut failures = 0usize;
    for (i, (q, (est, latency_us))) in queries.iter().zip(timed).enumerate() {
        let t = match precomputed_truths {
            Some(ts) => ts[i],
            None => truth.eval(q),
        };
        match (est, t) {
            (Ok(e), Some(tv)) => outcomes.push(QueryOutcome {
                truth: Some(tv),
                estimate: Some(e.value),
                relative_error: e.relative_error(tv),
                ci_ratio: e.ci_ratio(tv),
                skip_rate: e.skip_rate(),
                tuples_processed: e.tuples_processed,
                latency_us,
            }),
            (Err(_), Some(tv)) => {
                failures += 1;
                outcomes.push(QueryOutcome {
                    truth: Some(tv),
                    estimate: None,
                    // An unanswerable query counts as 100% error — the
                    // penalty the paper's selective-query discussion
                    // motivates.
                    relative_error: 1.0,
                    ci_ratio: 1.0,
                    skip_rate: 0.0,
                    tuples_processed: 0,
                    latency_us,
                });
            }
            (_, None) => {}
        }
    }
    (outcomes, failures)
}

fn summarize<S: Synopsis + ?Sized>(
    synopsis: &S,
    outcomes: Vec<QueryOutcome>,
    failures: usize,
    executed: usize,
    wall_secs: f64,
) -> (WorkloadSummary, Vec<QueryOutcome>) {
    let rel: Vec<f64> = outcomes.iter().map(|o| o.relative_error).collect();
    let ci: Vec<f64> = outcomes.iter().map(|o| o.ci_ratio).collect();
    let n = outcomes.len().max(1) as f64;
    let summary = WorkloadSummary {
        engine: synopsis.name().to_owned(),
        median_relative_error: median(&rel),
        median_ci_ratio: median(&ci),
        mean_skip_rate: outcomes.iter().map(|o| o.skip_rate).sum::<f64>() / n,
        mean_tuples_processed: outcomes
            .iter()
            .map(|o| o.tuples_processed as f64)
            .sum::<f64>()
            / n,
        mean_latency_us: outcomes.iter().map(|o| o.latency_us).sum::<f64>() / n,
        max_latency_us: outcomes.iter().map(|o| o.latency_us).fold(0.0, f64::max),
        // Throughput counts every query the engine executed (including
        // those later excluded from error statistics for lacking a
        // defined ground truth) — it is a serving-rate metric, and the
        // wall clock covers the whole batch.
        throughput_qps: if wall_secs > 0.0 {
            executed as f64 / wall_secs
        } else {
            0.0
        },
        cache_hits: 0,
        cache_misses: 0,
        failures,
        queries: outcomes.len(),
        storage_bytes: synopsis.storage_bytes(),
        build_ms: 0.0,
    };
    (summary, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_gen::random_queries;
    use pass_baselines::Engine;
    use pass_common::{AggKind, EngineSpec, PassSpec};
    use pass_core::Pass;
    use pass_table::datasets::uniform;
    use pass_table::SortedTable;

    fn pass_spec(partitions: usize, sample_rate: f64, seed: u64) -> PassSpec {
        PassSpec {
            partitions,
            sample_rate,
            seed,
            ..PassSpec::default()
        }
    }

    #[test]
    fn pass_beats_uniform_on_median_error() {
        let t = uniform(20_000, 1);
        let s = SortedTable::from_table(&t, 0);
        let truth = Truth::new(&t);
        let queries = random_queries(&s, 150, AggKind::Sum, 400, 2);

        let pass = Pass::from_spec(&t, &pass_spec(32, 0.01, 3)).unwrap();
        let us =
            Engine::build(&t, &EngineSpec::uniform(pass.total_samples()).with_seed(3)).unwrap();

        let (pass_sum, _) = run_workload(&pass, &queries, &truth, None, Exec::PerQuery);
        let (us_sum, _) = run_workload(&us, &queries, &truth, None, Exec::PerQuery);
        assert!(
            pass_sum.median_relative_error <= us_sum.median_relative_error,
            "PASS {} vs US {}",
            pass_sum.median_relative_error,
            us_sum.median_relative_error
        );
        assert!(pass_sum.mean_skip_rate > 0.9);
        assert_eq!(pass_sum.queries, 150);
    }

    #[test]
    fn precomputed_truths_match_inline_evaluation() {
        let t = uniform(5_000, 4);
        let s = SortedTable::from_table(&t, 0);
        let truth = Truth::new(&t);
        let queries = random_queries(&s, 30, AggKind::Avg, 100, 5);
        let truths: Vec<Option<f64>> = queries.iter().map(|q| truth.eval(q)).collect();
        let pass = Pass::from_spec(&t, &pass_spec(8, 0.005, 6)).unwrap();
        let (a, _) = run_workload(&pass, &queries, &truth, None, Exec::PerQuery);
        let (b, _) = run_workload(&pass, &queries, &truth, Some(&truths), Exec::PerQuery);
        assert_eq!(a.median_relative_error, b.median_relative_error);
    }

    #[test]
    fn batched_runner_matches_per_query_error_metrics() {
        let t = uniform(15_000, 9);
        let s = SortedTable::from_table(&t, 0);
        let truth = Truth::new(&t);
        let queries = random_queries(&s, 80, AggKind::Sum, 300, 10);
        let pass = Pass::from_spec(&t, &pass_spec(32, 0.01, 11)).unwrap();
        let (single, single_outcomes) = run_workload(&pass, &queries, &truth, None, Exec::PerQuery);
        let (batched, batched_outcomes) =
            run_workload(&pass, &queries, &truth, None, Exec::Batched);
        assert_eq!(single.median_relative_error, batched.median_relative_error);
        assert_eq!(single.median_ci_ratio, batched.median_ci_ratio);
        assert_eq!(single.failures, batched.failures);
        assert_eq!(single_outcomes.len(), batched_outcomes.len());
        for (a, b) in single_outcomes.iter().zip(&batched_outcomes) {
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.relative_error, b.relative_error);
        }
    }

    #[test]
    fn parallel_runner_matches_sequential_error_metrics() {
        let t = uniform(15_000, 12);
        let s = SortedTable::from_table(&t, 0);
        let truth = Truth::new(&t);
        let queries = random_queries(&s, 80, AggKind::Sum, 300, 13);
        let pass = Pass::from_spec(&t, &pass_spec(32, 0.01, 14)).unwrap();
        let (batched, _) = run_workload(&pass, &queries, &truth, None, Exec::Batched);
        for threads in [1, 2, 4] {
            let pool = pass_common::ThreadPool::new(threads);
            let (parallel, outcomes) =
                run_workload(&pass, &queries, &truth, None, Exec::Parallel(&pool));
            assert_eq!(
                parallel.median_relative_error, batched.median_relative_error,
                "threads {threads}"
            );
            assert_eq!(parallel.median_ci_ratio, batched.median_ci_ratio);
            assert_eq!(parallel.failures, batched.failures);
            assert_eq!(outcomes.len(), batched.queries);
            assert!(parallel.throughput_qps > 0.0);
        }
    }

    #[test]
    fn failures_counted_and_penalized() {
        // A tiny uniform sample will fail AVG on very selective queries.
        let t = uniform(10_000, 7);
        let us = Engine::build(&t, &EngineSpec::uniform(5).with_seed(8)).unwrap();
        let truth = Truth::new(&t);
        // Very narrow queries.
        let queries: Vec<_> = (0..20)
            .map(|i| {
                let lo = 0.05 * i as f64 / 20.0;
                pass_common::Query::interval(AggKind::Avg, lo, lo + 1e-4)
            })
            .collect();
        let (summary, outcomes) = run_workload(&us, &queries, &truth, None, Exec::PerQuery);
        // Queries with empty truth are dropped; the rest either answer or
        // fail with penalty 1.0.
        for o in &outcomes {
            assert!(o.truth.is_some());
            if o.estimate.is_none() {
                assert_eq!(o.relative_error, 1.0);
            }
        }
        assert_eq!(
            summary.failures,
            outcomes.iter().filter(|o| o.estimate.is_none()).count()
        );
    }
}
