//! The Section 5.1.2 metrics — median relative error, CI ratio, skip rate
//! and effective sample size — as one row per engine, which
//! `pass::Session::run_workload` fills.

use pass_common::Json;

/// Median of a slice (NaNs excluded); 0.0 when nothing remains.
pub fn median(values: &[f64]) -> f64 {
    let mut clean: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if clean.is_empty() {
        return 0.0;
    }
    clean.sort_by(f64::total_cmp);
    let n = clean.len();
    if n % 2 == 1 {
        clean[n / 2]
    } else {
        (clean[n / 2 - 1] + clean[n / 2]) / 2.0
    }
}

/// Aggregated workload metrics for one engine (one row of a benchmark
/// table).
#[derive(Debug, Clone)]
pub struct WorkloadSummary {
    /// Engine name.
    pub engine: String,
    /// Median |est − truth| / |truth| — the paper's headline metric.
    pub median_relative_error: f64,
    /// Median (CI half-width) / |truth| (Section 5.1.2's CI ratio).
    pub median_ci_ratio: f64,
    /// Mean fraction of tuples safely skipped.
    pub mean_skip_rate: f64,
    /// Mean tuples processed per query (the ESS numerator).
    pub mean_tuples_processed: f64,
    /// Mean per-query latency in microseconds.
    pub mean_latency_us: f64,
    /// Max per-query latency in microseconds.
    pub max_latency_us: f64,
    /// Queries answered per second of wall clock — the serving-layer
    /// throughput metric. "Answered" counts **every** query the run
    /// resolved, regardless of *how*: answers computed by the engine
    /// and answers served from the session's per-engine cache both
    /// count (a fully cached re-run therefore reports the same
    /// [`queries`](Self::queries) over a much shorter wall clock, i.e.
    /// a higher throughput). Use [`cache_hits`](Self::cache_hits) /
    /// [`cache_misses`](Self::cache_misses) to attribute the rate to
    /// cache wins vs engine work.
    pub throughput_qps: f64,
    /// Query-cache hits attributable to this run.
    pub cache_hits: u64,
    /// Query-cache misses attributable to this run.
    pub cache_misses: u64,
    /// Queries the engine could not answer (e.g. AVG with no matching
    /// sample) — these count as relative error 1.0 in the medians.
    pub failures: usize,
    /// Number of queries evaluated.
    pub queries: usize,
    /// Synopsis storage in bytes.
    pub storage_bytes: usize,
    /// Offline construction time in milliseconds (the session's record).
    pub build_ms: f64,
}

impl WorkloadSummary {
    /// The summary as a JSON object (one row of an emitted results file).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("engine", Json::from(self.engine.clone())),
            (
                "median_relative_error",
                Json::from(self.median_relative_error),
            ),
            ("median_ci_ratio", Json::from(self.median_ci_ratio)),
            ("mean_skip_rate", Json::from(self.mean_skip_rate)),
            (
                "mean_tuples_processed",
                Json::from(self.mean_tuples_processed),
            ),
            ("mean_latency_us", Json::from(self.mean_latency_us)),
            ("max_latency_us", Json::from(self.max_latency_us)),
            ("throughput_qps", Json::from(self.throughput_qps)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("failures", Json::from(self.failures)),
            ("queries", Json::from(self.queries)),
            ("storage_bytes", Json::from(self.storage_bytes)),
            ("build_ms", Json::from(self.build_ms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_ignores_nan_and_inf() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), 2.0);
        assert_eq!(median(&[1.0, f64::INFINITY, 3.0]), 2.0);
    }

    #[test]
    fn summary_serializes() {
        let s = WorkloadSummary {
            engine: "PASS".into(),
            median_relative_error: 0.001,
            median_ci_ratio: 0.002,
            mean_skip_rate: 0.99,
            mean_tuples_processed: 12.0,
            mean_latency_us: 3.5,
            max_latency_us: 11.0,
            throughput_qps: 280_000.0,
            cache_hits: 5,
            cache_misses: 1995,
            failures: 0,
            queries: 2000,
            storage_bytes: 1024,
            build_ms: 42.0,
        };
        let json = s.to_json().to_string();
        assert!(json.contains("\"engine\":\"PASS\""), "{json}");
        assert!(json.contains("\"queries\":2000"), "{json}");
    }
}
