//! The top-level facade: one table, a set of named engines, single,
//! batched, and parallel queries, per-engine result caching, and workload
//! evaluation — the single entry point the examples, integration tests,
//! and benchmarks drive.
//!
//! Concurrency model: a built synopsis is immutable (`Synopsis: Send +
//! Sync`), so the session holds every engine behind an `Arc` and wraps it
//! in a [`CachedSynopsis`]. [`Session::handle`] hands out clones of that
//! cached engine — two `Arc` bumps each — that answer queries
//! concurrently from any thread against the same synopsis and share one
//! bounded query cache per engine.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pass_baselines::Engine;
use pass_common::{
    estimate_group_by, CacheStats, CachedSynopsis, EngineSpec, Estimate, GroupByQuery, GroupResult,
    PassError, Query, Result, ShardPlan, Synopsis, ThreadPool,
};
use pass_table::Table;
use pass_workload::{median, Truth, WorkloadSummary};

/// Cache entries per engine unless overridden with
/// [`Session::with_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

struct SessionEngine {
    name: String,
    engine: CachedSynopsis<Arc<dyn Synopsis>>,
    build_ms: f64,
}

/// A query session over one table and any number of named engines.
///
/// Engines are added declaratively via [`EngineSpec`]; the session owns
/// the built synopses (shared, immutable, behind `Arc`), answers single
/// ([`estimate`](Session::estimate)), batched
/// ([`estimate_many`](Session::estimate_many)), and parallel
/// ([`estimate_many_parallel`](Session::estimate_many_parallel)) queries,
/// caches repeated query results per engine, and evaluates whole
/// workloads with ground truth computed once and shared across engines.
///
/// ```
/// use pass::{EngineSpec, Session};
/// use pass::common::{AggKind, Query};
/// use pass::table::datasets::uniform;
///
/// let mut session = Session::new(uniform(10_000, 42));
/// session.add_engine("pass", &EngineSpec::pass()).unwrap();
/// session.add_engine("us", &EngineSpec::uniform(500)).unwrap();
/// let q = Query::interval(AggKind::Sum, 0.2, 0.7);
/// let est = session.estimate("pass", &q).unwrap();
/// assert!(est.value > 0.0);
/// ```
///
/// Batched-parallel serving: shard a query batch across a worker pool,
/// and fan [`handle`](Session::handle) clones out to threads — all
/// against one immutable synopsis, with one shared cache per engine:
///
/// ```
/// use pass::{EngineSpec, Session, Synopsis, ThreadPool};
/// use pass::common::{AggKind, Query};
/// use pass::table::datasets::uniform;
///
/// let mut session = Session::new(uniform(10_000, 7));
/// session.add_engine("pass", &EngineSpec::pass()).unwrap();
/// let queries: Vec<Query> = (0..64)
///     .map(|i| Query::interval(AggKind::Sum, i as f64 / 80.0, i as f64 / 80.0 + 0.2))
///     .collect();
///
/// // Parallel batch: element-wise identical to the sequential path.
/// let pool = ThreadPool::new(2);
/// let parallel = session.estimate_many_parallel("pass", &queries, &pool).unwrap();
/// let sequential = session.estimate_many("pass", &queries).unwrap();
/// for (p, s) in parallel.iter().zip(&sequential) {
///     assert_eq!(p.as_ref().unwrap().value, s.as_ref().unwrap().value);
/// }
///
/// // Concurrent sessions: cheap handles answer from worker threads.
/// let handle = session.handle("pass").unwrap();
/// std::thread::scope(|scope| {
///     for chunk in queries.chunks(16) {
///         let worker = handle.clone();
///         scope.spawn(move || worker.estimate_many(chunk));
///     }
/// });
/// assert!(handle.cache().stats().hits > 0); // repeated queries were cached
/// ```
pub struct Session {
    table: Table,
    truth: OnceLock<Truth>,
    engines: Vec<SessionEngine>,
    cache_capacity: usize,
}

impl Session {
    /// Start a session over a table with no engines yet.
    pub fn new(table: Table) -> Self {
        Session {
            table,
            truth: OnceLock::new(),
            engines: Vec::new(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }

    /// Set the per-engine query-cache capacity (entries) for engines added
    /// *after* this call. `Session::new(t).with_cache_capacity(64)` style.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Start a session and build a set of named engines in one step.
    pub fn with_engines(table: Table, engines: &[(&str, EngineSpec)]) -> Result<Self> {
        let mut session = Session::new(table);
        for (name, spec) in engines {
            session.add_engine(*name, spec)?;
        }
        Ok(session)
    }

    /// Build the engine `spec` describes and register it under `name`.
    /// Re-using a name replaces the previous engine (rebuild-in-place).
    pub fn add_engine(&mut self, name: impl Into<String>, spec: &EngineSpec) -> Result<&mut Self> {
        let name = name.into();
        let start = Instant::now();
        let synopsis = Engine::build(&self.table, spec)?;
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let capacity = self.cache_capacity;
        self.insert(SessionEngine {
            name,
            engine: CachedSynopsis::new(synopsis, capacity),
            build_ms,
        });
        Ok(self)
    }

    /// Build `inner` sharded across the table according to `plan` and
    /// register it under `name` — shorthand for
    /// [`add_engine`](Self::add_engine) with an [`EngineSpec::Sharded`]
    /// spec. The sharded engine gets the same caching, handles, and
    /// workload plumbing as every other engine; shard builds run
    /// concurrently on a machine-sized pool.
    ///
    /// ```
    /// use pass::{EngineSpec, Session, ShardPlan};
    /// use pass::common::{AggKind, Query};
    /// use pass::table::datasets::uniform;
    ///
    /// let mut session = Session::new(uniform(20_000, 1));
    /// session
    ///     .add_sharded_engine("us4", &EngineSpec::uniform(400), &ShardPlan::row_range(4))
    ///     .unwrap();
    /// let est = session
    ///     .estimate("us4", &Query::interval(AggKind::Sum, 0.2, 0.8))
    ///     .unwrap();
    /// assert!(est.value > 0.0);
    /// ```
    pub fn add_sharded_engine(
        &mut self,
        name: impl Into<String>,
        inner: &EngineSpec,
        plan: &ShardPlan,
    ) -> Result<&mut Self> {
        self.add_engine(name, &EngineSpec::sharded(inner.clone(), plan.clone()))
    }

    /// Serialize the named engine into a portable snapshot
    /// (`pass_common::snapshot` format: spec header + checksummed state
    /// sections). The bytes reconstruct the engine — answers, storage
    /// accounting, and update epoch bit-identical — through
    /// [`load_engine`](Self::load_engine) or `pass_baselines::Engine::load`,
    /// here or in another process.
    ///
    /// ```
    /// use pass::{EngineSpec, Session};
    /// use pass::common::{AggKind, Query};
    /// use pass::table::datasets::uniform;
    ///
    /// let mut session = Session::new(uniform(5_000, 11));
    /// session.add_engine("pass", &EngineSpec::pass()).unwrap();
    /// let mut bytes = Vec::new();
    /// session.save_engine("pass", &mut bytes).unwrap();
    ///
    /// let mut other = Session::new(uniform(5_000, 11));
    /// other.load_engine("warm", &bytes).unwrap();
    /// let q = Query::interval(AggKind::Sum, 0.2, 0.7);
    /// assert_eq!(
    ///     other.estimate("warm", &q).unwrap(),
    ///     session.estimate("pass", &q).unwrap(),
    /// );
    /// ```
    pub fn save_engine(&self, engine: &str, out: &mut Vec<u8>) -> Result<()> {
        self.engine_or_err(engine)?.engine.inner().save(out)
    }

    /// Reconstruct an engine from snapshot bytes ([`save_engine`](Self::save_engine))
    /// and register it under `name` — the load-side mirror of
    /// [`add_engine`](Self::add_engine): the loaded engine gets the same
    /// cache, handle, and serving plumbing as a freshly built
    /// one, `build_ms` reports the load time, and a carried-over
    /// [`Synopsis::update_epoch`] keeps epoch-aware caches honest.
    /// Re-using a name replaces the previous engine.
    pub fn load_engine(&mut self, name: impl Into<String>, bytes: &[u8]) -> Result<&mut Self> {
        let name = name.into();
        let start = Instant::now();
        let synopsis = Engine::load(bytes)?;
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let capacity = self.cache_capacity;
        self.insert(SessionEngine {
            name,
            engine: CachedSynopsis::new(synopsis, capacity),
            build_ms,
        });
        Ok(self)
    }

    /// Register an already-built synopsis (escape hatch for hand-built
    /// engines). The session holds it as an immutable `Arc<dyn Synopsis>`,
    /// so it cannot absorb updates afterwards: a streaming `Pass` lives
    /// outside the session, in a `CachedSynopsis<Pass>` mutated through
    /// `inner_mut()`.
    pub fn add_synopsis(
        &mut self,
        name: impl Into<String>,
        synopsis: impl Synopsis + 'static,
    ) -> &mut Self {
        let capacity = self.cache_capacity;
        self.insert(SessionEngine {
            name: name.into(),
            engine: CachedSynopsis::new(Arc::new(synopsis), capacity),
            build_ms: 0.0,
        });
        self
    }

    /// Insert-or-replace by name, preserving insertion order.
    fn insert(&mut self, engine: SessionEngine) {
        match self.engines.iter_mut().find(|e| e.name == engine.name) {
            Some(slot) => *slot = engine,
            None => self.engines.push(engine),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Registered engine names, in insertion order.
    pub fn engine_names(&self) -> Vec<&str> {
        self.engines.iter().map(|e| e.name.as_str()).collect()
    }

    /// Look up an engine by name (the raw synopsis, bypassing the cache).
    pub fn engine(&self, name: &str) -> Option<&dyn Synopsis> {
        self.entry(name).map(|e| e.engine.inner().as_ref())
    }

    /// The spec an engine was built from.
    pub fn spec(&self, name: &str) -> Option<EngineSpec> {
        self.engine(name).map(|e| e.spec())
    }

    /// Milliseconds spent building an engine.
    pub fn build_ms(&self, name: &str) -> Option<f64> {
        self.entry(name).map(|e| e.build_ms)
    }

    /// Cumulative query-cache counters for an engine.
    pub fn cache_stats(&self, name: &str) -> Option<CacheStats> {
        self.entry(name).map(|e| e.engine.cache().stats())
    }

    /// Drop every cached answer for `engine` (counters are kept — they are
    /// cumulative). Rarely needed: a session's engines are immutable
    /// (`Arc<dyn Synopsis>`), so their cached answers never go stale, and
    /// re-registering a name via [`add_engine`](Self::add_engine)
    /// replaces the cache wholesale. Epoch-based invalidation serves a
    /// streaming `Pass`, which lives outside a session in a
    /// `CachedSynopsis<Pass>` mutated through `inner_mut()`. This hook
    /// remains for hand-registered synopses with interior mutability that
    /// report no [`Synopsis::update_epoch`].
    pub fn clear_cache(&self, engine: &str) -> Result<()> {
        self.engine_or_err(engine)?.engine.cache().clear();
        Ok(())
    }

    /// Start an async-style serving front-end ([`crate::Serve`]) over
    /// `engine`: a bounded request queue with admission control
    /// (rejection at capacity, per-request deadlines, interactive/bulk
    /// priorities) feeding dedicated workers that execute against this
    /// session's shared synopsis and cache. Served answers are
    /// bit-identical to calling [`estimate`](Session::estimate) here
    /// directly, and the server stays valid even if the session drops.
    ///
    /// ```
    /// use pass::{EngineSpec, ServeConfig, Session};
    /// use pass::common::{AggKind, Query};
    /// use pass::table::datasets::uniform;
    ///
    /// let mut session = Session::new(uniform(5_000, 3));
    /// session.add_engine("pass", &EngineSpec::pass()).unwrap();
    /// let serve = session.serve("pass", ServeConfig::new()).unwrap();
    /// let q = Query::interval(AggKind::Count, 0.1, 0.8);
    /// let ticket = serve.submit_to("pass", &q).unwrap();
    /// let results = ticket.wait().results().unwrap();
    /// assert!(results[0].as_ref().unwrap().value > 0.0);
    /// ```
    pub fn serve(&self, engine: &str, config: crate::ServeConfig) -> Result<crate::Serve> {
        self.serve_multi(&[engine], config)
    }

    /// Start a serving front-end over several of this session's
    /// engines: one bounded queue, one worker pool, and one admission
    /// bound shared by all of them. Every submission names its engine
    /// ([`Serve::submit`](crate::Serve::submit),
    /// [`submit_to`](crate::Serve::submit_to)).
    /// Batches coalesce per engine (never mixed), and the counters are
    /// kept per engine
    /// ([`ServeStats::per_engine`](crate::ServeStats::per_engine); the
    /// totals are their sums).
    /// Errors on an empty list, an unknown engine name, or a duplicate.
    ///
    /// ```
    /// use pass::{EngineSpec, ServeConfig, Session};
    /// use pass::common::{AggKind, Query};
    /// use pass::table::datasets::uniform;
    ///
    /// let mut session = Session::new(uniform(5_000, 9));
    /// session.add_engine("pass", &EngineSpec::pass()).unwrap();
    /// session.add_engine("us", &EngineSpec::uniform(500)).unwrap();
    /// let serve = session
    ///     .serve_multi(&["pass", "us"], ServeConfig::new())
    ///     .unwrap();
    ///
    /// let q = Query::interval(AggKind::Count, 0.1, 0.8);
    /// let from_pass = serve.submit_to("pass", &q).unwrap();
    /// let from_us = serve.submit_to("us", &q).unwrap();
    /// assert!(from_pass.wait().is_done());
    /// assert!(from_us.wait().is_done());
    /// ```
    pub fn serve_multi(
        &self,
        engines: &[&str],
        config: crate::ServeConfig,
    ) -> Result<crate::Serve> {
        let routes = engines
            .iter()
            .map(|name| Ok((name.to_string(), self.handle(name)?)))
            .collect::<Result<Vec<_>>>()?;
        crate::Serve::new(routes, config)
    }

    /// A clone of the cached engine `engine` for any thread: it shares
    /// the session's immutable synopsis and query cache via `Arc`, so
    /// hits accumulate in one place, and it stays valid (keeping the
    /// synopsis alive) after the session drops or replaces the engine.
    pub fn handle(&self, engine: &str) -> Result<CachedSynopsis<Arc<dyn Synopsis>>> {
        Ok(self.engine_or_err(engine)?.engine.clone())
    }

    fn entry(&self, name: &str) -> Option<&SessionEngine> {
        self.engines.iter().find(|e| e.name == name)
    }

    fn engine_or_err(&self, name: &str) -> Result<&SessionEngine> {
        self.entry(name).ok_or_else(|| {
            PassError::InvalidParameter("engine", format!("no engine named `{name}`"))
        })
    }

    /// Answer one query on a named engine (cache-first).
    pub fn estimate(&self, engine: &str, query: &Query) -> Result<Estimate> {
        self.engine_or_err(engine)?.engine.estimate(query)
    }

    /// Answer a query batch on a named engine through its batched path
    /// (PASS reuses its tree-traversal buffers across the whole batch);
    /// cached results are reused and only misses reach the engine.
    pub fn estimate_many(&self, engine: &str, queries: &[Query]) -> Result<Vec<Result<Estimate>>> {
        Ok(self.engine_or_err(engine)?.engine.estimate_many(queries))
    }

    /// Answer a query batch sharded across `pool`'s worker threads;
    /// element-wise identical to [`estimate_many`](Session::estimate_many).
    pub fn estimate_many_parallel(
        &self,
        engine: &str,
        queries: &[Query],
        pool: &ThreadPool,
    ) -> Result<Vec<Result<Estimate>>> {
        Ok(self
            .engine_or_err(engine)?
            .engine
            .estimate_many_parallel(queries, pool))
    }

    /// Answer a group-by query on a named engine: one
    /// [`GroupResult`] per category, in input order, with the group
    /// availability rule applied per row (a category no shard or sample
    /// can vouch for comes back as an `Err` row, never a silent zero).
    /// Each category is one selection query in the engine's cache, so
    /// repeats, overlapping category lists and plain queries over the
    /// same rectangles all hit it.
    ///
    /// ```
    /// use pass::{EngineSpec, Session};
    /// use pass::common::{AggKind, GroupByQuery, Rect};
    /// use pass::table::Table;
    ///
    /// let cat: Vec<f64> = (0..4_000).map(|i| (i % 4) as f64).collect();
    /// let vals: Vec<f64> = (0..4_000).map(|i| ((i % 4) + 1) as f64).collect();
    /// let mut session = Session::new(Table::one_dim(cat, vals).unwrap());
    /// session.add_engine("pass", &EngineSpec::pass()).unwrap();
    /// let q = GroupByQuery::over(AggKind::Sum, 0, &[0.0, 1.0, 2.0, 3.0], 1);
    /// let rows = session.group_by("pass", &q).unwrap();
    /// assert_eq!(rows.len(), 4);
    /// assert!(rows.iter().all(|r| r.estimate.is_ok()));
    /// ```
    pub fn group_by(&self, engine: &str, query: &GroupByQuery) -> Result<Vec<GroupResult>> {
        estimate_group_by(&self.engine_or_err(engine)?.engine, query)
    }

    /// Exact answer (`None` for AVG/MIN/MAX over empty selections),
    /// computed by the session's shared ground-truth oracle.
    pub fn ground_truth(&self, query: &Query) -> Option<f64> {
        self.truth_oracle().eval(query)
    }

    /// Evaluate every registered engine over one workload and score it
    /// (§5.1.2): one row per engine, in insertion order. Each query is
    /// answered through the engine's cache and timed on its own; ground
    /// truth is computed once per call, and each row reports the cache
    /// hits and misses of this call alone.
    pub fn run_workload(&self, queries: &[Query]) -> Vec<WorkloadSummary> {
        let truth = self.truth_oracle();
        let truths: Vec<Option<f64>> = queries.iter().map(|q| truth.eval(q)).collect();
        self.engines
            .iter()
            .map(|entry| entry.score(queries, &truths))
            .collect()
    }

    fn truth_oracle(&self) -> &Truth {
        self.truth.get_or_init(|| Truth::new(&self.table))
    }
}

impl SessionEngine {
    /// One row of [`Session::run_workload`]: answer every query, then
    /// score the answers against `truths`. An unanswerable query counts
    /// as relative error and CI ratio 1.0 and as a failure — the penalty
    /// the paper's selective-query discussion motivates. A query with
    /// undefined truth is left out of every error statistic but still
    /// counts toward throughput, a serving rate over the whole wall clock.
    fn score(&self, queries: &[Query], truths: &[Option<f64>]) -> WorkloadSummary {
        let before = self.engine.cache().stats();
        let start = Instant::now();
        let answers: Vec<(Result<Estimate>, f64)> = queries
            .iter()
            .map(|q| {
                let query_start = Instant::now();
                let answer = self.engine.estimate(q);
                (answer, query_start.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        let wall_secs = start.elapsed().as_secs_f64();
        let cache = self.engine.cache().stats().since(&before);
        let mut failures = 0usize;
        // Per query with a defined truth: relative error, CI ratio, skip
        // rate, tuples processed, latency (µs).
        let scored: Vec<[f64; 5]> = truths
            .iter()
            .zip(answers)
            .filter_map(|(truth, (answer, latency_us))| {
                let truth = (*truth)?;
                Some(match answer {
                    Ok(e) => [
                        e.relative_error(truth),
                        e.ci_ratio(truth),
                        e.skip_rate(),
                        e.tuples_processed as f64,
                        latency_us,
                    ],
                    Err(_) => {
                        failures += 1;
                        [1.0, 1.0, 0.0, 0.0, latency_us]
                    }
                })
            })
            .collect();
        let column = |i: usize| -> Vec<f64> { scored.iter().map(|row| row[i]).collect() };
        let mean = |i: usize| column(i).iter().sum::<f64>() / scored.len().max(1) as f64;
        WorkloadSummary {
            engine: self.name.clone(),
            median_relative_error: median(&column(0)),
            median_ci_ratio: median(&column(1)),
            mean_skip_rate: mean(2),
            mean_tuples_processed: mean(3),
            mean_latency_us: mean(4),
            max_latency_us: column(4).into_iter().fold(0.0, f64::max),
            throughput_qps: if wall_secs > 0.0 {
                queries.len() as f64 / wall_secs
            } else {
                0.0
            },
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            failures,
            queries: scored.len(),
            storage_bytes: self.engine.storage_bytes(),
            build_ms: self.build_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::{AggKind, PassSpec};
    use pass_table::datasets::uniform;
    use pass_table::SortedTable;
    use pass_workload::random_queries;

    fn spec_pass(seed: u64) -> EngineSpec {
        EngineSpec::Pass(PassSpec {
            partitions: 16,
            sample_rate: 0.02,
            seed,
            ..PassSpec::default()
        })
    }

    #[test]
    fn engines_are_named_and_replaceable() {
        let mut s = Session::new(uniform(2_000, 1));
        s.add_engine("pass", &spec_pass(2)).unwrap();
        s.add_engine("us", &EngineSpec::uniform(200)).unwrap();
        assert_eq!(s.engine_names(), vec!["pass", "us"]);
        assert_eq!(s.spec("us"), Some(EngineSpec::uniform(200)));
        // Replacing keeps the position and updates the spec.
        s.add_engine("us", &EngineSpec::uniform(300)).unwrap();
        assert_eq!(s.engine_names(), vec!["pass", "us"]);
        assert_eq!(s.spec("us"), Some(EngineSpec::uniform(300)));
        assert!(s.build_ms("pass").unwrap() >= 0.0);
    }

    #[test]
    fn unknown_engine_is_an_error() {
        let s = Session::new(uniform(1_000, 3));
        let q = Query::interval(AggKind::Sum, 0.0, 1.0);
        assert!(s.estimate("nope", &q).is_err());
        assert!(s.estimate_many("nope", std::slice::from_ref(&q)).is_err());
        assert!(s.handle("nope").is_err());
        let pool = ThreadPool::new(2);
        assert!(s
            .estimate_many_parallel("nope", std::slice::from_ref(&q), &pool)
            .is_err());
    }

    #[test]
    fn estimate_and_batch_agree_through_the_facade() {
        let mut s = Session::new(uniform(10_000, 4));
        s.add_engine("pass", &spec_pass(5)).unwrap();
        let queries: Vec<Query> = (0..16)
            .map(|i| Query::interval(AggKind::Sum, i as f64 / 20.0, i as f64 / 20.0 + 0.3))
            .collect();
        let batch = s.estimate_many("pass", &queries).unwrap();
        for (q, b) in queries.iter().zip(batch) {
            assert_eq!(s.estimate("pass", q).unwrap().value, b.unwrap().value);
        }
    }

    #[test]
    fn parallel_batch_agrees_with_sequential_through_the_facade() {
        let mut s = Session::new(uniform(10_000, 14));
        s.add_engine("pass", &spec_pass(15)).unwrap();
        let queries: Vec<Query> = (0..128)
            .map(|i| Query::interval(AggKind::Sum, (i % 50) as f64 / 100.0, 0.8))
            .collect();
        let seq = s.estimate_many("pass", &queries).unwrap();
        let pool = ThreadPool::new(4);
        let par = s.estimate_many_parallel("pass", &queries, &pool).unwrap();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.as_ref().unwrap().value, b.as_ref().unwrap().value);
        }
    }

    #[test]
    fn handles_share_synopsis_and_cache_across_threads() {
        let mut s = Session::new(uniform(10_000, 16));
        s.add_engine("pass", &spec_pass(17)).unwrap();
        let handle = s.handle("pass").unwrap();
        let queries: Vec<Query> = (0..40)
            .map(|i| Query::interval(AggKind::Sum, i as f64 / 50.0, i as f64 / 50.0 + 0.2))
            .collect();
        let expected: Vec<f64> = queries
            .iter()
            .map(|q| s.estimate("pass", q).unwrap().value)
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let worker = handle.clone();
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for (q, want) in queries.iter().zip(expected) {
                        assert_eq!(worker.estimate(q).unwrap().value, *want);
                    }
                });
            }
        });
        // 40 session queries (misses) warmed the cache; all 160 handle
        // queries were hits on the shared cache.
        let stats = handle.cache().stats();
        assert_eq!(stats.hits, 160);
        assert_eq!(stats.misses, 40);
        // The session sees the same counters: one cache per engine.
        assert_eq!(s.cache_stats("pass").unwrap(), stats);
    }

    #[test]
    fn second_workload_pass_is_fully_cached() {
        let table = uniform(10_000, 20);
        let sorted = SortedTable::from_table(&table, 0);
        let queries = random_queries(&sorted, 50, AggKind::Sum, 300, 21);
        let mut s = Session::new(table);
        s.add_engine("pass", &spec_pass(22)).unwrap();
        let [first] = &s.run_workload(&queries)[..] else {
            panic!("one engine, one row")
        };
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.cache_misses as usize, queries.len());
        let [second] = &s.run_workload(&queries)[..] else {
            panic!("one engine, one row")
        };
        assert_eq!(second.cache_hits as usize, queries.len());
        assert_eq!(second.cache_misses, 0);
        assert_eq!(
            first.median_relative_error, second.median_relative_error,
            "cached answers are identical"
        );
        // The answers the cache now serves are the engine's own, query by
        // query.
        let cached = s.estimate_many("pass", &queries).unwrap();
        let fresh = s.engine("pass").unwrap().estimate_many(&queries);
        assert_eq!(cached, fresh);
        // throughput_qps counts every answered query, cache-served ones
        // included: the fully cached pass still reports the full query
        // count and a positive serving rate.
        assert_eq!(second.queries, queries.len());
        assert!(second.throughput_qps > 0.0);
    }

    #[test]
    fn clearing_the_cache_forces_recomputation() {
        let mut s = Session::new(uniform(5_000, 23));
        s.add_engine("pass", &spec_pass(24)).unwrap();
        let q = Query::interval(AggKind::Sum, 0.2, 0.8);
        let first = s.estimate("pass", &q).unwrap();
        s.estimate("pass", &q).unwrap();
        assert_eq!(s.cache_stats("pass").unwrap().hits, 1);
        s.clear_cache("pass").unwrap();
        assert_eq!(s.cache_stats("pass").unwrap().len, 0);
        // Recomputed (a miss), deterministic engines answer identically.
        let again = s.estimate("pass", &q).unwrap();
        assert_eq!(first.value, again.value);
        assert_eq!(s.cache_stats("pass").unwrap().hits, 1);
        assert!(s.clear_cache("nope").is_err());
        // The handle shares the same cache and can clear it too.
        let h = s.handle("pass").unwrap();
        h.cache().clear();
        assert_eq!(s.cache_stats("pass").unwrap().len, 0);
    }

    #[test]
    fn workloads_share_ground_truth_across_engines() {
        let table = uniform(10_000, 6);
        let sorted = SortedTable::from_table(&table, 0);
        let queries = random_queries(&sorted, 40, AggKind::Sum, 300, 7);
        let session = Session::with_engines(
            table,
            &[
                ("pass", spec_pass(8)),
                ("us", EngineSpec::uniform(400).with_seed(8)),
            ],
        )
        .unwrap();
        let rows = session.run_workload(&queries);
        let names: Vec<&str> = rows.iter().map(|r| r.engine.as_str()).collect();
        assert_eq!(names, ["pass", "us"], "one row per engine, insertion order");
        for row in &rows {
            assert_eq!(row.queries, 40);
            assert!(row.median_relative_error.is_finite());
            assert_eq!(row.build_ms, session.build_ms(&row.engine).unwrap());
            assert_eq!(
                row.storage_bytes,
                session.engine(&row.engine).unwrap().storage_bytes()
            );
        }
        // A second call is served by the caches: each row counts only its
        // own call's hits and misses, and cached answers score identically.
        let again = session.run_workload(&queries);
        for (first, second) in rows.iter().zip(&again) {
            assert_eq!((first.cache_hits, first.cache_misses), (0, 40));
            assert_eq!((second.cache_hits, second.cache_misses), (40, 0));
            assert_eq!(first.median_relative_error, second.median_relative_error);
        }
    }

    #[test]
    fn failures_counted_and_penalized() {
        // A tiny uniform sample fails AVG on very selective queries, and
        // some of these intervals hold no row at all (undefined truth).
        let mut s = Session::new(uniform(10_000, 7));
        s.add_engine("us", &EngineSpec::uniform(5).with_seed(8))
            .unwrap();
        let queries: Vec<Query> = (0..20)
            .map(|i| {
                let lo = 0.05 * i as f64 / 20.0;
                Query::interval(AggKind::Avg, lo, lo + 1e-4)
            })
            .collect();
        let [row] = &s.run_workload(&queries)[..] else {
            panic!("one engine, one row")
        };
        let answers = s.estimate_many("us", &queries).unwrap();
        let mut expected_rel = Vec::new();
        let mut expected_failures = 0;
        for (q, answer) in queries.iter().zip(&answers) {
            let Some(truth) = s.ground_truth(q) else {
                continue;
            };
            expected_rel.push(match answer {
                Ok(e) => e.relative_error(truth),
                Err(_) => {
                    expected_failures += 1;
                    1.0
                }
            });
        }
        assert!(
            expected_failures > 0,
            "the workload must exercise a failure"
        );
        assert!(expected_rel.len() < queries.len(), "and an undefined truth");
        assert_eq!(row.failures, expected_failures);
        assert_eq!(row.queries, expected_rel.len());
        assert_eq!(row.median_relative_error, median(&expected_rel));
        assert_eq!(row.cache_misses as usize, queries.len(), "all executed");
    }

    #[test]
    fn a_nan_keyed_table_still_scores_a_workload() {
        let t = pass_table::Table::one_dim(vec![1.0, f64::NAN, 3.0, 4.0], vec![1.0; 4]).unwrap();
        let mut s = Session::new(t);
        // The NaN row matches no interval, as in a scan.
        let q = Query::interval(AggKind::Count, f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(s.ground_truth(&q), Some(3.0));
        s.add_engine("us", &EngineSpec::uniform(4)).unwrap();
        let [row] = &s.run_workload(std::slice::from_ref(&q))[..] else {
            panic!("one engine, one row")
        };
        assert_eq!((row.queries, row.failures), (1, 0));
    }

    #[test]
    fn pass_beats_uniform_on_median_error() {
        use pass_core::Pass;
        let t = uniform(20_000, 1);
        let queries = random_queries(&SortedTable::from_table(&t, 0), 150, AggKind::Sum, 400, 2);
        let pass = Pass::from_spec(
            &t,
            &PassSpec {
                partitions: 32,
                sample_rate: 0.01,
                seed: 3,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let budget = pass.total_samples();
        let mut s = Session::new(t);
        s.add_synopsis("pass", pass);
        s.add_engine("us", &EngineSpec::uniform(budget).with_seed(3))
            .unwrap();
        let [pass_row, us_row] = &s.run_workload(&queries)[..] else {
            panic!("two engines, two rows")
        };
        assert!(
            pass_row.median_relative_error <= us_row.median_relative_error,
            "PASS {} vs US {}",
            pass_row.median_relative_error,
            us_row.median_relative_error
        );
        assert!(pass_row.mean_skip_rate > 0.9);
        assert_eq!(pass_row.queries, 150);
    }

    #[test]
    fn sharded_engines_get_full_session_plumbing() {
        let table = uniform(10_000, 40);
        let sorted = SortedTable::from_table(&table, 0);
        let queries = random_queries(&sorted, 30, AggKind::Sum, 500, 41);
        let mut s = Session::new(table);
        s.add_sharded_engine("pass4", &spec_pass(42), &ShardPlan::row_range(4))
            .unwrap();
        // Spec round-trips through the session as a Sharded spec.
        assert_eq!(
            s.spec("pass4"),
            Some(EngineSpec::sharded(spec_pass(42), ShardPlan::row_range(4)))
        );
        assert!(s.build_ms("pass4").unwrap() >= 0.0);
        // Caching: a repeated query is a hit.
        let q = &queries[0];
        let first = s.estimate("pass4", q).unwrap();
        assert_eq!(s.estimate("pass4", q).unwrap().value, first.value);
        assert_eq!(s.cache_stats("pass4").unwrap().hits, 1);
        // Handles and workloads work like any other engine.
        let handle = s.handle("pass4").unwrap();
        assert_eq!(handle.estimate(q).unwrap().value, first.value);
        let [summary] = &s.run_workload(&queries)[..] else {
            panic!("one engine, one row")
        };
        assert_eq!(summary.queries, queries.len());
        assert!(summary.median_relative_error < 0.25);
    }

    #[test]
    fn group_by_through_the_facade_is_cached_and_parallel_safe() {
        use pass_common::GroupByQuery;
        let n = 6_000;
        let cat: Vec<f64> = (0..n).map(|i| (i % 6) as f64).collect();
        let vals: Vec<f64> = (0..n).map(|i| ((i % 6) + 1) as f64 * 2.0).collect();
        let table = pass_table::Table::one_dim(cat, vals).unwrap();
        let mut s = Session::new(table);
        s.add_engine("pass", &spec_pass(50)).unwrap();
        let q = GroupByQuery::over(AggKind::Sum, 0, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 1);

        let rows = s.group_by("pass", &q).unwrap();
        assert_eq!(rows.len(), 6);
        let misses = s.cache_stats("pass").unwrap().misses;
        assert_eq!(misses, 6, "one cached row per category");

        // A repeat is answered fully from cache, bit-identically.
        let again = s.group_by("pass", &q).unwrap();
        assert_eq!(rows, again);
        assert_eq!(s.cache_stats("pass").unwrap().misses, misses);

        // Handles answer the same rows against the shared cache.
        let handle = s.handle("pass").unwrap();
        assert_eq!(estimate_group_by(&handle, &q).unwrap(), rows);

        // The parallel path chunks categories without changing any row.
        let pool = ThreadPool::new(3);
        q.validate(handle.dims()).unwrap();
        let par = q.rows(handle.estimate_many_parallel(&q.queries().unwrap(), &pool));
        assert_eq!(rows, par);

        // Served as one plain request, the same rows again.
        let serve = s.serve("pass", crate::ServeConfig::new()).unwrap();
        let options = crate::SubmitOptions::default();
        let ticket = serve.submit("pass", &q.queries().unwrap(), &options);
        assert_eq!(q.rows(ticket.unwrap().wait().results().unwrap()), rows);
        let served_misses = s.cache_stats("pass").unwrap().misses;
        assert_eq!(served_misses, misses, "the served rows are cache hits");

        // Errors: unknown engine and malformed queries surface as errors.
        assert!(s.group_by("nope", &q).is_err());
        let bad = GroupByQuery::over(AggKind::Sum, 3, &[0.0], 1);
        assert!(s.group_by("pass", &bad).is_err());
        assert!(bad.validate(handle.dims()).is_err());
    }

    #[test]
    fn hand_built_synopses_can_join_the_session() {
        use pass_core::Pass;
        let table = uniform(2_000, 9);
        let pass = Pass::from_spec(
            &table,
            &PassSpec {
                partitions: 8,
                seed: 10,
                ..PassSpec::default()
            },
        )
        .unwrap();
        let mut s = Session::new(table);
        s.add_synopsis("live", pass);
        let q = Query::interval(AggKind::Count, 0.0, 1.0);
        assert!(s.estimate("live", &q).unwrap().value > 0.0);
    }
}
