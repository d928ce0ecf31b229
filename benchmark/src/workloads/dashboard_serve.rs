//! `dashboard_serve` — a closed loop: one client thread and one `Serve`
//! worker (both on the pinned CPU) over `Session::serve_multi` routing
//! to a PASS engine and a 2-shard PASS engine, default result cache.
//! An op is one *refresh*: 64 single-query `Serve::submit_to` calls
//! (three refreshes in four go to `pass`, one to `pass_x2`) drawn
//! Zipf(s = 1) from the distinct queries, then a wait for all 64
//! tickets. `throughput_ops_s` counts queries; latency is per refresh.
//!
//! Why: the `pass-common` cache, `RequestQueue`, `Ticket`, coalescing,
//! routing and the sharded merge do the work and the engine little —
//! the gap between ~1 µs of engine time per query and the served
//! latency that ROADMAP aim 1 calls unattributed.

use std::time::Instant;

use crate::api::{
    EngineSpec, Query, Serve, ServeConfig, ServeOutcome, ServeStats, Session, ShardPlan, Synopsis,
    Ticket, Truth,
};
use crate::harness::{
    answer_bits, timed, timed_passes, Checker, Latencies, Setup, Workload, WorkloadResult,
};
use crate::inputs::{pass_spec, truths, Data1d, Sizes, PARTITIONS, SAMPLE_RATE_1D};
use crate::rng::{Rng, Zipf};
use crate::span::{Recorder, SpanId};
use crate::stats::Summary;

/// Workload name.
pub const NAME: &str = "dashboard_serve";
/// Routed engines: the default route first.
pub const ENGINES: [&str; 2] = ["pass", "pass_x2"];
/// Tiles (single-query submissions) per refresh.
pub const TILES: usize = 64;
/// Shards of the second engine.
const SHARDS: usize = 2;
/// Refreshes per block (~2 ms).
const BLOCK: usize = 8;
/// Refreshes in the generated schedule; the passes cycle through it.
const SCHEDULE_REFRESHES: usize = 4_096;
/// Untimed refreshes after the checked cycle, so the FIFO caches hold
/// the Zipf head rather than the tail of the checked cycle.
const WARMUP_REFRESHES: usize = 256;

/// Which queries each refresh asks for — a pure function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    picks: Vec<u32>,
}

impl Schedule {
    /// Draw `refreshes × TILES` Zipf ranks over `distinct` queries.
    pub fn generate(seed: u64, distinct: usize, refreshes: usize) -> Schedule {
        let zipf = Zipf::new(distinct);
        let mut rng = Rng::new(seed, 0xDA5B);
        Schedule {
            picks: (0..refreshes * TILES)
                .map(|_| zipf.sample(&mut rng) as u32)
                .collect(),
        }
    }

    /// Refreshes before the schedule repeats.
    pub fn len(&self) -> usize {
        self.picks.len() / TILES
    }

    /// Query indices of refresh `r`.
    pub fn tiles(&self, r: usize) -> &[u32] {
        &self.picks[r * TILES..(r + 1) * TILES]
    }

    /// Engine (index into [`ENGINES`]) refresh `r` is routed to: three
    /// in four to the plain engine, one in four to the sharded one.
    pub fn engine(r: usize) -> usize {
        usize::from(r % 4 == 3)
    }
}

/// Trace-only state: what the replay needs, and what it measured.
#[derive(Debug, Default)]
pub struct Traced {
    pending: Vec<(SpanId, u32)>,
    /// Per-request submit → observed-resolution time.
    pub request_ns: Vec<u32>,
    /// Per refresh: the same tiles through `Session::estimate_many`.
    pub direct_ns: Vec<u32>,
}

/// The workload after set-up and its checked cycle.
pub struct DashboardServe {
    /// The session under test (default cache capacity).
    pub session: Session,
    serve: Option<Serve>,
    queries: Vec<Query>,
    /// Expected answer bits per engine per distinct query, from the
    /// direct `Session::estimate` of the checked cycle.
    expected: [Vec<u64>; 2],
    schedule: Schedule,
    cursor: usize,
    tickets: Vec<Ticket>,
    /// Accuracy and failures.
    pub checker: Checker,
    /// Trace-only state.
    pub traced: Traced,
}

/// Build both engines once; the seconds cover only the build calls.
pub fn build(data: &Data1d, seed: u64) -> (Session, f64) {
    let plain = EngineSpec::Pass(pass_spec(PARTITIONS, SAMPLE_RATE_1D, seed));
    let shard = EngineSpec::Pass(pass_spec(PARTITIONS / SHARDS, SAMPLE_RATE_1D, seed));
    let mut session = Session::new(data.table.clone());
    let start = Instant::now();
    session.add_engine(ENGINES[0], &plain).expect("PASS builds");
    session
        .add_sharded_engine(ENGINES[1], &shard, &ShardPlan::row_range(SHARDS))
        .expect("sharded PASS builds");
    let seconds = start.elapsed().as_secs_f64();
    (session, seconds)
}

impl DashboardServe {
    /// Run the checked cycle (every distinct query directly on both
    /// engines, against the truth), start the server, warm the caches.
    pub fn new(
        session: Session,
        queries: Vec<Query>,
        truth: &[Option<f64>],
        seed: u64,
    ) -> DashboardServe {
        let mut checker = Checker::default();
        let expected = ENGINES.map(|engine| {
            queries
                .iter()
                .zip(truth)
                .map(|(q, &t)| {
                    let answer = session.estimate(engine, q);
                    checker.check(q.agg, &answer, t);
                    answer_bits(&answer)
                })
                .collect()
        });
        let serve = session
            .serve_multi(&ENGINES, ServeConfig::new().with_workers(1))
            .expect("both engines registered");
        let mut w = DashboardServe {
            schedule: Schedule::generate(seed, queries.len(), SCHEDULE_REFRESHES),
            session,
            serve: Some(serve),
            queries,
            expected,
            cursor: 0,
            tickets: Vec::with_capacity(TILES),
            checker,
            traced: Traced::default(),
        };
        for _ in 0..WARMUP_REFRESHES {
            let r = w.next();
            w.refresh(r);
        }
        w
    }

    /// Operations of the checked cycle and warm-up.
    pub fn checked_ops(&self) -> u64 {
        (ENGINES.len() * self.queries.len() + WARMUP_REFRESHES * TILES) as u64
    }

    /// Bytes of both synopses.
    pub fn storage_bytes(&self) -> usize {
        ENGINES
            .iter()
            .filter_map(|e| self.session.engine(e))
            .map(Synopsis::storage_bytes)
            .sum()
    }

    /// Cache hits and misses summed over both engines.
    pub fn cache_counters(&self) -> (u64, u64) {
        ENGINES
            .iter()
            .filter_map(|e| self.session.cache_stats(e))
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    }

    /// Counters of the running server.
    pub fn serve_stats(&self) -> Option<ServeStats> {
        self.serve.as_ref().map(Serve::stats)
    }

    /// Stop the server (joins its worker); returns the final counters
    /// and how long the shutdown took.
    pub fn shutdown(&mut self) -> Option<(ServeStats, f64)> {
        let serve = self.serve.take()?;
        let start = Instant::now();
        let stats = serve.shutdown();
        Some((stats, start.elapsed().as_secs_f64() * 1e3))
    }

    fn next(&mut self) -> usize {
        let r = self.cursor;
        self.cursor = (r + 1) % self.schedule.len();
        r
    }

    fn server(&self) -> &Serve {
        self.serve.as_ref().expect("server runs until shutdown()")
    }

    fn submit(&mut self, engine: usize, tile: u32) {
        let ticket = self
            .server()
            .submit_to(ENGINES[engine], &self.queries[tile as usize])
            .expect("routed engine exists");
        self.tickets.push(ticket);
    }

    /// Resolve ticket `i` of the current refresh and check its answer
    /// against the direct `Session` answer, bit for bit.
    fn collect(&mut self, engine: usize, i: usize, tile: u32) {
        let failures = &mut self.checker.failures;
        match self.tickets[i].wait() {
            ServeOutcome::Done(results) => {
                // An empty result list can equal no expected answer.
                let bits = results.first().map(answer_bits);
                failures.mismatch += u64::from(bits != Some(self.expected[engine][tile as usize]));
            }
            ServeOutcome::Rejected => failures.rejected += 1,
            ServeOutcome::Expired => failures.expired += 1,
            ServeOutcome::Cancelled => failures.cancelled += 1,
        }
    }

    fn refresh(&mut self, r: usize) {
        let engine = Schedule::engine(r);
        self.tickets.clear();
        for i in 0..TILES {
            let tile = self.schedule.tiles(r)[i];
            self.submit(engine, tile);
        }
        for i in 0..TILES {
            let tile = self.schedule.tiles(r)[i];
            self.collect(engine, i, tile);
        }
    }

    /// One request at a time on an empty queue: submit, wait, and the
    /// nanoseconds that took.
    pub fn roundtrip(&mut self) -> u32 {
        let r = self.next();
        let (engine, tile) = (Schedule::engine(r), self.schedule.tiles(r)[0]);
        self.tickets.clear();
        timed(|| {
            self.submit(engine, tile);
            self.collect(engine, 0, tile);
        })
        .1
    }

    /// The traced refresh: `refresh` ⊃ 64 × `serve.submit` + `serve.wait`,
    /// plus each request's submit → observed-resolution time.
    fn refresh_traced(&mut self, rec: &mut Recorder, r: usize) {
        let (refresh, submit, wait) = (
            rec.name("refresh"),
            rec.name("serve.submit"),
            rec.name("serve.wait"),
        );
        let engine = Schedule::engine(r);
        self.tickets.clear();
        let outer = rec.enter(refresh, r as u32);
        let mut submitted = [0u64; TILES];
        for (i, at) in submitted.iter_mut().enumerate() {
            let tile = self.schedule.tiles(r)[i];
            let span = rec.enter(submit, r as u32);
            self.submit(engine, tile);
            rec.exit(span);
            *at = rec.spans()[span as usize].start_ns;
        }
        let waiting = rec.enter(wait, r as u32);
        let base = rec.spans()[waiting as usize].start_ns;
        let clock = Instant::now();
        for (i, at) in submitted.iter().enumerate() {
            let tile = self.schedule.tiles(r)[i];
            self.collect(engine, i, tile);
            let resolved = base + clock.elapsed().as_nanos() as u64;
            self.traced.request_ns.push((resolved - at) as u32);
        }
        rec.exit(waiting);
        rec.exit(outer);
        self.traced.pending.push((outer, r as u32));
    }

    /// Replay each traced refresh's tiles through the direct batched
    /// path (`Session::estimate_many`, same cache) — the comparator for
    /// `serve.self_us_per_request`.
    pub fn replay(&mut self) {
        for (_, r) in std::mem::take(&mut self.traced.pending) {
            let r = r as usize;
            let tiles: Vec<Query> = self
                .schedule
                .tiles(r)
                .iter()
                .map(|&t| self.queries[t as usize].clone())
                .collect();
            let engine = ENGINES[Schedule::engine(r)];
            let (answers, ns) = timed(|| self.session.estimate_many(engine, &tiles));
            std::hint::black_box(answers.is_ok());
            self.traced.direct_ns.push(ns);
        }
    }
}

impl Workload for DashboardServe {
    fn block(&mut self) -> u64 {
        for _ in 0..BLOCK {
            let r = self.next();
            self.refresh(r);
        }
        (BLOCK * TILES) as u64
    }

    fn block_timed(&mut self, lat: &mut Latencies) -> u64 {
        for _ in 0..BLOCK {
            let r = self.next();
            let ((), ns) = timed(|| self.refresh(r));
            lat.ops.push(ns);
        }
        (BLOCK * TILES) as u64
    }

    fn block_traced(&mut self, rec: &mut Recorder) -> u64 {
        for _ in 0..BLOCK {
            let r = self.next();
            self.refresh_traced(rec, r);
        }
        (BLOCK * TILES) as u64
    }
}

/// Generated inputs of this workload.
pub struct Inputs {
    /// Distinct queries; index = Zipf rank.
    pub queries: Vec<Query>,
    /// Truth per query (`None` = unchecked extremum).
    pub truth: Vec<Option<f64>>,
}

/// Generate the queries and their truths.
pub fn inputs(data: &Data1d, sizes: &Sizes, seed: u64) -> Inputs {
    let queries = data.queries(sizes.serve_queries / 5 * 5, seed, 2);
    let truth = truths(&Truth::new(&data.table), &queries, sizes.extrema_truths);
    Inputs { queries, truth }
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes) -> WorkloadResult {
    let gen = Instant::now();
    let data = Data1d::generate(sizes.rows_1d, seed);
    let inputs = inputs(&data, sizes, seed);
    let gen_ms = gen.elapsed().as_secs_f64() * 1e3;

    let (session, setup) = Setup::before(|| build(&data, seed));
    let mut w = DashboardServe::new(session, inputs.queries, &inputs.truth, seed);
    let (hits0, misses0) = w.cache_counters();
    let timing = timed_passes(&mut w, seconds);
    let setup_s = setup.after(|| build(&data, seed));
    let (hits, misses) = w.cache_counters();
    let (hits, misses) = (hits - hits0, misses - misses0);
    let (stats, _) = w.shutdown().expect("server was running");

    let mut result = WorkloadResult::assemble(
        NAME,
        setup_s,
        &timing,
        &w.checker,
        w.storage_bytes(),
        w.checked_ops(),
        vec![
            ("checked_answers", w.checker.checked()),
            ("cache_hits", hits),
            ("cache_misses", misses),
            ("serve_completed", stats.completed),
            ("serve_batches", stats.batches),
            ("serve_rejected", stats.rejected),
            ("serve_expired", stats.expired),
            ("queue_high_water", stats.queue_high_water as u64),
        ],
        false,
        vec![
            ("rows", sizes.rows_1d as f64),
            ("partitions", PARTITIONS as f64),
            ("shards", SHARDS as f64),
            ("sample_rate", SAMPLE_RATE_1D),
            ("distinct_queries", w.queries.len() as f64),
            ("tiles_per_refresh", TILES as f64),
            ("timed_ops", timing.ops as f64),
            ("gen_ms", gen_ms),
        ],
    );
    result.metrics.push((
        "cache_hit_rate",
        "ratio",
        Summary::exact(
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        ),
        false,
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_per_seed_differs_across_seeds_and_routes_three_to_one() {
        let a = Schedule::generate(7, 1_000, 16);
        assert_eq!(a, Schedule::generate(7, 1_000, 16));
        assert_ne!(a, Schedule::generate(8, 1_000, 16));
        assert_eq!(a.len(), 16);
        assert!(a.tiles(15).iter().all(|&t| t < 1_000));
        let sharded = (0..400).filter(|&r| Schedule::engine(r) == 1).count();
        assert_eq!(sharded, 100);
    }
}
