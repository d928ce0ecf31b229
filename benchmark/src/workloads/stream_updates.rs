//! `stream_updates` — writes beside reads on the same structures: a
//! `CachedSynopsis` over a mutable 1-D `Pass`. Rounds of 16 `insert` +
//! 4 `delete` (of the oldest live inserts) followed by 180 `estimate`
//! calls cycling a 128-query hot set. `latency_*` covers the queries,
//! `update_p50_us` the mutations, `throughput_ops_s` both.
//!
//! Queries are SUM / COUNT / AVG: the paper (§4.5) scopes the statistical
//! consistency of updates to those, and the library says as much — after
//! a delete, MIN/MAX stay "conservative". Sizing with all five
//! aggregates found what that means for hard bounds: a MIN query whose
//! extremum was inserted and deleted again answers `[m, m]` with the
//! stale `m`, which excludes the true minimum (16 `bounds` failures at
//! seed 16, 62 under `--quick`). That is a library finding for a later
//! issue, not something a benchmark workload should trip over on some
//! seeds and not others.
//!
//! Why: every mutation rebuilds the flat `SampleArena` and bumps the
//! epoch that empties the cache, so a read-side layout or cache gain
//! that costs the write path shows here and nowhere else.

use std::collections::VecDeque;
use std::time::Instant;

use crate::api::{CachedSynopsis, Pass, Query, Synopsis, Table, Truth};
use crate::harness::{timed, timed_passes, Checker, Latencies, Setup, Workload, WorkloadResult};
use crate::inputs::{pass_spec, Data1d, Sizes, PARTITIONS, SAMPLE_RATE_1D};
use crate::rng::Rng;
use crate::span::Recorder;

/// Workload name.
pub const NAME: &str = "stream_updates";
const INSERTS: usize = 16;
const DELETES: usize = 4;
const ESTIMATES: usize = 180;
/// Operations per round.
pub const ROUND_OPS: usize = INSERTS + DELETES + ESTIMATES;
/// Distinct queries the reads cycle through. More than half of a
/// round's reads, so that after each round's invalidation most reads
/// (128 of 180) miss: `latency_p50_us` and `latency_p90_us` then sit on
/// the miss path, which is microseconds, not on the ~0.14 µs hit path,
/// which two clock reads cannot resolve to a tenth.
const HOT_SET: usize = 128;
/// Result-cache entries.
const CACHE_CAPACITY: usize = 4_096;
/// Rounds per block (~2 ms).
const BLOCK: usize = 5;
/// The checked cycle: this many rounds, a checkpoint after each fifth.
const CHECKED_ROUNDS: usize = 250;
const CHECKPOINTS: usize = 5;
/// Extra queries answered at every checkpoint, straight on
/// the synopsis (not through the cache): the hot set alone leaves
/// `rel_err_median` a median of ~200 answers, which swings 28 % across
/// seeds.
const ACCURACY_PROBES: usize = 2_000;
/// Generated insert stream; the passes cycle through it.
const INSERT_STREAM: usize = 1 << 16;

/// The workload after set-up and its checked cycle.
pub struct StreamUpdates {
    engine: CachedSynopsis<Pass>,
    hot: Vec<Query>,
    probes: Vec<Query>,
    inserts: Vec<(f64, f64)>,
    /// Inserted and not yet deleted, oldest first.
    live: VecDeque<(f64, f64)>,
    next_insert: usize,
    next_query: usize,
    /// Accuracy and failures.
    pub checker: Checker,
    /// Rounds whose first lookup found a newer epoch and emptied the
    /// cache (counted by traced blocks only).
    pub invalidations: u64,
    /// Synopsis bytes right after the checked cycle (a fixed point, so
    /// the value does not depend on how long the timed passes ran).
    pub storage_bytes: usize,
}

/// Build the synopsis once, with the seconds `Pass::from_spec` took.
pub fn build(data: &Data1d, seed: u64) -> (Pass, f64) {
    let spec = pass_spec(PARTITIONS, SAMPLE_RATE_1D, seed);
    let start = Instant::now();
    let pass = Pass::from_spec(&data.table, &spec).expect("PASS builds");
    let seconds = start.elapsed().as_secs_f64();
    (pass, seconds)
}

/// `(key, value)` rows to insert: the key of a random existing row, its
/// value scaled by a random factor in `[0.5, 1.5)`.
pub fn insert_stream(table: &Table, n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = Rng::new(seed, 0x57EA);
    (0..n)
        .map(|_| {
            let row = rng.below(table.n_rows());
            (
                table.predicate(0, row),
                table.value(row) * (0.5 + rng.unit()),
            )
        })
        .collect()
}

impl StreamUpdates {
    /// Wrap the synopsis and run the checked cycle: `CHECKED_ROUNDS`
    /// rounds with `CHECKPOINTS` evenly spaced comparisons against a
    /// shadow table (base rows plus live inserts) the harness keeps in
    /// step.
    pub fn new(pass: Pass, data: &Data1d, hot: Vec<Query>, seed: u64) -> StreamUpdates {
        let mut w = StreamUpdates {
            engine: CachedSynopsis::new(pass, CACHE_CAPACITY),
            hot,
            probes: data.clt_queries(ACCURACY_PROBES, seed, 4),
            inserts: insert_stream(&data.table, INSERT_STREAM, seed),
            live: VecDeque::new(),
            next_insert: 0,
            next_query: 0,
            checker: Checker::default(),
            invalidations: 0,
            storage_bytes: 0,
        };
        for round in 1..=CHECKED_ROUNDS {
            w.round();
            if round % (CHECKED_ROUNDS / CHECKPOINTS) == 0 {
                w.checkpoint(&data.table);
            }
        }
        w.storage_bytes = w.engine.storage_bytes();
        w
    }

    /// Operations of the checked cycle.
    pub fn checked_ops(&self) -> u64 {
        (CHECKED_ROUNDS * ROUND_OPS + CHECKPOINTS * (self.hot.len() + self.probes.len())) as u64
    }

    /// Compare every hot query's answer (through the cache) and every
    /// accuracy probe's (straight on the synopsis) with the truth over
    /// the shadow table.
    fn checkpoint(&mut self, base: &Table) {
        let mut keys = base.predicate_column(0).to_vec();
        let mut values = base.values().to_vec();
        keys.extend(self.live.iter().map(|r| r.0));
        values.extend(self.live.iter().map(|r| r.1));
        let shadow = Table::one_dim(keys, values).expect("shadow columns have equal length");
        let oracle = Truth::new(&shadow);
        for q in &self.hot {
            self.checker
                .check(q.agg, &self.engine.estimate(q), oracle.eval(q));
        }
        for q in &self.probes {
            self.checker
                .check(q.agg, &self.engine.inner().estimate(q), oracle.eval(q));
        }
    }

    fn insert(&mut self) {
        let (key, value) = self.inserts[self.next_insert];
        self.next_insert = (self.next_insert + 1) % self.inserts.len();
        let done = self.engine.inner_mut().insert(&[key], value);
        self.checker.failures.err += u64::from(done.is_err());
        self.live.push_back((key, value));
    }

    fn delete(&mut self) {
        let Some((key, value)) = self.live.pop_front() else {
            return;
        };
        let done = self.engine.inner_mut().delete(&[key], value);
        self.checker.failures.err += u64::from(done.is_err());
    }

    fn estimate(&mut self) {
        let i = self.next_query;
        self.next_query = (i + 1) % self.hot.len();
        let answer = self.engine.estimate(&self.hot[i]);
        self.checker.failures.err += u64::from(answer.is_err());
    }

    fn round(&mut self) {
        (0..INSERTS).for_each(|_| self.insert());
        (0..DELETES).for_each(|_| self.delete());
        (0..ESTIMATES).for_each(|_| self.estimate());
    }
}

impl Workload for StreamUpdates {
    fn block(&mut self) -> u64 {
        (0..BLOCK).for_each(|_| self.round());
        (BLOCK * ROUND_OPS) as u64
    }

    fn block_timed(&mut self, lat: &mut Latencies) -> u64 {
        for _ in 0..BLOCK {
            for _ in 0..INSERTS {
                lat.updates.push(timed(|| self.insert()).1);
            }
            for _ in 0..DELETES {
                lat.updates.push(timed(|| self.delete()).1);
            }
            for _ in 0..ESTIMATES {
                lat.ops.push(timed(|| self.estimate()).1);
            }
        }
        (BLOCK * ROUND_OPS) as u64
    }

    fn block_traced(&mut self, rec: &mut Recorder) -> u64 {
        let (round, insert, delete, estimate) = (
            rec.name("round"),
            rec.name("core.insert"),
            rec.name("core.delete"),
            rec.name("cached.estimate"),
        );
        for r in 0..BLOCK as u32 {
            let outer = rec.enter(round, r);
            for _ in 0..INSERTS {
                let span = rec.enter(insert, r);
                self.insert();
                rec.exit(span);
            }
            for _ in 0..DELETES {
                let span = rec.enter(delete, r);
                self.delete();
                rec.exit(span);
            }
            let epoch = self.engine.cache().epoch();
            for i in 0..ESTIMATES {
                let span = rec.enter(estimate, r);
                self.estimate();
                rec.exit(span);
                if i == 0 {
                    self.invalidations += u64::from(self.engine.cache().epoch() != epoch);
                }
            }
            rec.exit(outer);
        }
        (BLOCK * ROUND_OPS) as u64
    }
}

/// The hot set: `HOT_SET` SUM / COUNT / AVG intervals.
pub fn hot_set(data: &Data1d, seed: u64) -> Vec<Query> {
    data.clt_queries(HOT_SET, seed, 3)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes) -> WorkloadResult {
    let gen = Instant::now();
    let data = Data1d::generate(sizes.rows_1d, seed);
    let hot = hot_set(&data, seed);
    let gen_ms = gen.elapsed().as_secs_f64() * 1e3;

    let (pass, setup) = Setup::before(|| build(&data, seed));
    let mut w = StreamUpdates::new(pass, &data, hot, seed);
    let timing = timed_passes(&mut w, seconds);
    let setup_s = setup.after(|| build(&data, seed));

    WorkloadResult::assemble(
        NAME,
        setup_s,
        &timing,
        &w.checker,
        w.storage_bytes,
        w.checked_ops(),
        vec![("checked_answers", w.checker.checked())],
        true,
        vec![
            ("rows", sizes.rows_1d as f64),
            ("partitions", PARTITIONS as f64),
            ("sample_rate", SAMPLE_RATE_1D),
            ("hot_queries", HOT_SET as f64),
            ("inserts_per_round", INSERTS as f64),
            ("deletes_per_round", DELETES as f64),
            ("estimates_per_round", ESTIMATES as f64),
            ("timed_ops", timing.ops as f64),
            ("gen_ms", gen_ms),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_stream_repeats_per_seed_and_differs_across_seeds() {
        let data = Data1d::generate(2_000, 7);
        let a = insert_stream(&data.table, 64, 7);
        assert_eq!(a, insert_stream(&data.table, 64, 7));
        assert_ne!(a, insert_stream(&data.table, 64, 8));
    }
}
