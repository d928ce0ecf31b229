//! `adhoc_1d` — paper §5.2. One `Session::estimate` per op over distinct
//! random intervals on a 1-D PASS (256 partitions, 0.5 % sample), result
//! cache off.
//!
//! Why: the MCF walk, the ≤ 2-partial-leaf sorted-1-D scan and the fold
//! do nearly all the work; the cache, the queue and the kernels' mask
//! path do none. A change to those must not move this workload.

use std::time::Instant;

use crate::api::{EngineSpec, Query, Session, Synopsis, Truth};
use crate::harness::{
    answer_bits, timed, timed_passes, Checker, Latencies, Setup, Workload, WorkloadResult,
};
use crate::inputs::{pass_spec, truths, Data1d, Sizes, PARTITIONS, SAMPLE_RATE_1D};
use crate::span::{Recorder, SpanId};

/// Workload name.
pub const NAME: &str = "adhoc_1d";
/// Engine name inside the session.
pub const ENGINE: &str = "pass";
/// Ops per block (~3 ms).
const BLOCK: usize = 4_096;

/// The workload after set-up and its checked cycle.
pub struct Adhoc1d {
    /// The session under test (cache capacity 0).
    pub session: Session,
    queries: Vec<Query>,
    /// `value.to_bits()` of each distinct query's checked answer; every
    /// timed op must reproduce it.
    expected: Vec<u64>,
    cursor: usize,
    /// Accuracy and failures.
    pub checker: Checker,
    /// Traced ops awaiting their replay: `(span, query index)`.
    pending: Vec<(SpanId, u32)>,
    /// Checked-cycle counters.
    pub exact_answers: u64,
    /// Checked-cycle counters.
    pub tuples_processed: u64,
}

/// Build the session once; the seconds cover only `add_engine`.
pub fn build(data: &Data1d, seed: u64) -> (Session, f64) {
    let spec = EngineSpec::Pass(pass_spec(PARTITIONS, SAMPLE_RATE_1D, seed));
    let mut session = Session::new(data.table.clone()).with_cache_capacity(0);
    let start = Instant::now();
    session.add_engine(ENGINE, &spec).expect("PASS builds");
    let seconds = start.elapsed().as_secs_f64();
    (session, seconds)
}

impl Adhoc1d {
    /// Run the checked cycle: every distinct query once, answers
    /// recorded and compared with the truth.
    pub fn new(session: Session, queries: Vec<Query>, truth: &[Option<f64>]) -> Adhoc1d {
        let mut w = Adhoc1d {
            session,
            expected: Vec::with_capacity(queries.len()),
            queries,
            cursor: 0,
            checker: Checker::default(),
            pending: Vec::new(),
            exact_answers: 0,
            tuples_processed: 0,
        };
        for (q, &t) in w.queries.iter().zip(truth) {
            let answer = w.session.estimate(ENGINE, q);
            w.checker.check(q.agg, &answer, t);
            if let Ok(est) = &answer {
                w.exact_answers += u64::from(est.exact);
                w.tuples_processed += est.tuples_processed;
            }
            w.expected.push(answer_bits(&answer));
        }
        w
    }

    /// Distinct queries.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Bytes of the synopsis.
    pub fn storage_bytes(&self) -> usize {
        self.session
            .engine(ENGINE)
            .map_or(0, Synopsis::storage_bytes)
    }

    #[inline]
    fn next(&mut self) -> usize {
        let i = self.cursor;
        self.cursor = if i + 1 == self.queries.len() {
            0
        } else {
            i + 1
        };
        i
    }

    #[inline]
    fn op(&mut self, i: usize) {
        let bits = answer_bits(&self.session.estimate(ENGINE, &self.queries[i]));
        self.checker.failures.mismatch += u64::from(bits != self.expected[i]);
    }

    /// Replay every traced op's query directly on the engine and attach
    /// the measured time as the `core.estimate` child of its
    /// `session.estimate` span (self time of the parent = facade cost).
    pub fn replay(&mut self, rec: &mut Recorder) {
        let core = rec.name("core.estimate");
        let engine = self.session.engine(ENGINE).expect("engine registered");
        for (span, i) in self.pending.drain(..) {
            let (answer, ns) = timed(|| engine.estimate(&self.queries[i as usize]));
            std::hint::black_box(answer.is_ok());
            rec.attach(span, core, u64::from(ns));
        }
    }
}

impl Workload for Adhoc1d {
    fn block(&mut self) -> u64 {
        for _ in 0..BLOCK {
            let i = self.next();
            self.op(i);
        }
        BLOCK as u64
    }

    fn block_timed(&mut self, lat: &mut Latencies) -> u64 {
        for _ in 0..BLOCK {
            let i = self.next();
            let ((), ns) = timed(|| self.op(i));
            lat.ops.push(ns);
        }
        BLOCK as u64
    }

    fn block_traced(&mut self, rec: &mut Recorder) -> u64 {
        let name = rec.name("session.estimate");
        for _ in 0..BLOCK {
            let i = self.next();
            let span = rec.enter(name, i as u32);
            self.op(i);
            rec.exit(span);
            self.pending.push((span, i as u32));
        }
        BLOCK as u64
    }
}

/// Generated inputs of this workload.
pub struct Inputs {
    /// Distinct queries.
    pub queries: Vec<Query>,
    /// Truth per query (`None` = unchecked extremum).
    pub truth: Vec<Option<f64>>,
}

/// Generate the queries and their truths.
pub fn inputs(data: &Data1d, sizes: &Sizes, seed: u64) -> Inputs {
    let queries = data.queries(sizes.adhoc_queries, seed, 1);
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
    let mut w = Adhoc1d::new(session, inputs.queries, &inputs.truth);
    let checked_ops = w.queries.len() as u64;
    let timing = timed_passes(&mut w, seconds);
    let setup_s = setup.after(|| build(&data, seed));

    WorkloadResult::assemble(
        NAME,
        setup_s,
        &timing,
        &w.checker,
        w.storage_bytes(),
        checked_ops,
        vec![
            ("checked_answers", w.checker.checked()),
            ("exact_answers", w.exact_answers),
            ("tuples_processed", w.tuples_processed),
        ],
        true,
        vec![
            ("rows", sizes.rows_1d as f64),
            ("partitions", PARTITIONS as f64),
            ("sample_rate", SAMPLE_RATE_1D),
            ("distinct_queries", sizes.adhoc_queries as f64),
            ("timed_ops", timing.ops as f64),
            ("gen_ms", gen_ms),
        ],
    )
}
