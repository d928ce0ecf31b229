//! The run protocol every workload follows, and the output checks that
//! feed `failed_frac`.
//!
//! Generate → build engines (`SETUP_REPS`×) → one untimed *checked
//! cycle* over every distinct query (warm-up, and the fixed-count source
//! of the exact metrics) → rounds of a *throughput segment* (no per-op
//! clock reads; ops over wall time) followed by a *latency segment* (one
//! `Instant` pair per op), each `SEGMENT` long, until the `--seconds`
//! budget is spent. A timing metric's value is the best of its
//! segment values (see [`Summary`]), reported with median, min, max and
//! count.

use std::time::{Duration, Instant};

use crate::api::{AggKind, Estimate};
use crate::span::Recorder;
use crate::stats::{percentile_sorted, Better, Summary};

/// Length of one throughput or latency segment. Short, because the
/// quiet windows between interference phases are often only a few
/// tenths of a second long and the best segment has to fit inside one;
/// the two kinds alternate so both sample the same phases.
pub const SEGMENT: Duration = Duration::from_millis(20);
/// Times the engines are built; `setup_s` is the fastest.
pub const SETUP_REPS: usize = 5;
/// How many of those builds happen before the timed segments.
const SETUP_REPS_BEFORE: usize = 3;

/// Per-op latencies of one segment, in nanoseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    /// The workload's latency op (query, per-query share of a batch,
    /// or refresh).
    pub ops: Vec<u32>,
    /// Mutations (`stream_updates` only).
    pub updates: Vec<u32>,
}

/// Run `f` and return its result with the elapsed nanoseconds.
#[inline]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u32) {
    let start = Instant::now();
    let result = f();
    (
        result,
        start.elapsed().as_nanos().min(u32::MAX as u128) as u32,
    )
}

/// A workload after set-up: it can run fixed-size blocks of operations,
/// with or without a clock around each op, and returns how many
/// operations (what `throughput_ops_s` counts) the block completed.
/// Blocks are short (a few milliseconds) so a segment ends close to its
/// deadline. Every block checks its outputs and books failures in the
/// workload's own [`Failures`].
pub trait Workload {
    /// One block, no per-op clock reads.
    fn block(&mut self) -> u64;
    /// The same block with one `Instant` pair per op.
    fn block_timed(&mut self, lat: &mut Latencies) -> u64;
    /// The same block with a span around each public call.
    fn block_traced(&mut self, rec: &mut Recorder) -> u64;
}

/// The timing half of a workload's result.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Operations per second, throughput pass.
    pub throughput_ops_s: Summary,
    /// Per-op latency percentiles, latency pass (µs).
    pub latency_p50_us: Summary,
    /// See `latency_p50_us`.
    pub latency_p90_us: Summary,
    /// See `latency_p50_us`; kept un-gated (it swung 30 % in sizing).
    pub latency_p99_us: Summary,
    /// Median mutation latency, when the workload has mutations.
    pub update_p50_us: Option<Summary>,
    /// Operations over both passes.
    pub ops: u64,
}

fn us(ns: Option<u32>) -> f64 {
    f64::from(ns.unwrap_or(0)) / 1e3
}

/// The timed part of a run: rounds of (throughput segment, latency
/// segment), `seconds` in total.
pub fn timed_passes(w: &mut impl Workload, seconds: f64) -> Timing {
    let segment = SEGMENT;
    let rounds = ((seconds / (2.0 * segment.as_secs_f64())).round() as usize).max(1);
    let mut total_ops = 0u64;
    let mut rates = Vec::with_capacity(rounds);
    let (mut p50, mut p90, mut p99, mut up50) = (vec![], vec![], vec![], vec![]);
    let mut lat = Latencies::default();
    for _ in 0..rounds {
        let start = Instant::now();
        let mut ops = 0u64;
        let elapsed = loop {
            ops += w.block();
            let elapsed = start.elapsed();
            if elapsed >= segment {
                break elapsed;
            }
        };
        rates.push(ops as f64 / elapsed.as_secs_f64());
        total_ops += ops;

        lat.ops.clear();
        lat.updates.clear();
        let start = Instant::now();
        while start.elapsed() < segment {
            total_ops += w.block_timed(&mut lat);
        }
        lat.ops.sort_unstable();
        lat.updates.sort_unstable();
        p50.push(us(percentile_sorted(&lat.ops, 0.50)));
        p90.push(us(percentile_sorted(&lat.ops, 0.90)));
        p99.push(us(percentile_sorted(&lat.ops, 0.99)));
        if !lat.updates.is_empty() {
            up50.push(us(percentile_sorted(&lat.updates, 0.50)));
        }
    }

    let latency = |v: &[f64]| Summary::of(v, Better::Lower).expect("rounds > 0");
    Timing {
        throughput_ops_s: Summary::of(&rates, Better::Higher).expect("rounds > 0"),
        latency_p50_us: latency(&p50),
        latency_p90_us: latency(&p90),
        latency_p99_us: latency(&p99),
        update_p50_us: Summary::of(&up50, Better::Lower),
        ops: total_ops,
    }
}

/// Rounds of the traced pass; each runs the same blocks untraced, then
/// traced.
pub const TRACE_ROUNDS: usize = 5;

/// What the traced pass measured besides its spans.
#[derive(Debug, Clone, Copy)]
pub struct TracedPass {
    /// Ops per second with tracing off (fastest round).
    pub untraced_ops_s: f64,
    /// Ops per second with a span around each public call.
    pub traced_ops_s: f64,
    /// Operations run, traced and untraced.
    pub ops: u64,
}

impl TracedPass {
    /// Share of throughput the tracing cost: `1 − traced / untraced`.
    pub fn overhead_frac(&self) -> f64 {
        1.0 - self.traced_ops_s / self.untraced_ops_s
    }
}

/// The traced pass: `TRACE_ROUNDS` rounds of `blocks` untraced blocks
/// then `blocks` traced ones, so both rates come from interleaved,
/// equally warm stretches. Op counts are fixed — the span and count
/// totals of a traced run repeat exactly under one seed.
pub fn traced_pass(w: &mut impl Workload, rec: &mut Recorder, blocks: usize) -> TracedPass {
    let (mut untraced, mut traced, mut total) = (vec![], vec![], 0u64);
    for _ in 0..TRACE_ROUNDS {
        let start = Instant::now();
        let ops: u64 = (0..blocks).map(|_| w.block()).sum();
        untraced.push(ops as f64 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        let traced_ops: u64 = (0..blocks).map(|_| w.block_traced(rec)).sum();
        traced.push(traced_ops as f64 / start.elapsed().as_secs_f64());
        total += ops + traced_ops;
    }
    TracedPass {
        untraced_ops_s: untraced.iter().copied().fold(0.0, f64::max),
        traced_ops_s: traced.iter().copied().fold(0.0, f64::max),
        ops: total,
    }
}

/// The `setup_s` measurement: the engines are built `SETUP_REPS` times,
/// some before the timed segments and the rest after them, so the
/// builds sample interference phases ten seconds apart instead of one.
#[derive(Debug)]
pub struct Setup {
    seconds: Vec<f64>,
}

impl Setup {
    /// Build `SETUP_REPS_BEFORE` times; returns the last build. `build`
    /// times only construction: it returns the seconds it spent inside
    /// the library's build calls.
    pub fn before<T>(mut build: impl FnMut() -> (T, f64)) -> (T, Setup) {
        let mut seconds = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS_BEFORE {
            // Drop the previous build first so peak memory stays at one copy.
            drop(last.take());
            let (built, s) = build();
            seconds.push(s);
            last = Some(built);
        }
        (last.expect("SETUP_REPS_BEFORE > 0"), Setup { seconds })
    }

    /// Build the remaining times (the builds are dropped) and summarize.
    pub fn after<T>(mut self, mut build: impl FnMut() -> (T, f64)) -> Summary {
        for _ in SETUP_REPS_BEFORE..SETUP_REPS {
            self.seconds.push(build().1);
        }
        Summary::of(&self.seconds, Better::Lower).expect("SETUP_REPS > 0")
    }
}

/// Stand-in bits for an `Err` answer in an expected-answer table.
const ERR_BITS: u64 = 0x7FF8_0000_0000_0BAD;

/// What a timed op compares against the checked cycle: the bits of the
/// answer's value (`Err` has bits of its own).
#[inline]
pub fn answer_bits<E>(answer: &Result<Estimate, E>) -> u64 {
    answer.as_ref().map_or(ERR_BITS, |est| est.value.to_bits())
}

/// Failed operations by kind (all expected to stay 0; any other value
/// is reported by kind, not fixed in the library by a benchmark PR).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// The engine answered `Err`.
    pub err: u64,
    /// Ticket resolved `Rejected`.
    pub rejected: u64,
    /// Ticket resolved `Expired`.
    pub expired: u64,
    /// Ticket resolved `Cancelled`.
    pub cancelled: u64,
    /// Hard bounds that exclude the truth.
    pub bounds: u64,
    /// An answer that is not bit-identical to the checked answer for
    /// the same query (served vs direct, or timed vs checked cycle).
    pub mismatch: u64,
}

impl Failures {
    /// Every failed operation.
    pub fn total(&self) -> u64 {
        self.err + self.rejected + self.expired + self.cancelled + self.bounds + self.mismatch
    }

    /// `(kind, count)` pairs, for reports.
    pub fn by_kind(&self) -> [(&'static str, u64); 6] {
        [
            ("err", self.err),
            ("rejected", self.rejected),
            ("expired", self.expired),
            ("cancelled", self.cancelled),
            ("bounds", self.bounds),
            ("mismatch", self.mismatch),
        ]
    }
}

/// Accuracy and soundness checks against ground truth, accumulated over
/// a workload's checked cycle. `rel_err_median` and `ci_coverage` cover
/// SUM/COUNT/AVG (the CLT aggregates the paper's §5.1.2 reports);
/// MIN/MAX answers are checked through their hard bounds.
#[derive(Debug, Default)]
pub struct Checker {
    rel_errs: Vec<f64>,
    ci_checked: u64,
    ci_covered: u64,
    /// Failures seen so far.
    pub failures: Failures,
}

impl Checker {
    /// Check one answer against the truth for its query (`None` = not in
    /// the truth-checked subset, or an empty selection with no defined
    /// answer); an `Err` answer is a failure either way.
    pub fn check<E>(&mut self, agg: AggKind, answer: &Result<Estimate, E>, truth: Option<f64>) {
        let Ok(est) = answer else {
            self.failures.err += 1;
            return;
        };
        let Some(truth) = truth else { return };
        // Relative slack for summation order: the engine's Kahan-summed
        // node aggregates and the oracle's prefix sums differ in the
        // last bits.
        let tol = 1e-9 * truth.abs().max(1.0);
        if let Some((lo, hi)) = est.hard_bounds {
            if truth < lo - tol || truth > hi + tol {
                self.failures.bounds += 1;
            }
        }
        if matches!(agg, AggKind::Sum | AggKind::Count | AggKind::Avg) {
            self.rel_errs.push(est.relative_error(truth));
            self.ci_checked += 1;
            if (est.value - truth).abs() <= est.ci_half + tol {
                self.ci_covered += 1;
            }
        }
    }

    /// Median |est − truth| / |truth| over the checked CLT answers.
    pub fn rel_err_median(&self) -> f64 {
        crate::stats::median(&self.rel_errs).unwrap_or(f64::NAN)
    }

    /// Share of checked CLT answers whose `value ± ci_half` holds the
    /// truth.
    pub fn ci_coverage(&self) -> f64 {
        self.ci_covered as f64 / self.ci_checked.max(1) as f64
    }

    /// Answers that went into `rel_err_median` / `ci_coverage`.
    pub fn checked(&self) -> u64 {
        self.ci_checked
    }
}

/// Everything one workload's end-to-end run produced.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// `(metric, unit, summary, exact)` rows in print order; `exact`
    /// marks values that must repeat bit-for-bit under one seed.
    pub metrics: Vec<(&'static str, &'static str, Summary, bool)>,
    /// Deterministic counts from the checked cycle (asserted identical
    /// across same-seed runs for the single-threaded workloads).
    pub counts: Vec<(&'static str, u64)>,
    /// Whether `counts` repeat exactly (false for `dashboard_serve`,
    /// whose cache and batch counts depend on batch composition).
    pub counts_exact: bool,
    /// Operations attempted over checked cycle and timed passes.
    pub attempted: u64,
    /// Failures by kind.
    pub failures: Failures,
    /// Sizes that define the workload, for the `env` block.
    pub sizes: Vec<(&'static str, f64)>,
}

impl WorkloadResult {
    /// The nine end-to-end rows shared by all workloads, assembled from
    /// the pieces each workload measures.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        name: &'static str,
        setup_s: Summary,
        timing: &Timing,
        checker: &Checker,
        storage_bytes: usize,
        checked_ops: u64,
        counts: Vec<(&'static str, u64)>,
        counts_exact: bool,
        sizes: Vec<(&'static str, f64)>,
    ) -> WorkloadResult {
        let failures = checker.failures;
        let attempted = checked_ops + timing.ops;
        let n = checker.checked() as usize;
        let mut metrics = vec![
            ("setup_s", "s", setup_s, false),
            ("throughput_ops_s", "ops/s", timing.throughput_ops_s, false),
            ("latency_p50_us", "us", timing.latency_p50_us, false),
            ("latency_p90_us", "us", timing.latency_p90_us, false),
        ];
        if let Some(update) = timing.update_p50_us {
            metrics.push(("update_p50_us", "us", update, false));
        }
        metrics.extend([
            (
                "rel_err_median",
                "ratio",
                Summary::exact(checker.rel_err_median(), n),
                true,
            ),
            (
                "ci_coverage",
                "ratio",
                Summary::exact(checker.ci_coverage(), n),
                true,
            ),
            (
                "storage_bytes",
                "bytes",
                Summary::exact(storage_bytes as f64, 1),
                true,
            ),
            (
                "failed_frac",
                "ratio",
                Summary::exact(
                    failures.total() as f64 / attempted.max(1) as f64,
                    attempted as usize,
                ),
                true,
            ),
            ("latency_p99_us", "us", timing.latency_p99_us, false),
        ]);
        WorkloadResult {
            name,
            metrics,
            counts,
            counts_exact,
            attempted,
            failures,
            sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose ops take a known, scripted time.
    struct Scripted(u64);

    impl Workload for Scripted {
        fn block(&mut self) -> u64 {
            std::thread::sleep(Duration::from_millis(1));
            self.0 += 10;
            10
        }
        fn block_timed(&mut self, lat: &mut Latencies) -> u64 {
            for i in 0..10u32 {
                lat.ops.push(1_000 * (i + 1));
            }
            lat.updates.push(8_000);
            std::thread::sleep(Duration::from_millis(1));
            10
        }
        fn block_traced(&mut self, rec: &mut Recorder) -> u64 {
            let name = rec.name("op");
            let id = rec.enter(name, 0);
            let ops = self.block();
            rec.exit(id);
            ops
        }
    }

    #[test]
    fn passes_cut_into_segments_and_report_segment_summaries() {
        let mut w = Scripted(0);
        let t = timed_passes(&mut w, 0.2);
        assert_eq!(t.throughput_ops_s.n, 5);
        assert_eq!(t.latency_p50_us.n, 5);
        // ≤ 10 ops per ≥ 1 ms block.
        assert!(t.throughput_ops_s.value <= 10_000.0);
        assert!(t.throughput_ops_s.value >= t.throughput_ops_s.median);
        assert!(t.throughput_ops_s.median > 1_000.0);
        // Latencies are 1..=10 µs repeated: p50 = 5, p90 = 9, p99 = 10.
        assert_eq!(t.latency_p50_us.value, 5.0);
        assert_eq!(t.latency_p90_us.value, 9.0);
        assert_eq!(t.latency_p99_us.value, 10.0);
        assert_eq!(t.update_p50_us.unwrap().value, 8.0);
        assert!(t.ops > w.0);
    }

    #[test]
    fn checker_counts_bounds_coverage_and_errors() {
        let mut c = Checker::default();
        let exact = Estimate::exact(10.0).with_hard_bounds(10.0, 10.0);
        c.check::<()>(AggKind::Sum, &Ok(exact), Some(10.0 + 1e-12));
        let off: Result<Estimate, ()> =
            Ok(Estimate::approximate(12.0, 1.0).with_hard_bounds(11.0, 13.0));
        c.check(AggKind::Sum, &off, Some(10.0));
        c.check(AggKind::Max, &off, Some(12.5));
        c.check(AggKind::Sum, &Err(()), Some(1.0));
        c.check(AggKind::Sum, &off, None);
        assert_eq!(c.failures.bounds, 1);
        assert_eq!(c.failures.err, 1);
        assert_eq!(c.checked(), 2);
        assert_eq!(c.ci_coverage(), 0.5);
        assert!((c.rel_err_median() - 0.1).abs() < 1e-9);
    }
}
