//! Allocation-free, column-at-a-time scan kernels for the φ-estimators.
//!
//! [`estimator::estimate`](crate::estimator::estimate) materializes a φ
//! vector per query — readable, and kept verbatim as the reference
//! implementation the contract tests pin against — but on the serving hot
//! path the per-query `Vec` and the branchy row-at-a-time
//! `rows.matches(rect, i)` dominate. [`ScanScratch`] answers the same
//! question with reusable buffers:
//!
//! 1. **Keep lanes** — one 64-bit lane per row and rectangle, all-ones
//!    if the row matches and `0` if not, from branch-free
//!    `(lo <= x) & (x <= hi)` tests. Both compares always run (a
//!    short-circuit `&&` is a branch per row), so the tests vectorize; a
//!    NaN cell fails both and never matches. One row-major pass serves all
//!    [`GROUP`] rectangles of a pass (point 4): a row's cells are tested
//!    against every lane's intervals and AND-ed in registers, the row's
//!    lanes are stored once, and each lane's `K_pred` is counted in the
//!    same loop. [`ScanScratch::match_mask`] runs the same tests one column
//!    at a time into a byte mask, for the baselines' own scans.
//! 2. **φ, then the reference's additions** — the reference writes
//!    `φ = scale · v` for a matched row and the literal `+0.0` for an
//!    unmatched one. Each of the kernel's two moment loops forms φ itself,
//!    with no buffer, as `scale · f64::from_bits(x.to_bits() & keep)`: the
//!    mask is applied to the operand *before* the multiply. A matched row
//!    multiplies the reference's two operands. An unmatched row multiplies
//!    `scale` by `+0.0`, which is exactly the reference's `+0.0`, because
//!    `scale` is finite and `>= +0` (`N`, or `K / K_pred` with
//!    `K_pred > 0`). A lane with `K_pred = 0` (scale `K / 0 = ∞`, so its
//!    unmatched rows give NaN) is discarded to the no-match answer. And an
//!    unmatched `inf` or NaN never reaches the multiply at all, so
//!    `0 · ∞` cannot happen anywhere.
//!
//!    Every float addition happens in the same order with the same addends
//!    as the materialized-φ reference, so its `Σφ` and sum of squared
//!    deviations are **bit-identical** by construction, and every path
//!    hands them, as the reference does, to [`PointVariance::from_phi`] —
//!    the one interval policy, no-match answers included.
//! 3. **1-D fast path** — samples whose single predicate column is
//!    non-decreasing (every builder-produced 1-D stratum sample, see
//!    [`Sample::sorted_1d`]) resolve the match range as one index range:
//!    each query bound is first compared with the stratum's first or last
//!    key, and only an end the bound falls inside is binary-searched (MCF
//!    hands the scan partial leaves, which a query usually cuts on one
//!    side only). The value sum and the Neumaier mean read only the
//!    matched rows, in one loop as two independent chains. Skipping an
//!    unmatched row skips a literal `+0.0` addend, which is exact
//!    except for signed-zero bookkeeping: `x + 0.0 == x` for every `x`
//!    but `-0.0`, where it flushes to `+0.0`. The plain value sum seeds
//!    at `-0.0` (as `Iterator::sum::<f64>` does) and models the flush
//!    explicitly — see `moments_range` — while a Kahan accumulator
//!    seeded at `+0.0` can never reach `-0.0` (a zero result of `x + y`
//!    rounds to `+0.0` unless both operands are `-0.0`), so for it
//!    adding `±0.0` is a genuine state no-op. The sum-of-squares pass
//!    stays O(k) — unmatched rows contribute `(0 − m)²` — but adds the
//!    constant term branch-free.
//! 4. **Lockstep groups** — every d-dimensional scan answers [`GROUP`]
//!    (four) queries per pass over a stratum: a batch through
//!    [`ScanScratch::estimate_batch`] (one sample) or
//!    [`ScanScratch::estimate_group`] (one arena view a window of PASS
//!    queries shares as a partial leaf), and a single query through
//!    [`ScanScratch::estimate`] or [`ScanScratch::estimate_view`] in lane
//!    0, its spare lanes asking for an empty box, as a PASS window's short
//!    groups do (`estimate_batch`'s repeat its last query). That single-query
//!    branch is out of line: inlined into the entry points it bloats the
//!    sorted-1-D dispatch enough that the 1-D hot path loses throughput to
//!    code layout alone. A pass makes three sweeps over the stratum's rows.
//!    The predicate pass (point 1) is unrolled over the dimension count for
//!    one to three dimensions, and a wider rectangle folds in three
//!    dimensions per pass. Then each of the two moment loops forms every
//!    lane's φ from a row's lanes and value (point 2) and adds it to that
//!    lane's sums, one row at a time, each lane performing exactly the
//!    reference's additions in their order. One lane's moment loops are one
//!    Neumaier dependency chain each, an add retiring every ~4 cycles with
//!    nothing beside it, and that — not the column reads — is most of a
//!    short stratum's cost; four lanes are four independent chains in one
//!    loop, and eight measured no faster. For the lanes to share one
//!    instruction stream the Neumaier `|sum| >= |value|` test is written
//!    as a select of the finished compensation term — lanes whose tests
//!    disagree cannot branch apart — and it is again a *select*: the arm
//!    taken contributes its own arithmetic, bit for bit. A lane nothing
//!    matched (its AVG scale is `K / 0`) runs along and is discarded to
//!    the no-match answer, and so are a single query's spare lanes, which
//!    match nothing and so scan no rows for MIN/MAX. A plain loop, inlined
//!    into both builds, forms each lane's answer.
//!
//!    **Two builds, chosen at run time.** The group kernel's body
//!    (`group_lanes_body`, always inlined together with `group_pass` and
//!    `group_moments`) is compiled twice: `group_lanes_portable` for the
//!    target's baseline ISA — SSE2 pairs on `x86_64` — and, on `x86_64`,
//!    `group_lanes_avx2` under `#[target_feature(enable = "avx2")]`, which
//!    tests a row's four lanes with one 256-bit compare per bound, forms
//!    their φ with one 256-bit mask and multiply (a COUNT lane's `x = 1`
//!    is chosen by mask bits, so no lane branches) and advances the four
//!    Neumaier chains with 256-bit adds. `group_lanes` calls the AVX2
//!    build when `is_x86_feature_detected!("avx2")`, which `std` caches
//!    after the first query, reports AVX2; that call is the workspace's
//!    one `unsafe`, fenced by `pass-lint` rule 10. The choice cannot move a
//!    bit: every lane operation is an IEEE-754 basic operation (add, sub,
//!    mul, div, compare) or a bitwise select, correctly rounded whatever
//!    the vector width, and rustc never contracts `a·b + c` into a fused
//!    multiply-add. `tests/kernel_contract.rs` holds both builds to the
//!    reference (`estimate_group_portable` reaches the portable one on any
//!    CPU).
//!
//! The `pass-lint` workspace pass flags heap allocation in this module
//! (`kernel-no-alloc`): the only sanctioned allocations are the
//! `// alloc:`-justified scratch constructions and amortized buffer
//! growth via `resize`/`extend` on the long-lived buffers.

use std::cell::RefCell;

use pass_common::kahan::KahanSum;
use pass_common::{AggKind, Estimate, Query, Rect, LAMBDA_99};

use crate::sample::Sample;

/// The estimator state every sampling engine answers from: a point
/// estimate, the variance *of the estimator* (λ-free), and the number of
/// sampled tuples behind it.
///
/// A kernel scan yields one per stratum ([`from_phi`](Self::from_phi)),
/// [`combine_strata`](crate::combine_strata) folds strata into one, and
/// [`evaluate`](Self::evaluate) turns it into an [`Estimate`]. Each of the
/// three is the only library code that computes its formula.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PointVariance {
    pub value: f64,
    /// Variance of the estimator; [`evaluate`](Self::evaluate) scales its
    /// square root by λ.
    pub variance: f64,
    /// Number of sampled tuples satisfying the predicate (`K_pred`).
    pub k_pred: u64,
}

impl PointVariance {
    /// The interval policy: what one stratum's φ sums answer for `agg`
    /// (SUM, COUNT or AVG) over a `k`-row sample of a stratum of
    /// `population` rows, `k_pred` of whose rows match. With no match,
    /// SUM and COUNT estimate `0 ± 0` and anything else is undefined.
    /// Otherwise the value is the φ-mean `phi_sum / K` and the variance is
    /// φ's plug-in population variance `(sum_sq_dev / K).max(0)` over K
    /// (Equation 4), scaled by footnote 1's finite-population correction.
    /// At K = 1 that variance is `+0.0`: `sum_sq_dev` is `+0.0` or NaN,
    /// and `NaN.max(0.0)` is `0.0`. Every φ path — the kernels, the
    /// reference estimator and AQP++'s gap — answers through here.
    #[inline]
    pub fn from_phi(
        agg: AggKind,
        k: usize,
        k_pred: u64,
        population: u64,
        phi_sum: f64,
        sum_sq_dev: f64,
    ) -> Option<Self> {
        if k_pred == 0 {
            return matches!(agg, AggKind::Sum | AggKind::Count).then(Self::default);
        }
        let kf = k as f64;
        Some(PointVariance {
            value: phi_sum / kf,
            variance: (sum_sq_dev / kf).max(0.0) / kf * fpc(population, k),
            k_pred,
        })
    }

    /// The answer this state gives for `agg`: `value` with the CI
    /// half-width `λ · √variance` at the paper's λ = 2.576 (99 %), or a
    /// zero half-width for MIN/MAX, which have no CLT interval. The one
    /// place λ is applied. Whether the answer is `exact`, its hard bounds
    /// and its accounting stay with the caller.
    #[inline]
    pub fn evaluate(&self, agg: AggKind) -> Estimate {
        let ci_half = match agg {
            AggKind::Min | AggKind::Max => 0.0,
            _ => LAMBDA_99 * self.variance.sqrt(),
        };
        Estimate::approximate(self.value, ci_half)
    }
}

/// Footnote 1's finite-population correction `(N − K) / (N − 1)` for a
/// without-replacement sample of `k` of `population` rows; 0 when
/// `population <= 1`. Private to [`PointVariance::from_phi`].
fn fpc(population: u64, k: usize) -> f64 {
    if population <= 1 {
        return 0.0;
    }
    let n = population as f64;
    let k = (k as f64).min(n);
    ((n - k) / (n - 1.0)).max(0.0)
}

/// Queries one pass of the lockstep group kernel answers. Four `f64`
/// accumulator chains fill two SSE2 register pairs, or one AVX2 register,
/// and overlap each other's add latency. Eight measured slower under
/// AVX2 on a 2-vCPU Xeon: 0.95× `batch_md` throughput with the column
/// passes and φ buffer the fused kernel replaced, and 0.89× (six pairs,
/// behind in all six) with the fused kernel.
pub const GROUP: usize = 4;

/// A borrowed, contiguous view of one stratum's sample rows: the value
/// column, the predicate columns (column-major, dimension `d` at
/// `preds[d * k..][..k]`), and the population/sortedness metadata the
/// estimators need.
///
/// This is the kernels' native input shape. A [`Sample`] yields one
/// directly in 1-D (its single predicate column is already contiguous);
/// the query hot path hands out views over a flat multi-leaf arena
/// (`pass-core`'s `SampleArena`) so scanning a partial leaf touches one
/// cache-resident allocation instead of chasing per-`Sample` heap
/// pointers. The estimators read identical bytes either way, so results
/// are bit-identical across sources.
#[derive(Debug, Clone, Copy)]
pub struct SampleView<'a> {
    /// Aggregation values, length `k`.
    pub values: &'a [f64],
    /// Predicate columns, column-major: `preds[d * k..][..k]`.
    pub preds: &'a [f64],
    /// Predicate dimensionality.
    pub dims: usize,
    /// Population size `N` the sample represents.
    pub population: u64,
    /// Non-decreasing single predicate column (fast-path eligibility).
    pub sorted_1d: bool,
}

impl<'a> SampleView<'a> {
    /// Sample size `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.values.len()
    }

    /// The contiguous predicate column for dimension `d`.
    #[inline]
    pub fn pred_col(&self, d: usize) -> &'a [f64] {
        let k = self.values.len();
        &self.preds[d * k..(d + 1) * k]
    }
}

/// The 1-D view of a sample — its single predicate column is contiguous
/// in the backing [`Table`](pass_table::Table), so no copy happens.
#[inline]
fn view_1d(sample: &Sample) -> SampleView<'_> {
    debug_assert_eq!(sample.rows().dims(), 1);
    SampleView {
        values: sample.rows().values(),
        preds: sample.rows().predicate_column(0),
        dims: 1,
        population: sample.population(),
        sorted_1d: sample.sorted_1d(),
    }
}

/// Reusable buffers for the scan kernels. Construct once per worker (or
/// borrow the thread-local via [`with_scratch`]) and reuse across
/// queries; no per-query allocation happens after the buffers reach the
/// sample size high-water mark. Nothing a previous call left behind is
/// ever read: [`match_mask`](Self::match_mask) resizes its mask to the
/// current `k`, and the group kernel grows `keep` to `k` × [`GROUP`] only
/// when it is shorter, its first predicate pass writing every lane of
/// that prefix before anything reads one.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Byte match vector handed out by [`match_mask`](Self::match_mask).
    mask: Vec<u8>,
    /// Keep lanes, [`GROUP`] `u64`s (all-ones / `0`) side by side per
    /// sampled row.
    keep: Vec<u64>,
}

impl ScanScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kernel equivalent of [`estimate`](crate::estimator::estimate):
    /// same `Option` contract, same value/variance/k_pred bits.
    pub fn estimate(
        &mut self,
        agg: AggKind,
        sample: &Sample,
        rect: &Rect,
    ) -> Option<PointVariance> {
        if sample.sorted_1d() {
            return estimate_sorted_1d(agg, &view_1d(sample), rect);
        }
        self.estimate_unsorted(agg, sample, rect)
    }

    /// [`estimate`](Self::estimate) over a borrowed [`SampleView`] — the
    /// flat-arena entry point the query hot path uses. Bit-identical to
    /// the `Sample`-based path on the same rows (shared estimators).
    pub fn estimate_view(
        &mut self,
        agg: AggKind,
        view: &SampleView<'_>,
        rect: &Rect,
    ) -> Option<PointVariance> {
        if view.sorted_1d {
            return estimate_sorted_1d(agg, view, rect);
        }
        debug_assert_eq!(rect.dims(), view.dims);
        self.estimate_lanes(agg, view.values, view.population, rect, |d| {
            view.pred_col(d)
        })
    }

    /// The d-dimensional kernel unconditionally — bypasses the 1-D sorted
    /// fast path. Exposed so the contract tests can pin the fast path against
    /// the d-dimensional path on the same sample; engines should call
    /// [`estimate`](Self::estimate).
    #[doc(hidden)]
    pub fn estimate_unsorted(
        &mut self,
        agg: AggKind,
        sample: &Sample,
        rect: &Rect,
    ) -> Option<PointVariance> {
        let rows = sample.rows();
        debug_assert_eq!(rect.dims(), rows.dims());
        self.estimate_lanes(agg, rows.values(), sample.population(), rect, |d| {
            rows.predicate_column(d)
        })
    }

    /// The d-dimensional path for one query: the group kernel with the
    /// query in lane 0, read from lane 0. The spare lanes ask for a box
    /// no cell falls in (`lo = +∞`, `hi = −∞`), so they match nothing and
    /// cost no MIN/MAX scan of their own. Kept out of line so the
    /// sorted-1-D dispatch in the public entry points stays a few
    /// instructions — inlined here, the 1-D hot path measurably slows
    /// from code layout alone.
    #[inline(never)]
    fn estimate_lanes<'c>(
        &mut self,
        agg: AggKind,
        values: &[f64],
        population: u64,
        rect: &Rect,
        col: impl Fn(usize) -> &'c [f64],
    ) -> Option<PointVariance> {
        let bound = |l, d| match l {
            0 => (rect.lo(d), rect.hi(d)),
            _ => (f64::INFINITY, f64::NEG_INFINITY),
        };
        let [point, ..] =
            self.group_lanes([agg; GROUP], values, population, rect.dims(), col, bound);
        point
    }

    /// [`GROUP`] queries over one stratum in one pass — what a batch whose
    /// queries share a partial leaf calls instead of [`GROUP`]
    /// [`estimate_view`](Self::estimate_view)s. Lane `l` asks `aggs[l]`
    /// over the rectangle `bounds[l]` (one inclusive `(lo, hi)` pair per
    /// dimension) and gets exactly the bits `estimate_view` returns for
    /// it; a caller with fewer than [`GROUP`] queries left asks for the
    /// empty box (`lo = +∞`, `hi = −∞`) in the spare lanes. Always the
    /// d-dimensional path, like [`estimate_unsorted`](Self::estimate_unsorted):
    /// a sorted 1-D view is answered correctly, without its binary search.
    pub fn estimate_group(
        &mut self,
        view: &SampleView<'_>,
        aggs: [AggKind; GROUP],
        bounds: [&[(f64, f64)]; GROUP],
    ) -> [Option<PointVariance>; GROUP] {
        debug_assert!(bounds.iter().all(|b| b.len() == view.dims));
        let (col, bound) = (|d| view.pred_col(d), |l: usize, d: usize| bounds[l][d]);
        self.group_lanes(aggs, view.values, view.population, view.dims, col, bound)
    }

    /// Answer every query in `queries` over one sample, [`GROUP`] at a
    /// time through the lockstep kernel: each group reads every predicate
    /// column once and advances its queries' accumulators side by side.
    /// Results are element-wise bit-identical to
    /// [`estimate`](Self::estimate); the last group fills its spare lanes
    /// with its own last query.
    ///
    /// `out` is cleared and refilled, one entry per query, in order.
    /// Every query must have the sample's arity.
    pub fn estimate_batch(
        &mut self,
        sample: &Sample,
        queries: &[Query],
        out: &mut Vec<Option<PointVariance>>,
    ) {
        out.clear();
        if sample.sorted_1d() {
            let view = view_1d(sample);
            out.extend(
                queries
                    .iter()
                    .map(|q| estimate_sorted_1d(q.agg, &view, &q.rect)),
            );
            return;
        }
        let rows = sample.rows();
        for group in queries.chunks(GROUP) {
            let lane = |l: usize| &group[l.min(group.len() - 1)];
            let points = self.group_lanes(
                std::array::from_fn(|l| lane(l).agg),
                rows.values(),
                sample.population(),
                rows.dims(),
                |d| rows.predicate_column(d),
                |l, d| (lane(l).rect.lo(d), lane(l).rect.hi(d)),
            );
            out.extend_from_slice(&points[..group.len()]);
        }
    }

    /// [`estimate_group`](Self::estimate_group) through the portable
    /// build of the group kernel, whatever the CPU offers. Exposed so the
    /// contract tests can pin both builds against the reference; engines
    /// should call `estimate_group`.
    #[doc(hidden)]
    pub fn estimate_group_portable(
        &mut self,
        view: &SampleView<'_>,
        aggs: [AggKind; GROUP],
        bounds: [&[(f64, f64)]; GROUP],
    ) -> [Option<PointVariance>; GROUP] {
        debug_assert!(bounds.iter().all(|b| b.len() == view.dims));
        let (col, bound) = (|d| view.pred_col(d), |l: usize, d: usize| bounds[l][d]);
        self.group_lanes_portable(aggs, view.values, view.population, view.dims, col, bound)
    }

    /// The lockstep group kernel (module docs, point 4): keep lanes and
    /// `K_pred` for all [`GROUP`] rectangles from one row-major pass, then
    /// every lane's moments side by side. `col(d)` is the stratum's
    /// predicate column `d`, `bound(l, d)` lane `l`'s inclusive interval
    /// in that dimension. Runs the AVX2 build when the CPU has AVX2 and
    /// the portable build otherwise; both compile
    /// [`group_lanes_body`](Self::group_lanes_body).
    #[allow(unsafe_code)]
    fn group_lanes<'c>(
        &mut self,
        aggs: [AggKind; GROUP],
        values: &[f64],
        population: u64,
        dims: usize,
        col: impl Fn(usize) -> &'c [f64],
        bound: impl Fn(usize, usize) -> (f64, f64),
    ) -> [Option<PointVariance>; GROUP] {
        // `std` caches the CPUID answer in a static: after the first call
        // the test is one atomic load and a bit test.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `group_lanes_avx2` only requires AVX2, and
            // `is_x86_feature_detected!("avx2")` just confirmed at run
            // time that this CPU has it.
            return unsafe { self.group_lanes_avx2(aggs, values, population, dims, col, bound) };
        }
        self.group_lanes_portable(aggs, values, population, dims, col, bound)
    }

    /// [`group_lanes_body`](Self::group_lanes_body) for the compilation
    /// target's baseline ISA (SSE2 pairs on `x86_64`). Out of line for the
    /// same reason as [`estimate_lanes`](Self::estimate_lanes).
    #[inline(never)]
    fn group_lanes_portable<'c>(
        &mut self,
        aggs: [AggKind; GROUP],
        values: &[f64],
        population: u64,
        dims: usize,
        col: impl Fn(usize) -> &'c [f64],
        bound: impl Fn(usize, usize) -> (f64, f64),
    ) -> [Option<PointVariance>; GROUP] {
        self.group_lanes_body(aggs, values, population, dims, col, bound)
    }

    /// [`group_lanes_body`](Self::group_lanes_body) compiled with AVX2
    /// enabled: four lanes per 256-bit compare and add.
    ///
    /// # Safety
    ///
    /// Call it only on a CPU that has AVX2: code not itself compiled for
    /// AVX2 must make the call in an `unsafe` block after checking.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    fn group_lanes_avx2<'c>(
        &mut self,
        aggs: [AggKind; GROUP],
        values: &[f64],
        population: u64,
        dims: usize,
        col: impl Fn(usize) -> &'c [f64],
        bound: impl Fn(usize, usize) -> (f64, f64),
    ) -> [Option<PointVariance>; GROUP] {
        self.group_lanes_body(aggs, values, population, dims, col, bound)
    }

    /// The body of the lockstep group kernel, instantiated once per build
    /// ([`group_lanes`](Self::group_lanes) picks one). Always inlined, like
    /// [`group_pass`] and [`group_moments`], so each build compiles every
    /// loop for its own ISA; module docs, point 4, say why the builds give
    /// the same bits.
    #[inline(always)]
    fn group_lanes_body<'c>(
        &mut self,
        aggs: [AggKind; GROUP],
        values: &[f64],
        population: u64,
        dims: usize,
        col: impl Fn(usize) -> &'c [f64],
        bound: impl Fn(usize, usize) -> (f64, f64),
    ) -> [Option<PointVariance>; GROUP] {
        // The first pass writes every lane of `keep[..len]` before anything
        // reads it, so the buffer only has to be long enough.
        let len = values.len() * GROUP;
        if self.keep.len() < len {
            self.keep.resize(len, 0);
        }
        let (keep, _) = self.keep[..len].as_chunks_mut::<GROUP>();
        // Up to three dimensions per pass over the rows; a wider rectangle
        // ANDs its later chunks into the lanes the earlier ones left, and
        // the last pass's count is `K_pred`.
        let mut k_pred = [0u64; GROUP];
        for from in (0..dims).step_by(3) {
            k_pred = match dims - from {
                1 => group_pass::<1>(from, &col, &bound, keep),
                2 => group_pass::<2>(from, &col, &bound, keep),
                _ => group_pass::<3>(from, &col, &bound, keep),
            };
        }
        let sampled = |l: usize| k_pred[l] > 0 && AggKind::SAMPLED.contains(&aggs[l]);
        let sums = if (0..GROUP).any(sampled) {
            group_moments(aggs, values, population, keep, k_pred)
        } else {
            [(0.0, 0.0); GROUP]
        };
        // Not `array::from_fn`: under AVX2 that was four calls out of line.
        let mut points = [None; GROUP];
        for (l, point) in points.iter_mut().enumerate() {
            *point = match aggs[l] {
                agg @ (AggKind::Min | AggKind::Max) if k_pred[l] > 0 => {
                    let matched = keep.iter().zip(values).filter(|(lanes, _)| lanes[l] != 0);
                    minmax(agg, k_pred[l], matched.map(|(_, &v)| v))
                }
                agg => {
                    let (sum, ss) = sums[l];
                    PointVariance::from_phi(agg, values.len(), k_pred[l], population, sum, ss)
                }
            };
        }
        points
    }

    /// Build the match bitmask for `rect` over arbitrary predicate
    /// columns and return it — the column-at-a-time predicate pass for
    /// engines whose row storage is not a [`Sample`] (VerdictDB scrambles,
    /// AQP++ gap scans). `col(d)` must return the contiguous column for
    /// dimension `d`, each of length `k`. A caller that then walks rows in
    /// index order testing `mask[i] != 0` reproduces a row-at-a-time
    /// `matches` loop exactly, so accumulation order (and therefore every
    /// bit of the result) is unchanged.
    pub fn match_mask<'c, F>(&mut self, k: usize, rect: &Rect, col: F) -> &[u8]
    where
        F: Fn(usize) -> &'c [f64],
    {
        fill_mask(k, rect, col, &mut self.mask);
        &self.mask
    }
}

/// Borrow a thread-local [`ScanScratch`] — the reuse vehicle for
/// single-query engine paths behind `&self`.
pub fn with_scratch<R>(f: impl FnOnce(&mut ScanScratch) -> R) -> R {
    thread_local! {
        // alloc: one scratch per thread, constructed empty on first use.
        static SCRATCH: RefCell<ScanScratch> = RefCell::new(ScanScratch::new());
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The keep lane of a row that matched (`hit`) or did not: all-ones or
/// `0`, so one `AND` selects a φ value.
#[inline(always)]
fn keep_lane(hit: bool) -> u64 {
    u64::from(hit).wrapping_neg()
}

/// Build the `k` byte match flags (`1`/`0`) for `rect`, one predicate
/// column at a time: the first column writes them, later columns AND into
/// them. `col(d)` returns the contiguous column for dimension `d`. Both
/// compares always run (`&`, not `&&`): a short-circuit is a branch per
/// row and blocks vectorization. A NaN cell fails both compares.
fn fill_mask<'c>(k: usize, rect: &Rect, col: impl Fn(usize) -> &'c [f64], mask: &mut Vec<u8>) {
    mask.clear();
    mask.resize(k, 0);
    for d in 0..rect.dims() {
        let (lo, hi) = (rect.lo(d), rect.hi(d));
        let hits = col(d).iter().map(|&x| u8::from((lo <= x) & (x <= hi)));
        if d == 0 {
            mask.iter_mut().zip(hits).for_each(|(m, hit)| *m = hit);
        } else {
            mask.iter_mut().zip(hits).for_each(|(m, hit)| *m &= hit);
        }
    }
}

/// The predicate pass for [`GROUP`] rectangles and `D` dimensions at
/// once, row by row. A row's cells in dimensions `from..from + D` are
/// tested against all [`GROUP`] intervals and AND-ed in registers into the
/// row's keep lanes (all-ones / `0`, side by side), which are stored once;
/// the pass from dimension 0 writes them fresh, a later one ANDs into the
/// stored lanes. Both compares always run, as in [`fill_mask`]. Returns
/// each lane's match count.
#[inline(always)]
fn group_pass<'c, const D: usize>(
    from: usize,
    col: &impl Fn(usize) -> &'c [f64],
    bound: &impl Fn(usize, usize) -> (f64, f64),
    keep: &mut [[u64; GROUP]],
) -> [u64; GROUP] {
    let cols: [&[f64]; D] = std::array::from_fn(|j| &col(from + j)[..keep.len()]);
    let pairs: [[(f64, f64); GROUP]; D] =
        std::array::from_fn(|j| std::array::from_fn(|l| bound(l, from + j)));
    let hit = |x: f64, (lo, hi): (f64, f64)| keep_lane((lo <= x) & (x <= hi));
    let first = from == 0;
    let mut k_pred = [0u64; GROUP];
    for (i, lanes) in keep.iter_mut().enumerate() {
        let mut row = if first { [u64::MAX; GROUP] } else { *lanes };
        for (c, pairs) in cols.iter().zip(&pairs) {
            let x = c[i];
            for (lane, &pair) in row.iter_mut().zip(pairs) {
                *lane &= hit(x, pair);
            }
        }
        *lanes = row;
        for (n, lane) in k_pred.iter_mut().zip(row) {
            *n += lane & 1;
        }
    }
    k_pred
}

/// The reference fold (`estimate_minmax`) over the `k_pred` matched
/// values, in index order.
fn minmax(agg: AggKind, k_pred: u64, matched: impl Iterator<Item = f64>) -> Option<PointVariance> {
    let extremum = |best: f64, v: f64| match agg {
        AggKind::Min => best.min(v),
        _ => best.max(v),
    };
    matched.reduce(extremum).map(|value| PointVariance {
        value,
        variance: 0.0,
        k_pred,
    })
}

/// One [`KahanSum::add`] step on a `(sum, compensation)` pair, the
/// `|sum| >= |value|` branch written as a select of the finished term:
/// the arithmetic of the arm taken is `add`'s own, and accumulators
/// whose comparisons disagree still advance in one instruction stream.
#[inline(always)]
fn neumaier_add(acc: &mut (f64, f64), value: f64) {
    let (sum, compensation) = *acc;
    let t = sum + value;
    let lost = if sum.abs() >= value.abs() {
        (sum - t) + value
    } else {
        (value - t) + sum
    };
    *acc = (t, compensation + lost);
}

/// The reference's sums for [`GROUP`] lanes in lockstep — `Σφ` as a plain
/// sequential sum and the sum of squared deviations about its own
/// Neumaier mean — with no φ buffer. One sweep adds each row to every
/// lane's plain sum and Neumaier mean, a second adds the squared
/// deviations, and each forms a row's φ itself as
/// `c · from_bits(x.to_bits() & keep)` — `c = N`, `x = 1` for COUNT;
/// `c = N`, `x = value` for SUM; `c = K / K_pred` for AVG — which is the
/// reference's φ bit for bit (module docs, point 2). Each lane performs
/// exactly the reference's additions in its order; one loop carries
/// [`GROUP`] independent dependency chains. Returns each lane's
/// `(Σφ, ss)`; a lane nothing matched (`c = K / 0`) or a MIN/MAX lane runs
/// along and its sums are never read.
#[inline(always)]
fn group_moments(
    aggs: [AggKind; GROUP],
    values: &[f64],
    population: u64,
    keep: &[[u64; GROUP]],
    k_pred: [u64; GROUP],
) -> [(f64, f64); GROUP] {
    let (n, kf) = (population as f64, values.len() as f64);
    let count = aggs.map(|agg| keep_lane(agg == AggKind::Count));
    let scale: [f64; GROUP] = std::array::from_fn(|l| match aggs[l] {
        AggKind::Avg => kf / k_pred[l] as f64,
        _ => n,
    });
    // A row's φ in every lane, branch-free: a COUNT lane's `x = 1` is
    // chosen by mask bits, and a rejected row's `x` is masked to `+0.0`
    // before the multiply (module docs, point 2).
    let phi = |lanes: &[u64; GROUP], v: f64| -> [f64; GROUP] {
        std::array::from_fn(|l| {
            let x = (v.to_bits() & !count[l]) | (1.0f64.to_bits() & count[l]);
            scale[l] * f64::from_bits(x & lanes[l])
        })
    };
    // Seeded like the reference: the plain sum at `-0.0` (as
    // `Iterator::sum::<f64>` folds), Neumaier at `+0.0`.
    let mut sum = [-0.0f64; GROUP];
    let mut mean_acc = [(0.0f64, 0.0f64); GROUP];
    for (lanes, &v) in keep.iter().zip(values) {
        let row = phi(lanes, v);
        for l in 0..GROUP {
            sum[l] += row[l];
            neumaier_add(&mut mean_acc[l], row[l]);
        }
    }
    let mean = mean_acc.map(|(sum, compensation)| (sum + compensation) / kf);
    let mut ss = [(0.0f64, 0.0f64); GROUP];
    for (lanes, &v) in keep.iter().zip(values) {
        let row = phi(lanes, v);
        for l in 0..GROUP {
            let d = row[l] - mean[l];
            neumaier_add(&mut ss[l], d * d);
        }
    }
    std::array::from_fn(|l| (sum[l], ss[l].0 + ss[l].1))
}

/// The sorted-column fast path for 1-D samples: the match set of
/// `lo <= x <= hi` over a non-decreasing column is the contiguous index
/// range `[a, b)`, each end found by one compare with the column's end
/// key or, when the bound falls inside, by binary search. The value and
/// mean pass touches only that range
/// (exact — see the module docs' `+0.0` argument); the sum-of-squares
/// pass replays the reference's full-length loop, with the constant
/// `(0 − m)²` term added for every unmatched index.
fn estimate_sorted_1d(agg: AggKind, view: &SampleView<'_>, rect: &Rect) -> Option<PointVariance> {
    let k = view.k();
    debug_assert!(view.dims == 1 && rect.dims() == 1);
    let col = view.preds;
    let (lo, hi) = (rect.lo(0), rect.hi(0));
    // A bound at or past the stratum's first (last) key leaves that end
    // of the column whole, with no search: a partial leaf is usually cut
    // on one side only. A NaN key fails the compare and is searched.
    let a = match col.first() {
        Some(&first) if lo <= first => 0,
        _ => col.partition_point(|&x| x < lo),
    };
    let b = match col.last() {
        Some(&last) if last <= hi => k,
        _ => col.partition_point(|&x| x <= hi),
    };
    debug_assert!(a <= b);
    let k_pred = (b - a) as u64;
    if k_pred == 0 {
        return PointVariance::from_phi(agg, k, 0, view.population, 0.0, 0.0);
    }
    let (values, n) = (view.values, view.population as f64);
    let scale = k as f64 / k_pred as f64;
    let (phi_sum, sum_sq_dev) = match agg {
        AggKind::Min | AggKind::Max => return minmax(agg, k_pred, values[a..b].iter().copied()),
        AggKind::Count => moments_range(k, a, b, |_| n),
        AggKind::Sum => moments_range(k, a, b, |i| n * values[i]),
        AggKind::Avg => moments_range(k, a, b, |i| scale * values[i]),
    };
    PointVariance::from_phi(agg, k, k_pred, view.population, phi_sum, sum_sq_dev)
}

/// The reference's `Σφ` and sum of squared deviations when the matched
/// rows are exactly `[a, b)`. The plain sum and the Neumaier mean read
/// each matched φ in one loop, as two independent dependency chains.
fn moments_range(k: usize, a: usize, b: usize, phi: impl Fn(usize) -> f64) -> (f64, f64) {
    // Replicate the reference fold exactly: it seeds at -0.0 and adds a
    // `+0.0` for every unmatched index. The first leading `+0.0` flushes
    // the seed to `+0.0` (later ones are identity), so start there when
    // `a > 0`; one trailing `+0.0` stands in for all `k - b` of them (it
    // only matters if the matched φ's summed to exactly `-0.0`).
    let mut s = if a > 0 { 0.0f64 } else { -0.0f64 };
    let mut mean_acc = KahanSum::new();
    for i in a..b {
        let p = phi(i);
        s += p;
        mean_acc.add(p);
    }
    if b < k {
        s += 0.0;
    }
    let mean = mean_acc.total() / k as f64;
    let mut ss = KahanSum::new();
    // Same bits the reference's `(0.0 − m)²` evaluates to, added once per
    // unmatched index (the Kahan state still has to step through every
    // addition — only the recomputation is hoisted).
    let d0 = 0.0 - mean;
    let z2 = d0 * d0;
    for _ in 0..a {
        ss.add(z2);
    }
    for i in a..b {
        let d = phi(i) - mean;
        ss.add(d * d);
    }
    for _ in b..k {
        ss.add(z2);
    }
    (s, ss.total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::estimate;
    use pass_common::rng::rng_from_seed;
    use pass_table::datasets::uniform;
    use pass_table::Table;

    fn bits(pv: &Option<PointVariance>) -> Option<(u64, u64, u64)> {
        pv.as_ref()
            .map(|p| (p.value.to_bits(), p.variance.to_bits(), p.k_pred))
    }

    /// Deterministic multi-dimensional table (xorshift values in [0, 1)).
    fn table_nd(n: usize, dims: usize, seed: u64) -> Table {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let values: Vec<f64> = (0..n).map(|_| next() * 100.0).collect();
        let predicates: Vec<Vec<f64>> = (0..dims)
            .map(|_| (0..n).map(|_| next()).collect())
            .collect();
        let names = std::iter::once("val".to_string())
            .chain((0..dims).map(|d| format!("d{d}")))
            .collect();
        Table::new(values, predicates, names).unwrap()
    }

    #[test]
    fn fpc_limits() {
        // Sampling the whole population: no sampling error left.
        assert_eq!(fpc(100, 100), 0.0);
        // Tiny sample of a huge population: correction ~1.
        assert!((fpc(1_000_000, 10) - 1.0).abs() < 1e-4);
        // Degenerate population.
        assert_eq!(fpc(1, 1), 0.0);
        assert_eq!(fpc(0, 0), 0.0);
    }

    #[test]
    fn kernel_matches_reference_on_multidim_sample() {
        let t = table_nd(4_000, 3, 17);
        let mut rng = rng_from_seed(17);
        let s = Sample::uniform(&t, 300, &mut rng).unwrap();
        assert!(!s.sorted_1d(), "3-D sample has no sorted fast path");
        let mut scratch = ScanScratch::new();
        for (lo, hi) in [(0.1, 0.8), (0.0, 1.0), (0.45, 0.55), (2.0, 3.0)] {
            let rect = Rect::new(&[(lo, hi); 3]);
            for agg in AggKind::ALL {
                let reference = estimate(agg, &s, &rect);
                let kernel = scratch.estimate(agg, &s, &rect);
                assert_eq!(bits(&kernel), bits(&reference), "{agg} [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn sorted_fast_path_matches_mask_path() {
        let t = uniform(2_000, 1);
        let mut rng = rng_from_seed(5);
        // Builder-style sample: sorted indices over a sorted region give a
        // non-decreasing predicate column only if the table is sorted, so
        // sort the sample rows explicitly here.
        let s = Sample::uniform(&t, 250, &mut rng).unwrap();
        let mut idx: Vec<usize> = (0..s.k()).collect();
        idx.sort_by(|&i, &j| {
            s.rows()
                .predicate(0, i)
                .total_cmp(&s.rows().predicate(0, j))
        });
        let sorted = Sample::from_rows(s.rows().gather(&idx), s.population()).unwrap();
        assert!(sorted.sorted_1d());
        let mut scratch = ScanScratch::new();
        for (lo, hi) in [(0.2, 0.7), (0.0, 1.0), (0.5, 0.5), (3.0, 4.0)] {
            let rect = Rect::interval(lo, hi);
            for agg in AggKind::ALL {
                let fast = scratch.estimate(agg, &sorted, &rect);
                let masked = scratch.estimate_unsorted(agg, &sorted, &rect);
                let reference = estimate(agg, &sorted, &rect);
                assert_eq!(bits(&fast), bits(&masked), "{agg} [{lo},{hi}]");
                assert_eq!(bits(&fast), bits(&reference), "{agg} [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn sorted_fast_path_matches_reference_at_the_column_ends() {
        // Bounds on, just inside and just outside the first and last keys
        // — repeated at both ends — decide whether an end is searched; a
        // one-row stratum and a NaN key (sorted by `windows(2)` vacuously)
        // take the compare that fails and the search.
        let sorted = |keys: Vec<f64>| {
            let values = (0..keys.len()).map(|i| (i * i % 7) as f64 - 2.5).collect();
            let s = Sample::from_rows(Table::one_dim(keys, values).unwrap(), 50).unwrap();
            assert!(s.sorted_1d());
            s
        };
        let samples = [
            sorted(vec![0.2, 0.2, 0.3, 0.5, 0.5, 0.5, 0.8, 0.9, 0.9]),
            sorted(vec![0.4]),
            sorted(vec![f64::NAN]),
        ];
        let cuts = [-1.0, 0.1, 0.2, 0.25, 0.4, 0.5, 0.85, 0.9, 0.95, 2.0];
        let mut scratch = ScanScratch::new();
        for s in &samples {
            for (i, &lo) in cuts.iter().enumerate() {
                for &hi in &cuts[i..] {
                    let rect = Rect::interval(lo, hi);
                    for agg in AggKind::ALL {
                        assert_eq!(
                            bits(&scratch.estimate(agg, s, &rect)),
                            bits(&estimate(agg, s, &rect)),
                            "{agg} [{lo},{hi}] over {:?}",
                            s.rows().predicate_column(0)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_is_bit_identical_to_singles_across_tiles() {
        let t = table_nd(1_500, 2, 9);
        let mut rng = rng_from_seed(9);
        let s = Sample::uniform(&t, 200, &mut rng).unwrap();
        // Many groups and a last one half full, mixed aggregates.
        let queries: Vec<Query> = (0..150)
            .map(|i| {
                let lo = (i % 10) as f64 * 0.09;
                let agg = AggKind::ALL[i % 5];
                Query::new(agg, Rect::new(&[(lo, lo + 0.3), (0.1, 0.9)]))
            })
            .collect();
        let mut scratch = ScanScratch::new();
        let mut out = Vec::new();
        scratch.estimate_batch(&s, &queries, &mut out);
        assert_eq!(out.len(), queries.len());
        for (q, fused) in queries.iter().zip(&out) {
            let single = scratch.estimate(q.agg, &s, &q.rect);
            assert_eq!(bits(fused), bits(&single), "{}", q.agg);
        }
    }

    #[test]
    fn empty_sample_contract_is_preserved() {
        let t = uniform(10, 7);
        let s = Sample::from_indices(&t, &[], 10).unwrap();
        assert_eq!(t.dims(), 1);
        let rect = Rect::interval(0.0, 1.0);
        let mut scratch = ScanScratch::new();
        for agg in AggKind::ALL {
            assert_eq!(
                bits(&scratch.estimate(agg, &s, &rect)),
                bits(&estimate(agg, &s, &rect)),
                "{agg}"
            );
        }
        let mut out = Vec::new();
        scratch.estimate_batch(&s, &[Query::new(AggKind::Avg, rect)], &mut out);
        assert_eq!(out, vec![None]);
    }

    #[test]
    fn negative_zero_values_stay_bit_identical() {
        // φ values of -0.0 exercise the skip-zero argument's edge.
        let t = Table::one_dim(vec![0.0, 1.0, 2.0, 3.0], vec![-0.0, -0.0, -0.0, -0.0]).unwrap();
        let s = Sample::from_rows(t, 8).unwrap();
        assert!(s.sorted_1d());
        let mut scratch = ScanScratch::new();
        for rect in [Rect::interval(0.5, 2.5), Rect::interval(0.0, 3.0)] {
            for agg in AggKind::ALL {
                assert_eq!(
                    bits(&scratch.estimate(agg, &s, &rect)),
                    bits(&estimate(agg, &s, &rect)),
                    "{agg}"
                );
            }
        }
    }

    #[test]
    fn reused_scratch_never_reads_past_the_current_stratum() {
        // The keep lanes outlive a call: after an 85-row stratum they
        // still hold 85 rows of someone else's lanes. Shrinking to 5
        // rows, to none, through the sorted 1-D path and back to 3-D must
        // answer exactly as a fresh scratch does at every step.
        let stratum = |rows: usize, dims: usize, seed: u64| {
            let t = table_nd(rows, dims, seed);
            Sample::from_rows(t, 4 * rows as u64 + 1).unwrap()
        };
        let sorted = Sample::from_rows(
            Table::one_dim(vec![0.1, 0.3, 0.5, 0.7], vec![4.0, -1.0, 2.5, 8.0]).unwrap(),
            9,
        )
        .unwrap();
        assert!(sorted.sorted_1d());
        let walk = [
            stratum(85, 3, 3),
            stratum(5, 3, 5),
            stratum(0, 3, 7),
            sorted,
            stratum(40, 3, 11),
        ];
        let mut reused = ScanScratch::new();
        let mut fused = Vec::new();
        for s in &walk {
            let dims = s.rows().dims();
            let arena = crate::arena::SampleArena::from_samples(std::slice::from_ref(s));
            for (lo, hi) in [(0.0, 1.0), (0.2, 0.6), (2.0, 3.0)] {
                let rect = Rect::new(&vec![(lo, hi); dims]);
                let queries: Vec<Query> = AggKind::ALL
                    .into_iter()
                    .map(|agg| Query::new(agg, rect.clone()))
                    .collect();
                reused.estimate_batch(s, &queries, &mut fused);
                for (q, f) in queries.iter().zip(&fused) {
                    let ctx = format!("{} k={} [{lo},{hi}]", q.agg, s.k());
                    let fresh = bits(&ScanScratch::new().estimate(q.agg, s, &rect));
                    assert_eq!(fresh, bits(&estimate(q.agg, s, &rect)), "{ctx}");
                    assert_eq!(bits(&reused.estimate(q.agg, s, &rect)), fresh, "{ctx}");
                    let view = arena.view(0);
                    assert_eq!(
                        bits(&reused.estimate_view(q.agg, &view, &rect)),
                        fresh,
                        "{ctx}"
                    );
                    assert_eq!(bits(f), fresh, "fused {ctx}");
                }
            }
        }
    }
}
