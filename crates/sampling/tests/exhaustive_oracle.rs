//! The exhaustive-sample oracle for the interval formula.
//!
//! `tests/kernel_contract.rs` holds the kernels to the reference
//! estimator's φ sums, and both hand those sums to
//! `PointVariance::from_phi`, so that suite cannot say whether the formula
//! itself is right. This one can, with no seed: a stratum of `N = 10` rows
//! has at most C(10, 5) = 252 samples of any size K, so every sample is
//! enumerated and E[value], Var[value], E[reported variance] and the share
//! of intervals holding the truth come out exactly (up to the stated
//! rounding tolerance), as the closed forms of Nirkhiwale et al.'s
//! sampling algebra and the paper's Equations 1–4 with footnote 1 predict.
//!
//! Every sample is answered through the sorted 1-D path
//! (`ScanScratch::estimate`), the mask path (`estimate_unsorted`) and the
//! portable lockstep group kernel (`estimate_group_portable`), which must
//! agree bit for bit; the statistics are taken over those answers.
//!
//! Each identity is checked at every match rate: the query is a contiguous
//! key range matching m = 1..=9 of the 10 rows. What is pinned is today's
//! policy: the plug-in variance divides by K, so E[reported variance] /
//! Var[value] = (K − 1)/K · N/(N − 1) for SUM and COUNT, below 1 at every
//! K < N, and the exact coverage table, per K and match rate, shows the
//! intervals that result.

use pass_common::kahan::KahanSum;
use pass_common::{AggKind, Rect};
use pass_sampling::kernel::GROUP;
use pass_sampling::{
    combine_strata, PointVariance, Sample, SampleArena, ScanScratch, StratumEstimate,
};
use pass_table::Table;

/// Rows in each stratum.
const N: usize = 10;

/// The two strata's value columns; the keys are `0..N`. Small integers
/// keep every SUM/COUNT sum at K = N exact.
const VALUES_A: [f64; N] = [3.0, 7.0, 1.0, 12.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0];
const VALUES_B: [f64; N] = [10.0, 2.0, 6.0, 1.0, 14.0, 3.0, 7.0, 11.0, 5.0, 9.0];

/// The match patterns, one per match count m = 1..=N − 1: pattern `m − 1`
/// is the key range `lo..lo + m` with `lo = min(m / 2, N − m)`, so m = 3
/// is keys 1..=3 (many samples match nothing) and m = 6 is keys 3..=8.
fn patterns() -> [(f64, f64); N - 1] {
    std::array::from_fn(|p| {
        let m = p + 1;
        let lo = (m / 2).min(N - m) as f64;
        (lo - 0.5, lo + m as f64 - 0.5)
    })
}

/// The aggregates a φ-estimator answers.
const AGGS: [AggKind; 3] = [AggKind::Sum, AggKind::Count, AggKind::Avg];

/// Rounding tolerance of every "exact" identity, in units of the larger
/// operand's last place: the expectations below add up to 252 terms.
const ULPS: f64 = 64.0;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ULPS * f64::EPSILON * a.abs().max(b.abs())
}

/// Every K-subset of the row indices `0..N`, each in increasing order.
fn subsets(k: usize) -> Vec<Vec<usize>> {
    (0u32..1 << N)
        .filter(|mask| mask.count_ones() as usize == k)
        .map(|mask| (0..N).filter(|&i| mask >> i & 1 == 1).collect())
        .collect()
}

/// The population answer of `agg` over the rows `pattern` matches.
fn truth(values: [f64; N], (lo, hi): (f64, f64), agg: AggKind) -> f64 {
    let matched: Vec<f64> = (0..N)
        .filter(|&i| lo <= i as f64 && i as f64 <= hi)
        .map(|i| values[i])
        .collect();
    let sum: f64 = matched.iter().sum();
    match agg {
        AggKind::Sum => sum,
        AggKind::Count => matched.len() as f64,
        _ => sum / matched.len() as f64,
    }
}

/// `AGGS` over one sample through all three kernel paths, which must
/// agree bit for bit; the sorted path's answers are returned.
fn answers(
    scratch: &mut ScanScratch,
    sample: &Sample,
    pattern: (f64, f64),
) -> [Option<PointVariance>; 3] {
    let bits =
        |pv: Option<PointVariance>| pv.map(|p| (p.value.to_bits(), p.variance.to_bits(), p.k_pred));
    assert!(sample.sorted_1d());
    let rect = Rect::interval(pattern.0, pattern.1);
    let arena = SampleArena::from_samples(std::slice::from_ref(sample));
    let bounds = [pattern];
    let group = scratch.estimate_group_portable(
        &arena.view(0),
        [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Sum],
        [&bounds[..]; GROUP],
    );
    std::array::from_fn(|a| {
        let agg = AGGS[a];
        let sorted = scratch.estimate(agg, sample, &rect);
        let masked = scratch.estimate_unsorted(agg, sample, &rect);
        assert_eq!(bits(masked), bits(sorted), "{agg} mask path");
        assert_eq!(bits(group[a]), bits(sorted), "{agg} group kernel");
        sorted
    })
}

/// Per K = 0..=N, the `AGGS` answers of every K-sample of `values` under
/// `pattern`, in `subsets(K)` order.
fn enumerate(values: [f64; N], pattern: (f64, f64)) -> Vec<Vec<[Option<PointVariance>; 3]>> {
    let table = Table::one_dim((0..N).map(|i| i as f64).collect(), values.to_vec()).unwrap();
    let mut scratch = ScanScratch::new();
    (0..=N)
        .map(|k| {
            subsets(k)
                .iter()
                .map(|rows| {
                    let sample = Sample::from_indices(&table, rows, N as u64).unwrap();
                    answers(&mut scratch, &sample, pattern)
                })
                .collect()
        })
        .collect()
}

/// Exact moments of a set of equally likely (value, reported variance)
/// outcomes: E[value], Var[value] and E[reported variance].
fn moments(outcomes: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = outcomes.len() as f64;
    let mean = KahanSum::sum_iter(outcomes.iter().map(|o| o.0)) / n;
    let var = KahanSum::sum_iter(outcomes.iter().map(|o| (o.0 - mean) * (o.0 - mean))) / n;
    let reported = KahanSum::sum_iter(outcomes.iter().map(|o| o.1)) / n;
    (mean, var, reported)
}

/// E[reported variance] / Var[value] under the plug-in rule.
fn plug_in_ratio(k: usize) -> f64 {
    (k as f64 - 1.0) / k as f64 * N as f64 / (N as f64 - 1.0)
}

/// The outcomes of one aggregate's defined answers.
fn outcomes(per_sample: &[[Option<PointVariance>; 3]], a: usize) -> Vec<(f64, f64)> {
    per_sample
        .iter()
        .filter_map(|answers| answers[a].map(|p| (p.value, p.variance)))
        .collect()
}

#[test]
fn sum_and_count_are_unbiased_with_the_plug_in_variance_ratio() {
    for values in [VALUES_A, VALUES_B] {
        for pattern in patterns() {
            let all = enumerate(values, pattern);
            for (a, agg) in AGGS.into_iter().enumerate().take(2) {
                let want = truth(values, pattern, agg);
                for (k, per_sample) in all.iter().enumerate().skip(1) {
                    let ctx = format!("{agg} {pattern:?} K={k}");
                    let outcomes = outcomes(per_sample, a);
                    assert_eq!(outcomes.len(), per_sample.len(), "{ctx}: always defined");
                    let (mean, var, reported) = moments(&outcomes);
                    assert!(close(mean, want), "{ctx}: E[value] {mean} vs {want}");
                    if (2..N).contains(&k) {
                        let ratio = reported / var;
                        assert!(close(ratio, plug_in_ratio(k)), "{ctx}: ratio {ratio}");
                    }
                }
            }
        }
    }
}

#[test]
fn two_strata_combine_to_the_same_ratio() {
    // Stratum A matching m rows beside stratum B matching N − m, both
    // sampled at K: every pair of samples, combined.
    let patterns = patterns();
    for m in 1..N {
        let (sparse, dense) = (patterns[m - 1], patterns[N - m - 1]);
        let (a_all, b_all) = (enumerate(VALUES_A, sparse), enumerate(VALUES_B, dense));
        for (a, agg) in AGGS.into_iter().enumerate().take(2) {
            let want = truth(VALUES_A, sparse, agg) + truth(VALUES_B, dense, agg);
            for k in 2..N {
                let ctx = format!("{agg} m={m} K={k}");
                let mut pairs = Vec::new();
                for x in &a_all[k] {
                    for y in &b_all[k] {
                        let strata = [x[a], y[a]].map(|point| StratumEstimate {
                            point: point.unwrap(),
                            population: N as u64,
                        });
                        let combined = combine_strata(agg, &strata, 2 * N as u64);
                        pairs.push((combined.value, combined.variance));
                    }
                }
                let (mean, var, reported) = moments(&pairs);
                assert!(close(mean, want), "{ctx}: E[value] {mean} vs {want}");
                let ratio = reported / var;
                assert!(close(ratio, plug_in_ratio(k)), "{ctx}: ratio {ratio}");
            }
        }
    }
}

#[test]
fn one_row_samples_report_zero_variance_and_full_samples_are_exact() {
    for values in [VALUES_A, VALUES_B] {
        for pattern in patterns() {
            let all = enumerate(values, pattern);
            for (a, agg) in AGGS.into_iter().enumerate() {
                for (value, variance) in outcomes(&all[1], a) {
                    assert_eq!(variance.to_bits(), 0.0f64.to_bits(), "{agg} K=1: {value}");
                }
                let want = truth(values, pattern, agg);
                let [(value, variance)] = outcomes(&all[N], a)[..] else {
                    panic!("{agg}: one full sample");
                };
                assert_eq!(variance, 0.0, "{agg} K=N");
                if agg == AggKind::Avg {
                    assert!(close(value, want), "{agg} K=N: {value} vs {want}");
                } else {
                    assert_eq!(value, want, "{agg} K=N");
                }
            }
        }
    }
}

/// Samples of stratum A whose λ = 2.576 interval holds the truth, per
/// match count m = 1..=9 and aggregate, at K = 1..=N; an undefined AVG
/// holds nothing. Out of C(10, K) = 10, 45, 120, 210, 252, 210, 120, 45,
/// 10, 1. At m = 9 the full sample's AVG misses by rounding alone: its φ
/// are (K / K_pred)·value = (10/9)·value, their mean lands ulps off the
/// truth 6, and its interval has zero width.
const COVERAGE: [[[u32; N]; 3]; N - 1] = [
    // m = 1: SUM, COUNT, AVG.
    [
        [0, 9, 36, 84, 126, 126, 84, 36, 9, 1],
        [0, 9, 36, 84, 126, 126, 84, 36, 9, 1],
        [1, 9, 36, 84, 126, 126, 84, 36, 9, 1],
    ],
    // m = 2: SUM, COUNT, AVG.
    [
        [0, 17, 64, 84, 126, 126, 84, 36, 9, 1],
        [0, 16, 64, 140, 196, 182, 112, 44, 10, 1],
        [0, 9, 36, 84, 126, 126, 84, 36, 9, 1],
    ],
    // m = 3: SUM, COUNT, AVG.
    [
        [0, 16, 64, 140, 196, 182, 112, 36, 9, 1],
        [0, 21, 84, 175, 231, 203, 119, 42, 10, 1],
        [0, 17, 64, 140, 196, 182, 112, 44, 10, 1],
    ],
    // m = 4: SUM, COUNT, AVG.
    [
        [0, 22, 84, 175, 231, 182, 112, 43, 9, 1],
        [0, 24, 96, 194, 240, 209, 116, 45, 10, 1],
        [0, 22, 85, 175, 231, 203, 113, 44, 10, 1],
    ],
    // m = 5: SUM, COUNT, AVG.
    [
        [0, 22, 84, 174, 216, 182, 112, 43, 9, 1],
        [0, 25, 100, 200, 250, 200, 120, 45, 10, 1],
        [0, 23, 84, 170, 221, 193, 114, 44, 10, 1],
    ],
    // m = 6: SUM, COUNT, AVG.
    [
        [1, 32, 98, 181, 229, 201, 116, 43, 10, 1],
        [0, 24, 96, 194, 240, 209, 116, 45, 10, 1],
        [0, 30, 104, 195, 241, 205, 119, 45, 10, 1],
    ],
    // m = 7: SUM, COUNT, AVG.
    [
        [0, 33, 103, 190, 235, 200, 116, 43, 10, 1],
        [0, 21, 84, 175, 231, 203, 119, 42, 10, 1],
        [0, 33, 108, 202, 248, 209, 120, 45, 10, 1],
    ],
    // m = 8: SUM, COUNT, AVG.
    [
        [0, 34, 104, 186, 236, 200, 115, 43, 10, 1],
        [0, 16, 64, 140, 196, 182, 112, 44, 10, 1],
        [0, 33, 107, 200, 244, 206, 119, 45, 10, 1],
    ],
    // m = 9: SUM, COUNT, AVG.
    [
        [0, 33, 104, 192, 236, 201, 117, 44, 10, 1],
        [0, 9, 36, 84, 126, 126, 84, 36, 9, 1],
        [1, 34, 108, 198, 244, 205, 119, 45, 10, 0],
    ],
];

#[test]
fn exact_coverage_is_pinned() {
    let mut got = [[[0u32; N]; 3]; N - 1];
    for (p, pattern) in patterns().into_iter().enumerate() {
        let all = enumerate(VALUES_A, pattern);
        for (a, agg) in AGGS.into_iter().enumerate() {
            let want = truth(VALUES_A, pattern, agg);
            for k in 1..=N {
                got[p][a][k - 1] = all[k]
                    .iter()
                    .filter_map(|answers| answers[a])
                    .filter(|point| {
                        let estimate = point.evaluate(agg);
                        (estimate.value - want).abs() <= estimate.ci_half
                    })
                    .count() as u32;
            }
        }
    }
    assert_eq!(
        got, COVERAGE,
        "exact coverage per match count, aggregate and K"
    );
}

/// AVG is a ratio estimator: given at least one match it is the mean of
/// the matched sampled values, so it is unbiased over the samples where
/// it is defined, while its plug-in variance is only approximate. Its
/// E[reported variance] / Var[value] over those samples, stratum A, per
/// match count m = 2..=9 at K = 2..=9, pinned to `AVG_RATIO_TOLERANCE`.
/// At m = 1 the one matched value is every defined answer, so Var[value]
/// = 0; the reported variance is not 0, and its mean is pinned instead.
const AVG_RATIO: [[f64; N - 2]; N - 2] = [
    // m = 2.
    [
        1.262345679,
        1.528806584,
        1.546296296,
        1.464197531,
        1.332304527,
        1.171957672,
        0.993827160,
        0.803840878,
    ],
    // m = 3.
    [
        1.418213970,
        1.721747388,
        1.753596645,
        1.685714286,
        1.580677855,
        1.474645536,
        1.405011655,
        1.441911997,
    ],
    // m = 4.
    [
        1.566184926,
        1.901670282,
        1.947249417,
        1.900237374,
        1.838443326,
        1.807507003,
        1.826486291,
        1.837351291,
    ],
    // m = 5.
    [
        1.231995369,
        1.497776647,
        1.546720355,
        1.540034818,
        1.537638492,
        1.553055513,
        1.563917381,
        1.572338852,
    ],
    // m = 6.
    [
        1.897029703,
        2.260256234,
        2.295400830,
        2.265904479,
        2.249829155,
        2.242722624,
        2.239119644,
        2.237175569,
    ],
    // m = 7.
    [
        1.897244974,
        2.193574305,
        2.185300709,
        2.153727673,
        2.142418487,
        2.137506232,
        2.135230886,
        2.134195075,
    ],
    // m = 8.
    [
        1.247087856,
        1.411006915,
        1.427442983,
        1.447318016,
        1.463284185,
        1.475769023,
        1.485653188,
        1.493623839,
    ],
    // m = 9.
    [
        1.070707071,
        1.142857143,
        1.195340502,
        1.230352304,
        1.254901961,
        1.272963830,
        1.286776213,
        1.297668038,
    ],
];
/// E[reported variance] of AVG at m = 1, stratum A, at K = 2..=9.
const AVG_ONE_MATCH_REPORTED: [f64; N - 2] = [
    4.000000000,
    4.666666667,
    4.500000000,
    4.000000000,
    3.333333333,
    2.571428571,
    1.750000000,
    0.888888889,
];
const AVG_RATIO_TOLERANCE: f64 = 1e-6;

#[test]
fn avg_bias_and_variance_ratio_are_pinned() {
    for (p, pattern) in patterns().into_iter().enumerate() {
        let all = enumerate(VALUES_A, pattern);
        let want = truth(VALUES_A, pattern, AggKind::Avg);
        for k in 2..N {
            let (mean, var, reported) = moments(&outcomes(&all[k], 2));
            assert!(close(mean, want), "{pattern:?} K={k}: bias {}", mean - want);
            if p == 0 {
                assert_eq!(var, 0.0, "{pattern:?} K={k}");
            }
            let (got, pinned) = match p {
                0 => (reported, AVG_ONE_MATCH_REPORTED[k - 2]),
                _ => (reported / var, AVG_RATIO[p - 1][k - 2]),
            };
            assert!(
                (got - pinned).abs() <= AVG_RATIO_TOLERANCE,
                "{pattern:?} K={k}: {got} vs pinned {pinned}"
            );
        }
    }
}
