//! Weighted combination of per-stratum estimates (Section 2.2).
//!
//! Estimates from strata `S_1..S_B` combine as `Σ est(S_i) · w_i` with
//! `w_i = 1` for SUM/COUNT and `w_i = N_i / N_q` for AVG (where `N_i` is the
//! stratum population and `N_q` the total population of all relevant
//! strata). The combined estimator variance is `Σ w_i² · V_i(q)`; the CI
//! half-width `λ · sqrt(Σ w_i² V_i)` is applied once, by
//! [`PointVariance::evaluate`].

use pass_common::AggKind;

use crate::kernel::PointVariance;

/// One stratum's contribution to a combined estimate.
#[derive(Debug, Clone, Copy)]
pub struct StratumEstimate {
    /// The per-stratum φ-estimate and its estimator variance.
    pub point: PointVariance,
    /// Stratum population `N_i`.
    pub population: u64,
}

impl StratumEstimate {
    /// A stratum answered exactly from its precomputed aggregate — a
    /// covered partition's AVG or extremum over its `count` rows: zero
    /// variance, weighted by its full population.
    #[inline]
    pub fn exact(value: f64, count: u64) -> Self {
        StratumEstimate {
            point: PointVariance {
                value,
                variance: 0.0,
                k_pred: count,
            },
            population: count,
        }
    }

    /// A partially relevant stratum for AVG, weighted by its *estimated
    /// relevant* population `max(1, round(N_i · K_pred / K_i))` rather
    /// than the full `N_i`: only a fraction of the stratum contributes to
    /// the average, and the sample selectivity is its unbiased estimate.
    /// (With full-`N_i` weights a barely-touched stratum would swamp fully
    /// relevant ones.) `k` is the stratum's sample size `K_i`.
    #[inline]
    pub fn relevant(point: PointVariance, population: u64, k: usize) -> Self {
        let selectivity = point.k_pred as f64 / k.max(1) as f64;
        let population = ((population as f64 * selectivity).round() as u64).max(1);
        StratumEstimate { point, population }
    }
}

/// Combine per-stratum estimates per Section 2.2 into one
/// [`PointVariance`]: the weighted value, the estimator variance
/// `Σ w_i² · V_i`, and the `K_pred` of the strata that contributed. No λ
/// is applied here; [`PointVariance::evaluate`] turns the result into an
/// answer.
///
/// For AVG, `relevant_population` is `N_q` — the total number of tuples in
/// all strata relevant to the query. In plain stratified sampling this is
/// the sum of `population` over the estimates passed in, but PASS also
/// counts *covered* partitions answered exactly, so the caller supplies it.
/// Strata with no relevant sampled tuple (`k_pred == 0`) receive weight 0
/// for AVG, exactly as the paper specifies. MIN/MAX take the extremum of
/// the strata with a relevant tuple, in order, with zero variance; a
/// covered partition's extremum enters as a
/// [`StratumEstimate::exact`] stratum. With no such stratum the value is
/// NaN and `k_pred` is 0.
pub fn combine_strata(
    agg: AggKind,
    estimates: &[StratumEstimate],
    relevant_population: u64,
) -> PointVariance {
    let mut value = 0.0;
    let mut variance = 0.0;
    let mut k_pred = 0;
    match agg {
        AggKind::Sum | AggKind::Count => {
            for e in estimates {
                value += e.point.value;
                variance += e.point.variance;
                k_pred += e.point.k_pred;
            }
        }
        AggKind::Avg => {
            let nq = relevant_population as f64;
            if nq > 0.0 {
                for e in estimates {
                    if e.point.k_pred == 0 {
                        continue; // weight 0: no relevant tuple in stratum
                    }
                    let w = e.population as f64 / nq;
                    value += w * e.point.value;
                    variance += w * w * e.point.variance;
                    k_pred += e.point.k_pred;
                }
            }
        }
        AggKind::Min | AggKind::Max => {
            // Extrema combine by extremum; variance has no CLT form.
            let mut best: Option<f64> = None;
            for e in estimates {
                if e.point.k_pred == 0 {
                    continue;
                }
                k_pred += e.point.k_pred;
                best = Some(match (best, agg) {
                    (None, _) => e.point.value,
                    (Some(b), AggKind::Min) => b.min(e.point.value),
                    (Some(b), _) => b.max(e.point.value),
                });
            }
            value = best.unwrap_or(f64::NAN);
        }
    }
    PointVariance {
        value,
        variance,
        k_pred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(value: f64, variance: f64, k_pred: u64) -> PointVariance {
        PointVariance {
            value,
            variance,
            k_pred,
        }
    }

    #[test]
    fn sum_adds_values_and_variances() {
        let strata = [
            StratumEstimate {
                point: pv(10.0, 4.0, 3),
                population: 100,
            },
            StratumEstimate {
                point: pv(20.0, 9.0, 5),
                population: 200,
            },
        ];
        let c = combine_strata(AggKind::Sum, &strata, 300);
        assert_eq!(c, pv(30.0, 13.0, 8));
    }

    #[test]
    fn avg_weights_by_relative_population() {
        let strata = [
            StratumEstimate {
                point: pv(10.0, 1.0, 2),
                population: 100,
            },
            StratumEstimate {
                point: pv(40.0, 4.0, 2),
                population: 300,
            },
        ];
        let c = combine_strata(AggKind::Avg, &strata, 400);
        // 0.25·10 + 0.75·40 = 32.5; var 0.0625·1 + 0.5625·4 = 2.3125
        assert!((c.value - 32.5).abs() < 1e-12);
        assert!((c.variance - 2.3125).abs() < 1e-12);
    }

    #[test]
    fn avg_skips_strata_without_relevant_tuples() {
        let strata = [
            StratumEstimate {
                point: pv(10.0, 1.0, 5),
                population: 100,
            },
            StratumEstimate {
                point: pv(999.0, 50.0, 0),
                population: 300,
            },
        ];
        let c = combine_strata(AggKind::Avg, &strata, 100);
        assert_eq!(c, pv(10.0, 1.0, 5));
    }

    #[test]
    fn empty_input_yields_zero() {
        let c = combine_strata(AggKind::Sum, &[], 0);
        assert_eq!(c, pv(0.0, 0.0, 0));
        let c = combine_strata(AggKind::Avg, &[], 0);
        assert_eq!(c.value, 0.0);
        let c = combine_strata(AggKind::Min, &[], 0);
        assert!(c.value.is_nan() && c.k_pred == 0);
    }

    #[test]
    fn minmax_take_extrema_of_relevant_strata() {
        let strata = [
            StratumEstimate::exact(5.0, 10),
            StratumEstimate {
                point: pv(2.0, 0.0, 1),
                population: 10,
            },
            StratumEstimate {
                point: pv(-1.0, 0.0, 0),
                population: 10,
            },
        ];
        let mn = combine_strata(AggKind::Min, &strata, 30);
        assert_eq!(mn, pv(2.0, 0.0, 11));
        let mx = combine_strata(AggKind::Max, &strata, 30);
        assert_eq!(mx.value, 5.0);
        assert_eq!(mx.evaluate(AggKind::Max).ci_half, 0.0);
    }

    #[test]
    fn relevant_population_rounds_the_selectivity_and_never_drops_to_zero() {
        let relevant = |k_pred, population, k| {
            StratumEstimate::relevant(pv(1.0, 0.0, k_pred), population, k).population
        };
        assert_eq!(relevant(3, 100, 8), 38); // 37.5 rounds away from zero
        assert_eq!(relevant(1, 10, 1_000), 1); // 0.01 floors to one tuple
        assert_eq!(relevant(0, 10, 0), 1); // an empty sample is K = 1
        assert_eq!(relevant(8, 100, 8), 100);
    }
}
