//! Weighted combination of per-stratum estimates (Section 2.2).
//!
//! Estimates from strata `S_1..S_B` combine as `Σ est(S_i) · w_i` with
//! `w_i = 1` for SUM/COUNT and `w_i = N_i / N_q` for AVG (where `N_i` is the
//! stratum population and `N_q` the total population of all relevant
//! strata). The combined estimator variance is `Σ w_i² · V_i(q)`, so the CI
//! half-width is `λ · sqrt(Σ w_i² V_i)`.

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

/// Combined estimate: value and estimator variance (λ-free; callers apply
/// `ci_half = λ·sqrt(variance)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Combined {
    pub value: f64,
    pub variance: f64,
}

/// Combine per-stratum estimates per Section 2.2.
///
/// For AVG, `relevant_population` is `N_q` — the total number of tuples in
/// all strata relevant to the query. In plain stratified sampling this is
/// the sum of `population` over the estimates passed in, but PASS also
/// counts *covered* partitions answered exactly, so the caller supplies it.
/// Strata with no relevant sampled tuple (`k_pred == 0`) receive weight 0
/// for AVG, exactly as the paper specifies.
pub fn combine_strata(
    agg: AggKind,
    estimates: &[StratumEstimate],
    relevant_population: u64,
) -> Combined {
    let mut value = 0.0;
    let mut variance = 0.0;
    match agg {
        AggKind::Sum | AggKind::Count => {
            for e in estimates {
                value += e.point.value;
                variance += e.point.variance;
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
                best = Some(match (best, agg) {
                    (None, _) => e.point.value,
                    (Some(b), AggKind::Min) => b.min(e.point.value),
                    (Some(b), _) => b.max(e.point.value),
                });
            }
            value = best.unwrap_or(f64::NAN);
        }
    }
    Combined { value, variance }
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
        assert_eq!(c.value, 30.0);
        assert_eq!(c.variance, 13.0);
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
        assert_eq!(c.value, 10.0);
        assert_eq!(c.variance, 1.0);
    }

    #[test]
    fn empty_input_yields_zero() {
        let c = combine_strata(AggKind::Sum, &[], 0);
        assert_eq!(c.value, 0.0);
        assert_eq!(c.variance, 0.0);
        let c = combine_strata(AggKind::Avg, &[], 0);
        assert_eq!(c.value, 0.0);
    }

    #[test]
    fn minmax_take_extrema_of_relevant_strata() {
        let strata = [
            StratumEstimate {
                point: pv(5.0, 0.0, 1),
                population: 10,
            },
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
        assert_eq!(mn.value, 2.0);
        let mx = combine_strata(AggKind::Max, &strata, 30);
        assert_eq!(mx.value, 5.0);
    }
}
