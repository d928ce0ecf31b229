//! Statistical helpers: means, variances and normal quantiles. The
//! φ-estimators' interval formula, finite-population correction included,
//! lives in one place: `pass_sampling::PointVariance::from_phi`.

use crate::kahan::KahanSum;

/// λ for a 95% normal confidence interval.
pub const LAMBDA_95: f64 = 1.96;
/// λ for a 99% normal confidence interval (the paper's default, §5.1.3).
pub const LAMBDA_99: f64 = 2.576;

/// Mean of a slice (compensated). Returns 0.0 on empty input, which is the
/// convention the φ-estimators rely on (an empty sample estimates 0).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    KahanSum::sum_iter(values.iter().copied()) / values.len() as f64
}

/// Population variance (divides by n). 0.0 on empty/singleton input.
pub fn population_variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let ss = KahanSum::sum_iter(values.iter().map(|&v| {
        let d = v - m;
        d * d
    }));
    (ss / values.len() as f64).max(0.0)
}

/// Sample variance (divides by n-1). 0.0 on fewer than two values.
pub fn sample_variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let ss = KahanSum::sum_iter(values.iter().map(|&v| {
        let d = v - m;
        d * d
    }));
    (ss / (values.len() - 1) as f64).max(0.0)
}

/// Normal quantile λ such that P(|Z| <= λ) = `confidence`, via the
/// Acklam rational approximation of the inverse normal CDF (|error| < 1.2e-9,
/// far below sampling noise). `confidence` must lie in (0, 1).
pub fn lambda_for_confidence(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1), got {confidence}"
    );
    // Two-sided: lambda = Phi^-1((1 + confidence) / 2).
    inverse_normal_cdf((1.0 + confidence) / 2.0)
}

/// Acklam's inverse normal CDF approximation.
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variances() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert!((population_variance(&v) - 4.0).abs() < 1e-12);
        assert!((sample_variance(&v) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(population_variance(&[]), 0.0);
        assert_eq!(population_variance(&[3.0]), 0.0);
        assert_eq!(sample_variance(&[3.0]), 0.0);
    }

    #[test]
    fn lambda_matches_paper_constants() {
        assert!((lambda_for_confidence(0.95) - LAMBDA_95).abs() < 5e-4);
        assert!((lambda_for_confidence(0.99) - LAMBDA_99).abs() < 5e-4);
    }

    #[test]
    fn lambda_monotone_in_confidence() {
        let mut prev = 0.0;
        for c in [0.5, 0.8, 0.9, 0.95, 0.99, 0.999] {
            let l = lambda_for_confidence(c);
            assert!(l > prev, "λ({c}) = {l} not > {prev}");
            prev = l;
        }
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0,1)")]
    fn lambda_rejects_bad_confidence() {
        lambda_for_confidence(1.0);
    }
}
