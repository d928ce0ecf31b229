//! Statistical helpers: means, variances and the paper's 99 % quantile. The
//! φ-estimators' interval formula, finite-population correction included,
//! lives in one place: `pass_sampling::PointVariance::from_phi`.

use crate::kahan::KahanSum;

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
}
