//! The Section 5.3 adversarial dataset, implemented exactly as described:
//!
//! > "We construct a synthetic adversarial dataset of 1 million tuples and 2
//! > attributes. The predicate attribute contains 1 million unique values.
//! > The first 875K tuples have 0 as the value of their aggregate attribute
//! > and the last 125K tuples are generated by a normal distribution."
//!
//! Equal-depth partitioning wastes almost all its strata on the constant
//! zero region; the variance-aware ADP optimizer concentrates partitions on
//! the normal tail. Figure 6 measures exactly this gap.

use pass_common::rng::rng_from_seed;

use crate::dist::Normal;
use crate::table::Table;

/// Fraction of leading zero-valued tuples (875K / 1M in the paper).
pub const ZERO_FRACTION: f64 = 0.875;

/// Generate the adversarial table at any scale. Predicate values are the
/// unique integers `0..n`; the last `(1 - ZERO_FRACTION)·n` tuples draw from
/// Normal(100, 20) (positive location per the paper's positivity assumption,
/// footnote 2).
pub fn adversarial(n_rows: usize, seed: u64) -> Table {
    let mut rng = rng_from_seed(seed);
    let mut normal = Normal::new(100.0, 20.0);
    let cutoff = (n_rows as f64 * ZERO_FRACTION) as usize;

    let predicate: Vec<f64> = (0..n_rows).map(|i| i as f64).collect();
    let values: Vec<f64> = (0..n_rows)
        .map(|i| {
            if i < cutoff {
                0.0
            } else {
                normal.sample(&mut rng)
            }
        })
        .collect();

    Table::generated(values, vec![predicate], vec!["value".into(), "key".into()])
}

/// Index of the first non-zero tuple (the start of the "challenging" region
/// that Figure 6's second workload queries).
pub fn tail_start(n_rows: usize) -> usize {
    (n_rows as f64 * ZERO_FRACTION) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::stats::{mean, population_variance};

    #[test]
    fn unique_predicate_values() {
        let t = adversarial(10_000, 1);
        let p = t.predicate_column(0);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn head_is_exactly_zero() {
        let n = 10_000;
        let t = adversarial(n, 2);
        let cutoff = tail_start(n);
        assert_eq!(cutoff, 8_750);
        assert!(t.values()[..cutoff].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tail_is_normal_100_20() {
        let n = 100_000;
        let t = adversarial(n, 3);
        let tail = &t.values()[tail_start(n)..];
        assert_eq!(tail.len(), 12_500);
        assert!((mean(tail) - 100.0).abs() < 1.0, "mean {}", mean(tail));
        let sd = population_variance(tail).sqrt();
        assert!((sd - 20.0).abs() < 1.0, "sd {sd}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(adversarial(1000, 7).values(), adversarial(1000, 7).values());
    }
}
