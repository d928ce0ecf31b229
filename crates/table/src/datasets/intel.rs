//! Intel-Wireless-style sensor stream.
//!
//! The real dataset is 3M rows of lab sensor readings; the paper predicates
//! on `time` and aggregates `light`. What matters for PASS is the *shape* of
//! light-vs-time: long nights where every reading is exactly 0 lux (zero
//! variance — this is where the 0-variance rule and hard bounds shine),
//! daytime plateaus with bursty, heavy-tailed spikes, and occasional sensor
//! dropout stretches. This generator reproduces those regimes with a
//! deterministic diurnal cycle.

use rand::Rng;

use pass_common::rng::rng_from_seed;

use crate::dist::{LogNormal, Normal};
use crate::table::Table;

/// Fraction of each day that is "night" (exact zeros).
const NIGHT_FRACTION: f64 = 0.45;
/// Rows per simulated day; chosen so even small tables get several cycles.
const ROWS_PER_DAY: usize = 2_880; // one reading every 30 "seconds"

/// Generate an Intel-Wireless-like table: predicate = timestamp (seconds),
/// aggregate = light (lux, non-negative).
pub fn intel(n_rows: usize, seed: u64) -> Table {
    let mut rng = rng_from_seed(seed);
    let mut day_noise = Normal::new(0.0, 30.0);
    let mut spike = LogNormal::new(5.5, 0.6);

    let mut predicate = Vec::with_capacity(n_rows);
    let mut values = Vec::with_capacity(n_rows);

    // Dropout stretches: roughly one per two days, ~2% of rows total.
    let mut dropout_left = 0usize;

    for i in 0..n_rows {
        let t = i as f64 * 30.0; // 30-second cadence timestamps
        predicate.push(t);

        if dropout_left > 0 {
            dropout_left -= 1;
            values.push(0.0);
            continue;
        }
        if rng.gen::<f64>() < 1.0 / (2.0 * ROWS_PER_DAY as f64) {
            dropout_left = rng.gen_range(20..120);
            values.push(0.0);
            continue;
        }

        let phase = (i % ROWS_PER_DAY) as f64 / ROWS_PER_DAY as f64;
        if phase < NIGHT_FRACTION {
            // Night: the sensor reads exactly zero lux.
            values.push(0.0);
        } else {
            // Day: sinusoidal plateau + noise + occasional direct-sun spike.
            let day_phase = (phase - NIGHT_FRACTION) / (1.0 - NIGHT_FRACTION);
            let base = 400.0 * (std::f64::consts::PI * day_phase).sin().max(0.0);
            let mut v = base + day_noise.sample(&mut rng);
            if rng.gen::<f64>() < 0.01 {
                v += spike.sample(&mut rng);
            }
            values.push(v.max(0.0));
        }
    }

    Table::generated(values, vec![predicate], vec!["light".into(), "time".into()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::stats::population_variance;

    #[test]
    fn shape_and_determinism() {
        let t = intel(ROWS_PER_DAY * 2, 3);
        assert_eq!(t.n_rows(), ROWS_PER_DAY * 2);
        assert_eq!(t.dims(), 1);
        let t2 = intel(ROWS_PER_DAY * 2, 3);
        assert_eq!(t.values(), t2.values());
    }

    #[test]
    fn timestamps_strictly_increasing() {
        let t = intel(5000, 4);
        let p = t.predicate_column(0);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn values_non_negative() {
        let t = intel(20_000, 5);
        assert!(t.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn night_is_zero_variance_day_is_not() {
        let t = intel(ROWS_PER_DAY, 6);
        let vals = t.values();
        // First 40% of the day (inside the 45% night window): all zeros.
        let night = &vals[..(ROWS_PER_DAY as f64 * 0.40) as usize];
        assert!(
            night.iter().filter(|&&v| v == 0.0).count() as f64 / night.len() as f64 > 0.95,
            "night should be almost entirely zero"
        );
        // Middle of the day window: substantial variance.
        let day_start = (ROWS_PER_DAY as f64 * 0.60) as usize;
        let day = &vals[day_start..day_start + 400];
        assert!(population_variance(day) > 100.0);
    }

    #[test]
    fn heavy_tail_spikes_exist() {
        let t = intel(ROWS_PER_DAY * 4, 7);
        let max = t.values().iter().cloned().fold(0.0, f64::max);
        let mean: f64 = t.values().iter().sum::<f64>() / t.n_rows() as f64;
        assert!(max > 4.0 * mean, "max {max} vs mean {mean}");
    }
}
