//! NYC-Taxi-style trip records.
//!
//! The real dataset is 7.7M January-2019 trips. The paper's 1-D experiments
//! predicate on `pickup_datetime` and aggregate `trip_distance`; the
//! multi-dimensional templates (§5.4) use the five predicate columns
//! `pickup_time, pickup_date, PULocationID, dropoff_date, dropoff_time`.
//!
//! The generator reproduces the regimes that drive the evaluation: demand
//! cycles by hour-of-day and weekday/weekend, lognormal trip distances whose
//! scale depends on hour (long airport runs at night, short hops at rush
//! hour), a skewed categorical location column, and dropoff columns
//! correlated with pickup via the trip duration.

use rand::Rng;

use pass_common::rng::{derive_seed, rng_from_seed};

use crate::dist::{Exponential, LogNormal, Zipf};
use crate::table::Table;

/// Predicate column names in template order (Q_i uses the first i).
pub const TAXI_PREDICATES: [&str; 6] = [
    "pickup_datetime",
    "pickup_time",
    "pickup_date",
    "PULocationID",
    "dropoff_date",
    "dropoff_time",
];

const SECONDS_PER_DAY: f64 = 86_400.0;
const DAYS: f64 = 31.0;
const N_LOCATIONS: u64 = 263; // TLC taxi zone count

/// Hourly demand weight (0..24), shaped like Manhattan taxi demand.
fn demand_weight(hour: f64) -> f64 {
    // Overnight trough, morning rush, evening peak.
    let morning = (-((hour - 8.5) * (hour - 8.5)) / 8.0).exp();
    let evening = (-((hour - 19.0) * (hour - 19.0)) / 12.0).exp();
    0.15 + 1.0 * morning + 1.4 * evening
}

/// Generate an NYC-Taxi-like table with all six predicate columns.
/// Dimension order matches [`TAXI_PREDICATES`]; the aggregate is
/// `trip_distance` in miles.
pub fn taxi(n_rows: usize, seed: u64) -> Table {
    let mut rng = rng_from_seed(derive_seed(seed, 10));
    let zone_zipf = Zipf::new(N_LOCATIONS, 1.0);
    let duration = Exponential::new(1.0 / 900.0); // mean 15-minute trips

    let mut pickup_dt = Vec::with_capacity(n_rows);
    let mut pickup_time = Vec::with_capacity(n_rows);
    let mut pickup_date = Vec::with_capacity(n_rows);
    let mut location = Vec::with_capacity(n_rows);
    let mut dropoff_date = Vec::with_capacity(n_rows);
    let mut dropoff_time = Vec::with_capacity(n_rows);
    let mut distance = Vec::with_capacity(n_rows);

    // Draw pickup instants by rejection against the demand curve so that the
    // timestamp density matches the diurnal cycle, then sort.
    let mut instants: Vec<f64> = Vec::with_capacity(n_rows);
    while instants.len() < n_rows {
        let t = rng.gen::<f64>() * DAYS * SECONDS_PER_DAY;
        let hour = (t % SECONDS_PER_DAY) / 3_600.0;
        let day = (t / SECONDS_PER_DAY).floor();
        let weekend = (day as u64 + 1) % 7 >= 5; // days 5,6,12,13,... weekend
        let mut w = demand_weight(hour);
        if weekend {
            // Weekends: flatter curve, busier nights.
            w = 0.6 * w + 0.5 * (-((hour - 0.5) * (hour - 0.5)) / 18.0).exp();
        }
        if rng.gen::<f64>() * 2.6 < w {
            instants.push(t);
        }
    }
    instants.sort_by(f64::total_cmp);

    for &t in &instants {
        let hour = (t % SECONDS_PER_DAY) / 3_600.0;
        let day = (t / SECONDS_PER_DAY).floor();

        // Distance: lognormal whose median rises overnight (airport runs).
        let overnight = (-((hour - 2.0) * (hour - 2.0)) / 10.0).exp();
        let mut dist = LogNormal::new(0.75 + 0.9 * overnight, 0.55);
        let d = dist.sample(&mut rng).min(60.0);

        let dur = duration.sample(&mut rng).min(3.0 * 3_600.0) + 60.0;
        let dropoff = t + dur;

        pickup_dt.push(t);
        pickup_time.push(t % SECONDS_PER_DAY);
        pickup_date.push(day + 1.0); // 1-based day of month
        location.push((zone_zipf.sample(&mut rng)) as f64);
        dropoff_date.push((dropoff / SECONDS_PER_DAY).floor() + 1.0);
        dropoff_time.push(dropoff % SECONDS_PER_DAY);
        distance.push(d);
    }

    let mut names: Vec<String> = vec!["trip_distance".into()];
    names.extend(TAXI_PREDICATES.iter().map(|s| s.to_string()));
    Table::generated(
        distance,
        vec![
            pickup_dt,
            pickup_time,
            pickup_date,
            location,
            dropoff_date,
            dropoff_time,
        ],
        names,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_predicate_dimensions() {
        let t = taxi(2_000, 1);
        assert_eq!(t.dims(), 6);
        assert_eq!(t.n_rows(), 2_000);
        assert_eq!(t.names()[1], "pickup_datetime");
        assert_eq!(t.names()[4], "PULocationID");
    }

    #[test]
    fn pickup_datetime_sorted_and_in_range() {
        let t = taxi(3_000, 2);
        let col = t.predicate_column(0);
        assert!(col.windows(2).all(|w| w[0] <= w[1]));
        assert!(col
            .iter()
            .all(|&v| (0.0..DAYS * SECONDS_PER_DAY).contains(&v)));
    }

    #[test]
    fn derived_columns_consistent() {
        let t = taxi(2_000, 3);
        for i in 0..t.n_rows() {
            let dt = t.predicate(0, i);
            assert_eq!(t.predicate(1, i), dt % SECONDS_PER_DAY, "pickup_time");
            assert_eq!(t.predicate(2, i), (dt / SECONDS_PER_DAY).floor() + 1.0);
            // Dropoff is after pickup and within ~3 hours.
            let d_date = t.predicate(4, i);
            assert!(d_date >= t.predicate(2, i));
        }
    }

    #[test]
    fn distances_positive_and_heavy_tailed() {
        let t = taxi(20_000, 4);
        assert!(t.values().iter().all(|&v| v > 0.0 && v <= 60.0));
        let mean = t.values().iter().sum::<f64>() / t.n_rows() as f64;
        let mut sorted = t.values().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(mean > median, "lognormal is right-skewed");
    }

    #[test]
    fn locations_are_valid_zone_ids() {
        let t = taxi(5_000, 5);
        assert!(t
            .predicate_column(3)
            .iter()
            .all(|&z| (1.0..=N_LOCATIONS as f64).contains(&z)));
    }

    #[test]
    fn demand_peaks_at_rush_hours() {
        assert!(demand_weight(19.0) > demand_weight(4.0));
        assert!(demand_weight(8.5) > demand_weight(13.0));
    }

    #[test]
    fn deterministic() {
        let a = taxi(1_000, 42);
        let b = taxi(1_000, 42);
        assert_eq!(a.values(), b.values());
        for d in 0..6 {
            assert_eq!(a.predicate_column(d), b.predicate_column(d));
        }
    }
}
