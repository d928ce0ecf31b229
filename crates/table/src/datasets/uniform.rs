//! Featureless uniform dataset for unit tests: uniform predicate keys in
//! `[0, 1)`, uniform aggregate values in `[0, 100)`. No structure for PASS
//! to exploit — useful as a null case (PASS should roughly tie stratified
//! sampling here) and for property tests that need unremarkable data.

use rand::Rng;

use pass_common::rng::rng_from_seed;

use crate::table::Table;

/// Generate `n_rows` of uniform data, sorted by predicate key.
pub fn uniform(n_rows: usize, seed: u64) -> Table {
    let mut rng = rng_from_seed(seed);
    let mut predicate: Vec<f64> = (0..n_rows).map(|_| rng.gen::<f64>()).collect();
    predicate.sort_by(f64::total_cmp);
    let values: Vec<f64> = (0..n_rows).map(|_| rng.gen::<f64>() * 100.0).collect();
    Table::generated(values, vec![predicate], vec!["value".into(), "key".into()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::stats::mean;

    #[test]
    fn shape_and_ranges() {
        let t = uniform(5_000, 1);
        assert_eq!(t.n_rows(), 5_000);
        assert!(t
            .predicate_column(0)
            .iter()
            .all(|&p| (0.0..1.0).contains(&p)));
        assert!(t.values().iter().all(|&v| (0.0..100.0).contains(&v)));
        assert!((mean(t.values()) - 50.0).abs() < 2.0);
    }

    #[test]
    fn keys_sorted() {
        let t = uniform(1_000, 2);
        assert!(t.predicate_column(0).windows(2).all(|w| w[0] <= w[1]));
    }
}
