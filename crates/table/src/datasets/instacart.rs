//! Instacart-style order table.
//!
//! The real `order_products` table has 1.4M rows; the paper predicates on
//! `product_id` and aggregates the binary `reordered` flag. The regime PASS
//! cares about: a heavily skewed categorical predicate (popular products
//! dominate) whose per-product reorder probability varies widely, so the
//! aggregate's local mean drifts along the (dictionary-ordered) predicate
//! axis and per-stratum Bernoulli variance p(1-p) differs across strata.

use rand::Rng;

use pass_common::rng::{derive_seed, rng_from_seed};

use crate::dist::Zipf;
use crate::table::Table;

/// Products per million rows (the real catalog has ~50k products over
/// 1.4M order rows; we keep the same order of magnitude, scaled).
const PRODUCTS_PER_MILLION: usize = 35_000;

/// Generate an Instacart-like table: predicate = product_id (dense code),
/// aggregate = reordered ∈ {0, 1}.
pub fn instacart(n_rows: usize, seed: u64) -> Table {
    let n_products = ((n_rows as f64 / 1.0e6) * PRODUCTS_PER_MILLION as f64)
        .round()
        .max(16.0) as usize;

    // Per-product reorder probability: smooth drift along the id axis plus
    // deterministic per-product jitter — adjacent ids are correlated (real
    // catalogs group similar items) but not identical.
    let mut prob_rng = rng_from_seed(derive_seed(seed, 1));
    let reorder_prob: Vec<f64> = (0..n_products)
        .map(|p| {
            let drift = 0.35 + 0.3 * (p as f64 / n_products as f64 * 7.0).sin();
            (drift + prob_rng.gen_range(-0.15..0.15)).clamp(0.02, 0.95)
        })
        .collect();

    let zipf = Zipf::new(n_products as u64, 1.05);
    let mut rng = rng_from_seed(derive_seed(seed, 2));

    let mut predicate = Vec::with_capacity(n_rows);
    let mut values = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        // Zipf rank 1..=P, mapped to a product id so that popularity is
        // scattered across the id space (rank != id, like real catalogs).
        let rank = zipf.sample(&mut rng) - 1;
        let product = (rank.wrapping_mul(2_654_435_761) % n_products as u64) as usize;
        predicate.push(product as f64);
        let reordered = rng.gen::<f64>() < reorder_prob[product];
        values.push(if reordered { 1.0 } else { 0.0 });
    }

    Table::generated(
        values,
        vec![predicate],
        vec!["reordered".into(), "product_id".into()],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn values_are_binary() {
        let t = instacart(10_000, 1);
        assert!(t.values().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn popularity_is_skewed() {
        let t = instacart(50_000, 2);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for i in 0..t.n_rows() {
            *counts.entry(t.predicate(0, i) as u64).or_default() += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Top product should dwarf the median product.
        let median = freqs[freqs.len() / 2];
        assert!(
            freqs[0] > 10 * median.max(1),
            "top {} vs median {median}",
            freqs[0]
        );
    }

    #[test]
    fn overall_reorder_rate_plausible() {
        let t = instacart(50_000, 3);
        let rate = t.values().iter().sum::<f64>() / t.n_rows() as f64;
        assert!((0.15..0.75).contains(&rate), "rate {rate}");
    }

    #[test]
    fn per_product_rates_vary() {
        let t = instacart(200_000, 4);
        let mut sums: HashMap<u64, (f64, u64)> = HashMap::new();
        for i in 0..t.n_rows() {
            let e = sums.entry(t.predicate(0, i) as u64).or_default();
            e.0 += t.value(i);
            e.1 += 1;
        }
        let rates: Vec<f64> = sums
            .values()
            .filter(|(_, n)| *n >= 100)
            .map(|(s, n)| s / *n as f64)
            .collect();
        assert!(rates.len() > 10, "need enough popular products");
        let lo = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().cloned().fold(0.0, f64::max);
        assert!(hi - lo > 0.2, "rates should spread: [{lo}, {hi}]");
    }

    #[test]
    fn deterministic() {
        let a = instacart(5_000, 9);
        let b = instacart(5_000, 9);
        assert_eq!(a.values(), b.values());
        assert_eq!(a.predicate_column(0), b.predicate_column(0));
    }
}
