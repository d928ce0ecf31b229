//! Synthetic dataset generators.
//!
//! The paper evaluates on the Intel Wireless sensor dataset, the Instacart
//! 2017 order table, and the NYC Taxi January-2019 trip records, plus one
//! synthetic adversarial dataset (Section 5.1.1 / 5.3). The real CSVs are
//! not redistributable, so each generator reproduces the *statistical
//! regime* that drives the paper's results (docs/FIGURES.md, "Datasets are
//! seeded look-alikes"):
//!
//! * [`intel`]: heteroscedastic diurnal signal — long zero-variance night
//!   stretches, bursty daytime light readings;
//! * [`instacart`]: Zipf-skewed categorical predicate with a Bernoulli
//!   aggregate;
//! * [`taxi`]: cyclic time-of-day modulation of a lognormal aggregate, with
//!   five extra predicate columns for the multi-dimensional templates;
//! * [`adversarial`]: 87.5% zeros then a normal tail, exactly as §5.3;
//! * [`uniform`]: featureless baseline for unit tests.
//!
//! All generators take `(n_rows, seed)` and are fully deterministic.

mod adversarial;
mod instacart;
mod intel;
mod taxi;
mod uniform;

pub use adversarial::{adversarial, tail_start, ZERO_FRACTION};
pub use instacart::instacart;
pub use intel::intel;
pub use taxi::{taxi, TAXI_PREDICATES};
pub use uniform::uniform;

use crate::table::Table;

/// Identifier for the three "real-life" datasets as used across the
/// benchmark tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    Intel,
    Instacart,
    NycTaxi,
}

impl DatasetId {
    pub const ALL: [DatasetId; 3] = [DatasetId::Intel, DatasetId::Instacart, DatasetId::NycTaxi];

    /// Column shown in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Intel => "Intel",
            DatasetId::Instacart => "Insta",
            DatasetId::NycTaxi => "NYC",
        }
    }

    /// Paper-scale row count (Section 5.1.1).
    pub fn paper_rows(self) -> usize {
        match self {
            DatasetId::Intel => 3_000_000,
            DatasetId::Instacart => 1_400_000,
            DatasetId::NycTaxi => 7_700_000,
        }
    }

    /// Generate the dataset at a chosen scale. For the taxi dataset this is
    /// the 1-D (pickup_datetime) view used by the 1-D experiments.
    pub fn generate(self, n_rows: usize, seed: u64) -> Table {
        match self {
            DatasetId::Intel => intel(n_rows, seed),
            DatasetId::Instacart => instacart(n_rows, seed),
            DatasetId::NycTaxi => taxi(n_rows, seed).first_dim(),
        }
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_ids_generate_one_dim_tables() {
        for id in DatasetId::ALL {
            let t = id.generate(2000, 7);
            assert_eq!(t.n_rows(), 2000, "{id}");
            assert_eq!(t.dims(), 1, "{id}");
        }
    }

    #[test]
    fn the_one_dim_taxi_view_is_the_projection_on_pickup_datetime() {
        let view = DatasetId::NycTaxi.generate(1_000, 5);
        let projected = taxi(1_000, 5).project(&[0]).unwrap();
        assert_eq!(view.values(), projected.values());
        assert_eq!(view.predicate_column(0), projected.predicate_column(0));
        assert_eq!(view.names(), projected.names());
    }

    #[test]
    fn generation_is_deterministic() {
        for id in DatasetId::ALL {
            let a = id.generate(500, 99);
            let b = id.generate(500, 99);
            assert_eq!(a.values(), b.values(), "{id}");
            assert_eq!(a.predicate_column(0), b.predicate_column(0), "{id}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        // Enough rows to reach the Intel daytime regime where randomness
        // actually enters the values (the night prefix is identically zero).
        let a = DatasetId::Intel.generate(5_000, 1);
        let b = DatasetId::Intel.generate(5_000, 2);
        assert_ne!(a.values(), b.values());
        let a = DatasetId::Instacart.generate(500, 1);
        let b = DatasetId::Instacart.generate(500, 2);
        assert_ne!(a.values(), b.values());
    }

    #[test]
    fn paper_rows_match_section_5() {
        assert_eq!(DatasetId::Intel.paper_rows(), 3_000_000);
        assert_eq!(DatasetId::Instacart.paper_rows(), 1_400_000);
        assert_eq!(DatasetId::NycTaxi.paper_rows(), 7_700_000);
    }
}
