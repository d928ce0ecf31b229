//! In-memory columnar table substrate for the PASS workspace.
//!
//! The paper's problem setup (Section 2) is a collection of tuples
//! `(c_i, a_i)` with predicate attributes `c` and a numeric aggregation
//! value `a`. [`Table`] stores exactly that in columnar form: one
//! aggregation column and `d` predicate columns.
//!
//! Everything the optimizers need sits on top:
//!
//! * [`SortedTable`] — a 1-D view sorted by one predicate column, giving
//!   O(log n) interval-to-index-range resolution and O(1) range aggregates
//!   via prefix sums (the backbone of every 1-D partitioning algorithm);
//! * [`datasets`] — seeded generators standing in for the paper's three
//!   real datasets plus the Section 5.3 adversarial dataset (the regime
//!   each keeps is in docs/FIGURES.md, "Datasets are seeded look-alikes");
//! * [`dist`] — the Normal / LogNormal / Zipf / Exponential samplers the
//!   generators draw from (implemented here to keep the dependency set to
//!   the plain `rand` crate).

#![forbid(unsafe_code)]

pub mod datasets;
pub mod dist;
pub mod shard;
pub mod snapshot;
pub mod sorted;
pub mod table;

pub use sorted::SortedTable;
pub use table::Table;
