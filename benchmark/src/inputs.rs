//! Input generation. Everything is a pure function of `--seed`: the
//! library only ever sees generated tables and queries. Generation and
//! ground truth are outside every timed region (reported as
//! `workload.gen_ms` / `workload.truth_us`, never inside `setup_s`).

use crate::api::{
    random_queries, taxi, template_queries, AggKind, DatasetId, PartitionStrategy, PassSpec, Query,
    SortedTable, Table, Truth,
};

/// Sizes that define the workloads. `full` is what the gated numbers
/// are measured at; `quick` is the CI smoke (a tenth of the rows and
/// distinct queries, same engine shapes).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of the 1-D `NycTaxi` table (`adhoc_1d`, `dashboard_serve`,
    /// `stream_updates`).
    pub rows_1d: usize,
    /// Rows of the 3-D taxi projection (`batch_md`).
    pub rows_md: usize,
    /// Distinct `adhoc_1d` queries (a multiple of 5: aggregates
    /// interleave).
    pub adhoc_queries: usize,
    /// Distinct `batch_md` queries (a multiple of `BATCH`).
    pub md_queries: usize,
    /// Distinct `dashboard_serve` queries (Zipf ranks).
    pub serve_queries: usize,
    /// MIN/MAX queries whose truth is evaluated per workload: the 1-D
    /// oracle answers SUM/COUNT/AVG in O(log n) but scans for extrema
    /// (~0.4 ms each at 1 M rows), so extrema beyond this many are
    /// checked for determinism only.
    pub extrema_truths: usize,
}

impl Sizes {
    /// The sizes the gated metrics are defined at.
    pub fn full() -> Sizes {
        Sizes {
            rows_1d: 1_000_000,
            rows_md: 500_000,
            adhoc_queries: 200_000,
            md_queries: 768,
            serve_queries: 16_384,
            extrema_truths: 1_000,
        }
    }

    /// The `--quick` smoke sizes.
    pub fn quick() -> Sizes {
        Sizes {
            rows_1d: 100_000,
            rows_md: 50_000,
            adhoc_queries: 20_000,
            md_queries: 256,
            serve_queries: 4_096,
            extrema_truths: 200,
        }
    }
}

/// Leaves of every PASS tree the workloads build (paper §5.1.3 scale).
pub const PARTITIONS: usize = 256;
/// Per-stratum sampling rate of the 1-D engines.
pub const SAMPLE_RATE_1D: f64 = 0.005;
/// Per-stratum sampling rate of the KD-PASS engine.
pub const SAMPLE_RATE_MD: f64 = 0.01;
/// Smallest selection a generated 1-D query may have, in rows.
const MIN_ROWS_1D: usize = 2_000;
/// Taxi predicate columns `batch_md` keeps (paper §5.4 template Q3).
pub const MD_DIMS: [usize; 3] = [1, 2, 3];

/// The PASS configuration used throughout, seeded from `--seed`.
pub fn pass_spec(partitions: usize, sample_rate: f64, seed: u64) -> PassSpec {
    PassSpec {
        partitions,
        sample_rate,
        strategy: PartitionStrategy::Adp(AggKind::Sum),
        seed,
        ..PassSpec::default()
    }
}

/// The 1-D table three workloads share, with its sorted view (query
/// generation grounds intervals on actual keys).
pub struct Data1d {
    /// 1-D `NycTaxi` (pickup time → fare).
    pub table: Table,
    /// `table` sorted by its key.
    pub sorted: SortedTable,
}

impl Data1d {
    /// Generate from the seed.
    pub fn generate(rows: usize, seed: u64) -> Data1d {
        let table = DatasetId::NycTaxi.generate(rows, seed);
        let sorted = SortedTable::from_table(&table, 0);
        Data1d { table, sorted }
    }

    /// `n` distinct-by-construction random intervals, all five
    /// aggregates interleaved (`n` a multiple of 5), each selecting at
    /// least `MIN_ROWS_1D` rows so no selection is empty.
    pub fn queries(&self, n: usize, seed: u64, label: u64) -> Vec<Query> {
        let per_agg = n / AggKind::ALL.len();
        let min_rows = MIN_ROWS_1D.min(self.sorted.len() / 50).max(1);
        let streams: Vec<Vec<Query>> = AggKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &agg)| {
                let stream_seed = seed ^ (label << 8) ^ (i as u64 + 1);
                random_queries(&self.sorted, per_agg, agg, min_rows, stream_seed)
            })
            .collect();
        (0..per_agg)
            .flat_map(|i| streams.iter().map(move |s| s[i].clone()))
            .collect()
    }

    /// `n` random intervals over SUM / COUNT / AVG only (interleaved) —
    /// the aggregates the paper's update guarantee (§4.5) covers.
    pub fn clt_queries(&self, n: usize, seed: u64, label: u64) -> Vec<Query> {
        self.queries(n.div_ceil(3) * 5, seed, label)
            .into_iter()
            .filter(|q| matches!(q.agg, AggKind::Sum | AggKind::Count | AggKind::Avg))
            .take(n)
            .collect()
    }
}

/// The 3-D taxi projection `batch_md` runs on.
pub fn table_md(rows: usize, seed: u64) -> Table {
    taxi(rows, seed)
        .project(&MD_DIMS)
        .expect("taxi has predicate columns 1..=3")
}

/// `n` template queries (SUM/COUNT/AVG interleaved, `n` a multiple of 3)
/// over the 3-D table; each dimension spans a 0.3–0.9 quantile range.
pub fn queries_md(table: &Table, n: usize, seed: u64) -> Vec<Query> {
    let per_agg = n / AggKind::SAMPLED.len();
    let streams: Vec<Vec<Query>> = AggKind::SAMPLED
        .iter()
        .enumerate()
        .map(|(i, &agg)| template_queries(table, per_agg + 1, agg, seed ^ (0x3D00 + i as u64)))
        .collect();
    let mut out: Vec<Query> = (0..=per_agg)
        .flat_map(|i| streams.iter().map(move |s| s[i].clone()))
        .collect();
    out.truncate(n);
    out
}

/// Ground truth per query, computed once. Extrema beyond
/// `extrema_truths` get `None` (see [`Sizes::extrema_truths`]), as does
/// an empty selection with no defined answer.
pub fn truths(oracle: &Truth, queries: &[Query], extrema_truths: usize) -> Vec<Option<f64>> {
    let mut extrema = 0;
    queries
        .iter()
        .map(|q| {
            if matches!(q.agg, AggKind::Min | AggKind::Max) {
                extrema += 1;
                if extrema > extrema_truths {
                    return None;
                }
            }
            oracle.eval(q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_deterministic_per_seed_and_interleave_aggregates() {
        let data = Data1d::generate(5_000, 7);
        let a = data.queries(50, 7, 1);
        assert_eq!(a, Data1d::generate(5_000, 7).queries(50, 7, 1));
        assert_ne!(a, data.queries(50, 8, 1));
        assert_ne!(a, data.queries(50, 7, 2));
        for (i, q) in a.iter().enumerate() {
            assert_eq!(q.agg, AggKind::ALL[i % 5]);
        }
        let t = table_md(3_000, 7);
        let m = queries_md(&t, 96, 7);
        assert_eq!(m.len(), 96);
        assert_eq!(m, queries_md(&table_md(3_000, 7), 96, 7));
        assert!(m.iter().all(|q| q.dims() == 3));
    }

    #[test]
    fn extrema_truths_are_capped_and_additive_truths_are_not() {
        let data = Data1d::generate(5_000, 3);
        let queries = data.queries(100, 3, 1);
        let t = truths(&Truth::new(&data.table), &queries, 4);
        let some = |agg: AggKind| {
            queries
                .iter()
                .zip(&t)
                .filter(|(q, t)| q.agg == agg && t.is_some())
                .count()
        };
        assert_eq!(some(AggKind::Sum), 20);
        assert_eq!(some(AggKind::Min) + some(AggKind::Max), 4);
    }
}
