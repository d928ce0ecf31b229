//! Table 3: preprocessing cost, mean/max query latency, and median
//! relative error as a function of the partition count k on the NYC Taxi
//! dataset (Section 5.4.2).
//!
//! One [`Session`] holds the whole k-sweep: each k is a named engine
//! (`k=4` ... `k=128`) declared as an [`EngineSpec`], and one
//! `Session::run_workload` call evaluates the sweep with a shared truth pass.

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, pct, print_table, Scale};
use pass_common::{AggKind, PassSpec};
use pass_table::datasets::DatasetId;
use pass_table::SortedTable;
use pass_workload::{random_queries, WorkloadSummary};

const K_SWEEP: [usize; 6] = [4, 8, 16, 32, 64, 128];
const SAMPLE_RATE: f64 = 0.005;

fn main() {
    let scale = Scale::from_env();
    let table = scale.dataset(DatasetId::NycTaxi);
    let n = table.n_rows();
    println!(
        "Table 3 reproduction (scale={}, NYC n={n}, {} SUM queries)",
        scale.label, scale.queries
    );
    let sorted = SortedTable::from_table(&table, 0);
    let queries = random_queries(
        &sorted,
        scale.queries,
        AggKind::Sum,
        (n / 100).max(10),
        scale.seed,
    );

    // The paper uses an optimization sample rate of 0.0025% on 7.7M rows
    // (~192 samples); keep the absolute sample size comparable at ci scale.
    let opt_samples = ((n as f64) * 0.000025).round().max(192.0) as usize;

    let engines: Vec<(String, EngineSpec)> = K_SWEEP
        .into_iter()
        .map(|k| {
            (
                format!("k={k}"),
                EngineSpec::Pass(PassSpec {
                    partitions: k,
                    sample_rate: SAMPLE_RATE,
                    opt_samples,
                    seed: scale.seed,
                    ..PassSpec::default()
                }),
            )
        })
        .collect();
    let engine_refs: Vec<(&str, EngineSpec)> = engines
        .iter()
        .map(|(name, spec)| (name.as_str(), spec.clone()))
        .collect();
    let session = Session::with_engines(table, &engine_refs).expect("sweep builds");

    let mut all = Vec::<WorkloadSummary>::new();
    let mut rows = Vec::new();
    for (k, mut s) in K_SWEEP.into_iter().zip(session.run_workload(&queries)) {
        rows.push(vec![
            k.to_string(),
            format!("{:.2}s", s.build_ms / 1e3),
            format!("{:.3}ms", s.mean_latency_us / 1e3),
            format!("{:.3}ms", s.max_latency_us / 1e3),
            pct(s.median_relative_error),
        ]);
        s.engine = format!("PASS/k={k}");
        all.push(s);
    }
    print_table(
        "Table 3: preprocessing cost / latency / accuracy vs k (NYC Taxi)",
        &["k", "Cost", "Latency", "MaxLatency", "MedianRE"],
        &rows,
    );
    emit_json("table3", &scale, &all);
}
