//! Figure 3: median relative error of random SUM queries vs the number of
//! partitions {4..128}, fixed 0.5% sample rate, on the three datasets.
//!
//! One [`Session`] per dataset; the sweep re-declares the partitioned
//! engines per point (replace-by-name, which also replaces their caches)
//! while US stays fixed. US's query cache is cleared each point instead:
//! the workload repeats identically across the sweep, and without the
//! reset the per-point US latency/throughput columns would measure cache
//! lookups rather than the engine.

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, pct, print_table, Scale};
use pass_common::{AggKind, PassSpec};
use pass_table::datasets::DatasetId;
use pass_table::SortedTable;
use pass_workload::{random_queries, WorkloadSummary};

const PARTITION_SWEEP: [usize; 6] = [4, 8, 16, 32, 64, 128];
const SAMPLE_RATE: f64 = 0.005;

fn main() {
    let scale = Scale::from_env();
    println!(
        "Figure 3 reproduction (scale={}, {} SUM queries, rate=0.5%)",
        scale.label, scale.queries
    );
    let mut all = Vec::<WorkloadSummary>::new();

    for id in DatasetId::ALL {
        let table = scale.dataset(id);
        let sorted = SortedTable::from_table(&table, 0);
        let n = table.n_rows();
        let base_k = ((n as f64) * SAMPLE_RATE).ceil() as usize;
        let queries = random_queries(
            &sorted,
            scale.queries,
            AggKind::Sum,
            (n / 100).max(10),
            scale.seed,
        );

        // US has no partitioning knob: one flat series value, scored while
        // it is the session's only engine.
        let mut session = Session::new(table);
        session
            .add_engine("US", &EngineSpec::uniform(base_k).with_seed(scale.seed))
            .unwrap();
        let mut us_summary = session.run_workload(&queries).remove(0);
        let us_median = us_summary.median_relative_error;
        us_summary.engine = format!("US/{id}");
        all.push(us_summary);

        let mut rows = Vec::new();
        for parts in PARTITION_SWEEP {
            session.clear_cache("US").unwrap();
            session
                .add_engine(
                    "PASS",
                    &EngineSpec::Pass(PassSpec {
                        partitions: parts,
                        sample_rate: SAMPLE_RATE,
                        seed: scale.seed,
                        ..PassSpec::default()
                    }),
                )
                .unwrap();
            session
                .add_engine(
                    "ST",
                    &EngineSpec::stratified(parts, base_k).with_seed(scale.seed),
                )
                .unwrap();
            session
                .add_engine(
                    "AQP++",
                    &EngineSpec::aqppp(parts, base_k).with_seed(scale.seed),
                )
                .unwrap();
            // Rows come in insertion order (US, PASS, ST, AQP++); the
            // figure's series order puts PASS first.
            let mut summaries = session.run_workload(&queries);
            summaries.swap(0, 1);
            let mut row = vec![parts.to_string()];
            for mut s in summaries {
                row.push(pct(s.median_relative_error));
                s.engine = format!("{}/{}/k={}", s.engine, id, parts);
                all.push(s);
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "Figure 3 — {id}: median relative error vs #partitions (US flat at {})",
                pct(us_median)
            ),
            &["#partitions", "PASS", "US", "ST", "AQP++"],
            &rows,
        );
    }
    emit_json("fig3", &scale, &all);
}
