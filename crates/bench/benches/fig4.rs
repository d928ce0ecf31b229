//! Figure 4: median relative error of random SUM queries vs sample rate
//! {10%..100%}, fixed 64 partitions, on the three datasets.
//!
//! One [`Session`] per dataset; the four engines are re-declared per rate
//! (replace-by-name) and evaluated with a shared truth oracle.

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, pct, print_table, Scale};
use pass_common::{AggKind, PassSpec};
use pass_table::datasets::DatasetId;
use pass_table::SortedTable;
use pass_workload::{random_queries, WorkloadSummary};

const PARTITIONS: usize = 64;
const RATES: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

fn main() {
    let scale = Scale::from_env();
    println!(
        "Figure 4 reproduction (scale={}, {} SUM queries, k={PARTITIONS})",
        scale.label, scale.queries
    );
    let mut all = Vec::<WorkloadSummary>::new();

    for id in DatasetId::ALL {
        let table = scale.dataset(id);
        let sorted = SortedTable::from_table(&table, 0);
        let n = table.n_rows();
        let queries = random_queries(
            &sorted,
            scale.queries,
            AggKind::Sum,
            (n / 100).max(10),
            scale.seed,
        );
        let mut session = Session::new(table);

        let mut rows = Vec::new();
        for rate in RATES {
            let k = ((n as f64) * rate).ceil() as usize;
            session
                .add_engine(
                    "PASS",
                    &EngineSpec::Pass(PassSpec {
                        partitions: PARTITIONS,
                        sample_rate: rate,
                        seed: scale.seed,
                        ..PassSpec::default()
                    }),
                )
                .unwrap();
            session
                .add_engine("US", &EngineSpec::uniform(k).with_seed(scale.seed))
                .unwrap();
            session
                .add_engine(
                    "ST",
                    &EngineSpec::stratified(PARTITIONS, k).with_seed(scale.seed),
                )
                .unwrap();
            session
                .add_engine(
                    "AQP++",
                    &EngineSpec::aqppp(PARTITIONS, k).with_seed(scale.seed),
                )
                .unwrap();
            let mut row = vec![format!("{:.0}%", rate * 100.0)];
            for mut s in session.run_workload(&queries) {
                row.push(pct(s.median_relative_error));
                s.engine = format!("{}/{}/rate={rate}", s.engine, id);
                all.push(s);
            }
            rows.push(row);
        }
        print_table(
            &format!("Figure 4 — {id}: median relative error vs sample rate"),
            &["rate", "PASS", "US", "ST", "AQP++"],
            &rows,
        );
    }
    emit_json("fig4", &scale, &all);
}
