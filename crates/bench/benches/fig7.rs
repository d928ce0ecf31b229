//! Figure 7: ADP vs equal-depth partitioning on challenging queries (drawn
//! around the maximum-variance window located by the fast discretization
//! method) for the three real-life datasets, across partition counts.
//!
//! Both strategies are PASS engines differing only in their
//! [`PassSpec::strategy`], declared through one [`Session`] per dataset.

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, pct, print_table, Scale};
use pass_common::{AggKind, PartitionStrategy, PassSpec};
use pass_table::datasets::DatasetId;
use pass_table::SortedTable;
use pass_workload::{challenging_queries, WorkloadSummary};

const PARTITION_SWEEP: [usize; 6] = [4, 8, 16, 32, 64, 128];
const SAMPLE_RATE: f64 = 0.005;

fn main() {
    let scale = Scale::from_env();
    println!(
        "Figure 7 reproduction (scale={}, {} challenging queries/dataset)",
        scale.label, scale.queries
    );
    let mut all = Vec::<WorkloadSummary>::new();

    for id in DatasetId::ALL {
        let table = scale.dataset(id);
        let sorted = SortedTable::from_table(&table, 0);
        // AVG queries: the challenging workload targets the max-variance
        // window the AVG discretization identifies, and ADP optimizes the
        // same objective (Appendix A.4).
        let queries = challenging_queries(
            &sorted,
            scale.queries,
            AggKind::Avg,
            4_096,
            0.01,
            scale.seed,
        );
        let mut session = Session::new(table);

        let strategy_spec = |name: &str, strategy: PartitionStrategy, parts: usize| {
            EngineSpec::Pass(PassSpec {
                partitions: parts,
                sample_rate: SAMPLE_RATE,
                strategy,
                seed: scale.seed,
                name: Some(name.to_owned()),
                ..PassSpec::default()
            })
        };

        let mut rows = Vec::new();
        for parts in PARTITION_SWEEP {
            session
                .add_engine(
                    "ADP",
                    &strategy_spec("ADP", PartitionStrategy::Adp(AggKind::Avg), parts),
                )
                .unwrap();
            session
                .add_engine(
                    "EQ",
                    &strategy_spec("EQ", PartitionStrategy::EqualDepth, parts),
                )
                .unwrap();
            let mut row = vec![parts.to_string()];
            for mut s in session.run_workload(&queries) {
                row.push(pct(s.median_ci_ratio));
                s.engine = format!("{}/{}/k={}", s.engine, id, parts);
                all.push(s);
            }
            rows.push(row);
        }
        print_table(
            &format!("Figure 7 — {id}: median CI ratio on challenging queries"),
            &["#partitions", "ADP", "EQ"],
            &rows,
        );
    }
    emit_json("fig7", &scale, &all);
}
