//! Figure 6: ADP vs equal-depth partitioning (EQ) on the synthetic
//! adversarial dataset — median CI ratio for random queries over the whole
//! dataset and for challenging queries over the volatile tail, across
//! partition counts {4..128}.
//!
//! Both strategies are PASS engines differing only in their
//! [`PassSpec::strategy`], declared through one [`Session`].

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, pct, print_table, Scale};
use pass_common::{AggKind, PartitionStrategy, PassSpec};
use pass_table::datasets::tail_start;
use pass_table::SortedTable;
use pass_workload::{random_queries, random_queries_in, WorkloadSummary};

const PARTITION_SWEEP: [usize; 6] = [4, 8, 16, 32, 64, 128];
const SAMPLE_RATE: f64 = 0.005;

fn main() {
    let scale = Scale::from_env();
    let table = scale.adversarial();
    let n = table.n_rows();
    println!(
        "Figure 6 reproduction (scale={}, adversarial n={n}, {} queries/workload)",
        scale.label, scale.queries
    );
    let sorted = SortedTable::from_table(&table, 0);
    let mut all = Vec::<WorkloadSummary>::new();

    let random = random_queries(
        &sorted,
        scale.queries,
        AggKind::Sum,
        (n / 100).max(10),
        scale.seed,
    );
    // Challenging workload: queries confined to the normal-distributed tail.
    let tail = tail_start(n);
    let challenging = random_queries_in(
        &sorted,
        tail..n,
        scale.queries,
        AggKind::Sum,
        ((n - tail) / 50).max(5),
        scale.seed + 1,
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

    for (wl_name, queries) in [
        ("Random Queries", &random),
        ("Challenging Queries", &challenging),
    ] {
        let mut rows = Vec::new();
        for parts in PARTITION_SWEEP {
            session
                .add_engine(
                    "ADP",
                    &strategy_spec("ADP", PartitionStrategy::Adp(AggKind::Sum), parts),
                )
                .unwrap();
            session
                .add_engine(
                    "EQ",
                    &strategy_spec("EQ", PartitionStrategy::EqualDepth, parts),
                )
                .unwrap();
            let mut row = vec![parts.to_string()];
            for mut s in session.run_workload(queries) {
                row.push(pct(s.median_ci_ratio));
                s.engine = format!("{}/{}/k={}", s.engine, wl_name, parts);
                all.push(s);
            }
            rows.push(row);
        }
        print_table(
            &format!("Figure 6 — {wl_name}: median CI ratio vs #partitions"),
            &["#partitions", "ADP", "EQ"],
            &rows,
        );
    }
    emit_json("fig6", &scale, &all);
}
