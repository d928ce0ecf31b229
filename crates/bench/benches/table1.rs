//! Table 1: median relative error of US / ST / AQP++ / PASS-ESS /
//! PASS-BSS2x / PASS-BSS10x for COUNT / SUM / AVG on the three datasets,
//! plus mean construction cost.
//!
//! Setup per Section 5.1.3: 0.5% sampling rate, 64 partitions, λ = 2.576,
//! random queries per aggregate. All engines are declared as
//! [`EngineSpec`]s and run through one [`Session`].

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, pct, print_table, Scale};
use pass_common::{AggKind, PassSpec};
use pass_table::datasets::DatasetId;
use pass_table::SortedTable;
use pass_workload::{random_queries, WorkloadSummary};

const PARTITIONS: usize = 64;
const SAMPLE_RATE: f64 = 0.005;

#[allow(clippy::needless_range_loop)] // 3×3 result grid is clearest indexed
fn main() {
    let scale = Scale::from_env();
    println!(
        "Table 1 reproduction (scale={}, {} queries/agg, rate=0.5%, k={PARTITIONS})",
        scale.label, scale.queries
    );

    let engines = ["US", "ST", "AQP++", "PASS-ESS", "PASS-BSS2x", "PASS-BSS10x"];
    // errors[engine][agg][dataset]
    let mut errors = vec![vec![vec![0.0f64; 3]; 3]; engines.len()];
    let mut build_ms = vec![0.0f64; engines.len()];
    let mut all_summaries: Vec<WorkloadSummary> = Vec::new();

    for (d_idx, id) in DatasetId::ALL.into_iter().enumerate() {
        let table = scale.dataset(id);
        let sorted = SortedTable::from_table(&table, 0);
        let n = table.n_rows();
        let base_k = ((n as f64) * SAMPLE_RATE).ceil() as usize;
        let min_rows = (n / 100).max(10);

        // ESS mode: control tuples *processed per query* rather than
        // stored. A 1-D query partially overlaps ≤ 2 of the k leaves, so
        // PASS can store ~k/2 times more samples than US while touching
        // the same number per query (Section 5.1.4's point that "data
        // skipping could allow one to include more samples into the
        // synopsis").
        let ess_rate = (SAMPLE_RATE * PARTITIONS as f64 / 2.0).min(0.5);
        let pass_spec = |name: &str, rate: f64, total: Option<usize>| {
            EngineSpec::Pass(PassSpec {
                partitions: PARTITIONS,
                sample_rate: rate,
                total_samples: total,
                seed: scale.seed,
                name: Some(name.to_owned()),
                ..PassSpec::default()
            })
        };
        let session = Session::with_engines(
            table,
            &[
                ("US", EngineSpec::uniform(base_k).with_seed(scale.seed)),
                (
                    "ST",
                    EngineSpec::stratified(PARTITIONS, base_k).with_seed(scale.seed),
                ),
                (
                    "AQP++",
                    EngineSpec::aqppp(PARTITIONS, base_k).with_seed(scale.seed),
                ),
                ("PASS-ESS", pass_spec("PASS-ESS", ess_rate, None)),
                (
                    "PASS-BSS2x",
                    pass_spec("PASS-BSS2x", SAMPLE_RATE, Some(2 * base_k)),
                ),
                (
                    "PASS-BSS10x",
                    pass_spec("PASS-BSS10x", SAMPLE_RATE, Some(10 * base_k)),
                ),
            ],
        )
        .expect("all engines build");
        for (e_idx, name) in engines.iter().enumerate() {
            build_ms[e_idx] += session.build_ms(name).unwrap() / 3.0;
        }

        for (a_idx, agg) in [AggKind::Count, AggKind::Sum, AggKind::Avg]
            .into_iter()
            .enumerate()
        {
            let queries = random_queries(
                &sorted,
                scale.queries,
                agg,
                min_rows,
                scale.seed + a_idx as u64,
            );
            // One call evaluates every engine with a shared truth pass.
            for (e_idx, mut summary) in session.run_workload(&queries).into_iter().enumerate() {
                summary.engine = format!("{}/{}/{}", engines[e_idx], agg, id);
                errors[e_idx][a_idx][d_idx] = summary.median_relative_error;
                all_summaries.push(summary);
            }
        }
    }

    let mut rows = Vec::new();
    for (e_idx, name) in engines.iter().enumerate() {
        let mut row = vec![name.to_string(), format!("{:.2}s", build_ms[e_idx] / 1e3)];
        for a in 0..3 {
            for d in 0..3 {
                row.push(pct(errors[e_idx][a][d]));
            }
        }
        rows.push(row);
    }
    print_table(
        "Table 1: median relative error (COUNT | SUM | AVG × Intel, Insta, NYC)",
        &[
            "Approach",
            "MeanCost",
            "COUNT/Intel",
            "COUNT/Insta",
            "COUNT/NYC",
            "SUM/Intel",
            "SUM/Insta",
            "SUM/NYC",
            "AVG/Intel",
            "AVG/Insta",
            "AVG/NYC",
        ],
        &rows,
    );
    emit_json("table1", &scale, &all_summaries);
}
