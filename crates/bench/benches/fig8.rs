//! Figure 8: multi-dimensional query templates Q1–Q5 on the NYC Taxi
//! dataset — median CI ratio of KD-PASS vs KD-US (left panel) and the
//! average skip rate of KD-PASS (right panel).
//!
//! Template Q_i predicates on the first i of {pickup_time, pickup_date,
//! PULocationID, dropoff_date, dropoff_time}; the aggregate is
//! trip_distance (Section 5.4). 1024 leaves at paper scale. One
//! [`Session`] per template holds both engines.

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, pct, print_table, Scale};
use pass_common::{AggKind, PassSpec};
use pass_workload::{template_queries, WorkloadSummary};

const SAMPLE_RATE: f64 = 0.005;

fn main() {
    let scale = Scale::from_env();
    let leaves = if scale.label == "paper" { 1024 } else { 256 };
    let taxi = scale.taxi_full();
    println!(
        "Figure 8 reproduction (scale={}, n={}, {} queries/template, {leaves} leaves)",
        scale.label,
        taxi.n_rows(),
        scale.md_queries()
    );
    let mut all = Vec::<WorkloadSummary>::new();
    let mut ci_rows = Vec::new();
    let mut skip_rows = Vec::new();

    for dims in 1..=5usize {
        // Template Q_i: predicate columns 1..=i of the full taxi table.
        let template_dims: Vec<usize> = (1..=dims).collect();
        let table = taxi.project(&template_dims).unwrap();
        let queries = template_queries(&table, scale.md_queries(), AggKind::Avg, scale.seed);
        let base_k = ((table.n_rows() as f64) * SAMPLE_RATE).ceil() as usize;

        let session = Session::with_engines(
            table,
            &[
                (
                    "KD-PASS",
                    EngineSpec::Pass(PassSpec {
                        partitions: leaves,
                        sample_rate: SAMPLE_RATE,
                        kd_balance: 2,
                        seed: scale.seed,
                        name: Some("KD-PASS".to_owned()),
                        ..PassSpec::default()
                    }),
                ),
                (
                    "KD-US",
                    EngineSpec::aqppp(leaves, base_k).with_seed(scale.seed),
                ),
            ],
        )
        .expect("both engines build");

        let mut summaries = session.run_workload(&queries).into_iter();
        let mut s_pass = summaries.next().unwrap();
        let mut s_us = summaries.next().unwrap();
        ci_rows.push(vec![
            format!("{dims}D"),
            pct(s_pass.median_ci_ratio),
            pct(s_us.median_ci_ratio),
        ]);
        skip_rows.push(vec![
            format!("{dims}D"),
            format!("{:.4}", s_pass.mean_skip_rate),
        ]);
        s_pass.engine = format!("KD-PASS/{dims}D");
        s_us.engine = format!("KD-US/{dims}D");
        all.push(s_pass);
        all.push(s_us);
    }

    print_table(
        "Figure 8 (left): median CI ratio per query template",
        &["template", "KD-PASS", "KD-US"],
        &ci_rows,
    );
    print_table(
        "Figure 8 (right): KD-PASS average skip rate",
        &["template", "skip rate"],
        &skip_rows,
    );
    emit_json("fig8", &scale, &all);
}
