//! Figure 9: workload shift — the aggregates built for the 2-D template
//! (Q2) answer query templates Q1–Q5. KD-PASS can still skip aggressively
//! via the shared attributes; KD-US's precomputed aggregates degrade.
//!
//! Left panel: median CI ratio of KD-PASS vs KD-US; right panel: KD-PASS
//! skip rate (Section 5.4.1). Both shifted builds are declared via
//! `tree_dims` in their [`EngineSpec`]s and run through one [`Session`].

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, pct, print_table, Scale};
use pass_common::{AggKind, PassSpec};
use pass_workload::{template_queries_partial, WorkloadSummary};

const SAMPLE_RATE: f64 = 0.005;

fn main() {
    let scale = Scale::from_env();
    let leaves = if scale.label == "paper" { 1024 } else { 256 };
    // The full 5-predicate template table (taxi dims 1..=5).
    let table = scale.taxi_full().project(&[1, 2, 3, 4, 5]).unwrap();
    println!(
        "Figure 9 reproduction (scale={}, n={}, {} queries/template, {leaves} leaves, 2D tree)",
        scale.label,
        table.n_rows(),
        scale.md_queries()
    );
    let base_k = ((table.n_rows() as f64) * SAMPLE_RATE).ceil() as usize;

    // Both synopses index only the Q2 attributes (dims 0 and 1 of this
    // table) but sample in full 5-predicate arity.
    let session = Session::with_engines(
        table,
        &[
            (
                "KD-PASS",
                EngineSpec::Pass(PassSpec {
                    partitions: leaves,
                    sample_rate: SAMPLE_RATE,
                    tree_dims: Some(vec![0, 1]),
                    seed: scale.seed,
                    name: Some("KD-PASS".to_owned()),
                    ..PassSpec::default()
                }),
            ),
            (
                "KD-US",
                EngineSpec::AqpPlusPlus {
                    partitions: leaves,
                    k: base_k,
                    seed: scale.seed,
                    tree_dims: Some(vec![0, 1]),
                },
            ),
        ],
    )
    .expect("shifted engines build");

    let mut all = Vec::<WorkloadSummary>::new();
    let mut ci_rows = Vec::new();
    let mut skip_rows = Vec::new();
    for dims in 1..=5usize {
        let queries = template_queries_partial(
            session.table(),
            dims,
            scale.md_queries(),
            AggKind::Avg,
            scale.seed,
        );
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
        s_pass.engine = format!("KD-PASS(2D)/{dims}D");
        s_us.engine = format!("KD-US(2D)/{dims}D");
        all.push(s_pass);
        all.push(s_us);
    }

    print_table(
        "Figure 9 (left): median CI ratio, 2D aggregates answering Q1–Q5",
        &["template", "KD-PASS", "KD-US"],
        &ci_rows,
    );
    print_table(
        "Figure 9 (right): KD-PASS skip rate under workload shift",
        &["template", "skip rate"],
        &skip_rows,
    );
    emit_json("fig9", &scale, &all);
}
