//! Ablation study of PASS's design choices (the Section 3.4 optimizations
//! and the partitioning objective), beyond the paper's own figures:
//!
//! * 0-variance rule on/off — AVG accuracy and skip rate on data with
//!   constant regions (Intel nights);
//! * delta-encoded samples on/off — storage vs. accuracy;
//! * partitioning strategy — ADP vs hill-climbing vs equal-depth vs
//!   equal-width under one fixed budget.
//!
//! Every variant is one [`PassSpec`] knob flipped; each panel is a
//! [`Session`] of named variants evaluated by one `Session::run_workload`.

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, mb, pct, print_table, Scale};
use pass_common::{AggKind, PartitionStrategy, PassSpec};
use pass_table::datasets::DatasetId;
use pass_table::SortedTable;
use pass_workload::{random_queries, WorkloadSummary};

const PARTITIONS: usize = 64;
const SAMPLE_RATE: f64 = 0.005;

fn main() {
    let scale = Scale::from_env();
    println!(
        "Ablation study (scale={}, {} queries/workload, k={PARTITIONS}, rate=0.5%)",
        scale.label, scale.queries
    );
    let mut all = Vec::<WorkloadSummary>::new();

    // --- 0-variance rule: AVG queries on the adversarial dataset, whose
    // 87.5% constant-zero prefix guarantees zero-variance leaves (constant
    // runs must exceed leaf spans for the rule to bind at all).
    let adv = scale.adversarial();
    let sorted = SortedTable::from_table(&adv, 0);
    let queries = random_queries(
        &sorted,
        scale.queries,
        AggKind::Avg,
        (adv.n_rows() / 200).max(10),
        scale.seed,
    );
    // Equal-depth partitioning: its leaves sit fully inside the constant
    // region, so the rule has constant partitions to fire on. (ADP's
    // sampled boundary drags a few tail rows into the zero leaf, which
    // already suppresses the rule — an interaction worth knowing.)
    let zero_var_spec = |rule: bool| {
        EngineSpec::Pass(PassSpec {
            partitions: PARTITIONS,
            sample_rate: SAMPLE_RATE,
            strategy: PartitionStrategy::EqualDepth,
            zero_variance_rule: rule,
            seed: scale.seed,
            ..PassSpec::default()
        })
    };
    let labels = ["0-variance rule ON", "0-variance rule OFF"];
    let session = Session::with_engines(
        adv,
        &[
            (labels[0], zero_var_spec(true)),
            (labels[1], zero_var_spec(false)),
        ],
    )
    .expect("variants build");
    let mut rows = Vec::new();
    for (label, mut s) in labels.iter().zip(session.run_workload(&queries)) {
        rows.push(vec![
            label.to_string(),
            pct(s.median_relative_error),
            pct(s.median_ci_ratio),
            format!("{:.1}", s.mean_tuples_processed),
            format!("{:.4}", s.mean_skip_rate),
        ]);
        s.engine = label.to_string();
        all.push(s);
    }
    print_table(
        "Ablation A — 0-variance rule (AVG on adversarial data)",
        &[
            "variant",
            "median RE",
            "median CI",
            "mean tuples/query",
            "skip rate",
        ],
        &rows,
    );

    // --- Delta encoding: storage vs accuracy on NYC.
    let nyc = scale.dataset(DatasetId::NycTaxi);
    let sorted = SortedTable::from_table(&nyc, 0);
    let queries = random_queries(
        &sorted,
        scale.queries,
        AggKind::Sum,
        (nyc.n_rows() / 100).max(10),
        scale.seed,
    );
    let delta_spec = |delta: bool| {
        EngineSpec::Pass(PassSpec {
            partitions: PARTITIONS,
            sample_rate: 0.02,
            delta_encode: delta,
            seed: scale.seed,
            ..PassSpec::default()
        })
    };
    let labels = ["plain f64 samples", "delta-encoded (f32)"];
    let session = Session::with_engines(
        nyc,
        &[
            (labels[0], delta_spec(false)),
            (labels[1], delta_spec(true)),
        ],
    )
    .expect("variants build");
    let mut rows = Vec::new();
    for (label, mut s) in labels.iter().zip(session.run_workload(&queries)) {
        rows.push(vec![
            label.to_string(),
            mb(s.storage_bytes),
            pct(s.median_relative_error),
        ]);
        s.engine = label.to_string();
        all.push(s);
    }
    print_table(
        "Ablation B — delta-encoded samples (SUM on NYC, 2% rate)",
        &["variant", "storage", "median RE"],
        &rows,
    );

    // --- Partitioning strategies under one budget (SUM on Instacart).
    let insta = scale.dataset(DatasetId::Instacart);
    let sorted = SortedTable::from_table(&insta, 0);
    let queries = random_queries(
        &sorted,
        scale.queries,
        AggKind::Sum,
        (insta.n_rows() / 100).max(10),
        scale.seed,
    );
    let variants = [
        ("ADP (paper)", PartitionStrategy::Adp(AggKind::Sum)),
        ("hill climbing", PartitionStrategy::HillClimb),
        ("equal depth", PartitionStrategy::EqualDepth),
        ("equal width", PartitionStrategy::EqualWidth),
    ];
    let engines: Vec<(&str, EngineSpec)> = variants
        .iter()
        .map(|&(label, strategy)| {
            (
                label,
                EngineSpec::Pass(PassSpec {
                    partitions: PARTITIONS,
                    sample_rate: SAMPLE_RATE,
                    strategy,
                    seed: scale.seed,
                    ..PassSpec::default()
                }),
            )
        })
        .collect();
    let session = Session::with_engines(insta, &engines).expect("variants build");
    let mut rows = Vec::new();
    for ((label, _), mut s) in variants.iter().zip(session.run_workload(&queries)) {
        rows.push(vec![
            label.to_string(),
            pct(s.median_relative_error),
            pct(s.median_ci_ratio),
        ]);
        s.engine = label.to_string();
        all.push(s);
    }
    print_table(
        "Ablation C — partitioning strategy (SUM on Instacart)",
        &["strategy", "median RE", "median CI"],
        &rows,
    );

    emit_json("ablation", &scale, &all);
}
