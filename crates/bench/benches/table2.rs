//! Table 2: end-to-end comparison of PASS-BSS{1x,2x,10x} with
//! VerdictDB-style (10% / 100% scrambles) and DeepDB-style (10% / 100%
//! training) engines: mean latency, storage, construction time, and median
//! relative error across the 1-D workloads and the NYC 2D–5D templates.
//!
//! All seven engines are declared as [`EngineSpec`]s and run through one
//! [`Session`] per workload.

use pass::{EngineSpec, Session};
use pass_bench::{emit_json, mb, pct, print_table, Scale};
use pass_common::{AggKind, PassSpec};
use pass_table::datasets::DatasetId;
use pass_table::{SortedTable, Table};
use pass_workload::{random_queries, template_queries, WorkloadSummary};

const SAMPLE_RATE: f64 = 0.005;
const PARTITIONS: usize = 64;

struct EngineStats {
    latency_us: Vec<f64>,
    storage: Vec<usize>,
    build_ms: Vec<f64>,
    errors: Vec<f64>, // per workload, in workload order
}

impl EngineStats {
    fn new() -> Self {
        Self {
            latency_us: Vec::new(),
            storage: Vec::new(),
            build_ms: Vec::new(),
            errors: Vec::new(),
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    println!(
        "Table 2 reproduction (scale={}, {} queries/workload)",
        scale.label,
        scale.md_queries()
    );
    let engine_names = [
        "PASS-BSS1x",
        "PASS-BSS2x",
        "PASS-BSS10x",
        "VerdictDB-10%",
        "VerdictDB-100%",
        "DeepDB-10%",
        "DeepDB-100%",
    ];
    let mut stats: Vec<EngineStats> = (0..engine_names.len())
        .map(|_| EngineStats::new())
        .collect();
    let mut all = Vec::<WorkloadSummary>::new();

    // Workloads: three 1-D datasets + NYC 2D..5D templates.
    let taxi = scale.taxi_full();
    let mut workloads: Vec<(String, Table)> = DatasetId::ALL
        .into_iter()
        .map(|id| (id.name().to_string(), scale.dataset(id)))
        .collect();
    for d in 2..=5usize {
        let dims: Vec<usize> = (1..=d).collect();
        workloads.push((format!("NYC-{d}D"), taxi.project(&dims).unwrap()));
    }

    for (wl_name, table) in &workloads {
        let n = table.n_rows();
        let queries = if table.dims() == 1 {
            let sorted = SortedTable::from_table(table, 0);
            random_queries(
                &sorted,
                scale.md_queries(),
                AggKind::Sum,
                (n / 100).max(10),
                scale.seed,
            )
        } else {
            template_queries(table, scale.md_queries(), AggKind::Sum, scale.seed)
        };
        let base_k = ((n as f64) * SAMPLE_RATE).ceil() as usize;

        let pass_bss = |name: &str, mult: usize| {
            EngineSpec::Pass(PassSpec {
                partitions: PARTITIONS,
                total_samples: Some(mult * base_k),
                seed: scale.seed,
                name: Some(name.to_owned()),
                ..PassSpec::default()
            })
        };
        let session = Session::with_engines(
            table.clone(),
            &[
                ("PASS-BSS1x", pass_bss("PASS-BSS1x", 1)),
                ("PASS-BSS2x", pass_bss("PASS-BSS2x", 2)),
                ("PASS-BSS10x", pass_bss("PASS-BSS10x", 10)),
                (
                    "VerdictDB-10%",
                    EngineSpec::verdict(0.1).with_seed(scale.seed),
                ),
                (
                    "VerdictDB-100%",
                    EngineSpec::verdict(1.0).with_seed(scale.seed),
                ),
                ("DeepDB-10%", EngineSpec::spn(0.1).with_seed(scale.seed)),
                ("DeepDB-100%", EngineSpec::spn(1.0).with_seed(scale.seed)),
            ],
        )
        .expect("all engines build");

        for (idx, mut summary) in session.run_workload(&queries).into_iter().enumerate() {
            stats[idx].latency_us.push(summary.mean_latency_us);
            stats[idx].storage.push(summary.storage_bytes);
            stats[idx].build_ms.push(summary.build_ms);
            stats[idx].errors.push(summary.median_relative_error);
            summary.engine = format!("{}/{}", engine_names[idx], wl_name);
            all.push(summary);
        }
    }

    let mut rows = Vec::new();
    for (idx, name) in engine_names.iter().enumerate() {
        let st = &stats[idx];
        let nwl = st.errors.len() as f64;
        let mut row = vec![
            name.to_string(),
            format!("{:.2}ms", st.latency_us.iter().sum::<f64>() / nwl / 1e3),
            mb((st.storage.iter().sum::<usize>() as f64 / nwl) as usize),
            format!("{:.2}s", st.build_ms.iter().sum::<f64>() / nwl / 1e3),
        ];
        row.extend(st.errors.iter().map(|&e| pct(e)));
        rows.push(row);
    }
    let mut headers: Vec<String> = vec![
        "Approach".into(),
        "Latency".into(),
        "Storage".into(),
        "Time".into(),
    ];
    headers.extend(workloads.iter().map(|(n, _)| n.clone()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        "Table 2: mean cost and median relative error per workload",
        &header_refs,
        &rows,
    );
    emit_json("table2", &scale, &all);
}
