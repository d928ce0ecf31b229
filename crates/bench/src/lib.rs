//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper's Section 5 has its own bench
//! target (`cargo bench -p pass-bench --bench table1`, `--bench fig3`,
//! ...). Each prints the same rows/series the paper reports and drops a
//! JSON record under `target/bench-results/` for EXPERIMENTS.md.
//!
//! Two scales are supported via the `PASS_SCALE` environment variable:
//!
//! * `ci` (default) — reduced dataset sizes and query counts so the whole
//!   suite finishes in minutes on a laptop;
//! * `paper` — the paper's row counts (3M / 1.4M / 7.7M) and 2000-query
//!   workloads.
//!
//! The table *formats* are identical at both scales.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::time::Instant;

use pass_common::Json;
use pass_table::datasets::DatasetId;
use pass_table::Table;
use pass_workload::WorkloadSummary;

/// Benchmark scale parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Label printed in headers ("ci" / "paper").
    pub label: &'static str,
    /// Fraction of the paper's dataset sizes to generate.
    pub rows_factor: f64,
    /// Queries per workload (paper: 2000; multi-d: 1000).
    pub queries: usize,
    /// Seed shared by every bench (tables regenerate identically).
    pub seed: u64,
}

impl Scale {
    /// Read the scale from `PASS_SCALE` (default `ci`).
    pub fn from_env() -> Self {
        match std::env::var("PASS_SCALE").as_deref() {
            Ok("paper") => Scale {
                label: "paper",
                rows_factor: 1.0,
                queries: 2_000,
                seed: 0xB135,
            },
            _ => Scale {
                label: "ci",
                rows_factor: 0.04,
                queries: 300,
                seed: 0xB135,
            },
        }
    }

    /// Row count for one of the three paper datasets at this scale.
    pub fn rows_for(&self, id: DatasetId) -> usize {
        ((id.paper_rows() as f64) * self.rows_factor)
            .round()
            .max(10_000.0) as usize
    }

    /// Generate a 1-D paper dataset at this scale.
    pub fn dataset(&self, id: DatasetId) -> Table {
        id.generate(self.rows_for(id), self.seed)
    }

    /// Generate the full multi-column taxi table at this scale.
    pub fn taxi_full(&self) -> Table {
        pass_table::datasets::taxi(self.rows_for(DatasetId::NycTaxi), self.seed)
    }

    /// The adversarial dataset (paper: 1M rows) at this scale. The ci
    /// floor is higher than for the real datasets: with 128 partitions and
    /// a 0.5% sampling rate, strata need enough rows that per-leaf samples
    /// keep a measurable variance (the quantity Figure 6 plots).
    pub fn adversarial(&self) -> Table {
        let rows = ((1_000_000.0 * self.rows_factor) as usize).max(250_000);
        pass_table::datasets::adversarial(rows, self.seed)
    }

    /// Multi-dimensional query count (paper: 1000).
    pub fn md_queries(&self) -> usize {
        (self.queries / 2).max(50)
    }
}

/// Run a closure, returning its output and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Print a fixed-width table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// Format a relative error / ratio as a percentage with sensible digits.
pub fn pct(x: f64) -> String {
    if !x.is_finite() {
        return "n/a".into();
    }
    if x.abs() < 0.0001 {
        format!("{:.4}%", x * 100.0)
    } else if x.abs() < 0.01 {
        format!("{:.3}%", x * 100.0)
    } else {
        format!("{:.2}%", x * 100.0)
    }
}

/// Format bytes as MB.
pub fn mb(bytes: usize) -> String {
    format!("{:.2}MB", bytes as f64 / 1_048_576.0)
}

/// Write bench results as JSON for EXPERIMENTS.md assembly.
pub fn emit_json(bench: &str, scale: &Scale, summaries: &[WorkloadSummary]) {
    let payload = Json::obj([
        ("bench", Json::from(bench)),
        ("scale", Json::from(scale.label)),
        (
            "results",
            Json::Arr(summaries.iter().map(WorkloadSummary::to_json).collect()),
        ),
    ]);
    write_record(bench, scale, &payload);
}

/// Write one bench's JSON record to
/// `target/bench-results/<bench>.<scale>.json`.
pub fn write_record(bench: &str, scale: &Scale, payload: &Json) {
    // Anchor at the workspace target dir regardless of the CWD cargo gives
    // bench binaries (package dir under `--workspace`, workspace root when
    // invoked with `-p`).
    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root");
    let dir = workspace_root.join("target/bench-results");
    let dir = dir.as_path();
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{bench}.{}.json", scale.label));
    let Ok(mut file) = std::fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(file, "{}", payload.pretty());
    println!("[results written to {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_scale_defaults() {
        let s = Scale::from_env();
        assert_eq!(s.label, "ci");
        assert!(s.rows_for(DatasetId::Intel) >= 10_000);
        assert!(s.queries >= 50);
    }

    #[test]
    fn timed_measures() {
        let (v, ms) = timed(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(ms >= 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.05), "5.00%");
        assert_eq!(pct(0.0005), "0.050%");
        assert_eq!(mb(1_048_576), "1.00MB");
    }
}
