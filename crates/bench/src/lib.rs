//! Shared harness for the paper-reproduction benchmarks: the `paper`
//! bench target (every table and figure of the paper's Section 5) and
//! `micro_join` (the JOIN engine sweep). Each prints the rows the paper
//! reports and drops a JSON record under `target/bench-results/`.
//!
//! `PASS_SCALE` picks the scale: `ci` (the default) shrinks datasets and
//! query counts so the whole suite finishes in minutes on a laptop;
//! `paper` uses the paper's row counts (3M / 1.4M / 7.7M) and 2000-query
//! workloads. Any other value is an error. The table *formats* are
//! identical at both scales.

#![forbid(unsafe_code)]

use std::io::Write as _;

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
    /// Read the scale from `PASS_SCALE`; a value [`parse`](Self::parse)
    /// rejects ends the run with its message.
    pub fn from_env() -> Self {
        let value = std::env::var_os("PASS_SCALE");
        let value = value.as_ref().map(|v| v.to_string_lossy());
        Self::parse(value.as_deref()).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
    }

    /// The scale a `PASS_SCALE` value names: `ci` when unset, `ci` or
    /// `paper` when set, and an error for anything else.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        let (label, rows_factor, queries) = match value {
            None | Some("ci") => ("ci", 0.04, 300),
            Some("paper") => ("paper", 1.0, 2_000),
            Some(other) => return Err(format!("PASS_SCALE={other:?}: use `ci` or `paper`")),
        };
        Ok(Scale {
            label,
            rows_factor,
            queries,
            seed: 0xB135,
        })
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

/// Write an artifact's summaries as its JSON record ([`write_record`]).
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
    let path = dir.join(format!("{bench}.{}.json", scale.label));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| writeln!(std::fs::File::create(&path)?, "{}", payload.pretty()));
    match written {
        Ok(()) => println!("[results written to {}]", path.display()),
        Err(err) => {
            eprintln!("cannot write {}: {err}", path.display());
            std::process::exit(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_scale_defaults() {
        for value in [None, Some("ci")] {
            let s = Scale::parse(value).unwrap();
            assert_eq!(s.label, "ci");
            assert!(s.rows_for(DatasetId::Intel) >= 10_000);
            assert!(s.queries >= 50);
        }
        let paper = Scale::parse(Some("paper")).unwrap();
        assert_eq!((paper.label, paper.queries), ("paper", 2_000));
        assert_eq!(
            paper.rows_for(DatasetId::Intel),
            DatasetId::Intel.paper_rows()
        );
    }

    #[test]
    fn unknown_scales_are_errors_naming_both() {
        for value in ["Paper", "CI", "", "full"] {
            let message = Scale::parse(Some(value)).unwrap_err();
            assert!(
                message.contains("`ci`") && message.contains("`paper`"),
                "{message}"
            );
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.05), "5.00%");
        assert_eq!(pct(0.0005), "0.050%");
        assert_eq!(mb(1_048_576), "1.00MB");
    }
}
