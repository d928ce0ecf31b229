//! The four workloads. Each stresses a different layer, so that for any
//! optimization one workload exercises its mechanism and another
//! bypasses it (the prediction there is "no change").

pub mod adhoc_1d;
pub mod batch_md;
pub mod dashboard_serve;
pub mod stream_updates;

use crate::harness::WorkloadResult;
use crate::inputs::Sizes;

/// Workload names, in run order.
pub const NAMES: [&str; 4] = [
    adhoc_1d::NAME,
    batch_md::NAME,
    dashboard_serve::NAME,
    stream_updates::NAME,
];

/// Run one workload end to end (tracing off).
pub fn run(name: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Option<WorkloadResult> {
    Some(match name {
        adhoc_1d::NAME => adhoc_1d::run(seed, seconds, sizes),
        batch_md::NAME => batch_md::run(seed, seconds, sizes),
        dashboard_serve::NAME => dashboard_serve::run(seed, seconds, sizes),
        stream_updates::NAME => stream_updates::run(seed, seconds, sizes),
        _ => return None,
    })
}
