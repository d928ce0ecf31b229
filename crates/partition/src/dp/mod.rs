//! The dynamic programs of Section 4.3.
//!
//! `Adp` and the two exact references it is tested against share one
//! recurrence over items sorted by predicate key:
//!
//! ```text
//! A[i, j] = min_{h < i} max( A[h, j-1], M([h, i)) )
//! ```
//!
//! where `M` is a maximum-variance oracle. [`dp_cuts`] evaluates it
//! **column by column** — every layer `j` of one prefix length `i` before
//! `i + 1`; a cell only reads `A[h, j-1]` with `h < i`, so the values and
//! the cuts are those of the textbook layer-by-layer order — because
//! `M([h, i))` does not depend on `j`: the searches of one column's layers
//! probe nearly the same `h`, and a memo of one value per `h` answers all
//! but the first probe of each range. The partitioners differ in which `M`
//! they use and how they search `h`:
//!
//! | Partitioner           | `M` (cost of one evaluation)     | `h` search    | Probes       | Evaluations of `M`       | Total                   |
//! |-----------------------|----------------------------------|---------------|--------------|--------------------------|-------------------------|
//! | [`Adp`]               | discretized (O(1)), on a sample  | binary search | O(k·m·log m) | distinct `(h, i)` probed | O(k·m·log m)            |
//! | `NaiveDp` (tests)     | exhaustive (O(N²))               | linear scan   | O(kN²)       | ≤ N²/2                   | O(kN² + N⁴)             |
//! | `MonotoneDp` (tests)  | exhaustive (O(N²))               | binary search | O(kN log N)  | ≤ min(probes, N²/2)      | O(min(k log N, N) · N³) |
//!
//! A *probe* is one comparison of `A[h, j-1]` with `M([h, i))`; an
//! *evaluation* is one call of the oracle, made the first time a range is
//! probed. At `Adp`'s default shape (`m` = 4096, `k` = 256) the DP makes
//! 15.6 M probes of 1.5 M distinct ranges, so nine oracle calls in ten are
//! answered by the memo; with the exhaustive oracle the memo is what takes
//! the factor `k` off the N⁴ term.
//!
//! `Adp` is the `**` algorithm the paper uses in all experiments
//! (Section 4.3.1): it optimizes over `m` sampled items with the Lemma A.3
//! median-split oracle (SUM/COUNT) or the Appendix A.4 window index (AVG),
//! then maps the sampled cut positions back to full-data boundaries.
//! `NaiveDp` and `MonotoneDp` run the exhaustive oracle over every item —
//! exact, and polynomially expensive — so they are test code, the ground
//! truth `Adp`'s tests compare against, and so is the linear `h` scan only
//! `NaiveDp` uses.

mod adp;
mod engine;
mod exact;

pub use adp::Adp;
pub use engine::{dp_cuts, SearchStrategy};
