//! Source-level static-analysis pass for the PASS workspace.
//!
//! This crate is a dependency-free lint harness that runs as a normal
//! `cargo test -p pass-lint` target (and as a CI job). It walks the
//! workspace's library sources and enforces the concurrency and
//! robustness rules that `rustc` and `clippy` cannot express for us:
//!
//! 1. **No panic paths in serving-tier library code** — no `.unwrap()`,
//!    `.expect("…")`, `panic!`, `unreachable!`, `todo!`, or
//!    `unimplemented!` outside `#[cfg(test)]` code in `crates/common`,
//!    the root crate, `crates/core` and `crates/sampling` — everything a
//!    served PASS query or update runs — `crates/partition`, the
//!    partitioners a JSON spec selects, `crates/workload`, the query
//!    generators and ground truth, and `crates/table`, the tables, sorted
//!    views and dataset generators every build reads. A serving worker
//!    that panics takes its
//!    in-flight tickets down with it; errors must flow through
//!    `PassError`. (`chaos.rs`/`chaos/imp.rs` are exempt by design: the
//!    model checker *reports failures by panicking* with a replayable
//!    seed — that is its contract, not an accident.)
//! 2. **Shimmed modules use the shims** — the four model-checked
//!    modules (`queue.rs`, `ticket.rs`, `cache.rs`, `pool.rs`) must not
//!    reach around `pass_common::chaos` to `std::sync::Mutex`,
//!    `std::sync::Condvar`, `std::sync::atomic`, or
//!    `std::thread::scope`; a direct std primitive would be invisible
//!    to the model checker. (`std::sync::Arc` stays allowed — the model
//!    does not need to interpose on reference counting.)
//! 3. **Every `Ordering::Relaxed` is justified** — a `// relaxed:`
//!    comment on the same line, on a comment line above, or covering a
//!    consecutive run of relaxed operations. Relaxed is the right
//!    choice for advisory counters and nothing else; the justification
//!    keeps each use auditable.
//! 4. **Lock-ordering discipline** — locks are ranked by the declared
//!    table in [`LOCK_ORDER`] (`queue` < `ticket` < `cache`) and may
//!    only be acquired in ascending rank while another is held. In
//!    particular the queue lock is never acquired while a cache lock is
//!    held: a worker holding the cache while parking on the queue's
//!    condvar would stall every cache reader behind a scheduler
//!    decision.
//! 5. **Clock reads are confined** — `Instant::now` / `SystemTime`
//!    appear only in the declared timing modules ([`TIME_ALLOWED`]):
//!    deadline stamping, build timing and latency measurement.
//!    Everything else must take timestamps as inputs, which is what keeps
//!    the rest of the workspace deterministic and model-checkable.
//! 6. **Scan kernels, the query path and the update path stay
//!    allocation-free** — the
//!    declared hot-path modules ([`SCAN_KERNELS`]) must not heap-allocate
//!    per call: `Vec::new`, `vec![…]`, `.collect()`, `with_capacity`,
//!    `.to_vec()`, `Box::new` and `.leaves()` (the partition tree's
//!    leaf-list builder) are flagged outside `#[cfg(test)]` code unless
//!    a `// alloc:` comment justifies the site (the scratch buffers'
//!    one-time construction, a batch's answer vector). `resize` on a
//!    reusable buffer is the sanctioned growth idiom and is not flagged.
//! 7. **Snapshot decoders never index untrusted input** — the declared
//!    decoder modules ([`SNAPSHOT_DECODERS`]) parse attacker-controlled
//!    bytes, so `[`-indexing and slicing are flagged outside
//!    `#[cfg(test)]` code: access must go through `get(..)`-or-error
//!    (the `Cursor` idiom), which turns a corrupt length into a
//!    `SnapshotError` instead of a panic. A site whose bound was just
//!    validated may carry a `// bounds:` comment stating the argument.
//!    The rule cannot be escaped by moving a decoder: an `impl … Codec
//!    for` or a section `Cursor::new(` anywhere else is flagged too.
//!
//! 8. **Every `Synopsis` method is forwarded** — each `fn` declared in
//!    `trait Synopsis` ([`SYNOPSIS_TRAIT`]) must also appear in that
//!    file's `forward_synopsis!` macro. A method with a default body
//!    that the macro skips still compiles — and a `Box`/`Arc`/`&`
//!    wrapped engine then silently answers through the default instead
//!    of the inner engine's override.
//! 9. **The reference estimator is only a reference** — nothing in
//!    `pass_sampling::estimator` ([`REFERENCE_ESTIMATOR`]) may be named
//!    outside `#[cfg(test)]` code in the library sources (`tests/` and
//!    benches are not walked, so they stay free to): the module is the
//!    oracle `tests/kernel_contract.rs` holds the scan kernels to, not
//!    a second implementation an engine may call.
//! 10. **One `unsafe`, fenced** — every library crate root carries
//!     `#![forbid(unsafe_code)]` except `pass-sampling`'s
//!     ([`UNSAFE_CRATE_ROOT`]), which carries `#![deny(unsafe_code)]` so
//!     that one `#[allow(unsafe_code)]` can reach the group kernel's
//!     run-time ISA dispatch. The `unsafe` keyword appears once in the
//!     library sources, test code included: in [`UNSAFE_DISPATCH`], under
//!     a `// SAFETY:` comment naming the run-time check that makes the
//!     call sound. A second `unsafe` anywhere, or a crate root that drops
//!     its attribute, is flagged.
//! 11. **Every `pub` item has a user** — each `pub` `fn`, `struct`,
//!     `enum`, `trait`, `const`, `static` or `type` in library code is
//!     named outside its own file's tests and `pub use` lines: in library
//!     code, another file's tests, or a file under [`USE_SITES`] (tests,
//!     benches, examples, the benchmark, the README and `docs/`). The
//!     match is by whole word, not by resolved path, so a `pub` fn that
//!     shares its name with a field, parameter or local counts as used
//!     wherever that name appears (a `hard_bounds` fn would hide behind
//!     `Estimate`'s `hard_bounds` field); such items need a reader's eye.
//!
//! The analysis is deliberately *lexical*: sources are stripped of
//! comments and string contents, `#[cfg(test)]` regions are tracked by
//! brace depth, and the rules match declared patterns. That makes the
//! pass trivially auditable and fast, at the cost of depending on the
//! workspace's idioms (named guard bindings, one statement per
//! acquisition). Rules are scoped by the tables below rather than
//! allow-listing individual violations — the workspace lints clean.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

/// The declared lock ranking: while holding a lock of some rank, only
/// strictly higher ranks may be acquired. Rank 0 first.
pub const LOCK_ORDER: &[&str] = &["queue", "ticket", "cache"];

/// Files (workspace-relative) allowed to read wall clocks.
pub const TIME_ALLOWED: &[&str] = &[
    // Deadline stamping + latency measurement at the serving edge.
    "src/serve.rs",
    // Engine build timing and per-query workload latency.
    "src/session.rs",
    // Ticket wait timeouts are measured against a deadline.
    "crates/common/src/ticket.rs",
];

/// The four model-checked modules that must route all synchronization
/// through `pass_common::chaos`.
pub const SHIMMED: &[&str] = &[
    "crates/common/src/queue.rs",
    "crates/common/src/ticket.rs",
    "crates/common/src/cache.rs",
    "crates/common/src/pool.rs",
];

/// Files exempt from the no-panic rule: the model checker's failure
/// channel *is* a panic carrying the replayable seed.
pub const PANIC_EXEMPT: &[&str] = &[
    "crates/common/src/chaos.rs",
    "crates/common/src/chaos/imp.rs",
];

/// The declared allocation-free hot-path modules (rule 6): the columnar
/// estimation kernels must reuse scratch buffers, never allocate per
/// query; finishing a query — and classifying, inverting and scanning a
/// batch of them — must keep its buffers in `McfScratch`; and an insert
/// or delete must cost the path and the stratum it touches, never a
/// per-mutation list of every leaf.
pub const SCAN_KERNELS: &[&str] = &[
    "crates/sampling/src/kernel.rs",
    "crates/core/src/query.rs",
    "crates/core/src/update.rs",
];

/// Where rule 1 (no panic paths) applies: the serving tier, every crate
/// a served PASS query or update runs through, the partitioners and
/// baseline engines a spec-driven build runs (a spec arrives from outside
/// as JSON, the table from a file), the tables themselves, and the
/// workload generators and ground truth that read them.
pub const NO_PANIC_SCOPE: &[&str] = &[
    "crates/common/src/",
    "src/",
    "crates/core/src/",
    "crates/sampling/src/",
    "crates/partition/src/",
    "crates/workload/src/",
    "crates/baselines/src/",
    "crates/table/src/",
];

/// The snapshot decoder modules (rule 7): they parse untrusted bytes and
/// must reach them via `get(..)`-or-error, never unchecked indexing.
pub const SNAPSHOT_DECODERS: &[&str] = &[
    "crates/common/src/snapshot.rs",
    "crates/table/src/snapshot.rs",
    "crates/sampling/src/snapshot.rs",
    "crates/core/src/snapshot.rs",
    "crates/baselines/src/snapshot.rs",
];

/// The file declaring `trait Synopsis` and its `forward_synopsis!`
/// macro (rule 8).
pub const SYNOPSIS_TRAIT: &str = "crates/common/src/synopsis.rs";

/// The row-at-a-time reference estimator module (rule 9): named from
/// tests and benches only.
pub const REFERENCE_ESTIMATOR: &str = "crates/sampling/src/estimator.rs";

/// The one library file allowed an `unsafe` (rule 10): the lockstep group
/// kernel calls its AVX2 build after a run-time feature check.
pub const UNSAFE_DISPATCH: &str = "crates/sampling/src/kernel.rs";

/// The one crate root that denies rather than forbids `unsafe_code`
/// (rule 10), so that [`UNSAFE_DISPATCH`] can allow it at one function.
pub const UNSAFE_CRATE_ROOT: &str = "crates/sampling/src/lib.rs";

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (short slug).
    pub rule: &'static str,
    /// What went wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One physical source line after stripping: `code` keeps everything
/// outside comments with string *contents* blanked (delimiters stay, so
/// `.expect("` remains matchable); `comment` holds the comment text;
/// `in_test` marks `#[cfg(test)]` / `#[test]` regions.
#[derive(Debug, Default, Clone)]
struct Line {
    code: String,
    comment: String,
    in_test: bool,
}

/// Strip comments and string contents from `source`, one entry per
/// physical line.
fn strip(source: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        Block(u32),
        Str,
        RawStr(usize),
    }
    let mut state = State::Code;
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::Block(1);
                    i += 2;
                    continue;
                }
                // Raw strings: r"…", r#"…"#, br#"…"# — consumed here so
                // the Str state never has to reason about escapes in them.
                if (c == 'r' || (c == 'b' && next == Some('r')))
                    && !cur
                        .code
                        .ends_with(|p: char| p.is_alphanumeric() || p == '_')
                {
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        cur.code.push('"');
                        state = State::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '"' {
                    cur.code.push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                // Char/byte literals vs lifetimes: consume '…' only when
                // it closes within a couple of characters.
                if c == '\'' {
                    let close = if next == Some('\\') { 3 } else { 2 };
                    if chars.get(i + close).copied() == Some('\'') {
                        i += close + 1;
                        cur.code.push_str("' '");
                        continue;
                    }
                }
                cur.code.push(c);
                i += 1;
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && chars[i + 1..].iter().take(hashes).all(|&h| h == '#') {
                    cur.code.push('"');
                    state = State::Code;
                    i += hashes + 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Mark `#[cfg(test)]` / `#[test]` items: from the attribute to the
/// close of the next brace block opened at or below the attribute's
/// depth.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending = false;
    // Depth at which the current test region's block opened.
    let mut region: Option<i64> = None;
    for line in lines.iter_mut() {
        let code = line.code.clone();
        if region.is_none()
            && (code.contains("#[cfg(test)]")
                || code.contains("#[cfg(all(test")
                || code.contains("#[test]"))
        {
            pending = true;
        }
        line.in_test = pending || region.is_some();
        for c in code.chars() {
            match c {
                '{' => {
                    if pending {
                        region = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region == Some(depth) {
                        region = None;
                    }
                }
                _ => {}
            }
        }
    }
}

/// A stripped source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    lines: Vec<Line>,
}

impl SourceFile {
    /// Strip `source` (as the file at workspace-relative path `rel`).
    pub fn parse(rel: &str, source: &str) -> Self {
        let mut lines = strip(source);
        mark_test_regions(&mut lines);
        Self {
            rel: rel.to_string(),
            lines,
        }
    }

    fn push(&self, out: &mut Vec<Violation>, idx: usize, rule: &'static str, message: String) {
        out.push(Violation {
            file: self.rel.clone(),
            line: idx + 1,
            rule,
            message,
        });
    }
}

fn in_scope(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// Rule 1: no panic paths in non-test serving-tier library code.
pub fn check_no_panic(file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_scope(&file.rel, NO_PANIC_SCOPE) || PANIC_EXEMPT.contains(&file.rel.as_str()) {
        return;
    }
    const PATTERNS: &[(&str, &str)] = &[
        (".unwrap()", "use `?`, `unwrap_or*`, or restructure"),
        (".expect(\"", "return a `PassError` instead of panicking"),
        ("panic!(", "serving workers must not panic; return an error"),
        (
            "unreachable!(",
            "make the state unrepresentable or return an error",
        ),
        ("todo!(", "no placeholders in library code"),
        ("unimplemented!(", "no placeholders in library code"),
    ];
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, fix) in PATTERNS {
            if line.code.contains(pat) {
                file.push(
                    out,
                    i,
                    "no-panic",
                    format!("`{pat}` in library code: {fix}"),
                );
            }
        }
    }
}

/// Rule 2: the model-checked modules must use the `chaos` shims, not
/// raw std synchronization.
pub fn check_shim_imports(file: &SourceFile, out: &mut Vec<Violation>) {
    if !SHIMMED.contains(&file.rel.as_str()) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for hit in ["std::sync::", "std::thread::scope"] {
            let Some(pos) = line.code.find(hit) else {
                continue;
            };
            let rest = &line.code[pos + hit.len()..];
            // `std::sync::Arc` (and `Arc` inside a brace import without
            // forbidden siblings) stays allowed.
            if hit == "std::sync::" {
                let forbidden = ["Mutex", "Condvar", "atomic", "RwLock", "mpsc", "Barrier"];
                let named = if let Some(inner) = rest.strip_prefix('{') {
                    forbidden.iter().any(|f| inner.contains(f))
                } else {
                    forbidden.iter().any(|f| rest.starts_with(f))
                };
                if !named {
                    continue;
                }
            }
            file.push(
                out,
                i,
                "use-shims",
                format!(
                    "`{hit}…` bypasses `crate::chaos` — the model checker cannot \
                     see raw std primitives in a shimmed module"
                ),
            );
        }
    }
}

/// Rule 3: every `Ordering::Relaxed` carries a `// relaxed:`
/// justification — same line, a comment line above, or one comment
/// covering a consecutive run of relaxed operations (multi-line call
/// chains count as part of the run).
pub fn check_relaxed_justified(file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_scope(
        &file.rel,
        &["crates/common/src/", "src/", "crates/core/src/update.rs"],
    ) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test || !line.code.contains("Ordering::Relaxed") {
            continue;
        }
        if line.comment.contains("relaxed:") {
            continue;
        }
        let mut justified = false;
        for prev in file.lines[..i].iter().rev() {
            let code = prev.code.trim();
            if code.is_empty() {
                // Pure comment (or blank) line: the justification spot.
                if prev.comment.contains("relaxed:") {
                    justified = true;
                    break;
                }
                if prev.comment.trim().is_empty() {
                    break; // blank line ends the run
                }
                continue;
            }
            // Skip through the current run: earlier relaxed operations
            // and unterminated fragments of a multi-line call chain.
            if code.contains("Ordering::Relaxed") || !code.contains(';') {
                if prev.comment.contains("relaxed:") {
                    justified = true;
                    break;
                }
                continue;
            }
            break;
        }
        if !justified {
            file.push(
                out,
                i,
                "relaxed-justified",
                "`Ordering::Relaxed` without a `// relaxed:` justification comment".to_string(),
            );
        }
    }
}

/// How a lock of some rank can be recognized in source.
struct LockPattern {
    /// Restrict to one file (workspace-relative), or `None` for all.
    file: Option<&'static str>,
    /// Substring that marks an acquisition when found in a code line.
    pattern: &'static str,
    /// The receiver text must also contain this hint (cuts false
    /// positives on generic method names).
    receiver_hint: &'static str,
    /// Index into [`LOCK_ORDER`].
    rank: usize,
    /// Whether a `let` binding of this acquisition keeps the lock held
    /// (true only for direct `.lock()` calls — entry-point methods
    /// release internally and return plain data).
    binds_guard: bool,
}

const LOCK_PATTERNS: &[LockPattern] = &[
    // Direct acquisitions inside the owning modules.
    LockPattern {
        file: Some("crates/common/src/queue.rs"),
        pattern: "self.inner.lock()",
        receiver_hint: "",
        rank: 0,
        binds_guard: true,
    },
    LockPattern {
        file: Some("crates/common/src/ticket.rs"),
        pattern: ".state.lock()",
        receiver_hint: "",
        rank: 1,
        binds_guard: true,
    },
    LockPattern {
        file: Some("crates/common/src/cache.rs"),
        pattern: "self.inner.lock()",
        receiver_hint: "",
        rank: 2,
        binds_guard: true,
    },
    // Cross-module entry points that take the queue lock.
    LockPattern {
        file: None,
        pattern: ".pop_blocking(",
        receiver_hint: "queue",
        rank: 0,
        binds_guard: false,
    },
    LockPattern {
        file: None,
        pattern: ".try_push(",
        receiver_hint: "queue",
        rank: 0,
        binds_guard: false,
    },
    LockPattern {
        file: None,
        pattern: ".drain_class_where(",
        receiver_hint: "queue",
        rank: 0,
        binds_guard: false,
    },
    LockPattern {
        file: None,
        pattern: ".set_paused(",
        receiver_hint: "queue",
        rank: 0,
        binds_guard: false,
    },
    LockPattern {
        file: None,
        pattern: ".close(",
        receiver_hint: "queue",
        rank: 0,
        binds_guard: false,
    },
    LockPattern {
        file: None,
        pattern: ".high_water(",
        receiver_hint: "queue",
        rank: 0,
        binds_guard: false,
    },
    // Entry points that take a ticket's state lock.
    LockPattern {
        file: None,
        pattern: ".fulfill(",
        receiver_hint: "slot",
        rank: 1,
        binds_guard: false,
    },
    LockPattern {
        file: None,
        pattern: ".store(",
        receiver_hint: "slot",
        rank: 1,
        binds_guard: false,
    },
    // Entry points that take the cache lock.
    LockPattern {
        file: None,
        pattern: ".get_keyed(",
        receiver_hint: "cache",
        rank: 2,
        binds_guard: false,
    },
    LockPattern {
        file: None,
        pattern: ".insert_keyed(",
        receiver_hint: "cache",
        rank: 2,
        binds_guard: false,
    },
    LockPattern {
        file: None,
        pattern: ".sync_epoch(",
        receiver_hint: "cache",
        rank: 2,
        binds_guard: false,
    },
];

/// Files the lock-order rule watches (the serving tier).
const LOCK_ORDER_SCOPE: &[&str] = &[
    "crates/common/src/queue.rs",
    "crates/common/src/ticket.rs",
    "crates/common/src/cache.rs",
    "crates/common/src/pool.rs",
    "src/serve.rs",
    "src/session.rs",
];

fn lock_hits(file: &SourceFile, code: &str) -> Vec<(usize, &'static str, bool)> {
    let mut hits = Vec::new();
    for lp in LOCK_PATTERNS {
        if let Some(f) = lp.file {
            if f != file.rel {
                continue;
            }
        }
        let Some(pos) = code.find(lp.pattern) else {
            continue;
        };
        if !code[..pos].contains(lp.receiver_hint) {
            continue;
        }
        hits.push((lp.rank, lp.pattern, lp.binds_guard));
    }
    hits
}

/// Rule 4: within a function, while a guard bound from a lock of rank
/// `r` is live, only locks of strictly higher rank may be acquired.
/// Guard liveness is lexical: from its `let` binding to the close of
/// the enclosing block or an explicit `drop(guard)`.
pub fn check_lock_order(file: &SourceFile, out: &mut Vec<Violation>) {
    if !LOCK_ORDER_SCOPE.contains(&file.rel.as_str()) {
        return;
    }
    // Live guards: (binding name, rank, depth the binding lives at).
    let mut guards: Vec<(String, usize, i64)> = Vec::new();
    let mut depth: i64 = 0;
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            for c in line.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            guards.retain(|&(_, _, d)| d <= depth);
            continue;
        }
        let code = line.code.trim().to_string();
        let hits = lock_hits(file, &code);
        if let Some(&(rank, pattern, binds_guard)) = hits.first() {
            if let Some(&(ref held, held_rank, _)) =
                guards.iter().find(|&&(_, held_rank, _)| rank <= held_rank)
            {
                file.push(
                    out,
                    i,
                    "lock-order",
                    format!(
                        "acquiring `{}` lock (via `{pattern}`) while holding `{held}` \
                         (`{}` lock) violates the declared order {:?}",
                        LOCK_ORDER[rank], LOCK_ORDER[held_rank], LOCK_ORDER
                    ),
                );
            }
            // A `let`-bound guard stays live; a temporary (or an
            // entry-point method that releases internally) needs no
            // tracking.
            if binds_guard {
                if let Some(rest) = code.strip_prefix("let ") {
                    let name: String = rest
                        .trim_start_matches("mut ")
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        guards.push((name, rank, depth));
                    }
                }
            }
        }
        // Explicit early release.
        guards.retain(|(name, _, _)| !code.contains(&format!("drop({name})")));
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|&(_, _, d)| d <= depth);
    }
}

/// Rule 5: wall-clock reads only in the declared timing modules.
pub fn check_time_confined(file: &SourceFile, out: &mut Vec<Violation>) {
    if TIME_ALLOWED.contains(&file.rel.as_str()) || file.rel.starts_with("crates/lint/") {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["Instant::now", "SystemTime"] {
            if line.code.contains(pat) {
                file.push(
                    out,
                    i,
                    "time-confined",
                    format!(
                        "`{pat}` outside the declared timing modules — take timestamps \
                         as inputs so the logic stays deterministic and model-checkable"
                    ),
                );
            }
        }
    }
}

/// Rule 6: no per-call heap allocation in the declared hot-path
/// modules. Flags `Vec::new`, `vec![…]`, `.collect()`, `with_capacity`,
/// `.to_vec()`, `Box::new` and `.leaves()` outside test code unless an
/// `// alloc:` comment (same line, or a comment line directly above)
/// justifies the site. `resize` on a reusable buffer is the sanctioned
/// growth idiom.
pub fn check_no_alloc_in_kernels(file: &SourceFile, out: &mut Vec<Violation>) {
    if !SCAN_KERNELS.contains(&file.rel.as_str()) {
        return;
    }
    const PATTERNS: &[&str] = &[
        "Vec::new",
        "vec!",
        ".collect()",
        "with_capacity",
        ".to_vec()",
        "Box::new",
        ".leaves()",
    ];
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in PATTERNS {
            if !line.code.contains(pat) {
                continue;
            }
            let justified = line.comment.contains("alloc:")
                || file.lines[..i]
                    .iter()
                    .rev()
                    .take_while(|prev| prev.code.trim().is_empty())
                    .any(|prev| prev.comment.contains("alloc:"));
            if !justified {
                file.push(
                    out,
                    i,
                    "kernel-no-alloc",
                    format!(
                        "`{pat}` in a hot-path module: the hot path must reuse \
                         scratch buffers (`resize` on a long-lived Vec), or carry an \
                         `// alloc:` justification"
                    ),
                );
            }
        }
    }
}

/// Rule 7: no unchecked indexing or slicing in the snapshot decoder
/// modules. A `[` preceded by an identifier character, `)`, or `]` is an
/// index/slice expression on untrusted input; decoders must use
/// `get(..)`-or-error instead, so a lying length becomes a
/// `SnapshotError` rather than a panic. A `// bounds:` comment (same
/// line, or a comment line directly above) marks the rare site whose
/// bound a preceding check already established.
pub fn check_decoder_indexing(file: &SourceFile, out: &mut Vec<Violation>) {
    if !SNAPSHOT_DECODERS.contains(&file.rel.as_str()) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let indexes = code.char_indices().any(|(pos, c)| {
            c == '['
                && code[..pos].chars().next_back().is_some_and(|p| {
                    p.is_alphanumeric() || p == '_' || p == ')' || p == ']' || p == '?'
                })
        });
        if !indexes {
            continue;
        }
        let justified = line.comment.contains("bounds:")
            || file.lines[..i]
                .iter()
                .rev()
                .take_while(|prev| prev.code.trim().is_empty())
                .any(|prev| prev.comment.contains("bounds:"));
        if !justified {
            file.push(
                out,
                i,
                "decoder-no-index",
                "index/slice expression in a snapshot decoder: use `get(..)`-or-error \
                 so corrupt input fails as `SnapshotError`, or justify a checked bound \
                 with a `// bounds:` comment"
                    .to_string(),
            );
        }
    }
}

/// Rule 7, its other half: decoders stay where the indexing check looks.
/// Outside [`SNAPSHOT_DECODERS`], non-test code may not implement the
/// snapshot `Codec` trait or open a section `Cursor` (`std::io::Cursor`
/// is a different type and stays allowed).
pub fn check_decoders_confined(file: &SourceFile, out: &mut Vec<Violation>) {
    if SNAPSHOT_DECODERS.contains(&file.rel.as_str()) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let codec_impl = code.trim_start().starts_with("impl") && code.contains("Codec for ");
        let cursor = code
            .match_indices("Cursor::new(")
            .any(|(pos, _)| !code[..pos].ends_with("io::"));
        if !line.in_test && (codec_impl || cursor) {
            file.push(
                out,
                i,
                "decoder-confined",
                "snapshot decoding outside the declared decoder modules: move the \
                 `Codec` impl or `Cursor` into a `snapshot.rs` that rule 7 scans"
                    .to_string(),
            );
        }
    }
}

/// The `fn` names declared inside the brace block opened on the first
/// line containing `header`, with the line each was found on.
fn fns_in_block(file: &SourceFile, header: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    let mut depth = 0usize;
    let mut inside = false;
    for (i, line) in file.lines.iter().enumerate() {
        if !inside && !line.code.contains(header) {
            continue;
        }
        inside = true;
        for (pos, _) in line.code.match_indices("fn ") {
            let boundary = line.code[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
            let name: String = line.code[pos + 3..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if boundary && !name.is_empty() {
                found.push((i, name));
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if depth == 0 && line.code.contains('}') {
            break;
        }
    }
    found
}

/// Rule 8: every `fn` of `trait Synopsis` appears in `forward_synopsis!`.
/// The wrappers' impl compiles without a method that has a default body,
/// so an omission is silent: the wrapped engine's override is discarded.
pub fn check_synopsis_forwarding(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel != SYNOPSIS_TRAIT {
        return;
    }
    let forwarded = fns_in_block(file, "macro_rules! forward_synopsis");
    for (i, name) in fns_in_block(file, "trait Synopsis") {
        if !forwarded.iter().any(|(_, f)| *f == name) {
            file.push(
                out,
                i,
                "synopsis-forwarding",
                format!(
                    "`Synopsis::{name}` is not forwarded by `forward_synopsis!`: a \
                     Box/Arc/& wrapped engine would fall back to the trait default"
                ),
            );
        }
    }
}

/// Rule 9: the reference estimator is named from test code only. Every
/// path to its functions goes through the module name (the crate root
/// does not re-export them), so the module path is what is matched.
pub fn check_reference_only(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel == REFERENCE_ESTIMATOR {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if !line.in_test && line.code.contains("estimator::") {
            file.push(
                out,
                i,
                "reference-only",
                "`estimator::` named in library code: the reference estimator is the \
                 kernels' test oracle; call `ScanScratch::estimate` instead"
                    .to_string(),
            );
        }
    }
}

/// The path of `rel` inside its crate's `src/` (`src/…` or
/// `crates/<name>/src/…`), if `rel` is a library source.
fn src_path(rel: &str) -> Option<&str> {
    rel.strip_prefix("src/").or_else(|| {
        rel.strip_prefix("crates/")?
            .split_once('/')?
            .1
            .strip_prefix("src/")
    })
}

/// Rule 10: the crate roots keep their `unsafe_code` attribute, and the
/// only `unsafe` keyword is the justified dispatch in [`UNSAFE_DISPATCH`].
pub fn check_unsafe_fenced(file: &SourceFile, out: &mut Vec<Violation>) {
    if src_path(&file.rel) == Some("lib.rs") {
        let want = if file.rel == UNSAFE_CRATE_ROOT {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        if !file.lines.iter().any(|l| l.code.trim() == want) {
            file.push(
                out,
                0,
                "unsafe-fenced",
                format!("crate root without `{want}`"),
            );
        }
    }
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut seen = 0;
    for (i, line) in file.lines.iter().enumerate() {
        for (pos, _) in line.code.match_indices("unsafe") {
            if is_word(line.code[..pos].chars().next_back())
                || is_word(line.code[pos + "unsafe".len()..].chars().next())
            {
                continue;
            }
            seen += 1;
            let message = if file.rel != UNSAFE_DISPATCH {
                format!("`unsafe` outside {UNSAFE_DISPATCH}, the one sanctioned ISA dispatch")
            } else if seen > 1 {
                "a second `unsafe`: the group kernel's ISA dispatch is the only one".to_string()
            } else if !justified(&file.lines[..=i], "SAFETY:") {
                "`unsafe` without a `// SAFETY:` comment naming its run-time check".to_string()
            } else {
                continue;
            };
            file.push(out, i, "unsafe-fenced", message);
        }
    }
}

/// Whether the last of `lines` carries a comment containing `tag`, on the
/// line itself or in the run of comment-only lines right above it.
fn justified(lines: &[Line], tag: &str) -> bool {
    let Some((last, above)) = lines.split_last() else {
        return false;
    };
    last.comment.contains(tag)
        || above
            .iter()
            .rev()
            .take_while(|l| l.code.trim().is_empty() && !l.comment.is_empty())
            .any(|l| l.comment.contains(tag))
}

/// Where a `pub` item's name counts as a use beside the library (rule 11):
/// the Rust and Markdown files under these workspace-relative paths.
pub const USE_SITES: &[&str] = &[
    "tests",
    "crates/*/tests",
    "crates/*/benches",
    "examples",
    "benchmark/src",
    "README.md",
    "docs",
];

/// The name a line declares as a `pub` `fn`, `struct`, `enum`, `trait`,
/// `const`, `static` or `type`, if it declares one.
fn pub_item_name(code: &str) -> Option<&str> {
    const KINDS: &[&str] = &[
        "unsafe", "async", "mut", "const", "static", "fn", "struct", "enum", "trait", "type",
    ];
    let mut words = code.strip_prefix("pub ")?.split_whitespace().peekable();
    words.next_if(|w| KINDS.contains(w))?;
    let word = words.find(|w| !KINDS.contains(w))?;
    let name = word
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .next()?;
    (!name.is_empty()).then_some(name)
}

/// Rule 11 over `files`, as (workspace-relative path, contents): a `pub`
/// item's name counts as used wherever it is a whole word, except on a line
/// declaring that name, a library `pub use` line, or its own file's tests.
pub fn check_pub_items_used(files: &[(String, String)]) -> Vec<Violation> {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(rel, source)| {
            // Markdown is plain text: no quote or slash in it opens a
            // string or a comment.
            let plain = rel
                .ends_with(".md")
                .then(|| source.replace(['"', '\'', '/'], " "));
            SourceFile::parse(rel, plain.as_deref().unwrap_or(source))
        })
        .collect();
    let mut decls = std::collections::BTreeSet::new();
    let mut uses = std::collections::HashMap::<&str, Vec<(usize, usize)>>::new();
    for (f, file) in parsed.iter().enumerate() {
        let library = src_path(&file.rel).is_some();
        let mut reexport = false;
        for (i, line) in file.lines.iter().enumerate() {
            let code = line.code.trim_start();
            reexport |= library && code.starts_with("pub use ");
            if !reexport {
                for word in code.split(|c: char| !c.is_alphanumeric() && c != '_') {
                    uses.entry(word).or_default().push((f, i));
                }
            }
            reexport &= !code.contains(';');
            if let Some(name) = pub_item_name(code).filter(|_| library && !line.in_test) {
                decls.insert((f, i, name));
            }
        }
    }
    let mut out = Vec::new();
    for &(f, i, name) in &decls {
        let in_own_tests = |g: usize, j: usize| g == f && parsed[f].lines[j].in_test;
        if !uses[name]
            .iter()
            .any(|&(g, j)| !in_own_tests(g, j) && !decls.contains(&(g, j, name)))
        {
            let message = format!("`pub` `{name}` has no user outside its own file's tests");
            parsed[f].push(&mut out, i, "pub-has-user", message);
        }
    }
    out
}

/// Run every rule over one parsed file.
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    check_no_panic(file, &mut out);
    check_shim_imports(file, &mut out);
    check_relaxed_justified(file, &mut out);
    check_lock_order(file, &mut out);
    check_time_confined(file, &mut out);
    check_no_alloc_in_kernels(file, &mut out);
    check_decoder_indexing(file, &mut out);
    check_decoders_confined(file, &mut out);
    check_synopsis_forwarding(file, &mut out);
    check_reference_only(file, &mut out);
    check_unsafe_fenced(file, &mut out);
    out
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn collect(path: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    if path.is_file() && path.extension().is_some_and(|e| e == ext) {
        out.push(path.to_path_buf());
    }
    for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
        collect(&entry.path(), ext, out);
    }
}

/// The library source directories (vendored stubs excluded).
const LIBRARY: &[&str] = &["src", "crates/*/src"];

/// The files with extension `ext` under the workspace-relative `paths`
/// (`crates/*/` expands to every crate) as (workspace-relative path,
/// contents), sorted by path.
fn sources(root: &Path, paths: &[&str], ext: &str) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for path in paths {
        match path.strip_prefix("crates/*/") {
            Some(sub) => {
                for entry in std::fs::read_dir(root.join("crates"))
                    .into_iter()
                    .flatten()
                    .flatten()
                {
                    collect(&entry.path().join(sub), ext, &mut files);
                }
            }
            None => collect(&root.join(path), ext, &mut files),
        }
    }
    files.sort();
    files
        .into_iter()
        .filter_map(|path| {
            let source = std::fs::read_to_string(&path).ok()?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            Some((rel, source))
        })
        .collect()
}

/// Walk the workspace's library sources (`crates/*/src` and `src/`,
/// vendored stubs excluded) and run every rule, rule 11 reading
/// [`USE_SITES`] too. Returns all violations, sorted by file and line.
pub fn run_workspace() -> Vec<Violation> {
    let root = workspace_root();
    let mut files = sources(&root, LIBRARY, "rs");
    let mut out: Vec<Violation> = files
        .iter()
        .flat_map(|(rel, source)| check_file(&SourceFile::parse(rel, source)))
        .collect();
    files.extend(sources(&root, USE_SITES, "rs"));
    files.extend(sources(&root, USE_SITES, "md"));
    out.extend(check_pub_items_used(&files));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Library lines of the workspace at `root`, per crate and in total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryLines {
    /// One row per crate source directory (`crates/common/src`, …,
    /// `src`), in path order.
    pub per_crate: Vec<(String, usize)>,
    /// The sum of the rows.
    pub total: usize,
}

/// Count the library lines of the workspace at `root`: in every file of
/// `crates/*/src` and `src/`, the physical lines ahead of the file's
/// first top-level `#[cfg(test)]` (the attribute at column 0). Every
/// line ahead of it counts alike — code, blank lines, comments, doc
/// comments and attributes — and no line from it on counts, test-only
/// helpers included. A file with no top-level `#[cfg(test)]` counts
/// whole.
pub fn library_lines(root: &Path) -> LibraryLines {
    let mut per_crate: Vec<(String, usize)> = Vec::new();
    for (rel, source) in sources(root, LIBRARY, "rs") {
        let krate = rel.find("/src/").map_or("src", |at| &rel[..at + 4]);
        let lines = lines_ahead_of_tests(&source);
        match per_crate.last_mut() {
            Some((name, count)) if name == krate => *count += lines,
            _ => per_crate.push((krate.to_string(), lines)),
        }
    }
    let total = per_crate.iter().map(|(_, count)| count).sum();
    LibraryLines { per_crate, total }
}

/// The library-line rule of [`library_lines`] for one file.
fn lines_ahead_of_tests(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .count()
}

/// Render violations one per line for assertion messages.
pub fn render(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| format!("  {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel, src)
    }

    #[test]
    fn stripper_removes_comments_and_string_contents() {
        let f = file(
            "src/x.rs",
            "let a = \"panic!(\"; // panic!(\nlet b = 1; /* .unwrap() */\n",
        );
        assert!(f.lines[0].code.contains("let a = \"\";"));
        assert!(f.lines[0].comment.contains("panic!("));
        assert!(!f.lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn stripper_keeps_expect_matchable_and_skips_lifetimes() {
        let f = file(
            "src/x.rs",
            "fn g<'a>(x: &'a str) { x.expect(\"boom\"); let c = 'x'; }\n",
        );
        assert!(f.lines[0].code.contains(".expect(\""));
        assert!(f.lines[0].code.contains("<'a>"));
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn lib2() { z.unwrap(); }\n";
        let f = file("src/x.rs", src);
        let mut out = Vec::new();
        check_no_panic(&f, &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 6], "only non-test unwraps flagged: {out:?}");
    }

    #[test]
    fn no_panic_rule_catches_each_pattern() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); unreachable!(); }\n";
        let mut out = Vec::new();
        check_no_panic(&file("crates/common/src/queue.rs", src), &mut out);
        assert_eq!(out.len(), 4);
        // The query and scan path of PASS is held to the same rule.
        // ... and so is every partitioner and baseline engine a
        // spec-driven build runs.
        for held in [
            "crates/core/src/mcf.rs",
            "crates/sampling/src/kernel.rs",
            "crates/partition/src/dp/adp.rs",
            "crates/partition/src/kd.rs",
            "crates/partition/src/variance.rs",
            "crates/partition/src/maxvar/kd_avg.rs",
            "crates/workload/src/query_gen.rs",
            "crates/baselines/src/us.rs",
            "crates/baselines/src/spn/histogram.rs",
            "crates/table/src/sorted.rs",
            "crates/table/src/datasets/taxi.rs",
        ] {
            out.clear();
            check_no_panic(&file(held, src), &mut out);
            assert_eq!(out.len(), 4, "{held}");
        }
        // Out of scope: the bench harness and the lint itself.
        for free in ["crates/bench/src/lib.rs", "crates/lint/src/lib.rs"] {
            out.clear();
            check_no_panic(&file(free, src), &mut out);
            assert!(out.is_empty(), "{free}");
        }
        // Exempt: the model checker fails by panicking, by design.
        out.clear();
        check_no_panic(&file("crates/common/src/chaos.rs", src), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn expect_method_definitions_are_not_flagged() {
        let src = "fn f(&mut self) { self.expect(b'[')?; }\n";
        let mut out = Vec::new();
        check_no_panic(&file("crates/common/src/json.rs", src), &mut out);
        assert!(out.is_empty(), "byte-arg expect is not Option::expect");
    }

    #[test]
    fn shim_rule_flags_raw_std_sync_but_allows_arc() {
        let src = "use std::sync::{Arc, Mutex};\nuse std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\nstd::thread::scope(|s| {});\n";
        let mut out = Vec::new();
        check_shim_imports(&file("crates/common/src/queue.rs", src), &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 3, 4], "{out:?}");
        // Not a shimmed module: free to use std.
        out.clear();
        check_shim_imports(&file("crates/common/src/histogram.rs", src), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn relaxed_rule_accepts_same_line_above_and_runs() {
        let src = "\
a.load(Ordering::Relaxed); // relaxed: fine
// relaxed: covers the run below
b.fetch_add(1, Ordering::Relaxed);
c.fetch_add(1, Ordering::Relaxed);
let other = 1;
d.load(Ordering::Relaxed);
";
        let mut out = Vec::new();
        check_relaxed_justified(&file("src/serve.rs", src), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 6, "a statement ends the covered run");
    }

    #[test]
    fn relaxed_rule_sees_through_multiline_chains() {
        let src = "\
// relaxed: counter
x.y
    .z
    .fetch_add(1, Ordering::Relaxed);
";
        let mut out = Vec::new();
        check_relaxed_justified(&file("src/serve.rs", src), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_order_flags_queue_acquisition_under_cache_lock() {
        let src = "\
fn bad(&self) {
    let inner = self.inner.lock();
    self.queue.try_push(1, p);
}
";
        let mut out = Vec::new();
        check_lock_order(&file("crates/common/src/cache.rs", src), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("queue"));
        assert!(out[0].message.contains("cache"));
    }

    #[test]
    fn lock_order_allows_disjoint_and_released_guards() {
        let src = "\
fn ok(&self) {
    {
        let inner = self.inner.lock();
    }
    self.queue.try_push(1, p);
}
fn ok2(&self) {
    let inner = self.inner.lock();
    drop(inner);
    self.queue.pop_blocking();
}
";
        let mut out = Vec::new();
        check_lock_order(&file("crates/common/src/cache.rs", src), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_order_allows_ascending_acquisition() {
        let src = "\
fn ok(&self) {
    let g = self.inner.lock();
    self.cache.sync_epoch(7);
}
";
        let mut out = Vec::new();
        check_lock_order(&file("crates/common/src/queue.rs", src), &mut out);
        assert!(
            out.is_empty(),
            "queue -> cache is the declared order: {out:?}"
        );
    }

    #[test]
    fn time_rule_confines_clock_reads() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let mut out = Vec::new();
        check_time_confined(&file("crates/common/src/queue.rs", src), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        check_time_confined(&file("src/serve.rs", src), &mut out);
        assert!(out.is_empty(), "serve.rs is a declared timing module");
    }

    #[test]
    fn workspace_root_points_at_the_repo() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn kernel_alloc_rule_flags_each_pattern() {
        let src = "\
fn f() {
    let a = Vec::new();
    let b = vec![0u8; 4];
    let c = (0..4).collect();
    let d = Vec::with_capacity(4);
    let e = s.to_vec();
    let f = Box::new(1);
    buf.resize(4, 0);
    let g = tree.leaves();
}
";
        let mut out = Vec::new();
        check_no_alloc_in_kernels(&file("crates/sampling/src/kernel.rs", src), &mut out);
        assert_eq!(out.len(), 7, "{out:?}");
        assert!(out.iter().all(|v| v.rule == "kernel-no-alloc"));
        // `resize` is the sanctioned growth idiom — never flagged.
        assert!(!out.iter().any(|v| v.line == 8), "{out:?}");
        // The query and update paths are held to the same rule.
        for held in ["crates/core/src/query.rs", "crates/core/src/update.rs"] {
            out.clear();
            check_no_alloc_in_kernels(&file(held, src), &mut out);
            assert_eq!(out.len(), 7, "{held}: {out:?}");
        }
        // Out of scope: normal modules may allocate freely.
        out.clear();
        check_no_alloc_in_kernels(&file("crates/sampling/src/sample.rs", src), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn decoder_index_rule_flags_unchecked_indexing() {
        let src = "\
fn f(bytes: &[u8]) {
    let a = bytes[0];
    let b = &bytes[..8];
    let c = table(x)[i];
    let d = self.take(1, what)?[0];
    let e = bytes.get(0);
    let f: [u8; 8] = seed();
    #[derive(Debug)]
    struct S;
}
";
        let mut out = Vec::new();
        check_decoder_indexing(&file("crates/common/src/snapshot.rs", src), &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5], "{out:?}");
        assert!(out.iter().all(|v| v.rule == "decoder-no-index"));
        // Out of scope: ordinary modules may index freely.
        out.clear();
        check_decoder_indexing(&file("crates/common/src/histogram.rs", src), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn decoder_index_rule_accepts_bounds_justifications_and_tests() {
        let src = "\
fn f(bytes: &[u8]) {
    let a = bytes[0]; // bounds: length checked above
    // bounds: span validated against the arena length
    let b = &bytes[..8];
}
#[cfg(test)]
mod tests {
    fn t(bytes: &[u8]) {
        let c = bytes[1];
    }
}
";
        let mut out = Vec::new();
        check_decoder_indexing(&file("crates/core/src/snapshot.rs", src), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn decoders_cannot_leave_the_decoder_modules() {
        let src = "\
impl Codec for Stratum {
    fn decode(c: &mut Cursor<'_>) -> Result<Self> { todo() }
}
impl<T: Codec> Codec for Vec<T> {}
fn f(payload: &[u8]) {
    let c = Cursor::new(payload, \"state\");
    let io = std::io::Cursor::new(payload);
}
#[cfg(test)]
mod tests {
    fn t() { let c = Cursor::new(&[], \"t\"); }
}
";
        let mut out = Vec::new();
        check_decoders_confined(&file("crates/baselines/src/st.rs", src), &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 4, 6], "{}", render(&out));
        assert!(out.iter().all(|v| v.rule == "decoder-confined"));
        // Inside a declared decoder module the same code is the point.
        out.clear();
        check_decoders_confined(&file("crates/baselines/src/snapshot.rs", src), &mut out);
        assert!(out.is_empty(), "{}", render(&out));
    }

    #[test]
    fn forwarding_rule_flags_a_trait_method_the_macro_skips() {
        let src = r#"
pub trait Synopsis: Send + Sync {
    fn name(&self) -> &str;
    fn estimate_many(&self, queries: &[Query]) -> Vec<Result<Estimate>> {
        queries.iter().map(|q| self.estimate(q)).collect()
    }
    fn dims(&self) -> usize;
}
pub fn estimate_group_by<S: Synopsis + ?Sized>(engine: &S) {}
macro_rules! forward_synopsis {
    ($($wrapper:ty),+) => {$(
        impl<S: Synopsis + ?Sized> Synopsis for $wrapper {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn dims(&self) -> usize {
                (**self).dims()
            }
        }
    )+};
}
"#;
        let mut out = Vec::new();
        check_synopsis_forwarding(&file(SYNOPSIS_TRAIT, src), &mut out);
        assert_eq!(out.len(), 1, "{}", render(&out));
        assert_eq!(out[0].rule, "synopsis-forwarding");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("estimate_many"));
        // Free functions beside the trait are not trait methods, other
        // files are out of scope, and a complete macro is clean.
        out.clear();
        check_synopsis_forwarding(&file("crates/common/src/cache.rs", src), &mut out);
        let fixed = src.replace(
            "            fn dims(&self)",
            "            fn estimate_many(&self) {}\n            fn dims(&self)",
        );
        check_synopsis_forwarding(&file(SYNOPSIS_TRAIT, &fixed), &mut out);
        assert!(out.is_empty(), "{}", render(&out));
    }

    #[test]
    fn reference_rule_flags_library_callers_of_the_reference_estimator() {
        let src = "\
use pass_sampling::estimator::estimate_minmax;
fn f() {
    let pv = pass_sampling::estimator::estimate(agg, sample, rect); // estimator::
}
#[cfg(test)]
mod tests {
    use crate::estimator::estimate;
}
";
        let mut out = Vec::new();
        check_reference_only(&file("crates/baselines/src/aqppp.rs", src), &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 3], "{}", render(&out));
        assert!(out.iter().all(|v| v.rule == "reference-only"));
        // The module itself, its declaration and its docs are not callers.
        out.clear();
        check_reference_only(&file(REFERENCE_ESTIMATOR, src), &mut out);
        let decl = "//! [`estimator`] is the reference.\npub mod estimator;\n";
        check_reference_only(&file("crates/sampling/src/lib.rs", decl), &mut out);
        assert!(out.is_empty(), "{}", render(&out));
    }

    #[test]
    fn unsafe_rule_allows_only_the_justified_dispatch() {
        let dispatch = "\
fn group_lanes(&mut self) {
    if is_x86_feature_detected!(\"avx2\") {
        // SAFETY: the CPU reports AVX2 at run time.
        return unsafe { self.group_lanes_avx2() };
    }
}
fn unsafe_code_is_a_word_not_the_keyword() {}
";
        let mut out = Vec::new();
        check_unsafe_fenced(&file(UNSAFE_DISPATCH, dispatch), &mut out);
        assert!(out.is_empty(), "{}", render(&out));
        // A planted second `unsafe`, in library or test code, is flagged.
        for planted in [
            "fn f() { unsafe { g() } }\n",
            "#[cfg(test)]\nmod tests {\n    // SAFETY: also justified\n    unsafe fn t() {}\n}\n",
        ] {
            out.clear();
            let src = format!("{dispatch}{planted}");
            check_unsafe_fenced(&file(UNSAFE_DISPATCH, &src), &mut out);
            assert_eq!(out.len(), 1, "{planted}: {}", render(&out));
            assert!(out[0].message.contains("second"), "{}", render(&out));
        }
        // Without its comment, or moved anywhere else, it is flagged.
        out.clear();
        let bare = dispatch.replace("// SAFETY:", "//");
        check_unsafe_fenced(&file(UNSAFE_DISPATCH, &bare), &mut out);
        check_unsafe_fenced(&file("crates/core/src/query.rs", dispatch), &mut out);
        let lines: Vec<usize> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![4, 4], "{}", render(&out));
        assert!(out.iter().all(|v| v.rule == "unsafe-fenced"));
    }

    #[test]
    fn unsafe_rule_holds_every_crate_root_to_its_attribute() {
        let forbid = "//! Docs.\n#![forbid(unsafe_code)]\npub mod a;\n";
        let deny = forbid.replace("forbid", "deny");
        let mut out = Vec::new();
        for root in [
            "src/lib.rs",
            "crates/core/src/lib.rs",
            "crates/lint/src/lib.rs",
        ] {
            check_unsafe_fenced(&file(root, forbid), &mut out);
        }
        check_unsafe_fenced(&file(UNSAFE_CRATE_ROOT, &deny), &mut out);
        // Not crate roots: no attribute expected.
        check_unsafe_fenced(&file("crates/core/src/mcf.rs", "pub fn f() {}\n"), &mut out);
        check_unsafe_fenced(
            &file("crates/core/src/x/lib.rs", "pub fn f() {}\n"),
            &mut out,
        );
        assert!(out.is_empty(), "{}", render(&out));
        // A root that drops `forbid` (or trades it for `deny`), and the
        // sampling root with `forbid` where its `deny` belongs.
        let dropped = forbid.replace("#![forbid(unsafe_code)]\n", "");
        check_unsafe_fenced(&file("crates/table/src/lib.rs", &dropped), &mut out);
        check_unsafe_fenced(&file("src/lib.rs", &deny), &mut out);
        check_unsafe_fenced(&file(UNSAFE_CRATE_ROOT, forbid), &mut out);
        let files: Vec<&str> = out.iter().map(|v| v.file.as_str()).collect();
        assert_eq!(
            files,
            ["crates/table/src/lib.rs", "src/lib.rs", UNSAFE_CRATE_ROOT],
            "{}",
            render(&out)
        );
        assert!(out.iter().all(|v| v.rule == "unsafe-fenced" && v.line == 1));
    }

    #[test]
    fn kernel_alloc_rule_accepts_justifications_and_tests() {
        let src = "\
fn f() {
    let a = Vec::new(); // alloc: one-time scratch construction
    // alloc: thread-local built once
    let b = Vec::with_capacity(4);
}
#[cfg(test)]
mod tests {
    fn t() {
        let c = vec![1, 2, 3];
    }
}
";
        let mut out = Vec::new();
        check_no_alloc_in_kernels(&file("crates/sampling/src/kernel.rs", src), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    fn unused(files: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        let out = check_pub_items_used(&files);
        assert!(out.iter().all(|v| v.rule == "pub-has-user"));
        out.iter()
            .map(|v| format!("{}:{}", v.file, v.line))
            .collect()
    }

    const LONELY: &str = "\
pub fn lonely() {}
pub fn used() {}
fn caller() { used(); }
#[cfg(test)]
mod tests {
    pub fn helper() {}
    fn t() { lonely(); helper(); }
}
";

    #[test]
    fn pub_item_rule_flags_an_item_named_only_in_its_own_tests() {
        let lib = "crates/table/src/a.rs";
        assert_eq!(unused(&[(lib, LONELY)]), [format!("{lib}:1")]);
        // Another file's tests are a user, and so is a use beside the
        // declaration; a second declaration of the name is not.
        let other_tests = "#[cfg(test)]\nmod tests {\n    fn t() { a::lonely(); }\n}\n";
        assert!(unused(&[(lib, LONELY), ("crates/core/src/b.rs", other_tests)]).is_empty());
        let swapped = LONELY.replace("{ used(); }", "{ lonely(); }");
        assert_eq!(unused(&[(lib, &swapped)]), [format!("{lib}:2")]);
        let twin = "pub fn solo() {}\n";
        let twins = unused(&[("src/a.rs", twin), ("src/b.rs", twin)]);
        assert_eq!(twins, ["src/a.rs:1", "src/b.rs:1"]);
    }

    #[test]
    fn pub_item_rule_ignores_re_exports_and_comments() {
        let lib = "crates/table/src/a.rs";
        let root = "\
//! [`lonely`] is documented here: lonely
pub use a::lonely;
pub use a::{
    lonely,
    used,
};
/* lonely */ fn f() -> &'static str { \"lonely\" }
";
        let names = unused(&[(lib, LONELY), ("crates/table/src/lib.rs", root)]);
        assert_eq!(names, [format!("{lib}:1")]);
    }

    #[test]
    fn pub_item_rule_counts_tests_examples_the_benchmark_and_docs() {
        let lib = "crates/table/src/a.rs";
        for site in [
            "tests/contract.rs",
            "crates/sampling/tests/oracle.rs",
            "crates/bench/benches/paper.rs",
            "examples/quickstart.rs",
            "benchmark/src/main.rs",
        ] {
            let user = "use pass_table::a::lonely;\n";
            assert!(unused(&[(lib, LONELY), (site, user)]).is_empty(), "{site}");
            let commented = "// lonely\nfn f() { let s = \"lonely\"; }\n";
            assert_eq!(
                unused(&[(lib, LONELY), (site, commented)]).len(),
                1,
                "{site}"
            );
        }
        // Markdown is plain text: quotes, apostrophes and URLs hide nothing.
        for doc in ["README.md", "docs/SERVING.md"] {
            let text = "Call \"it\" — it's `lonely()`, see https://x/y.\n";
            assert!(unused(&[(lib, LONELY), (doc, text)]).is_empty(), "{doc}");
        }
    }

    #[test]
    fn pub_item_rule_reads_each_checked_kind_of_declaration() {
        for (code, name) in [
            ("pub fn f(x: u8) -> u8 {", Some("f")),
            ("pub const fn new() -> Self {", Some("new")),
            ("pub unsafe fn raw() {", Some("raw")),
            ("pub struct Table<T> {", Some("Table")),
            ("pub enum Kind {", Some("Kind")),
            ("pub trait Synopsis: Send {", Some("Synopsis")),
            ("pub const LIMIT: usize = 4;", Some("LIMIT")),
            ("pub static mut SEEN: u64 = 0;", Some("SEEN")),
            (
                "pub type Result<T> = std::result::Result<T, E>;",
                Some("Result"),
            ),
            ("pub fn $name(&self) {", None),
            ("pub(crate) fn inner() {", None),
            ("pub mod csv;", None),
            ("pub use a::b;", None),
            ("pub len: usize,", None),
        ] {
            assert_eq!(pub_item_name(code), name, "{code}");
        }
    }

    #[test]
    fn library_lines_stop_at_the_first_top_level_cfg_test() {
        let src = "//! Doc.\n\n#[derive(Debug)]\nstruct S;\n    #[cfg(test)]\nfn f() {}\n\
                   #[cfg(test)]\nmod tests {}\n#[cfg(test)]\nfn g() {}\n";
        // Doc comment, blank line, attribute, item and the indented
        // `#[cfg(test)]` all count; nothing from column-0 `#[cfg(test)]` on.
        assert_eq!(lines_ahead_of_tests(src), 6);
        assert_eq!(lines_ahead_of_tests("fn f() {}\nfn g() {}"), 2);
        assert_eq!(lines_ahead_of_tests(""), 0);
    }
}
