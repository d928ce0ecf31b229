//! The workspace lint pass, run as a normal test target (and CI job).
//!
//! Each test runs one rule over the real workspace sources and fails
//! with the full violation list. The rules land green — violations are
//! fixed at the source, never allow-listed here.

use std::sync::OnceLock;

use pass_lint::{render, run_workspace, Violation};

/// One walk of the workspace serves every test: rule 11 reads every
/// source and doc file, so a walk per test would repeat that work.
fn of_rule(rule: &str) -> Vec<Violation> {
    static ALL: OnceLock<Vec<Violation>> = OnceLock::new();
    ALL.get_or_init(run_workspace)
        .iter()
        .filter(|v| v.rule == rule)
        .cloned()
        .collect()
}

fn assert_clean(rule: &str) {
    let violations = of_rule(rule);
    assert!(
        violations.is_empty(),
        "[{rule}] {} violation(s):\n{}",
        violations.len(),
        render(&violations)
    );
}

#[test]
fn no_panic_paths_in_serving_tier_library_code() {
    assert_clean("no-panic");
}

#[test]
fn shimmed_modules_never_bypass_the_chaos_shims() {
    assert_clean("use-shims");
}

#[test]
fn every_relaxed_ordering_is_justified() {
    assert_clean("relaxed-justified");
}

#[test]
fn lock_acquisition_follows_the_declared_order() {
    assert_clean("lock-order");
}

#[test]
fn clock_reads_stay_in_the_declared_timing_modules() {
    assert_clean("time-confined");
}

#[test]
fn snapshot_decoders_never_index_untrusted_input() {
    assert_clean("decoder-no-index");
    assert_clean("decoder-confined");
}

#[test]
fn scan_kernels_stay_allocation_free() {
    assert_clean("kernel-no-alloc");
}

#[test]
fn every_synopsis_method_is_forwarded_through_wrappers() {
    assert_clean("synopsis-forwarding");
}

#[test]
fn the_reference_estimator_is_named_from_tests_only() {
    assert_clean("reference-only");
}

#[test]
fn the_walk_actually_covers_the_serving_tier() {
    // Guard against a silent no-op pass: the walker must have parsed
    // the files the rules are scoped to.
    let root = pass_lint::workspace_root();
    for rel in pass_lint::SHIMMED {
        assert!(
            root.join(rel).is_file(),
            "lint scope lists a missing file: {rel}"
        );
    }
    for rel in pass_lint::TIME_ALLOWED {
        assert!(
            root.join(rel).is_file(),
            "time allowlist lists a missing file: {rel}"
        );
    }
    assert!(
        root.join(pass_lint::SYNOPSIS_TRAIT).is_file(),
        "forwarding scope names a missing file"
    );
    assert!(
        root.join(pass_lint::REFERENCE_ESTIMATOR).is_file(),
        "reference-only scope names a missing file"
    );
    for rel in [pass_lint::UNSAFE_DISPATCH, pass_lint::UNSAFE_CRATE_ROOT] {
        assert!(
            root.join(rel).is_file(),
            "unsafe fence names a missing file: {rel}"
        );
    }
    for rel in pass_lint::SNAPSHOT_DECODERS {
        assert!(
            root.join(rel).is_file(),
            "decoder scope lists a missing file: {rel}"
        );
    }
}

#[test]
fn unsafe_stays_fenced_to_the_one_isa_dispatch() {
    assert_clean("unsafe-fenced");
}

/// Prints the library line count per crate and in total (see
/// `pass_lint::library_lines` for the rule); `--nocapture` shows it.
#[test]
fn library_lines_are_counted_for_every_crate() {
    let lines = pass_lint::library_lines(&pass_lint::workspace_root());
    for (krate, count) in &lines.per_crate {
        println!("library lines {krate:<24} {count:>6}");
        assert!(*count > 0, "{krate} counted no lines");
    }
    println!("library lines {:<24} {:>6}", "total", lines.total);
    assert!(lines.per_crate.iter().any(|(krate, _)| krate == "src"));
    assert!(lines
        .per_crate
        .iter()
        .any(|(krate, _)| krate == "crates/common/src"));
}

#[test]
fn every_pub_item_has_a_user_outside_its_own_tests() {
    assert_clean("pub-has-user");
}
