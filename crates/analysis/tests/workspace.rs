//! Workspace self-scan: the same pass `cargo run -p analysis` performs,
//! wrapped in `#[test]`s so the invariants are enforced by `cargo test`
//! (and thus by tier-1 CI) without a separate step.

use analysis::{scan_workspace, workspace_root, Baseline, Policy, Report};

fn scan() -> Report {
    scan_workspace(&workspace_root(), &Policy::workspace()).expect("workspace sources are readable")
}

#[test]
fn workspace_has_no_unannotated_violations() {
    let report = scan();
    assert!(
        report.files_scanned > 50,
        "self-scan saw only {} files: is the workspace root wrong?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace invariant violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let report = scan();
    for s in &report.suppressed {
        assert!(
            !s.reason.is_empty(),
            "suppression without a reason at {}",
            s.finding
        );
    }
}

#[test]
fn lock_order_reports_no_findings_on_the_real_workspace() {
    let report = scan();
    let lock_findings: Vec<String> = report
        .violations
        .iter()
        .chain(report.suppressed.iter().map(|s| &s.finding))
        .filter(|v| v.rule == "lock_order")
        .map(|v| v.to_string())
        .collect();
    assert!(
        lock_findings.is_empty(),
        "lock_order findings on the real workspace (fix, don't waive):\n{}",
        lock_findings.join("\n")
    );
}

#[test]
fn hot_path_roots_are_annotated_and_checked() {
    let report = scan();
    // The roots the counting-allocator tests exercise: the FFN inference
    // kernels, the shard router, the three SoA scan kernels every
    // leaf-level query funnels through and LISA's window and kNN. Losing
    // one silently would hollow out the alloc_hot_path rule.
    for root in [
        "Ffn::predict1",
        "Ffn::predict_scalar",
        "Router::shard_of",
        "contains_scan",
        "knn_scan",
        "range_scan_into",
        "LisaIndex::window_query_into",
        "LisaIndex::knn_within_into",
    ] {
        assert!(
            report.hot_paths.roots.iter().any(|r| r == root),
            "hot-path root `{root}` lost its `// lint:hot_path` marker; roots: {:?}",
            report.hot_paths.roots
        );
    }
    assert!(
        report.hot_paths.checked_fns >= report.hot_paths.roots.len(),
        "hot-path closure smaller than its root set"
    );
    assert!(
        report.panic_path.roots >= 9,
        "serving root set shrank to {}: did a `// lint:serving_root` marker vanish?",
        report.panic_path.roots
    );
}

#[test]
fn committed_baseline_matches_the_current_scan() {
    let report = scan();
    let path = workspace_root().join("crates/analysis/baseline.json");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        !text.is_empty(),
        "missing committed baseline {}",
        path.display()
    );
    let parsed = Baseline::parse(&text);
    assert!(parsed.is_ok(), "baseline.json does not parse: {parsed:?}");
    let Ok(baseline) = parsed else { return };
    let regressions = baseline.regressions(&report);
    assert!(
        regressions.is_empty(),
        "scan regressed against crates/analysis/baseline.json:\n{}\n\
         (fix the regression, or — for an intentional ratchet — regenerate \
         with `cargo run -p analysis -- --write-baseline crates/analysis/baseline.json`)",
        regressions.join("\n")
    );
    // The ratchet must not drift stale either: a baseline recording more
    // panic_path sites than reality should be tightened on the spot.
    assert!(
        baseline.panic_path_sites >= report.panic_path.sites,
        "baseline records fewer panic_path sites ({}) than the scan found ({})",
        baseline.panic_path_sites,
        report.panic_path.sites
    );
}
