//! Rule engine: file walking, policy scoping, `lint:allow` suppression,
//! panic-budget aggregation, the call-graph passes, and the diagnostic
//! report.
//!
//! Scanning happens in two layers. The *per-file* layer lexes each file
//! and runs the token rules (`determinism`, `lock_hygiene`,
//! `par_reduction`, `truncating_cast`, `float_order`, plus panic-site
//! counting for `panic_budget`). The *workspace* layer then parses every
//! file's items ([`crate::parse`]), links them into one call graph
//! ([`crate::graph`]) and runs the three cross-function rules:
//! `lock_order`, `alloc_hot_path` and `panic_path`.

use crate::graph::{lock_cycles, CallGraph};
use crate::lexer::{lex, Allow, Lexed};
use crate::parse::parse_items;
use crate::rules::{self, RuleFinding, RULE_NAMES};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// A diagnostic the linter reports: `file:line:rule: message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A suppressed finding plus the `lint:allow` reason that covered it.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The finding the annotation silenced.
    pub finding: Finding,
    /// The annotation's recorded reason.
    pub reason: String,
}

/// Per-group panic-budget accounting.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Budget group (crate directory, `tests/`, or `examples/`).
    pub group: String,
    /// Counted `unwrap`/`expect`/`panic!` sites (allow-annotated excluded).
    pub count: usize,
    /// The ratcheting ceiling for the group.
    pub ceiling: usize,
}

/// `panic_path` accounting: panic-capable sites reachable from the
/// `// lint:serving_root` entry points, against a ratcheting ceiling.
#[derive(Debug, Clone, Default)]
pub struct PanicPathSummary {
    /// Number of annotated serving roots.
    pub roots: usize,
    /// Functions in the serving-reachable closure.
    pub reachable_fns: usize,
    /// Counted panic-capable sites (`unwrap`/`expect`/`panic!`/indexing)
    /// in that closure, allow-annotated excluded.
    pub sites: usize,
    /// The ratcheting ceiling ([`Policy::panic_path_ceiling`]).
    pub ceiling: usize,
}

/// `alloc_hot_path` accounting: how much of the workspace the hot-path
/// allocation ban covered.
#[derive(Debug, Clone, Default)]
pub struct HotPathSummary {
    /// Qualified names of the `// lint:hot_path` roots, sorted.
    pub roots: Vec<String>,
    /// Functions in the hot closure (cold functions excluded).
    pub checked_fns: usize,
}

/// The full result of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that must be fixed (non-zero exit).
    pub violations: Vec<Finding>,
    /// Findings silenced by `lint:allow` annotations, with reasons.
    pub suppressed: Vec<Suppressed>,
    /// Panic-budget accounting per group.
    pub budgets: Vec<BudgetRow>,
    /// Reachability-aware panic accounting (the `panic_path` rule).
    pub panic_path: PanicPathSummary,
    /// The individual counted `panic_path` sites (unwaived), for burndown
    /// work and the JSON artifact.
    pub panic_path_sites: Vec<Finding>,
    /// Hot-path coverage (the `alloc_hot_path` rule).
    pub hot_paths: HotPathSummary,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// What the linter enforces where. [`Policy::workspace`] is the policy of
/// record for this repository; tests construct reduced policies directly.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Path prefixes where ambient time/entropy sources are permitted:
    /// the sanctioned timing module and the measurement-oriented crates.
    pub determinism_allowed: Vec<String>,
    /// Files allowed to call `.lock()` (the lock-helper module).
    pub lock_allowed: Vec<String>,
    /// Path prefix the truncating-cast rule applies to.
    pub cast_scope: String,
    /// Files inside the cast scope that hold the checked helpers (and the
    /// casts they encapsulate).
    pub cast_allowed: Vec<String>,
    /// `(group prefix, ceiling)` pairs for the panic budget. Ceilings only
    /// ratchet *down*: raising one to admit new panic sites defeats the
    /// rule — add a `lint:allow(panic_budget)` with a reason instead.
    pub panic_budgets: Vec<(String, usize)>,
    /// Ceiling for `panic_path`: panic-capable sites reachable from the
    /// serving roots. Ratchets down like the per-crate budgets.
    pub panic_path_ceiling: usize,
}

impl Policy {
    /// The enforced policy for this workspace (see DESIGN.md, "Enforced
    /// invariants").
    pub fn workspace() -> Self {
        Self {
            determinism_allowed: vec![
                // The single sanctioned wall-clock module.
                "crates/indices/src/timing.rs".into(),
                // Measurement harnesses: their whole purpose is timing.
                "crates/bench/".into(),
                "crates/cli/".into(),
            ],
            lock_allowed: vec!["crates/core/src/sync.rs".into()],
            cast_scope: "crates/spatial/src/curve/".into(),
            cast_allowed: vec!["crates/spatial/src/curve/convert.rs".into()],
            // Current counts, measured by this linter. Ratchet these DOWN
            // as panic sites are removed; never up.
            panic_budgets: vec![
                ("crates/analysis/".into(), 3),
                ("crates/bench/".into(), 2),
                ("crates/cli/".into(), 0),
                ("crates/core/".into(), 12),
                ("crates/data/".into(), 8),
                ("crates/indices/".into(), 25),
                ("crates/ml/".into(), 2),
                ("crates/serve/".into(), 22),
                ("crates/spatial/".into(), 0),
                ("crates/store/".into(), 51),
                ("examples/".into(), 5),
                ("tests/".into(), 18),
            ],
            // Measured by the panic_path pass over the serving roots
            // (`ShardedIndex` queries/updates, the CLI's parser and each
            // command-table handler, plus the §14 recovery entry points:
            // save/open/recover). The residue is almost entirely
            // `[]`-indexing in slice kernels and exhaustive fault-matrix
            // unit tests. Ratchets down, never up.
            panic_path_ceiling: 220,
        }
    }

    fn path_matches(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }

    fn budget_group(&self, path: &str) -> Option<&str> {
        self.panic_budgets
            .iter()
            .filter(|(g, _)| path.starts_with(g.as_str()))
            .map(|(g, _)| g.as_str())
            .max_by_key(|g| g.len())
    }
}

/// Whether `allow` covers a finding of `rule` at `line`. An annotation
/// covers its own line; an annotation alone on its line also covers the
/// next line.
fn covers(allow: &Allow, rule: &str, line: u32) -> bool {
    allow.rule == rule && (allow.line == line || (allow.own_line && allow.line + 1 == line))
}

/// Outcome of linting one file (budget counting stays engine-level).
struct FileScan {
    violations: Vec<Finding>,
    suppressed: Vec<Suppressed>,
    /// Panic sites that count toward the file's group budget.
    panic_count: usize,
}

fn apply_allows(
    file: &str,
    rule: &'static str,
    found: Vec<RuleFinding>,
    allows: &[Allow],
    violations: &mut Vec<Finding>,
    suppressed: &mut Vec<Suppressed>,
) {
    for f in found {
        let finding = Finding {
            file: file.to_string(),
            line: f.line,
            rule,
            message: f.message,
        };
        match allows
            .iter()
            .find(|a| covers(a, rule, f.line) && !a.reason.is_empty())
        {
            Some(a) => suppressed.push(Suppressed {
                finding,
                reason: a.reason.clone(),
            }),
            None => violations.push(finding),
        }
    }
}

fn lint_file(path: &str, lexed: &Lexed, policy: &Policy) -> FileScan {
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();

    // Malformed annotations are themselves violations: a typo'd rule name
    // or a missing reason would otherwise silently fail to suppress (or
    // suppress without an audit trail).
    for a in &lexed.allows {
        if !RULE_NAMES.contains(&a.rule.as_str()) {
            violations.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "lint_allow",
                message: format!(
                    "unknown rule `{}` in lint:allow (rules: {})",
                    a.rule,
                    RULE_NAMES.join(", ")
                ),
            });
        } else if a.reason.is_empty() {
            violations.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "lint_allow",
                message: "lint:allow without a reason: write \
                          `// lint:allow(rule): reason`"
                    .to_string(),
            });
        }
    }

    if !Policy::path_matches(path, &policy.determinism_allowed) {
        apply_allows(
            path,
            "determinism",
            rules::determinism(&lexed.tokens),
            &lexed.allows,
            &mut violations,
            &mut suppressed,
        );
    }
    if !Policy::path_matches(path, &policy.lock_allowed) {
        apply_allows(
            path,
            "lock_hygiene",
            rules::lock_hygiene(&lexed.tokens),
            &lexed.allows,
            &mut violations,
            &mut suppressed,
        );
    }
    apply_allows(
        path,
        "par_reduction",
        rules::par_reduction(&lexed.tokens),
        &lexed.allows,
        &mut violations,
        &mut suppressed,
    );
    apply_allows(
        path,
        "float_order",
        rules::float_order(&lexed.tokens),
        &lexed.allows,
        &mut violations,
        &mut suppressed,
    );
    if path.starts_with(policy.cast_scope.as_str())
        && !Policy::path_matches(path, &policy.cast_allowed)
    {
        apply_allows(
            path,
            "truncating_cast",
            rules::truncating_cast(&lexed.tokens),
            &lexed.allows,
            &mut violations,
            &mut suppressed,
        );
    }

    // Panic sites: allow-annotated ones are excluded from the budget and
    // recorded as suppressed.
    let mut panic_count = 0usize;
    for site in rules::panic_sites(&lexed.tokens) {
        let finding = Finding {
            file: path.to_string(),
            line: site.line,
            rule: "panic_budget",
            message: site.message,
        };
        match lexed
            .allows
            .iter()
            .find(|a| covers(a, "panic_budget", site.line) && !a.reason.is_empty())
        {
            Some(a) => suppressed.push(Suppressed {
                finding,
                reason: a.reason.clone(),
            }),
            None => panic_count += 1,
        }
    }

    FileScan {
        violations,
        suppressed,
        panic_count,
    }
}

/// One graph-rule finding, routed through the owning file's `lint:allow`
/// annotations before landing in the report.
fn graph_finding(finding: Finding, allows: &HashMap<&str, &[Allow]>, report: &mut Report) -> bool {
    let covered = allows
        .get(finding.file.as_str())
        .and_then(|fa| {
            fa.iter()
                .find(|a| covers(a, finding.rule, finding.line) && !a.reason.is_empty())
        })
        .cloned();
    match covered {
        Some(a) => {
            report.suppressed.push(Suppressed {
                finding,
                reason: a.reason.clone(),
            });
            true
        }
        None => {
            report.violations.push(finding);
            false
        }
    }
}

/// The workspace layer: builds the call graph and runs `lock_order`,
/// `alloc_hot_path` and `panic_path`.
fn graph_pass(files: &[(String, String)], lexed: &[Lexed], policy: &Policy, report: &mut Report) {
    let allows: HashMap<&str, &[Allow]> = files
        .iter()
        .zip(lexed)
        .map(|((path, _), lx)| (path.as_str(), lx.allows.as_slice()))
        .collect();
    let graph = CallGraph::build(
        files
            .iter()
            .zip(lexed)
            .map(|((path, _), lx)| (path.clone(), parse_items(lx).fns))
            .collect(),
    );

    // ---- lock_order: cycles and locks held across parallel boundaries.
    let (edges, across) = graph.lock_analysis();
    for (locks, edge) in lock_cycles(&edges) {
        graph_finding(
            Finding {
                file: edge.file.clone(),
                line: edge.line,
                rule: "lock_order",
                message: format!(
                    "lock-order cycle {{{}}} (deadlock risk): `{}` acquired while \
                     `{}` is held in `{}`; acquire locks in one global order",
                    locks.join(" <-> "),
                    edge.to,
                    edge.from,
                    edge.in_fn
                ),
            },
            &allows,
            report,
        );
    }
    for a in &across {
        graph_finding(
            Finding {
                file: a.file.clone(),
                line: a.line,
                rule: "lock_order",
                message: format!(
                    "lock `{}` held across a rayon boundary in `{}`: a worker that \
                     takes the same lock deadlocks the pool; drop the guard before \
                     going parallel",
                    a.lock, a.in_fn
                ),
            },
            &allows,
            report,
        );
    }

    // ---- alloc_hot_path: no allocating constructs reachable from
    // `// lint:hot_path` roots; `#[cold]` functions terminate traversal.
    let hot_roots = graph.roots(|f| f.hot_root);
    let reached = graph.reached_from(&hot_roots, |n| !n.item.cold);
    let mut hot_ids: Vec<usize> = reached.keys().copied().collect();
    hot_ids.sort_unstable();
    for id in &hot_ids {
        let node = &graph.nodes[*id];
        let root = &graph.nodes[reached[id]];
        for alloc in &node.item.allocs {
            graph_finding(
                Finding {
                    file: node.file.clone(),
                    line: alloc.line,
                    rule: "alloc_hot_path",
                    message: format!(
                        "allocating construct `{}` in `{}`, reachable from hot-path \
                         root `{}`: hot paths must not allocate (hoist the buffer, \
                         or mark a genuinely cold fallback `#[cold]`)",
                        alloc.what,
                        node.item.qualified(),
                        root.item.qualified()
                    ),
                },
                &allows,
                report,
            );
        }
    }
    let mut root_names: Vec<String> = hot_roots
        .iter()
        .map(|&r| graph.nodes[r].item.qualified())
        .collect();
    root_names.sort();
    report.hot_paths = HotPathSummary {
        roots: root_names,
        checked_fns: hot_ids.len(),
    };

    // ---- panic_path: panic-capable sites reachable from serving roots,
    // against a ratcheting ceiling.
    let serving_roots = graph.roots(|f| f.serving_root);
    let mut serving_ids: Vec<usize> = graph
        .reachable(&serving_roots, |_| true)
        .into_iter()
        .collect();
    serving_ids.sort_unstable();
    let mut sites = 0usize;
    for id in &serving_ids {
        let node = &graph.nodes[*id];
        for p in &node.item.panics {
            let finding = Finding {
                file: node.file.clone(),
                line: p.line,
                rule: "panic_path",
                message: format!(
                    "`{}` site in serving-reachable `{}`",
                    p.kind.label(),
                    node.item.qualified()
                ),
            };
            let waived = allows
                .get(node.file.as_str())
                .and_then(|fa| {
                    fa.iter()
                        .find(|a| covers(a, "panic_path", p.line) && !a.reason.is_empty())
                })
                .cloned();
            match waived {
                Some(a) => report.suppressed.push(Suppressed {
                    finding,
                    reason: a.reason.clone(),
                }),
                None => {
                    sites += 1;
                    report.panic_path_sites.push(finding);
                }
            }
        }
    }
    if sites > policy.panic_path_ceiling {
        report.violations.push(Finding {
            file: "workspace".to_string(),
            line: 1,
            rule: "panic_path",
            message: format!(
                "{sites} panic-capable sites (unwrap/expect/panic!/[]-indexing) \
                 reachable from the {} serving roots exceed the ceiling of {}; \
                 recover the error, or annotate the site with \
                 `// lint:allow(panic_path): reason`",
                serving_roots.len(),
                policy.panic_path_ceiling
            ),
        });
    }
    report.panic_path = PanicPathSummary {
        roots: serving_roots.len(),
        reachable_fns: serving_ids.len(),
        sites,
        ceiling: policy.panic_path_ceiling,
    };
}

/// Lints a set of in-memory `(path, source)` files against a policy.
///
/// This is the core entry point: the binary and the self-scan test feed it
/// the workspace from disk; fixture tests feed it snippets directly. Both
/// the per-file token rules and the workspace call-graph rules run here.
pub fn scan_files(files: &[(String, String)], policy: &Policy) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let mut counts: Vec<(String, usize)> = policy
        .panic_budgets
        .iter()
        .map(|(g, _)| (g.clone(), 0))
        .collect();

    for ((path, _), lx) in files.iter().zip(&lexed) {
        let scan = lint_file(path, lx, policy);
        report.violations.extend(scan.violations);
        report.suppressed.extend(scan.suppressed);
        if scan.panic_count > 0 {
            match policy.budget_group(path) {
                Some(group) => {
                    if let Some(c) = counts.iter_mut().find(|(g, _)| g == group) {
                        c.1 += scan.panic_count;
                    }
                }
                None => report.violations.push(Finding {
                    file: path.clone(),
                    line: 1,
                    rule: "panic_budget",
                    message: format!(
                        "{} panic sites in a file outside every budget group",
                        scan.panic_count
                    ),
                }),
            }
        }
    }

    for (group, count) in counts {
        let ceiling = policy
            .panic_budgets
            .iter()
            .find(|(g, _)| *g == group)
            .map_or(0, |(_, c)| *c);
        if count > ceiling {
            report.violations.push(Finding {
                file: group.clone(),
                line: 1,
                rule: "panic_budget",
                message: format!(
                    "{count} unwrap/expect/panic! sites exceed the ceiling of {ceiling}; \
                     handle the error, or annotate the new site with \
                     `// lint:allow(panic_budget): reason`"
                ),
            });
        }
        report.budgets.push(BudgetRow {
            group,
            count,
            ceiling,
        });
    }

    graph_pass(files, &lexed, policy, &mut report);

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Recursively collects workspace `.rs` files, skipping build output,
/// vendored stand-ins, and VCS metadata. Paths come back workspace-relative
/// with forward slashes, sorted.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(files)
}

/// Scans the workspace rooted at `root` with the given policy.
pub fn scan_workspace(root: &Path, policy: &Policy) -> std::io::Result<Report> {
    Ok(scan_files(&collect_rs_files(root)?, policy))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, src: &str) -> Vec<(String, String)> {
        vec![(path.to_string(), src.to_string())]
    }

    fn tiny_policy() -> Policy {
        Policy {
            determinism_allowed: vec!["crates/bench/".into()],
            lock_allowed: vec!["crates/core/src/sync.rs".into()],
            cast_scope: "crates/spatial/src/curve/".into(),
            cast_allowed: vec!["crates/spatial/src/curve/convert.rs".into()],
            panic_budgets: vec![("crates/core/".into(), 1)],
            panic_path_ceiling: 0,
        }
    }

    #[test]
    fn scoping_exempts_allowlisted_paths() {
        let p = tiny_policy();
        let src = "let t = Instant::now();";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        assert_eq!(r.violations.len(), 1);
        let r = scan_files(&one("crates/bench/src/x.rs", src), &p);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn cast_rule_only_applies_in_scope() {
        let p = tiny_policy();
        let src = "let x = y as u32;";
        assert_eq!(
            scan_files(&one("crates/spatial/src/curve/m.rs", src), &p)
                .violations
                .len(),
            1
        );
        assert!(
            scan_files(&one("crates/spatial/src/curve/convert.rs", src), &p)
                .violations
                .is_empty()
        );
        assert!(scan_files(&one("crates/core/src/x.rs", src), &p)
            .violations
            .is_empty());
    }

    #[test]
    fn allow_suppresses_and_records() {
        let p = tiny_policy();
        let src = "// lint:allow(lock_hygiene): single-threaded init\nm.lock().unwrap();";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        assert!(r.violations.iter().all(|v| v.rule != "lock_hygiene"),);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].reason, "single-threaded init");
    }

    #[test]
    fn allow_without_reason_is_a_violation_and_does_not_suppress() {
        let p = tiny_policy();
        let src = "// lint:allow(lock_hygiene)\nm.lock().unwrap();";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        assert!(r.violations.iter().any(|v| v.rule == "lint_allow"));
        assert!(r.violations.iter().any(|v| v.rule == "lock_hygiene"));
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let p = tiny_policy();
        let r = scan_files(
            &one("crates/core/src/x.rs", "// lint:allow(no_such_rule): x\n"),
            &p,
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "lint_allow");
    }

    #[test]
    fn panic_budget_aggregates_and_ratchets() {
        let p = tiny_policy();
        // Two sites, ceiling 1 → violation naming the group.
        let src = "a.unwrap();\nb.expect(\"m\");";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        let v: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.rule == "panic_budget")
            .collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, "crates/core/");
        assert!(v[0].message.contains("2 unwrap/expect/panic! sites"));
        // An annotated site leaves the count under the ceiling.
        let src = "a.unwrap(); // lint:allow(panic_budget): infallible here\nb.expect(\"m\");";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        assert!(r.violations.iter().all(|v| v.rule != "panic_budget"));
        assert_eq!(r.budgets[0].count, 1);
    }

    #[test]
    fn float_order_flagged_and_waivable() {
        let p = tiny_policy();
        let src =
            "fn f(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\")); }";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        assert!(r.violations.iter().any(|v| v.rule == "float_order"));
        let src = "fn f(xs: &mut Vec<V>) {\n\
                   // lint:allow(float_order): comparing versions, not floats\n\
                   xs.sort_by(|a, b| a.partial_cmp(b).expect(\"total\")); }";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        assert!(r.violations.iter().all(|v| v.rule != "float_order"));
        assert!(r.suppressed.iter().any(|s| s.finding.rule == "float_order"));
    }

    #[test]
    fn panic_path_counts_only_reachable_sites() {
        let p = tiny_policy();
        let src = "// lint:serving_root\n\
                   fn serve(&self) { self.step(); }\n\
                   fn step(&self) { self.v.first().unwrap(); }\n\
                   fn unreachable_helper(&self) { x.unwrap(); y.unwrap(); z.unwrap(); }\n";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        assert_eq!(r.panic_path.roots, 1);
        assert_eq!(r.panic_path.sites, 1, "only the reachable unwrap counts");
        assert!(r.violations.iter().any(|v| v.rule == "panic_path"));
        // Raising the ceiling to the measured count clears the violation.
        let mut ok = tiny_policy();
        ok.panic_path_ceiling = 1;
        let r = scan_files(&one("crates/core/src/x.rs", src), &ok);
        assert!(r.violations.iter().all(|v| v.rule != "panic_path"));
    }

    #[test]
    fn alloc_hot_path_traverses_calls() {
        let p = tiny_policy();
        let src = "// lint:hot_path\n\
                   fn probe(&self) -> f64 { self.helper() }\n\
                   fn helper(&self) -> f64 { let v = vec![1.0]; v.len() as f64 }\n";
        let r = scan_files(&one("crates/core/src/x.rs", src), &p);
        let v: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.rule == "alloc_hot_path")
            .collect();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("vec!"));
        assert!(
            v[0].message.contains("probe"),
            "names the root: {}",
            v[0].message
        );
        assert_eq!(r.hot_paths.roots, vec!["probe".to_string()]);
        assert_eq!(r.hot_paths.checked_fns, 2);
    }

    #[test]
    fn display_format_is_file_line_rule_message() {
        let f = Finding {
            file: "crates/core/src/x.rs".into(),
            line: 7,
            rule: "determinism",
            message: "msg".into(),
        };
        assert_eq!(f.to_string(), "crates/core/src/x.rs:7:determinism: msg");
    }
}
