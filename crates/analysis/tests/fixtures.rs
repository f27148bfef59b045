//! Fixture tests: one violating snippet and one allowed-via-annotation
//! snippet per rule, asserting the exact diagnostics the linter emits.
//!
//! Every snippet is a raw string literal so the workspace self-scan (which
//! lexes this file too) cannot see the deliberately-bad code inside them.

use analysis::{scan_files, Policy, Report};

/// A policy mirroring the workspace one but with a tight panic budget so
/// fixtures can exercise the ratchet without hundreds of lines.
fn fixture_policy() -> Policy {
    Policy {
        determinism_allowed: vec![
            "crates/indices/src/timing.rs".into(),
            "crates/bench/".into(),
            "crates/cli/".into(),
        ],
        lock_allowed: vec!["crates/core/src/sync.rs".into()],
        cast_scope: "crates/spatial/src/curve/".into(),
        cast_allowed: vec!["crates/spatial/src/curve/convert.rs".into()],
        panic_budgets: vec![("crates/core/".into(), 0)],
        panic_path_ceiling: 0,
    }
}

fn scan_one(path: &str, src: &str) -> Report {
    scan_files(&[(path.to_string(), src.to_string())], &fixture_policy())
}

fn diagnostics(r: &Report) -> Vec<String> {
    r.violations.iter().map(|v| v.to_string()).collect()
}

#[test]
fn determinism_bad_fixture() {
    let src = r#"
fn build(&self) -> Model {
    let t0 = Instant::now();
    let model = fit(self.keys);
    self.stats.record(t0.elapsed());
    model
}
"#;
    let r = scan_one("crates/core/src/build.rs", src);
    assert_eq!(
        diagnostics(&r),
        vec![
            "crates/core/src/build.rs:3:determinism: ambient time/entropy source \
             `Instant`: route timing through `elsi_indices::timing` and seed RNGs \
             explicitly"
        ]
    );
}

#[test]
fn determinism_allowed_fixture() {
    let src = r#"
fn jitter() -> u64 {
    // lint:allow(determinism): cache-buster for the perf harness only
    let rng = thread_rng();
    rng.gen()
}
"#;
    let r = scan_one("crates/core/src/build.rs", src);
    assert!(r.violations.is_empty(), "got: {:?}", diagnostics(&r));
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].finding.rule, "determinism");
    assert_eq!(
        r.suppressed[0].reason,
        "cache-buster for the perf harness only"
    );
}

#[test]
fn lock_hygiene_bad_fixture() {
    let src = r#"
fn chosen(&self) -> Vec<Method> {
    self.chosen.lock().unwrap().clone()
}
"#;
    let r = scan_one("crates/core/src/build.rs", src);
    let locks: Vec<_> = diagnostics(&r)
        .into_iter()
        .filter(|d| d.contains(":lock_hygiene:"))
        .collect();
    assert_eq!(
        locks,
        vec![
            "crates/core/src/build.rs:3:lock_hygiene: bare `.lock()`: call \
             `elsi::lock_unpoisoned(&mutex)` so a poisoned mutex cannot cascade \
             panics across rayon workers"
        ]
    );
    // The unwrap also lands on the panic budget (ceiling 0 here).
    assert!(diagnostics(&r).iter().any(|d| d.contains(":panic_budget:")));
}

#[test]
fn lock_hygiene_allowed_fixture() {
    let src = r#"
fn into_inner_cheaply(&self) -> Vec<Method> {
    // lint:allow(lock_hygiene): helper crate shims an external Mutex type
    self.chosen.lock().map(|g| g.clone()).unwrap_or_default()
}
"#;
    let r = scan_one("crates/core/src/build.rs", src);
    assert!(r.violations.is_empty(), "got: {:?}", diagnostics(&r));
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].finding.rule, "lock_hygiene");
}

#[test]
fn par_reduction_bad_fixture() {
    let src = r#"
fn total_error(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * x).sum()
}
"#;
    let r = scan_one("crates/core/src/scorer.rs", src);
    assert_eq!(
        diagnostics(&r),
        vec![
            "crates/core/src/scorer.rs:3:par_reduction: `.sum()` in a `par_iter` \
             chain combines partials in scheduling order: float results vary \
             across runs; reduce over ordered chunk partials instead (or annotate \
             integral reductions)"
        ]
    );
}

#[test]
fn par_reduction_allowed_fixture() {
    let src = r#"
fn total_hits(xs: &[Bucket]) -> u64 {
    // lint:allow(par_reduction): integral sum, order cannot change the result
    xs.par_iter().map(|b| b.hits).sum()
}
"#;
    let r = scan_one("crates/core/src/scorer.rs", src);
    assert!(r.violations.is_empty(), "got: {:?}", diagnostics(&r));
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].finding.rule, "par_reduction");
    assert_eq!(
        r.suppressed[0].reason,
        "integral sum, order cannot change the result"
    );
}

#[test]
fn truncating_cast_bad_fixture() {
    let src = r#"
fn quantize(v: f64) -> u32 {
    (v * 4294967296.0) as u32
}
"#;
    let r = scan_one("crates/spatial/src/curve/morton.rs", src);
    assert_eq!(
        diagnostics(&r),
        vec![
            "crates/spatial/src/curve/morton.rs:3:truncating_cast: raw `as u32` \
             cast in curve code: use the checked conversion helpers in \
             `elsi_spatial::curve::convert`"
        ]
    );
}

#[test]
fn truncating_cast_scope_and_allow() {
    // Outside the curve directory the same cast is not flagged.
    let src = r#"fn f(x: u64) -> u32 { x as u32 }"#;
    let r = scan_one("crates/core/src/grid.rs", src);
    assert!(r.violations.is_empty());
    // Inside it, an annotated cast is suppressed and recorded.
    let src = r#"
fn low_bits(x: u64) -> u32 {
    // lint:allow(truncating_cast): masking off the high word is the intent
    (x & 0xFFFF_FFFF) as u32
}
"#;
    let r = scan_one("crates/spatial/src/curve/hilbert.rs", src);
    assert!(r.violations.is_empty(), "got: {:?}", diagnostics(&r));
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].finding.rule, "truncating_cast");
}

#[test]
fn panic_budget_bad_fixture() {
    let src = r#"
fn load(path: &str) -> Data {
    let bytes = std::fs::read(path).unwrap();
    parse(&bytes).expect("parse failed")
}
"#;
    let r = scan_one("crates/core/src/io.rs", src);
    assert_eq!(
        diagnostics(&r),
        vec![
            "crates/core/:1:panic_budget: 2 unwrap/expect/panic! sites exceed the \
             ceiling of 0; handle the error, or annotate the new site with \
             `// lint:allow(panic_budget): reason`"
        ]
    );
    assert_eq!(r.budgets.len(), 1);
    assert_eq!(r.budgets[0].count, 2);
}

#[test]
fn panic_budget_allowed_fixture() {
    let src = r#"
fn header(bytes: &[u8]) -> [u8; 8] {
    // lint:allow(panic_budget): length checked by the caller's magic probe
    bytes[..8].try_into().unwrap()
}
"#;
    let r = scan_one("crates/core/src/io.rs", src);
    assert!(r.violations.is_empty(), "got: {:?}", diagnostics(&r));
    assert_eq!(r.budgets[0].count, 0);
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].finding.rule, "panic_budget");
}

#[test]
fn annotation_on_same_line_also_suppresses() {
    let src = r#"
fn f(m: &M) { m.lock(); } // lint:allow(lock_hygiene): fixture
"#;
    let r = scan_one("crates/core/src/x.rs", src);
    assert!(r.violations.is_empty(), "got: {:?}", diagnostics(&r));
    assert_eq!(r.suppressed.len(), 1);
}

#[test]
fn float_order_bad_fixture() {
    let src = r#"
fn rank(xs: &mut Vec<(f64, u32)>) {
    xs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
}
"#;
    let r = scan_one("crates/core/src/scorer.rs", src);
    let floats: Vec<_> = diagnostics(&r)
        .into_iter()
        .filter(|d| d.contains(":float_order:"))
        .collect();
    assert_eq!(
        floats,
        vec![
            "crates/core/src/scorer.rs:3:float_order: NaN-unsafe `.partial_cmp()`: \
             use `f64::total_cmp` or the canonical comparators in \
             `elsi_spatial::order`"
        ]
    );
}

#[test]
fn float_order_allowed_fixture() {
    let src = r#"
fn rank(xs: &mut Vec<Version>) {
    // lint:allow(float_order): Version ordering is total; these are not floats
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
}
"#;
    let r = scan_one("crates/core/src/scorer.rs", src);
    assert!(
        diagnostics(&r).iter().all(|d| !d.contains(":float_order:")),
        "got: {:?}",
        diagnostics(&r)
    );
    let sup: Vec<_> = r
        .suppressed
        .iter()
        .filter(|s| s.finding.rule == "float_order")
        .collect();
    assert_eq!(sup.len(), 1);
    assert_eq!(
        sup[0].reason,
        "Version ordering is total; these are not floats"
    );
}

#[test]
fn lock_order_two_mutex_cycle_fixture() {
    // The seeded deadlock: `transfer` takes a then b, `audit` takes b then
    // a. One thread in each and both block forever.
    let src = r#"
fn transfer(&self) {
    let a = lock_unpoisoned(&self.accounts);
    let b = lock_unpoisoned(&self.ledger);
    a.apply(&b);
}

fn audit(&self) {
    let b = lock_unpoisoned(&self.ledger);
    let a = lock_unpoisoned(&self.accounts);
    b.check(&a);
}
"#;
    let r = scan_one("crates/core/src/build.rs", src);
    let locks: Vec<_> = diagnostics(&r)
        .into_iter()
        .filter(|d| d.contains(":lock_order:"))
        .collect();
    assert_eq!(
        locks,
        vec![
            "crates/core/src/build.rs:4:lock_order: lock-order cycle \
             {accounts <-> ledger} (deadlock risk): `ledger` acquired while \
             `accounts` is held in `transfer`; acquire locks in one global order"
        ]
    );
}

#[test]
fn lock_order_cycle_through_a_call_is_found() {
    // The same cycle, but one arm acquires its second lock in a callee.
    let src = r#"
fn transfer(&self) {
    let a = lock_unpoisoned(&self.accounts);
    self.log_into_ledger();
}

fn log_into_ledger(&self) {
    let b = lock_unpoisoned(&self.ledger);
    b.append();
}

fn audit(&self) {
    let b = lock_unpoisoned(&self.ledger);
    let a = lock_unpoisoned(&self.accounts);
}
"#;
    let r = scan_one("crates/core/src/build.rs", src);
    assert!(
        diagnostics(&r)
            .iter()
            .any(|d| d.contains(":lock_order:") && d.contains("accounts <-> ledger")),
        "got: {:?}",
        diagnostics(&r)
    );
}

#[test]
fn lock_order_across_rayon_fixture() {
    let src = r#"
fn rebuild(&self) {
    let chosen = lock_unpoisoned(&self.chosen);
    self.blocks.par_iter().for_each(|b| b.refresh(&chosen));
}
"#;
    let r = scan_one("crates/core/src/build.rs", src);
    let locks: Vec<_> = diagnostics(&r)
        .into_iter()
        .filter(|d| d.contains(":lock_order:"))
        .collect();
    assert_eq!(
        locks,
        vec![
            "crates/core/src/build.rs:4:lock_order: lock `chosen` held across a \
             rayon boundary in `rebuild`: a worker that takes the same lock \
             deadlocks the pool; drop the guard before going parallel"
        ]
    );
}

#[test]
fn lock_order_allowed_fixture() {
    let src = r#"
fn rebuild(&self) {
    let chosen = lock_unpoisoned(&self.chosen);
    // lint:allow(lock_order): workers never touch self.chosen (read-only config)
    self.blocks.par_iter().for_each(|b| b.refresh(&chosen));
}
"#;
    let r = scan_one("crates/core/src/build.rs", src);
    assert!(
        diagnostics(&r).iter().all(|d| !d.contains(":lock_order:")),
        "got: {:?}",
        diagnostics(&r)
    );
    let sup: Vec<_> = r
        .suppressed
        .iter()
        .filter(|s| s.finding.rule == "lock_order")
        .collect();
    assert_eq!(sup.len(), 1);
    assert_eq!(
        sup[0].reason,
        "workers never touch self.chosen (read-only config)"
    );
}

#[test]
fn alloc_hot_path_bad_fixture() {
    // The allocation hides one call deep: the rule must traverse the graph.
    let src = r#"
// lint:hot_path
fn point_query(&self, key: u64) -> Option<u32> {
    self.probe(key)
}

fn probe(&self, key: u64) -> Option<u32> {
    let scratch = Vec::new();
    self.search(key, scratch)
}
"#;
    let r = scan_one("crates/core/src/grid.rs", src);
    let allocs: Vec<_> = diagnostics(&r)
        .into_iter()
        .filter(|d| d.contains(":alloc_hot_path:"))
        .collect();
    assert_eq!(
        allocs,
        vec![
            "crates/core/src/grid.rs:8:alloc_hot_path: allocating construct \
             `Vec::new` in `probe`, reachable from hot-path root `point_query`: \
             hot paths must not allocate (hoist the buffer, or mark a genuinely \
             cold fallback `#[cold]`)"
        ]
    );
}

#[test]
fn alloc_hot_path_cold_fallback_is_exempt() {
    let src = r#"
// lint:hot_path
fn predict(&self, x: f64) -> f64 {
    self.fast(x)
}

fn fast(&self, x: f64) -> f64 {
    x * self.w
}

#[cold]
fn slow(&self, x: f64) -> f64 {
    let buf = vec![x];
    self.forward(&buf)
}
"#;
    let r = scan_one("crates/core/src/grid.rs", src);
    assert!(
        diagnostics(&r)
            .iter()
            .all(|d| !d.contains(":alloc_hot_path:")),
        "got: {:?}",
        diagnostics(&r)
    );
}

#[test]
fn a_method_call_resolves_to_methods_of_its_arity_only() {
    // `.fill(0)` on a slice, `locate(…)` and `mem::take(…)` reach no
    // method, `self.grow(…)` no `grow` of another arity and the closure
    // `bump` no fn: the one allocation reached is the method
    // `self.grow(n)` can call.
    let src = r#"
// lint:hot_path
fn reset(&mut self, counts: &mut [u32], n: usize) -> usize {
    counts.fill(0);
    let old = mem::take(&mut self.runs);
    let bump = |n: usize| n + 1;
    self.grow(bump(n));
    locate(counts, n)
}

fn bump(n: usize) -> Vec<usize> {
    vec![n]
}

fn fill(n: usize) -> Vec<u32> {
    vec![0; n]
}

fn take(&mut self) -> Vec<u32> {
    self.runs.to_vec()
}

fn locate(&self, counts: &[u32], n: usize) -> usize {
    format!("{n}").len()
}

fn grow(&mut self, n: usize) {
    self.runs.push(n);
}

fn grow(&mut self) {
    self.runs.extend(self.more());
}
"#;
    let r = scan_one("crates/core/src/counts.rs", src);
    let allocs: Vec<_> = diagnostics(&r)
        .into_iter()
        .filter(|d| d.contains(":alloc_hot_path:"))
        .collect();
    assert_eq!(
        allocs,
        vec![
            "crates/core/src/counts.rs:28:alloc_hot_path: allocating construct \
             `push` in `grow`, reachable from hot-path root `reset`: hot paths \
             must not allocate (hoist the buffer, or mark a genuinely cold \
             fallback `#[cold]`)"
        ]
    );
}

#[test]
fn alloc_hot_path_allowed_fixture() {
    let src = r#"
// lint:hot_path
fn window_query(&self, w: &Rect) -> usize {
    // lint:allow(alloc_hot_path): result set is unbounded; callers own the Vec
    let mut out = Vec::new();
    self.visit(w, &mut out);
    out.len()
}
"#;
    let r = scan_one("crates/core/src/grid.rs", src);
    assert!(
        diagnostics(&r)
            .iter()
            .all(|d| !d.contains(":alloc_hot_path:")),
        "got: {:?}",
        diagnostics(&r)
    );
    let sup: Vec<_> = r
        .suppressed
        .iter()
        .filter(|s| s.finding.rule == "alloc_hot_path")
        .collect();
    assert_eq!(sup.len(), 1);
    assert_eq!(
        sup[0].reason,
        "result set is unbounded; callers own the Vec"
    );
}

#[test]
fn panic_path_bad_fixture() {
    let src = r#"
// lint:serving_root
fn handle(&self, q: Query) -> Reply {
    self.dispatch(q)
}

fn dispatch(&self, q: Query) -> Reply {
    self.shards[q.shard].answer(q)
}
"#;
    let r = scan_one("crates/core/src/serve.rs", src);
    let panics: Vec<_> = diagnostics(&r)
        .into_iter()
        .filter(|d| d.contains(":panic_path:"))
        .collect();
    assert_eq!(
        panics,
        vec![
            "workspace:1:panic_path: 1 panic-capable sites \
             (unwrap/expect/panic!/[]-indexing) reachable from the 1 serving \
             roots exceed the ceiling of 0; recover the error, or annotate the \
             site with `// lint:allow(panic_path): reason`"
        ]
    );
    assert_eq!(r.panic_path.sites, 1);
    assert_eq!(r.panic_path.reachable_fns, 2);
}

#[test]
fn panic_path_follows_a_turbofish_call() {
    let src = r#"
// lint:serving_root
fn handle(&self, xs: &[f64]) -> usize {
    kernel::<16>(xs) + Vec::<f64>::new().len()
}

fn kernel<const H: usize>(xs: &[f64]) -> usize {
    xs[H] as usize
}
"#;
    let r = scan_one("crates/core/src/serve.rs", src);
    assert_eq!(r.panic_path.sites, 1, "{:?}", diagnostics(&r));
    assert_eq!(r.panic_path.reachable_fns, 2);
}

#[test]
fn panic_path_allowed_fixture() {
    let src = r#"
// lint:serving_root
fn handle(&self, q: Query) -> Reply {
    // lint:allow(panic_path): shard id is validated by the router above
    self.shards[q.shard].answer(q)
}
"#;
    let r = scan_one("crates/core/src/serve.rs", src);
    assert!(
        diagnostics(&r).iter().all(|d| !d.contains(":panic_path:")),
        "got: {:?}",
        diagnostics(&r)
    );
    let sup: Vec<_> = r
        .suppressed
        .iter()
        .filter(|s| s.finding.rule == "panic_path")
        .collect();
    assert_eq!(sup.len(), 1);
    assert_eq!(sup[0].reason, "shard id is validated by the router above");
    assert_eq!(r.panic_path.sites, 0);
}

#[test]
fn banned_names_inside_strings_and_comments_are_invisible() {
    let src = r##"
// Instant::now() in a comment, m.lock() too.
fn doc() -> &'static str {
    "Instant::now(); m.lock().unwrap(); x as u32"
}
fn raw() -> &'static str {
    r#"thread_rng(); xs.par_iter().sum::<f64>()"#
}
"##;
    let r = scan_one("crates/spatial/src/curve/morton.rs", src);
    assert!(r.violations.is_empty(), "got: {:?}", diagnostics(&r));
    assert_eq!(r.suppressed.len(), 0);
}
