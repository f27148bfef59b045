//! Shared experiment machinery: scale knobs, the figures' rows of the
//! index zoo, the three measure functions every figure's query latency
//! goes through, and table printing.

use crate::stats::{median_of_sorted, sorted};
use elsi::{Elsi, ElsiConfig, IndexKind, Method};
use elsi_data::{gen, Dataset};
use elsi_indices::SpatialIndex;
use elsi_spatial::{Point, Rect, ScanScratch};
use std::hint::black_box;
use IndexKind::*;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Base cardinality standing in for the paper's 100M-point OSM1
/// (`ELSI_BENCH_N`, default 30,000).
pub fn base_n() -> usize {
    env_usize("ELSI_BENCH_N", 30_000)
}

/// Training epochs used for every model (`ELSI_BENCH_EPOCHS`, default 50;
/// paper: 500 on GPU).
pub fn bench_epochs() -> usize {
    env_usize("ELSI_BENCH_EPOCHS", 50)
}

/// Applies the `ELSI_THREADS` knob to the global rayon pool (unset or `0`
/// restores auto-detection) and returns the resulting thread count.
/// Parallel and sequential builds produce identical indices (per-partition
/// seeding), so the knob only moves wall-clock time.
pub fn configure_threads() -> usize {
    rayon::ThreadPoolBuilder::new()
        .num_threads(env_usize("ELSI_THREADS", 0))
        .build_global()
        .expect("global thread pool");
    rayon::current_num_threads()
}

/// The ELSI configuration used across the experiments, scaled to `n`.
pub fn bench_config(n: usize, epochs: usize) -> ElsiConfig {
    let mut cfg = ElsiConfig::scaled_for(n);
    cfg.train.epochs = epochs;
    cfg
}

/// The one-shot clock for work that cannot be repeated (a build, an
/// insertion batch): a closure's output and its elapsed seconds.
pub use elsi_indices::timed_secs as timed;

/// The traditional competitors.
pub const TRADITIONAL: [IndexKind; 4] = [Grid, Kdb, Hrr, RStar];

/// The learned indices reported in the main experiments (ZM only appears
/// in §VII-D, matching the paper).
pub const LEARNED: [IndexKind; 3] = [Ml, Rsmi, Lisa];

/// All learned indices of the paper, ZM included.
pub const LEARNED_ALL: [IndexKind; 4] = [Zm, Ml, Rsmi, Lisa];

/// How a learned index's models are built.
#[derive(Clone)]
pub enum BuilderKind {
    /// Original: full-data training (plain "ML"/"RSMI"/"LISA" rows).
    Og,
    /// A fixed ELSI method.
    Fixed(Method),
    /// The learned method selector (the `-F` rows; requires a prepared
    /// [`Elsi`] with a trained scorer).
    Selector,
    /// The random-selector ablation of Table II.
    Random(u64),
}

impl BuilderKind {
    /// Row label suffix: `-F` for ELSI-driven builds.
    pub fn label(&self, kind: IndexKind) -> String {
        match self {
            BuilderKind::Og => kind.name().to_string(),
            BuilderKind::Fixed(m) => format!("{}({})", kind.name(), m.name()),
            BuilderKind::Selector => format!("{}-F", kind.name()),
            BuilderKind::Random(_) => format!("{}(Rand)", kind.name()),
        }
    }
}

/// Shared experiment context: the ELSI system (MR pool + optional scorer)
/// and the cardinality its configuration is scaled for.
pub struct BenchCtx {
    /// The ELSI system.
    pub elsi: Elsi,
    /// Data-set cardinality this context is scaled for.
    pub n: usize,
}

impl BenchCtx {
    /// Context without a trained scorer (fixed-method experiments).
    pub fn new(n: usize, epochs: usize) -> Self {
        Self {
            elsi: Elsi::new(bench_config(n, epochs)),
            n,
        }
    }

    /// Trains the method scorer on a small measurement pass.
    pub fn prepare_scorer(&mut self) {
        let sizes = [self.n / 20, self.n / 5, self.n].map(|s| s.max(200));
        eprintln!("[prep] training method scorer on {sizes:?} x 5 skews…");
        self.elsi.prepare_scorer(&sizes, &[1, 3, 6, 12, 26], 11);
    }

    /// This context at another cost-balance λ (shares pool and scorer).
    pub fn with_lambda(&self, lambda: f64) -> Self {
        Self {
            elsi: self.elsi.with_lambda(lambda),
            n: self.n,
        }
    }

    /// Builds `kind` over `pts` with `b`'s models; returns the index and
    /// the build seconds.
    pub fn build(
        &self,
        kind: IndexKind,
        b: &BuilderKind,
        pts: Vec<Point>,
    ) -> (Box<dyn SpatialIndex>, f64) {
        let builder = kind.mask(match b {
            BuilderKind::Og => self.elsi.fixed_builder(Method::Og),
            BuilderKind::Fixed(m) => self.elsi.fixed_builder(*m),
            BuilderKind::Selector => self.elsi.builder(),
            BuilderKind::Random(seed) => self.elsi.random_builder(*seed),
        });
        timed(|| kind.build(pts, &builder))
    }
}

/// Timed passes per measurement, after one discarded warm-up pass.
const REPEATS: usize = 5;

/// Median µs per query of [`REPEATS`] passes over a workload of `queries`
/// queries, the first (warm-up) pass discarded; `NaN` with no queries.
fn p50_micros(queries: usize, mut pass: impl FnMut()) -> f64 {
    if queries == 0 {
        return f64::NAN;
    }
    pass();
    let samples = (0..REPEATS)
        .map(|_| timed(&mut pass).1 * 1e6 / queries as f64)
        .collect();
    median_of_sorted(&sorted(samples))
}

fn ratio_or_one(got: usize, want: usize) -> f64 {
    if want == 0 {
        1.0
    } else {
        got as f64 / want as f64
    }
}

/// Point-query latency (p50 µs): queries every stored point, sampled down
/// to at most `max_queries` (the paper queries every indexed point).
pub fn point_query_micros(idx: &dyn SpatialIndex, pts: &[Point], max_queries: usize) -> f64 {
    let step = (pts.len() / max_queries.max(1)).max(1);
    p50_micros(pts.len().div_ceil(step), || {
        for p in pts.iter().step_by(step) {
            black_box(idx.point_query(*p));
        }
    })
}

/// Window-query stats: latency (p50 µs) and recall over the workload.
pub fn window_query_stats(idx: &dyn SpatialIndex, pts: &[Point], windows: &[Rect]) -> (f64, f64) {
    let mut scratch = ScanScratch::new();
    let mut out = Vec::new();
    let mut found = vec![0usize; windows.len()];
    let micros = p50_micros(windows.len(), || {
        for (w, n) in windows.iter().zip(&mut found) {
            idx.window_query_into(w, &mut scratch, &mut out);
            *n = out.len();
        }
    });

    let mut got = 0usize;
    let mut want = 0usize;
    for (w, &n) in windows.iter().zip(&found) {
        let truth = pts.iter().filter(|p| w.contains(p)).count();
        want += truth;
        got += n.min(truth);
    }
    (micros, ratio_or_one(got, want))
}

/// kNN stats: latency (p50 µs) and recall at `k` over the workload.
pub fn knn_query_stats(
    idx: &dyn SpatialIndex,
    pts: &[Point],
    queries: &[Point],
    k: usize,
) -> (f64, f64) {
    let mut scratch = ScanScratch::new();
    let mut answers = vec![Vec::new(); queries.len()];
    let micros = p50_micros(queries.len(), || {
        for (q, out) in queries.iter().zip(&mut answers) {
            idx.knn_query_into(*q, k, &mut scratch, out);
        }
    });

    let want = k.min(pts.len());
    let mut hit = 0usize;
    if let Some(kth) = want.checked_sub(1) {
        let mut d2 = Vec::with_capacity(pts.len());
        for (q, ans) in queries.iter().zip(&answers) {
            d2.clear();
            d2.extend(pts.iter().map(|p| q.dist2(p)));
            let (_, kth_d2, _) = d2.select_nth_unstable_by(kth, f64::total_cmp);
            let radius = kth_d2.sqrt() + 1e-12;
            hit += ans.iter().filter(|p| q.dist(p) <= radius).count().min(want);
        }
    }
    (micros, ratio_or_one(hit, want * queries.len()))
}

/// The standard workloads for one data set.
pub struct Workload {
    /// The data points.
    pub pts: Vec<Point>,
    /// Window queries (paper: 1,000 windows following the data).
    pub windows: Vec<Rect>,
    /// kNN query points (paper: 1,000, k = 25).
    pub knn: Vec<Point>,
}

impl Workload {
    /// Builds the workload for a data set at the harness scale, with
    /// windows of the paper's default 0.01 % of the data space.
    pub fn new(ds: Dataset, base: usize) -> Self {
        let pts = ds.generate_scaled(base, 42);
        let windows = gen::window_queries(&pts, 200, 1e-4, 7);
        let knn = gen::knn_queries(&pts, 100, 8);
        Self { pts, windows, knn }
    }
}

/// Prints a header row followed by aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_indices::{GridConfig, GridIndex};

    fn grid_of(pts: &[Point]) -> GridIndex {
        GridIndex::build(pts.to_vec(), &GridConfig::default())
    }

    #[test]
    fn measure_functions_are_total_on_empty_inputs() {
        let pts = gen::uniform(50, 1);
        let idx = grid_of(&pts);
        let empty = grid_of(&[]);

        assert!(point_query_micros(&empty, &[], 10).is_nan());
        assert!(point_query_micros(&idx, &pts, 0) >= 0.0);

        let (us, recall) = window_query_stats(&idx, &pts, &[]);
        assert!(us.is_nan());
        assert_eq!(recall, 1.0);

        let (us, recall) = knn_query_stats(&idx, &pts, &[], 5);
        assert!(us.is_nan());
        assert_eq!(recall, 1.0);
        // k == 0 and an empty data set used to underflow `d[k - 1]`.
        let (us, recall) = knn_query_stats(&idx, &pts, &pts[..1], 0);
        assert!(us >= 0.0);
        assert_eq!(recall, 1.0);
        let (us, recall) = knn_query_stats(&empty, &[], &pts[..1], 3);
        assert!(us >= 0.0);
        assert_eq!(recall, 1.0);
    }

    #[test]
    fn measure_functions_on_single_inputs_report_exact_recall() {
        let pts = gen::uniform(1, 1);
        let idx = grid_of(&pts);
        assert!(point_query_micros(&idx, &pts, 1) >= 0.0);

        let everything = [Rect::unit()];
        let (us, recall) = window_query_stats(&idx, &pts, &everything);
        assert!(us >= 0.0);
        assert_eq!(recall, 1.0);

        // k above the cardinality: the one stored point is the full answer.
        let (us, recall) = knn_query_stats(&idx, &pts, &pts, 3);
        assert!(us >= 0.0);
        assert_eq!(recall, 1.0);
    }

    #[test]
    fn recall_counts_missing_answers() {
        // An index over half the points answers for the full set.
        let pts = gen::uniform(200, 3);
        let half = grid_of(&pts[..100]);
        let everything = [Rect::unit()];
        let (_, recall) = window_query_stats(&half, &pts, &everything);
        assert_eq!(recall, 0.5);
        let (_, recall) = knn_query_stats(&half, &pts, &pts[150..160], 200);
        assert_eq!(recall, 0.5);
    }
}
