//! What the figures of one run share, built lazily and kept: the
//! scorer-prepared [`BenchCtx`], the data set × variant matrix of Figs. 8 /
//! 10 / 12 / 14, the λ-sweep builds of Figs. 9 / 11 / 13(a) and the single
//! insertion experiment behind Figs. 15 / 16. A single-figure run pays only
//! for what that figure reads; `all` pays for each of them once.

use crate::harness::*;
use crate::updates::{run_all_variants, UpdateStep};
use elsi::IndexKind;
use elsi_data::Dataset;
use elsi_indices::SpatialIndex;

/// The λ values of the sweeps (Figs. 9, 11, 13(a)).
pub const LAMBDAS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// kNN `k` of Fig. 14 (paper: 25).
pub const K: usize = 25;

/// Every reading taken of one built index (`NaN` where not measured).
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Build wall-clock, seconds.
    pub build_s: f64,
    /// Point-query latency, p50 µs.
    pub point_us: f64,
    /// Window-query latency, p50 µs.
    pub window_us: f64,
    /// Window-query recall.
    pub window_recall: f64,
    /// kNN latency, p50 µs.
    pub knn_us: f64,
    /// kNN recall.
    pub knn_recall: f64,
}

impl Measured {
    /// Point and window readings of an index built in `build_s` seconds.
    pub fn of(idx: &dyn SpatialIndex, build_s: f64, wl: &Workload) -> Self {
        let (window_us, window_recall) = window_query_stats(idx, &wl.pts, &wl.windows);
        Self {
            build_s,
            point_us: point_query_micros(idx, &wl.pts, 2000),
            window_us,
            window_recall,
            knn_us: f64::NAN,
            knn_recall: f64::NAN,
        }
    }
}

/// The index variants of the main experiments: 4 traditional, 3 learned
/// without ELSI, 3 learned with ELSI (`-F`). ZM is excluded here, matching
/// the paper (§VII-A: ZM only appears in the §VII-D method study).
pub fn main_variants() -> Vec<(IndexKind, BuilderKind)> {
    let og = |k| (k, BuilderKind::Og);
    let selector = LEARNED.map(|k| (k, BuilderKind::Selector));
    [&TRADITIONAL.map(og)[..], &LEARNED.map(og), &selector].concat()
}

/// Every main variant built over every data set, fully measured.
pub struct Matrix {
    /// Column labels, one per variant.
    pub variants: Vec<String>,
    /// One row per data set: its name and one cell per variant.
    pub rows: Vec<(&'static str, Vec<Measured>)>,
}

fn build_matrix(base: usize, ctx: &BenchCtx) -> Matrix {
    let variants = main_variants();
    let rows = Dataset::all()
        .into_iter()
        .map(|ds| {
            eprintln!("[matrix] {ds} …");
            let wl = Workload::new(ds, base);
            let cells = variants
                .iter()
                .map(|(kind, b)| {
                    let (idx, secs) = ctx.build(*kind, b, wl.pts.clone());
                    let mut m = Measured::of(idx.as_ref(), secs, &wl);
                    (m.knn_us, m.knn_recall) = knn_query_stats(idx.as_ref(), &wl.pts, &wl.knn, K);
                    m
                })
                .collect();
            (ds.name(), cells)
        })
        .collect();
    Matrix {
        variants: variants.iter().map(|(k, b)| b.label(*k)).collect(),
        rows,
    }
}

/// The `-F` indices built at every λ over one data set.
pub struct LambdaSweep {
    /// The data set's workload.
    pub workload: Workload,
    /// RR*: a λ-independent reference, kept built for Fig. 13(b).
    pub rstar: (Box<dyn SpatialIndex>, Measured),
    /// RSMI without ELSI: the other reference.
    pub rsmi_og: (Box<dyn SpatialIndex>, Measured),
    /// Per λ of [`LAMBDAS`]: ML-F, RSMI-F, LISA-F.
    pub rows: Vec<[Measured; 3]>,
}

fn build_sweep(ds: Dataset, base: usize, ctx: &BenchCtx) -> LambdaSweep {
    eprintln!("[sweep] {ds} …");
    let workload = Workload::new(ds, base);
    let built = |ctx: &BenchCtx, kind, b: &BuilderKind| {
        let (idx, secs) = ctx.build(kind, b, workload.pts.clone());
        let m = Measured::of(idx.as_ref(), secs, &workload);
        (idx, m)
    };
    let rstar = built(ctx, IndexKind::RStar, &BuilderKind::Og);
    let rsmi_og = built(ctx, IndexKind::Rsmi, &BuilderKind::Og);
    let rows = LAMBDAS
        .iter()
        .map(|&l| {
            let lctx = ctx.with_lambda(l);
            LEARNED.map(|k| built(&lctx, k, &BuilderKind::Selector).1)
        })
        .collect();
    LambdaSweep {
        workload,
        rstar,
        rsmi_og,
        rows,
    }
}

/// One run's shared state. Caches fill on first use and only on success,
/// so a figure that panics leaves nothing half-built behind.
pub struct Session {
    /// Base cardinality (`ELSI_BENCH_N`).
    pub n: usize,
    /// Training epochs (`ELSI_BENCH_EPOCHS`).
    pub epochs: usize,
    /// Times the method scorer was trained (at most once per session).
    pub scorer_preparations: usize,
    /// Times the §VII-H insertion experiment ran (at most once per session).
    pub insertion_runs: usize,
    ctx: Option<BenchCtx>,
    matrix: Option<Matrix>,
    sweeps: Vec<(Dataset, LambdaSweep)>,
    insertions: Option<Vec<Vec<UpdateStep>>>,
}

impl Session {
    /// An empty session at the given scale.
    pub fn new(n: usize, epochs: usize) -> Self {
        Self {
            n,
            epochs,
            scorer_preparations: 0,
            insertion_runs: 0,
            ctx: None,
            matrix: None,
            sweeps: Vec::new(),
            insertions: None,
        }
    }

    /// The context scaled for `n`, without requiring a trained scorer.
    pub fn ctx(&mut self) -> &BenchCtx {
        let (n, epochs) = (self.n, self.epochs);
        self.ctx.get_or_insert_with(|| BenchCtx::new(n, epochs))
    }

    /// The context with the method scorer trained.
    pub fn scored_ctx(&mut self) -> &BenchCtx {
        let mut ctx = match self.ctx.take() {
            Some(ctx) => ctx,
            None => BenchCtx::new(self.n, self.epochs),
        };
        if ctx.elsi.scorer().is_none() {
            ctx.prepare_scorer();
            self.scorer_preparations += 1;
        }
        self.ctx.insert(ctx)
    }

    /// The matrix behind Figs. 8, 10, 12 and 14.
    pub fn matrix(&mut self) -> &Matrix {
        let matrix = match self.matrix.take() {
            Some(matrix) => matrix,
            None => build_matrix(self.n, self.scored_ctx()),
        };
        self.matrix.insert(matrix)
    }

    /// The λ sweep over `ds` (Figs. 9, 11 and 13(a) share OSM1's).
    pub fn lambda_sweep(&mut self, ds: Dataset) -> &LambdaSweep {
        let at = match self.sweeps.iter().position(|(d, _)| *d == ds) {
            Some(at) => at,
            None => {
                let sweep = build_sweep(ds, self.n, self.scored_ctx());
                self.sweeps.push((ds, sweep));
                self.sweeps.len() - 1
            }
        };
        &self.sweeps[at].1
    }

    /// The §VII-H insertion experiment behind Figs. 15 and 16: one series
    /// per entry of [`crate::updates::VARIANTS`].
    pub fn insertions(&mut self) -> &[Vec<UpdateStep>] {
        let (n, epochs) = (self.n, self.epochs);
        let runs = &mut self.insertion_runs;
        self.insertions.get_or_insert_with(|| {
            *runs += 1;
            run_all_variants(n, epochs)
        })
    }
}
