//! Shared machinery for the update experiments (Figs. 15 and 16) and the
//! rebuild-predictor training pass (§VII-B2).

use crate::harness::{point_query_micros, timed, window_query_stats, BenchCtx, BuilderKind};
use elsi::{
    DriftTracker, Elsi, IndexKind, Method, RebuildFeatures, RebuildPolicy, RebuildPredictor,
    RebuildSample, UpdateProcessor,
};
use elsi_data::{gen, Dataset};
use elsi_indices::SpatialIndex;
use elsi_spatial::{KeyMapper, MortonMapper, Point, Rect};

/// The paper's insertion schedule: cumulative ratios `2^i %` of the
/// initial cardinality, up to 512%.
pub const INSERT_RATIOS: [f64; 10] = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28, 2.56, 5.12];

/// The skewed insert stream of §VII-H: points from **Skewed**, re-labelled
/// with fresh ids.
pub fn insert_stream(total: usize, seed: u64) -> Vec<Point> {
    Dataset::Skewed
        .generate(total, seed)
        .into_iter()
        .enumerate()
        .map(|(i, mut p)| {
            p.id = 0x4000_0000 + i as u64;
            p
        })
        .collect()
}

/// Trains the rebuild predictor the way the paper does (§VII-B2): simulate
/// insertion streams on indices with and without rebuilds, measure point
/// query times every `2^i %` updates, and label 1 when the no-rebuild
/// query time exceeds the with-rebuild time by 10%.
pub fn train_rebuild_predictor(ctx: &BenchCtx, n: usize) -> RebuildPredictor {
    let mut samples = Vec::new();
    for &skew in &[1i32, 6, 18] {
        let base = if skew <= 1 {
            gen::uniform(n, 3)
        } else {
            gen::skewed(n, skew, 3)
        };
        let probes: Vec<Point> = base.iter().step_by(10).copied().collect();
        let (mut idx, _) = ctx.build(IndexKind::Zm, &BuilderKind::Fixed(Method::Rs), base.clone());
        let mut live = base.clone();
        let mut drift = DriftTracker::new(base.iter().map(|p| MortonMapper.key(*p)), 512);

        let stream = insert_stream((n as f64 * 2.6) as usize, 5 + skew as u64);
        let mut consumed = 0usize;
        for &ratio in &INSERT_RATIOS[..9] {
            let upto = (n as f64 * ratio) as usize;
            for p in &stream[consumed..upto.min(stream.len())] {
                // Concentrate drift: squash the stream into a corner.
                let mut p = *p;
                p.x *= 0.2;
                p.y *= 0.2;
                idx.insert(p);
                live.push(p);
                drift.add(MortonMapper.key(p));
            }
            consumed = upto.min(stream.len());

            let q_no_rebuild = point_query_micros(idx.as_ref(), &probes, 512);
            let (fresh, _) =
                ctx.build(IndexKind::Zm, &BuilderKind::Fixed(Method::Rs), live.clone());
            let q_rebuilt = point_query_micros(fresh.as_ref(), &probes, 512);

            samples.push(RebuildSample {
                features: RebuildFeatures {
                    n: live.len(),
                    dist_u: drift.dist_from_uniform(),
                    depth: idx.depth(),
                    update_ratio: ratio,
                    drift_sim: 1.0 - drift.dist(),
                },
                should_rebuild: q_no_rebuild > 1.1 * q_rebuilt,
            });
        }
    }
    RebuildPredictor::train(&samples, 13)
}

/// One measured step of an update run.
pub struct UpdateStep {
    /// Cumulative insertion ratio (fraction of the initial cardinality).
    pub ratio: f64,
    /// Average insertion latency over this step's batch (µs).
    pub insert_micros: f64,
    /// Average point-query latency after the batch (µs).
    pub point_micros: f64,
    /// Average window-query latency after the batch (µs).
    pub window_micros: f64,
    /// Window recall after the batch.
    pub window_recall: f64,
    /// Full rebuilds performed so far.
    pub rebuilds: usize,
}

/// Runs the §VII-H insertion experiment for one index variant.
///
/// `initial` is the base data (the paper uses 10% of OSM1), the stream is
/// drawn from **Skewed**, and measurements are taken at every cumulative
/// ratio of [`INSERT_RATIOS`].
pub fn run_insertions(
    ctx: &BenchCtx,
    kind: IndexKind,
    builder: BuilderKind,
    policy: RebuildPolicy,
    initial: Vec<Point>,
    windows: &[Rect],
) -> Vec<UpdateStep> {
    let n0 = initial.len();
    let stream = insert_stream((n0 as f64 * INSERT_RATIOS[9]).ceil() as usize + 1, 77);

    // Rebuilds go through the build processor with the same method choice
    // as the initial build, reusing the prepared MR pool (the scorer is not
    // needed for fixed-method rebuilds).
    let rebuild_ctx = BenchCtx {
        elsi: Elsi::with_pool(ctx.elsi.config().clone(), ctx.elsi.mr_pool()),
        n: ctx.n,
    };
    let rebuild = move |pts: Vec<Point>| -> Box<dyn SpatialIndex> {
        rebuild_ctx.build(kind, &builder, pts).0
    };

    let mut proc = UpdateProcessor::new(initial.clone(), Box::new(rebuild), policy, n0 / 16);

    let mut live = initial;
    let mut consumed = 0usize;
    let mut steps = Vec::new();
    for &ratio in &INSERT_RATIOS {
        let upto = ((n0 as f64 * ratio) as usize).min(stream.len());
        let batch = &stream[consumed..upto];
        consumed = upto;

        let (_, insert_secs) = timed(|| {
            for p in batch {
                let _ = proc.insert(*p);
            }
        });
        live.extend_from_slice(batch);

        let point_micros = point_query_micros(proc.index().as_ref(), &live, 512);
        let (window_micros, window_recall) =
            window_query_stats(proc.index().as_ref(), &live, windows);

        steps.push(UpdateStep {
            ratio,
            insert_micros: if batch.is_empty() {
                0.0
            } else {
                insert_secs * 1e6 / batch.len() as f64
            },
            point_micros,
            window_micros,
            window_recall,
            rebuilds: proc.rebuilds(),
        });
    }
    steps
}

/// The seven variants of the §VII-H experiment, in the figures' column
/// order: `-F` never rebuilds, `-R` rebuilds when the learned predictor
/// fires, RR* is the traditional reference.
pub const VARIANTS: [(&str, IndexKind, bool); 7] = [
    ("ML-F", IndexKind::Ml, false),
    ("ML-R", IndexKind::Ml, true),
    ("RSMI-F", IndexKind::Rsmi, false),
    ("RSMI-R", IndexKind::Rsmi, true),
    ("LISA-F", IndexKind::Lisa, false),
    ("LISA-R", IndexKind::Lisa, true),
    ("RR*", IndexKind::RStar, false),
];

/// Runs the whole §VII-H experiment at base cardinality `n`: the initial
/// set is 10% of OSM1, insertions come from Skewed, one [`UpdateStep`]
/// series per entry of [`VARIANTS`]. Figs. 15 and 16 both read this.
pub fn run_all_variants(n: usize, epochs: usize) -> Vec<Vec<UpdateStep>> {
    let initial = Dataset::Osm1.generate(n / 10, 42);
    let windows = gen::window_queries(&initial, 60, 1e-4, 7);
    let ctx = BenchCtx::new(n / 10, epochs);
    VARIANTS
        .iter()
        .map(|&(label, kind, rebuilds)| {
            eprintln!("[updates] {label} …");
            let policy = if rebuilds {
                RebuildPolicy::Learned(train_rebuild_predictor(&ctx, (n / 20).max(500)))
            } else {
                RebuildPolicy::Never
            };
            // RS trains the learned variants; RR* has no models to train.
            let builder = BuilderKind::Fixed(Method::Rs);
            run_insertions(&ctx, kind, builder, policy, initial.clone(), &windows)
        })
        .collect()
}
