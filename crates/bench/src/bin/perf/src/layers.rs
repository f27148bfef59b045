//! The per-layer ledger: every layer of the stack timed on its own, through
//! its public functions, on the workload's own data.
//!
//! These are unit costs, not shares of a run: a layer is called in a tight
//! loop on inputs it meets in service, the loop repeated a few times and
//! the median repetition reported. They have no regression bound — they
//! are the numbers a change to one layer points at, and what the traced
//! pass multiplies by counts where it cannot measure.

use crate::deploy::{
    dir_bytes, reopen_deployment, Deployment, ScratchDir, SHARDS, SHARD_COLS, SHARD_ROWS,
};
use crate::inputs::{knn_centres, lookup_keys, windows_over, SplitMix, UpdateStream, Writes};
use crate::lifecycle::{seconds_of, Site};
use crate::oracle::{brute_knn, brute_window, lookup_hit, recall};
use crate::report::{Ledger, Tally};
use crate::stats::{median_of_sorted, sorted};
use elsi::{
    encode_updates, DeltaOverlay, Elsi, Method, RebuildFeatures, RebuildPolicy, RebuildPredictor,
    RebuildSample, UpdateProcessor,
};
use elsi_data::cdf::ks_distance;
use elsi_indices::{
    GridConfig, GridIndex, HrrConfig, HrrIndex, KdbConfig, KdbIndex, LisaConfig, LisaIndex,
    MlConfig, MlIndex, RStarConfig, RStarIndex, RsmiConfig, RsmiIndex, SpatialIndex, ZmConfig,
    ZmIndex,
};
use elsi_ml::{train_rank_model, Ffn, PwlModel, TrainConfig};
use elsi_serve::{shard_occupancy, GridRouter, LearnedRouter, Router};
use elsi_spatial::curve::morton_of;
use elsi_spatial::scan::{contains_scan, knn_scan, range_scan_into};
use elsi_spatial::{
    HilbertMapper, IDistanceMapper, KeyMapper, LisaMapper, MortonMapper, Point, Rect, ScanScratch,
};
use elsi_store::{crc32, read_wal, Snapshot, SnapshotWriter, WalWriter};
use std::hint::black_box;

/// Points the monolith indices and the mapping loops run over.
const SUITE_POINTS: usize = 200_000;
/// Points the build-method comparison runs over: small enough that OG,
/// which trains on every one of them, finishes in about a second.
const METHOD_POINTS: usize = 20_000;
/// Recall floors of the approximate indices; an answer below is a failed op.
const WINDOW_RECALL_FLOOR: f64 = 0.85;
const KNN_RECALL_FLOOR: f64 = 0.80;

/// Median seconds of `reps` calls of `f`.
fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let times = (0..reps.max(1)).map(|_| seconds_of(&mut f).1).collect();
    median_of_sorted(&sorted(times))
}

/// Median nanoseconds per item of a loop over `items`, three repetitions.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    median_seconds(3, || items.iter().for_each(&mut f)) * 1e9 / items.len().max(1) as f64
}

/// [`ns_per_item`] as a reading in `ns`.
fn put_ns_per_item<T>(l: &mut Ledger, name: &str, items: &[T], f: impl FnMut(&T)) {
    l.put_reading(name, ns_per_item(items, f), "ns");
}

/// The unit costs the traced pass's update model multiplies by counts.
#[derive(Debug, Clone, Copy)]
pub struct SuiteUnits {
    /// Seconds per update of `DeltaOverlay::apply_batch`.
    pub overlay_apply_s: f64,
    /// Seconds per update of `UpdateProcessor::apply_batch` (overlay
    /// included, journal excluded).
    pub processor_apply_s: f64,
    /// Seconds one `par_*` call costs before any work is done.
    pub par_spawn_s: f64,
}

/// Key mappings, model inference and routing: nanoseconds per call.
fn mapping_and_routing(sample: &[Point], router: &LearnedRouter, seed: u64, l: &mut Ledger) {
    put_ns_per_item(l, "spatial.morton_key_ns", sample, |p| {
        black_box(MortonMapper.key(*p));
    });
    put_ns_per_item(l, "spatial.hilbert_key_ns", sample, |p| {
        black_box(HilbertMapper.key(*p));
    });
    let lisa = LisaMapper::fit(sample, LisaConfig::default().grid);
    put_ns_per_item(l, "spatial.lisa_key_ns", sample, |p| {
        black_box(lisa.key(*p));
    });
    let pivots = sample
        .iter()
        .step_by(sample.len() / 8 + 1)
        .copied()
        .collect();
    let idist = IDistanceMapper::new(pivots);
    put_ns_per_item(l, "spatial.idistance_key_ns", sample, |p| {
        black_box(idist.key(*p));
    });

    let mut keys = MortonMapper.keys(sample);
    keys.sort_by(f64::total_cmp);
    let ffn = Ffn::new(&[1, 16, 1], seed);
    put_ns_per_item(l, "ml.ffn_predict1_ns", &keys, |k| {
        black_box(ffn.predict1(*k));
    });
    let (pwl, fit_s) = seconds_of(|| PwlModel::fit(&keys, 32));
    l.put_reading("ml.pwl_fit_ms", fit_s * 1e3, "ms");
    put_ns_per_item(l, "ml.pwl_predict_ns", &keys, |k| {
        black_box(pwl.predict(*k));
    });
    let every_hundredth: Vec<f64> = keys.iter().step_by(100).copied().collect();
    l.put_reading(
        "data.ks_distance_ms",
        median_seconds(5, || {
            black_box(ks_distance(&every_hundredth, &keys));
        }) * 1e3,
        "ms",
    );
    let train = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    let train_keys = keys.get(..METHOD_POINTS.min(keys.len())).unwrap_or(&[]);
    l.put_reading(
        "ml.ffn_train_epoch_ms",
        seconds_of(|| black_box(train_rank_model(train_keys, 16, &train, seed))).1 * 1e3
            / train.epochs as f64,
        "ms",
    );

    let grid = GridRouter::new(SHARD_ROWS, SHARD_COLS);
    put_ns_per_item(l, "serve.grid_shard_of_ns", sample, |p| {
        black_box(grid.shard_of(*p));
    });
    put_ns_per_item(l, "serve.learned_shard_of_ns", sample, |p| {
        black_box(router.shard_of(*p));
    });
    let mut rng = SplitMix::seeded(seed ^ 0x11);
    let windows = windows_over(sample, 10_000, 1e-3, &mut rng);
    put_ns_per_item(l, "serve.shards_for_window_ns", &windows, |w| {
        black_box(router.shards_for_window(w));
    });
    l.put_reading(
        "serve.learned_fit_ms",
        median_seconds(3, || {
            black_box(LearnedRouter::fit_sampled(sample, SHARD_ROWS, SHARD_COLS));
        }) * 1e3,
        "ms",
    );
    let occupancy = shard_occupancy(router, sample);
    let mean = sample.len() as f64 / occupancy.len().max(1) as f64;
    l.put_reading(
        "serve.occupancy_max_mean",
        occupancy.iter().copied().max().unwrap_or(0) as f64 / mean,
        "ratio",
    );
}

/// The three SoA scan kernels over leaf-sized column slices: nanoseconds
/// per point scanned.
fn scan_kernels(sample: &[Point], l: &mut Ledger) {
    const LEAF: usize = 256;
    let mut sorted_pts = sample.to_vec();
    sorted_pts.sort_by_key(|p| morton_of(p.x, p.y));
    let xs: Vec<f64> = sorted_pts.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = sorted_pts.iter().map(|p| p.y).collect();
    let ids: Vec<u64> = sorted_pts.iter().map(|p| p.id).collect();
    let leaves: Vec<usize> = (0..xs.len() / LEAF).collect();
    let leaf = |i: usize| {
        let r = i * LEAF..(i + 1) * LEAF;
        (
            xs.get(r.clone()).unwrap_or(&[]),
            ys.get(r.clone()).unwrap_or(&[]),
            ids.get(r).unwrap_or(&[]),
        )
    };
    // A leaf is probed for its own last point (a full scan), ranged over a
    // small window around its middle point, and ranked around that point.
    let at = |i: usize| sorted_pts.get(i).copied().unwrap_or(Point::at(0.5, 0.5));
    let mid = |i: usize| at(i * LEAF + LEAF / 2);
    l.put_reading(
        "spatial.contains_scan_ns_per_pt",
        ns_per_item(&leaves, |&i| {
            let (x, y, _) = leaf(i);
            let q = at(i * LEAF + LEAF - 1);
            black_box(contains_scan(x, y, q.x, q.y));
        }) / LEAF as f64,
        "ns/pt",
    );
    let mut out = vec![Point::at(0.0, 0.0); LEAF];
    l.put_reading(
        "spatial.range_scan_ns_per_pt",
        ns_per_item(&leaves, |&i| {
            let (x, y, id) = leaf(i);
            let w = Rect::window_around(mid(i), 1e-5);
            black_box(range_scan_into(x, y, id, &w, &mut out));
        }) / LEAF as f64,
        "ns/pt",
    );
    let mut scratch = ScanScratch::new();
    l.put_reading(
        "spatial.knn_scan_ns_per_pt",
        ns_per_item(&leaves, |&i| {
            let (x, y, id) = leaf(i);
            let q = mid(i);
            let heap = scratch.heap_for(25);
            knn_scan(q.x, q.y, x, y, id, heap);
            black_box(heap.len());
        }) / LEAF as f64,
        "ns/pt",
    );
}

/// The eight index kinds as monoliths over the suite sample: build time of
/// the learned four (RS method), then point / window / kNN latency through
/// the `_into` path, answers checked (exactly, or against a recall floor
/// for the two approximate kinds).
fn index_kinds(sample: &[Point], elsi: &Elsi, seed: u64, l: &mut Ledger, tally: &mut Tally) {
    let mut rng = SplitMix::seeded(seed ^ 0x1D);
    let lookups = lookup_keys(sample, 20_000, &mut rng);
    let windows = windows_over(sample, 2_000, 1e-4, &mut rng);
    let knn_qs = knn_centres(sample, 400, &mut rng);
    let truth_w: Vec<Vec<Point>> = windows
        .iter()
        .take(64)
        .map(|w| brute_window(sample, w))
        .collect();
    let truth_k: Vec<Vec<Point>> = knn_qs
        .iter()
        .take(32)
        .map(|q| brute_knn(sample, *q, 25))
        .collect();
    let rs = elsi.fixed_builder(Method::Rs);
    let rs_lisa = elsi.fixed_builder(Method::Rs).for_lisa();
    for kind in ["zm", "ml", "rsmi", "lisa", "grid", "kdb", "hrr", "rstar"] {
        let pts = sample.to_vec();
        let (idx, build_s): (Box<dyn SpatialIndex>, f64) = seconds_of(|| match kind {
            "zm" => {
                Box::new(ZmIndex::build(pts, &ZmConfig::default(), &rs)) as Box<dyn SpatialIndex>
            }
            "ml" => Box::new(MlIndex::build(pts, &MlConfig::default(), &rs)),
            "rsmi" => Box::new(RsmiIndex::build(pts, &RsmiConfig::default(), &rs)),
            "lisa" => Box::new(LisaIndex::build(pts, &LisaConfig::default(), &rs_lisa)),
            "grid" => Box::new(GridIndex::build(pts, &GridConfig::default())),
            "kdb" => Box::new(KdbIndex::build(pts, &KdbConfig::default())),
            "hrr" => Box::new(HrrIndex::build(pts, &HrrConfig::default())),
            _ => Box::new(RStarIndex::build(pts, &RStarConfig::default())),
        });
        let approximate = matches!(kind, "rsmi" | "lisa");
        if matches!(kind, "zm" | "ml" | "rsmi" | "lisa") {
            l.put_reading(&format!("indices.{kind}.build_s"), build_s, "s");
        }
        l.put_reading(
            &format!("indices.{kind}.point_us"),
            ns_per_item(&lookups, |q| {
                black_box(idx.point_query(*q));
            }) / 1e3,
            "us",
        );
        let misses = lookups
            .iter()
            .filter(|q| !lookup_hit(q, &idx.point_query(**q)))
            .count();
        tally.note(lookups.len(), misses);

        let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
        l.put_reading(
            &format!("indices.{kind}.window_us"),
            ns_per_item(&windows, |w| {
                idx.window_query_into(w, &mut scratch, &mut out)
            }) / 1e3,
            "us",
        );
        let mut window_recall = Vec::new();
        for (w, truth) in windows.iter().zip(&truth_w) {
            idx.window_query_into(w, &mut scratch, &mut out);
            window_recall.push(recall(&out, truth));
            let ok = if approximate {
                true
            } else {
                crate::oracle::canonical(out.clone()) == *truth
            };
            tally.note(1, usize::from(!ok));
        }
        l.put_reading(
            &format!("indices.{kind}.knn_us"),
            ns_per_item(&knn_qs, |q| {
                idx.knn_query_into(*q, 25, &mut scratch, &mut out)
            }) / 1e3,
            "us",
        );
        let mut knn_recall = Vec::new();
        for (q, truth) in knn_qs.iter().zip(&truth_k) {
            idx.knn_query_into(*q, 25, &mut scratch, &mut out);
            knn_recall.push(recall(&out, truth));
            tally.note(1, usize::from(!approximate && out != *truth));
        }
        if approximate {
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
            let (rw, rk) = (mean(&window_recall), mean(&knn_recall));
            l.put_reading(&format!("indices.{kind}.window_recall"), rw, "ratio");
            l.put_reading(&format!("indices.{kind}.knn_recall"), rk, "ratio");
            tally.note(
                2,
                usize::from(rw < WINDOW_RECALL_FLOOR) + usize::from(rk < KNN_RECALL_FLOOR),
            );
        }
    }
}

/// The seven build methods on one ZM index: seconds, and the summed error
/// span the built models ended up with — the price a faster build may not
/// quietly pay.
fn build_methods(sample: &[Point], elsi: &Elsi, l: &mut Ledger, tally: &mut Tally) {
    let pts: Vec<Point> = sample.iter().take(METHOD_POINTS).copied().collect();
    for method in Method::all() {
        let builder = elsi.fixed_builder(method);
        let (idx, s) = seconds_of(|| ZmIndex::build(pts.clone(), &ZmConfig::default(), &builder));
        let name = method.name().to_lowercase();
        l.put_reading(&format!("core.method.{name}_s"), s, "s");
        l.put_reading(
            &format!("core.method.{name}_err_span"),
            idx.total_err_span() as f64,
            "count",
        );
        let misses = pts
            .iter()
            .step_by(97)
            .filter(|q| !lookup_hit(q, &idx.point_query(**q)))
            .count();
        tally.note(pts.len().div_ceil(97), misses);
    }
}

/// A stand-alone shard: one sixteenth of the data behind the same
/// processor → overlay → ZM stack a deployment shard has.
fn lone_shard(points: Vec<Point>, elsi: &Elsi) -> UpdateProcessor<DeltaOverlay<ZmIndex>> {
    let rs = elsi.fixed_builder(Method::Rs);
    UpdateProcessor::new(
        points,
        Box::new(move |pts| DeltaOverlay::new(ZmIndex::build(pts, &ZmConfig::default(), &rs))),
        RebuildPolicy::Never,
        64,
    )
}

/// The update path below the deployment: overlay merge, processor, rebuild,
/// predictor, journal.
fn update_path(
    sample: &[Point],
    elsi: &Elsi,
    scratch: &ScratchDir,
    seed: u64,
    l: &mut Ledger,
) -> Result<(f64, f64), String> {
    let shard_pts: Vec<Point> = sample.iter().take(sample.len() / SHARDS).copied().collect();
    let batches: Vec<_> = {
        let mut stream = UpdateStream::over(&shard_pts, Writes::FollowingData, 32, seed);
        (0..32).map(|_| stream.next_batch()).collect()
    };
    let updates = batches.iter().map(Vec::len).sum::<usize>().max(1) as f64;

    let mut overlay = DeltaOverlay::new(ZmIndex::build(
        shard_pts.clone(),
        &ZmConfig::default(),
        &elsi.fixed_builder(Method::Rs),
    ));
    let overlay_s = seconds_of(|| {
        for b in &batches {
            black_box(overlay.apply_batch(b));
        }
    })
    .1 / updates;
    l.put_reading("core.overlay_apply_us_per_update", overlay_s * 1e6, "us");

    let mut shard = lone_shard(shard_pts, elsi);
    let processor_s = seconds_of(|| {
        for b in &batches {
            black_box(shard.apply_batch(b));
        }
    })
    .1 / updates;
    l.put_reading(
        "core.processor_apply_us_per_update",
        processor_s * 1e6,
        "us",
    );
    l.put_reading("core.rebuild_s", median_seconds(3, || shard.rebuild()), "s");

    let features = shard.features();
    let labelled: Vec<RebuildSample> = (0..64)
        .map(|i| RebuildSample {
            features: RebuildFeatures {
                update_ratio: i as f64 / 64.0,
                drift_sim: 1.0 - i as f64 / 128.0,
                ..features
            },
            should_rebuild: i >= 32,
        })
        .collect();
    let predictor = RebuildPredictor::train(&labelled, seed);
    put_ns_per_item(l, "core.predictor_score_ns", &labelled, |s| {
        black_box(predictor.score(&s.features));
    });

    // One record per 64-update sub-batch — what a shard journals when a
    // batch spreads over all sixteen.
    let dir = scratch.subdir("journal")?;
    let payloads: Vec<Vec<u8>> = batches
        .iter()
        .flat_map(|b| b.chunks(64))
        .map(encode_updates)
        .collect();
    let mut wal = WalWriter::create(&dir.join("unit.wal")).map_err(|e| e.to_string())?;
    let mut failed = None;
    let append_ns = ns_per_item(&payloads, |p| {
        if let Err(e) = wal.append(p) {
            failed = Some(e.to_string());
        }
    });
    l.put_reading("store.wal_append_us", append_ns / 1e3, "us");
    let mut syncs = Vec::new();
    for p in payloads.iter().take(20) {
        syncs.push(seconds_of(|| wal.append(p).and_then(|()| wal.sync())).1 * 1e6);
    }
    l.put_reading("store.wal_sync_us", median_of_sorted(&sorted(syncs)), "us");
    drop(wal);
    let wal_path = dir.join("unit.wal");
    let wal_mb = std::fs::metadata(&wal_path)
        .map_err(|e| e.to_string())?
        .len() as f64
        / 1e6;
    let mut read_failed = None;
    let read_s = median_seconds(5, || {
        if let Err(e) = read_wal(&wal_path) {
            read_failed = Some(e.to_string());
        }
    });
    l.put_reading("store.wal_read_mb_s", wal_mb / read_s, "MB/s");
    match failed.or(read_failed) {
        Some(e) => Err(e),
        None => Ok((overlay_s, processor_s)),
    }
}

/// Snapshot container, checksum, and the deployment's open and CLI cold
/// start on its freshly saved directory.
fn persistence(
    site: &Site,
    scratch: &ScratchDir,
    seed: u64,
    l: &mut Ledger,
    tally: &mut Tally,
) -> Result<(), String> {
    let blob: Vec<u8> = {
        let mut rng = SplitMix::seeded(seed ^ 0xB10B);
        (0..1 << 20)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect()
    };
    let mb = blob.len() as f64 / 1e6;
    l.put_reading(
        "store.crc32_gb_s",
        mb / 1e3
            / median_seconds(5, || {
                black_box(crc32(&blob));
            }),
        "GB/s",
    );
    let dir = scratch.subdir("container")?;
    let path = dir.join("blob.snap");
    let mut writer = SnapshotWriter::new();
    writer.add_section(u32::from_le_bytes(*b"BLOB"), blob);
    let mut failed = None;
    let write_s = median_seconds(3, || {
        if let Err(e) = writer.write_file(&path) {
            failed = Some(e.to_string());
        }
    });
    l.put_reading("store.snapshot_write_mb_s", mb / write_s, "MB/s");
    let read_s = median_seconds(3, || {
        if let Err(e) = Snapshot::read_file(&path) {
            failed = Some(e.to_string());
        }
    });
    l.put_reading("store.snapshot_read_mb_s", mb / read_s, "MB/s");
    if let Some(e) = failed {
        return Err(e);
    }

    // The deployment was saved when it was set up and has taken no update
    // since: its directory is a snapshot with empty journals.
    let dir = &site.dir;
    l.put_reading(
        "store.disk_bytes_per_point",
        dir_bytes(dir)? as f64 / site.data.len().max(1) as f64,
        "B/pt",
    );
    let mut opens = Vec::new();
    for _ in 0..3 {
        let (dep, s) = seconds_of(|| reopen_deployment(dir, &site.elsi));
        opens.push(s);
        tally.note(1, usize::from(dep?.len() != site.data.len()));
    }
    l.put_reading(
        "serve.open_snapshot_s",
        median_of_sorted(&sorted(opens)),
        "s",
    );

    // The `elsi query --persist <dir> --point x,y` command, in process:
    // argument parsing, ELSI preparation, open, one lookup, rendering.
    let probe = site.data.first().copied().unwrap_or(Point::at(0.5, 0.5));
    let args: Vec<String> = [
        "query",
        "unused.csv",
        "--persist",
        &dir.to_string_lossy(),
        "--point",
        &format!("{},{}", probe.x, probe.y),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (report, cold_s) = seconds_of(|| elsi_cli::parse_args(&args).and_then(elsi_cli::run));
    l.put_reading("cli.query_cold_start_ms", cold_s * 1e3, "ms");
    tally.note(1, usize::from(!report?.contains("found:")));
    Ok(())
}

/// The `par_*` entry points at their two extremes.
fn parallel_entry(dep: &Deployment, sample: &[Point], seed: u64, l: &mut Ledger) -> f64 {
    let mut rng = SplitMix::seeded(seed ^ 0x9A2);
    let singles = lookup_keys(sample, 500, &mut rng);
    let spawn_ns = ns_per_item(&singles, |q| {
        black_box(dep.par_point_queries(std::slice::from_ref(q)));
    });
    l.put_reading("serve.par_spawn_us", spawn_ns / 1e3, "us");
    // Morton-sorted, the batch's equal-count chunks stop being equal work:
    // each thread's chunk lies in its own part of the space.
    let mut batch = lookup_keys(sample, 16_384, &mut rng);
    batch.sort_by_key(|p| morton_of(p.x, p.y));
    let s = median_seconds(5, || {
        black_box(dep.par_point_queries(&batch));
    });
    l.put_reading(
        "serve.par_sorted_batch_kqps",
        batch.len() as f64 / s / 1e3,
        "kq/s",
    );
    spawn_ns / 1e9
}

/// Runs the whole suite on `dep` and its site's data.
pub fn layer_suite(
    site: &Site,
    dep: &Deployment,
    scratch: &ScratchDir,
    seed: u64,
    l: &mut Ledger,
    tally: &mut Tally,
) -> Result<SuiteUnits, String> {
    let sample: Vec<Point> = site
        .data
        .iter()
        .step_by((site.data.len() / SUITE_POINTS).max(1))
        .take(SUITE_POINTS)
        .copied()
        .collect();
    mapping_and_routing(&sample, dep.router(), seed, l);
    scan_kernels(&sample, l);
    index_kinds(&sample, &site.elsi, seed, l, tally);
    build_methods(&sample, &site.elsi, l, tally);
    let (overlay_apply_s, processor_apply_s) = update_path(&sample, &site.elsi, scratch, seed, l)?;
    persistence(site, scratch, seed, l, tally)?;
    let par_spawn_s = parallel_entry(dep, &sample, seed, l);
    Ok(SuiteUnits {
        overlay_apply_s,
        processor_apply_s,
        par_spawn_s,
    })
}
