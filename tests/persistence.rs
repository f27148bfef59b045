//! End-to-end durability: every index kind behind `UpdateProcessor`
//! round-trips through a snapshot, a save that crashes at *any* byte
//! offset is either a clean error or invisible (the survivor still
//! recovers bit-identically), and a deployment journal torn at any byte
//! offset reopens exactly as the calls journaled before the tear left it.
//!
//! The crash sweeps are deterministic and exhaustive (every offset, not a
//! random sample): the images are small enough that the full matrix runs
//! in seconds. Hosted by `elsi-serve`, whose deployment owns the journal.

use elsi::{
    DeltaOverlay, Elsi, ElsiConfig, OverlayCodec, RebuildFn, RebuildPolicy, UpdateProcessor,
};
use elsi_data::stream::Update;
use elsi_data::{gen, Dataset};
use elsi_indices::*;
use elsi_serve::{Router, ShardStats, ShardedConfig, ShardedIndex};
use elsi_spatial::{Point, Rect};
use elsi_store::{read_wal_bytes, FailingWriter, NoCodec, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elsi_persistence_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Order-insensitive query fingerprint plus the full live set (the live
/// set is compared bit-for-bit, so coordinate bit patterns are pinned).
type Fingerprint = (usize, usize, usize, Vec<Point>, Vec<u64>, Vec<u64>);

fn fingerprint<I: SpatialIndex>(proc: &UpdateProcessor<I>) -> Fingerprint {
    let mut window: Vec<u64> = proc
        .index()
        .window_query(&Rect::new(0.15, 0.15, 0.8, 0.8))
        .iter()
        .map(|p| p.id)
        .collect();
    window.sort_unstable();
    window.dedup();
    let knn: Vec<u64> = proc
        .index()
        .knn_query(Point::at(0.5, 0.4), 9)
        .iter()
        .map(|p| p.id)
        .collect();
    (
        proc.live_len(),
        proc.pending_updates(),
        proc.rebuilds(),
        proc.live_points(),
        window,
        knn,
    )
}

/// Saves, reopens via the rebuild path (`NoCodec`), and asserts the
/// recovered processor is indistinguishable from the survivor.
fn assert_roundtrip<I: SpatialIndex>(name: &str, proc: &UpdateProcessor<I>, rebuild: RebuildFn<I>) {
    let path = tmp(&format!("{name}.snap"));
    proc.snapshot_writer(&NoCodec).write_file(&path).unwrap();
    let opened = Snapshot::read_file(&path)
        .and_then(|snap| {
            UpdateProcessor::from_snapshot(&snap, rebuild, RebuildPolicy::Never, &NoCodec)
        })
        .unwrap_or_else(|e| panic!("{name}: open failed: {e}"));
    assert_eq!(fingerprint(proc), fingerprint(&opened), "{name} diverged");
    std::fs::remove_file(&path).ok();
}

type Overlay<I> = DeltaOverlay<I>;

/// The churn applied to exact kinds before saving, so the snapshot holds
/// a non-trivial delta layer (inserts and tombstones) too.
fn churn_in<I: SpatialIndex>(proc: &mut UpdateProcessor<Overlay<I>>, pts: &[Point]) {
    for i in 0..70u64 {
        proc.insert(Point::new(900_000 + i, 0.28 + (i as f64) * 0.004, 0.61));
    }
    for p in pts.iter().take(30) {
        proc.delete(*p);
    }
}

#[test]
fn every_exact_index_kind_round_trips_with_a_pending_delta() {
    let pts = Dataset::Uniform.generate(1_200, 77);
    let elsi = Elsi::new(ElsiConfig::fast_test());

    let grid = || -> RebuildFn<Overlay<GridIndex>> {
        Box::new(|p| DeltaOverlay::new(GridIndex::build(p, &GridConfig { block_size: 50 })))
    };
    let kdb = || -> RebuildFn<Overlay<KdbIndex>> {
        Box::new(|p| DeltaOverlay::new(KdbIndex::build(p, &KdbConfig { leaf_capacity: 50 })))
    };
    let hrr = || -> RebuildFn<Overlay<HrrIndex>> {
        let cfg = HrrConfig {
            leaf_capacity: 50,
            fanout: 8,
        };
        Box::new(move |p| DeltaOverlay::new(HrrIndex::build(p, &cfg)))
    };
    let rstar = || -> RebuildFn<Overlay<RStarIndex>> {
        let cfg = RStarConfig {
            leaf_capacity: 50,
            fanout: 8,
            min_fill: 0.4,
        };
        Box::new(move |p| DeltaOverlay::new(RStarIndex::build(p, &cfg)))
    };
    let zm = || -> RebuildFn<Overlay<ZmIndex>> {
        let b = Arc::new(elsi.builder());
        Box::new(move |p| DeltaOverlay::new(ZmIndex::build(p, &ZmConfig { fanout: 4 }, b.as_ref())))
    };
    let ml = || -> RebuildFn<Overlay<MlIndex>> {
        let b = Arc::new(elsi.builder());
        let cfg = MlConfig {
            pivots: 4,
            ..MlConfig::default()
        };
        Box::new(move |p| DeltaOverlay::new(MlIndex::build(p, &cfg, b.as_ref())))
    };
    // Flood has no state codec, and needs none: no deployment persists it
    // (`--persist` serves ZM only), and the seeded rebuild every kind takes
    // here (`NoCodec`) restores it bit for bit.
    let flood = || -> RebuildFn<Overlay<FloodIndex>> {
        let b = Arc::new(elsi.builder());
        let cfg = FloodConfig { columns: 8 };
        Box::new(move |p| DeltaOverlay::new(FloodIndex::build(p, &cfg, b.as_ref())))
    };

    macro_rules! check {
        ($name:literal, $mk:expr) => {{
            let mut proc = UpdateProcessor::new(pts.clone(), $mk(), RebuildPolicy::Never, 64);
            churn_in(&mut proc, &pts);
            assert_roundtrip($name, &proc, $mk());
        }};
    }
    check!("grid", grid);
    check!("kdb", kdb);
    check!("hrr", hrr);
    check!("rstar", rstar);
    check!("zm", zm);
    check!("ml", ml);
    check!("flood", flood);
}

#[test]
fn approximate_index_kinds_round_trip_through_deterministic_rebuilds() {
    // RSMI and LISA are approximate: a base index plus a delta layer does
    // not answer windows identically to a fresh build over the merged
    // live set, so these kinds are snapshotted with the delta folded in
    // (the state every rebuild-policy checkpoint produces). Recovery then
    // re-runs the deterministic seeded build and must agree bit-for-bit.
    let pts = Dataset::Uniform.generate(1_200, 78);
    let elsi = Elsi::new(ElsiConfig::fast_test());

    let rsmi = || -> RebuildFn<Overlay<RsmiIndex>> {
        let b = Arc::new(elsi.builder());
        let cfg = RsmiConfig {
            leaf_capacity: 256,
            fanout: 4,
            ..RsmiConfig::default()
        };
        Box::new(move |p| DeltaOverlay::new(RsmiIndex::build(p, &cfg, b.as_ref())))
    };
    let lisa = || -> RebuildFn<Overlay<LisaIndex>> {
        let b = Arc::new(elsi.builder().for_lisa());
        let cfg = LisaConfig {
            grid: 8,
            shard_size: 150,
        };
        Box::new(move |p| DeltaOverlay::new(LisaIndex::build(p, &cfg, b.as_ref())))
    };

    let proc = UpdateProcessor::new(pts.clone(), rsmi(), RebuildPolicy::Never, 64);
    assert_roundtrip("rsmi", &proc, rsmi());
    let proc = UpdateProcessor::new(pts, lisa(), RebuildPolicy::Never, 64);
    assert_roundtrip("lisa", &proc, lisa());
}

fn grid_rebuild() -> RebuildFn<Overlay<GridIndex>> {
    Box::new(|p| DeltaOverlay::new(GridIndex::build(p, &GridConfig { block_size: 32 })))
}

#[test]
fn a_save_crashing_at_any_byte_offset_is_a_clean_error_or_a_full_image() {
    let mut proc = UpdateProcessor::new(
        gen::uniform(350, 5),
        grid_rebuild(),
        RebuildPolicy::Never,
        32,
    );
    churn_in(&mut proc, &gen::uniform(350, 5));
    let survivor = fingerprint(&proc);
    let writer = proc.snapshot_writer(&NoCodec);
    let image = writer.to_bytes();
    let mem = PathBuf::from("mem");

    for cut in 0..=image.len() {
        // Crash the write at byte `cut` via the fault injector.
        let mut sink = FailingWriter::new(Vec::new(), cut as u64);
        let write_result = writer.write_to(&mut sink);
        let partial = sink.into_inner();
        assert_eq!(partial, image[..cut.min(image.len())], "cut {cut}");
        if cut < image.len() {
            assert!(
                write_result.is_err(),
                "cut {cut}: write must report the fault"
            );
            // What made it to disk never parses into a usable snapshot —
            // a clean error, not a panic and not a silently wrong state.
            match Snapshot::from_vec(partial, &mem) {
                Err(_) => {}
                Ok(_) => panic!("cut {cut}: a truncated image parsed as complete"),
            }
        } else {
            assert!(write_result.is_ok());
            let snap = Snapshot::from_vec(partial, &mem).unwrap();
            let opened = UpdateProcessor::from_snapshot(
                &snap,
                grid_rebuild(),
                RebuildPolicy::Never,
                &NoCodec,
            )
            .unwrap();
            assert_eq!(fingerprint(&opened), survivor);
        }
    }
}

/// What a reopened deployment must reproduce: sizes, every shard's
/// counters (rebuilds included), the live set and a kNN answer.
type DeploymentPrint = (usize, Vec<ShardStats>, Vec<Point>, Vec<Point>);

fn deployment_print(dep: &ShardedIndex<GridIndex>) -> DeploymentPrint {
    (
        dep.len(),
        dep.shard_stats(),
        dep.window_query(&Rect::unit()),
        dep.knn_query(Point::at(0.5, 0.4), 9),
    )
}

fn journal_sweep(dir: &Path, router: Router, base: &[Point]) {
    std::fs::remove_dir_all(dir).ok();
    let codec = OverlayCodec::new(NoCodec);
    let builder = |_: &_, p| GridIndex::build(p, &GridConfig { block_size: 32 });
    let policy = |_s| RebuildPolicy::Threshold {
        max_drift: 2.0, // never trips on drift; ratio does the work
        max_ratio: 0.15,
    };
    let cfg = ShardedConfig { f_u: 16, seed: 3 };
    let mut dep = ShardedIndex::build(base.to_vec(), router, &cfg, builder, policy);
    dep.save(dir, &codec).unwrap();

    // Six calls, each spread over the square so that it spans at least
    // three shards: inserts, and deletes of base points.
    let calls: Vec<Vec<Update>> = (0..6u64)
        .map(|c| {
            (0..9u64)
                .map(|i| {
                    if (c + i) % 5 == 0 {
                        Update::Delete(base[(c * 9 + i) as usize])
                    } else {
                        let (x, y) = ((i as f64 + 0.5) / 9.0, (c as f64 + 0.5 + i as f64) / 14.0);
                        Update::Insert(Point::new(700_000 + c * 100 + i, x, y.fract()))
                    }
                })
                .collect()
        })
        .collect();
    let mut after_k = vec![deployment_print(&dep)];
    for call in &calls {
        let mut shards: Vec<usize> = call
            .iter()
            .map(|u| dep.router().shard_of(u.point()))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        assert!(shards.len() >= 3, "a call spans {} shards", shards.len());
        dep.par_apply_updates(call);
        after_k.push(deployment_print(&dep));
    }
    // A rebuild falls strictly inside the journal, not before it.
    let rebuilds: Vec<usize> = after_k
        .iter()
        .map(|p| p.1.iter().map(|s| s.rebuilds).sum())
        .collect();
    assert_eq!(rebuilds[0], 0);
    assert!(
        rebuilds[calls.len() - 1] > 0,
        "no rebuild mid-journal: {rebuilds:?}"
    );
    drop(dep);

    let journal = dir.join("deploy.g1.wal");
    let full = std::fs::read(&journal).unwrap();
    let open = || {
        ShardedIndex::<GridIndex>::open(dir, builder, policy, &codec)
            .map(|dep| deployment_print(&dep))
    };
    for cut in 0..=full.len() {
        std::fs::write(&journal, &full[..cut]).unwrap();
        let opened = open();
        let Ok(replay) = read_wal_bytes(&full[..cut], &journal) else {
            // Not even a journal header survives: the open refuses cleanly.
            assert!(opened.is_err(), "cut {cut} opened without a journal header");
            continue;
        };
        let whole = replay.records.len();
        let opened = opened.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        // No partial call: exactly the state after the last whole record.
        assert_eq!(opened, after_k[whole], "cut {cut} ({whole} whole records)");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_wal_torn_at_any_byte_offset_recovers_exactly_the_journaled_prefix() {
    let base = gen::uniform(300, 9);
    let dir = |tag: &str| tmp(&format!("sweep_{tag}"));
    journal_sweep(&dir("grid"), Router::new(2, 2), &base);
    journal_sweep(&dir("learned"), Router::fit_sampled(&base, 2, 2), &base);
}

#[test]
fn exact_codec_crash_sweep_preserves_the_delta_layer() {
    // Same any-offset sweep through the ZM fast path: the snapshot holds
    // the encoded index (delta intact), so recovery must reproduce even
    // the unsorted window order bit-for-bit.
    let elsi = Elsi::new(ElsiConfig::fast_test());
    let b = Arc::new(elsi.builder());
    let zm_rebuild = move || -> RebuildFn<Overlay<ZmIndex>> {
        let b = Arc::clone(&b);
        Box::new(move |p| DeltaOverlay::new(ZmIndex::build(p, &ZmConfig { fanout: 4 }, b.as_ref())))
    };
    let pts = gen::uniform(400, 13);
    let mut proc = UpdateProcessor::new(pts.clone(), zm_rebuild(), RebuildPolicy::Never, 1000);
    churn_in(&mut proc, &pts);
    let codec = OverlayCodec::new(ZmStateCodec);
    let writer = proc.snapshot_writer(&codec);
    let image = writer.to_bytes();
    let mem = PathBuf::from("mem");
    let w = Rect::new(0.0, 0.0, 1.0, 1.0);

    // Sample offsets densely near frame boundaries and sparsely inside
    // payloads (the image is ~30 KB; every 97th byte plus both ends).
    let mut cuts: Vec<usize> = (0..image.len()).step_by(97).collect();
    cuts.extend([image.len().saturating_sub(1), image.len()]);
    for cut in cuts {
        let mut sink = FailingWriter::new(Vec::new(), cut as u64);
        let _ = writer.write_to(&mut sink);
        let partial = sink.into_inner();
        match Snapshot::from_vec(partial, &mem) {
            Err(_) => {}
            Ok(snap) => {
                assert_eq!(cut, image.len(), "cut {cut}: partial image parsed");
                let opened = UpdateProcessor::from_snapshot(
                    &snap,
                    zm_rebuild(),
                    RebuildPolicy::Never,
                    &codec,
                )
                .unwrap();
                assert_eq!(fingerprint(&opened), fingerprint(&proc));
                assert_eq!(opened.index().deleted_ids(), proc.index().deleted_ids());
                assert_eq!(
                    opened.index().inserted_points().count(),
                    proc.index().inserted_points().count()
                );
                assert_eq!(
                    opened.index().window_query(&w),
                    proc.index().window_query(&w)
                );
            }
        }
    }
}
