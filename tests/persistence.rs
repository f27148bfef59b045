//! End-to-end durability: every index kind behind `UpdateProcessor`
//! round-trips through a snapshot, a save that crashes at *any* byte
//! offset is either a clean error or invisible (the survivor still
//! recovers bit-identically), and a WAL torn at any byte offset recovers
//! exactly the journaled prefix.
//!
//! The crash sweeps are deterministic and exhaustive (every offset, not a
//! random sample): the images are small enough that the full matrix runs
//! in well under a second.

use elsi::{
    recover, DeltaOverlay, Elsi, ElsiConfig, OverlayCodec, RebuildFn, RebuildPolicy,
    UpdateProcessor,
};
use elsi_data::stream::Update;
use elsi_data::{gen, Dataset};
use elsi_indices::*;
use elsi_spatial::{Point, Rect};
use elsi_store::{read_wal, FailingWriter, NoCodec, Snapshot, WalWriter};
use std::path::PathBuf;
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
    proc.save_snapshot(&path, &NoCodec).unwrap();
    let opened = UpdateProcessor::open_snapshot(&path, rebuild, RebuildPolicy::Never, &NoCodec)
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
            block_size: 50,
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

#[test]
fn a_wal_torn_at_any_byte_offset_recovers_exactly_the_journaled_prefix() {
    let snap_path = tmp("sweep.snap");
    let wal_path = tmp("sweep.wal");
    let base = gen::uniform(300, 9);

    // Journal six batches after a snapshot.
    let mut journaled =
        UpdateProcessor::new(base.clone(), grid_rebuild(), RebuildPolicy::Never, 32);
    journaled.save_snapshot(&snap_path, &NoCodec).unwrap();
    journaled.attach_wal(WalWriter::create(&wal_path).unwrap());
    let batches: Vec<Vec<Update>> = (0..6u64)
        .map(|b| {
            (0..10u64)
                .map(|i| {
                    if (b + i) % 4 == 0 {
                        Update::Delete(base[(b * 10 + i) as usize])
                    } else {
                        Update::Insert(Point::new(
                            700_000 + b * 100 + i,
                            0.1 + (b as f64) * 0.1,
                            0.2 + (i as f64) * 0.05,
                        ))
                    }
                })
                .collect()
        })
        .collect();
    for batch in &batches {
        journaled.apply_batch(batch);
    }
    journaled.sync_wal().unwrap();
    assert!(journaled.wal_error().is_none());
    let full_wal = std::fs::read(&wal_path).unwrap();

    // Reference fingerprints: the exact state after replaying k batches.
    let after_k: Vec<Fingerprint> = (0..=batches.len())
        .map(|k| {
            let mut p = UpdateProcessor::open_snapshot(
                &snap_path,
                grid_rebuild(),
                RebuildPolicy::Never,
                &NoCodec,
            )
            .unwrap();
            for batch in &batches[..k] {
                p.apply_batch(batch);
            }
            fingerprint(&p)
        })
        .collect();

    for cut in 0..=full_wal.len() {
        std::fs::write(&wal_path, &full_wal[..cut]).unwrap();
        let result = recover(
            &snap_path,
            &wal_path,
            grid_rebuild(),
            RebuildPolicy::Never,
            &NoCodec,
        );
        if cut < 16 {
            // Not even a WAL header survives: recovery refuses cleanly.
            assert!(result.is_err(), "cut {cut} recovered from a headerless WAL");
            continue;
        }
        let recovered = result.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        // A tear never invents or corrupts a batch: the recovered state
        // is exactly "snapshot + the longest intact record prefix".
        let replayed = read_wal(&wal_path).unwrap().records.len();
        assert!(replayed <= batches.len(), "cut {cut}");
        assert_eq!(fingerprint(&recovered), after_k[replayed], "cut {cut}");
    }
    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&wal_path).ok();
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
