//! Durable serving directories: crash recovery for [`ShardedIndex`].
//!
//! One deployment persists as one directory (`DESIGN.md` §14):
//!
//! ```text
//! deploy/
//!   MANIFEST.json        — shape, seeds, and the current generation
//!   router.g3.snap       — the fitted router state (one-section snapshot)
//!   shard-0000.g3.snap   — one snapshot per shard (core persist format)
//!   …
//!   deploy.g3.wal        — the deployment's journal: one record per write
//!                          call since the snapshots
//! ```
//!
//! Every file name carries a **generation** number. [`ShardedIndex::save`]
//! writes the next generation's files first, then atomically replaces the
//! manifest, then prunes the previous generation — so a crash at any point
//! leaves either the old complete generation or the new one, never a
//! torn mix. The manifest is the commit point, exactly like the snapshot
//! writer's temp-file + rename. The new snapshots absorb the old journal,
//! and later write calls append to the new generation's.
//!
//! [`ShardedIndex::open`] reverses the arrangement: manifest → router →
//! the journal, read and split per shard once → every shard restored in
//! one parallel pass (its snapshot, then its sub-batches in record order)
//! → the journal re-attached, its torn tail cut away.
//!
//! Router cuts are f64 bit patterns and therefore live in the binary
//! router snapshot, not in JSON (see `elsi_store::json`); the manifest
//! echoes the router *kind* ("grid" for uniform cuts, "learned" for any
//! other) so a manifest that disagrees with its snapshot fails before any
//! shard work starts.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use elsi::{decode_updates, DeltaOverlay, Elsi, RebuildFn, RebuildPolicy, UpdateProcessor};
use elsi_data::stream::Update;
use elsi_indices::{SpatialIndex, ZmIndex, ZmStateCodec};
use elsi_spatial::Point;
use elsi_store::{
    read_wal, sync_parent_dir, ByteReader, ByteWriter, IndexCodec, Json, Snapshot, SnapshotWriter,
    StoreError, WalWriter,
};
use rayon::prelude::*;

use crate::router::Router;
use crate::sharded::{
    partition, shard_seed, zm_policy, zm_shard_builder, ShardContext, ShardedIndex,
};

/// Re-exported so serving callers can assemble the workhorse codec
/// without importing three crates.
pub use elsi::OverlayCodec;

/// The manifest file inside a serving directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Manifest format this build reads and writes: 2 = one deployment journal
/// (format 1 kept a journal per shard).
pub const MANIFEST_FORMAT: u32 = 2;

/// Section tag of the router state inside `router.g<N>.snap`.
pub const SEC_ROUTER: u32 = u32::from_le_bytes(*b"ROUT");

/// The manifest's name for `router`'s kind: "grid" when it has
/// [`Router::new`]'s uniform cuts, else "learned".
fn router_kind(router: &Router) -> &'static str {
    if *router == Router::new(router.rows(), router.cols()) {
        "grid"
    } else {
        "learned"
    }
}

/// Encodes a router for the `SEC_ROUTER` snapshot section: its shape, the
/// x cuts, then each column's y cuts, as f64 bit patterns — routing after
/// recovery must be bit-identical to routing before the save, or points
/// change owners.
pub fn encode_router(router: &Router) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(router.rows());
    w.put_usize(router.cols());
    w.put_f64s(router.x_cuts());
    for c in 0..router.cols() {
        w.put_f64s(router.y_cuts(c).unwrap_or(&[]));
    }
    w.into_vec()
}

/// Decodes a `SEC_ROUTER` payload into the router it describes, without
/// refitting.
///
/// `shards` is the count the manifest records: a payload of any other
/// shape is a [`StoreError::Manifest`], raised before any cut is read;
/// cuts that break the router's invariants are corrupt.
pub fn decode_router(bytes: &[u8], shards: usize) -> Result<Router, StoreError> {
    let mut r = ByteReader::new(bytes, "router state");
    let (rows, cols) = (r.get_usize()?, r.get_usize()?);
    if rows.checked_mul(cols) != Some(shards) {
        return Err(StoreError::Manifest {
            detail: format!("router is {rows}x{cols} but the manifest records {shards} shards"),
        });
    }
    let x_cuts = r.get_f64s()?;
    let y_cuts = (0..cols).map(|_| r.get_f64s()).collect::<Result<_, _>>()?;
    r.expect_end()?;
    Router::from_cuts(rows, cols, x_cuts, y_cuts)
        .ok_or_else(|| StoreError::corrupt("router state", "cuts violate router invariants"))
}

/// The parsed `MANIFEST.json` of a serving directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest format version ([`MANIFEST_FORMAT`]).
    pub format: u32,
    /// Current committed generation; all live file names carry it.
    pub generation: u64,
    /// Number of shards (must equal the restored router's shard count).
    pub shards: usize,
    /// Per-shard update-processor check frequency.
    pub f_u: usize,
    /// Root seed; shard `s` rebuilds with `shard_seed(seed, s)`.
    pub seed: u64,
    /// Router kind ("grid" / "learned") — a pre-flight check only; the
    /// authoritative state lives in the binary router snapshot.
    pub router_kind: String,
}

fn m_field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, StoreError> {
    v.get(key).ok_or_else(|| StoreError::Manifest {
        detail: format!("missing field `{key}`"),
    })
}

fn m_usize(v: &Json, key: &str) -> Result<usize, StoreError> {
    m_field(v, key)?
        .as_usize()
        .ok_or_else(|| StoreError::Manifest {
            detail: format!("field `{key}` is not a non-negative integer"),
        })
}

fn m_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, StoreError> {
    m_field(v, key)?
        .as_str()
        .ok_or_else(|| StoreError::Manifest {
            detail: format!("field `{key}` is not a string"),
        })
}

impl Manifest {
    /// The manifest as a JSON value (the committed, diff-friendly form).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format", Json::int(self.format as usize)),
            ("generation", Json::int(self.generation as usize)),
            ("shards", Json::int(self.shards)),
            ("f_u", Json::int(self.f_u)),
            // u64 seeds exceed JSON's 2⁵³ exact-integer range: travel as
            // a decimal string.
            ("seed", Json::str(self.seed.to_string())),
            ("router", Json::str(self.router_kind.clone())),
        ])
    }

    /// Parses a manifest, pinning every malformed field to
    /// [`StoreError::Manifest`].
    pub fn from_json(v: &Json) -> Result<Self, StoreError> {
        let format = u32::try_from(m_usize(v, "format")?).map_err(|_| StoreError::Manifest {
            detail: "field `format` is out of range".to_string(),
        })?;
        let seed = m_str(v, "seed")?
            .parse::<u64>()
            .map_err(|_| StoreError::Manifest {
                detail: "field `seed` is not a u64 decimal string".to_string(),
            })?;
        Ok(Manifest {
            format,
            generation: m_usize(v, "generation")? as u64,
            shards: m_usize(v, "shards")?,
            f_u: m_usize(v, "f_u")?,
            seed,
            router_kind: m_str(v, "router")?.to_string(),
        })
    }
}

/// Reads and parses `dir/MANIFEST.json`.
pub fn read_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    let path = dir.join(MANIFEST_NAME);
    let text = fs::read_to_string(&path).map_err(|e| StoreError::io("read", &path, e))?;
    let json = Json::parse(&text).map_err(|e| StoreError::Manifest {
        detail: e.to_string(),
    })?;
    Manifest::from_json(&json)
}

/// Atomically and durably replaces `dir/MANIFEST.json` — the generation
/// commit point. The directory sync also makes the new journal's entry
/// durable.
fn write_manifest(dir: &Path, m: &Manifest) -> Result<(), StoreError> {
    let tmp = dir.join("MANIFEST.json.tmp");
    let path = dir.join(MANIFEST_NAME);
    let mut f = fs::File::create(&tmp).map_err(|e| StoreError::io("create", &tmp, e))?;
    f.write_all(m.to_json().write_pretty().as_bytes())
        .map_err(|e| StoreError::io("write", &tmp, e))?;
    f.sync_all().map_err(|e| StoreError::io("sync", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| StoreError::io("rename", &path, e))?;
    sync_parent_dir(&path)
}

fn router_file(generation: u64) -> String {
    format!("router.g{generation}.snap")
}

fn shard_snap_file(generation: u64, shard: usize) -> String {
    format!("shard-{shard:04}.g{generation}.snap")
}

fn journal_file(generation: u64) -> String {
    format!("deploy.g{generation}.wal")
}

/// Generation number of a serving-directory file name, parsed from its
/// `.g<N>.` segment; `None` for the manifest and foreign files.
fn file_generation(name: &str) -> Option<u64> {
    let stem = name
        .strip_suffix(".snap")
        .or_else(|| name.strip_suffix(".wal"))?;
    let (_, generation) = stem.rsplit_once(".g")?;
    generation.parse().ok()
}

/// The generation the next save should write. Normally manifest + 1; with
/// no readable manifest, steps past any stranded files so a save after an
/// interrupted one never reuses their numbers.
fn next_generation(dir: &Path) -> u64 {
    if let Ok(m) = read_manifest(dir) {
        return m.generation + 1;
    }
    let mut max = 0;
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(g) = file_generation(&entry.file_name().to_string_lossy()) {
                max = max.max(g);
            }
        }
    }
    max + 1
}

/// Best-effort removal of every generation-stamped file except `keep`'s.
/// Failures are ignored: stale files cost disk, never correctness — the
/// manifest alone decides which generation is live.
fn prune_stale(dir: &Path, keep: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if file_generation(&entry.file_name().to_string_lossy()).is_some_and(|g| g != keep) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

impl<I: SpatialIndex> ShardedIndex<I> {
    /// Persists the deployment into `dir` as the next generation and
    /// starts its journal afresh: the new snapshots absorb every write call
    /// so far, and later calls journal into the new generation's
    /// `deploy.g<N>.wal`. Returns the committed generation.
    ///
    /// Shard snapshots are written in parallel on the rayon pool; the
    /// manifest is replaced atomically only after every file of the new
    /// generation is on disk, so a crash mid-save leaves the previous
    /// generation fully intact. A failed save leaves the previous journal
    /// attached, since the previous generation is still the committed one.
    // lint:serving_root
    pub fn save<C>(&mut self, dir: &Path, codec: &C) -> Result<u64, StoreError>
    where
        C: IndexCodec<DeltaOverlay<I>> + Sync,
    {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir, e))?;
        let generation = next_generation(dir);

        let mut router_snap = SnapshotWriter::new();
        router_snap.add_section(SEC_ROUTER, encode_router(&self.router));
        router_snap.write_file(&dir.join(router_file(generation)))?;

        let saved: Vec<Result<(), StoreError>> = self
            .shards
            .iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(s, shard)| {
                let path = dir.join(shard_snap_file(generation, s));
                shard.snapshot_writer(codec).write_file(&path)
            })
            .collect();
        saved.into_iter().collect::<Result<(), _>>()?;
        let journal = WalWriter::create(&dir.join(journal_file(generation)))?;

        write_manifest(
            dir,
            &Manifest {
                format: MANIFEST_FORMAT,
                generation,
                shards: self.shards.len(),
                f_u: self.f_u,
                seed: self.seed,
                router_kind: router_kind(&self.router).to_string(),
            },
        )?;
        self.set_journal(Some(journal), None);
        prune_stale(dir, generation);
        Ok(generation)
    }

    /// Restores a deployment from a serving directory: manifest → router
    /// state (no refitting) → the journal, read and split into per-shard
    /// sub-batches once → every shard restored in parallel from its
    /// snapshot plus its sub-batches, in record order → the journal
    /// re-attached (torn tail cut away), so the reopened deployment keeps
    /// journaling.
    ///
    /// Each sub-batch is what the shard's `apply_batch` saw live, so
    /// routing and the rebuild cadence replay exactly. `shard_builder` and
    /// `policy` follow the [`ShardedIndex::build`] contract — they are only
    /// *invoked* for shards whose snapshot carries no encoded index blob
    /// (the deterministic rebuild path) and on policy-triggered rebuilds,
    /// with the same per-shard seeds as the original build (the manifest
    /// records the root seed).
    // lint:serving_root
    pub fn open<B, P, C>(
        dir: &Path,
        shard_builder: B,
        policy: P,
        codec: &C,
    ) -> Result<Self, StoreError>
    where
        B: Fn(&ShardContext, Vec<Point>) -> I + Send + Sync + 'static,
        P: Fn(usize) -> RebuildPolicy,
        C: IndexCodec<DeltaOverlay<I>> + Sync,
    {
        let manifest = read_manifest(dir)?;
        if manifest.format != MANIFEST_FORMAT {
            return Err(StoreError::BadVersion {
                found: manifest.format,
                expected: MANIFEST_FORMAT,
            });
        }
        let snap = Snapshot::read_file(&dir.join(router_file(manifest.generation)))?;
        let section = snap
            .section(SEC_ROUTER)
            .ok_or_else(|| StoreError::corrupt("router snapshot", "missing router section"))?;
        let router = decode_router(section, manifest.shards)?;
        let kind = router_kind(&router);
        if manifest.router_kind != kind {
            return Err(StoreError::Manifest {
                detail: format!(
                    "manifest says router `{}` but the router snapshot holds `{kind}`",
                    manifest.router_kind
                ),
            });
        }

        let journal_path = dir.join(journal_file(manifest.generation));
        let replay = read_wal(&journal_path)?;
        // Each record is decoded and split once, the records in parallel.
        let split: Vec<Result<Vec<Vec<Update>>, StoreError>> = replay
            .records
            .par_iter()
            .map(|record| Ok(partition(&router, &decode_updates(record)?)))
            .collect();
        let mut calls: Vec<Vec<Vec<Update>>> = vec![Vec::new(); manifest.shards];
        for subs in split {
            for (mine, sub) in calls.iter_mut().zip(subs?) {
                mine.push(sub);
            }
        }

        let builder = Arc::new(shard_builder);
        // Policies are drawn serially in shard order, as in `build`.
        let work: Vec<(usize, RebuildPolicy, Vec<Vec<Update>>)> = calls
            .into_iter()
            .enumerate()
            .map(|(s, subs)| (s, policy(s), subs))
            .collect();
        let (root_seed, generation) = (manifest.seed, manifest.generation);
        let router_ref = &router;
        let recovered: Vec<Result<UpdateProcessor<DeltaOverlay<I>>, StoreError>> = work
            .into_par_iter()
            .map(move |(s, pol, subs)| {
                let ctx = ShardContext {
                    shard: s,
                    rect: router_ref.shard_rect(s),
                    seed: shard_seed(root_seed, s),
                };
                let b = Arc::clone(&builder);
                let rebuild: RebuildFn<DeltaOverlay<I>> =
                    Box::new(move |pts| DeltaOverlay::new(b(&ctx, pts)));
                let snap = Snapshot::read_file(&dir.join(shard_snap_file(generation, s)))?;
                let mut shard = UpdateProcessor::from_snapshot(&snap, rebuild, pol, codec)?;
                for sub in &subs {
                    shard.apply_batch(sub);
                }
                Ok(shard)
            })
            .collect();
        let mut dep = Self {
            router,
            shards: recovered.into_iter().collect::<Result<_, _>>()?,
            f_u: manifest.f_u,
            seed: manifest.seed,
            journal: None,
        };
        dep.set_journal(Some(WalWriter::open_append(&journal_path, &replay)?), None);
        Ok(dep)
    }
}

/// The codec for ZM-F shard snapshots: the overlay's delta state wraps
/// [`ZmStateCodec`]'s exact base-index blob, so recovery restores shards
/// bit-for-bit with no model training.
pub fn zm_codec() -> OverlayCodec<ZmStateCodec> {
    OverlayCodec::new(ZmStateCodec)
}

impl ShardedIndex<ZmIndex> {
    /// Reopens a [`ShardedIndex::zm`] deployment saved with [`zm_codec`];
    /// the router (learned cuts included) comes back exactly, with no
    /// refit. `elsi` only builds on later policy-triggered rebuilds —
    /// recovery itself decodes the persisted shard state.
    // lint:serving_root
    pub fn open_zm(dir: &Path, elsi: &Elsi) -> Result<Self, StoreError> {
        Self::open(dir, zm_shard_builder(elsi), zm_policy, &zm_codec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedConfig;
    use elsi::{ElsiConfig, Update};
    use elsi_indices::{GridConfig, GridIndex};
    use elsi_spatial::Rect;
    use elsi_store::NoCodec;
    use std::path::{Path, PathBuf};

    fn dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("elsi_serve_persist_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Deterministic unit-square points via golden-ratio sequences.
    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033_988_749_894_9).fract();
                let y = (i as f64 * 0.754_877_666_246_693).fract();
                Point::new(i as u64, x, y)
            })
            .collect()
    }

    fn grid_builder() -> impl Fn(&ShardContext, Vec<Point>) -> GridIndex + Send + Sync + 'static {
        |_ctx: &ShardContext, pts: Vec<Point>| GridIndex::build(pts, &GridConfig { block_size: 16 })
    }

    fn grid_deployment(points: Vec<Point>) -> ShardedIndex<GridIndex> {
        ShardedIndex::build(
            points,
            Router::new(2, 2),
            &ShardedConfig::default(),
            grid_builder(),
            |_s| RebuildPolicy::Never,
        )
    }

    #[test]
    fn grid_deployment_round_trips_by_rebuild() {
        let d = dir("grid_rt");
        let codec = OverlayCodec::new(NoCodec);
        let mut idx = grid_deployment(pts(600));
        for p in pts(40) {
            idx.insert(Point::new(10_000 + p.id, p.y, p.x));
        }
        assert_eq!(idx.save(&d, &codec).unwrap(), 1);

        let re =
            ShardedIndex::<GridIndex>::open(&d, grid_builder(), |_s| RebuildPolicy::Never, &codec)
                .unwrap();
        assert_eq!(re.len(), idx.len());
        assert_eq!(re.num_shards(), idx.num_shards());
        // Canonical result order makes equal sets bit-identical even
        // though the rebuild path folds the delta into a fresh base.
        let w = Rect::new(0.1, 0.1, 0.6, 0.45);
        assert_eq!(re.window_query(&w), idx.window_query(&w));
        let q = Point::at(0.3, 0.7);
        assert_eq!(re.knn_query(q, 15), idx.knn_query(q, 15));
    }

    #[test]
    fn zm_deployment_round_trips_exactly_without_retraining() {
        let d = dir("zm_rt");
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let mut idx = ShardedIndex::zm(
            pts(800),
            Router::new(2, 2),
            &ShardedConfig::default(),
            &elsi,
        );
        for p in pts(60) {
            idx.insert(Point::new(20_000 + p.id, p.y, p.x));
        }
        idx.save(&d, &zm_codec()).unwrap();

        let re = ShardedIndex::open_zm(&d, &elsi).unwrap();
        // The encoded-index fast path restores exact state: the stats
        // (including delta sizes) and raw query results all match.
        assert_eq!(re.shard_stats(), idx.shard_stats());
        let w = Rect::new(0.0, 0.2, 0.7, 0.9);
        assert_eq!(re.window_query(&w), idx.window_query(&w));
        let q = Point::at(0.4, 0.4);
        assert_eq!(re.knn_query(q, 12), idx.knn_query(q, 12));
    }

    #[test]
    fn a_saved_zm_deployment_stores_each_point_once() -> Result<(), StoreError> {
        // A shard file holds its points once, inside the ZM blob (24 B per
        // point: the keys are derived on open), plus a constant: drift
        // sketches, models, counters. Twice the points cost ≤ 26 B for
        // each extra one.
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let mut bytes = [0u64; 2];
        for (slot, n) in bytes.iter_mut().zip([8_000, 16_000]) {
            let d = dir(&format!("size_{n}"));
            let cfg = ShardedConfig::default();
            let mut idx = ShardedIndex::zm(pts(n), Router::new(2, 2), &cfg, &elsi);
            idx.save(&d, &zm_codec())?;
            for s in 0..idx.num_shards() {
                let snap = Snapshot::read_file(&d.join(shard_snap_file(1, s)))?;
                assert!(snap.section(elsi::persist::SEC_INDEX).is_some());
                assert!(
                    snap.section(elsi::persist::SEC_POINTS).is_none(),
                    "points stored twice"
                );
            }
            let files = fs::read_dir(&d).map_err(|e| StoreError::io("read_dir", &d, e))?;
            *slot = files
                .flatten()
                .filter_map(|f| f.metadata().ok())
                .map(|m| m.len())
                .sum();
        }
        let [small, large] = bytes;
        assert!(
            large - small <= 26 * 8_000,
            "{} B per extra point",
            (large - small) / 8_000
        );
        // Four 16 KB drift sketches and the models: 84 KB today.
        assert!(
            small <= 24 * 8_000 + 90_000,
            "constant part grew: {small} B for 8k points"
        );
        Ok(())
    }

    #[test]
    fn a_stray_delete_neither_removes_a_point_nor_bricks_the_checkpoint() -> Result<(), StoreError>
    {
        // A delete whose id the deployment never held, at a stored point's
        // coordinates: it used to tombstone the foreign id (the base probe
        // matched coordinates only), and the next checkpoint then failed to
        // open with "delta parts violate overlay invariants".
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let points = pts(3_000);
        let ghost = |p: &Point| Point::new(999_999, p.x, p.y);
        let mut oracle = points.clone();
        oracle.sort_by_key(elsi_spatial::canonical_point_key);
        // One at a time, and through the batched door.
        for (tag, batched) in [("ghost_one", false), ("ghost_batch", true)] {
            let d = dir(tag);
            let mut idx = ShardedIndex::zm(
                points.clone(),
                Router::new(4, 4),
                &ShardedConfig::default(),
                &elsi,
            );
            if batched {
                let strays: Vec<Update> = points
                    .iter()
                    .step_by(500)
                    .map(|p| Update::Delete(ghost(p)))
                    .collect();
                idx.par_apply_updates(&strays);
            } else {
                idx.delete(ghost(&points[10]));
            }
            assert_eq!(idx.len(), points.len(), "{tag}");
            idx.save(&d, &zm_codec())?;
            let re = ShardedIndex::open_zm(&d, &elsi)?;
            assert_eq!(re.len(), points.len(), "{tag}");
            assert_eq!(re.window_query(&Rect::unit()), oracle, "{tag}");
            assert_eq!(re.point_query(points[10]), Some(points[10]), "{tag}");
        }
        Ok(())
    }

    #[test]
    fn learned_router_cuts_survive_the_round_trip() {
        let d = dir("learned_rt");
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let points = pts(2_000);
        let router = Router::fit_sampled(&points, 2, 3);
        let mut idx = ShardedIndex::zm(points, router, &ShardedConfig::default(), &elsi);
        idx.save(&d, &zm_codec()).unwrap();
        let re = ShardedIndex::open_zm(&d, &elsi).unwrap();
        // PartialEq over the cut vectors: bit-exact, no refit drift.
        assert_eq!(re.router(), idx.router());
        assert_eq!(read_manifest(&d).unwrap().router_kind, "learned");
        let w = Rect::new(0.25, 0.0, 0.8, 0.55);
        assert_eq!(re.window_query(&w), idx.window_query(&w));
    }

    #[test]
    fn saves_rotate_generations_and_prune_stale_files() {
        let d = dir("gens");
        let codec = OverlayCodec::new(NoCodec);
        let mut idx = grid_deployment(pts(300));
        assert_eq!(idx.save(&d, &codec).unwrap(), 1);
        assert_eq!(idx.save(&d, &codec).unwrap(), 2);
        assert_eq!(read_manifest(&d).unwrap().generation, 2);
        let names: Vec<String> = fs::read_dir(&d)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names
                .iter()
                .all(|n| file_generation(n).is_none_or(|g| g == 2)),
            "stale generation files left behind: {names:?}"
        );
        assert!(names.contains(&MANIFEST_NAME.to_string()));
        // The rotated directory still opens.
        let re =
            ShardedIndex::<GridIndex>::open(&d, grid_builder(), |_s| RebuildPolicy::Never, &codec)
                .unwrap();
        assert_eq!(re.len(), idx.len());
    }

    /// Every shard reports the deployment journal as attached and healthy.
    fn journaling<I: SpatialIndex>(idx: &ShardedIndex<I>) -> bool {
        (0..idx.num_shards())
            .all(|s| idx.shard(s).wal_attached() && idx.shard(s).wal_error().is_none())
    }

    /// A file-system result as a store error, for `?`.
    fn fs_ok<T>(path: &Path, r: std::io::Result<T>) -> Result<T, StoreError> {
        r.map_err(|e| StoreError::io("fs", path, e))
    }

    fn open_grid(
        d: &Path,
        policy: impl Fn(usize) -> RebuildPolicy,
    ) -> Result<ShardedIndex<GridIndex>, StoreError> {
        ShardedIndex::open(d, grid_builder(), policy, &OverlayCodec::new(NoCodec))
    }

    #[test]
    fn updates_after_save_journal_and_recover() -> Result<(), StoreError> {
        let d = dir("wal_tail");
        let mut idx = grid_deployment(pts(400));
        assert!(
            !idx.shard(0).wal_attached(),
            "nothing journals before a save"
        );
        idx.save(&d, &OverlayCodec::new(NoCodec))?;
        assert!(journaling(&idx), "save must attach the journal");
        // One record per call: 25 singletons and one batch.
        for p in pts(25) {
            idx.insert(Point::new(30_000 + p.id, p.x, p.y));
        }
        let batch: Vec<Update> = pts(10)
            .iter()
            .map(|p| Update::Insert(Point::new(40_000 + p.id, p.y, p.x)))
            .collect();
        idx.par_apply_updates(&batch);
        let expect_len = idx.len();
        let w = Rect::new(0.0, 0.0, 1.0, 1.0);
        let expect = idx.window_query(&w);
        drop(idx); // "crash": nothing saved since the journaled tail

        let journal = d.join(journal_file(1));
        let written = fs_ok(&journal, fs::read(&journal))?;
        assert_eq!(read_wal(&journal)?.records.len(), 26);
        let re = open_grid(&d, |_s| RebuildPolicy::Never)?;
        assert_eq!(re.len(), expect_len);
        assert_eq!(re.window_query(&w), expect);
        assert!(journaling(&re), "open must re-attach the journal");
        // Replay is not journaled again.
        assert_eq!(fs_ok(&journal, fs::read(&journal))?, written);
        // The directory holds one journal and no per-shard ones.
        let wals: Vec<String> = fs_ok(&d, fs::read_dir(&d))?
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".wal"))
            .collect();
        assert_eq!(wals, vec![journal_file(1)]);
        Ok(())
    }

    #[test]
    fn wal_replay_reproduces_the_journaled_tail() -> Result<(), StoreError> {
        // Singleton and batched calls past a save, enough to trip rebuilds
        // mid-journal: the reopened deployment equals the one that crashed,
        // rebuild count, cadence counters and delta sizes included.
        let d = dir("replay");
        let policy = |_s| RebuildPolicy::Threshold {
            max_drift: 2.0, // never trips on drift; ratio does the work
            max_ratio: 0.2,
        };
        let cfg = ShardedConfig { f_u: 8, seed: 5 };
        let mut idx =
            ShardedIndex::build(pts(400), Router::new(2, 2), &cfg, grid_builder(), policy);
        idx.save(&d, &OverlayCodec::new(NoCodec))?;
        for p in pts(70) {
            idx.insert(Point::new(90_000 + p.id, p.x, 0.25 + p.y / 2.0));
        }
        let batch: Vec<Update> = pts(60)
            .iter()
            .map(|p| Update::Insert(Point::new(91_000 + p.id, p.y, p.x)))
            .collect();
        idx.par_apply_updates(&batch);
        assert!(idx.delete(pts(400)[3]));
        assert!(idx.rebuilds() > 0, "threshold never crossed");
        let stats = idx.shard_stats();
        let q = Point::at(0.4, 0.6);
        let (all, knn) = (idx.window_query(&Rect::unit()), idx.knn_query(q, 12));
        drop(idx);

        let re = open_grid(&d, policy)?;
        assert_eq!(re.shard_stats(), stats);
        assert_eq!(re.window_query(&Rect::unit()), all);
        assert_eq!(re.knn_query(q, 12), knn);
        Ok(())
    }

    #[test]
    fn torn_wal_tail_recovers_the_prefix() -> Result<(), StoreError> {
        let d = dir("torn");
        let mut idx = grid_deployment(pts(100));
        idx.save(&d, &OverlayCodec::new(NoCodec))?;
        let (first, second) = (Point::new(70_001, 0.1, 0.1), Point::new(70_002, 0.9, 0.9));
        idx.insert(first);
        idx.insert(second);
        drop(idx);
        // Crash mid-append: chop bytes off the final record.
        let journal = d.join(journal_file(1));
        let full = fs_ok(&journal, fs::read(&journal))?;
        fs_ok(&journal, fs::write(&journal, &full[..full.len() - 5]))?;
        let mut re = open_grid(&d, |_s| RebuildPolicy::Never)?;
        assert_eq!(re.len(), 101);
        assert_eq!(re.point_query(first), Some(first));
        assert_eq!(re.point_query(second), None);
        // The tear was cut away: a later call journals after the prefix.
        re.insert(second);
        drop(re);
        let re = open_grid(&d, |_s| RebuildPolicy::Never)?;
        assert_eq!(re.len(), 102);
        assert_eq!(re.point_query(second), Some(second));
        Ok(())
    }

    #[test]
    fn a_directory_with_per_shard_journals_is_refused_by_version() -> Result<(), StoreError> {
        // The layout of manifest format 1: the same snapshots, a journal per
        // shard and none for the deployment.
        let d = dir("format1");
        let mut idx = grid_deployment(pts(200));
        idx.save(&d, &OverlayCodec::new(NoCodec))?;
        let mut m = read_manifest(&d)?;
        m.format = 1;
        let manifest = d.join(MANIFEST_NAME);
        fs_ok(&manifest, fs::write(&manifest, m.to_json().write_pretty()))?;
        let journal = d.join(journal_file(1));
        fs_ok(&journal, fs::remove_file(&journal))?;
        for s in 0..idx.num_shards() {
            WalWriter::create(&d.join(format!("shard-{s:04}.g1.wal")))?;
        }
        assert!(matches!(
            open_grid(&d, |_s| RebuildPolicy::Never).map(|dep| dep.len()),
            Err(StoreError::BadVersion {
                found: 1,
                expected: 2
            })
        ));
        Ok(())
    }

    #[test]
    fn a_directory_of_container_version_1_snapshots_is_refused_by_version() -> Result<(), StoreError>
    {
        // Snapshots stamped with container version 1, the version of the
        // previous layout (a version word in each blob, the ZM key column,
        // a tagged router), their header CRC recomputed: the version alone
        // refuses them, before a section is read. The shards are stamped
        // one by one, then the router, which `open` reads before them.
        let d = dir("container1");
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let mut idx = ShardedIndex::zm(
            pts(600),
            Router::new(2, 2),
            &ShardedConfig::default(),
            &elsi,
        );
        idx.save(&d, &zm_codec())?;
        let files = (0..idx.num_shards()).map(|s| shard_snap_file(1, s));
        for name in files.chain([router_file(1)]) {
            let path = d.join(name);
            let mut image = fs_ok(&path, fs::read(&path))?;
            image[8..12].copy_from_slice(&1u32.to_le_bytes());
            let crc = elsi_store::crc32(&image[..16]);
            image[16..20].copy_from_slice(&crc.to_le_bytes());
            fs_ok(&path, fs::write(&path, &image))?;
            assert!(matches!(
                ShardedIndex::open_zm(&d, &elsi).map(|dep| dep.len()),
                Err(StoreError::BadVersion {
                    found: 1,
                    expected: 2
                })
            ));
        }
        Ok(())
    }

    #[test]
    fn router_state_codec_round_trips_and_rejects_damage() -> Result<(), StoreError> {
        let le = |v: u64| v.to_le_bytes().to_vec();
        let f64s = |vs: &[f64]| -> Vec<u8> {
            let bits = vs.iter().flat_map(|v| v.to_bits().to_le_bytes());
            le(vs.len() as u64).into_iter().chain(bits).collect()
        };
        // The one layout: the shape, the x cuts, then one y cut set per
        // column.
        let layout = |rows: u64, x: &[f64], y: &[f64]| -> Vec<u8> {
            let cols = x.len() as u64 - 1;
            let ys = (0..cols).flat_map(|_| f64s(y));
            [le(rows), le(cols), f64s(x)]
                .concat()
                .into_iter()
                .chain(ys)
                .collect()
        };
        // A uniform 3×5 router decodes to `Router::new` and re-encodes to
        // the same bytes; its kind is `grid`.
        let uniform = Router::new(3, 5);
        let y = uniform.y_cuts(0).unwrap_or(&[]);
        let grid = layout(3, uniform.x_cuts(), y);
        let decoded = decode_router(&grid, 15)?;
        assert_eq!((&decoded, router_kind(&decoded)), (&uniform, "grid"));
        assert_eq!(encode_router(&decoded), grid);

        // The `j / n` cuts an earlier build's degenerate fit fell back to:
        // decoded as stored, not snapped to uniform cuts. For ten columns,
        // `9 / 10` sits one ulp above the uniform cut.
        let tenths: Vec<f64> = (0..=10).map(|j| f64::from(j) / 10.0).collect();
        let fallback = layout(2, &tenths, &[0.0, 0.5, 1.0]);
        let decoded = decode_router(&fallback, 20)?;
        assert_ne!(decoded.x_cuts(), Router::new(2, 10).x_cuts());
        assert_eq!(decoded.x_cuts(), &tenths[..]);
        assert_eq!(decoded.y_cuts(9), Some(&[0.0, 0.5, 1.0][..]));
        assert_eq!(router_kind(&decoded), "learned");
        assert_eq!(encode_router(&decoded), fallback);

        let fitted = Router::fit(&pts(4_000), 3, 2);
        assert_eq!(decode_router(&encode_router(&fitted), 6)?, fitted);

        let bytes = encode_router(&fitted);
        assert!(decode_router(&bytes[..bytes.len() - 3], 6).is_err());
        assert!(decode_router(&grid[..grid.len() - 1], 15).is_err());
        // A shape the manifest does not record never reads a cut.
        assert!(matches!(
            decode_router(&grid, 16),
            Err(StoreError::Manifest { .. })
        ));
        let huge = [le(u64::MAX), le(2)].concat();
        assert!(decode_router(&huge, 2).is_err());
        // Cuts that break the router's invariants are corrupt.
        let unanchored = layout(2, &[0.0, 0.5, 0.9], &[0.0, 0.5, 1.0]);
        assert!(matches!(
            decode_router(&unanchored, 4),
            Err(StoreError::Corrupt { .. })
        ));
        Ok(())
    }

    #[test]
    fn manifest_json_round_trips_and_pins_field_errors() {
        let m = Manifest {
            format: MANIFEST_FORMAT,
            generation: 7,
            shards: 6,
            f_u: 64,
            seed: u64::MAX, // exceeds JSON's exact-integer range on purpose
            router_kind: "learned".to_string(),
        };
        let parsed = Json::parse(&m.to_json().write_pretty()).unwrap();
        assert_eq!(Manifest::from_json(&parsed).unwrap(), m);

        let missing = Json::obj(vec![("format", Json::int(1))]);
        assert!(matches!(
            Manifest::from_json(&missing),
            Err(StoreError::Manifest { .. })
        ));
        let bad_seed = {
            let mut v = m.to_json();
            if let Json::Obj(pairs) = &mut v {
                for (k, val) in pairs.iter_mut() {
                    if k == "seed" {
                        *val = Json::int(42);
                    }
                }
            }
            v
        };
        assert!(matches!(
            Manifest::from_json(&bad_seed),
            Err(StoreError::Manifest { .. })
        ));
    }
}
