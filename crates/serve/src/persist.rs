//! Durable serving directories: crash recovery for [`ShardedIndex`].
//!
//! One deployment persists as one directory (`DESIGN.md` §14):
//!
//! ```text
//! deploy/
//!   MANIFEST.json        — shape, seeds, and the current generation
//!   router.g3.snap       — the fitted router state (one-section snapshot)
//!   shard-0000.g3.snap   — one snapshot per shard (core persist format)
//!   shard-0000.g3.wal    — that shard's journal of post-snapshot updates
//!   …
//! ```
//!
//! Every file name carries a **generation** number. [`ShardedIndex::save`]
//! writes the next generation's files first, then atomically replaces the
//! manifest, then prunes the previous generation — so a crash at any point
//! leaves either the old complete generation or the new one, never a
//! torn mix. The manifest is the commit point, exactly like the snapshot
//! writer's temp-file + rename.
//!
//! `save` also *rotates journals*: each shard's old WAL is absorbed by its
//! new snapshot, and subsequent updates journal into a fresh WAL of the
//! new generation. [`ShardedIndex::open`] reverses the whole arrangement —
//! manifest → router → parallel per-shard [`elsi::recover`] (snapshot +
//! WAL replay) — and re-attaches the journals, so a reopened deployment
//! keeps journaling from where it left off.
//!
//! Router cuts are f64 bit patterns and therefore live in the binary
//! router snapshot, not in JSON (see `elsi_store::json`); the manifest
//! only echoes the router *kind* so a mismatched open fails before any
//! shard work starts.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use elsi::{recover, DeltaOverlay, Elsi, RebuildFn, RebuildPolicy, UpdateProcessor};
use elsi_indices::{SpatialIndex, ZmIndex, ZmStateCodec};
use elsi_spatial::Point;
use elsi_store::{
    ByteReader, ByteWriter, IndexCodec, Json, Snapshot, SnapshotWriter, StoreError, WalWriter,
};
use rayon::prelude::*;

use crate::router::{GridRouter, LearnedRouter, Router};
use crate::sharded::{shard_seed, zm_policy, zm_shard_builder, ShardContext, ShardedIndex};

/// Re-exported so serving callers can assemble the workhorse codec
/// without importing three crates.
pub use elsi::OverlayCodec;

/// The manifest file inside a serving directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Manifest format this build reads and writes.
pub const MANIFEST_FORMAT: u32 = 1;

/// Section tag of the router state inside `router.g<N>.snap`.
pub const SEC_ROUTER: u32 = u32::from_le_bytes(*b"ROUT");

/// Binary tag for [`RouterState::Grid`].
const ROUTER_GRID: u8 = 0;
/// Binary tag for [`RouterState::Learned`].
const ROUTER_LEARNED: u8 = 1;

/// The persistable state of a router — everything needed to reassemble
/// routing *without refitting*, so recovery skips the CDF fit entirely.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterState {
    /// A uniform [`GridRouter`]: shape only.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A fitted [`LearnedRouter`]: shape plus the exact cut positions
    /// (f64 bit patterns — routing after recovery must be bit-identical
    /// to routing before the save, or points change owners).
    Learned {
        /// Partition rows.
        rows: usize,
        /// Partition columns.
        cols: usize,
        /// `cols + 1` strictly increasing x cuts anchored at `0.0`/`1.0`.
        x_cuts: Vec<f64>,
        /// Per column, `rows + 1` such y cuts.
        y_cuts: Vec<Vec<f64>>,
    },
}

impl RouterState {
    /// The manifest name of this router kind.
    pub fn kind(&self) -> &'static str {
        match self {
            RouterState::Grid { .. } => "grid",
            RouterState::Learned { .. } => "learned",
        }
    }
}

/// Routers a serving directory can persist and restore.
pub trait PersistRouter: Router {
    /// This router's persistable state.
    fn state(&self) -> RouterState;

    /// Reassembles a router from persisted state; `None` when the state
    /// describes a different router kind or violates its invariants.
    fn from_state(state: &RouterState) -> Option<Self>
    where
        Self: Sized;
}

impl PersistRouter for GridRouter {
    fn state(&self) -> RouterState {
        RouterState::Grid {
            rows: self.rows(),
            cols: self.cols(),
        }
    }

    fn from_state(state: &RouterState) -> Option<Self> {
        match state {
            RouterState::Grid { rows, cols } if *rows >= 1 && *cols >= 1 => {
                Some(GridRouter::new(*rows, *cols))
            }
            _ => None,
        }
    }
}

impl PersistRouter for LearnedRouter {
    fn state(&self) -> RouterState {
        RouterState::Learned {
            rows: self.rows(),
            cols: self.cols(),
            x_cuts: self.x_cuts().to_vec(),
            y_cuts: (0..self.cols())
                .map(|c| self.y_cuts(c).unwrap_or(&[]).to_vec())
                .collect(),
        }
    }

    fn from_state(state: &RouterState) -> Option<Self> {
        match state {
            RouterState::Learned {
                rows,
                cols,
                x_cuts,
                y_cuts,
            } => LearnedRouter::from_cuts(*rows, *cols, x_cuts.clone(), y_cuts.clone()),
            _ => None,
        }
    }
}

/// A boxed router restores from *any* persisted state, dispatching on the
/// closed [`RouterState`] enum — the type to open a serving directory with
/// when the router kind is only known at runtime.
impl PersistRouter for Box<dyn PersistRouter> {
    fn state(&self) -> RouterState {
        (**self).state()
    }

    fn from_state(state: &RouterState) -> Option<Self> {
        Some(match state {
            RouterState::Grid { .. } => Box::new(GridRouter::from_state(state)?),
            RouterState::Learned { .. } => Box::new(LearnedRouter::from_state(state)?),
        })
    }
}

/// Encodes a router state for the `SEC_ROUTER` snapshot section.
pub fn encode_router_state(state: &RouterState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match state {
        RouterState::Grid { rows, cols } => {
            w.put_u8(ROUTER_GRID);
            w.put_usize(*rows);
            w.put_usize(*cols);
        }
        RouterState::Learned {
            rows,
            cols,
            x_cuts,
            y_cuts,
        } => {
            w.put_u8(ROUTER_LEARNED);
            w.put_usize(*rows);
            w.put_usize(*cols);
            w.put_f64s(x_cuts);
            w.put_usize(y_cuts.len());
            for col in y_cuts {
                w.put_f64s(col);
            }
        }
    }
    w.into_vec()
}

/// Decodes a `SEC_ROUTER` payload. Unknown kind tags are
/// [`StoreError::Unsupported`] (a newer build's router, not damage).
pub fn decode_router_state(bytes: &[u8]) -> Result<RouterState, StoreError> {
    let mut r = ByteReader::new(bytes, "router state");
    let state = match r.get_u8()? {
        ROUTER_GRID => RouterState::Grid {
            rows: r.get_usize()?,
            cols: r.get_usize()?,
        },
        ROUTER_LEARNED => {
            let rows = r.get_usize()?;
            let cols = r.get_usize()?;
            let x_cuts = r.get_f64s()?;
            // Each column carries at least its own length prefix.
            let n = r.get_len(8)?;
            let mut y_cuts = Vec::with_capacity(n);
            for _ in 0..n {
                y_cuts.push(r.get_f64s()?);
            }
            RouterState::Learned {
                rows,
                cols,
                x_cuts,
                y_cuts,
            }
        }
        other => {
            return Err(StoreError::Unsupported {
                what: format!("router kind tag {other}"),
            })
        }
    };
    r.expect_end()?;
    Ok(state)
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

/// Atomically replaces `dir/MANIFEST.json` — the generation commit point.
fn write_manifest(dir: &Path, m: &Manifest) -> Result<(), StoreError> {
    let tmp = dir.join("MANIFEST.json.tmp");
    let path = dir.join(MANIFEST_NAME);
    let mut f = fs::File::create(&tmp).map_err(|e| StoreError::io("create", &tmp, e))?;
    f.write_all(m.to_json().write_pretty().as_bytes())
        .map_err(|e| StoreError::io("write", &tmp, e))?;
    f.sync_all().map_err(|e| StoreError::io("sync", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| StoreError::io("rename", &path, e))?;
    Ok(())
}

fn router_file(generation: u64) -> String {
    format!("router.g{generation}.snap")
}

fn shard_snap_file(generation: u64, shard: usize) -> String {
    format!("shard-{shard:04}.g{generation}.snap")
}

fn shard_wal_file(generation: u64, shard: usize) -> String {
    format!("shard-{shard:04}.g{generation}.wal")
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

impl<I, R> ShardedIndex<I, R>
where
    I: SpatialIndex,
    R: PersistRouter,
{
    /// Persists the deployment into `dir` as the next generation and
    /// rotates every shard's journal: old WALs are absorbed by the new
    /// snapshots, and updates applied after this call journal into fresh
    /// WALs of the new generation. Returns the committed generation.
    ///
    /// Shard snapshots are written in parallel on the rayon pool; the
    /// manifest is replaced atomically only after every file of the new
    /// generation is on disk, so a crash mid-save leaves the previous
    /// generation fully intact.
    // lint:serving_root
    pub fn save<C>(&mut self, dir: &Path, codec: &C) -> Result<u64, StoreError>
    where
        C: IndexCodec<DeltaOverlay<I>> + Sync,
    {
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir, e))?;
        let generation = next_generation(dir);

        let mut router_snap = SnapshotWriter::new();
        router_snap.add_section(SEC_ROUTER, encode_router_state(&self.router.state()));
        router_snap.write_file(&dir.join(router_file(generation)))?;

        // The vendored rayon has no `par_iter_mut`: move the shards out,
        // snapshot + re-journal each one, and collect them back in order.
        let shards = std::mem::take(&mut self.shards);
        type Saved<I> = Vec<(UpdateProcessor<DeltaOverlay<I>>, Result<(), StoreError>)>;
        let saved: Saved<I> = shards
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(s, mut shard)| {
                shard.detach_wal();
                let res = (|| {
                    shard.save_snapshot(&dir.join(shard_snap_file(generation, s)), codec)?;
                    let wal = WalWriter::create(&dir.join(shard_wal_file(generation, s)))?;
                    shard.attach_wal(wal);
                    Ok(())
                })();
                (shard, res)
            })
            .collect();
        // Shards go back in place before any error propagates: a failed
        // save must leave the deployment serving (possibly un-journaled —
        // the same degrade-over-poison rule as `UpdateProcessor`'s WAL).
        let mut first_err = None;
        self.shards = saved
            .into_iter()
            .map(|(shard, res)| {
                if let Err(e) = res {
                    first_err.get_or_insert(e);
                }
                shard
            })
            .collect();
        if let Some(e) = first_err {
            return Err(e);
        }

        write_manifest(
            dir,
            &Manifest {
                format: MANIFEST_FORMAT,
                generation,
                shards: self.shards.len(),
                f_u: self.f_u,
                seed: self.seed,
                router_kind: self.router.state().kind().to_string(),
            },
        )?;
        prune_stale(dir, generation);
        Ok(generation)
    }

    /// Restores a deployment from a serving directory: manifest → router
    /// state (no refitting) → every shard recovered in parallel from its
    /// snapshot plus journaled WAL tail ([`elsi::recover`]), with the
    /// journals re-attached so the reopened deployment keeps journaling.
    ///
    /// `shard_builder` and `policy` follow the [`ShardedIndex::build`]
    /// contract — they are only *invoked* for shards whose snapshot
    /// carries no encoded index blob (the deterministic rebuild path) and
    /// on later policy-triggered rebuilds, with the same per-shard seeds
    /// as the original build (the manifest records the root seed).
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
        let state =
            decode_router_state(snap.section(SEC_ROUTER).ok_or_else(|| {
                StoreError::corrupt("router snapshot", "missing router section")
            })?)?;
        if manifest.router_kind != state.kind() {
            return Err(StoreError::Manifest {
                detail: format!(
                    "manifest says router `{}` but the router snapshot holds `{}`",
                    manifest.router_kind,
                    state.kind()
                ),
            });
        }
        let router = R::from_state(&state).ok_or_else(|| StoreError::Manifest {
            detail: format!(
                "directory persists a `{}` router, which this deployment's router type cannot restore",
                state.kind()
            ),
        })?;
        if router.num_shards() != manifest.shards {
            return Err(StoreError::Manifest {
                detail: format!(
                    "router owns {} shards but the manifest records {}",
                    router.num_shards(),
                    manifest.shards
                ),
            });
        }

        let builder = Arc::new(shard_builder);
        // Policies are drawn serially in shard order, as in `build`.
        let work: Vec<(usize, RebuildPolicy)> =
            (0..manifest.shards).map(|s| (s, policy(s))).collect();
        let (root_seed, generation) = (manifest.seed, manifest.generation);
        let router_ref = &router;
        let recovered: Vec<Result<UpdateProcessor<DeltaOverlay<I>>, StoreError>> = work
            .into_par_iter()
            .map(move |(s, pol)| {
                let ctx = ShardContext {
                    shard: s,
                    rect: router_ref.shard_rect(s),
                    seed: shard_seed(root_seed, s),
                };
                let b = Arc::clone(&builder);
                let rebuild: RebuildFn<DeltaOverlay<I>> =
                    Box::new(move |pts| DeltaOverlay::new(b(&ctx, pts)));
                recover(
                    &dir.join(shard_snap_file(generation, s)),
                    &dir.join(shard_wal_file(generation, s)),
                    rebuild,
                    pol,
                    codec,
                )
            })
            .collect();
        let mut shards = Vec::with_capacity(recovered.len());
        for res in recovered {
            shards.push(res?);
        }
        Ok(Self {
            router,
            shards,
            f_u: manifest.f_u,
            seed: manifest.seed,
        })
    }
}

/// The codec for ZM-F shard snapshots: the overlay's delta state wraps
/// [`ZmStateCodec`]'s exact base-index blob, so recovery restores shards
/// bit-for-bit with no model training.
pub fn zm_codec() -> OverlayCodec<ZmStateCodec> {
    OverlayCodec::new(ZmStateCodec)
}

impl<R: PersistRouter> ShardedIndex<ZmIndex, R> {
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
    use std::path::PathBuf;

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

    fn grid_deployment(points: Vec<Point>) -> ShardedIndex<GridIndex, GridRouter> {
        ShardedIndex::build(
            points,
            GridRouter::new(2, 2),
            &ShardedConfig::grid(2, 2),
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
            idx.insert_routed(Point::new(10_000 + p.id, p.y, p.x));
        }
        assert_eq!(idx.save(&d, &codec).unwrap(), 1);
        assert!(
            idx.shard(0).wal_attached(),
            "save must leave shards journaling"
        );

        let re = ShardedIndex::<GridIndex, GridRouter>::open(
            &d,
            grid_builder(),
            |_s| RebuildPolicy::Never,
            &codec,
        )
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
            GridRouter::new(2, 2),
            &ShardedConfig::default(),
            &elsi,
        );
        for p in pts(60) {
            idx.insert_routed(Point::new(20_000 + p.id, p.y, p.x));
        }
        idx.save(&d, &zm_codec()).unwrap();

        let re = ShardedIndex::<_, GridRouter>::open_zm(&d, &elsi).unwrap();
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
        // A shard file holds its points once, inside the ZM blob (24 B of
        // point + the 8 B key), plus a constant: drift sketches, models,
        // counters. Twice the points cost ≤ 34 B for each extra one.
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let mut bytes = [0u64; 2];
        for (slot, n) in bytes.iter_mut().zip([8_000, 16_000]) {
            let d = dir(&format!("size_{n}"));
            let cfg = ShardedConfig::default();
            let mut idx = ShardedIndex::zm(pts(n), GridRouter::new(2, 2), &cfg, &elsi);
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
            large - small <= 34 * 8_000,
            "{} B per extra point",
            (large - small) / 8_000
        );
        // Four 16 KB drift sketches and the models: 84 KB today.
        assert!(
            small <= 32 * 8_000 + 90_000,
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
                GridRouter::new(4, 4),
                &ShardedConfig::grid(4, 4),
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
                idx.delete_routed(ghost(&points[10]));
            }
            assert_eq!(idx.len(), points.len(), "{tag}");
            idx.save(&d, &zm_codec())?;
            let re = ShardedIndex::<_, GridRouter>::open_zm(&d, &elsi)?;
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
        let router = LearnedRouter::fit_sampled(&points, 2, 3);
        let mut idx = ShardedIndex::zm(points, router, &ShardedConfig::default(), &elsi);
        idx.save(&d, &zm_codec()).unwrap();
        let re = ShardedIndex::<_, LearnedRouter>::open_zm(&d, &elsi).unwrap();
        // PartialEq over the cut vectors: bit-exact, no refit drift.
        assert_eq!(re.router(), idx.router());
        let boxed = ShardedIndex::<_, Box<dyn PersistRouter>>::open_zm(&d, &elsi);
        assert_eq!(
            boxed.map(|b| b.router().state()).ok(),
            Some(idx.router().state())
        );
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
        let re = ShardedIndex::<GridIndex, GridRouter>::open(
            &d,
            grid_builder(),
            |_s| RebuildPolicy::Never,
            &codec,
        )
        .unwrap();
        assert_eq!(re.len(), idx.len());
    }

    #[test]
    fn updates_after_save_journal_and_recover() {
        let d = dir("wal_tail");
        let codec = OverlayCodec::new(NoCodec);
        let mut idx = grid_deployment(pts(400));
        idx.save(&d, &codec).unwrap();
        // These land in the fresh per-shard WALs `save` attached.
        for p in pts(25) {
            idx.insert_routed(Point::new(30_000 + p.id, p.x, p.y));
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

        let re = ShardedIndex::<GridIndex, GridRouter>::open(
            &d,
            grid_builder(),
            |_s| RebuildPolicy::Never,
            &codec,
        )
        .unwrap();
        assert_eq!(re.len(), expect_len);
        assert_eq!(re.window_query(&w), expect);
        assert!(re.shard(0).wal_attached(), "open must re-attach journals");
    }

    #[test]
    fn opening_with_the_wrong_router_type_is_a_manifest_error() {
        let d = dir("wrong_router");
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let mut idx = ShardedIndex::zm(
            pts(300),
            GridRouter::new(2, 2),
            &ShardedConfig::default(),
            &elsi,
        );
        idx.save(&d, &zm_codec()).unwrap();
        let err = match ShardedIndex::<_, LearnedRouter>::open_zm(&d, &elsi) {
            Err(e) => e,
            Ok(_) => panic!("opening a grid directory as learned must fail"),
        };
        assert!(matches!(err, StoreError::Manifest { .. }), "{err}");
        // The boxed router restores whichever kind the directory holds.
        let boxed = ShardedIndex::<_, Box<dyn PersistRouter>>::open_zm(&d, &elsi);
        assert_eq!(
            boxed.map(|b| b.router().state()).ok(),
            Some(idx.router().state())
        );
    }

    #[test]
    fn router_state_codec_round_trips_and_rejects_damage() {
        let grid = RouterState::Grid { rows: 3, cols: 5 };
        assert_eq!(
            decode_router_state(&encode_router_state(&grid)).unwrap(),
            grid
        );

        let fitted = LearnedRouter::fit(&pts(4_000), 3, 2);
        let decoded = decode_router_state(&encode_router_state(&fitted.state())).unwrap();
        assert_eq!(LearnedRouter::from_state(&decoded).unwrap(), fitted);

        assert!(matches!(
            decode_router_state(&[9]),
            Err(StoreError::Unsupported { .. })
        ));
        let bytes = encode_router_state(&fitted.state());
        assert!(decode_router_state(&bytes[..bytes.len() - 3]).is_err());
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
