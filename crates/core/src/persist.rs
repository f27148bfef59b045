//! Durable snapshots of the update lifecycle, and the payload of a journal
//! record (`DESIGN.md` §14).
//!
//! A processor snapshot is an `elsi-store` sectioned container holding:
//!
//! * [`SEC_META`] — the lifecycle counters (`n_at_build`, the `f_u`
//!   cadence, pending-update and rebuild counts);
//! * [`SEC_DRIFT`] — the CDF drift sketch, so recovery resumes rebuild
//!   decisions exactly where the crash interrupted them;
//! * the live set, **once** — [`SEC_INDEX`], the built index state captured
//!   by an [`IndexCodec`] (recovery decodes it and skips model training),
//!   or, when the codec declines, [`SEC_POINTS`]: the index's
//!   [`SpatialIndex::live_points`], which recovery feeds to the rebuild
//!   callback — the same deterministic path as [`UpdateProcessor::rebuild`].
//!
//! [`encode_updates`] is the payload of one journal record: the updates
//! of one write call, in arrival order. The journal itself belongs to the
//! deployment that owns the processors (`elsi-serve`), which appends one
//! record per write call and replays it through
//! [`UpdateProcessor::apply_batch`] after restoring the snapshots.

use crate::rebuild::RebuildPolicy;
use crate::update::{
    DeltaOverlay, DriftTracker, LifecycleCounters, RebuildFn, Update, UpdateProcessor,
};
use elsi_indices::persist::{decode_points, encode_points};
use elsi_indices::SpatialIndex;
use elsi_spatial::Point;
use elsi_store::{ByteReader, ByteWriter, IndexCodec, Snapshot, SnapshotWriter, StoreError};

/// Snapshot section tag: lifecycle counters.
pub const SEC_META: u32 = u32::from_le_bytes(*b"META");
/// Snapshot section tag: the drift sketch.
pub const SEC_DRIFT: u32 = u32::from_le_bytes(*b"DRFT");
/// Snapshot section tag: the live point set, when there is no [`SEC_INDEX`].
pub const SEC_POINTS: u32 = u32::from_le_bytes(*b"PNTS");
/// Snapshot section tag: the encoded index blob (when the codec has one).
pub const SEC_INDEX: u32 = u32::from_le_bytes(*b"INDX");

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;
/// Encoded size of one update op: tag + id + x + y.
const OP_SIZE: usize = 1 + 8 + 8 + 8;

/// Serialises one update batch as a journal record payload.
pub fn encode_updates(updates: &[Update]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(updates.len());
    for u in updates {
        let (tag, p) = match u {
            Update::Insert(p) => (OP_INSERT, p),
            Update::Delete(p) => (OP_DELETE, p),
        };
        w.put_u8(tag);
        w.put_u64(p.id);
        w.put_f64(p.x);
        w.put_f64(p.y);
    }
    w.into_vec()
}

/// Decodes a journal record payload back into its update batch. Never panics
/// on damaged input.
pub fn decode_updates(bytes: &[u8]) -> Result<Vec<Update>, StoreError> {
    let mut r = ByteReader::new(bytes, "update batch");
    let n = r.get_len(OP_SIZE)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.get_u8()?;
        let p = Point::new(r.get_u64()?, r.get_f64()?, r.get_f64()?);
        out.push(match tag {
            OP_INSERT => Update::Insert(p),
            OP_DELETE => Update::Delete(p),
            other => {
                return Err(StoreError::corrupt(
                    "update batch",
                    format!("unknown op tag {other}"),
                ))
            }
        });
    }
    r.expect_end()?;
    Ok(out)
}

fn encode_meta(c: &LifecycleCounters) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(c.n_at_build);
    w.put_usize(c.updates_since_check);
    w.put_usize(c.updates_since_build);
    w.put_usize(c.f_u);
    w.put_usize(c.rebuilds);
    w.into_vec()
}

fn decode_meta(bytes: &[u8]) -> Result<LifecycleCounters, StoreError> {
    let mut r = ByteReader::new(bytes, "processor meta");
    let c = LifecycleCounters {
        n_at_build: r.get_usize()?,
        updates_since_check: r.get_usize()?,
        updates_since_build: r.get_usize()?,
        f_u: r.get_usize()?,
        rebuilds: r.get_usize()?,
    };
    r.expect_end()?;
    Ok(c)
}

fn encode_drift(d: &DriftTracker) -> Vec<u8> {
    let (base, current, base_total, current_total) = d.parts();
    let mut w = ByteWriter::new();
    w.put_f64s(base);
    w.put_f64s(current);
    w.put_f64(base_total);
    w.put_f64(current_total);
    w.into_vec()
}

fn decode_drift(bytes: &[u8]) -> Result<DriftTracker, StoreError> {
    let mut r = ByteReader::new(bytes, "drift sketch");
    let base = r.get_f64s()?;
    let current = r.get_f64s()?;
    let base_total = r.get_f64()?;
    let current_total = r.get_f64()?;
    r.expect_end()?;
    DriftTracker::from_parts(base, current, base_total, current_total)
        .ok_or_else(|| StoreError::corrupt("drift sketch", "empty or mismatched histograms"))
}

/// [`IndexCodec`] for a [`DeltaOverlay`], layered over a codec for its
/// base index: the base blob plus the delta (delta points, tombstones).
/// Everything else is re-derived on decode from those two.
///
/// With this, an `UpdateProcessor<DeltaOverlay<ZmIndex>>` snapshot
/// restores the *exact* pre-crash state — base models untrained-for,
/// pending deltas intact — which is what makes sharded recovery faster
/// than a cold build.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayCodec<C> {
    inner: C,
}

impl<C> OverlayCodec<C> {
    /// Wraps a codec for the overlay's base index.
    pub fn new(inner: C) -> Self {
        Self { inner }
    }
}

impl<I, C> IndexCodec<DeltaOverlay<I>> for OverlayCodec<C>
where
    I: SpatialIndex,
    C: IndexCodec<I>,
{
    fn encode(&self, overlay: &DeltaOverlay<I>) -> Option<Vec<u8>> {
        let base = self.inner.encode(overlay.base())?;
        let mut w = ByteWriter::new();
        w.put_bytes(&base);
        let inserted: Vec<Point> = overlay.inserted_points().copied().collect();
        encode_points(&mut w, &inserted);
        // Sorted: the hashed set's order must not reach the bytes.
        let mut deleted: Vec<u64> = overlay.deleted_ids().iter().copied().collect();
        deleted.sort_unstable();
        w.put_u64s(&deleted);
        Some(w.into_vec())
    }

    fn decode(&self, bytes: &[u8]) -> Result<DeltaOverlay<I>, StoreError> {
        let mut r = ByteReader::new(bytes, "overlay state");
        let base = self.inner.decode(r.get_bytes()?)?;
        let inserted = decode_points(&mut r)?;
        let deleted = r.get_u64s()?;
        r.expect_end()?;
        DeltaOverlay::from_restored(base, inserted, deleted).ok_or_else(|| {
            StoreError::corrupt("overlay state", "delta parts violate overlay invariants")
        })
    }
}

impl<I: SpatialIndex> UpdateProcessor<I> {
    /// Assembles this processor's snapshot image; `write_file` on it
    /// saves it durably, and crash tests stream it through a
    /// fault-injecting writer.
    pub fn snapshot_writer<C: IndexCodec<I>>(&self, codec: &C) -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.add_section(SEC_META, encode_meta(self.persist_counters()));
        w.add_section(SEC_DRIFT, encode_drift(self.drift_tracker()));
        match codec.encode(self.index()) {
            Some(blob) => w.add_section(SEC_INDEX, blob),
            None => {
                let mut pw = ByteWriter::new();
                encode_points(&mut pw, &self.index().live_points());
                w.add_section(SEC_POINTS, pw.into_vec());
            }
        }
        w
    }

    /// Restores a processor from a verified snapshot. The index comes
    /// from the encoded blob when one is present (fast path — no
    /// training), else from `rebuild_fn` over the points section (the
    /// deterministic rebuild path).
    pub fn from_snapshot<C: IndexCodec<I>>(
        snap: &Snapshot,
        rebuild_fn: RebuildFn<I>,
        policy: RebuildPolicy,
        codec: &C,
    ) -> Result<Self, StoreError> {
        let section = |tag, what: &str| {
            let missing = || StoreError::corrupt("snapshot", format!("missing {what} section"));
            snap.section(tag).ok_or_else(missing)
        };
        let counters = decode_meta(section(SEC_META, "meta")?)?;
        let drift = decode_drift(section(SEC_DRIFT, "drift")?)?;
        let index = match snap.section(SEC_INDEX) {
            Some(blob) => codec.decode(blob)?,
            None => {
                let mut r = ByteReader::new(section(SEC_POINTS, "index or points")?, "live points");
                let points = decode_points(&mut r)?;
                r.expect_end()?;
                // Canonical order over ids that a deployment holds once
                // each: a repeated id was not written by a processor.
                if !points.is_sorted_by(|a, b| a.id < b.id) {
                    return Err(StoreError::corrupt(
                        "live points",
                        "ids not strictly increasing",
                    ));
                }
                rebuild_fn(points)
            }
        };
        Ok(Self::restore(index, rebuild_fn, policy, drift, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::uniform;
    use elsi_indices::{
        GridConfig, GridIndex, PwlBuilder, SpatialIndex, ZmConfig, ZmIndex, ZmStateCodec,
    };
    use elsi_spatial::Rect;
    use elsi_store::NoCodec;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("elsi_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn grid_rebuild() -> RebuildFn<GridIndex> {
        Box::new(|pts| GridIndex::build(pts, &GridConfig { block_size: 20 }))
    }

    fn zm_overlay_rebuild() -> RebuildFn<DeltaOverlay<ZmIndex>> {
        Box::new(|pts| {
            DeltaOverlay::new(ZmIndex::build(
                pts,
                &ZmConfig { fanout: 4 },
                &PwlBuilder { epsilon: 8 },
            ))
        })
    }

    /// Query fingerprint that is robust to result *order* (the rebuild
    /// recovery path may lay blocks out differently than a processor that
    /// grew by in-place inserts): canonically sorted window results plus
    /// kNN (already canonical).
    fn fingerprint<I: SpatialIndex>(index: &I) -> (Vec<u64>, Vec<u64>) {
        let mut window: Vec<u64> = index
            .window_query(&Rect::new(0.2, 0.2, 0.7, 0.7))
            .iter()
            .map(|p| p.id)
            .collect();
        window.sort_unstable();
        let knn: Vec<u64> = index
            .knn_query(Point::at(0.4, 0.6), 12)
            .iter()
            .map(|p| p.id)
            .collect();
        (window, knn)
    }

    fn assert_processors_match<I: SpatialIndex>(a: &UpdateProcessor<I>, b: &UpdateProcessor<I>) {
        assert_eq!(a.live_len(), b.live_len());
        assert_eq!(a.n_at_build(), b.n_at_build());
        assert_eq!(a.pending_updates(), b.pending_updates());
        assert_eq!(a.rebuilds(), b.rebuilds());
        assert_eq!(a.live_points(), b.live_points());
        let (fa, fb) = (a.features(), b.features());
        assert_eq!(fa.dist_u.to_bits(), fb.dist_u.to_bits());
        assert_eq!(fa.drift_sim.to_bits(), fb.drift_sim.to_bits());
        assert_eq!(fingerprint(a.index()), fingerprint(b.index()));
    }

    #[test]
    fn update_batches_round_trip_and_reject_damage() {
        let ops = vec![
            Update::Insert(Point::new(u64::MAX, -0.0, 0.25)),
            Update::Delete(Point::new(7, 0.5, 0.5)),
            Update::Insert(Point::new(0, 1.0, 0.0)),
        ];
        let bytes = encode_updates(&ops);
        assert_eq!(decode_updates(&bytes).unwrap(), ops);
        assert_eq!(decode_updates(&encode_updates(&[])).unwrap(), vec![]);
        for cut in 0..bytes.len() {
            assert!(decode_updates(&bytes[..cut]).is_err(), "cut {cut} decoded");
        }
        // An unknown op tag is corrupt, not a guess. Ops start after the
        // 8-byte count; the tag is the first byte of each op.
        let mut bad = bytes.clone();
        bad[8] = 9;
        assert!(matches!(
            decode_updates(&bad),
            Err(StoreError::Corrupt { .. })
        ));
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_updates(&long).is_err());
    }

    #[test]
    fn snapshot_round_trips_by_rebuild_with_no_codec() {
        let mut proc =
            UpdateProcessor::new(uniform(400, 11), grid_rebuild(), RebuildPolicy::Never, 16);
        for i in 0..60u64 {
            proc.insert(Point::new(50_000 + i, 0.3 + (i as f64) * 0.005, 0.4));
        }
        let victims = uniform(400, 11);
        for p in victims.iter().take(25) {
            proc.delete(*p);
        }
        let path = tmp("grid.snap");
        proc.snapshot_writer(&NoCodec).write_file(&path).unwrap();
        // The codec declined, so the points section is the live set.
        let sections = Snapshot::read_file(&path).map(|snap| {
            (
                snap.section(SEC_POINTS).is_some(),
                snap.section(SEC_INDEX).is_some(),
            )
        });
        assert!(matches!(sections, Ok((true, false))));
        let opened = Snapshot::read_file(&path)
            .and_then(|snap| {
                let never = RebuildPolicy::Never;
                UpdateProcessor::from_snapshot(&snap, grid_rebuild(), never, &NoCodec)
            })
            .unwrap();
        assert_processors_match(&proc, &opened);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlay_codec_restores_exact_delta_state() {
        let mut proc = UpdateProcessor::new(
            uniform(500, 21),
            zm_overlay_rebuild(),
            RebuildPolicy::Never,
            1000,
        );
        for i in 0..40u64 {
            proc.insert(Point::new(80_000 + i, 0.1 + (i as f64) * 0.01, 0.9));
        }
        for p in uniform(500, 21).iter().take(15) {
            proc.delete(*p);
        }
        let codec = OverlayCodec::new(ZmStateCodec);
        let snap_bytes = proc.snapshot_writer(&codec).to_bytes();
        let snap = Snapshot::from_bytes(&snap_bytes, &PathBuf::from("mem")).unwrap();
        assert!(snap.section(SEC_INDEX).is_some(), "fast path not taken");
        assert!(snap.section(SEC_POINTS).is_none(), "points stored twice");
        let opened = UpdateProcessor::from_snapshot(
            &snap,
            zm_overlay_rebuild(),
            RebuildPolicy::Never,
            &codec,
        )
        .unwrap();
        assert_processors_match(&proc, &opened);
        // Exact state: the delta maps survive, not just the merged view,
        // and even *unsorted* window results align bit-for-bit.
        assert_eq!(proc.index().delta_len(), opened.index().delta_len());
        let w = Rect::new(0.0, 0.85, 1.0, 1.0);
        assert_eq!(
            proc.index().window_query(&w),
            opened.index().window_query(&w)
        );
    }

    #[test]
    fn overlay_blob_whose_base_repeats_an_id_is_corrupt() {
        // Only a bare base can repeat an id (the serving doors keep the last
        // copy), so an overlay blob that does was not written by a deployment.
        let codec = OverlayCodec::new(ZmStateCodec);
        let blob = |points: Vec<Point>| {
            let base = ZmIndex::build(points, &ZmConfig { fanout: 4 }, &PwlBuilder { epsilon: 8 });
            codec.encode(&DeltaOverlay::new(base)).unwrap_or_default()
        };
        let mut points = uniform(200, 31);
        assert!(codec.decode(&blob(points.clone())).is_ok());
        points[150].id = points[40].id;
        assert!(matches!(
            codec.decode(&blob(points)),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn damaged_snapshot_sections_are_clean_errors() {
        let proc = UpdateProcessor::new(uniform(80, 61), grid_rebuild(), RebuildPolicy::Never, 4);
        let image = proc.snapshot_writer(&NoCodec).to_bytes();
        // A snapshot missing its points section is corrupt, not a panic.
        let mut only_meta = SnapshotWriter::new();
        only_meta.add_section(SEC_META, encode_meta(proc.persist_counters()));
        let snap = Snapshot::from_bytes(&only_meta.to_bytes(), &PathBuf::from("mem")).unwrap();
        assert!(matches!(
            UpdateProcessor::from_snapshot(&snap, grid_rebuild(), RebuildPolicy::Never, &NoCodec),
            Err(StoreError::Corrupt { .. })
        ));
        // So is one that carries the live set in neither form.
        let mut no_live_set = SnapshotWriter::new();
        no_live_set.add_section(SEC_META, encode_meta(proc.persist_counters()));
        no_live_set.add_section(SEC_DRIFT, encode_drift(proc.drift_tracker()));
        let opened =
            Snapshot::from_bytes(&no_live_set.to_bytes(), &PathBuf::from("mem")).and_then(|snap| {
                let never = RebuildPolicy::Never;
                UpdateProcessor::from_snapshot(&snap, grid_rebuild(), never, &NoCodec)
            });
        assert!(matches!(
            opened.map(|p| p.len()),
            Err(StoreError::Corrupt { .. })
        ));
        // Any truncation of the full image fails to parse at all.
        for cut in [0, 10, image.len() / 2, image.len() - 1] {
            assert!(Snapshot::from_bytes(&image[..cut], &PathBuf::from("mem")).is_err());
        }
    }

    #[test]
    fn points_section_that_repeats_an_id_is_corrupt() {
        let proc = UpdateProcessor::new(uniform(80, 61), grid_rebuild(), RebuildPolicy::Never, 4);
        let open = |points: &[Point]| {
            let mut pw = ByteWriter::new();
            encode_points(&mut pw, points);
            let mut w = SnapshotWriter::new();
            w.add_section(SEC_META, encode_meta(proc.persist_counters()));
            w.add_section(SEC_DRIFT, encode_drift(proc.drift_tracker()));
            w.add_section(SEC_POINTS, pw.into_vec());
            Snapshot::from_bytes(&w.to_bytes(), &PathBuf::from("mem")).and_then(|snap| {
                let never = RebuildPolicy::Never;
                UpdateProcessor::from_snapshot(&snap, grid_rebuild(), never, &NoCodec)
            })
        };
        let mut points = proc.index().live_points();
        points.sort_unstable_by_key(|p| p.id);
        assert_eq!(open(&points).map(|p| p.len()).ok(), Some(80));
        // Two copies of one id, still in canonical (id, x, y) order.
        let twin = Point::new(points[30].id, points[30].x + 0.5, points[30].y);
        points.insert(31, twin);
        assert!(matches!(
            open(&points).map(|p| p.len()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn drift_and_meta_sections_reject_damage() {
        let proc = UpdateProcessor::new(uniform(60, 71), grid_rebuild(), RebuildPolicy::Never, 4);
        let meta = encode_meta(proc.persist_counters());
        for cut in 0..meta.len() {
            assert!(decode_meta(&meta[..cut]).is_err());
        }
        let drift = encode_drift(proc.drift_tracker());
        for cut in 0..drift.len() {
            assert!(decode_drift(&drift[..cut]).is_err());
        }
        // Empty histograms would break the binning arithmetic downstream.
        let mut w = ByteWriter::new();
        w.put_f64s(&[]);
        w.put_f64s(&[]);
        w.put_f64(0.0);
        w.put_f64(0.0);
        assert!(matches!(
            decode_drift(&w.into_vec()),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
