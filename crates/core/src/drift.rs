//! The bounded-size CDF drift sketch of the update processor (§IV-B2):
//! `sim(D', D)` between the data at the last (re)build and the data now.

/// Bounded-size CDF drift tracker: counts per key bin at the last build vs
/// now; `dist()` is the sup-distance between the two cumulative histograms.
#[derive(Debug, Clone)]
pub struct DriftTracker {
    base: Vec<f64>,
    current: Vec<f64>,
    base_total: f64,
    current_total: f64,
}

impl DriftTracker {
    /// Starts tracking from the mapped keys of the data at build time.
    pub fn new(keys: impl IntoIterator<Item = f64>, bins: usize) -> Self {
        let bins = bins.max(1);
        let mut base = vec![0.0; bins];
        let mut total = 0.0;
        for k in keys {
            if let Some(bin) = base.get_mut(Self::bin_of(k, bins)) {
                *bin += 1.0;
            }
            total += 1.0;
        }
        Self {
            current: base.clone(),
            base,
            base_total: total,
            current_total: total,
        }
    }

    #[inline]
    fn bin_of(k: f64, bins: usize) -> usize {
        ((k.clamp(0.0, 1.0) * bins as f64) as usize).min(bins - 1)
    }

    /// Records an insertion.
    pub fn add(&mut self, key: f64) {
        let b = Self::bin_of(key, self.current.len());
        if let Some(bin) = self.current.get_mut(b) {
            *bin += 1.0;
            self.current_total += 1.0;
        }
    }

    /// Records a deletion.
    pub fn remove(&mut self, key: f64) {
        let b = Self::bin_of(key, self.current.len());
        if let Some(bin) = self.current.get_mut(b) {
            if *bin > 0.0 {
                *bin -= 1.0;
                self.current_total -= 1.0;
            }
        }
    }

    /// `dist(D', D)`: sup-distance between the current and at-build CDFs.
    pub fn dist(&self) -> f64 {
        if self.base_total == 0.0 || self.current_total == 0.0 {
            return if self.base_total == self.current_total {
                0.0
            } else {
                1.0
            };
        }
        let mut acc_b = 0.0;
        let mut acc_c = 0.0;
        let mut worst = 0.0f64;
        for (b, c) in self.base.iter().zip(&self.current) {
            acc_b += b / self.base_total;
            acc_c += c / self.current_total;
            worst = worst.max((acc_b - acc_c).abs());
        }
        worst
    }

    /// `dist(D_U, D')`: sup-distance of the current CDF from uniform.
    pub fn dist_from_uniform(&self) -> f64 {
        if self.current_total == 0.0 {
            return 1.0;
        }
        let bins = self.current.len() as f64;
        let mut acc = 0.0;
        let mut worst = 0.0f64;
        for (i, c) in self.current.iter().enumerate() {
            acc += c / self.current_total;
            worst = worst.max((acc - (i as f64 + 1.0) / bins).abs());
        }
        worst
    }

    /// Re-baselines the tracker after a rebuild.
    pub fn rebaseline(&mut self) {
        self.base = self.current.clone();
        self.base_total = self.current_total;
    }

    /// The sketch's raw state, for the snapshot writer:
    /// `(base bins, current bins, base total, current total)`.
    pub fn parts(&self) -> (&[f64], &[f64], f64, f64) {
        (
            &self.base,
            &self.current,
            self.base_total,
            self.current_total,
        )
    }

    /// Rebuilds a tracker from persisted [`DriftTracker::parts`].
    ///
    /// Returns `None` when the histograms are empty or their lengths
    /// disagree — both break the binning arithmetic, so a corrupted
    /// snapshot must not get this far.
    pub fn from_parts(
        base: Vec<f64>,
        current: Vec<f64>,
        base_total: f64,
        current_total: f64,
    ) -> Option<Self> {
        if base.is_empty() || base.len() != current.len() {
            return None;
        }
        Some(Self {
            base,
            current,
            base_total,
            current_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaOverlay, RebuildFn, RebuildPolicy, Update, UpdateProcessor};
    use elsi_data::cdf::DEFAULT_SKETCH_BINS;
    use elsi_data::gen::uniform;
    use elsi_indices::{GridConfig, GridIndex, SpatialIndex};
    use elsi_spatial::{KeyMapper, MortonMapper, Point};

    #[test]
    fn drift_tracker_detects_skewed_inserts() {
        let keys: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let mut t = DriftTracker::new(keys.iter().copied(), 256);
        assert!(t.dist() < 1e-9, "no drift initially");
        // Insert a mass of keys at 0.05: the CDF shifts left.
        for _ in 0..500 {
            t.add(0.05);
        }
        assert!(t.dist() > 0.2, "drift {}", t.dist());
        t.rebaseline();
        assert!(t.dist() < 1e-9, "rebaselined");
    }

    #[test]
    fn drift_tracker_uniform_distance() {
        let uniform_keys: Vec<f64> = (0..4096).map(|i| (i as f64 + 0.5) / 4096.0).collect();
        let t = DriftTracker::new(uniform_keys.iter().copied(), 512);
        assert!(t.dist_from_uniform() < 0.01);
        let point_mass = DriftTracker::new(std::iter::repeat_n(0.3, 100), 512);
        assert!(point_mass.dist_from_uniform() > 0.5);
    }

    #[test]
    fn drift_sketch_follows_the_live_set() {
        // Regression: an insert of a live id (an overwrite / move) added the
        // new key without removing the old copy's, and a delete of a delta
        // copy — id-only, so its coordinates may be stale — removed the key
        // of the *request's* coordinates instead of the stored point's.
        let pts = uniform(200, 24);
        let rebuild: RebuildFn<DeltaOverlay<GridIndex>> = Box::new(|pts| {
            DeltaOverlay::new(GridIndex::build(pts, &GridConfig { block_size: 20 }))
        });
        let mut proc = UpdateProcessor::new(pts.clone(), rebuild, RebuildPolicy::Never, 16);
        let far = |p: Point| Point::new(p.id, 1.0 - p.x, 1.0 - p.y);
        let mut stream: Vec<Update> = Vec::new();
        for (i, &p) in pts.iter().enumerate().take(120) {
            let fresh = Point::new(10_000 + p.id, p.y, p.x);
            match i % 4 {
                // Move a base point, then move it again.
                0 => stream.extend([
                    Update::Insert(far(p)),
                    Update::Insert(Point::new(p.id, p.y, p.x)),
                ]),
                // A fresh id, overwritten in the same stream.
                1 => stream.extend([Update::Insert(fresh), Update::Insert(far(fresh))]),
                // A moved base point deleted by id, at its stale coordinates.
                2 => stream.extend([Update::Insert(far(p)), Update::Delete(p)]),
                // A fresh id deleted at coordinates it never had; an exact
                // base delete; a no-op delete.
                _ => stream.extend([
                    Update::Insert(fresh),
                    Update::Delete(far(fresh)),
                    Update::Delete(p),
                    Update::Delete(p),
                ]),
            }
        }
        // Half through the batch door, half one call at a time.
        let (batched, per_op) = stream.split_at(stream.len() / 2);
        for chunk in batched.chunks(7) {
            proc.apply_batch(chunk);
        }
        for &u in per_op {
            match u {
                Update::Insert(p) => proc.insert(p),
                Update::Delete(p) => proc.delete(p),
            };
        }
        assert_eq!(proc.live_len(), proc.len());
        let fresh_sketch = DriftTracker::new(
            proc.live_points().iter().map(|p| MortonMapper.key(*p)),
            DEFAULT_SKETCH_BINS.min(1024),
        );
        let (_, current, _, current_total) = proc.drift_tracker().parts();
        assert_eq!(current_total, proc.live_len() as f64);
        assert_eq!(current, fresh_sketch.parts().1);
    }
}
