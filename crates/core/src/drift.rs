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
