//! Seeded inputs: data sets, query sets and the update stream.
//!
//! Everything a run feeds the product is generated here, by a generator the
//! harness owns, so the inputs stay the same when the product's own
//! generators (`elsi_data::gen`) or the vendored `rand` change.
//!
//! A workload's *data set* is part of the workload, like a benchmark
//! database at a fixed scale factor: the same points on every run, so the
//! same index is built and a learned model's luck with one sample is not
//! mistaken for a change in the code. `--seed` draws the *operations* —
//! which points are looked up, where windows and kNN queries fall, what the
//! update stream writes and deletes. The reads are a sample spread evenly
//! over the data ([`spread_sample`]), the writes plain random draws.
//! Coordinates are drawn continuously and never clamped: no two points
//! share coordinates, so every point lookup has exactly one right answer.

use elsi_data::stream::Update;
use elsi_spatial::curve::morton_of;
use elsi_spatial::{Point, Rect};
use std::collections::VecDeque;

/// SplitMix64: small, seedable, good enough for workload sampling.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn seeded(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`; the modulo bias is far below anything a
    /// workload sample can see).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// The three data distributions the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// OSM1-like: 48 Zipf-weighted Gaussian clusters over 15 % background.
    Clustered,
    /// The paper's Skewed: `x` uniform, `y = u⁴`.
    Skewed,
    /// Uniform on the unit square.
    Uniform,
}

impl Dataset {
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Clustered => "OSM1-like",
            Dataset::Skewed => "Skewed",
            Dataset::Uniform => "Uniform",
        }
    }

    /// The data set at `n` points, ids `0..n`: the same points every time.
    pub fn points(self, n: usize) -> Vec<Point> {
        let mut rng = SplitMix::seeded(0xDA7A_5E70);
        match self {
            Dataset::Uniform => (0..n)
                .map(|i| Point::new(i as u64, rng.unit(), rng.unit()))
                .collect(),
            Dataset::Skewed => (0..n)
                .map(|i| Point::new(i as u64, rng.unit(), rng.unit().powi(4)))
                .collect(),
            Dataset::Clustered => clustered(n, &mut rng),
        }
    }
}

struct Cluster {
    cx: f64,
    cy: f64,
    sd: f64,
    /// Upper edge of this cluster's slice of the cumulative weight.
    cum: f64,
}

/// The fixed cluster layout: drawn from a constant, not from the run seed.
fn cluster_layout() -> Vec<Cluster> {
    let mut rng = SplitMix::seeded(0x05A1_C1A5);
    let mut cum = 0.0;
    (0..48)
        .map(|k| {
            cum += 1.0 / (k as f64 + 1.0).powf(0.9);
            Cluster {
                cx: 0.08 + 0.84 * rng.unit(),
                cy: 0.08 + 0.84 * rng.unit(),
                sd: 0.004 + 0.056 * rng.unit(),
                cum,
            }
        })
        .collect()
}

fn clustered(n: usize, rng: &mut SplitMix) -> Vec<Point> {
    let layout = cluster_layout();
    let total = layout.last().map_or(1.0, |c| c.cum);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = out.len() as u64;
        if rng.unit() < 0.15 {
            out.push(Point::new(id, rng.unit(), rng.unit()));
            continue;
        }
        let pick = rng.unit() * total;
        let c = layout
            .iter()
            .find(|c| pick < c.cum)
            .or(layout.last())
            .map_or((0.5, 0.5, 0.05), |c| (c.cx, c.cy, c.sd));
        // Box–Muller; a draw that leaves the unit square is redrawn, not
        // clamped (clamping would pile duplicates onto the border).
        let r = (-2.0 * rng.unit().max(1e-300).ln()).sqrt();
        let t = std::f64::consts::TAU * rng.unit();
        let (x, y) = (c.0 + c.2 * r * t.cos(), c.1 + c.2 * r * t.sin());
        if (0.0..1.0).contains(&x) && (0.0..1.0).contains(&y) {
            out.push(Point::new(id, x, y));
        }
    }
    out
}

/// `count` stored points, drawn with replacement: the point-lookup keys.
pub fn lookup_keys(data: &[Point], count: usize, rng: &mut SplitMix) -> Vec<Point> {
    (0..count)
        .filter_map(|_| data.get(rng.below(data.len())).copied())
        .collect()
}

/// The data set along the Z-order curve: what [`spread_sample`] draws from.
pub fn z_ordered(data: &[Point]) -> Vec<Point> {
    let mut out = data.to_vec();
    out.sort_by_key(|p| morton_of(p.x, p.y));
    out
}

/// `count` stored points spread evenly along the Z-order — every
/// `len / count`-th point from an offset the seed picks — in an order the
/// seed shuffles. Every seed's sample covers every region in proportion to
/// its density, so a latency median differs between seeds by the host's
/// noise and not by which neighbourhoods a seed happened to query.
pub fn spread_sample(by_z: &[Point], count: usize, rng: &mut SplitMix) -> Vec<Point> {
    let stride = by_z.len() as f64 / count.max(1) as f64;
    let offset = rng.unit() * stride;
    let mut out: Vec<Point> = (0..count)
        .filter_map(|i| by_z.get((offset + i as f64 * stride) as usize))
        .copied()
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Square windows covering `area` of the space around `centres`.
pub fn windows_around(centres: &[Point], area: f64) -> Vec<Rect> {
    centres
        .iter()
        .map(|c| Rect::window_around(*c, area))
        .collect()
}

/// `count` data-following square windows covering `area` of the space.
pub fn windows_over(data: &[Point], count: usize, area: f64, rng: &mut SplitMix) -> Vec<Rect> {
    windows_around(&lookup_keys(data, count, rng), area)
}

/// kNN query points: the stored points `near`, nudged by up to 5e-4 per
/// axis.
pub fn nudged_off(near: &[Point], rng: &mut SplitMix) -> Vec<Point> {
    near.iter()
        .map(|p| {
            Point::at(
                (p.x + (rng.unit() - 0.5) * 1e-3).clamp(0.0, 1.0),
                (p.y + (rng.unit() - 0.5) * 1e-3).clamp(0.0, 1.0),
            )
        })
        .collect()
}

/// `count` kNN query points beside randomly drawn stored points.
pub fn knn_centres(data: &[Point], count: usize, rng: &mut SplitMix) -> Vec<Point> {
    nudged_off(&lookup_keys(data, count, rng), rng)
}

/// Updates per batch.
pub const BATCH_UPDATES: usize = 1024;
/// Deletes per batch (30 %); the rest are inserts.
const BATCH_DELETES: usize = BATCH_UPDATES * 3 / 10;
/// Freshly inserted points stay undeletable for this many batches, so the
/// read-your-writes lookups after each batch always have a right answer.
const RECENT_BATCHES: usize = 8;
/// Ids of inserted points start here, far above any data-set id.
const INSERT_ID_BASE: u64 = 1 << 40;
/// Half-side of the hotspot square.
const HOTSPOT_RADIUS: f64 = 0.04;

/// Where a stream's inserts land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writes {
    /// Uniform in a small square that travels the diagonal from (0.1, 0.1)
    /// to (0.74, 0.74) over the stream's planned batches (and on at the
    /// same pace if more are drawn): the shards under it drift from the
    /// distribution they were built on, and rebuild.
    MovingHotspot,
    /// Within 1e-3 of a live point: the data keeps its distribution, so no
    /// shard drifts and none rebuilds.
    FollowingData,
}

/// The update stream and, at the same time, the oracle's model of the
/// deployment: after every [`UpdateStream::next_batch`] the live set is
/// `settled ∪ recent`.
pub struct UpdateStream {
    rng: SplitMix,
    /// Deletable live points (the data set, then inserts older than
    /// [`RECENT_BATCHES`]).
    settled: Vec<Point>,
    recent: VecDeque<Vec<Point>>,
    writes: Writes,
    total_batches: usize,
    issued: usize,
    next_id: u64,
}

/// `v + d`, or `v - d` where the sum would leave the unit interval.
fn nudged(v: f64, d: f64) -> f64 {
    if (0.0..1.0).contains(&(v + d)) {
        v + d
    } else {
        v - d
    }
}

impl UpdateStream {
    pub fn over(data: &[Point], writes: Writes, total_batches: usize, seed: u64) -> Self {
        Self {
            writes,
            rng: SplitMix::seeded(seed ^ 0x5712_EA11),
            settled: data.to_vec(),
            recent: VecDeque::new(),
            total_batches: total_batches.max(1),
            issued: 0,
            next_id: INSERT_ID_BASE,
        }
    }

    pub fn total_batches(&self) -> usize {
        self.total_batches
    }

    /// Coordinates of the next insert.
    fn next_write(&mut self) -> (f64, f64) {
        let (u, v) = (self.rng.unit() * 2.0 - 1.0, self.rng.unit() * 2.0 - 1.0);
        match self.writes {
            Writes::MovingHotspot => {
                let c = 0.1 + 0.64 * self.issued as f64 / self.total_batches as f64;
                (c + u * HOTSPOT_RADIUS, c + v * HOTSPOT_RADIUS)
            }
            Writes::FollowingData => {
                let near = self
                    .settled
                    .get(self.rng.below(self.settled.len()))
                    .map_or((0.5, 0.5), |p| (p.x, p.y));
                (nudged(near.0, u * 1e-3), nudged(near.1, v * 1e-3))
            }
        }
    }

    /// The next batch: 70 % inserts, 30 % deletes of settled live points,
    /// interleaved. The model is updated as if the batch had been applied.
    pub fn next_batch(&mut self) -> Vec<Update> {
        let mut fresh = Vec::with_capacity(BATCH_UPDATES - BATCH_DELETES);
        let mut batch = Vec::with_capacity(BATCH_UPDATES);
        for i in 0..BATCH_UPDATES {
            let delete = i % 10 >= 7 && !self.settled.is_empty();
            if delete {
                let victim = self.settled.swap_remove(self.rng.below(self.settled.len()));
                batch.push(Update::Delete(victim));
            } else {
                let (x, y) = self.next_write();
                let p = Point::new(self.next_id, x, y);
                self.next_id += 1;
                fresh.push(p);
                batch.push(Update::Insert(p));
            }
        }
        self.recent.push_back(fresh);
        if self.recent.len() > RECENT_BATCHES {
            if let Some(aged) = self.recent.pop_front() {
                self.settled.extend(aged);
            }
        }
        self.issued += 1;
        batch
    }

    /// `count` points written in the last [`RECENT_BATCHES`] batches.
    pub fn recent_writes(&mut self, count: usize) -> Vec<Point> {
        let pool: Vec<Point> = self.recent.iter().flatten().copied().collect();
        lookup_keys(&pool, count, &mut self.rng)
    }

    /// Every live point, in no particular order.
    pub fn live_iter(&self) -> impl Iterator<Item = &Point> {
        self.settled.iter().chain(self.recent.iter().flatten())
    }

    pub fn live_len(&self) -> usize {
        self.settled.len() + self.recent.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_sets_are_fixed_and_ops_follow_the_seed() {
        for ds in [Dataset::Clustered, Dataset::Skewed, Dataset::Uniform] {
            let a = ds.points(500);
            assert_eq!(a, ds.points(500));
            let keys = |seed| lookup_keys(&a, 50, &mut SplitMix::seeded(seed));
            assert_eq!(keys(9), keys(9));
            assert_ne!(keys(9), keys(10));
            assert!(a
                .iter()
                .all(|p| (0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y)));
            assert!(a.iter().enumerate().all(|(i, p)| p.id == i as u64));
        }
    }

    #[test]
    fn spread_samples_cover_the_curve_evenly_for_every_seed() {
        let by_z = z_ordered(&Dataset::Clustered.points(1000));
        assert!(by_z
            .windows(2)
            .all(|p| morton_of(p[0].x, p[0].y) <= morton_of(p[1].x, p[1].y)));
        let rank_of = |p: &Point| by_z.iter().position(|q| q.id == p.id);
        for seed in [1, 2, 3] {
            let sample = spread_sample(&by_z, 100, &mut SplitMix::seeded(seed));
            let mut ranks: Vec<usize> = sample.iter().filter_map(rank_of).collect();
            assert_ne!(ranks, sorted_copy(&ranks), "the order is shuffled");
            ranks.sort_unstable();
            // One point out of every ten consecutive ones on the curve.
            let strata: Vec<usize> = ranks.iter().map(|r| r / 10).collect();
            assert_eq!(strata, (0..100).collect::<Vec<_>>());
        }
        let draw = |seed| spread_sample(&by_z, 100, &mut SplitMix::seeded(seed));
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
        assert_eq!(spread_sample(&by_z, 0, &mut SplitMix::seeded(1)), []);
        assert_eq!(spread_sample(&[], 5, &mut SplitMix::seeded(1)), []);
    }

    fn sorted_copy(xs: &[usize]) -> Vec<usize> {
        let mut out = xs.to_vec();
        out.sort_unstable();
        out
    }

    #[test]
    fn stream_keeps_its_model_consistent() {
        for writes in [Writes::MovingHotspot, Writes::FollowingData] {
            stream_model_holds(writes);
        }
    }

    fn stream_model_holds(writes: Writes) {
        let data = Dataset::Uniform.points(4000);
        let mut s = UpdateStream::over(&data, writes, 12, 3);
        let mut live: std::collections::BTreeMap<u64, Point> =
            data.iter().map(|p| (p.id, *p)).collect();
        for _ in 0..12 {
            for u in s.next_batch() {
                match u {
                    Update::Insert(p) => {
                        assert!((0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y));
                        assert!(live.insert(p.id, p).is_none());
                    }
                    Update::Delete(p) => assert_eq!(live.remove(&p.id), Some(p)),
                }
            }
            for p in s.recent_writes(16) {
                assert_eq!(live.get(&p.id), Some(&p));
            }
            assert_eq!(s.live_len(), live.len());
        }
        let mut model: Vec<Point> = s.live_iter().copied().collect();
        model.sort_by_key(|p| p.id);
        assert_eq!(model, live.into_values().collect::<Vec<_>>());
    }
}
