//! The conformance table under every oracle test: one point generator, one
//! index zoo, one lifecycle list, one brute-force [`Oracle`] and one
//! [`check`]. A test file includes it with `#[path]` and states its rows:
//! which [`Kind`]s in which [`State`]s, after which update stream, asked
//! which [`Queries`].
#![allow(dead_code)]

use elsi::{DeltaOverlay, OverlayCodec, RebuildFn, RebuildPolicy, Update, UpdateProcessor};
use elsi_indices::*;
use elsi_serve::{Router, ShardedConfig, ShardedIndex};
use elsi_spatial::{canonical_point_key, Point, Rect, ScanScratch};
use elsi_store::{IndexCodec, NoCodec, Snapshot, StoreError};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use Kind::*;

/// A coordinate and how many points are stacked on it.
pub type Stack = (f64, f64, usize);

/// Clustered offsets, lattice nodes and a stack.
pub type Cloud = (Vec<(f64, f64)>, Vec<(u32, u32)>, Stack);

/// Draws a [`Cloud`]: up to 90 offsets (at least `min`), 40 lattice nodes
/// and a stack of up to 40 copies.
pub fn cloud(min: usize) -> impl Strategy<Value = Cloud> {
    (
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), min..90),
        prop::collection::vec((0u32..=8, 0u32..=8), 0..40),
        (0.0f64..=1.0, 0.0f64..=1.0, 0usize..40),
    )
}

/// The point generator, aimed at what a key search, a rank-span scan or a
/// seeded kNN can get wrong: offsets shrink into three 0.04-wide cluster
/// patches, lattice nodes land on multiples of 1/8 (every boundary of a
/// 2×2 … 4×4 shard grid; keys and distances tie), the stack is one long
/// equal-key run; ids are folded by `id_modulus` (`u64::MAX` keeps them
/// unique).
pub fn assemble(
    clustered: &[(f64, f64)],
    snapped: &[(u32, u32)],
    stack: Stack,
    id_modulus: u64,
) -> Vec<Point> {
    const CENTRES: [(f64, f64); 3] = [(0.2, 0.7), (0.55, 0.5), (0.93, 0.08)];
    let clustered = clustered.iter().enumerate().map(|(i, &(dx, dy))| {
        let (cx, cy) = CENTRES[i % CENTRES.len()];
        (cx + dx * 0.04, cy + dy * 0.04)
    });
    let snapped = snapped
        .iter()
        .map(|&(i, j)| (f64::from(i) / 8.0, f64::from(j) / 8.0));
    let stacked = std::iter::repeat_n((stack.0, stack.1), stack.2);
    let all = clustered.chain(snapped).chain(stacked).enumerate();
    all.map(|(i, (x, y))| Point::new(i as u64 % id_modulus, x, y))
        .collect()
}

/// Every `stride`-th point deleted — after a foreign id at its place, and
/// once more when it is gone — then `fresh` inserts: a quarter each
/// on the stack, inside a cluster, on a stored point and where drawn.
pub fn churn(points: &[Point], stack: Stack, stride: usize, fresh: &[(f64, f64)]) -> Vec<Update> {
    let gone = points.iter().filter(|p| p.id as usize % stride == 0);
    let ghost = |p: Point| Point::new(900_000 + p.id, p.x, p.y);
    let deletes = gone.flat_map(|&p| [ghost(p), p, p].map(Update::Delete));
    let fresh = fresh.iter().enumerate().map(|(i, &(x, y))| {
        let (x, y) = match (i % 4, points.get(i % points.len().max(1))) {
            (0, _) => (stack.0, stack.1),
            (1, _) => (0.55 + x * 0.04, 0.5 + y * 0.04),
            (2, Some(p)) => (p.x, p.y),
            _ => (x, y),
        };
        Update::Insert(Point::new(10_000 + i as u64, x, y))
    });
    deletes.chain(fresh).collect()
}

/// Snaps a raw unit-square coordinate so the boundary values 0.0 and 1.0
/// occur regularly: points on shard and grid edges, not just inside.
pub fn snap(v: f64) -> f64 {
    if v < 0.03 {
        0.0
    } else if v > 0.97 {
        1.0
    } else {
        v
    }
}

/// The drawn query, the stack, corners, a lattice node, points outside the
/// unit square, then (the last three, lookups only) NaN coordinates.
pub fn hard_queries(q: (f64, f64), stack: Stack) -> Vec<Point> {
    let nan = f64::NAN;
    let xs = [q.0, stack.0, 0.0, 1.0, 0.0, 0.5, -0.3, 1.7, nan, 0.5, nan];
    let ys = [q.1, stack.1, 0.0, 1.0, 1.0, 0.375, 0.5, 1.2, 0.5, nan, nan];
    xs.into_iter()
        .zip(ys)
        .map(|(x, y)| Point::at(x, y))
        .collect()
}

/// The nine index kinds.
pub use elsi::IndexKind as Kind;

/// Where a subject is in its lifecycle. Nothing rebuilds on its own. Only
/// `Built` and `Dirty` keep repeated ids: the rest build through a door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// As built; updates take the index's own insertion procedures.
    Built,
    /// Behind a `DeltaOverlay`.
    Dirty,
    /// Behind an `UpdateProcessor` over an overlay.
    Processor,
    /// `rows × cols` shards behind a `ShardedIndex` with these cuts.
    Sharded(Cuts, usize, usize),
    /// A processor saved after its stream and reopened: ZM from its state
    /// blob (delta intact), the others rebuilt from the saved points.
    Recovered,
}

/// A sharded state's cuts: `Router::new`'s uniform ones or `Router::fit`'s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cuts {
    Uniform,
    Fitted,
}

/// The lifecycle list: every state past `Built`.
pub const LIFECYCLE: [State; 5] = [
    State::Dirty,
    State::Processor,
    State::Sharded(Cuts::Uniform, 2, 2),
    State::Sharded(Cuts::Fitted, 2, 2),
    State::Recovered,
];

/// The conformance table: all nine kinds as built, then every lifecycle
/// state over `kind`.
pub fn table(kind: Kind) -> impl Iterator<Item = (Kind, State)> {
    let built = Kind::ALL.map(|k| (k, State::Built));
    built.into_iter().chain(LIFECYCLE.map(|s| (kind, s)))
}

/// One index of the table, and per update applied: whether it took effect.
pub struct Subject {
    pub kind: Kind,
    pub state: State,
    pub index: Box<dyn SpatialIndex>,
    pub applied: Vec<bool>,
}

impl Subject {
    pub fn new(kind: Kind, state: State, index: Box<dyn SpatialIndex>) -> Self {
        let applied = Vec::new();
        Self {
            kind,
            state,
            index,
            applied,
        }
    }

    /// Applies `stream` to the index as it stands.
    pub fn apply(&mut self, stream: &[Update]) {
        let retired = self.index.ingest_batch(stream);
        self.applied.extend(took(stream, retired));
    }
}

fn took(stream: &[Update], retired: Vec<Option<Point>>) -> impl Iterator<Item = bool> + '_ {
    let took = |(u, r): (&Update, Option<Point>)| u.is_insert() || r.is_some();
    stream.iter().zip(retired).map(took)
}

/// The index zoo: pages of `page` points, fanout 4, RSMI leaves of two
/// pages, LISA shards of four, rank models from one builder (ELSI's
/// without a scorer runs RS, which synthesises no points, so LISA takes
/// it too).
#[derive(Clone)]
pub struct Zoo {
    page: usize,
    models: Arc<dyn ModelBuilder>,
}

impl Zoo {
    pub fn new(page: usize, models: impl ModelBuilder + 'static) -> Self {
        let models = Arc::new(models);
        Self { page, models }
    }

    /// PWL rank models of error `epsilon`.
    pub fn pwl(page: usize, epsilon: usize) -> Self {
        Self::new(page, PwlBuilder { epsilon })
    }

    pub fn zm(&self, points: Vec<Point>) -> ZmIndex {
        ZmIndex::build(points, &ZmConfig { fanout: 4 }, self.models.as_ref())
    }

    /// One index of `kind` over `pts`.
    pub fn build(&self, kind: Kind, pts: Vec<Point>) -> Box<dyn SpatialIndex> {
        let (p, m, fanout) = (self.page, self.models.as_ref(), 4);
        match kind {
            Grid => Box::new(GridIndex::build(pts, &GridConfig { block_size: p })),
            Kdb => Box::new(KdbIndex::build(pts, &KdbConfig { leaf_capacity: p })),
            Hrr => {
                let cfg = HrrConfig {
                    leaf_capacity: p,
                    fanout,
                };
                Box::new(HrrIndex::build(pts, &cfg))
            }
            RStar => {
                let cfg = RStarConfig {
                    leaf_capacity: p,
                    fanout,
                    min_fill: 0.4,
                };
                Box::new(RStarIndex::build(pts, &cfg))
            }
            Zm => Box::new(self.zm(pts)),
            Ml => {
                let cfg = MlConfig {
                    pivots: 4,
                    ..MlConfig::default()
                };
                Box::new(MlIndex::build(pts, &cfg, m))
            }
            Flood => Box::new(FloodIndex::build(pts, &FloodConfig { columns: 4 }, m)),
            Rsmi => {
                let cfg = RsmiConfig {
                    leaf_capacity: 2 * p,
                    fanout,
                    ..RsmiConfig::default()
                };
                Box::new(RsmiIndex::build(pts, &cfg, m))
            }
            Lisa => {
                let cfg = LisaConfig {
                    grid: 4,
                    shard_size: 4 * p,
                };
                Box::new(LisaIndex::build(pts, &cfg, m))
            }
        }
    }

    /// `kind` in `state` over `pts`, after `stream`.
    pub fn subject(&self, kind: Kind, state: State, pts: &[Point], stream: &[Update]) -> Subject {
        let (pts, zoo) = (pts.to_vec(), self.clone());
        let make = move |p| zoo.build(kind, p);
        let index: Box<dyn SpatialIndex> = match state {
            State::Built => make(pts),
            State::Dirty => Box::new(DeltaOverlay::new(make(pts))),
            State::Processor => Box::new(processor(pts, make)),
            State::Sharded(Cuts::Uniform, r, c) => Box::new(sharded(pts, Router::new(r, c), make)),
            State::Sharded(Cuts::Fitted, r, c) => {
                Box::new(sharded(pts.clone(), Router::fit(&pts, r, c), make))
            }
            State::Recovered if kind == Zm => {
                let (zoo, codec) = (self.clone(), OverlayCodec::new(ZmStateCodec));
                return recovered(kind, pts, move |p| zoo.zm(p), stream, codec);
            }
            State::Recovered => return recovered(kind, pts, make, stream, NoCodec),
        };
        let mut s = Subject::new(kind, state, index);
        s.apply(stream);
        s
    }
}

fn processor<I: SpatialIndex + 'static>(
    points: Vec<Point>,
    make: impl Fn(Vec<Point>) -> I + Send + Sync + 'static,
) -> UpdateProcessor<DeltaOverlay<I>> {
    let rebuild: RebuildFn<DeltaOverlay<I>> = Box::new(move |p| DeltaOverlay::new(make(p)));
    UpdateProcessor::new(points, rebuild, RebuildPolicy::Never, 16)
}

/// The sharded deployment.
fn sharded<I: SpatialIndex>(
    points: Vec<Point>,
    router: Router,
    make: impl Fn(Vec<Point>) -> I + Send + Sync + 'static,
) -> ShardedIndex<I> {
    let (cfg, never) = (ShardedConfig::default(), |_s| RebuildPolicy::Never);
    ShardedIndex::build(points, router, &cfg, move |_ctx, p| make(p), never)
}

fn recovered<I: SpatialIndex + 'static>(
    kind: Kind,
    points: Vec<Point>,
    make: impl Fn(Vec<Point>) -> I + Clone + Send + Sync + 'static,
    stream: &[Update],
    codec: impl IndexCodec<DeltaOverlay<I>>,
) -> Subject {
    let mut proc = processor(points, make.clone());
    let applied = took(stream, proc.ingest_batch(stream)).collect();
    let rebuild: RebuildFn<DeltaOverlay<I>> = Box::new(move |p| DeltaOverlay::new(make(p)));
    let index = Box::new(reopen(&proc, rebuild, &codec).expect("a saved processor reopens"));
    let mut s = Subject::new(kind, State::Recovered, index);
    s.applied = applied;
    s
}

/// Saves `proc` into an in-memory snapshot image and reopens it.
pub fn reopen<I: SpatialIndex, C: IndexCodec<I>>(
    proc: &UpdateProcessor<I>,
    rebuild: RebuildFn<I>,
    codec: &C,
) -> Result<UpdateProcessor<I>, StoreError> {
    let image = proc.snapshot_writer(codec).to_bytes();
    let snap = Snapshot::from_bytes(&image, std::path::Path::new("mem"))?;
    UpdateProcessor::from_snapshot(&snap, rebuild, RebuildPolicy::Never, codec)
}

pub fn canonical(mut pts: Vec<Point>) -> Vec<Point> {
    pts.sort_by_key(canonical_point_key);
    pts
}

/// The brute-force oracle: the live set of a point sequence under the
/// overlay's id-keyed update semantics. The last write of an id wins and is
/// its one live copy, the base's points included (inserted in order); a
/// delete of a written copy is id-only and leaves the id's base copy dead
/// (no resurrection); a delete of an untouched base copy must quote its
/// exact coordinates. It keeps every update applied, and whether it took
/// effect.
#[derive(Clone, Default)]
pub struct Oracle {
    base: Vec<Point>,
    tombstoned: BTreeSet<u64>,
    written: BTreeMap<u64, Point>,
    live: Vec<Point>,
    pub stream: Vec<Update>,
    pub applied: Vec<bool>,
}

impl Oracle {
    pub fn new(points: &[Point]) -> Self {
        let last: BTreeMap<u64, Point> = points.iter().map(|p| (p.id, *p)).collect();
        let base: Vec<Point> = last.into_values().collect();
        let live = base.clone();
        Self {
            base,
            live,
            ..Self::default()
        }
    }

    pub fn after(points: &[Point], stream: &[Update]) -> Self {
        let mut oracle = Self::new(points);
        oracle.drive(stream);
        oracle
    }

    /// Applies `u` and returns the live copy it retired: the one an insert
    /// replaced, the one a delete dropped.
    pub fn apply(&mut self, u: Update) -> Option<Point> {
        let p = u.point();
        let old = match u {
            Update::Insert(_) => self.written.insert(p.id, p),
            Update::Delete(_) => self.written.remove(&p.id),
        };
        let retired = old.or_else(|| {
            let copy = find_id(&self.base, p.id)?;
            let quoted = u.is_insert() || (copy.x == p.x && copy.y == p.y);
            (quoted && self.tombstoned.insert(p.id)).then_some(copy)
        });
        let took = u.is_insert() || retired.is_some();
        // The live set holds each id once, in id order: `at` is `p.id`'s place.
        let at = self.live.partition_point(|l| l.id < p.id);
        if retired.is_some() {
            self.live.remove(at);
        }
        if u.is_insert() {
            self.live.insert(at, p);
        }
        self.stream.push(u);
        self.applied.push(took);
        retired
    }

    pub fn drive(&mut self, stream: &[Update]) -> Vec<Option<Point>> {
        stream.iter().map(|&u| self.apply(u)).collect()
    }

    /// Applies raw `(kind, id, x, y)` draws: kinds 0–1 insert at the
    /// snapped drawn coordinates, kind 2 deletes the id at its live
    /// coordinates when it has any, kind 3 at the drawn — stale — ones.
    /// Returns the copy each op retired.
    pub fn apply_draws(&mut self, ops: &[(u8, u64, f64, f64)]) -> Vec<Option<Point>> {
        let draw = |oracle: &Self, &(kind, id, x, y): &(u8, u64, f64, f64)| {
            let drawn = Point::new(id, snap(x), snap(y));
            match kind {
                0 | 1 => Update::Insert(drawn),
                2 => Update::Delete(find_id(&oracle.live, id).unwrap_or(drawn)),
                _ => Update::Delete(drawn),
            }
        };
        ops.iter().map(|op| self.apply(draw(self, op))).collect()
    }

    /// A rebuild: the live set becomes the base.
    pub fn rebase(&mut self) {
        let (stream, applied) = (self.stream.split_off(0), self.applied.split_off(0));
        *self = Self {
            stream,
            applied,
            ..Self::new(&self.live)
        };
    }

    /// Written copies plus tombstones.
    pub fn delta_len(&self) -> usize {
        self.written.len() + self.tombstoned.len()
    }

    /// The live set, in canonical order.
    pub fn live(&self) -> &[Point] {
        &self.live
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// The window oracle: the live points inside `w`, in canonical order.
    pub fn window(&self, w: &Rect) -> Vec<Point> {
        let inside = |p: &&Point| w.contains(p);
        self.live.iter().filter(inside).copied().collect()
    }

    /// The kNN oracle: every live point, nearest first, in canonical
    /// `(dist², id, coordinate-bits)` order — a stable sort by distance of
    /// the live set, which is in canonical order already.
    pub fn knn(&self, q: Point) -> Vec<Point> {
        let mut by_dist: Vec<(f64, Point)> = self.live.iter().map(|p| (q.dist2(p), *p)).collect();
        by_dist.sort_by(|a, b| a.0.total_cmp(&b.0));
        by_dist.into_iter().map(|(_, p)| p).collect()
    }
}

/// The point of `id` in `pts`, which holds each id once, ascending.
fn find_id(pts: &[Point], id: u64) -> Option<Point> {
    let at = pts.binary_search_by_key(&id, |p| p.id).ok()?;
    pts.get(at).copied()
}

/// RSMI's and LISA's recall over a check's whole window set may not fall
/// below this. Measured minimum over the cases drawn here (the stand-in
/// proptest is seeded per case, so they repeat): RSMI 0.9946 — one point
/// of 184 outside its leaf's probed rank span — and LISA 1.0.
pub const RECALL_FLOOR: f64 = 0.99;

/// What a row asks: point lookups, windows, and every `k` of `ks` around
/// every `knn` point — also under radii of zero, a tied distance and one
/// between two distances when `radii` is set.
#[derive(Default)]
pub struct Queries {
    pub points: Vec<Point>,
    pub windows: Vec<Rect>,
    pub knn: Vec<Point>,
    pub ks: Vec<usize>,
    pub radii: bool,
}

impl Queries {
    pub fn lookups(points: impl IntoIterator<Item = Point>) -> Self {
        let points = points.into_iter().collect();
        Self {
            points,
            ..Self::default()
        }
    }

    pub fn windows(windows: impl IntoIterator<Item = Rect>) -> Self {
        let windows = windows.into_iter().collect();
        Self {
            windows,
            ..Self::default()
        }
    }

    pub fn knn(knn: impl IntoIterator<Item = Point>, ks: Vec<usize>) -> Self {
        let knn = knn.into_iter().collect();
        Self {
            knn,
            ks,
            ..Self::default()
        }
    }
}

/// Three radii for `q` over `sorted` (canonical around `q`): zero,
/// exactly a distance two points share (the first such from a third of
/// the way out; a point's distance if none is shared), and between two
/// distinct distances (their midpoint, from halfway out).
fn radii(sorted: &[Point], q: Point) -> Vec<f64> {
    let d: Vec<f64> = sorted.iter().map(|p| q.dist2(p)).collect();
    let pairs = || d.windows(2).map(|w| (w[0], w[1]));
    let from = |n: usize| pairs().skip(n).chain(pairs());
    let tied = from(d.len() / 3).find(|(a, b)| a == b).map(|(a, _)| a);
    let between = from(d.len() / 2).find(|(a, b)| a < b);
    let at = d.get(d.len() / 3).copied().unwrap_or(0.5);
    let between = between.map_or(at, |(a, b)| (a + b) / 2.0);
    vec![0.0, tied.unwrap_or(at), between]
}

/// The subject against the oracle: every update took effect exactly when
/// the oracle's did; the live count; a lookup misses exactly
/// when no live point has the query's coordinates, else answers one that
/// does; exact windows (in canonical order where sharded) and every kNN
/// equal the oracle's; RSMI/LISA windows are sorted subsequences of it at
/// [`RECALL_FLOOR`] or better.
pub fn check(s: &Subject, oracle: &Oracle, qs: &Queries) {
    let (idx, live) = (s.index.as_ref(), oracle.live());
    let at = format!("{:?} {:?} n={}", s.kind, s.state, live.len());
    if !s.applied.is_empty() {
        assert_eq!(s.applied, oracle.applied, "{at}: updates that took effect");
    }
    assert_eq!(idx.len(), live.len(), "{at}: len");
    for &q in &qs.points {
        let mut there = live.iter().filter(|p| p.x == q.x && p.y == q.y);
        match idx.point_query(q) {
            None => assert!(there.next().is_none(), "{at}: missed a live point at {q:?}"),
            Some(p) => assert!(there.any(|l| *l == p), "{at}: answered {p:?} for {q:?}"),
        }
    }
    let sharded = matches!(s.state, State::Sharded(..));
    let (mut got_total, mut want_total) = (0, 0);
    for w in &qs.windows {
        let got = idx.window_query(w);
        let (got, want) = (if sharded { got } else { canonical(got) }, oracle.window(w));
        if !matches!(s.kind, Rsmi | Lisa) {
            assert_eq!(got, want, "{at} {w:?}");
        }
        let mut rest = want.iter();
        let dead = got.iter().find(|&p| !rest.any(|o| o == p));
        assert!(
            dead.is_none(),
            "{at}: {dead:?} for {w:?} is dead, outside or twice"
        );
        (got_total, want_total) = (got_total + got.len(), want_total + want.len());
    }
    let recall = got_total as f64 / want_total.max(1) as f64;
    assert!(
        recall >= RECALL_FLOOR || want_total == 0,
        "{at}: recall {recall}"
    );
    let (mut scratch, mut got) = (ScanScratch::new(), Vec::new());
    for &q in &qs.knn {
        let sorted = oracle.knn(q);
        let radii = if qs.radii {
            radii(&sorted, q)
        } else {
            Vec::new()
        };
        for &k in &qs.ks {
            let want = &sorted[..k.min(sorted.len())];
            assert_eq!(idx.knn_query(q, k), want, "{at} q={q:?} k={k}");
            for &r2 in &radii {
                idx.knn_within_into(q, k, r2, &mut scratch, &mut got);
                let inside = want.iter().take_while(|p| q.dist2(p) <= r2);
                assert!(got.iter().eq(inside), "{at} q={q:?} k={k} r2={r2:e}");
            }
        }
    }
}
