//! The sharded index: per-shard ELSI update lifecycles behind one façade.
//!
//! Each shard is an `UpdateProcessor<DeltaOverlay<I>>` — the full update
//! machinery of the paper (§IV-B2: delta layer, drift tracking, rebuild
//! policy) scoped to one grid cell. Queries are routed by a [`Router`],
//! kNN results are merged *exactly* across shards (proof sketch in
//! `DESIGN.md` §9), and batched entry points fan queries out on the rayon
//! pool. All hot-path load probes go through the O(1) accessors
//! `UpdateProcessor::{live_len, n_at_build, pending_updates}` — routing
//! never recomputes drift features and never takes a lock (`ShardedIndex`
//! owns its shards; updates are `&mut self`).
//!
//! The deployment, not the shards, journals: each write call is one record
//! of its journal, appended before any shard mutates (`DESIGN.md` §14).

use std::sync::Arc;

use elsi::{
    encode_updates, BatchOutcome, DeltaOverlay, Elsi, RebuildFn, RebuildPolicy, UpdateProcessor,
};
use elsi_data::stream::Update;
use elsi_indices::{SpatialIndex, ZmConfig, ZmIndex};
use elsi_spatial::{last_per_id, sort_canonical, Point, Rect, ScanScratch};
use elsi_store::{StoreError, WalWriter};
use rayon::prelude::*;

use crate::router::Router;

/// Seeding and update cadence of a sharded deployment; its shape comes
/// from the [`Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Per-shard update-processor check frequency (`f_u` of §IV-B2).
    pub f_u: usize,
    /// Root seed; each shard derives its own seed from it (see
    /// [`shard_seed`]).
    pub seed: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self { f_u: 64, seed: 42 }
    }
}

impl ShardedConfig {
    /// The default config; the shape arguments are ignored, because the
    /// router carries the shape.
    #[doc(hidden)]
    pub fn grid(_rows: usize, _cols: usize) -> Self {
        Self::default()
    }
}

/// Deterministic per-shard seed: the same `root ^ (id * odd-constant)`
/// discipline the method scorer uses for per-cell measurement seeds, so
/// shard builds are reproducible no matter which rayon worker runs them.
pub fn shard_seed(root: u64, shard: usize) -> u64 {
    root ^ (shard as u64).wrapping_mul(131)
}

/// Everything a shard builder closure may want to know about the shard it
/// is building: its id, its territory, and its deterministic seed.
#[derive(Debug, Clone, Copy)]
pub struct ShardContext {
    /// Shard id: `row * cols + col` in the router's partition.
    pub shard: usize,
    /// The shard's closed territory rectangle.
    pub rect: Rect,
    /// Seed derived via [`shard_seed`]; builders that randomise (sampling,
    /// model init) must draw from this and nothing else.
    pub seed: u64,
}

/// O(1) load snapshot of one shard, for routing/monitoring decisions.
/// Every field reads a counter — no drift-feature recomputation, no locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard id.
    pub shard: usize,
    /// Live points currently owned by the shard.
    pub live_len: usize,
    /// Points at the last (re)build.
    pub n_at_build: usize,
    /// Updates applied since the last (re)build.
    pub pending_updates: usize,
    /// Size of the delta layer (buffered inserts + tombstones).
    pub delta_len: usize,
    /// Rebuilds triggered so far.
    pub rebuilds: usize,
}

// The canonical point/kNN orders now live in `elsi_spatial` so the
// `DeltaOverlay` kNN path can share them; re-exported here because the
// serving layer is where cross-shard merges make them load-bearing.
pub use elsi_spatial::{canonical_knn_cmp, canonical_point_key};

/// An R×C-sharded serving deployment: one [`UpdateProcessor`] per shard,
/// one [`Router`] in front.
///
/// The struct *owns* its shards and updates take `&mut self`, so the query
/// hot path holds no lock anywhere — concurrency comes from batching
/// (`par_*_queries` fan out over a shared `&self`) rather than from shared
/// mutable state. Coordinates are expected in the unit square, the
/// workspace-wide data space convention.
///
/// `R` is always [`Router`]; the parameter survives only so the spelling
/// `ShardedIndex<I, Router>` (and its aliases) keeps compiling.
pub struct ShardedIndex<I: SpatialIndex, R = Router> {
    pub(crate) router: R,
    pub(crate) shards: Vec<UpdateProcessor<DeltaOverlay<I>>>,
    /// Per-shard check frequency, echoed into the serving-directory
    /// manifest so `open` restores processors with the same cadence.
    pub(crate) f_u: usize,
    /// Root seed, echoed into the manifest so rebuild closures recreated
    /// by `open` derive the same per-shard seeds as the original build.
    pub(crate) seed: u64,
    /// The deployment's journal (`deploy.g<N>.wal`), attached by `save`
    /// and `open`: one record per write call. `None` = not journaling.
    pub(crate) journal: Option<WalWriter>,
}

impl ShardedIndex<ZmIndex> {
    /// The workhorse deployment: ZM-F shards built through a shared ELSI
    /// build processor, with the threshold rebuild policy of the update
    /// experiments (`max_drift` 0.15, `max_ratio` 10.0) on every shard,
    /// behind `router` (see [`ShardedIndex::build`]).
    pub fn zm(points: Vec<Point>, router: Router, cfg: &ShardedConfig, elsi: &Elsi) -> Self {
        Self::build(points, router, cfg, zm_shard_builder(elsi), zm_policy)
    }
}

/// The shared ZM-F shard builder of [`ShardedIndex::zm`] and
/// `ShardedIndex::open_zm`: every shard builds through one ELSI build
/// processor.
pub(crate) fn zm_shard_builder(
    elsi: &Elsi,
) -> impl Fn(&ShardContext, Vec<Point>) -> ZmIndex + Send + Sync + 'static {
    let builder = Arc::new(elsi.builder());
    move |_ctx: &ShardContext, pts: Vec<Point>| {
        ZmIndex::build(pts, &ZmConfig::default(), builder.as_ref())
    }
}

/// The threshold rebuild policy of the update experiments, applied
/// uniformly to every shard.
pub(crate) fn zm_policy(_shard: usize) -> RebuildPolicy {
    RebuildPolicy::Threshold {
        max_drift: 0.15,
        max_ratio: 10.0,
    }
}

impl<I: SpatialIndex> ShardedIndex<I> {
    /// Partitions the last copy of each id in `points` ([`last_per_id`])
    /// by `router` ownership and builds every shard in parallel on rayon.
    ///
    /// `shard_builder` builds one shard's base index from its points; it
    /// runs once per shard at build time and again on every rebuild, and
    /// must derive any randomness from its [`ShardContext::seed`] so
    /// results are bit-identical across thread counts. `policy` hands each
    /// shard its own [`RebuildPolicy`] (called serially, in shard order).
    pub fn build<B, P>(
        points: Vec<Point>,
        router: Router,
        cfg: &ShardedConfig,
        shard_builder: B,
        policy: P,
    ) -> Self
    where
        B: Fn(&ShardContext, Vec<Point>) -> I + Send + Sync + 'static,
        P: Fn(usize) -> RebuildPolicy,
    {
        let mut parts: Vec<Vec<Point>> = vec![Vec::new(); router.num_shards()];
        for p in last_per_id(points) {
            if let Some(part) = parts.get_mut(router.shard_of(p)) {
                part.push(p);
            }
        }
        let builder = Arc::new(shard_builder);
        let work: Vec<(usize, Vec<Point>, RebuildPolicy)> = parts
            .into_iter()
            .enumerate()
            .map(|(s, pts)| (s, pts, policy(s)))
            .collect();
        let (root_seed, f_u) = (cfg.seed, cfg.f_u);
        let router_ref = &router;
        let shards: Vec<UpdateProcessor<DeltaOverlay<I>>> = work
            .into_par_iter()
            .map(move |(s, pts, pol)| {
                let ctx = ShardContext {
                    shard: s,
                    rect: router_ref.shard_rect(s),
                    seed: shard_seed(root_seed, s),
                };
                let b = Arc::clone(&builder);
                let rebuild: RebuildFn<DeltaOverlay<I>> =
                    Box::new(move |pts| DeltaOverlay::new(b(&ctx, pts)));
                UpdateProcessor::new(pts, rebuild, pol, f_u)
            })
            .collect();
        Self {
            router,
            shards,
            f_u,
            seed: root_seed,
            journal: None,
        }
    }

    /// The router in front of the shards.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's update processor (for inspection; updates go through
    /// the routed entry points).
    pub fn shard(&self, shard: usize) -> &UpdateProcessor<DeltaOverlay<I>> {
        &self.shards[shard]
    }

    /// O(1)-per-shard load snapshot (counters only — no drift features, no
    /// locks; see [`ShardStats`]).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, proc)| ShardStats {
                shard: s,
                live_len: proc.live_len(),
                n_at_build: proc.n_at_build(),
                pending_updates: proc.pending_updates(),
                delta_len: proc.index().delta_len(),
                rebuilds: proc.rebuilds(),
            })
            .collect()
    }

    /// Total rebuilds triggered across all shards.
    pub fn rebuilds(&self) -> usize {
        self.shards.iter().map(|s| s.rebuilds()).sum()
    }

    /// Attaches `journal` (`None` detaches it) and reports it, with the
    /// error that detached the last one, to every shard.
    pub(crate) fn set_journal(&mut self, journal: Option<WalWriter>, error: Option<StoreError>) {
        let attached = journal.is_some();
        self.journal = journal;
        for shard in &mut self.shards {
            shard.set_journal_status(attached, error.clone());
        }
    }

    /// Appends one write call to the journal, before any shard mutates. A
    /// failed append detaches the journal and parks the error; serving goes
    /// on in memory.
    fn append_call(&mut self, updates: &[Update]) {
        let Some(wal) = self.journal.as_mut().filter(|_| !updates.is_empty()) else {
            return;
        };
        if let Err(e) = wal.append(&encode_updates(updates)) {
            self.set_journal(None, Some(e));
        }
    }

    /// The one per-op body: journals `u`, then routes it to its owning
    /// shard as a singleton [`UpdateProcessor::apply_batch`].
    fn route(&mut self, u: Update) -> Option<BatchOutcome> {
        self.append_call(&[u]);
        let s = self.router.shard_of(u.point());
        Some(self.shards.get_mut(s)?.apply_batch(&[u]))
    }

    /// Applies a batch of updates: one journal record, then the per-shard
    /// sub-batches (`partition`) fanned out on the rayon pool (shard-local
    /// arrival order is preserved, so the outcome is independent of the
    /// thread count). Each shard folds its sub-batch through
    /// `UpdateProcessor::apply_batch`: one rebuild-policy consultation per
    /// shard and call. Returns the number of shard rebuilds the batch
    /// triggered.
    // lint:serving_root
    pub fn par_apply_updates(&mut self, updates: &[Update]) -> usize {
        self.append_call(updates);
        let before = self.rebuilds();
        let per = partition(&self.router, updates);
        // The vendored rayon has no `par_iter_mut`: move the shards out,
        // run each shard+batch pair to completion, and collect them back
        // (order-preserving map keeps shard ids stable).
        let shards = std::mem::take(&mut self.shards);
        self.shards = shards
            .into_iter()
            .zip(per)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(mut shard, batch)| {
                shard.apply_batch(&batch);
                shard
            })
            .collect();
        self.rebuilds() - before
    }
}

/// Splits one write call into a sub-batch per shard of `router`, each in
/// arrival order: what every shard's `apply_batch` sees of the call, live
/// and on replay.
pub(crate) fn partition(router: &Router, updates: &[Update]) -> Vec<Vec<Update>> {
    let mut per: Vec<Vec<Update>> = vec![Vec::new(); router.num_shards()];
    for &u in updates {
        if let Some(sub) = per.get_mut(router.shard_of(u.point())) {
            sub.push(u);
        }
    }
    per
}

impl<I: SpatialIndex> SpatialIndex for ShardedIndex<I> {
    /// Sum of per-shard live sizes — O(shards), each read O(1).
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.live_len()).sum()
    }

    /// Routed to the single owning shard in O(1).
    // lint:serving_root
    fn point_query(&self, q: Point) -> Option<Point> {
        self.shards.get(self.router.shard_of(q))?.point_query(q)
    }

    /// Gathered from the overlapping shards, in canonical
    /// ([`canonical_point_key`]) order — equal result sets are
    /// bit-identical regardless of the shard layout.
    ///
    /// Per-shard runs arrive in each shard's own order (Z-rank for ZM): the
    /// first non-empty one is written straight into `out`, later ones are
    /// staged and appended, and [`sort_canonical`] puts the whole in
    /// canonical order, ping-ponging through the staging buffer the shard
    /// scans have finished with. In steady state the gather itself
    /// allocates only the `Vec` [`Router::shards_for_window`] returns.
    // lint:serving_root
    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        let mut buf = scratch.stage_take();
        for s in self.router.shards_for_window(w) {
            let Some(shard) = self.shards.get(s) else {
                continue;
            };
            if out.is_empty() {
                shard.window_query_into(w, scratch, out);
            } else {
                shard.window_query_into(w, scratch, &mut buf);
                out.extend_from_slice(&buf);
            }
        }
        sort_canonical(out, &mut buf);
        scratch.stage_put(buf);
    }

    /// Exact cross-shard kNN merge in **one pass**; see `DESIGN.md` §9 for
    /// the proof sketch. Results come back in canonical order
    /// ([`canonical_knn_cmp`]), so equal result sets are bit-identical.
    ///
    /// Shards are visited in ascending MINDIST order. Each is asked only for
    /// the points that could still displace the running top-k: its
    /// canonical best k within `min(r2, running k-th distance)`, ties
    /// included. Each such run is merged into the running top-k, which
    /// keeps the *points*, not just their distances; the first run becomes
    /// the running top-k as it is. The pass stops at the first shard whose
    /// rectangle is strictly farther than that bound (strict, so a tie on
    /// the far side of a boundary is still merged and settled by id). No
    /// shard is asked twice. Exactness inherits from the shard index's own
    /// kNN.
    ///
    /// Per-shard results stream through each shard's own scan kernels, and
    /// the shard visit order, the staging run and the merge buffer are all
    /// pooled in the scratch — in steady state the merge itself allocates
    /// nothing.
    // lint:serving_root
    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        out.clear();
        if k == 0 || self.shards.is_empty() {
            return;
        }
        let mut order = scratch.order_take();
        order.clear();
        order.extend((0..self.shards.len()).map(|s| (self.router.shard_rect(s).min_dist2(&q), s)));
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        let mut buf = scratch.stage_take();
        for &(min_d2, s) in &order {
            let bound = match out.last() {
                Some(kth) if out.len() == k => r2.min(q.dist2(kth)),
                _ => r2,
            };
            if min_d2 > bound {
                break;
            }
            let Some(shard) = self.shards.get(s) else {
                continue;
            };
            if out.is_empty() {
                shard.knn_within_into(q, k, bound, scratch, out);
            } else {
                shard.knn_within_into(q, k, bound, scratch, &mut buf);
                merge_canonical(q, k, out, &buf, scratch);
            }
        }
        scratch.stage_put(buf);
        scratch.order_put(order);
    }

    /// The shards' live sets, in shard order.
    fn live_points_into(&self, out: &mut Vec<Point>) {
        self.shards.iter().for_each(|s| s.live_points_into(out));
    }

    fn insert(&mut self, p: Point) {
        self.route(Update::Insert(p));
    }

    fn delete(&mut self, p: Point) -> bool {
        self.route(Update::Delete(p))
            .is_some_and(|out| out.applied == 1)
    }

    fn name(&self) -> &'static str {
        "Sharded"
    }

    /// One routing step above the deepest shard.
    fn depth(&self) -> usize {
        1 + self.shards.iter().map(|s| s.depth()).max().unwrap_or(0)
    }
}

/// Merges the canonical run `run` into the canonical run `out`, keeping
/// the `k` best: a linear two-way merge through the scratch's hit buffer.
/// Each run's head distance is computed once per point, not per step.
fn merge_canonical(
    q: Point,
    k: usize,
    out: &mut Vec<Point>,
    run: &[Point],
    scratch: &mut ScanScratch,
) {
    let m = k.min(out.len() + run.len());
    let head = |run: &[Point], i: usize| run.get(i).map(|p| (q.dist2(p), *p));
    let (mut i, mut j) = (0, 0);
    let (mut a, mut b) = (head(out, 0), head(run, 0));
    for slot in scratch.hits_slot(m).iter_mut() {
        let from_out = match (a, b) {
            (Some((da, pa)), Some((db, pb))) => da
                .total_cmp(&db)
                .then_with(|| canonical_point_key(&pa).cmp(&canonical_point_key(&pb)))
                .is_le(),
            (a, _) => a.is_some(),
        };
        if from_out {
            if let Some((_, p)) = a {
                *slot = p;
            }
            i += 1;
            a = head(out, i);
        } else {
            if let Some((_, p)) = b {
                *slot = p;
            }
            j += 1;
            b = head(run, j);
        }
    }
    out.clear();
    out.extend_from_slice(scratch.hits_upto(m));
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::uniform;
    use elsi_indices::{GridConfig, GridIndex};

    fn grid_sharded(points: Vec<Point>, rows: usize, cols: usize) -> ShardedIndex<GridIndex> {
        ShardedIndex::build(
            points,
            Router::new(rows, cols),
            &ShardedConfig::default(),
            |_ctx, pts| GridIndex::build(pts, &GridConfig { block_size: 16 }),
            |_s| RebuildPolicy::Never,
        )
    }

    #[test]
    fn sharded_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedIndex<GridIndex>>();
    }

    #[test]
    fn len_and_point_queries_route_correctly() {
        let pts = uniform(500, 7);
        let sharded = grid_sharded(pts.clone(), 2, 3);
        assert_eq!(sharded.len(), 500);
        assert_eq!(sharded.num_shards(), 6);
        for p in pts.iter().step_by(17) {
            assert_eq!(sharded.point_query(*p), Some(*p));
        }
    }

    #[test]
    fn knn_matches_brute_force_on_small_sets() {
        let pts = uniform(300, 11);
        let sharded = grid_sharded(pts.clone(), 3, 3);
        for (i, q) in [
            Point::at(0.5, 0.5),
            Point::at(0.01, 0.99),
            Point::at(1.0, 1.0),
        ]
        .into_iter()
        .enumerate()
        {
            let k = 1 + i * 7;
            let mut want = pts.clone();
            want.sort_by(|a, b| canonical_knn_cmp(q, a, b));
            want.truncate(k);
            assert_eq!(sharded.knn_query(q, k), want, "q={q:?} k={k}");
        }
    }

    #[test]
    fn knn_with_fewer_points_than_k_returns_everything() {
        let pts = uniform(5, 3);
        let sharded = grid_sharded(pts.clone(), 2, 2);
        let got = sharded.knn_query(Point::at(0.2, 0.8), 50);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn routed_updates_land_in_the_owning_shard() {
        let mut sharded = grid_sharded(uniform(200, 5), 2, 2);
        let p = Point::new(9_000_001, 0.9, 0.9); // shard 3
        sharded.insert(p);
        assert_eq!(sharded.shard_stats()[3].pending_updates, 1);
        assert_eq!(sharded.point_query(p), Some(p));
        assert!(sharded.delete(p));
        assert_eq!(sharded.point_query(p), None);
        assert_eq!(sharded.len(), 200);
    }

    #[test]
    fn batched_updates_match_sequential_routing() {
        let base = uniform(400, 9);
        let mut batched = grid_sharded(base.clone(), 2, 2);
        let mut sequential = grid_sharded(base.clone(), 2, 2);
        let mut updates: Vec<Update> = uniform(120, 10)
            .into_iter()
            .enumerate()
            .map(|(i, mut p)| {
                p.id = 1_000_000 + i as u64;
                Update::Insert(p)
            })
            .collect();
        updates.extend(base.iter().step_by(11).map(|p| Update::Delete(*p)));
        batched.par_apply_updates(&updates);
        for &u in &updates {
            match u {
                Update::Insert(p) => sequential.insert(p),
                Update::Delete(p) => {
                    sequential.delete(p);
                }
            }
        }
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(
            batched.window_query(&Rect::unit()),
            sequential.window_query(&Rect::unit())
        );
    }

    #[test]
    fn batched_queries_match_their_sequential_counterparts() {
        let pts = uniform(300, 13);
        let sharded = grid_sharded(pts, 2, 2);
        let queries: Vec<Point> = uniform(40, 14);
        let windows: Vec<Rect> = queries
            .iter()
            .map(|q| Rect::window_around(*q, 0.01))
            .collect();
        assert_eq!(
            sharded.par_point_queries(&queries),
            queries
                .iter()
                .map(|&q| sharded.point_query(q))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            sharded.par_window_queries(&windows),
            windows
                .iter()
                .map(|w| sharded.window_query(w))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            sharded.par_knn_queries(&queries, 5),
            queries
                .iter()
                .map(|&q| sharded.knn_query(q, 5))
                .collect::<Vec<_>>()
        );
    }
}
