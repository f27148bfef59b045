//! RSMI: the recursive spatial model index (Qi et al., PVLDB 2020).
//!
//! RSMI creates a hierarchy of space partitions using space-filling curves:
//! each node normalises its points into its own bounding rectangle ("rank
//! space"), orders them by local Hilbert value and learns that order. An
//! internal node's model routes a key to one of `fanout` contiguous child
//! partitions (probing neighbours within empirically recorded routing error
//! bounds); a leaf's model predicts the rank within the leaf. All models go
//! through the pluggable [`ModelBuilder`] — the ELSI seam.
//!
//! Window queries are approximate *by original design* (paper §VII-G2): a
//! leaf scans the rank range spanned by probe points of the query window,
//! which can miss points whose Hilbert values fall outside that range.
//! Point queries are exact, and so is kNN here: it seeds at the subtree
//! the models route the query to and then sweeps the leaves by MBR, not by
//! predicted rank range (the original answers kNN over windows and
//! inherits their recall).
//!
//! Insertions use RSMI's built-in local procedure (paper §VII-H and Fig. 1):
//! a new point is routed to its leaf and buffered; an overflowing leaf is
//! locally rebuilt — growing into a deeper subtree when it has outgrown its
//! capacity, which is exactly the unbalanced deepening of Figure 1.
//!
//! Deletes follow the other learned indices' update rule: a buffered copy
//! is removed, a stored one tombstoned, and tombstones hide stored copies
//! only, so a re-inserted id never brings its deleted copy back.

use crate::leaf::Leaf;
use crate::model::{BuildInput, BuildStats, ModelBuilder, RankModel};
use crate::traits::{knn_seeded_into, SpatialIndex};
use elsi_spatial::{
    sort_by_key, HilbertMapper, KeyMapper, KnnHeap, MappedData, Point, Rect, ScanScratch,
};
use rayon::prelude::*;
use std::collections::HashSet;

/// RSMI configuration.
#[derive(Debug, Clone, Copy)]
pub struct RsmiConfig {
    /// Maximum points per leaf before splitting into a subtree.
    pub leaf_capacity: usize,
    /// Children per internal node.
    pub fanout: usize,
    /// A leaf whose overflow buffer exceeds this fraction of its size is
    /// locally rebuilt.
    pub overflow_fraction: f64,
}

impl Default for RsmiConfig {
    fn default() -> Self {
        Self {
            leaf_capacity: 2048,
            fanout: 8,
            overflow_fraction: 0.5,
        }
    }
}

/// Local (rank-space) Hilbert key of `p` within `bounds`.
fn local_key(p: Point, bounds: &Rect) -> f64 {
    let w = (bounds.hi_x - bounds.lo_x).max(1e-12);
    let h = (bounds.hi_y - bounds.lo_y).max(1e-12);
    let u = ((p.x - bounds.lo_x) / w).clamp(0.0, 1.0);
    let v = ((p.y - bounds.lo_y) / h).clamp(0.0, 1.0);
    HilbertMapper.key(Point::at(u, v))
}

enum Node {
    Internal {
        model: RankModel,
        bounds: Rect,
        mbr: Rect,
        /// Points routed here since the build: at least the live ones.
        n: usize,
        /// Routing denominator: the node size when its model was trained.
        /// Must stay fixed so inserts and queries route identically.
        n_route: usize,
        children: Vec<Node>,
        /// Routing error bounds: actual child − predicted child.
        route_lo: i64,
        route_hi: i64,
    },
    Leaf {
        model: RankModel,
        bounds: Rect,
        mbr: Rect,
        /// Rank-ordered points in SoA layout, keyed by their local Hilbert
        /// keys.
        data: MappedData,
        overflow: Vec<Point>,
    },
}

impl Node {
    fn n(&self) -> usize {
        match self {
            Node::Internal { n, .. } => *n,
            Node::Leaf { data, overflow, .. } => data.len() + overflow.len(),
        }
    }

    fn mbr(&self) -> Rect {
        match self {
            Node::Internal { mbr, .. } | Node::Leaf { mbr, .. } => *mbr,
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(Node::depth).max().unwrap_or(0)
            }
        }
    }

    fn count_models(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(Node::count_models).sum::<usize>()
            }
        }
    }

    /// The child an internal node's model routes `p` to, and the children
    /// its routing error bounds allow (a leaf routes to child 0).
    fn route(&self, p: Point) -> (usize, std::ops::RangeInclusive<usize>) {
        let Node::Internal {
            model,
            bounds,
            n_route,
            children,
            route_lo,
            route_hi,
            ..
        } = self
        else {
            return (0, 0..=0);
        };
        let c = route_child(model, local_key(p, bounds), *n_route, children.len());
        let bound = |err: i64| (c as i64 + err).clamp(0, children.len() as i64 - 1) as usize;
        (c, bound(*route_lo)..=bound(*route_hi))
    }
}

/// The RSMI index.
pub struct RsmiIndex {
    root: Node,
    cfg: RsmiConfig,
    deleted: HashSet<u64>,
    stats: Vec<BuildStats>,
    n_total: usize,
}

impl RsmiIndex {
    /// Builds an RSMI over `points` using the given model builder.
    pub fn build(points: Vec<Point>, cfg: &RsmiConfig, builder: &dyn ModelBuilder) -> Self {
        assert!(cfg.fanout >= 2, "fanout must be at least 2");
        assert!(cfg.leaf_capacity >= 1, "leaf capacity must be positive");
        let n_total = points.len();
        let bounds = if points.is_empty() {
            Rect::unit()
        } else {
            Rect::mbr_of(&points)
        };
        let mut stats = Vec::new();
        // Parallelise the root's children only: subtree sizes differ by at
        // most one point at the top split, so top-level parallelism already
        // balances well, and deeper spawning would oversubscribe threads.
        // Every internal node still trains its own model beside its
        // subtrees (`build_node`).
        let root = build_node(points, bounds, cfg, builder, &mut stats, 0, 1);
        Self {
            root,
            cfg: *cfg,
            deleted: HashSet::new(),
            stats,
            n_total,
        }
    }

    /// Per-model build statistics (pre-order).
    pub fn build_stats(&self) -> &[BuildStats] {
        &self.stats
    }

    /// Number of models in the hierarchy.
    pub fn num_models(&self) -> usize {
        self.root.count_models()
    }

    /// The stored page of a leaf node.
    fn leaf<'a>(&'a self, data: &'a MappedData) -> Leaf<'a> {
        Leaf::of(data, &self.deleted)
    }
}

fn build_node(
    points: Vec<Point>,
    bounds: Rect,
    cfg: &RsmiConfig,
    builder: &dyn ModelBuilder,
    stats: &mut Vec<BuildStats>,
    seed: u64,
    par_levels: usize,
) -> Node {
    let mbr = if points.is_empty() {
        Rect::empty()
    } else {
        Rect::mbr_of(&points)
    };
    // Map and sort in the node's local rank space.
    let mapper = LocalHilbert { bounds };
    let (pts, keys) = sort_by_key(points, &mapper);
    let n = pts.len();
    let train = || {
        builder.build_model(&BuildInput {
            points: &pts,
            keys: &keys,
            mapper: &mapper,
            seed: 0x3517 ^ seed,
        })
    };

    if n <= cfg.leaf_capacity {
        let built = train();
        stats.push(built.stats);
        return Node::Leaf {
            model: built.model,
            bounds,
            mbr,
            data: MappedData::from_sorted(&pts, keys),
            overflow: Vec::new(),
        };
    }

    // Partition into `fanout` contiguous rank slices and recurse. The
    // slices never read this node's model — only the routing bounds below
    // do — so it trains beside the children's subtrees, as ZM's root trains
    // beside its leaves. Child seeds are pure functions of the path from
    // the root, so sequential and parallel builds produce the same
    // subtrees; each subtree collects its stats separately, appended after
    // this node's own in child order: the sequential pre-order.
    let f = cfg.fanout;
    let (built, subtrees) = rayon::join(train, || {
        let slices: Vec<(Vec<Point>, Rect, u64)> = (0..f)
            .map(|c| {
                let lo = c * n / f;
                let hi = (c + 1) * n / f;
                let slice: Vec<Point> = pts.get(lo..hi).unwrap_or(&[]).to_vec();
                let child_bounds = if slice.is_empty() {
                    bounds
                } else {
                    Rect::mbr_of(&slice)
                };
                (slice, child_bounds, seed * 31 + c as u64 + 1)
            })
            .collect();
        let levels = par_levels.saturating_sub(1);
        let build_child = |(slice, child_bounds, child_seed): (Vec<Point>, Rect, u64)| {
            let mut child_stats = Vec::new();
            let node = build_node(
                slice,
                child_bounds,
                cfg,
                builder,
                &mut child_stats,
                child_seed,
                levels,
            );
            (node, child_stats)
        };
        if par_levels > 0 {
            slices.into_par_iter().map(build_child).collect::<Vec<_>>()
        } else {
            slices.into_iter().map(build_child).collect()
        }
    });
    stats.push(built.stats);
    let model = built.model;
    let children: Vec<Node> = subtrees
        .into_iter()
        .map(|(node, child_stats)| {
            stats.extend(child_stats);
            node
        })
        .collect();

    // Routing error bounds over this node's own points: the child a rank
    // was sliced into above against the child its key routes to.
    let mut route_lo = 0i64;
    let mut route_hi = 0i64;
    for actual in 0..f {
        let slice = keys.get(actual * n / f..(actual + 1) * n / f);
        model.predict_each(slice.unwrap_or(&[]), |_, pred| {
            let err = actual as i64 - child_of(pred, n, f) as i64;
            route_lo = route_lo.min(err);
            route_hi = route_hi.max(err);
        });
    }

    Node::Internal {
        model,
        bounds,
        mbr,
        n,
        n_route: n,
        children,
        route_lo,
        route_hi,
    }
}

/// A [`KeyMapper`] for one node's rank space, handed to building methods
/// that need to map synthesised points (e.g. CL centroids).
struct LocalHilbert {
    bounds: Rect,
}

impl KeyMapper for LocalHilbert {
    fn key(&self, p: Point) -> f64 {
        local_key(p, &self.bounds)
    }
}

#[inline]
fn route_child(model: &RankModel, key: f64, n: usize, fanout: usize) -> usize {
    child_of(model.predict(key), n, fanout)
}

/// The child a predicted rank `pred` routes to.
#[inline]
fn child_of(pred: i64, n: usize, fanout: usize) -> usize {
    let pred = pred.clamp(0, n as i64 - 1) as usize;
    ((pred * fanout) / n).min(fanout - 1)
}

impl RsmiIndex {
    /// First live point at `q`'s coordinates under `node` — stored, then
    /// buffered unless a delete asks for the stored copy of id `only`. An
    /// internal node probes the children its routing bounds allow whose
    /// MBR can hold `q` (MBRs grow with every insert).
    fn find_in_node(&self, node: &Node, q: Point, only: Option<u64>) -> Option<Point> {
        match node {
            Node::Leaf {
                model,
                bounds,
                data,
                overflow,
                ..
            } => {
                let key = local_key(q, bounds);
                let stored = self.leaf(data).find(model.search_range(key), key, q, only);
                let at_q = |p: &&Point| p.x == q.x && p.y == q.y;
                let buffered = || overflow.iter().find(at_q).copied();
                stored.or_else(|| only.map_or_else(buffered, |_| None))
            }
            Node::Internal { children, .. } => children
                .get(node.route(q).1)
                .unwrap_or(&[])
                .iter()
                .filter(|child| child.mbr().contains(&q))
                .find_map(|child| self.find_in_node(child, q, only)),
        }
    }

    fn window_query_node(
        &self,
        node: &Node,
        w: &Rect,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        match node {
            Node::Leaf {
                model,
                bounds,
                mbr,
                data,
                overflow,
            } => {
                if data.is_empty() && overflow.is_empty() {
                    return;
                }
                let clipped = Rect::new(
                    w.lo_x.max(mbr.lo_x),
                    w.lo_y.max(mbr.lo_y),
                    w.hi_x.min(mbr.hi_x),
                    w.hi_y.min(mbr.hi_y),
                );
                // Large overlap: scan the whole leaf (cheap and exact).
                let coverage = if mbr.area() > 0.0 {
                    clipped.area() / mbr.area()
                } else {
                    1.0
                };
                let (lo, hi) = if coverage >= 0.3 {
                    (0, data.len())
                } else {
                    // Probe the window's corners, edge midpoints and centre
                    // in the leaf's rank space; scan the spanned rank range.
                    // This is the approximate part of RSMI's window query.
                    let cx = (clipped.lo_x + clipped.hi_x) / 2.0;
                    let cy = (clipped.lo_y + clipped.hi_y) / 2.0;
                    let probes = [
                        Point::at(clipped.lo_x, clipped.lo_y),
                        Point::at(clipped.lo_x, clipped.hi_y),
                        Point::at(clipped.hi_x, clipped.lo_y),
                        Point::at(clipped.hi_x, clipped.hi_y),
                        Point::at(cx, clipped.lo_y),
                        Point::at(cx, clipped.hi_y),
                        Point::at(clipped.lo_x, cy),
                        Point::at(clipped.hi_x, cy),
                        Point::at(cx, cy),
                    ];
                    let mut lo = usize::MAX;
                    let mut hi = 0usize;
                    for p in probes {
                        let b = model.search_range(local_key(p, bounds));
                        lo = lo.min(b.lo);
                        hi = hi.max(b.hi);
                    }
                    (lo.min(data.len()), hi.min(data.len()))
                };
                self.leaf(data).window_into((lo, hi), w, scratch, out);
                out.extend(overflow.iter().filter(|p| w.contains(p)));
            }
            Node::Internal { children, .. } => {
                for child in children {
                    if child.n() > 0 && w.intersects(&child.mbr()) {
                        self.window_query_node(child, w, scratch, out);
                    }
                }
            }
        }
    }

    /// The subtree to seed a `k`-NN at `q` from: at every level, of the
    /// children the model's routing error bounds allow for the query's key
    /// (the ones a point query would probe), the one whose MBR is nearest —
    /// descending only while the subtree still holds `k` points.
    fn seed_node(&self, q: Point, k: usize) -> &Node {
        let mut node = &self.root;
        while let Node::Internal { children, .. } = node {
            let nearest = children
                .get(node.route(q).1)
                .unwrap_or(&[])
                .iter()
                .filter(|child| child.n() >= k)
                .min_by(|a, b| a.mbr().min_dist2(&q).total_cmp(&b.mbr().min_dist2(&q)));
            match nearest {
                Some(child) => node = child,
                None => break,
            }
        }
        node
    }

    /// Offers the live points under `node` — skipping the `seeded` subtree
    /// and every subtree whose MBR cannot beat the heap's k-th distance
    /// (strict, so ties survive).
    fn knn_offer_node(&self, node: &Node, q: Point, seeded: Option<&Node>, heap: &mut KnnHeap) {
        let is_seeded = seeded.is_some_and(|s| std::ptr::eq(s, node));
        if is_seeded || node.n() == 0 || node.mbr().min_dist2(&q) > heap.worst_dist2() {
            return;
        }
        match node {
            Node::Leaf { data, overflow, .. } => {
                self.leaf(data).knn_offer_span(q, (0, data.len()), heap);
                for p in overflow {
                    heap.offer_point(q, *p);
                }
            }
            Node::Internal { children, .. } => {
                for child in children {
                    self.knn_offer_node(child, q, seeded, heap);
                }
            }
        }
    }

    /// Appends the live points under `node`: every page and overflow
    /// buffer, whole — no rank range is predicted, so nothing is missed.
    fn live_under(&self, node: &Node, out: &mut Vec<Point>) {
        match node {
            Node::Leaf { data, overflow, .. } => {
                let stored = data.page().points();
                out.extend(stored.filter(|p| !self.deleted.contains(&p.id)));
                out.extend_from_slice(overflow);
            }
            Node::Internal { children, .. } => {
                children.iter().for_each(|c| self.live_under(c, out));
            }
        }
    }

    /// Routes `p` to its leaf as every insert routes it — growing the
    /// MBRs and sizes on the way down — buffers it there and hands the leaf
    /// to `then`.
    fn buffer(node: &mut Node, p: Point, then: &mut dyn FnMut(&mut Node)) {
        let (c, _) = node.route(p);
        match node {
            Node::Leaf { mbr, overflow, .. } => {
                mbr.expand(&p);
                overflow.push(p);
                then(node);
            }
            Node::Internal {
                mbr, n, children, ..
            } => {
                mbr.expand(&p);
                *n += 1;
                if let Some(child) = children.get_mut(c) {
                    Self::buffer(child, p, then);
                }
            }
        }
    }

    /// Removes the buffered copy of `p` — id and coordinates — from the
    /// leaf an insert of `p` was routed to.
    fn unbuffer(node: &mut Node, p: Point) -> bool {
        let (c, _) = node.route(p);
        match node {
            Node::Leaf { overflow, .. } => {
                let at = overflow.iter().position(|b| *b == p);
                at.map(|i| overflow.remove(i)).is_some()
            }
            Node::Internal { children, .. } => children
                .get_mut(c)
                .is_some_and(|child| Self::unbuffer(child, p)),
        }
    }

    /// Rebuilds an overflowing leaf (Fig. 1) from its live stored points
    /// and buffered ones; an oversized leaf deepens into a subtree. Returns
    /// how many tombstoned points it dropped with their tombstones. A
    /// buffered point whose id is still tombstoned stays buffered.
    fn relearn(node: &mut Node, cfg: &RsmiConfig, deleted: &mut HashSet<u64>) -> usize {
        let Node::Leaf { overflow, data, .. } = node else {
            return 0;
        };
        let trigger = ((data.len() as f64 * cfg.overflow_fraction) as usize).max(8);
        if overflow.len() <= trigger {
            return 0;
        }
        let stored = data.page().points();
        let mut all: Vec<Point> = stored.filter(|s| !deleted.remove(&s.id)).collect();
        let dropped = data.len() - all.len();
        let (kept, merged): (Vec<Point>, Vec<Point>) =
            overflow.drain(..).partition(|b| deleted.contains(&b.id));
        all.extend(merged);
        // Local rebuilds retrain with a fast OG pass over the (small) leaf,
        // matching RSMI's built-in insertion procedure.
        let builder = crate::model::OgBuilder::with_epochs(30);
        let bounds = Rect::mbr_of(&all);
        *node = build_node(all, bounds, cfg, &builder, &mut Vec::new(), 0xF00D, 0);
        for b in kept {
            Self::buffer(node, b, &mut |_| {});
        }
        dropped
    }
}

impl SpatialIndex for RsmiIndex {
    fn len(&self) -> usize {
        self.n_total - self.deleted.len()
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        self.find_in_node(&self.root, q, None)
    }

    fn window_query_into(&self, w: &Rect, scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        self.window_query_node(&self.root, w, scratch, out);
    }

    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        // Leaf pages keep their MBRs, so the sweep prunes on those rather
        // than on the rank ranges of the (approximate) window query: kNN
        // is exact here even though windows are not.
        let k = k.min(self.len());
        knn_seeded_into(
            q,
            k,
            r2,
            scratch,
            out,
            |heap| {
                let node = self.seed_node(q, k);
                self.knn_offer_node(node, q, None, heap);
                node
            },
            |node, _ball, heap| self.knn_offer_node(&self.root, q, Some(node), heap),
        );
    }

    fn live_points_into(&self, out: &mut Vec<Point>) {
        self.live_under(&self.root, out);
    }

    fn insert(&mut self, p: Point) {
        let (cfg, deleted) = (&self.cfg, &mut self.deleted);
        let mut dropped = 0;
        Self::buffer(&mut self.root, p, &mut |leaf| {
            dropped += Self::relearn(leaf, cfg, deleted);
        });
        self.n_total = self.n_total + 1 - dropped;
    }

    fn delete(&mut self, p: Point) -> bool {
        if Self::unbuffer(&mut self.root, p) {
            self.n_total -= 1;
            return true;
        }
        let found = self.find_in_node(&self.root, p, Some(p.id));
        found.is_some_and(|stored| self.deleted.insert(stored.id))
    }

    fn name(&self) -> &'static str {
        "RSMI"
    }

    fn depth(&self) -> usize {
        self.root.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{osm1_points, OgBuilder};
    use elsi_data::gen::{skewed, uniform};

    /// The routing-bound pass as a per-key loop over [`route_child`].
    fn routing_bounds_reference(model: &RankModel, keys: &[f64], f: usize) -> (i64, i64) {
        let n = keys.len();
        let (mut lo, mut hi) = (0i64, 0i64);
        for actual in 0..f {
            for &k in &keys[actual * n / f..(actual + 1) * n / f] {
                let err = actual as i64 - route_child(model, k, n, f) as i64;
                lo = lo.min(err);
                hi = hi.max(err);
            }
        }
        (lo, hi)
    }

    /// Checks every internal node of a fresh build against the reference
    /// over its subtree's keys; returns the subtree's points.
    fn check_routing_bounds(node: &Node) -> Vec<Point> {
        match node {
            Node::Leaf { data, .. } => data.page().points().collect(),
            Node::Internal {
                model,
                bounds,
                children,
                route_lo,
                route_hi,
                ..
            } => {
                let pts: Vec<Point> = children.iter().flat_map(check_routing_bounds).collect();
                let mut keys: Vec<f64> = pts.iter().map(|&p| local_key(p, bounds)).collect();
                keys.sort_by(f64::total_cmp);
                let want = routing_bounds_reference(model, &keys, children.len());
                assert_eq!((*route_lo, *route_hi), want);
                pts
            }
        }
    }

    #[test]
    fn routing_bounds_match_the_per_key_loop() {
        let stack = vec![Point::at(0.5, 0.5); 900];
        let inputs = [
            (osm1_points(20_000, None, 4), 0),
            (osm1_points(20_000, Some(16.0), 5), 0),
            (osm1_points(3_000, None, 6), 20),
            (stack, 0),
        ];
        for (pts, epochs) in &inputs {
            for fanout in [2, 8, 13] {
                let cfg = RsmiConfig {
                    leaf_capacity: 256,
                    fanout,
                    ..RsmiConfig::default()
                };
                let idx = RsmiIndex::build(pts.clone(), &cfg, &OgBuilder::with_epochs(*epochs));
                assert_eq!(check_routing_bounds(&idx.root).len(), pts.len());
            }
        }
    }

    fn build_small(n: usize) -> (Vec<Point>, RsmiIndex) {
        let pts = uniform(n, 17);
        let cfg = RsmiConfig {
            leaf_capacity: 128,
            fanout: 4,
            ..RsmiConfig::default()
        };
        let idx = RsmiIndex::build(pts.clone(), &cfg, &OgBuilder::with_epochs(60));
        (pts, idx)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, idx) = build_small(600);
        assert!(idx.depth() >= 2, "600 points with capacity 128 must split");
        for p in &pts {
            assert_eq!(idx.point_query(*p).expect("found").id, p.id);
        }
    }

    #[test]
    fn routing_bounds_cover_uneven_child_slices() {
        // `fanout` does not divide these sizes, so child slices differ in
        // length by one: the routing error bounds must be taken against
        // the slices as cut, or the ranks next to a cut are lost.
        let cfg = RsmiConfig {
            leaf_capacity: 4,
            fanout: 4,
            ..RsmiConfig::default()
        };
        for n in [10, 23, 38, 51, 89] {
            let pts = skewed(n, 3, n as u64);
            let idx = RsmiIndex::build(pts.clone(), &cfg, &crate::model::PwlBuilder::default());
            for p in &pts {
                assert_eq!(idx.point_query(*p).map(|f| f.id), Some(p.id), "n={n}");
            }
        }
    }

    #[test]
    fn window_query_recall_is_high() {
        let (pts, idx) = build_small(1000);
        let mut total_want = 0usize;
        let mut total_got = 0usize;
        for i in 0..20 {
            let c = pts[i * 37 % pts.len()];
            let w = Rect::window_around(c, 0.01);
            let got = idx.window_query(&w);
            let want: Vec<&Point> = pts.iter().filter(|p| w.contains(p)).collect();
            // No false positives.
            assert!(got.iter().all(|p| w.contains(p)));
            total_want += want.len();
            total_got += got.len();
        }
        assert!(total_want > 0);
        let recall = total_got as f64 / total_want as f64;
        assert!(recall >= 0.9, "recall {recall}");
    }

    #[test]
    fn knn_returns_k_nearby_points() {
        let (pts, idx) = build_small(800);
        let q = Point::at(0.5, 0.5);
        let got = idx.knn_query(q, 10);
        assert_eq!(got.len(), 10);
        // Approximate: allow slack vs brute force, but results must be close.
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        let exact_r = q.dist(&want[9]);
        assert!(got.iter().all(|p| q.dist(p) <= exact_r * 3.0 + 1e-9));
    }

    #[test]
    fn insert_then_find_and_local_rebuild() {
        let (_, mut idx) = build_small(400);
        // Skewed insertions into one corner trigger local rebuilds (Fig. 1).
        let inserts = skewed(300, 6, 99);
        for (i, mut p) in inserts.into_iter().enumerate() {
            p.id = 10_000 + i as u64;
            p.x *= 0.1;
            p.y *= 0.1;
            idx.insert(p);
        }
        assert_eq!(idx.len(), 700);
        // All inserted points must be findable.
        let probe = Point::new(10_005, 0.0, 0.0);
        let _ = probe;
        for i in 0..300u64 {
            // Re-generate the same stream to probe.
            let mut p = skewed(300, 6, 99)[i as usize];
            p.id = 10_000 + i;
            p.x *= 0.1;
            p.y *= 0.1;
            assert!(idx.point_query(p).is_some(), "inserted point {i} lost");
        }
    }

    #[test]
    fn delete_hides_point() {
        let (pts, mut idx) = build_small(300);
        assert!(idx.delete(pts[7]));
        assert!(idx.point_query(pts[7]).is_none());
        assert_eq!(idx.len(), 299);
    }

    #[test]
    fn a_reinserted_id_never_brings_back_its_deleted_copy() {
        let pts = uniform(4_000, 3);
        let cfg = RsmiConfig {
            leaf_capacity: 256,
            ..RsmiConfig::default()
        };
        let mut idx = RsmiIndex::build(pts.clone(), &cfg, &OgBuilder::with_epochs(5));
        let (old, moved) = (pts[5], Point::new(pts[5].id, 0.9123, 0.8765));
        assert!(idx.delete(old));
        idx.insert(moved);
        let copies = |idx: &RsmiIndex| {
            let all = idx.window_query(&Rect::unit());
            all.iter().filter(|p| p.id == old.id).count()
        };
        let check = |idx: &RsmiIndex, len: usize| {
            assert_eq!((idx.len(), copies(idx)), (len, 1));
            assert_eq!(idx.point_query(old), None);
            assert_eq!(idx.point_query(moved), Some(moved));
            assert_eq!(idx.live_points().len(), len);
        };
        check(&idx, 4_000);
        // Rebuilds around the moved copy keep it buffered while the old
        // copy's tombstone stands; rebuilds around the old copy drop it
        // and its tombstone; later ones merge the moved copy.
        let near = |c: Point, id: u64, i: u64| {
            let t = (i + 1) as f64 * 1e-5;
            Point::new(id + i, c.x - t, c.y - t)
        };
        for (c, id) in [(moved, 10_000), (old, 20_000), (moved, 30_000)] {
            let before = idx.len();
            for i in 0..200 {
                idx.insert(near(c, id, i));
            }
            check(&idx, before + 200);
        }
        assert!(idx.deleted.is_empty(), "the old copy's leaf never rebuilt");
        assert!(idx.delete(moved));
        assert!(!idx.delete(moved) && !idx.delete(old));
        assert_eq!((idx.len(), copies(&idx)), (4_599, 0));
    }

    #[test]
    fn empty_and_tiny_indices() {
        let idx = RsmiIndex::build(
            Vec::new(),
            &RsmiConfig::default(),
            &OgBuilder::with_epochs(5),
        );
        assert!(idx.is_empty());
        assert!(idx.point_query(Point::at(0.5, 0.5)).is_none());

        let one = vec![Point::new(0, 0.5, 0.5)];
        let idx = RsmiIndex::build(
            one.clone(),
            &RsmiConfig::default(),
            &OgBuilder::with_epochs(5),
        );
        assert_eq!(idx.point_query(one[0]).unwrap().id, 0);
    }

    #[test]
    fn hierarchy_stats_and_models() {
        let (_, idx) = build_small(600);
        assert_eq!(idx.build_stats().len(), idx.num_models());
        assert!(idx.num_models() >= 5, "root + children expected");
    }
}
