//! RR*: the revised R*-tree (Beckmann & Seeger, SIGMOD 2009) — the paper's
//! strongest traditional all-round competitor.
//!
//! Inserts use the R* heuristics: subtree choice minimises *overlap*
//! enlargement at the leaf level and area enlargement above it, and node
//! splits pick the axis with the least margin sum, then the distribution
//! with the least overlap. Following the revised R*-tree, forced
//! reinsertion is omitted (RR* replaces it with better split/choose
//! heuristics). Queries reuse the exact shared R-tree algorithms.

use crate::rtree::{knn_best_first_into, MbrNode, RNode};
use crate::traits::SpatialIndex;
use elsi_spatial::{Point, Rect, ScanScratch};

/// RR* configuration.
#[derive(Debug, Clone, Copy)]
pub struct RStarConfig {
    /// Points per leaf (paper block size: 100).
    pub leaf_capacity: usize,
    /// Children per internal node.
    pub fanout: usize,
    /// Minimum fill fraction considered during splits.
    pub min_fill: f64,
}

impl Default for RStarConfig {
    fn default() -> Self {
        Self {
            leaf_capacity: 100,
            fanout: 16,
            min_fill: 0.4,
        }
    }
}

/// The RR* index.
pub struct RStarIndex {
    root: RNode,
    cfg: RStarConfig,
    n: usize,
}

impl RStarIndex {
    /// Builds an RR* by inserting every point (the R*-family has no
    /// canonical bulk load; the paper's Fig. 8 reflects insert-based
    /// construction).
    pub fn build(points: Vec<Point>, cfg: &RStarConfig) -> Self {
        assert!(cfg.leaf_capacity >= 2 && cfg.fanout >= 2);
        assert!((0.0..=0.5).contains(&cfg.min_fill));
        let mut idx = Self {
            root: RNode::new_leaf(Vec::new()),
            cfg: *cfg,
            n: 0,
        };
        for p in points {
            idx.insert(p);
        }
        idx
    }

    fn insert_node(node: &mut RNode, p: Point, cfg: &RStarConfig) -> Option<RNode> {
        match node {
            RNode::Leaf { block } => {
                block.push(p);
                if block.len() > cfg.leaf_capacity {
                    let (left, right) =
                        rstar_split(std::mem::take(block).to_points(), point_rect, cfg.min_fill);
                    *block = elsi_spatial::Block::from_points(left);
                    Some(RNode::new_leaf(right))
                } else {
                    None
                }
            }
            RNode::Internal { mbr, children } => {
                mbr.expand(&p);
                let best = choose_subtree(children, &p);
                if let Some(split) = Self::insert_node(&mut children[best], p, cfg) {
                    children.push(split);
                    if children.len() > cfg.fanout {
                        let (left, right) =
                            rstar_split(std::mem::take(children), RNode::mbr, cfg.min_fill);
                        *children = left;
                        let mut new_mbr = Rect::empty();
                        for c in children.iter() {
                            new_mbr.expand_rect(&c.mbr());
                        }
                        *mbr = new_mbr;
                        return Some(RNode::new_internal(right));
                    }
                }
                None
            }
        }
    }
}

#[inline]
fn point_rect(p: &Point) -> Rect {
    Rect {
        lo_x: p.x,
        lo_y: p.y,
        hi_x: p.x,
        hi_y: p.y,
    }
}

/// R* ChooseSubtree: minimum overlap enlargement when children are leaves,
/// minimum area enlargement otherwise; ties by area.
fn choose_subtree(children: &[RNode], p: &Point) -> usize {
    let leaf_level = matches!(children.first(), Some(RNode::Leaf { .. }));
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, c) in children.iter().enumerate() {
        let cm = c.mbr();
        let mut grown = cm;
        grown.expand(p);
        let area_enl = grown.area() - cm.area();
        let primary = if leaf_level {
            // Overlap enlargement against the sibling MBRs.
            let mut overlap_delta = 0.0;
            for (j, s) in children.iter().enumerate() {
                if j == i {
                    continue;
                }
                let sm = s.mbr();
                overlap_delta += grown.intersection_area(&sm) - cm.intersection_area(&sm);
            }
            overlap_delta
        } else {
            area_enl
        };
        let key = (primary, area_enl, cm.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// The R* split: choose the axis with the least margin sum over candidate
/// distributions, then the distribution with the least overlap (ties by
/// combined area). Generic over items with an MBR accessor so it serves
/// both leaf points and internal children.
fn rstar_split<T>(mut items: Vec<T>, mbr_of: impl Fn(&T) -> Rect, min_fill: f64) -> (Vec<T>, Vec<T>)
where
    T: Clone,
{
    let m = items.len();
    let k_min = ((m as f64 * min_fill) as usize).max(1);
    let k_max = m - k_min;

    // Evaluate an axis: sort by centre, return (margin_sum, best_k, best_key).
    let eval_axis = |items: &mut Vec<T>, axis: usize| -> (f64, usize, (f64, f64)) {
        items.sort_by(|a, b| {
            let ca = center_on(&mbr_of(a), axis);
            let cb = center_on(&mbr_of(b), axis);
            ca.total_cmp(&cb)
        });
        // Prefix/suffix MBRs.
        let mut prefix = Vec::with_capacity(m);
        let mut acc = Rect::empty();
        for it in items.iter() {
            acc.expand_rect(&mbr_of(it));
            prefix.push(acc);
        }
        let mut suffix = vec![Rect::empty(); m];
        let mut acc = Rect::empty();
        for (i, it) in items.iter().enumerate().rev() {
            acc.expand_rect(&mbr_of(it));
            suffix[i] = acc;
        }
        let mut margin_sum = 0.0;
        let mut best_k = k_min;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for k in k_min..=k_max.max(k_min) {
            if k >= m {
                break;
            }
            let l = prefix[k - 1];
            let r = suffix[k];
            margin_sum += l.margin() + r.margin();
            let key = (l.intersection_area(&r), l.area() + r.area());
            if key < best_key {
                best_key = key;
                best_k = k;
            }
        }
        (margin_sum, best_k, best_key)
    };

    let (margin_x, k_x, _) = eval_axis(&mut items, 0);
    // Evaluate y with a cloned copy so x-order is recoverable if x wins.
    let mut items_y = items.clone();
    let (margin_y, k_y, _) = eval_axis(&mut items_y, 1);

    if margin_y < margin_x {
        let right = items_y.split_off(k_y);
        (items_y, right)
    } else {
        let right = items.split_off(k_x);
        (items, right)
    }
}

#[inline]
fn center_on(r: &Rect, axis: usize) -> f64 {
    if axis == 0 {
        (r.lo_x + r.hi_x) / 2.0
    } else {
        (r.lo_y + r.hi_y) / 2.0
    }
}

impl SpatialIndex for RStarIndex {
    fn len(&self) -> usize {
        self.n
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        self.root.find(q)
    }

    fn window_query_into(&self, w: &Rect, _scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        self.root.window_into(w, out);
    }

    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        knn_best_first_into(&self.root, q, k.min(self.n), r2, scratch, out);
    }

    fn insert(&mut self, p: Point) {
        self.n += 1;
        if let Some(split) = Self::insert_node(&mut self.root, p, &self.cfg) {
            let old = std::mem::replace(&mut self.root, RNode::new_leaf(Vec::new()));
            self.root = RNode::new_internal(vec![old, split]);
        }
    }

    fn delete(&mut self, p: Point) -> bool {
        if self.root.remove(p) {
            self.n -= 1;
            true
        } else {
            false
        }
    }

    fn name(&self) -> &'static str {
        "RR*"
    }

    fn depth(&self) -> usize {
        self.root.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::{nyc_like, uniform};

    #[test]
    fn build_and_exact_queries() {
        let pts = uniform(1500, 21);
        let cfg = RStarConfig {
            leaf_capacity: 25,
            fanout: 8,
            min_fill: 0.4,
        };
        let idx = RStarIndex::build(pts.clone(), &cfg);
        assert_eq!(idx.len(), 1500);
        assert!(idx.depth() >= 2);
        for p in pts.iter().step_by(11) {
            assert_eq!(idx.point_query(*p).unwrap().id, p.id);
        }
        for w in [
            Rect::new(0.1, 0.1, 0.4, 0.4),
            Rect::unit(),
            Rect::new(0.9, 0.0, 1.0, 1.0),
        ] {
            let got = idx.window_query(&w);
            let want = pts.iter().filter(|p| w.contains(p)).count();
            assert_eq!(got.len(), want, "window {w:?}");
        }
    }

    #[test]
    fn skewed_data_splits_stay_balancedish() {
        let pts = nyc_like(2000, 7);
        let cfg = RStarConfig {
            leaf_capacity: 50,
            fanout: 8,
            min_fill: 0.4,
        };
        let idx = RStarIndex::build(pts.clone(), &cfg);
        assert_eq!(idx.len(), 2000);
        // Height should be logarithmic-ish despite extreme skew.
        assert!(idx.depth() <= 6, "depth {}", idx.depth());
        for p in pts.iter().step_by(37) {
            assert!(idx.point_query(*p).is_some());
        }
    }

    #[test]
    fn knn_exact() {
        let pts = uniform(800, 2);
        let idx = RStarIndex::build(pts.clone(), &RStarConfig::default());
        let q = Point::at(0.77, 0.33);
        let got = idx.knn_query(q, 25);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        assert_eq!(got.len(), 25);
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn delete_and_reinsert() {
        let pts = uniform(500, 13);
        let mut idx = RStarIndex::build(pts.clone(), &RStarConfig::default());
        for p in pts.iter().take(100) {
            assert!(idx.delete(*p));
        }
        assert_eq!(idx.len(), 400);
        for p in pts.iter().take(100) {
            assert!(idx.point_query(*p).is_none());
            idx.insert(*p);
        }
        assert_eq!(idx.len(), 500);
        assert!(idx.point_query(pts[5]).is_some());
    }

    #[test]
    fn empty_tree_queries() {
        let idx = RStarIndex::build(Vec::new(), &RStarConfig::default());
        assert!(idx.is_empty());
        assert!(idx.point_query(Point::at(0.1, 0.1)).is_none());
        assert!(idx.window_query(&Rect::unit()).is_empty());
        assert!(idx.knn_query(Point::at(0.1, 0.1), 4).is_empty());
    }
}
