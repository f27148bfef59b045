//! HRR: a Hilbert-curve, rank-space bulk-loaded R-tree (Qi et al., PVLDB
//! 2018) — the paper's state-of-the-art traditional window-query competitor.
//!
//! Points are sorted by Hilbert value and packed bottom-up into full nodes,
//! which yields near-optimal leaf MBRs. Queries use the shared exact R-tree
//! algorithms. Inserts descend by least MBR enlargement and split
//! overflowing leaves by Hilbert order (HRR is primarily a static,
//! bulk-loaded index; dynamic updates are provided for completeness).

use crate::rtree::{knn_best_first_into, MbrNode, RNode};
use crate::traits::SpatialIndex;
use elsi_spatial::{Point, Rect, ScanScratch};

/// HRR configuration.
#[derive(Debug, Clone, Copy)]
pub struct HrrConfig {
    /// Points per leaf (paper block size: 100).
    pub leaf_capacity: usize,
    /// Children per internal node.
    pub fanout: usize,
}

impl Default for HrrConfig {
    fn default() -> Self {
        Self {
            leaf_capacity: 100,
            fanout: 16,
        }
    }
}

/// The HRR index.
pub struct HrrIndex {
    root: RNode,
    cfg: HrrConfig,
    n: usize,
}

impl HrrIndex {
    /// Bulk loads an HRR over `points`.
    pub fn build(mut points: Vec<Point>, cfg: &HrrConfig) -> Self {
        assert!(cfg.leaf_capacity >= 1 && cfg.fanout >= 2);
        let n = points.len();
        // Cached-key sort: one Hilbert encoding per point, not per compare.
        points.sort_by_cached_key(|p| elsi_spatial::curve::hilbert_of(p.x, p.y));
        let mut level: Vec<RNode> = points
            .chunks(cfg.leaf_capacity)
            .map(|c| RNode::new_leaf(c.to_vec()))
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(cfg.fanout)
                .map(|c| RNode::new_internal(c.to_vec()))
                .collect();
        }
        let root = level.pop().unwrap_or_else(|| RNode::new_leaf(Vec::new()));
        Self { root, cfg: *cfg, n }
    }

    fn insert_node(node: &mut RNode, p: Point, cfg: &HrrConfig) -> Option<RNode> {
        match node {
            RNode::Leaf { block } => {
                block.push(p);
                if block.len() > cfg.leaf_capacity {
                    // Split by Hilbert order (one encoding per point).
                    let mut pts = std::mem::take(block).to_points();
                    pts.sort_by_cached_key(|p| elsi_spatial::curve::hilbert_of(p.x, p.y));
                    let right = pts.split_off(pts.len() / 2);
                    *block = elsi_spatial::Block::from_points(pts);
                    Some(RNode::new_leaf(right))
                } else {
                    None
                }
            }
            RNode::Internal { mbr, children } => {
                mbr.expand(&p);
                // Least-enlargement child.
                let mut best = 0;
                let mut best_enl = f64::INFINITY;
                for (i, c) in children.iter().enumerate() {
                    let cm = c.mbr();
                    let mut grown = cm;
                    grown.expand(&p);
                    let enl = grown.area() - cm.area();
                    if enl < best_enl {
                        best_enl = enl;
                        best = i;
                    }
                }
                if let Some(split) = Self::insert_node(&mut children[best], p, cfg) {
                    children.push(split);
                    if children.len() > cfg.fanout {
                        // Split this internal node in half by child MBR
                        // centre Hilbert order.
                        children.sort_by_cached_key(|c| {
                            let p = c.mbr().center();
                            elsi_spatial::curve::hilbert_of(p.x, p.y)
                        });
                        let right = children.split_off(children.len() / 2);
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

impl SpatialIndex for HrrIndex {
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
        "HRR"
    }

    fn depth(&self) -> usize {
        self.root.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::{skewed, uniform};

    #[test]
    fn bulk_load_and_exact_queries() {
        let pts = uniform(2000, 3);
        let idx = HrrIndex::build(pts.clone(), &HrrConfig::default());
        assert_eq!(idx.len(), 2000);
        assert!(idx.depth() >= 2);
        for p in pts.iter().step_by(13) {
            assert_eq!(idx.point_query(*p).unwrap().id, p.id);
        }
        let w = Rect::new(0.25, 0.25, 0.5, 0.75);
        let got = idx.window_query(&w);
        let want = pts.iter().filter(|p| w.contains(p)).count();
        assert_eq!(got.len(), want);
    }

    #[test]
    fn knn_exact() {
        let pts = skewed(1000, 4, 5);
        let idx = HrrIndex::build(pts.clone(), &HrrConfig::default());
        let q = Point::at(0.5, 0.1);
        let got = idx.knn_query(q, 12);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn inserts_split_and_stay_findable() {
        let pts = uniform(150, 9);
        let mut idx = HrrIndex::build(
            pts,
            &HrrConfig {
                leaf_capacity: 20,
                fanout: 4,
            },
        );
        for i in 0..500u64 {
            let p = Point::new(
                1000 + i,
                (i as f64 * 0.00197) % 1.0,
                (i as f64 * 0.00313) % 1.0,
            );
            idx.insert(p);
            assert!(idx.point_query(p).is_some(), "lost insert {i}");
        }
        assert_eq!(idx.len(), 650);
    }

    #[test]
    fn delete_roundtrip() {
        let pts = uniform(200, 11);
        let mut idx = HrrIndex::build(pts.clone(), &HrrConfig::default());
        assert!(idx.delete(pts[50]));
        assert!(idx.point_query(pts[50]).is_none());
        assert_eq!(idx.len(), 199);
    }

    #[test]
    fn empty_build() {
        let idx = HrrIndex::build(Vec::new(), &HrrConfig::default());
        assert!(idx.is_empty());
        assert!(idx.point_query(Point::at(0.5, 0.5)).is_none());
        assert!(idx.knn_query(Point::at(0.5, 0.5), 3).is_empty());
    }
}
