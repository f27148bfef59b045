//! KDB: a kd-tree with block-storage leaves (Robinson, SIGMOD 1981) — the
//! disk-oriented kd-tree the paper uses as a traditional competitor.
//!
//! Internal nodes split alternately on x and y at the median; leaves hold up
//! to a block of points. Lookups, inserts and deletes follow the split
//! planes; every node also keeps the MBR of its live points, so window and
//! kNN queries take the MBR-tree walks the R-trees share (`rtree::MbrNode`).

use crate::rtree::{knn_best_first_into, Below, MbrNode};
use crate::traits::SpatialIndex;
use elsi_spatial::{Block, Point, Rect, ScanScratch, DEFAULT_BLOCK_SIZE};

/// KDB configuration.
#[derive(Debug, Clone, Copy)]
pub struct KdbConfig {
    /// Points per leaf block (paper: 100).
    pub leaf_capacity: usize,
}

impl Default for KdbConfig {
    fn default() -> Self {
        Self {
            leaf_capacity: DEFAULT_BLOCK_SIZE,
        }
    }
}

enum KdNode {
    Internal {
        mbr: Rect,
        axis: u8,
        split: f64,
        /// The halves below and at-or-above `split`.
        halves: Box<[KdNode; 2]>,
    },
    Leaf {
        /// SoA data page; maintains its own MBR. An emptied leaf stays.
        block: Block,
    },
}

impl MbrNode for KdNode {
    #[inline]
    fn mbr(&self) -> Rect {
        match self {
            KdNode::Internal { mbr, .. } => *mbr,
            KdNode::Leaf { block } => block.mbr(),
        }
    }

    #[inline]
    fn below(&self) -> Below<'_, Self> {
        match self {
            KdNode::Internal { halves, .. } => Below::Children(halves.as_slice()),
            KdNode::Leaf { block } => Below::Page(block),
        }
    }
}

impl KdNode {
    fn build(mut points: Vec<Point>, axis: u8, capacity: usize) -> KdNode {
        if points.len() <= capacity {
            return KdNode::Leaf {
                block: Block::from_points(points),
            };
        }
        let mbr = Rect::mbr_of(&points);
        let mid = points.len() / 2;
        points.select_nth_unstable_by(mid, |a, b| coord(a, axis).total_cmp(&coord(b, axis)));
        let split = coord(&points[mid], axis);
        let right_pts = points.split_off(mid);
        let next = 1 - axis;
        let left = KdNode::build(points, next, capacity);
        let right = KdNode::build(right_pts, next, capacity);
        KdNode::Internal {
            mbr,
            axis,
            split,
            halves: Box::new([left, right]),
        }
    }

    fn find(&self, q: Point) -> Option<Point> {
        match self {
            KdNode::Leaf { block } => {
                if !block.mbr().contains(&q) {
                    return None;
                }
                block.find_exact(q.x, q.y)
            }
            KdNode::Internal {
                axis,
                split,
                halves,
                ..
            } => {
                // The median point went to the right half; boundary values
                // must search both sides.
                let [left, right] = &**halves;
                let c = coord(&q, *axis);
                if c < *split {
                    left.find(q)
                } else if c > *split {
                    right.find(q)
                } else {
                    right.find(q).or_else(|| left.find(q))
                }
            }
        }
    }

    fn insert(&mut self, p: Point, capacity: usize) {
        match self {
            KdNode::Leaf { block } => {
                block.push(p);
                if block.len() > 2 * capacity {
                    // Split the leaf at the median of its longer MBR axis.
                    let mbr = block.mbr();
                    let axis = if mbr.hi_x - mbr.lo_x >= mbr.hi_y - mbr.lo_y {
                        0
                    } else {
                        1
                    };
                    *self = KdNode::build(std::mem::take(block).to_points(), axis, capacity);
                }
            }
            KdNode::Internal {
                mbr,
                axis,
                split,
                halves,
            } => {
                mbr.expand(&p);
                let [left, right] = &mut **halves;
                if coord(&p, *axis) < *split {
                    left.insert(p, capacity);
                } else {
                    right.insert(p, capacity);
                }
            }
        }
    }

    fn remove(&mut self, p: Point) -> bool {
        match self {
            KdNode::Leaf { block } => {
                if !block.mbr().contains(&p) {
                    return false;
                }
                block.remove_exact(&p)
            }
            KdNode::Internal {
                mbr,
                axis,
                split,
                halves,
            } => {
                let [left, right] = &mut **halves;
                let c = coord(&p, *axis);
                let removed = if c < *split {
                    left.remove(p)
                } else if c > *split {
                    right.remove(p)
                } else {
                    right.remove(p) || left.remove(p)
                };
                if removed {
                    *mbr = left.mbr().union(&right.mbr());
                }
                removed
            }
        }
    }
}

#[inline]
fn coord(p: &Point, axis: u8) -> f64 {
    if axis == 0 {
        p.x
    } else {
        p.y
    }
}

/// The KDB-tree index.
pub struct KdbIndex {
    root: KdNode,
    cfg: KdbConfig,
    n: usize,
}

impl KdbIndex {
    /// Builds a KDB-tree by recursive median splitting.
    pub fn build(points: Vec<Point>, cfg: &KdbConfig) -> Self {
        assert!(cfg.leaf_capacity >= 1);
        let n = points.len();
        Self {
            root: KdNode::build(points, 0, cfg.leaf_capacity),
            cfg: *cfg,
            n,
        }
    }
}

impl SpatialIndex for KdbIndex {
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
        self.root.insert(p, self.cfg.leaf_capacity);
        self.n += 1;
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
        "KDB"
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
    fn build_and_exact_queries() {
        let pts = uniform(1200, 19);
        let idx = KdbIndex::build(pts.clone(), &KdbConfig { leaf_capacity: 30 });
        assert_eq!(idx.len(), 1200);
        assert!(idx.depth() >= 3);
        for p in pts.iter().step_by(17) {
            assert_eq!(idx.point_query(*p).unwrap().id, p.id);
        }
        let w = Rect::new(0.0, 0.4, 0.6, 0.9);
        let got = idx.window_query(&w);
        let want = pts.iter().filter(|p| w.contains(p)).count();
        assert_eq!(got.len(), want);
    }

    #[test]
    fn duplicate_coordinates_are_findable() {
        let mut pts = Vec::new();
        for i in 0..200u64 {
            pts.push(Point::new(i, 0.5, 0.5));
        }
        let idx = KdbIndex::build(pts, &KdbConfig { leaf_capacity: 10 });
        assert!(idx.point_query(Point::at(0.5, 0.5)).is_some());
    }

    #[test]
    fn knn_exact_on_skewed() {
        let pts = skewed(900, 4, 4);
        let idx = KdbIndex::build(pts.clone(), &KdbConfig::default());
        let q = Point::at(0.4, 0.05);
        let got = idx.knn_query(q, 15);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        assert_eq!(got.len(), 15);
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn insert_splits_leaves() {
        let mut idx = KdbIndex::build(uniform(50, 2), &KdbConfig { leaf_capacity: 10 });
        for i in 0..300u64 {
            let p = Point::new(
                1000 + i,
                (i as f64 * 0.00173) % 1.0,
                (i as f64 * 0.00041) % 1.0,
            );
            idx.insert(p);
            assert!(idx.point_query(p).is_some(), "lost insert {i}");
        }
        assert_eq!(idx.len(), 350);
        assert!(idx.depth() >= 2);
    }

    #[test]
    fn delete_fixes_mbrs() {
        let pts = uniform(400, 6);
        let mut idx = KdbIndex::build(pts.clone(), &KdbConfig { leaf_capacity: 20 });
        for p in pts.iter().step_by(3) {
            assert!(idx.delete(*p));
        }
        for (i, p) in pts.iter().enumerate() {
            let found = idx.point_query(*p).is_some();
            assert_eq!(found, i % 3 != 0, "point {i}");
        }
        // Empty one leaf; KDB keeps it, and kNN from inside its old MBR
        // must walk past it to the brute-force answer.
        let mut leaf = &idx.root;
        while let Below::Children([left, _]) = leaf.below() {
            leaf = left;
        }
        let Below::Page(page) = leaf.below() else {
            unreachable!("the descent ends at a page");
        };
        let (gone, old) = (page.to_points(), page.mbr());
        for p in &gone {
            assert!(idx.delete(*p));
        }
        let live: Vec<Point> = pts
            .iter()
            .enumerate()
            .filter(|(i, p)| i % 3 != 0 && !gone.contains(p))
            .map(|(_, p)| *p)
            .collect();
        let q = Point::at((old.lo_x + old.hi_x) / 2.0, (old.lo_y + old.hi_y) / 2.0);
        for k in [1, 7] {
            let mut want = live.clone();
            want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)).then(a.id.cmp(&b.id)));
            want.truncate(k);
            assert_eq!(idx.knn_query(q, k), want, "k = {k}");
        }
    }

    #[test]
    fn empty_tree() {
        let idx = KdbIndex::build(Vec::new(), &KdbConfig::default());
        assert!(idx.is_empty());
        assert!(idx.knn_query(Point::at(0.5, 0.5), 5).is_empty());
    }
}
