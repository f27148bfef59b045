//! The MBR-tree walks, and the R-tree node of the HRR and RR* baselines.
//!
//! KDB, HRR and RR* are trees whose every node keeps the MBR of its live
//! points and whose leaves are [`Block`] pages. They differ in how the
//! tree is built and updated — KDB by split planes, HRR by Hilbert-order
//! bulk load (Qi et al., PVLDB 2018), RR* by the revised R*-tree insert
//! heuristics (Beckmann & Seeger, SIGMOD 2009) — but not in how a query
//! walks it: [`MbrNode`] is all the walks see of a node, and the window
//! walk, the depth and the best-first kNN live here once.

use elsi_spatial::{Block, Point, Rect, ScanScratch};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What a walk sees below a node: its page, or its children.
pub(crate) enum Below<'a, N> {
    /// A leaf's data page.
    Page(&'a Block),
    /// An internal node's children.
    Children(&'a [N]),
}

/// A node of an MBR tree.
pub(crate) trait MbrNode: Sized {
    /// The MBR of the node's live points; empty when it holds none.
    fn mbr(&self) -> Rect;

    /// The node's page or children.
    fn below(&self) -> Below<'_, Self>;

    /// Levels from this node down to its deepest leaf.
    fn depth(&self) -> usize {
        match self.below() {
            Below::Page(_) => 1,
            Below::Children(children) => 1 + children.iter().map(Self::depth).max().unwrap_or(0),
        }
    }

    /// Appends the stored points inside `w` (exact).
    fn window_into(&self, w: &Rect, out: &mut Vec<Point>) {
        match self.below() {
            Below::Page(page) => page.window_scan_into(w, out),
            Below::Children(children) => {
                if w.intersects(&self.mbr()) {
                    for c in children {
                        c.window_into(w, out);
                    }
                }
            }
        }
    }
}

/// An R-tree node. Leaves hold points; internal nodes hold children.
#[derive(Debug, Clone)]
pub(crate) enum RNode {
    /// A leaf page: an SoA data page that maintains its own MBR.
    Leaf {
        /// The stored points in structure-of-arrays layout.
        block: Block,
    },
    /// An internal node.
    Internal {
        /// MBR of all children.
        mbr: Rect,
        /// Child nodes.
        children: Vec<RNode>,
    },
}

impl MbrNode for RNode {
    #[inline]
    fn mbr(&self) -> Rect {
        match self {
            RNode::Leaf { block } => block.mbr(),
            RNode::Internal { mbr, .. } => *mbr,
        }
    }

    #[inline]
    fn below(&self) -> Below<'_, Self> {
        match self {
            RNode::Leaf { block } => Below::Page(block),
            RNode::Internal { children, .. } => Below::Children(children),
        }
    }
}

impl RNode {
    pub(crate) fn new_leaf(points: Vec<Point>) -> Self {
        RNode::Leaf {
            block: Block::from_points(points),
        }
    }

    pub(crate) fn new_internal(children: Vec<RNode>) -> Self {
        let mut mbr = Rect::empty();
        for c in &children {
            mbr.expand_rect(&c.mbr());
        }
        RNode::Internal { mbr, children }
    }

    /// Finds a stored point with the coordinates of `q`.
    pub(crate) fn find(&self, q: Point) -> Option<Point> {
        match self {
            RNode::Leaf { block } => {
                if !block.mbr().contains(&q) {
                    return None;
                }
                block.find_exact(q.x, q.y)
            }
            RNode::Internal { mbr, children } => {
                if !mbr.contains(&q) {
                    return None;
                }
                children.iter().find_map(|c| c.find(q))
            }
        }
    }

    /// Removes the point with the id and coordinates of `p`, fixing MBRs
    /// along the path and dropping emptied children. Returns whether it
    /// was removed.
    pub(crate) fn remove(&mut self, p: Point) -> bool {
        match self {
            RNode::Leaf { block } => {
                if !block.mbr().contains(&p) {
                    return false;
                }
                block.remove_exact(&p)
            }
            RNode::Internal { mbr, children } => {
                if !mbr.contains(&p) {
                    return false;
                }
                for c in children.iter_mut() {
                    if c.remove(p) {
                        children.retain(|c| !c.mbr().is_empty());
                        let mut new_mbr = Rect::empty();
                        for c in children.iter() {
                            new_mbr.expand_rect(&c.mbr());
                        }
                        *mbr = new_mbr;
                        return true;
                    }
                }
                false
            }
        }
    }
}

/// A frontier entry of the best-first search, ordered by *ascending*
/// MINDIST (a min-heap via reversed `Ord`).
struct Frontier<'a, N> {
    dist2: f64,
    node: &'a N,
}

impl<N> PartialEq for Frontier<'_, N> {
    fn eq(&self, other: &Self) -> bool {
        self.dist2.total_cmp(&other.dist2) == Ordering::Equal
    }
}
impl<N> Eq for Frontier<'_, N> {}
impl<N> PartialOrd for Frontier<'_, N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> Ord for Frontier<'_, N> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist2.total_cmp(&self.dist2)
    }
}

/// Exact best-first kNN search (Hjaltason & Samet) over node MINDISTs,
/// streaming leaf pages through the branchless
/// [`elsi_spatial::scan::knn_scan`] kernel into the scratch pool.
///
/// `k` must already be clamped to the tree's point count. Results land in
/// `out` (cleared first) in the canonical `(dist², id)` order. Pruning
/// compares MINDIST against the pool's current k-th best — `r2` until k
/// points within it are held — *strictly*, so tied candidates are still
/// visited and the canonical order settles ties exactly. Emptied subtrees
/// are skipped by their empty MBR.
pub(crate) fn knn_best_first_into<N: MbrNode>(
    root: &N,
    q: Point,
    k: usize,
    r2: f64,
    scratch: &mut ScanScratch,
    out: &mut Vec<Point>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    let best = scratch.heap_within(k, r2);
    let mut frontier = BinaryHeap::new();
    frontier.push(Frontier {
        dist2: root.mbr().min_dist2(&q),
        node: root,
    });
    while let Some(entry) = frontier.pop() {
        let bound = best.worst_dist2();
        if entry.dist2 > bound {
            break;
        }
        match entry.node.below() {
            Below::Page(page) => page.knn_into(q.x, q.y, best),
            Below::Children(children) => {
                for node in children {
                    let mbr = node.mbr();
                    let dist2 = mbr.min_dist2(&q);
                    if !mbr.is_empty() && dist2 <= bound {
                        frontier.push(Frontier { dist2, node });
                    }
                }
            }
        }
    }
    out.extend(best.finish().iter().map(|e| e.point()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knn_best_first(root: &RNode, q: Point, k: usize) -> Vec<Point> {
        let mut out = Vec::new();
        knn_best_first_into(root, q, k, f64::INFINITY, &mut ScanScratch::new(), &mut out);
        out
    }

    fn grid_tree(side: usize, leaf: usize) -> (Vec<Point>, RNode) {
        let pts: Vec<Point> = (0..side * side)
            .map(|i| {
                Point::new(
                    i as u64,
                    (i % side) as f64 / side as f64,
                    (i / side) as f64 / side as f64,
                )
            })
            .collect();
        // Pack leaves row-major, one internal level.
        let leaves: Vec<RNode> = pts
            .chunks(leaf)
            .map(|c| RNode::new_leaf(c.to_vec()))
            .collect();
        (pts.clone(), RNode::new_internal(leaves))
    }

    #[test]
    fn window_into_is_exact() {
        let (pts, root) = grid_tree(16, 10);
        let w = Rect::new(0.2, 0.2, 0.55, 0.7);
        let mut got = Vec::new();
        root.window_into(&w, &mut got);
        let want = pts.iter().filter(|p| w.contains(p)).count();
        assert_eq!(got.len(), want);
        assert!(got.iter().all(|p| w.contains(p)));
    }

    #[test]
    fn find_and_remove() {
        let (pts, mut root) = grid_tree(8, 7);
        assert_eq!(root.find(pts[20]).unwrap().id, 20);
        assert!(root.remove(pts[20]));
        assert!(root.find(pts[20]).is_none());
        let mut left = Vec::new();
        root.window_into(&Rect::unit(), &mut left);
        assert_eq!(left.len(), 63);
        assert!(!root.remove(pts[20]));
    }

    #[test]
    fn knn_matches_brute_force() {
        let (pts, root) = grid_tree(12, 9);
        let q = Point::at(0.37, 0.61);
        let got = knn_best_first(&root, q, 8);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        assert_eq!(got.len(), 8);
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn knn_k_zero_and_oversized() {
        let (_, root) = grid_tree(4, 4);
        assert!(knn_best_first(&root, Point::at(0.5, 0.5), 0).is_empty());
        assert_eq!(knn_best_first(&root, Point::at(0.5, 0.5), 100).len(), 16);
    }
}
