//! Grid: a regular-grid file (Nievergelt et al., TODS 1984), as configured
//! in the paper: a `√(n/B) × √(n/B)` grid so each cell holds `B` points on
//! average, with a two-level structure — every cell keeps an array of
//! MBR-tracked data blocks (paper §VII-A and the Fig. 8 discussion).
//!
//! Construction inserts points one at a time, choosing the block with the
//! least MBR enlargement inside the cell and splitting full blocks; this is
//! exactly the procedure the paper blames for Grid's slow build on the
//! heavily skewed NYC data (dense cells accumulate many blocks).

use crate::traits::{knn_seeded_into, SpatialIndex};
use elsi_spatial::{Block, KnnHeap, Point, Rect, ScanScratch, UniformGrid, DEFAULT_BLOCK_SIZE};

/// Grid configuration.
#[derive(Debug, Clone, Copy)]
pub struct GridConfig {
    /// Points per block (`B`; paper: 100).
    pub block_size: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }
}

/// The grid-file index.
pub struct GridIndex {
    grid: UniformGrid,
    cells: Vec<Vec<Block>>,
    block_size: usize,
    n: usize,
}

impl GridIndex {
    /// Builds a grid over `points` with `√(n/B)` cells per side.
    pub fn build(points: Vec<Point>, cfg: &GridConfig) -> Self {
        assert!(cfg.block_size >= 1);
        let n = points.len();
        let side = ((n as f64 / cfg.block_size as f64).sqrt().ceil() as usize).max(1);
        let grid = UniformGrid::square(side);
        let mut idx = Self {
            grid,
            cells: vec![Vec::new(); grid.len()],
            block_size: cfg.block_size,
            n: 0,
        };
        for p in points {
            idx.insert(p);
        }
        idx
    }

    fn insert_into_cell(&mut self, cell: usize, p: Point) {
        let blocks = &mut self.cells[cell];
        // Least-MBR-enlargement block with room.
        let mut best: Option<usize> = None;
        let mut best_enl = f64::INFINITY;
        for (i, b) in blocks.iter().enumerate() {
            if b.len() >= self.block_size {
                continue;
            }
            let mut grown = b.mbr();
            grown.expand(&p);
            let enl = grown.area() - b.mbr().area();
            if enl < best_enl {
                best_enl = enl;
                best = Some(i);
            }
        }
        match best {
            Some(i) => blocks[i].push(p),
            None => {
                let mut b = Block::new();
                b.push(p);
                blocks.push(b);
            }
        }
    }

    /// Offers the blocks of cell `(ix, iy)` that can still beat the heap's
    /// k-th distance (strict MBR pruning, so ties survive).
    fn knn_offer_cell(&self, q: Point, (ix, iy): (usize, usize), heap: &mut KnnHeap) {
        let blocks = self.cells.get(self.grid.index_of(ix, iy));
        for b in blocks.into_iter().flatten() {
            if b.mbr().min_dist2(&q) <= heap.worst_dist2() {
                b.knn_into(q.x, q.y, heap);
            }
        }
    }
}

/// The cells `lo..=hi` (per axis) of a grid, row by row.
fn cells_between(lo: (usize, usize), hi: (usize, usize)) -> impl Iterator<Item = (usize, usize)> {
    (lo.1..=hi.1).flat_map(move |iy| (lo.0..=hi.0).map(move |ix| (ix, iy)))
}

impl SpatialIndex for GridIndex {
    fn len(&self) -> usize {
        self.n
    }

    fn point_query(&self, q: Point) -> Option<Point> {
        let (ix, iy) = self.grid.cell_of(q);
        let cell = self.grid.index_of(ix, iy);
        for b in &self.cells[cell] {
            if !b.mbr().contains(&q) {
                continue;
            }
            if let Some(p) = b.find_exact(q.x, q.y) {
                return Some(p);
            }
        }
        None
    }

    fn window_query_into(&self, w: &Rect, _scratch: &mut ScanScratch, out: &mut Vec<Point>) {
        out.clear();
        for cell in self.grid.cells_overlapping(w) {
            for b in &self.cells[cell] {
                b.window_scan_into(w, out);
            }
        }
    }

    fn knn_within_into(
        &self,
        q: Point,
        k: usize,
        r2: f64,
        scratch: &mut ScanScratch,
        out: &mut Vec<Point>,
    ) {
        let (cx, cy) = self.grid.cell_of(q);
        // Chebyshev cell distance from the query's cell.
        let ring_of = |(ix, iy): (usize, usize)| ix.abs_diff(cx).max(iy.abs_diff(cy));
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        knn_seeded_into(
            q,
            k.min(self.n),
            r2,
            scratch,
            out,
            |heap| {
                // The query's cell, then square rings of cells around it
                // until `k` points are held.
                let mut ring = 0;
                loop {
                    let lo = (cx.saturating_sub(ring), cy.saturating_sub(ring));
                    let hi = ((cx + ring).min(nx - 1), (cy + ring).min(ny - 1));
                    for cell in cells_between(lo, hi).filter(|&c| ring_of(c) == ring) {
                        self.knn_offer_cell(q, cell, heap);
                    }
                    if heap.len() == heap.k() || ring >= nx.max(ny) {
                        return ring;
                    }
                    ring += 1;
                }
            },
            |seeded, ball, heap| {
                // The ball box's cells outside the seeded rings.
                let lo = self.grid.cell_of(Point::at(ball.lo_x, ball.lo_y));
                let hi = self.grid.cell_of(Point::at(ball.hi_x, ball.hi_y));
                for cell in cells_between(lo, hi).filter(|&c| ring_of(c) > seeded) {
                    self.knn_offer_cell(q, cell, heap);
                }
            },
        );
    }

    fn insert(&mut self, p: Point) {
        let (ix, iy) = self.grid.cell_of(p);
        let cell = self.grid.index_of(ix, iy);
        self.insert_into_cell(cell, p);
        self.n += 1;
    }

    fn delete(&mut self, p: Point) -> bool {
        let (ix, iy) = self.grid.cell_of(p);
        let cell = self.grid.index_of(ix, iy);
        for b in &mut self.cells[cell] {
            if b.remove_exact(&p) {
                self.n -= 1;
                return true;
            }
        }
        false
    }

    fn name(&self) -> &'static str {
        "Grid"
    }

    fn depth(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsi_data::gen::{nyc_like, uniform};

    #[test]
    fn build_and_exact_queries() {
        let pts = uniform(1000, 31);
        let idx = GridIndex::build(pts.clone(), &GridConfig { block_size: 20 });
        assert_eq!(idx.len(), 1000);
        for p in pts.iter().step_by(9) {
            assert_eq!(idx.point_query(*p).unwrap().id, p.id);
        }
        let w = Rect::new(0.33, 0.12, 0.78, 0.56);
        let got = idx.window_query(&w);
        let want = pts.iter().filter(|p| w.contains(p)).count();
        assert_eq!(got.len(), want);
        assert!(got.iter().all(|p| w.contains(p)));
    }

    #[test]
    fn skewed_cells_accumulate_blocks() {
        let pts = nyc_like(2000, 3);
        let idx = GridIndex::build(pts, &GridConfig { block_size: 20 });
        let max_blocks = idx.cells.iter().map(Vec::len).max().unwrap();
        assert!(
            max_blocks > 3,
            "hotspot cells must hold several blocks, got {max_blocks}"
        );
    }

    #[test]
    fn knn_exact() {
        let pts = uniform(600, 8);
        let idx = GridIndex::build(pts.clone(), &GridConfig::default());
        let q = Point::at(0.2, 0.9);
        let got = idx.knn_query(q, 9);
        let mut want = pts.clone();
        want.sort_by(|a, b| q.dist2(a).total_cmp(&q.dist2(b)));
        assert_eq!(got.len(), 9);
        for (g, w) in got.iter().zip(&want) {
            assert!((q.dist(g) - q.dist(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut idx = GridIndex::build(uniform(100, 1), &GridConfig::default());
        let p = Point::new(999, 0.111, 0.222);
        idx.insert(p);
        assert_eq!(idx.len(), 101);
        assert!(idx.point_query(p).is_some());
        assert!(idx.delete(p));
        assert!(idx.point_query(p).is_none());
        assert!(!idx.delete(p));
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn empty_grid() {
        let idx = GridIndex::build(Vec::new(), &GridConfig::default());
        assert!(idx.is_empty());
        assert!(idx.point_query(Point::at(0.5, 0.5)).is_none());
        assert!(idx.window_query(&Rect::unit()).is_empty());
    }
}
