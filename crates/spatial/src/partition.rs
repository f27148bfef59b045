//! Space partitioning: uniform grids.
//!
//! The RL building method (§V-B2) and LISA's substrate work over η×η
//! uniform grids. (RS's quadtree, Algorithm 2, lives with its only caller,
//! `elsi::methods::rs`.)

use crate::point::{Point, Rect};

/// A uniform `nx × ny` grid over the unit square.
///
/// Used by the RL building method (η×η state grid) and by the Grid file and
/// LISA substrates. Cells are addressed as `(ix, iy)` with `ix` along x.
#[derive(Debug, Clone, Copy)]
pub struct UniformGrid {
    nx: usize,
    ny: usize,
}

impl UniformGrid {
    /// Creates a grid with the given resolution.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid resolution must be positive");
        Self { nx, ny }
    }

    /// Square grid of side `eta`.
    pub fn square(eta: usize) -> Self {
        Self::new(eta, eta)
    }

    /// Grid width (cells along x).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (cells along y).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid has no cells (never true by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cell coordinates of a point (clamped to the grid).
    #[inline]
    pub fn cell_of(&self, p: Point) -> (usize, usize) {
        let ix = ((p.x * self.nx as f64) as isize).clamp(0, self.nx as isize - 1) as usize;
        let iy = ((p.y * self.ny as f64) as isize).clamp(0, self.ny as isize - 1) as usize;
        (ix, iy)
    }

    /// Row-major linear index of a cell.
    #[inline]
    pub fn index_of(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny);
        iy * self.nx + ix
    }

    /// Inverse of [`UniformGrid::index_of`].
    #[inline]
    pub fn coords_of(&self, idx: usize) -> (usize, usize) {
        (idx % self.nx, idx / self.nx)
    }

    /// Spatial extent of a cell.
    #[inline]
    pub fn cell_rect(&self, ix: usize, iy: usize) -> Rect {
        let w = 1.0 / self.nx as f64;
        let h = 1.0 / self.ny as f64;
        Rect::new(
            ix as f64 * w,
            iy as f64 * h,
            (ix + 1) as f64 * w,
            (iy + 1) as f64 * h,
        )
    }

    /// Centre point of a cell.
    #[inline]
    pub fn cell_center(&self, ix: usize, iy: usize) -> Point {
        let w = 1.0 / self.nx as f64;
        let h = 1.0 / self.ny as f64;
        Point::at((ix as f64 + 0.5) * w, (iy as f64 + 0.5) * h)
    }

    /// Linear indices of all cells whose extent intersects `r`.
    pub fn cells_overlapping(&self, r: &Rect) -> Vec<usize> {
        let lo = self.cell_of(Point::at(r.lo_x, r.lo_y));
        let hi = self.cell_of(Point::at(r.hi_x, r.hi_y));
        let mut out = Vec::with_capacity((hi.0 - lo.0 + 1) * (hi.1 - lo.1 + 1));
        for iy in lo.1..=hi.1 {
            for ix in lo.0..=hi.0 {
                out.push(self.index_of(ix, iy));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cell_of_clamps() {
        let g = UniformGrid::square(4);
        assert_eq!(g.cell_of(Point::at(0.0, 0.0)), (0, 0));
        assert_eq!(g.cell_of(Point::at(1.0, 1.0)), (3, 3));
        assert_eq!(g.cell_of(Point::at(-0.5, 2.0)), (0, 3));
        assert_eq!(g.cell_of(Point::at(0.49, 0.51)), (1, 2));
    }

    #[test]
    fn grid_index_roundtrip() {
        let g = UniformGrid::new(5, 3);
        for idx in 0..g.len() {
            let (ix, iy) = g.coords_of(idx);
            assert_eq!(g.index_of(ix, iy), idx);
        }
    }

    #[test]
    fn grid_cell_rect_contains_center() {
        let g = UniformGrid::square(8);
        for iy in 0..8 {
            for ix in 0..8 {
                let r = g.cell_rect(ix, iy);
                let c = g.cell_center(ix, iy);
                assert!(r.contains(&c));
            }
        }
    }

    #[test]
    fn grid_cells_overlapping_window() {
        let g = UniformGrid::square(4);
        let all = g.cells_overlapping(&Rect::unit());
        assert_eq!(all.len(), 16);
        let one = g.cells_overlapping(&Rect::new(0.1, 0.1, 0.2, 0.2));
        assert_eq!(one, vec![0]);
        let quad = g.cells_overlapping(&Rect::new(0.2, 0.2, 0.3, 0.3));
        assert_eq!(quad, vec![0, 1, 4, 5]);
    }
}
