//! Two-dimensional points and axis-aligned rectangles.
//!
//! The paper's experiments are on 2-dimensional spatial data (OpenStreetMap
//! coordinates, taxi pickups, TPC-H `(quantity, shipdate)` pairs), so the
//! geometry substrate is specialised to `d = 2`. Coordinates are `f64` and
//! every generator in `elsi-data` normalises them to the unit square, which
//! is what the space-filling curves in [`crate::curve`] expect.

use std::fmt;

/// A point in 2-dimensional Euclidean space.
///
/// Points carry an `id` so that the ELSI update processor can track inserted
/// and deleted points in its delta structure (paper §IV-B2) and so query
/// results can be compared against ground truth sets in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Stable identifier of the point within its data set.
    pub id: u64,
    /// First coordinate.
    pub x: f64,
    /// Second coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point with the given identifier and coordinates.
    #[inline]
    pub fn new(id: u64, x: f64, y: f64) -> Self {
        Self { id, x, y }
    }

    /// Creates an anonymous point (id 0); convenient for query arguments
    /// where the identifier is irrelevant.
    #[inline]
    pub fn at(x: f64, y: f64) -> Self {
        Self { id: 0, x, y }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Used on hot kNN paths; callers that need the true distance take the
    /// square root once at the end.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}({:.6}, {:.6})", self.id, self.x, self.y)
    }
}

// The canonical comparators moved to `crate::order` (PR 7); re-exported
// here so existing `point::canonical_*` paths keep working.
pub use crate::order::{canonical_knn_cmp, canonical_point_key};

/// An axis-aligned rectangle `[lo_x, hi_x] × [lo_y, hi_y]`.
///
/// Rectangles double as window-query arguments and as minimum bounding
/// rectangles (MBRs) in the R-tree family and the block storage layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower bound on x (inclusive).
    pub lo_x: f64,
    /// Lower bound on y (inclusive).
    pub lo_y: f64,
    /// Upper bound on x (inclusive).
    pub hi_x: f64,
    /// Upper bound on y (inclusive).
    pub hi_y: f64,
}

impl Rect {
    /// Creates a rectangle from its bounds. Bounds are normalised so that
    /// `lo ≤ hi` on both axes.
    #[inline]
    pub fn new(lo_x: f64, lo_y: f64, hi_x: f64, hi_y: f64) -> Self {
        Self {
            lo_x: lo_x.min(hi_x),
            lo_y: lo_y.min(hi_y),
            hi_x: lo_x.max(hi_x),
            hi_y: lo_y.max(hi_y),
        }
    }

    /// The unit square `[0,1]²`, the canonical data space of all generators.
    #[inline]
    pub fn unit() -> Self {
        Self {
            lo_x: 0.0,
            lo_y: 0.0,
            hi_x: 1.0,
            hi_y: 1.0,
        }
    }

    /// An "empty" rectangle that is the identity for [`Rect::expand`].
    #[inline]
    pub fn empty() -> Self {
        Self {
            lo_x: f64::INFINITY,
            lo_y: f64::INFINITY,
            hi_x: f64::NEG_INFINITY,
            hi_y: f64::NEG_INFINITY,
        }
    }

    /// Whether no point has been added to this rectangle yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo_x > self.hi_x || self.lo_y > self.hi_y
    }

    /// A square window of the given area fraction of the unit square,
    /// centred at `c` and clamped to the unit square. Window-query workloads
    /// in the paper are expressed as a percentage of the data space area
    /// (e.g., 0.01% in Fig. 12).
    pub fn window_around(c: Point, area_fraction: f64) -> Self {
        let side = area_fraction.max(0.0).sqrt();
        let half = side / 2.0;
        Self::new(
            (c.x - half).max(0.0),
            (c.y - half).max(0.0),
            (c.x + half).min(1.0),
            (c.y + half).min(1.0),
        )
    }

    /// Whether `p` lies inside the rectangle (bounds inclusive).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.lo_x && p.x <= self.hi_x && p.y >= self.lo_y && p.y <= self.hi_y
    }

    /// Whether `(x, y)` lies *strictly* inside the rectangle, touching no
    /// edge. A strictly interior point cannot define any MBR edge, which
    /// is what lets block removals skip the O(n) MBR recompute.
    #[inline]
    pub fn strictly_inside(&self, x: f64, y: f64) -> bool {
        x > self.lo_x && x < self.hi_x && y > self.lo_y && y < self.hi_y
    }

    /// Whether `other` lies fully inside this rectangle.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo_x <= other.lo_x
            && self.lo_y <= other.lo_y
            && self.hi_x >= other.hi_x
            && self.hi_y >= other.hi_y
    }

    /// The whole plane, `[-∞, ∞]²`: the MBR a non-finite coordinate
    /// poisons a page's MBR to ([`Rect::expand_page`]).
    pub const ALL: Rect = Rect {
        lo_x: f64::NEG_INFINITY,
        lo_y: f64::NEG_INFINITY,
        hi_x: f64::INFINITY,
        hi_y: f64::INFINITY,
    };

    /// Grows a page MBR to include `p` — the MBR rule of [`Block`] pages
    /// and of sorted pages' stripes. [`Rect::expand`]'s `f64::min`/`max`
    /// skip NaN, so they would leave such a point outside an MBR that
    /// claims to bound it; here a point with a non-finite coordinate
    /// poisons the MBR to [`Rect::ALL`] for good instead, which every
    /// window intersects and none [covers](Rect::covers): the page's
    /// points are always tested, never appended unseen.
    ///
    /// [`Block`]: crate::Block
    #[inline]
    pub fn expand_page(&mut self, p: &Point) {
        if p.x.is_finite() && p.y.is_finite() {
            self.expand(p);
        } else {
            *self = Rect::ALL;
        }
    }

    /// Whether every point of a page whose MBR is `page` (grown by
    /// [`Rect::expand_page`]) lies in `self`, so the page may be appended
    /// without testing a point: `page` is finite and inside `self`. A
    /// poisoned or empty MBR is never covered.
    #[inline]
    pub fn covers(&self, page: &Rect) -> bool {
        page.lo_x.is_finite() && self.contains_rect(page)
    }

    /// Whether the two rectangles overlap (boundary contact counts).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo_x <= other.hi_x
            && other.lo_x <= self.hi_x
            && self.lo_y <= other.hi_y
            && other.lo_y <= self.hi_y
    }

    /// Area of the rectangle. Empty rectangles have zero area.
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.hi_x - self.lo_x) * (self.hi_y - self.lo_y)
        }
    }

    /// Half-perimeter ("margin") of the rectangle; the R*-tree split
    /// heuristic minimises this quantity.
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.hi_x - self.lo_x) + (self.hi_y - self.lo_y)
        }
    }

    /// Grows the rectangle to include `p`.
    #[inline]
    pub fn expand(&mut self, p: &Point) {
        self.lo_x = self.lo_x.min(p.x);
        self.lo_y = self.lo_y.min(p.y);
        self.hi_x = self.hi_x.max(p.x);
        self.hi_y = self.hi_y.max(p.y);
    }

    /// Grows the rectangle to include `other`.
    #[inline]
    pub fn expand_rect(&mut self, other: &Rect) {
        if other.is_empty() {
            return;
        }
        self.lo_x = self.lo_x.min(other.lo_x);
        self.lo_y = self.lo_y.min(other.lo_y);
        self.hi_x = self.hi_x.max(other.hi_x);
        self.hi_y = self.hi_y.max(other.hi_y);
    }

    /// The union of two rectangles.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        let mut r = *self;
        r.expand_rect(other);
        r
    }

    /// Area of the intersection of two rectangles (zero if disjoint).
    #[inline]
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.hi_x.min(other.hi_x) - self.lo_x.max(other.lo_x)).max(0.0);
        let h = (self.hi_y.min(other.hi_y) - self.lo_y.max(other.lo_y)).max(0.0);
        w * h
    }

    /// Minimum bounding rectangle of a point slice.
    pub fn mbr_of(points: &[Point]) -> Rect {
        let mut r = Rect::empty();
        for p in points {
            r.expand(p);
        }
        r
    }

    /// Centre of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::at((self.lo_x + self.hi_x) / 2.0, (self.lo_y + self.hi_y) / 2.0)
    }

    /// The padded bounding box of the closed ball `{p : dist²(q, p) ≤ r2}`
    /// — the one `r²` → box conversion of the kNN paths.
    ///
    /// Every point whose *computed* [`Point::dist2`] to `q` is `≤ r2` lies
    /// inside, ties at exactly `r2` included. `r2.sqrt()` and the squares
    /// inside `dist2` each round once, so the radius is padded outward by
    /// a few ulps (plus `√MIN_POSITIVE`, below which a coordinate
    /// difference squares to zero); the edges `q ± r` may then round
    /// freely, because rounding is monotone and the points' coordinates
    /// are themselves floats. Nothing is clamped: `r2 = ∞` gives the whole
    /// plane.
    #[inline]
    pub fn ball_box(q: Point, r2: f64) -> Self {
        let r = r2.sqrt();
        let r = r + r * (4.0 * f64::EPSILON) + f64::MIN_POSITIVE.sqrt();
        Self {
            lo_x: q.x - r,
            lo_y: q.y - r,
            hi_x: q.x + r,
            hi_y: q.y + r,
        }
    }

    /// Squared minimum distance from `p` to the rectangle (zero if inside).
    /// This is the standard MINDIST bound used by best-first kNN search.
    #[inline]
    pub fn min_dist2(&self, p: &Point) -> f64 {
        let dx = if p.x < self.lo_x {
            self.lo_x - p.x
        } else if p.x > self.hi_x {
            p.x - self.hi_x
        } else {
            0.0
        };
        let dy = if p.y < self.lo_y {
            self.lo_y - p.y
        } else if p.y > self.hi_y {
            p.y - self.hi_y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::at(0.0, 0.0);
        let b = Point::at(3.0, 4.0);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn rect_normalises_bounds() {
        let r = Rect::new(1.0, 1.0, 0.0, 0.0);
        assert_eq!(r.lo_x, 0.0);
        assert_eq!(r.hi_y, 1.0);
    }

    #[test]
    fn rect_contains_boundary() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(&Point::at(0.0, 0.0)));
        assert!(r.contains(&Point::at(1.0, 1.0)));
        assert!(r.contains(&Point::at(0.5, 0.5)));
        assert!(!r.contains(&Point::at(1.0 + 1e-12, 0.5)));
    }

    #[test]
    fn rect_intersects() {
        let a = Rect::new(0.0, 0.0, 0.5, 0.5);
        let b = Rect::new(0.5, 0.5, 1.0, 1.0);
        let c = Rect::new(0.6, 0.6, 1.0, 1.0);
        assert!(a.intersects(&b)); // boundary contact
        assert!(!a.intersects(&c));
        assert!(a.intersects(&a));
    }

    #[test]
    fn rect_area_margin() {
        let r = Rect::new(0.0, 0.0, 2.0, 3.0);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.margin(), 5.0);
        assert_eq!(Rect::empty().area(), 0.0);
        assert_eq!(Rect::empty().margin(), 0.0);
    }

    #[test]
    fn rect_expand_and_union() {
        let mut r = Rect::empty();
        assert!(r.is_empty());
        r.expand(&Point::at(0.25, 0.75));
        assert!(!r.is_empty());
        assert!(r.contains(&Point::at(0.25, 0.75)));
        r.expand(&Point::at(0.5, 0.25));
        assert_eq!(r, Rect::new(0.25, 0.25, 0.5, 0.75));

        let u = r.union(&Rect::new(0.9, 0.9, 1.0, 1.0));
        assert!(u.contains_rect(&r));
        assert!(u.contains(&Point::at(0.95, 0.95)));
    }

    #[test]
    fn rect_union_with_empty_is_identity() {
        let r = Rect::new(0.1, 0.2, 0.3, 0.4);
        assert_eq!(r.union(&Rect::empty()), r);
    }

    #[test]
    fn rect_intersection_area() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(0.5, 0.5, 1.5, 1.5);
        assert!((a.intersection_area(&b) - 0.25).abs() < 1e-12);
        let c = Rect::new(2.0, 2.0, 3.0, 3.0);
        assert_eq!(a.intersection_area(&c), 0.0);
    }

    #[test]
    fn window_around_has_requested_area() {
        let w = Rect::window_around(Point::at(0.5, 0.5), 0.01);
        assert!((w.area() - 0.01).abs() < 1e-12);
        // Clamped at corners: area may shrink but never exceeds the request.
        let w2 = Rect::window_around(Point::at(0.0, 0.0), 0.01);
        assert!(w2.area() <= 0.01 + 1e-12);
        assert!(w2.lo_x >= 0.0 && w2.lo_y >= 0.0);
    }

    #[test]
    fn min_dist2_inside_is_zero() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.min_dist2(&Point::at(0.5, 0.5)), 0.0);
        assert_eq!(r.min_dist2(&Point::at(2.0, 0.5)), 1.0);
        assert_eq!(r.min_dist2(&Point::at(2.0, 2.0)), 2.0);
    }

    /// `n` representable steps from `v` (towards +∞ for positive `n`).
    fn step(v: f64, n: i32) -> f64 {
        (0..n.abs()).fold(v, |v, _| if n > 0 { v.next_up() } else { v.next_down() })
    }

    #[test]
    fn ball_box_holds_every_point_within_r2() {
        let centres = [
            Point::at(0.5, 0.5),
            Point::at(0.1, 0.9),
            Point::at(0.0, 1.0),
            Point::at(-0.3, 1.7),
            Point::at(0.333_333_333_333, 0.718_281_828),
        ];
        let radii = [0.0, 1e-300, 1e-12, 3e-5, 0.01, 0.137, 0.5, 2.0];
        let mut on_the_rim = 0;
        for q in centres {
            for r in radii {
                // r² as the heap reports it: the computed dist² of a point
                // at distance r along a diagonal, an axis, or in between.
                for (ux, uy) in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6)] {
                    let r2 = q.dist2(&Point::at(q.x + r * ux, q.y + r * uy));
                    let ball = Rect::ball_box(q, r2);
                    // Candidates ±2 ulps around each edge of the unpadded
                    // box, the other coordinate on the centre line.
                    let e = r2.sqrt();
                    for n in -2..=2 {
                        for p in [
                            Point::at(step(q.x - e, n), q.y),
                            Point::at(step(q.x + e, n), q.y),
                            Point::at(q.x, step(q.y - e, n)),
                            Point::at(q.x, step(q.y + e, n)),
                        ] {
                            if q.dist2(&p) <= r2 {
                                on_the_rim += 1;
                                assert!(ball.contains(&p), "q={q:?} r2={r2:e} lost {p:?}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            on_the_rim > 500,
            "the sweep must reach the rim: {on_the_rim}"
        );
        // Nothing is clamped, and an infinite radius is the whole plane.
        let all = Rect::ball_box(Point::at(0.5, 0.5), f64::INFINITY);
        assert!(all.contains(&Point::at(-1e300, 1e300)));
        // Coordinate differences too small to square still tie at zero.
        assert!(Rect::ball_box(Point::at(0.0, 0.0), 0.0).contains(&Point::at(1e-170, -1e-170)));
    }

    #[test]
    fn mbr_of_points() {
        let pts = [
            Point::at(0.2, 0.8),
            Point::at(0.4, 0.1),
            Point::at(0.9, 0.5),
        ];
        let r = Rect::mbr_of(&pts);
        assert_eq!(r, Rect::new(0.2, 0.1, 0.9, 0.8));
        for p in &pts {
            assert!(r.contains(p));
        }
    }
}
