//! Hilbert curve encoding.
//!
//! HRR (Qi et al., PVLDB 2018) bulk-loads an R-tree by sorting points in
//! Hilbert order, and RSMI uses Hilbert ordering inside its rank-space
//! partitions. The encoder applies the classic rotate-and-reflect rule
//! (Hamilton's compact Hilbert indices restricted to d = 2) as a 4-state
//! machine, four levels per read of a table that a `const fn` derives from
//! the one-bit rule; it is parameterised by the curve order (bits per
//! dimension).

use super::convert;

/// Default curve order used by the mappers (bits per dimension).
pub const HILBERT_ORDER: u32 = 16;

/// The one-bit rotate/reflect rule of the classic algorithm. `state` is
/// the orientation of the current quadrant (bit 0: x and y are swapped,
/// bit 1: both are complemented) and `(bx, by)` the cell's bits at this
/// level; returns the curve digit and the orientation of the sub-quadrant.
const fn step(state: u64, bx: bool, by: bool) -> (u64, u64) {
    let (rx, ry) = if state & 1 == 0 { (bx, by) } else { (by, bx) };
    let (rx, ry) = if state & 2 == 0 { (rx, ry) } else { (!rx, !ry) };
    match (rx, ry) {
        (false, false) => (0, state ^ 1),
        (false, true) => (1, state),
        (true, true) => (2, state),
        (true, false) => (3, state ^ 3),
    }
}

/// [`step`] four levels at a time, for all four states at once:
/// `TABLE[x_nibble << 4 | y_nibble]` holds one 16-bit entry per starting
/// state `s` at bit `16·s`, its low byte the four digits and its high byte
/// `16 ×` the final state, the shift that selects the next read's entry.
/// A read depends on the cell alone, so the four reads of an order-16 key
/// overlap and only the shifts wait on the state.
static TABLE: [u64; 256] = table();

const fn table() -> [u64; 256] {
    let mut table = [0; 256];
    let mut cells = 0;
    while cells < 256 {
        let mut start = 0;
        while start < 4 {
            let (mut state, mut digits, mut level) = (start, 0, 4);
            while level > 0 {
                level -= 1;
                let bx = (cells >> (4 + level)) & 1 == 1;
                let (digit, next) = step(state, bx, (cells >> level) & 1 == 1);
                (digits, state) = (digits << 2 | digit, next);
            }
            table[cells] |= (digits | state << 12) << (16 * start);
            start += 1;
        }
        cells += 1;
    }
    table
}

/// Encodes grid cell `(x, y)` on a `2^order × 2^order` grid into its Hilbert
/// distance. Both coordinates must be `< 2^order`; `order ≤ 32`.
///
/// The top `order % 4` levels take the one-bit rule each, the rest one
/// table read per four levels.
pub fn hilbert_encode(order: u32, x: u32, y: u32) -> u64 {
    debug_assert!((1..=32).contains(&order));
    debug_assert!(order == 32 || (x >> order) == 0, "x out of range");
    debug_assert!(order == 32 || (y >> order) == 0, "y out of range");
    let (mut state, mut d, mut level) = (0, 0, order);
    while level % 4 != 0 {
        level -= 1;
        let (digit, next) = step(state, (x >> level) & 1 == 1, (y >> level) & 1 == 1);
        (d, state) = (d << 2 | digit, next);
    }
    let mut shift = 16 * state;
    while level > 0 {
        level -= 4;
        let word = TABLE
            .get(convert::nibble_pair(x, y, level))
            .map_or(0, |&w| w);
        let entry = (word >> shift) & 0xFFFF;
        (d, shift) = (d << 8 | (entry & 0xFF), entry >> 8);
    }
    d
}

/// Decodes a Hilbert distance back into its `(x, y)` grid cell.
pub fn hilbert_decode(order: u32, d: u64) -> (u32, u32) {
    debug_assert!(order <= 32);
    let mut rx: u64;
    let mut ry: u64;
    let mut t = d;
    let mut x: u64 = 0;
    let mut y: u64 = 0;
    let mut s: u64 = 1;
    while s < (1u64 << order) {
        rx = 1 & (t / 2);
        ry = 1 & (t ^ rx);
        // Rotate back.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s <<= 1;
    }
    (convert::narrow(x), convert::narrow(y))
}

/// Quantises a coordinate in `[0,1]` onto the `2^order` Hilbert grid.
#[inline]
pub fn quantize(order: u32, v: f64) -> u32 {
    convert::coord_to_cell(v, order)
}

/// Hilbert distance of a point in the unit square at [`HILBERT_ORDER`].
#[inline]
pub fn hilbert_of(x: f64, y: f64) -> u64 {
    hilbert_encode(
        HILBERT_ORDER,
        quantize(HILBERT_ORDER, x),
        quantize(HILBERT_ORDER, y),
    )
}

/// Normalises a Hilbert distance at [`HILBERT_ORDER`] to `[0,1)`.
#[inline]
pub fn hilbert_to_unit(d: u64) -> f64 {
    d as f64 / (1u64 << (2 * HILBERT_ORDER)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The classic iterative rotate-and-reflect loop, one bit per level.
    fn reference_encode(order: u32, x: u32, y: u32) -> u64 {
        let n: u64 = 1u64 << order;
        let mut x = convert::widen(x);
        let mut y = convert::widen(y);
        let mut d: u64 = 0;
        let mut s: u64 = n >> 1;
        while s > 0 {
            let rx = u64::from((x & s) > 0);
            let ry = u64::from((y & s) > 0);
            d += s * s * ((3 * rx) ^ ry);
            if ry == 0 {
                if rx == 1 {
                    x = n - 1 - x;
                    y = n - 1 - y;
                }
                std::mem::swap(&mut x, &mut y);
            }
            s >>= 1;
        }
        d
    }

    #[test]
    fn table_encoder_equals_the_reference_loop_exhaustively_to_order_8() {
        for order in 1..=8 {
            for x in 0..(1u32 << order) {
                for y in 0..(1u32 << order) {
                    let want = reference_encode(order, x, y);
                    assert_eq!(
                        hilbert_encode(order, x, y),
                        want,
                        "order {order} ({x}, {y})"
                    );
                    assert_eq!(hilbert_decode(order, want), (x, y));
                }
            }
        }
    }

    #[test]
    fn table_encoder_equals_the_reference_loop_at_every_order() {
        let mut rng = StdRng::seed_from_u64(0x4811);
        for order in 1..=32 {
            let max = if order == 32 {
                u32::MAX
            } else {
                (1u32 << order) - 1
            };
            let corners = [(0, 0), (max, 0), (0, max), (max, max)];
            let random = (0..2000).map(|_| (rng.gen_range(0..=max), rng.gen_range(0..=max)));
            for (x, y) in corners.into_iter().chain(random) {
                let d = hilbert_encode(order, x, y);
                assert_eq!(d, reference_encode(order, x, y), "order {order} ({x}, {y})");
                assert_eq!(hilbert_decode(order, d), (x, y), "order {order} ({x}, {y})");
            }
        }
    }

    #[test]
    fn order1_is_the_u_shape() {
        // The order-1 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
        assert_eq!(hilbert_encode(1, 0, 0), 0);
        assert_eq!(hilbert_encode(1, 0, 1), 1);
        assert_eq!(hilbert_encode(1, 1, 1), 2);
        assert_eq!(hilbert_encode(1, 1, 0), 3);
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive_order4() {
        let order = 4;
        let mut seen = vec![false; 1 << (2 * order)];
        for x in 0..(1u32 << order) {
            for y in 0..(1u32 << order) {
                let d = hilbert_encode(order, x, y);
                assert_eq!(hilbert_decode(order, d), (x, y));
                assert!(!seen[convert::cell_index(d)], "duplicate hilbert index {d}");
                seen[convert::cell_index(d)] = true;
            }
        }
        assert!(seen.iter().all(|&v| v), "curve must be a bijection");
    }

    #[test]
    fn consecutive_indices_are_grid_neighbours() {
        // The defining property of the Hilbert curve: consecutive distances
        // map to cells at Manhattan distance exactly 1.
        let order = 5;
        for d in 0..((1u64 << (2 * order)) - 1) {
            let (x0, y0) = hilbert_decode(order, d);
            let (x1, y1) = hilbert_decode(order, d + 1);
            let manhattan = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(manhattan, 1, "d={d}: ({x0},{y0}) -> ({x1},{y1})");
        }
    }

    #[test]
    fn quantize_boundaries() {
        assert_eq!(quantize(16, 0.0), 0);
        assert_eq!(quantize(16, 1.0), (1 << 16) - 1);
        assert_eq!(quantize(16, -1.0), 0);
        assert_eq!(quantize(16, 2.0), (1 << 16) - 1);
    }

    #[test]
    fn unit_square_corners_hit_the_grid_corners() {
        // The closed unit square maps onto the full default-order grid.
        let max = (1u32 << HILBERT_ORDER) - 1;
        assert_eq!(hilbert_decode(HILBERT_ORDER, hilbert_of(0.0, 0.0)), (0, 0));
        assert_eq!(
            hilbert_decode(HILBERT_ORDER, hilbert_of(1.0, 1.0)),
            (max, max)
        );
        assert_eq!(
            hilbert_decode(HILBERT_ORDER, hilbert_of(1.0, 0.0)),
            (max, 0)
        );
        assert_eq!(
            hilbert_decode(HILBERT_ORDER, hilbert_of(0.0, 1.0)),
            (0, max)
        );
    }

    #[test]
    fn max_grid_cell_roundtrips_every_order() {
        for order in [1u32, 8, 16, 32] {
            let max = if order == 32 {
                u32::MAX
            } else {
                (1u32 << order) - 1
            };
            let d = hilbert_encode(order, max, max);
            assert_eq!(hilbert_decode(order, d), (max, max), "order {order}");
        }
    }

    #[test]
    fn unit_normalisation_in_range() {
        let v = hilbert_to_unit(hilbert_of(0.3, 0.7));
        assert!((0.0..1.0).contains(&v));
    }
}
