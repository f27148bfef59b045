//! Z-order (Morton) curve encoding.
//!
//! The ZM index (Wang et al., MDM 2019) sorts points by their Z-curve values
//! and learns the resulting rank function. We use 32 bits per dimension,
//! giving a 64-bit code and a 2^32 × 2^32 implicit grid — far below the
//! `f64` coordinate resolution of any workload in the paper.

use super::convert;

/// Number of bits per dimension in a Morton code.
pub const MORTON_BITS: u32 = 32;

/// Spreads the lower 32 bits of `v` so that bit `i` moves to bit `2i`.
#[inline]
fn interleave_zeros(v: u32) -> u64 {
    let mut x = convert::widen(v);
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Inverse of [`interleave_zeros`]: collects every other bit.
#[inline]
fn compact_bits(v: u64) -> u32 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    convert::narrow(x)
}

/// Encodes grid cell `(ix, iy)` into its Morton code.
///
/// Bit `i` of `ix` lands at bit `2i`, bit `i` of `iy` at bit `2i + 1`;
/// i.e., y is the more significant dimension at every level, matching the
/// classic N-shaped Z-curve.
#[inline]
pub fn morton_encode(ix: u32, iy: u32) -> u64 {
    interleave_zeros(ix) | (interleave_zeros(iy) << 1)
}

/// Decodes a Morton code back into its `(ix, iy)` grid cell.
#[inline]
pub fn morton_decode(code: u64) -> (u32, u32) {
    (compact_bits(code), compact_bits(code >> 1))
}

/// Quantises a coordinate in `[0,1]` onto the `2^32` grid.
///
/// Out-of-range inputs are clamped; `1.0` maps to the last cell so that the
/// unit square is closed on both ends.
#[inline]
pub fn quantize(v: f64) -> u32 {
    convert::coord_to_cell(v, MORTON_BITS)
}

/// Dequantises a grid coordinate back to the cell's lower corner in `[0,1)`.
#[inline]
pub fn dequantize(v: u32) -> f64 {
    convert::cell_to_coord(v, MORTON_BITS)
}

/// Morton code of a point in the unit square.
#[inline]
pub fn morton_of(x: f64, y: f64) -> u64 {
    morton_encode(quantize(x), quantize(y))
}

/// The top `2 · bits` bits of [`morton_of`]`(x, y)`, for `bits ≤ 16`: the
/// cell of `(x, y)` on the `2^bits × 2^bits` grid. Each coordinate is
/// quantised to `bits` bits and only those are interleaved.
#[inline]
pub fn morton_cell(x: f64, y: f64, bits: u32) -> u32 {
    debug_assert!(bits <= 16, "a {bits}-bit cell does not fit 32 bits");
    spread16(convert::coord_to_cell(x, bits)) | spread16(convert::coord_to_cell(y, bits)) << 1
}

/// Spreads the lower 16 bits of `v` so that bit `i` moves to bit `2i`.
#[inline]
fn spread16(v: u32) -> u32 {
    let mut x = v & 0xFFFF;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

/// Normalises a Morton code to `[0,1)` for use as a model input key.
#[inline]
pub fn morton_to_unit(code: u64) -> f64 {
    code as f64 / 2.0f64.powi(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_matches_hand_computed_values() {
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(1, 0), 0b01);
        assert_eq!(morton_encode(0, 1), 0b10);
        assert_eq!(morton_encode(1, 1), 0b11);
        assert_eq!(morton_encode(2, 3), 0b1110);
        assert_eq!(morton_encode(u32::MAX, u32::MAX), u64::MAX);
    }

    #[test]
    fn decode_roundtrip_samples() {
        for &(x, y) in &[
            (0u32, 0u32),
            (1, 2),
            (12345, 67890),
            (u32::MAX, 0),
            (0, u32::MAX),
        ] {
            assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
        }
    }

    #[test]
    fn quantize_boundaries() {
        assert_eq!(quantize(0.0), 0);
        assert_eq!(quantize(1.0), u32::MAX);
        assert_eq!(quantize(-0.5), 0);
        assert_eq!(quantize(2.0), u32::MAX);
        assert!(quantize(0.5) >= (u32::MAX / 2) - 1);
    }

    #[test]
    fn morton_cell_is_the_top_of_morton_of() {
        // In-square, out-of-square, signed zeros, subnormals, the closed
        // end, infinities and NaN, in every pairing.
        let coords = [
            0.0,
            -0.0,
            5e-324,
            2.2e-308,
            1.0 / 2048.0,
            1.0 / 2048.0 - 1e-17,
            0.3,
            0.5,
            0.7,
            1.0 - 1e-16,
            1.0,
            -0.25,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let spread = (0..=300u32).map(|i| f64::from(i) / 300.0 + f64::from(i % 7) * 1e-6);
        let xs: Vec<f64> = coords.into_iter().chain(spread).collect();
        for &x in &xs {
            for &y in &xs {
                let want = morton_of(x, y) >> 42;
                assert_eq!(u64::from(morton_cell(x, y, 11)), want, "({x}, {y})");
            }
        }
    }

    #[test]
    fn unit_square_corners_hit_the_grid_corners() {
        // The closed unit square maps onto the full 2^32 × 2^32 grid: the
        // corners of the square land exactly on the corner cells.
        assert_eq!(morton_of(0.0, 0.0), 0);
        assert_eq!(morton_of(1.0, 1.0), u64::MAX);
        assert_eq!(morton_decode(morton_of(1.0, 0.0)), (u32::MAX, 0));
        assert_eq!(morton_decode(morton_of(0.0, 1.0)), (0, u32::MAX));
    }

    #[test]
    fn dequantize_inverts_max_grid_cell() {
        let corner = dequantize(u32::MAX);
        assert!(corner < 1.0);
        assert_eq!(quantize(corner), u32::MAX);
        assert_eq!(dequantize(0), 0.0);
    }

    #[test]
    fn morton_ordering_respects_quadrants() {
        // All points in the lower-left quadrant sort before any point in the
        // upper-right quadrant.
        let ll = morton_of(0.2, 0.3);
        let ur = morton_of(0.7, 0.8);
        assert!(ll < ur);
        // Upper-left (y high) beats lower-right (x high) because y owns the
        // more significant interleaved bits.
        let lr = morton_of(0.9, 0.1);
        let ul = morton_of(0.1, 0.9);
        assert!(lr < ul);
    }

    #[test]
    fn unit_normalisation_is_monotone() {
        let a = morton_to_unit(morton_of(0.1, 0.1));
        let b = morton_to_unit(morton_of(0.9, 0.9));
        assert!((0.0..1.0).contains(&a));
        assert!(a < b);
    }
}
