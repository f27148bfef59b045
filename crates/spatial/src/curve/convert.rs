//! Checked grid/coordinate conversions shared by the space-filling curves.
//!
//! Learned-index key mappings hinge on deterministic, well-defined
//! coordinate quantisation: a silently truncating `as` cast in a curve
//! encoder corrupts keys for out-of-range inputs instead of failing fast.
//! The workspace linter (`crates/analysis`, rule `truncating_cast`) bans raw
//! integer `as` casts everywhere under `crates/spatial/src/curve/` *except*
//! this module — every conversion goes through one of these helpers, each of
//! which documents its range contract and enforces it with `debug_assert!`.

/// Losslessly widens a 32-bit grid coordinate for 64-bit bit manipulation.
#[inline]
pub fn widen(v: u32) -> u64 {
    u64::from(v)
}

/// Narrows a value known to fit a 32-bit grid coordinate.
///
/// The curve decoders only call this on values they have already masked or
/// accumulated below `2^32`; the `debug_assert!` pins that invariant.
#[inline]
pub fn narrow(v: u64) -> u32 {
    debug_assert!(
        v <= widen(u32::MAX),
        "value {v} exceeds the 32-bit grid coordinate range"
    );
    (v & 0xFFFF_FFFF) as u32
}

/// Quantises a coordinate in `[0, 1]` onto a `2^bits` grid.
///
/// Out-of-range inputs are clamped; `1.0` maps to the last cell so the unit
/// interval is closed on both ends. This is the single float→integer
/// truncation point of the curve layer: the clamp bounds `scaled` to
/// `[0, max]` before the cast, so the truncation is total and documented.
#[inline]
pub fn coord_to_cell(v: f64, bits: u32) -> u32 {
    debug_assert!((1..=32).contains(&bits), "grid bits {bits} outside 1..=32");
    let cells = (1u64 << bits) as f64;
    let max = (1u64 << bits) - 1;
    let scaled = v.clamp(0.0, 1.0) * cells;
    if scaled >= max as f64 {
        narrow(max)
    } else {
        scaled as u32
    }
}

/// Dequantises a grid coordinate on a `2^bits` grid back to the cell's
/// lower corner in `[0, 1)`.
#[inline]
pub fn cell_to_coord(v: u32, bits: u32) -> f64 {
    debug_assert!((1..=32).contains(&bits), "grid bits {bits} outside 1..=32");
    debug_assert!(
        bits == 32 || (v >> bits) == 0,
        "cell {v} outside 2^{bits} grid"
    );
    f64::from(v) / (1u64 << bits) as f64
}

/// Table index of the 4-bit digits of `x` and `y` at bit `shift`: `x`'s
/// nibble high, `y`'s low, so always `< 256`.
#[inline]
pub fn nibble_pair(x: u32, y: u32, shift: u32) -> usize {
    debug_assert!(shift <= 28, "nibble shift {shift} past the 32-bit grid");
    ((((x >> shift) & 0xF) << 4) | ((y >> shift) & 0xF)) as usize
}

/// Index of a curve distance in a dense table of `2^(2·order)` cells.
///
/// Used by exhaustive curve tests; the `debug_assert!` guards 32-bit
/// targets, where a `u64` distance can exceed `usize`.
#[inline]
pub fn cell_index(d: u64) -> usize {
    debug_assert!(
        u64::try_from(usize::MAX).map_or(true, |max| d <= max),
        "curve distance {d} exceeds the usize range"
    );
    d as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widen_narrow_roundtrip_at_boundaries() {
        for v in [0u32, 1, u32::MAX - 1, u32::MAX] {
            assert_eq!(narrow(widen(v)), v);
        }
    }

    #[test]
    fn coord_to_cell_boundaries_every_order() {
        for bits in [1u32, 4, 16, 32] {
            let max = narrow((1u64 << bits) - 1);
            assert_eq!(coord_to_cell(0.0, bits), 0, "order {bits}: 0.0");
            assert_eq!(coord_to_cell(1.0, bits), max, "order {bits}: 1.0");
            // Clamping: out-of-range inputs land on the closed ends.
            assert_eq!(coord_to_cell(-3.5, bits), 0);
            assert_eq!(coord_to_cell(7.0, bits), max);
        }
    }

    #[test]
    fn coord_to_cell_midpoint() {
        // 0.5 lands on the first cell of the upper half.
        assert_eq!(coord_to_cell(0.5, 1), 1);
        assert_eq!(coord_to_cell(0.5, 16), 1 << 15);
        assert_eq!(coord_to_cell(0.5, 32), 1 << 31);
    }

    #[test]
    fn cell_to_coord_inverts_lower_corners() {
        for bits in [1u32, 8, 32] {
            assert_eq!(cell_to_coord(0, bits), 0.0);
            let max = narrow((1u64 << bits) - 1);
            let corner = cell_to_coord(max, bits);
            assert!(corner < 1.0);
            assert_eq!(coord_to_cell(corner, bits), max, "order {bits}");
        }
    }

    #[test]
    fn cell_index_covers_u32_range() {
        assert_eq!(cell_index(0), 0);
        assert_eq!(cell_index(widen(u32::MAX)), u32::MAX as usize);
    }
}
