//! Total orderings for floating-point keys.
//!
//! Every comparison of `f64` keys in the workspace must be *total*:
//! `partial_cmp(..).unwrap()` turns a single NaN — one bad coordinate, one
//! 0/0 in a distance ratio — into a panic inside a sort, and under rayon
//! that poisons shared state on every worker. The `float_order` rule in
//! `crates/analysis` bans `.partial_cmp()` workspace-wide; these helpers
//! are the sanctioned replacements.
//!
//! `total_cmp` implements the IEEE 754 `totalOrder` predicate: NaNs sort
//! to the ends (negative NaN first, positive NaN last) instead of
//! panicking or silently equating, and `-0.0 < +0.0`. For point results
//! the canonical `(dist², id)` comparator additionally pins tie order, so
//! "the same result set" means "bit-identical vectors" across index
//! structures, shard layouts and thread counts.

use crate::curve::morton_of;
use crate::point::Point;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Total order on `f64` keys of `T`: `xs.sort_by(by_f64_key(|t| t.cost))`,
/// `it.max_by(by_f64_key(|t| t.gain))`. NaN keys sort high instead of
/// panicking.
#[inline]
pub fn by_f64_key<T, F: Fn(&T) -> f64>(key: F) -> impl Fn(&T, &T) -> Ordering {
    move |a, b| key(a).total_cmp(&key(b))
}

/// Canonical identity key of a stored point: id first, then coordinate
/// bits. Sorting result sets by this key makes "the same result set" mean
/// "bit-identical vectors" across index structures, shard layouts and
/// thread counts.
#[inline]
pub fn canonical_point_key(p: &Point) -> (u64, u64, u64) {
    (p.id, p.x.to_bits(), p.y.to_bits())
}

/// Below this many points a radix pass loses to the comparison sort
/// whatever the ids: resetting and prefix-summing the histogram is paid per
/// pass, not per point (measured: 1.15 vs 1.30 µs at 128, 0.77 vs 0.37 µs
/// at 32).
const RADIX_MIN_LEN: usize = 128;

/// Widest radix digit: 2¹¹ `u32` counters are 8 KB, inside L1 and cheap to
/// reset per pass (`usize` counters cost 0.3 µs more at the cutoff).
const DIGIT_BITS: u32 = 11;

/// Sorts `points` by [`canonical_point_key`]: the same vector, bit for bit,
/// as `points.sort_by_key(canonical_point_key)`.
///
/// Long runs take a stable LSD radix sort over the id bits that vary
/// within the run, ping-ponging through `scratch` — grown to the run's
/// length and kept, so a pooled buffer makes the steady state
/// allocation-free. Stable digit passes leave the run in id order; each
/// group of equal ids is then put in `(x bits, y bits)` order, which
/// together is the lexicographic order of the full key. Short runs, and
/// runs whose ids vary in more digits than a comparison sort costs, take
/// `sort_unstable_by_key` — the key covers every field, so equal keys are
/// identical points and stability is moot.
// lint:hot_path
pub fn sort_canonical(points: &mut [Point], scratch: &mut Vec<Point>) {
    let n = points.len();
    let (any, all) = points
        .iter()
        .fold((0, u64::MAX), |(any, all), p| (any | p.id, all & p.id));
    let varying = any & !all;
    // The varying bits span `lo..lo + span`, cut into `passes` equal digits.
    let lo = varying.trailing_zeros();
    let span = (u64::BITS - varying.leading_zeros()).saturating_sub(lo);
    let passes = span.div_ceil(DIGIT_BITS);
    let width = span.div_ceil(passes.max(1));
    // Measured break-even: every further pass needs four times the points
    // (2 passes from 128, 3 from 512, … 6 from 32 768). The pass counts
    // positions in `u32`.
    if n < RADIX_MIN_LEN || n > u32::MAX as usize || n.ilog2() < 2 * passes + 3 {
        points.sort_unstable_by_key(canonical_point_key);
        return;
    }
    scratch.resize(n, Point::at(0.0, 0.0));
    let (mut src, mut dst) = (&mut *points, scratch.as_mut_slice());
    let mut in_scratch = false;
    for shift in (0..passes).map(|i| lo + i * width) {
        let mask = (varying >> shift) & ((1 << width) - 1);
        if mask == 0 {
            continue;
        }
        let mut next = [0u32; 1 << DIGIT_BITS];
        let next = next.get_mut(..=mask as usize).unwrap_or_default();
        radix_pass(src, dst, next, |_, p| ((p.id >> shift) & mask) as usize);
        std::mem::swap(&mut src, &mut dst);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        dst.copy_from_slice(src);
    }
    for ties in points.chunk_by_mut(|a, b| a.id == b.id) {
        if ties.len() > 1 {
            ties.sort_unstable_by_key(canonical_point_key);
        }
    }
}

/// The last copy of each id in `points`, in arrival order: the live set of
/// `points` inserted in turn, each insert replacing its id's live copy.
/// Unique ids come back unchanged, in one pass when they ascend.
pub fn last_per_id(mut points: Vec<Point>) -> Vec<Point> {
    if points.is_sorted_by(|a, b| a.id < b.id) {
        return points;
    }
    let last: HashMap<u64, usize> = points.iter().zip(0..).map(|(p, i)| (p.id, i)).collect();
    let mut arrival = 0..;
    points.retain(|p| last.get(&p.id) == arrival.next().as_ref());
    points
}

/// Positions `0..n` of a batch in Z-order of their centres: ascending
/// top 22 bits of [`morton_of`] — the cell of a 2¹¹ × 2¹¹ grid over the
/// unit square — with the cell's queries in position order, so the order
/// is a pure function of the batch. Two stable 11-bit counting passes,
/// none for a batch already in that order; out-of-square and NaN centres
/// take the clamped cell `morton_of` gives them.
pub fn z_order(centres: impl ExactSizeIterator<Item = Point>) -> Vec<usize> {
    // One word per query: its cell in the top 22 bits, its position in the
    // low 42 — more queries than a batch can hold in memory.
    const CELL_SHIFT: u32 = u64::BITS - 2 * DIGIT_BITS;
    const POSITION: u64 = (1 << CELL_SHIFT) - 1;
    const DIGIT: u64 = (1 << DIGIT_BITS) - 1;
    let mut keys: Vec<u64> = centres
        .zip(0u64..)
        .map(|(c, i)| morton_of(c.x, c.y) & !POSITION | i & POSITION)
        .collect();
    // A batch already in Z-order has ascending keys and keeps its order.
    if !keys.is_sorted() {
        let digit = |key: &u64, shift: u32| ((key >> shift) & DIGIT) as usize;
        let (lo, hi) = (CELL_SHIFT, CELL_SHIFT + DIGIT_BITS);
        let mut spare = vec![0; keys.len()];
        let mut next = [0; 1 << DIGIT_BITS];
        radix_pass(&keys, &mut spare, &mut next, |_, key| digit(key, lo));
        let mut next = [0; 1 << DIGIT_BITS];
        radix_pass(&spare, &mut keys, &mut next, |_, key| digit(key, hi));
    }
    let position = |key| (key & POSITION) as usize;
    keys.into_iter().map(position).collect()
}

/// One stable counting-sort pass of `src` into `dst`: the element at
/// position `i` goes to the run of its digit `digit(i, element)`, runs in
/// digit order, arrival order within a run. `next` holds one zeroed
/// counter per digit and is left holding the end of each digit's run; an
/// element whose digit is past its end is dropped. Counts are `u32`:
/// `src` must hold fewer than 2³² elements. The one counting-pass body of
/// the workspace: [`sort_canonical`]'s id digits, [`z_order`]'s cells and
/// the kNN pool's distance buckets.
pub(crate) fn radix_pass<T: Copy>(
    src: &[T],
    dst: &mut [T],
    next: &mut [u32],
    digit: impl Fn(usize, &T) -> usize,
) {
    for (i, t) in src.iter().enumerate() {
        if let Some(count) = next.get_mut(digit(i, t)) {
            *count += 1;
        }
    }
    // Counts to start offsets.
    let mut start = 0;
    for count in next.iter_mut() {
        let run = *count;
        *count = start;
        start += run;
    }
    for (i, t) in src.iter().enumerate() {
        if let Some(at) = next.get_mut(digit(i, t)) {
            if let Some(slot) = dst.get_mut(*at as usize) {
                *slot = *t;
            }
            *at += 1;
        }
    }
}

/// Canonical kNN order around `q`: ascending squared distance, ties broken
/// by [`canonical_point_key`]. Total (uses `total_cmp`), so equal result
/// *sets* sort into bit-identical vectors. Every kNN producer in the
/// workspace — the delta overlay, the per-index queries it merges, and the
/// cross-shard merge in `elsi-serve` — must break distance ties with this
/// order so monolith and sharded answers stay comparable.
#[inline]
pub fn canonical_knn_cmp(q: Point, a: &Point, b: &Point) -> Ordering {
    q.dist2(a)
        .total_cmp(&q.dist2(b))
        .then_with(|| canonical_point_key(a).cmp(&canonical_point_key(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn by_f64_key_is_total_under_nan() {
        let mut xs = [(2.0, 'b'), (f64::NAN, 'n'), (1.0, 'a')];
        xs.sort_by(by_f64_key(|t: &(f64, char)| t.0));
        assert_eq!(xs[0].1, 'a');
        assert_eq!(xs[1].1, 'b');
        assert!(xs[2].0.is_nan(), "NaN sorts last, no panic");
    }

    #[test]
    fn by_f64_key_orders_negative_zero_first() {
        let mut xs = [0.0_f64, -0.0];
        xs.sort_by(by_f64_key(|x: &f64| *x));
        assert!(xs[0].is_sign_negative());
    }

    /// `n` points with ids from `id(i)` in a scrambled arrival order;
    /// coordinates repeat, and include `±0.0` and two NaN bit patterns, so
    /// equal ids meet equal and unequal coordinates.
    fn scrambled(n: usize, id: impl Fn(u64) -> u64) -> Vec<Point> {
        const COORDS: [f64; 7] = [
            0.25,
            -0.0,
            0.0,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            0.75,
            1.0,
        ];
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut coord = || {
            let r = rng.gen_range(0..8000usize);
            COORDS.get(r % 8).copied().unwrap_or(r as f64 / 8000.0)
        };
        let mut pts: Vec<Point> = (0..n as u64)
            .map(|i| Point::new(id(i), coord(), coord()))
            .collect();
        pts.shuffle(&mut StdRng::seed_from_u64(7));
        pts
    }

    /// A named id assignment: the id of the `i`-th generated point.
    type IdMix = (&'static str, fn(u64) -> u64);

    fn bits(pts: &[Point]) -> Vec<(u64, u64, u64)> {
        pts.iter().map(canonical_point_key).collect()
    }

    #[test]
    fn sort_canonical_equals_the_stable_key_sort() {
        let id_mixes: [IdMix; 9] = [
            ("dense", |i| i),
            ("folded by 7", |i| i % 7),
            ("folded by 100", |i| i % 100),
            ("all equal", |_| 42),
            ("above 2^32", |i| (1 << 40) + i * 3),
            ("32 bits up", |i| (i << 32) | i),
            ("from the top", |i| u64::MAX - i),
            ("two islands of bits", |i| (i & 0xFF) | ((i >> 8) << 40)),
            ("all 64 bits", |i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ];
        // Both sides of the length cutoff and of each pass-count
        // break-even (512, 2048, 8192, 32 768).
        let c = RADIX_MIN_LEN;
        let lens = [0, 1, 2, c - 1, c, c + 1, 511, 513, 2047, 3000, 8193, 33_000];
        let mut scratch = Vec::new();
        for (name, id) in id_mixes {
            for n in lens {
                let arrival = scrambled(n, id);
                let mut want = arrival.clone();
                want.sort_by_key(canonical_point_key);
                let reversed: Vec<Point> = want.iter().rev().copied().collect();
                for (order, input) in [
                    ("scrambled", &arrival),
                    ("sorted", &want),
                    ("reversed", &reversed),
                ] {
                    let mut got = input.clone();
                    sort_canonical(&mut got, &mut scratch);
                    assert!(
                        bits(&got) == bits(&want),
                        "{name} ids, n={n}, {order} input"
                    );
                }
            }
        }
    }

    #[test]
    fn sort_canonical_takes_the_radix_path_where_it_claims_to() {
        // The scratch is only grown on the radix path.
        let mut scratch = Vec::new();
        sort_canonical(&mut scrambled(RADIX_MIN_LEN - 1, |i| i), &mut scratch);
        assert!(scratch.is_empty());
        sort_canonical(
            &mut scrambled(4000, |i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            &mut scratch,
        );
        assert!(
            scratch.is_empty(),
            "six digits at 4000 points: comparison sort"
        );
        sort_canonical(&mut scrambled(RADIX_MIN_LEN, |i| i), &mut scratch);
        assert_eq!(scratch.len(), RADIX_MIN_LEN);
    }

    #[test]
    fn last_per_id_is_in_order_insertion() {
        let id_mixes: [IdMix; 4] = [
            ("dense", |i| i),
            ("folded by 7", |i| i % 7),
            ("all equal", |_| 42),
            ("all 64 bits", |i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ];
        for (name, id) in id_mixes {
            for n in [0, 1, 2, 300] {
                let scrambled = scrambled(n, id);
                let mut sorted = scrambled.clone();
                sorted.sort_by_key(canonical_point_key);
                for (order, input) in [("scrambled", scrambled), ("sorted", sorted)] {
                    // The reference: each point inserted in turn replaces
                    // the live copy of its id.
                    let mut want: Vec<Point> = Vec::new();
                    for p in &input {
                        want.retain(|w| w.id != p.id);
                        want.push(*p);
                    }
                    let got = last_per_id(input.clone());
                    assert!(bits(&got) == bits(&want), "{name} ids, n={n}, {order}");
                    if want.len() == n {
                        assert!(bits(&got) == bits(&input), "{name}, {order}: moved");
                    }
                }
            }
        }
    }

    #[test]
    fn knn_cmp_breaks_distance_ties_by_identity() {
        let q = Point::at(0.0, 0.0);
        let a = Point::new(2, 1.0, 0.0);
        let b = Point::new(1, 0.0, 1.0); // same distance, smaller id
        assert_eq!(canonical_knn_cmp(q, &a, &b), Ordering::Greater);
        assert_eq!(canonical_knn_cmp(q, &b, &a), Ordering::Less);
        let c = Point::new(9, 0.5, 0.0); // closer beats any id
        assert_eq!(canonical_knn_cmp(q, &c, &b), Ordering::Less);
    }

    #[test]
    fn knn_cmp_tolerates_nan_coordinates() {
        let q = Point::at(0.0, 0.0);
        let bad = Point::new(1, f64::NAN, 0.0);
        let good = Point::new(2, 0.5, 0.0);
        // NaN distance sorts after every finite distance — and never panics.
        assert_eq!(canonical_knn_cmp(q, &bad, &good), Ordering::Greater);
    }

    #[test]
    fn z_order_sorts_by_cell_and_keeps_ties_in_position_order() {
        // A scattered batch with crowds: points repeated, points a few
        // ulps apart in one 2⁻¹¹ cell, centres outside the square and NaN.
        let mut rng = StdRng::seed_from_u64(11);
        let crowd = Point::at(0.3, 0.7);
        let batch: Vec<Point> = (0..5_000)
            .map(|i| match i % 9 {
                0 => crowd,
                1 => Point::at(crowd.x + f64::from(i % 40) * 1e-9, crowd.y),
                2 => Point::at(-3.0, rng.gen_range(0.0..1.0)),
                3 => Point::at(f64::NAN, 2.0),
                4 => Point::at(rng.gen_range(0.0..1.0), f64::NAN),
                _ => Point::at(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
            })
            .collect();
        let cell = |i: &usize| morton_of(batch[*i].x, batch[*i].y) >> 42;
        let mut want: Vec<usize> = (0..batch.len()).collect();
        want.sort_by_key(cell); // stable: ties stay in position order
        let got = z_order(batch.iter().copied());
        assert_eq!(got, want);
        assert_eq!(
            z_order(batch.iter().copied()),
            got,
            "a pure function of the batch"
        );
        let ties = got.chunk_by(|a, b| cell(a) == cell(b));
        assert!(
            ties.clone().any(|run| run.len() > 1000),
            "the crowd shares one cell"
        );
        assert!(ties.flat_map(|run| run.windows(2)).all(|w| w[0] < w[1]));
        let presorted: Vec<Point> = got.iter().map(|&i| batch[i]).collect();
        let identity: Vec<usize> = (0..batch.len()).collect();
        assert_eq!(z_order(presorted.into_iter()), identity);
        assert!(z_order(std::iter::empty()).is_empty());
        assert_eq!(z_order([crowd].into_iter()), [0]);
    }
}
