//! Brute-force answers, computed outside every timed region.

use elsi_serve::{canonical_knn_cmp, canonical_point_key};
use elsi_spatial::{Point, Rect};

/// Whether a point lookup of `q` was answered with a point at exactly
/// `q`'s coordinates.
pub fn lookup_hit(q: &Point, answer: &Option<Point>) -> bool {
    answer.is_some_and(|p| p.x == q.x && p.y == q.y)
}

/// Every point of `live` inside `w`, in the serving layer's canonical order.
pub fn brute_window<'a>(live: impl IntoIterator<Item = &'a Point>, w: &Rect) -> Vec<Point> {
    let mut hits: Vec<Point> = live
        .into_iter()
        .filter(|p| w.contains(p))
        .copied()
        .collect();
    hits.sort_by_key(canonical_point_key);
    hits
}

/// The canonical top-`k` of `live` around `q`: the k-th smallest distance
/// by selection, then every point within it in canonical order.
pub fn brute_knn(live: &[Point], q: Point, k: usize) -> Vec<Point> {
    let k = k.min(live.len());
    if k == 0 {
        return Vec::new();
    }
    let mut d2: Vec<f64> = live.iter().map(|p| q.dist2(p)).collect();
    let (_, kth, _) = d2.select_nth_unstable_by(k - 1, f64::total_cmp);
    let kth = *kth;
    let mut near: Vec<Point> = live.iter().filter(|p| q.dist2(p) <= kth).copied().collect();
    near.sort_by(|a, b| canonical_knn_cmp(q, a, b));
    near.truncate(k);
    near
}

/// A window answer in canonical order (the sharded index already returns
/// it so; per-shard and monolith answers do not).
pub fn canonical(mut answer: Vec<Point>) -> Vec<Point> {
    answer.sort_by_key(canonical_point_key);
    answer
}

/// Share of `truth` that `answer` contains (1 for an empty truth).
pub fn recall(answer: &[Point], truth: &[Point]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let mut ids: Vec<u64> = answer.iter().map(|p| p.id).collect();
    ids.sort_unstable();
    let found = truth
        .iter()
        .filter(|p| ids.binary_search(&p.id).is_ok())
        .count();
    found as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_answers_are_canonical_and_exact() {
        let live: Vec<Point> = (0..100u64)
            .map(|i| Point::new(i, (i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0))
            .collect();
        let w = Rect::new(0.15, 0.15, 0.45, 0.35);
        let hits = brute_window(&live, &w);
        assert_eq!(hits.len(), 6);
        assert!(hits
            .windows(2)
            .all(|p| canonical_point_key(&p[0]) < canonical_point_key(&p[1])));
        let q = Point::at(0.0, 0.0);
        let near = brute_knn(&live, q, 3);
        assert_eq!(near.iter().map(|p| p.id).collect::<Vec<_>>(), [0, 1, 10]);
        assert_eq!(brute_knn(&live, q, 500).len(), 100);
        assert!(lookup_hit(&live[7], &Some(live[7])));
        assert!(!lookup_hit(&live[7], &Some(live[8])));
        assert!(!lookup_hit(&live[7], &None));
        assert_eq!(recall(&hits[..3], &hits), 0.5);
        assert_eq!(recall(&[], &[]), 1.0);
    }
}
