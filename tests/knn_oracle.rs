//! kNN equals the brute-force oracle **bit for bit** — vector equality
//! under the canonical `(dist², id, coordinate-bits)` order — for every
//! subject of the conformance table, with and without a radius
//! (`knn_within_into`), RSMI and LISA included: their kNN prunes on the
//! MBRs of the data pages, not on the rank ranges their windows predict.
//!
//! Besides the table's hard point sets (for a seed-then-sweep kNN: a poor
//! seed's wide ball box, exact distance ties, a seed run all ties): ids
//! folded so distinct points share one, which the serving doors
//! (`ShardedIndex::build`, `UpdateProcessor::new`) fold to the last copy
//! of each id and bare bases never see, tombstones over the whole
//! neighbourhood of a query (the overlay over-fetches), `k` around the
//! live count (the `r² = ∞` sweep), and a fixed 20k-point case at `k` in
//! the thousands (the candidate pool selects many times over).

#[path = "support/mod.rs"]
mod support;

use elsi::Update;
use elsi_spatial::Point;
use proptest::prelude::*;
use support::*;

/// The drawn point and the fixed hard ones (NaN aside), at `k` below, at
/// and past the live count `n` and the drawn `k`, under radii.
fn queries(q: (f64, f64), stack: Stack, k: usize, n: usize) -> Queries {
    let ks = vec![0, 1, k, n.saturating_sub(1), n, n + 5];
    let knn = hard_queries(q, stack).into_iter().take(8);
    Queries {
        radii: true,
        ..Queries::knn(knn, ks)
    }
}

/// Deletes the `n` live points nearest `q`: tombstones over the whole
/// neighbourhood.
fn bury(oracle: &mut Oracle, q: Point, n: usize) {
    for p in oracle.knn(q).into_iter().take(n) {
        oracle.apply(Update::Delete(p));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_nine_indices_match_the_oracle(
        (clustered, snapped, stack) in cloud(0),
        id_modulus in 1u64..50,
        q in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1usize..30,
    ) {
        // Clean, the overlay and processor states only forward to the base:
        // the built nine over unique ids, and both routers over folded ids,
        // which their door folds to the last copy of each.
        let [unique, folded] = [u64::MAX, id_modulus].map(|m| assemble(&clustered, &snapped, stack, m));
        let built = Kind::ALL.map(|kind| (kind, State::Built, &unique));
        let sharded = [Cuts::Uniform, Cuts::Fitted].map(|c| (Kind::Zm, State::Sharded(c, 2, 2), &folded));
        for (kind, state, points) in built.into_iter().chain(sharded) {
            let oracle = Oracle::new(points);
            let qs = queries(q, stack, k, oracle.len());
            check(&Zoo::pwl(8, 4).subject(kind, state, points, &[]), &oracle, &qs);
        }
    }

    #[test]
    fn tombstones_and_buffered_inserts_match_the_oracle(
        (clustered, snapped, stack) in cloud(1),
        delete_stride in 2usize..6,
        inserts in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..40),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1usize..30,
    ) {
        // Unique ids: the learned indices tombstone by id, so a folded id
        // would hide its namesakes too — the overlay test below covers
        // folded ids where that semantics is defined.
        let points = assemble(&clustered, &snapped, stack, u64::MAX);
        let stream = churn(&points, stack, delete_stride, &inserts);
        let (zoo, oracle) = (Zoo::pwl(8, 4), Oracle::after(&points, &stream));
        let qs = queries(q, stack, k, oracle.len());
        for (kind, state) in table(Kind::Zm) {
            check(&zoo.subject(kind, state, &points, &stream), &oracle, &qs);
        }
    }

    #[test]
    fn dirty_overlay_and_processor_match_the_oracle_under_folded_ids(
        (clustered, snapped, stack) in cloud(1),
        id_modulus in 1u64..50,
        ops in prop::collection::vec((0u8..4, 0u64..100, 0.0f64..=1.0, 0.0f64..=1.0), 0..60),
        q in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1usize..30,
    ) {
        // Folded ids enter through the processor's door, which keeps the
        // last copy of each, as the oracle does; the bare base behind the
        // dirty overlay gets unique ids. The id is the overlay's identity:
        // an insert replaces the live copy of its id, a delete of a base
        // copy tombstones the id. Ids 0..100 collide with base ids.
        let [unique, folded] = [u64::MAX, id_modulus].map(|m| assemble(&clustered, &snapped, stack, m));
        let rows = [(Kind::Zm, State::Dirty, &unique), (Kind::Grid, State::Processor, &folded), (Kind::Zm, State::Recovered, &folded)];
        for (kind, state, points) in rows {
            let mut oracle = Oracle::new(points);
            oracle.apply_draws(&ops);
            bury(&mut oracle, Point::at(q.0, q.1), k);
            let qs = queries(q, stack, k, oracle.len());
            check(&Zoo::pwl(8, 4).subject(kind, state, points, &oracle.stream), &oracle, &qs);
        }
    }
}

/// The fixed deep case: 20 000 points — three tight clusters, plus a tenth
/// snapped onto the 9×9 lattice, some twenty-five to a node (ties by the
/// hundred) — at `k` of 500, 1 000 and `n − 1`, where the candidate pool
/// fills and selects many times per query and a shard's running k-th
/// distance bounds its neighbours. Then a dirty overlay and processor
/// whose tombstones cover the nearest 1 500 points of a cluster query.
#[test]
fn deep_k_matches_the_oracle_on_20k_points() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let clustered: Vec<(f64, f64)> = (0..18_000).map(|_| (unit(), unit())).collect();
    let mut lattice = || ((unit() * 9.0) as u32 % 9, (unit() * 9.0) as u32 % 9);
    let snapped: Vec<(u32, u32)> = (0..2_000).map(|_| lattice()).collect();
    let points = assemble(&clustered, &snapped, (0.0, 0.0, 0), u64::MAX);
    let knn = [(0.5, 0.375), (0.55, 0.5), (0.0, 0.0), (1.7, 1.2)].map(|(x, y)| Point::at(x, y));
    let ks = vec![500, 1_000, points.len() - 1];
    let qs = Queries {
        radii: true,
        ..Queries::knn(knn, ks)
    };
    let (zoo, mut oracle) = (Zoo::pwl(8, 4), Oracle::new(&points));
    let built = Kind::ALL.map(|kind| (kind, State::Built));
    let sharded = State::Sharded(Cuts::Uniform, 2, 2);
    for (kind, state) in built.into_iter().chain([(Kind::Zm, sharded)]) {
        check(&zoo.subject(kind, state, &points, &[]), &oracle, &qs);
    }
    bury(&mut oracle, knn[1], 1_500);
    for (kind, state) in [(Kind::Zm, State::Dirty), (Kind::Grid, State::Processor)] {
        check(
            &zoo.subject(kind, state, &points, &oracle.stream),
            &oracle,
            &qs,
        );
    }
}
