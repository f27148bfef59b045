//! Determinism under sharding: the same seed must produce bit-identical
//! shard builds, query answers and update outcomes at any rayon thread
//! count (the "determinism-under-sharding rules" of `DESIGN.md` §9).

use elsi::{Elsi, ElsiConfig};
use elsi_data::stream::Update;
use elsi_indices::{SpatialIndex, ZmIndex};
use elsi_serve::{Router, ShardStats, ShardedConfig, ShardedIndex};
use elsi_spatial::{Point, Rect};

type Fingerprint = (
    Vec<ShardStats>,
    Vec<Point>,      // boundary-heavy window result (canonical order)
    Vec<Vec<Point>>, // batched kNN answers
    usize,           // rebuilds triggered by the update batch
    Vec<ShardStats>, // stats after the update batch
);

/// One full serve lifecycle over an already-built deployment: batched
/// queries, one batched update wave, queries again.
fn lifecycle(mut sharded: ShardedIndex<ZmIndex>) -> Fingerprint {
    let stats_before = sharded.shard_stats();
    let window = sharded.window_query(&Rect::new(0.25, 0.25, 0.75, 0.75));
    let queries: Vec<Point> = elsi_data::gen::uniform(32, 77);
    let knn = sharded.par_knn_queries(&queries, 7);

    let mut updates: Vec<Update> = elsi_data::stream::skewed_insertions(600, 5);
    updates.extend(
        sharded
            .window_query(&Rect::new(0.0, 0.0, 0.3, 0.3))
            .into_iter()
            .take(50)
            .map(Update::Delete),
    );
    let rebuilds = sharded.par_apply_updates(&updates);
    (stats_before, window, knn, rebuilds, sharded.shard_stats())
}

/// Runs the lifecycle under both constructors — uniform and fitted — over
/// the same data. The learned deployment re-fits its CDF router from the
/// points on every call, so router fitting is inside the fingerprint too.
fn serve_lifecycle() -> (Fingerprint, Fingerprint) {
    let points = elsi_data::gen::osm1_like(2_000, 33);
    let run = |router| {
        let elsi = Elsi::new(ElsiConfig::fast_test());
        lifecycle(ShardedIndex::zm(
            points.clone(),
            router,
            &ShardedConfig::default(),
            &elsi,
        ))
    };
    (
        run(Router::new(2, 2)),
        run(Router::fit_sampled(&points, 2, 2)),
    )
}

#[test]
fn sharded_serving_is_bit_identical_across_thread_counts() {
    // The vendored rayon pool is re-callable (last call wins).
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global();
    let reference = serve_lifecycle();
    // Grid and learned deployments partition differently (their stats and
    // rebuild counts may differ) but must answer queries identically.
    assert_eq!(reference.0 .1, reference.1 .1, "window answers diverge");
    assert_eq!(reference.0 .2, reference.1 .2, "kNN answers diverge");
    for threads in [2, 8] {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
        assert_eq!(
            reference,
            serve_lifecycle(),
            "divergence at {threads} threads"
        );
    }
    // Restore auto-detection for the rest of the test binary.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global();
}

#[test]
fn rebuilt_shards_stay_deterministic() {
    // Force rebuilds by hammering one shard; reruns must agree exactly.
    let run = || {
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let points = elsi_data::gen::uniform(1_000, 9);
        let mut sharded =
            ShardedIndex::zm(points, Router::new(2, 2), &ShardedConfig::default(), &elsi);
        let hotspot: Vec<Update> = (0..800)
            .map(|i| {
                let t = i as f64 / 800.0;
                Update::Insert(Point::new(
                    1_000_000 + i as u64,
                    0.05 + 0.01 * t,
                    0.05 + 0.01 * t,
                ))
            })
            .collect();
        let rebuilds = sharded.par_apply_updates(&hotspot);
        (
            rebuilds,
            sharded.shard_stats(),
            sharded.knn_query(Point::at(0.06, 0.06), 9),
        )
    };
    let a = run();
    assert!(a.0 >= 1, "hotspot must trigger at least one shard rebuild");
    assert_eq!(a, run());
}

#[test]
fn large_batches_on_a_dirty_deployment_equal_one_at_a_time_answers() {
    // Batches long enough to be answered in Z-order on the pool (1024
    // lookups, 256 windows or kNN centres: `DESIGN.md` §9) rather than
    // inline: every shard sees its queries back to back, the caller still
    // gets them in its own order, at every thread count.
    let elsi = Elsi::new(ElsiConfig::fast_test());
    let points = elsi_data::gen::skewed(3_000, 4, 21);
    let router = Router::fit_sampled(&points, 2, 3);
    let mut sharded = ShardedIndex::zm(points.clone(), router, &ShardedConfig::default(), &elsi);
    let mut updates: Vec<Update> = elsi_data::stream::skewed_insertions(400, 8);
    updates.extend(points.iter().step_by(9).map(|p| Update::Delete(*p)));
    sharded.par_apply_updates(&updates);

    // Data order is not Z-order; the stride wraps, so queries repeat.
    let cycled = |n: usize| points.iter().cycle().step_by(11).take(n).copied();
    let probes: Vec<Point> = cycled(1_300).collect();
    let windows: Vec<Rect> = cycled(300).map(|c| Rect::window_around(c, 0.01)).collect();
    let knn_qs: Vec<Point> = cycled(300).map(|c| Point::at(c.y, c.x)).collect();
    let point_want: Vec<_> = probes.iter().map(|&q| sharded.point_query(q)).collect();
    let window_want: Vec<_> = windows.iter().map(|w| sharded.window_query(w)).collect();
    let knn_want: Vec<_> = knn_qs.iter().map(|&q| sharded.knn_query(q, 5)).collect();
    assert!(
        point_want.iter().any(Option::is_none),
        "deleted points must miss"
    );
    for threads in [1, 2, 8] {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
        assert_eq!(
            sharded.par_point_queries(&probes),
            point_want,
            "{threads} threads"
        );
        assert_eq!(
            sharded.par_window_queries(&windows),
            window_want,
            "{threads} threads"
        );
        assert_eq!(
            sharded.par_knn_queries(&knn_qs, 5),
            knn_want,
            "{threads} threads"
        );
    }
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global();
}
