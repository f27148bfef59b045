//! Determinism: identical seeds must produce identical data sets, reduced
//! training sets, models and query results — the whole stack is seeded.

use elsi::{Elsi, ElsiConfig, Method, Reduction};
use elsi_data::Dataset;
use elsi_indices::{BuildInput, ModelBuilder, SpatialIndex, ZmConfig, ZmIndex};
use elsi_spatial::{sort_by_key, MortonMapper, Point, Rect};

#[test]
fn datasets_are_reproducible() {
    for ds in Dataset::all() {
        assert_eq!(ds.generate(500, 9), ds.generate(500, 9), "{ds}");
    }
}

#[test]
fn reductions_are_reproducible() {
    let cfg = ElsiConfig::fast_test();
    let pool = elsi::MrPool::generate(&cfg, 2);
    let (points, keys) = sort_by_key(&Dataset::Skewed.generate(2000, 4), &MortonMapper);
    let input = BuildInput {
        points: &points,
        keys: &keys,
        mapper: &MortonMapper,
        seed: 17,
    };
    for m in Method::all() {
        let (a, work_a) = elsi::methods::reduce(m, &input, &cfg, &pool);
        let (b, work_b) = elsi::methods::reduce(m, &input, &cfg, &pool);
        assert_eq!(work_a, work_b, "{m}");
        match (a, b) {
            (Reduction::TrainingSet(x), Reduction::TrainingSet(y)) => {
                assert_eq!(x, y, "{m}")
            }
            (Reduction::Pretrained(x), Reduction::Pretrained(y)) => {
                assert_eq!(x.params_flat(), y.params_flat(), "{m}")
            }
            _ => panic!("{m}: reduction kind flipped"),
        }
    }
}

#[test]
fn built_indices_answer_identically() {
    let run = || {
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let pts = Dataset::Osm2.generate(1500, 6);
        let idx = ZmIndex::build(pts, &ZmConfig { fanout: 2 }, &elsi.builder());
        let w = Rect::new(0.2, 0.2, 0.6, 0.6);
        let mut ids: Vec<u64> = idx.window_query(&w).iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(run(), run());
}

/// One index's fingerprint: name, per-partition build stats
/// (method, training set size, error span), batch point-query ids,
/// and sorted window-query ids.
type Fingerprint = (
    String,
    Vec<(String, usize, u64)>,
    Vec<Option<u64>>,
    Vec<u64>,
);

/// Builds every learned index over the same data and reduces it to a
/// thread-count-independent fingerprint: build-stat methods and error
/// spans (model weights determine the spans bit-for-bit), batch point
/// query results over all points, and sorted window-query id sets.
fn fingerprint_all_indices() -> Vec<Fingerprint> {
    use elsi_indices::{LisaConfig, LisaIndex, MlConfig, MlIndex, RsmiConfig, RsmiIndex};
    let elsi = Elsi::new(ElsiConfig::fast_test());
    let pts = Dataset::Skewed.generate(3000, 11);
    let probes: Vec<_> = pts.iter().step_by(7).copied().collect();
    let windows = [
        Rect::new(0.1, 0.1, 0.4, 0.4),
        Rect::new(0.0, 0.5, 1.0, 0.7),
        Rect::unit(),
    ];

    let mut out = Vec::new();
    let mut record = |name: &str, stats: &[elsi_indices::BuildStats], idx: &dyn SpatialIndex| {
        let stat_fp: Vec<(String, usize, u64)> = stats
            .iter()
            .map(|s| (s.method.to_string(), s.training_set_size, s.err_span))
            .collect();
        let point_fp: Vec<Option<u64>> = idx
            .par_point_queries(&probes)
            .iter()
            .map(|r| r.map(|p| p.id))
            .collect();
        let mut window_fp: Vec<u64> = idx
            .par_window_queries(&windows)
            .iter()
            .flat_map(|v| v.iter().map(|p| p.id))
            .collect();
        window_fp.sort_unstable();
        out.push((name.to_string(), stat_fp, point_fp, window_fp));
    };

    let zm = ZmIndex::build(pts.clone(), &ZmConfig { fanout: 4 }, &elsi.builder());
    record("ZM", zm.build_stats(), &zm);
    let ml = MlIndex::build(
        pts.clone(),
        &MlConfig {
            pivots: 4,
            ..MlConfig::default()
        },
        &elsi.builder(),
    );
    record("ML", ml.build_stats(), &ml);
    let rsmi = RsmiIndex::build(
        pts.clone(),
        &RsmiConfig {
            leaf_capacity: 256,
            fanout: 4,
            ..RsmiConfig::default()
        },
        &elsi.builder(),
    );
    record("RSMI", rsmi.build_stats(), &rsmi);
    let lisa = LisaIndex::build(
        pts.clone(),
        &LisaConfig {
            grid: 8,
            shard_size: 200,
        },
        &elsi.builder().for_lisa(),
    );
    record("LISA", lisa.build_stats(), &lisa);
    out
}

#[test]
fn parallel_builds_are_bit_identical_across_thread_counts() {
    // The vendored rayon allows re-setting the global thread count; the
    // per-partition seeding must make every build independent of it.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .unwrap();
    let sequential = fingerprint_all_indices();
    for threads in [2, 4, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .unwrap();
        let parallel = fingerprint_all_indices();
        assert_eq!(sequential, parallel, "divergence at {threads} threads");
    }
    // Restore auto-detection for the rest of the test binary.
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .unwrap();
}

/// Runs `f` on a global pool of each thread count in turn, then restores
/// auto-detection. The vendored pool is re-callable (last call wins), so
/// there is nothing to unwrap.
fn at_thread_counts<T>(counts: &[usize], f: impl Fn() -> T) -> Vec<T> {
    let out = counts
        .iter()
        .map(|&threads| {
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global();
            f()
        })
        .collect();
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global();
    out
}

#[test]
fn scorer_cost_features_are_thread_count_independent() {
    // The scorer preparation grid fans cells out on the rayon pool; every
    // cell seeds its own data set and every cost is counted, so each field
    // of every row is bit-identical at any thread count.
    let run = || {
        let mut cfg = ElsiConfig::fast_test();
        cfg.train.epochs = 15;
        let elsi = Elsi::new(cfg.clone());
        let costs = elsi::scorer::measure_method_costs(
            &[300, 500],
            &[1, 8],
            &Method::all(),
            &cfg,
            &elsi.mr_pool(),
            21,
        );
        costs
            .iter()
            .map(|c| {
                let fields = (c.n, c.dist_u.to_bits(), c.build_work, c.query_work);
                (c.method.to_string(), fields, c.err_span)
            })
            .collect::<Vec<_>>()
    };
    let runs = at_thread_counts(&[1, 2, 8], run);
    assert_eq!(runs[0].len(), 2 * 2 * 7);
    assert!(runs.iter().all(|r| *r == runs[0]));
}

#[test]
fn scorer_picks_are_the_same_on_every_preparation() {
    // Two preparations of one small scorer, each then building LISA-F and
    // RSMI-F over one skewed set across λ: every pick must agree between
    // the preparations and across thread counts.
    use elsi::IndexKind;
    let pts = Dataset::Skewed.generate(2000, 5);
    let picks = || {
        let mut elsi = Elsi::new(ElsiConfig::fast_test());
        elsi.prepare_scorer(&[500], &[1, 6], 5);
        let mut chosen = Vec::new();
        for lambda in [0.0, 0.2, 0.5, 0.8, 1.0] {
            let elsi = elsi.with_lambda(lambda);
            for kind in [IndexKind::Lisa, IndexKind::Rsmi] {
                let builder = kind.mask(elsi.builder());
                kind.build(pts.clone(), &builder);
                chosen.push((lambda.to_bits(), kind.name(), builder.chosen_counts()));
            }
        }
        chosen
    };
    let first = at_thread_counts(&[1, 2, 8], picks);
    let second = at_thread_counts(&[2], picks);
    assert!(first.iter().chain(&second).all(|p| *p == first[0]));
}

#[test]
fn random_builder_is_schedule_independent() {
    // The Rand ablation seeds each choice from the partition seed, so a ZM
    // build chooses each method as often (and builds the same models) at
    // any thread count.
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .unwrap();
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let b = elsi.random_builder(1234);
        let pts = Dataset::Uniform.generate(2000, 3);
        let idx = ZmIndex::build(pts, &ZmConfig { fanout: 4 }, &b);
        let chosen = b.chosen_counts();
        let spans: Vec<u64> = idx.build_stats().iter().map(|s| s.err_span).collect();
        (chosen, spans)
    };
    let (chosen_1, spans_1) = run(1);
    let (chosen_4, spans_4) = run(4);
    assert_eq!(chosen_1, chosen_4);
    assert_eq!(spans_1, spans_4);
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .unwrap();
}

/// Builds all nine index structures — the paper's eight plus Flood — over
/// `pts` and hands each to `f`, together with whether its window queries
/// are exact (RSMI and LISA are approximate by design, paper §VII-G2).
fn for_all_nine_indices(pts: &[Point], mut f: impl FnMut(&str, bool, &dyn SpatialIndex)) {
    use elsi_indices::{
        FloodConfig, FloodIndex, GridConfig, GridIndex, HrrConfig, HrrIndex, KdbConfig, KdbIndex,
        LisaConfig, LisaIndex, MlConfig, MlIndex, RStarConfig, RStarIndex, RsmiConfig, RsmiIndex,
    };
    let elsi = Elsi::new(ElsiConfig::fast_test());
    f(
        "Grid",
        true,
        &GridIndex::build(pts.to_vec(), &GridConfig { block_size: 64 }),
    );
    f(
        "KDB",
        true,
        &KdbIndex::build(pts.to_vec(), &KdbConfig { leaf_capacity: 64 }),
    );
    f(
        "HRR",
        true,
        &HrrIndex::build(
            pts.to_vec(),
            &HrrConfig {
                leaf_capacity: 64,
                fanout: 8,
            },
        ),
    );
    f(
        "R*",
        true,
        &RStarIndex::build(
            pts.to_vec(),
            &RStarConfig {
                leaf_capacity: 64,
                fanout: 8,
                min_fill: 0.4,
            },
        ),
    );
    f(
        "ZM",
        true,
        &ZmIndex::build(pts.to_vec(), &ZmConfig { fanout: 4 }, &elsi.builder()),
    );
    f(
        "ML",
        true,
        &MlIndex::build(
            pts.to_vec(),
            &MlConfig {
                pivots: 4,
                ..MlConfig::default()
            },
            &elsi.builder(),
        ),
    );
    f(
        "RSMI",
        false,
        &RsmiIndex::build(
            pts.to_vec(),
            &RsmiConfig {
                leaf_capacity: 256,
                fanout: 4,
                ..RsmiConfig::default()
            },
            &elsi.builder(),
        ),
    );
    f(
        "LISA",
        false,
        &LisaIndex::build(
            pts.to_vec(),
            &LisaConfig {
                grid: 8,
                shard_size: 200,
            },
            &elsi.builder().for_lisa(),
        ),
    );
    f(
        "Flood",
        true,
        &FloodIndex::build(pts.to_vec(), &FloodConfig { columns: 8 }, &elsi.builder()),
    );
}

/// Everything a query hands back, reduced to bits: id plus the raw
/// coordinate bit patterns, in returned order.
fn point_bits(p: &Point) -> (u64, u64, u64) {
    (p.id, p.x.to_bits(), p.y.to_bits())
}

/// One index's full query fingerprint: batch point-query results, window
/// results in returned order, kNN results in returned order.
type PointBits = (u64, u64, u64);
type QueryFp = (
    String,
    Vec<Option<PointBits>>,
    Vec<Vec<PointBits>>,
    Vec<Vec<PointBits>>,
);

/// The shared query workload: data, point probes, windows and kNN centres.
fn query_workload() -> (Vec<Point>, Vec<Point>, [Rect; 3], Vec<Point>) {
    let pts = Dataset::Skewed.generate(1500, 23);
    let probes = pts.iter().step_by(11).copied().collect();
    let windows = [
        Rect::new(0.05, 0.05, 0.35, 0.3),
        Rect::new(0.4, 0.1, 0.9, 0.55),
        Rect::unit(),
    ];
    let knn_qs = pts.iter().step_by(97).copied().collect();
    (pts, probes, windows, knn_qs)
}

/// Runs one shared point/window/kNN workload through all nine indices and
/// captures the results bit-for-bit in returned order. Any scheduling
/// dependence in the batched query fan-out or the scan kernels shows up as
/// a fingerprint mismatch across thread counts.
fn query_fingerprints_all_nine() -> Vec<QueryFp> {
    let (pts, probes, windows, knn_qs) = query_workload();
    let mut out: Vec<QueryFp> = Vec::new();
    for_all_nine_indices(&pts, |name, _exact, idx| {
        let point_fp = idx
            .par_point_queries(&probes)
            .iter()
            .map(|r| r.as_ref().map(point_bits))
            .collect();
        let window_fp = idx
            .par_window_queries(&windows)
            .iter()
            .map(|v| v.iter().map(point_bits).collect())
            .collect();
        let knn_fp = idx
            .par_knn_queries(&knn_qs, 7)
            .iter()
            .map(|v| v.iter().map(point_bits).collect())
            .collect();
        out.push((name.to_string(), point_fp, window_fp, knn_fp));
    });
    out
}

#[test]
fn queries_are_bit_identical_across_thread_counts() {
    // The vendored pool is re-callable (last call wins); nothing to unwrap.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global();
    let single = query_fingerprints_all_nine();
    for threads in [2, 8] {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global();
        let multi = query_fingerprints_all_nine();
        assert_eq!(single, multi, "query divergence at {threads} threads");
    }
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global();
}

#[test]
fn batched_queries_equal_one_at_a_time_answers() {
    // The provided `par_*` methods must return, element for element, what
    // the single-query methods return — for every index and for the update
    // wrappers, whatever the thread count.
    use elsi::{DeltaOverlay, RebuildPolicy, Update, UpdateProcessor};
    use elsi_indices::{GridConfig, GridIndex, PwlBuilder};
    let (pts, probes, windows, knn_qs) = query_workload();
    // The same again in batches long enough to leave the inline path and be
    // answered in Z-order on the pool (1024 lookups, 256 windows or kNN
    // centres: `DESIGN.md` §9) — in data order, which is not Z-order, and
    // with repeats.
    let cycled = |n: usize| pts.iter().cycle().step_by(7).take(n).copied();
    let many_probes: Vec<Point> = cycled(1100).collect();
    let many_windows: Vec<Rect> = cycled(300).map(|c| Rect::window_around(c, 0.02)).collect();
    let many_knn_qs: Vec<Point> = cycled(300).map(|c| Point::at(c.y, c.x)).collect();
    let check = |name: &str, idx: &dyn SpatialIndex| {
        for (probes, windows, knn_qs) in [
            (&probes[..], &windows[..], &knn_qs[..]),
            (&many_probes[..], &many_windows[..], &many_knn_qs[..]),
        ] {
            let point_want: Vec<_> = probes.iter().map(|&q| idx.point_query(q)).collect();
            let window_want: Vec<_> = windows.iter().map(|w| idx.window_query(w)).collect();
            let knn_want: Vec<_> = knn_qs.iter().map(|&q| idx.knn_query(q, 7)).collect();
            for threads in [1, 2, 8] {
                let _ = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build_global();
                let at = format!("{name} at {threads} threads, {} lookups", probes.len());
                assert_eq!(idx.par_point_queries(probes), point_want, "{at}");
                assert_eq!(idx.par_window_queries(windows), window_want, "{at}");
                assert_eq!(idx.par_knn_queries(knn_qs, 7), knn_want, "{at}");
            }
        }
    };
    for_all_nine_indices(&pts, |name, _exact, idx| check(name, idx));

    // Wrappers with a dirty delta: tombstoned base points, fresh inserts.
    let updates: Vec<Update> = pts
        .iter()
        .step_by(13)
        .map(|p| Update::Delete(*p))
        .chain(
            pts.iter()
                .step_by(17)
                .map(|p| Update::Insert(Point::new(1_000_000 + p.id, p.y, p.x))),
        )
        .collect();
    let mut overlay = DeltaOverlay::new(GridIndex::build(
        pts.clone(),
        &GridConfig { block_size: 64 },
    ));
    overlay.apply_batch(&updates);
    check("DeltaOverlay<Grid>", &overlay);
    let mut processor = UpdateProcessor::new(
        pts.clone(),
        Box::new(|p| {
            DeltaOverlay::new(ZmIndex::build(
                p,
                &ZmConfig { fanout: 4 },
                &PwlBuilder::default(),
            ))
        }),
        RebuildPolicy::Never,
        64,
    );
    processor.apply_batch(&updates);
    check("UpdateProcessor<DeltaOverlay<ZM>>", &processor);
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global();
}

#[test]
fn window_oracle_and_canonical_knn_order_hold_for_every_index() {
    let pts = Dataset::Nyc.generate(2000, 41);
    let windows = [
        Rect::new(0.1, 0.1, 0.45, 0.4),
        Rect::new(0.3, 0.5, 0.8, 0.95),
        Rect::unit(),
    ];
    let knn_qs: Vec<Point> = pts.iter().step_by(131).copied().collect();
    for_all_nine_indices(&pts, |name, exact, idx| {
        for w in &windows {
            let got = idx.window_query(w);
            assert!(
                got.iter().all(|p| w.contains(p)),
                "{name}: window false positive"
            );
            if exact {
                let mut got_ids: Vec<u64> = got.iter().map(|p| p.id).collect();
                got_ids.sort_unstable();
                got_ids.dedup();
                let mut want: Vec<u64> =
                    pts.iter().filter(|p| w.contains(p)).map(|p| p.id).collect();
                want.sort_unstable();
                assert_eq!(got_ids, want, "{name}: window vs brute force");
            }
        }
        // kNN responses come back in the canonical order the scan kernels
        // promise: ascending squared distance, ties by (id, x bits, y bits).
        // dist2 is non-negative, so its bit pattern orders like total_cmp.
        for &q in &knn_qs {
            let got = idx.knn_query(q, 9);
            let keys: Vec<(u64, u64, u64, u64)> = got
                .iter()
                .map(|p| (q.dist2(p).to_bits(), p.id, p.x.to_bits(), p.y.to_bits()))
                .collect();
            assert!(
                keys.windows(2).all(|w| w.first() <= w.last()),
                "{name}: kNN result out of canonical order"
            );
        }
    });
}

#[test]
fn builder_method_choice_is_reproducible() {
    let make = || {
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let b = elsi.random_builder(99);
        let (points, keys) = sort_by_key(&Dataset::Uniform.generate(500, 1), &MortonMapper);
        for _ in 0..5 {
            b.build_model(&BuildInput {
                points: &points,
                keys: &keys,
                mapper: &MortonMapper,
                seed: 0,
            });
        }
        b.chosen_counts()
    };
    assert_eq!(make(), make());
}
