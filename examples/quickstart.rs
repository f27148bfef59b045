//! Quickstart: build a learned spatial index the slow way (OG: train on all
//! of `D`) and the ELSI way (train on an engineered reduced set), and show
//! that queries stay just as good while the build gets far cheaper.
//!
//! Run with: `cargo run --release --example quickstart`

use elsi::{Elsi, ElsiConfig, Method};
use elsi_data::{gen, Dataset};
use elsi_indices::{timed, SpatialIndex, ZmConfig, ZmIndex};

fn main() {
    let n = 100_000;
    println!("Generating {n} OSM-like points…");
    let points = Dataset::Osm1.generate(n, 42);

    // The paper's regime: every model trains (50 epochs here, 500 in the
    // paper), so training on less data builds faster. `ElsiConfig`'s
    // default trains 0 epochs and serves each model's CDF interpolant,
    // where OG is as cheap as any reduction.
    let mut cfg = ElsiConfig::scaled_for(n);
    cfg.train.epochs = 50;
    let elsi = Elsi::new(cfg);
    let zm_cfg = ZmConfig { fanout: 8 };

    // OG: the base index trains every model on its full partition.
    let (og, og_time) =
        timed(|| ZmIndex::build(points.clone(), &zm_cfg, &elsi.fixed_builder(Method::Og)));

    // ELSI (RS method): models train on small representative sets instead.
    let (fast, elsi_time) =
        timed(|| ZmIndex::build(points.clone(), &zm_cfg, &elsi.fixed_builder(Method::Rs)));

    println!("\nBuild time");
    println!("  ZM   (OG, full training):    {og_time:?}");
    println!("  ZM-F (ELSI, reduced set):    {elsi_time:?}");
    println!(
        "  speedup: {:.1}x",
        og_time.as_secs_f64() / elsi_time.as_secs_f64().max(1e-9)
    );

    // Point queries: every indexed point, timed.
    for (name, idx) in [("ZM", &og), ("ZM-F", &fast)] {
        let (found, elapsed) = timed(|| {
            let mut found = 0usize;
            for p in points.iter().step_by(10) {
                if idx.point_query(*p).is_some() {
                    found += 1;
                }
            }
            found
        });
        let per = elapsed.as_secs_f64() * 1e6 / (n / 10) as f64;
        println!(
            "\n{name}: point query {per:.2} µs/query, {found}/{} found",
            n / 10
        );
        assert_eq!(
            found,
            n / 10,
            "learned indices must be exact on point queries"
        );
    }

    // Window queries.
    let windows = gen::window_queries(&points, 200, 0.0001, 7);
    for (name, idx) in [("ZM", &og), ("ZM-F", &fast)] {
        let (total, elapsed) = timed(|| {
            windows
                .iter()
                .map(|w| idx.window_query(w).len())
                .sum::<usize>()
        });
        let per = elapsed.as_secs_f64() * 1e6 / windows.len() as f64;
        println!(
            "{name}: window query {per:.1} µs/query ({total} results over {} windows)",
            windows.len()
        );
    }

    println!("\nSame index, same queries — a fraction of the build time.");
}
