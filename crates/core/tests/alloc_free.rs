//! Pins the "reads allocate nothing in steady state" contract of the dirty
//! read path — `DeltaOverlay`'s page scans and tombstone probes over a ZM
//! base — and of a clean LISA's windows and kNN, with a counting global
//! allocator.
//!
//! Everything lives in ONE `#[test]` so the global counter is never read
//! concurrently by another test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use elsi::{DeltaOverlay, Update};
use elsi_data::gen::uniform;
use elsi_indices::{LisaConfig, LisaIndex, PwlBuilder, SpatialIndex, ZmConfig, ZmIndex};
use elsi_spatial::{Point, Rect, ScanScratch};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates entirely to `System`; only adds a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Minimum allocation count of `f` over five trials: the libtest harness
/// runs a watchdog thread whose own occasional allocations bump the global
/// counter, so a single reading can be high by a couple of counts.
fn count_min(mut f: impl FnMut()) -> u64 {
    let once = |f: &mut dyn FnMut()| {
        let before = ALLOCS.load(Ordering::Relaxed);
        f();
        ALLOCS.load(Ordering::Relaxed) - before
    };
    (0..5).map(|_| once(&mut f)).min().unwrap_or(u64::MAX)
}

#[test]
fn index_reads_are_allocation_free_in_steady_state() {
    dirty_overlay_reads();
    clean_lisa_reads();
}

fn dirty_overlay_reads() {
    // A dirty shard: 4 000 base points, 3 000 fresh inserts clustered
    // around (0.5, 0.5) (many pages, split and straddling both half-lines),
    // 400 overwrites of base ids, 400 exact base deletes and 300 deletes of
    // delta copies.
    let base = uniform(4_000, 1);
    let zm = ZmIndex::build(
        base.clone(),
        &ZmConfig::default(),
        &PwlBuilder { epsilon: 8 },
    );
    let mut overlay = DeltaOverlay::new(zm);
    let fresh: Vec<Point> = uniform(3_000, 2)
        .iter()
        .map(|p| Point::new(100_000 + p.id, 0.4 + 0.2 * p.x, 0.4 + 0.2 * p.y))
        .collect();
    let mut stream: Vec<Update> = fresh.iter().map(|&p| Update::Insert(p)).collect();
    let moved = base[..400].iter().map(|p| Point::new(p.id, p.y, p.x));
    stream.extend(moved.map(Update::Insert));
    stream.extend(base[400..800].iter().map(|&p| Update::Delete(p)));
    stream.extend(fresh[..300].iter().map(|&p| Update::Delete(p)));
    overlay.apply_batch(&stream);
    assert_eq!(overlay.len(), 4_000 + 3_000 - 400 - 300);

    // Lookups hit delta copies, live base copies and nothing; none lands
    // on a tombstoned base copy (that is the cold `live_twin` fallback).
    let lookups: Vec<Point> = fresh[300..]
        .iter()
        .chain(&base[800..])
        .step_by(7)
        .copied()
        .chain([Point::at(0.123_456, 0.654_321)])
        .collect();
    let windows = [
        Rect::new(0.49, 0.49, 0.51, 0.51),
        Rect::new(0.45, 0.0, 0.55, 1.0),
        Rect::new(0.1, 0.1, 0.12, 0.12),
        Rect::unit(),
    ];
    let centres = [
        Point::at(0.5, 0.5),
        Point::at(0.43, 0.58),
        Point::at(0.9, 0.1),
    ];

    let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
    let mut reads = || {
        let found = lookups
            .iter()
            .filter(|&&q| overlay.point_query(q).is_some());
        assert_eq!(found.count(), lookups.len() - 1);
        for w in &windows {
            out.clear();
            overlay.window_query_into(w, &mut scratch, &mut out);
            assert!(!out.is_empty());
        }
        for &q in &centres {
            for (k, r2) in [
                (1, f64::INFINITY),
                (25, f64::INFINITY),
                (300, 1e-3),
                (5_000, 0.01),
            ] {
                overlay.knn_within_into(q, k, r2, &mut scratch, &mut out);
                assert!(!out.is_empty());
            }
        }
    };
    reads(); // warms the scratch and `out`
    let allocs = count_min(&mut reads);
    assert_eq!(allocs, 0, "dirty overlay reads allocated {allocs} times");
}

fn clean_lisa_reads() {
    // Windows from a point's neighbourhood to the unit square (one cell,
    // many cells, every shard); kNN from one point to thousands, under
    // radii that cut the answer short.
    let points = uniform(20_000, 3);
    let lisa = LisaIndex::build(points, &LisaConfig::default(), &PwlBuilder { epsilon: 8 });
    let windows = [
        Rect::new(0.5, 0.5, 0.505, 0.505),
        Rect::new(0.2, 0.1, 0.45, 0.3),
        Rect::new(0.0, 0.48, 1.0, 0.52),
        Rect::unit(),
    ];
    let centres = [
        Point::at(0.5, 0.5),
        Point::at(0.01, 0.99),
        Point::at(0.7, 0.2),
    ];
    let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
    let mut reads = || {
        for w in &windows {
            lisa.window_query_into(w, &mut scratch, &mut out);
            assert!(!out.is_empty());
        }
        for &q in &centres {
            for (k, r2) in [(1, f64::INFINITY), (25, f64::INFINITY), (3_000, 0.02)] {
                lisa.knn_within_into(q, k, r2, &mut scratch, &mut out);
                assert!(!out.is_empty());
            }
        }
    };
    reads(); // warms the scratch and `out`
    let allocs = count_min(&mut reads);
    assert_eq!(allocs, 0, "clean LISA reads allocated {allocs} times");
}
