//! Pins the "zero allocations per sample in steady state" contract of the
//! training kernels with a counting global allocator.
//!
//! Everything lives in ONE `#[test]` so the global counter is never read
//! concurrently by another test thread; each section brackets its own
//! warmed-up region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use elsi_ml::ffn::{Batch, Ffn};
use elsi_ml::train::{train_regression, TrainConfig};
use elsi_ml::{Dqn, DqnConfig, Transition};

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

fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Minimum allocation count of `f` over five trials (see [`train_allocs`]
/// for why a single reading can be polluted by harness threads).
fn count_min(mut f: impl FnMut()) -> u64 {
    (0..5).map(|_| count(&mut f).0).min().unwrap_or(u64::MAX)
}

/// Minimum allocation count over several trials: the libtest harness runs a
/// watchdog thread whose own occasional allocations bump the global counter,
/// so a single reading can be high by a couple of counts. The minimum of a
/// few trials is the trainer's true footprint (4 allocs for the hoisted
/// scratch of a `[1, 16, 1]` net — the shuffle order, two Adam moments and
/// the gradient the fused rank kernel hands to Adam; no `Batch` slabs —
/// independent of epoch count).
fn train_allocs(epochs: usize) -> u64 {
    let keys: Vec<f64> = (0..256).map(|i| (i as f64 / 255.0).powi(2)).collect();
    let ys: Vec<f64> = (0..256).map(|i| i as f64 / 255.0).collect();
    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    (0..5)
        .map(|trial| {
            let mut ffn = Ffn::new(&[1, 16, 1], 7 + trial);
            let (allocs, _) = count(|| train_regression(&mut ffn, &keys, &ys, &cfg));
            allocs
        })
        .min()
        .unwrap_or(u64::MAX)
}

#[test]
fn training_kernels_are_allocation_free_in_steady_state() {
    // --- train_regression: epochs beyond the first add zero allocations.
    // (The first epoch pays for the hoisted scratch: the gradient, Adam
    // moments, shuffle order.)
    let two = train_allocs(2);
    let twelve = train_allocs(12);
    assert_eq!(
        twelve, two,
        "extra training epochs must not allocate (2 epochs: {two}, 12 epochs: {twelve})"
    );

    // --- predict1 on a deeper-than-[1,H,1] network: the general scalar
    // path must stay on the stack.
    let deep = Ffn::new(&[1, 16, 16, 1], 3);
    let mut acc = 0.0;
    let allocs = count_min(|| {
        for i in 0..1000 {
            acc += deep.predict1(i as f64 / 1000.0);
        }
    });
    assert!(acc.is_finite());
    assert_eq!(allocs, 0, "deep predict1 allocated {allocs} times");

    // --- predict_each, the build's M(n) pass, over 10k keys: lanes and
    // tail on the stack.
    let rank_net = Ffn::new(&[1, 16, 1], 8);
    let keys: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
    let mut acc = 0.0;
    let allocs = count_min(|| rank_net.predict_each(&keys, |_, y| acc += y));
    assert!(acc.is_finite());
    assert_eq!(allocs, 0, "predict_each allocated {allocs} times");

    // --- predict_scalar on a feature-vector network (scorer-shaped input).
    let scorer_net = Ffn::new(&[9, 24, 1], 5);
    let x = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let mut acc = 0.0;
    let allocs = count_min(|| {
        for _ in 0..1000 {
            acc += scorer_net.predict_scalar(&x);
        }
    });
    assert!(acc.is_finite());
    assert_eq!(allocs, 0, "predict_scalar allocated {allocs} times");

    // --- batch passes over a shaped scratch: forward and backprop.
    let ffn = Ffn::new(&[2, 8, 8, 2], 1);
    let mut batch = Batch::new(&ffn, 16);
    let xs: Vec<[f64; 2]> = (0..16).map(|i| [i as f64 / 16.0, -0.5]).collect();
    let allocs = count_min(|| {
        for _ in 0..50 {
            batch.zero_grads();
            ffn.forward_batch(&mut batch, 16, |s| &xs[s]);
            ffn.backprop(
                &mut batch,
                16,
                |s| &xs[s],
                |_, _, d_out| {
                    d_out.copy_from_slice(&[0.1, -0.2]);
                },
            );
        }
    });
    assert_eq!(allocs, 0, "batch forward/backprop allocated {allocs} times");

    // --- DQN: once the replay buffer and scratch are warm, further
    // train_steps add zero allocations.
    let mut agent = Dqn::new(2, 2, DqnConfig::default(), 9);
    for i in 0..64 {
        agent.remember(Transition {
            state: vec![i as f64 / 64.0, 0.5],
            action: i % 2,
            reward: if i % 2 == 0 { 1.0 } else { 0.0 },
            next_state: vec![(i + 1) as f64 / 64.0, 0.5],
        });
    }
    // `Dqn::new` already shaped the scratch; one step warms the rest.
    let _ = agent.train_step();
    let allocs = count_min(|| {
        for _ in 0..50 {
            let _ = agent.train_step();
        }
    });
    assert_eq!(allocs, 0, "dqn train_step allocated {allocs} times");
}
