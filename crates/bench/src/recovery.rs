//! Crash-recovery experiment: cold build vs snapshot restore
//! (`DESIGN.md` §14).
//!
//! The durability subsystem's pitch is that restart cost is I/O-bound, not
//! training-bound: a serving directory restores by decoding each shard's
//! exact ZM model state (`ZmStateCodec`) instead of re-running the sample,
//! train and build pipeline. This experiment measures that claim on one
//! OSM1-style deployment:
//!
//! 1. **cold-build** — `ShardedIndex::zm` from raw points (the restart
//!    path without persistence: regenerate, retrain, rebuild).
//! 2. **save** — write the generation (router + per-shard snapshots,
//!    rotate WALs, commit the manifest).
//! 3. **snapshot-open** — recover the deployment from the directory with
//!    empty journals.
//! 4. **wal-replay-open** — journal a churn stream (`n/10` updates)
//!    through the live deployment, simulate a crash (drop it without
//!    checkpointing), and recover from snapshot + WAL tail.
//!
//! Every recovery is verified against the pre-crash deployment: identical
//! live count and bit-identical canonical window answers. The headline
//! figure is `speedup_vs_cold = cold_build_secs / open_secs`; the
//! acceptance bar (≥5× at `ELSI_BENCH_N=100000`) is enforced by the
//! binary's `--min-speedup` flag so CI fails loudly on regression.

use crate::harness::*;
use crate::json::JsonRecord;
use elsi_data::stream::churn;
use elsi_data::Dataset;
use elsi_indices::{SpatialIndex, ZmIndex};
use elsi_serve::{zm_codec, GridRouter, ShardedConfig, ShardedIndex};
use elsi_spatial::{Point, Rect};

/// Repetitions per timed phase; the minimum is reported (recoveries are
/// milliseconds-scale, so scheduler noise dominates a single shot).
/// Opens are cheap enough to repeat more for a stabler minimum.
const REPS: usize = 3;
const OPEN_REPS: usize = 5;

/// The deployment under test: the acceptance grid (2×2 = 4 shards).
const GRID: (usize, usize) = (2, 2);

/// Canonical query fingerprint of a deployment: live count plus the
/// window answers over a fixed probe set (sharded gathers are already in
/// canonical order, so equality is bit-identity).
fn fingerprint(
    idx: &ShardedIndex<ZmIndex, GridRouter>,
    windows: &[Rect],
) -> (usize, Vec<Vec<Point>>) {
    (idx.len(), idx.par_window_queries(windows))
}

/// One measured phase of the experiment.
struct Measured {
    label: String,
    secs: f64,
    /// `cold_build_secs / secs` for the recovery phases, 1.0 for the
    /// build itself, NaN for the save (it is not a restart path).
    speedup_vs_cold: f64,
    wal_records: usize,
    matches_live: bool,
}

/// Runs the recovery experiment and returns one [`JsonRecord`] per phase
/// (experiment id `"recovery"`, labels `"cold-build/ZM-2x2"`,
/// `"save/ZM-2x2"`, `"snapshot-open/ZM-2x2"`, `"wal-replay-open/ZM-2x2"`)
/// with extras `n`, `speedup_vs_cold`, `wal_records` and `matches_live`.
/// Also returns the snapshot-open speedup for the binary's acceptance
/// check.
pub fn run() -> (Vec<JsonRecord>, f64) {
    let n = base_n();
    let threads = configure_threads();
    eprintln!("[prep] rayon threads: {threads} (override with ELSI_THREADS)");
    let ctx = BenchCtx::new(n);
    let pts = Dataset::Osm1.generate_scaled(n, 42);
    let windows = elsi_data::gen::window_queries(&pts, 64, 1e-4, 7);
    let (rows, cols) = GRID;
    let cfg = ShardedConfig::grid(rows, cols);
    let dir = std::env::temp_dir().join(format!("elsi_bench_recovery_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // 1. Cold build — the restart path without persistence.
    let mut cold_secs = f64::INFINITY;
    let mut deployed = None;
    for _ in 0..REPS {
        let router = GridRouter::new(rows, cols);
        let (built, secs) = timed(|| ShardedIndex::zm(pts.clone(), router, &cfg, &ctx.elsi));
        cold_secs = cold_secs.min(secs);
        deployed = Some(built);
    }
    let mut deployed = deployed.expect("REPS >= 1");
    let clean_state = fingerprint(&deployed, &windows);

    // 2. Save the generation (also attaches fresh WALs for phase 4).
    let (saved, save_secs) = timed(|| deployed.save(&dir, &zm_codec()));
    let generation = saved.expect("save");

    // 3. Snapshot-only recovery (journals are empty right after a save).
    let mut snap_secs = f64::INFINITY;
    let mut snap_matches = true;
    for _ in 0..OPEN_REPS {
        let (opened, secs) =
            timed(|| ShardedIndex::<ZmIndex, GridRouter>::open_zm(&dir, &ctx.elsi));
        snap_secs = snap_secs.min(secs);
        snap_matches &= fingerprint(&opened.expect("open"), &windows) == clean_state;
    }

    // 4. Journal a churn stream through the live deployment, crash it
    // (drop without checkpointing), and recover from snapshot + WAL.
    let updates = churn(&pts, (n / 10).max(1), 0.7, 7);
    deployed.par_apply_updates(&updates);
    let dirty_state = fingerprint(&deployed, &windows);
    drop(deployed);
    let mut replay_secs = f64::INFINITY;
    let mut replay_matches = true;
    for _ in 0..OPEN_REPS {
        let (opened, secs) =
            timed(|| ShardedIndex::<ZmIndex, GridRouter>::open_zm(&dir, &ctx.elsi));
        replay_secs = replay_secs.min(secs);
        replay_matches &= fingerprint(&opened.expect("open"), &windows) == dirty_state;
    }
    std::fs::remove_dir_all(&dir).ok();

    let snap_speedup = cold_secs / snap_secs.max(1e-12);
    let measured = vec![
        Measured {
            label: format!("cold-build/ZM-{rows}x{cols}"),
            secs: cold_secs,
            speedup_vs_cold: 1.0,
            wal_records: 0,
            matches_live: true,
        },
        Measured {
            label: format!("save/ZM-{rows}x{cols}"),
            secs: save_secs,
            speedup_vs_cold: f64::NAN,
            wal_records: 0,
            matches_live: true,
        },
        Measured {
            label: format!("snapshot-open/ZM-{rows}x{cols}"),
            secs: snap_secs,
            speedup_vs_cold: snap_speedup,
            wal_records: 0,
            matches_live: snap_matches,
        },
        Measured {
            label: format!("wal-replay-open/ZM-{rows}x{cols}"),
            secs: replay_secs,
            speedup_vs_cold: cold_secs / replay_secs.max(1e-12),
            wal_records: updates.len(),
            matches_live: replay_matches,
        },
    ];

    let table: Vec<Vec<String>> = measured
        .iter()
        .map(|m| {
            vec![
                m.label.clone(),
                fmt_secs(m.secs),
                if m.speedup_vs_cold.is_finite() {
                    format!("{:.2}x", m.speedup_vs_cold)
                } else {
                    "-".to_string()
                },
                format!("{}", m.wal_records),
                if m.matches_live { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Recovery — cold build vs snapshot restore (n={n}, generation {generation})"),
        &["phase", "wall", "vs cold", "wal recs", "exact"],
        &table,
    );

    let records = measured
        .into_iter()
        .map(|m| {
            JsonRecord::new("recovery", m.label, m.secs, f64::NAN)
                .with_extra("n", n.to_string())
                .with_extra(
                    "speedup_vs_cold",
                    if m.speedup_vs_cold.is_finite() {
                        format!("{:.6}", m.speedup_vs_cold)
                    } else {
                        "null".to_string()
                    },
                )
                .with_extra("wal_records", m.wal_records.to_string())
                .with_extra(
                    "matches_live",
                    if m.matches_live { "true" } else { "false" }.to_string(),
                )
        })
        .collect();
    (records, snap_speedup)
}
