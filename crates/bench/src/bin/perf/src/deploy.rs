//! The deployment under test: `ShardedIndex<ZmIndex, LearnedRouter>` at
//! 4×4 shards, every shard built by the RS method.
//!
//! The method is fixed, not selected: the learned selector trains on
//! measured wall-clock costs, which would make the build — and everything
//! measured on it — differ from run to run.

use elsi::{Elsi, ElsiConfig, Method, RebuildPolicy};
use elsi_indices::{ZmConfig, ZmIndex};
use elsi_serve::{zm_codec, LearnedRouter, ShardContext, ShardedConfig, ShardedIndex};
use elsi_spatial::Point;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub type Deployment = ShardedIndex<ZmIndex, LearnedRouter>;

pub const SHARD_ROWS: usize = 4;
pub const SHARD_COLS: usize = 4;
pub const SHARDS: usize = SHARD_ROWS * SHARD_COLS;

/// The ELSI system for a data set of `n` points split over the shards.
/// Its own seed (model initialisation, sampling inside the build methods)
/// stays at the default: the run's seed picks the inputs, not the system.
pub fn elsi_system(n: usize) -> Elsi {
    Elsi::new(ElsiConfig::scaled_for(n / SHARDS))
}

fn perf_shard_builder(
    elsi: &Elsi,
) -> impl Fn(&ShardContext, Vec<Point>) -> ZmIndex + Send + Sync + 'static {
    let rs = Arc::new(elsi.fixed_builder(Method::Rs));
    move |_ctx: &ShardContext, pts: Vec<Point>| {
        ZmIndex::build(pts, &ZmConfig::default(), rs.as_ref())
    }
}

/// The rebuild policy the product ships for ZM deployments
/// (`ShardedIndex::zm`): thresholds on drift and update ratio.
fn perf_rebuild_policy(_shard: usize) -> RebuildPolicy {
    RebuildPolicy::Threshold {
        max_drift: 0.15,
        max_ratio: 10.0,
    }
}

pub fn build_deployment(points: Vec<Point>, elsi: &Elsi) -> Deployment {
    let router = LearnedRouter::fit_sampled(&points, SHARD_ROWS, SHARD_COLS);
    let cfg = ShardedConfig::grid(SHARD_ROWS, SHARD_COLS);
    ShardedIndex::build(
        points,
        router,
        &cfg,
        perf_shard_builder(elsi),
        perf_rebuild_policy,
    )
}

pub fn save_deployment(dep: &mut Deployment, dir: &Path) -> Result<u64, String> {
    dep.save(dir, &zm_codec()).map_err(|e| e.to_string())
}

pub fn reopen_deployment(dir: &Path, elsi: &Elsi) -> Result<Deployment, String> {
    Deployment::open(
        dir,
        perf_shard_builder(elsi),
        perf_rebuild_policy,
        &zm_codec(),
    )
    .map_err(|e| e.to_string())
}

/// Bytes of the files in the serving directory whose names end in
/// `suffix` (`""`: all of them — snapshots, WALs, manifest).
pub fn dir_bytes_of(dir: &Path, suffix: &str) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() && entry.file_name().to_string_lossy().ends_with(suffix) {
            total += meta.len();
        }
    }
    Ok(total)
}

pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    dir_bytes_of(dir, "")
}

/// A scratch directory beside the running binary — inside the build
/// directory, so inside the checkout and outside version control — removed
/// when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(tag: &str) -> Result<ScratchDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let parent = exe.parent().ok_or("the binary has no parent directory")?;
        let dir = parent.join(format!("perf-scratch-{}-{tag}", std::process::id()));
        // Left over from a killed run with a recycled pid: start clean.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// A fresh, empty sub-directory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
