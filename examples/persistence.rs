//! Durable sharded serving: save, crash, recover (`DESIGN.md` §14).
//!
//! Builds a learned-routed ZM deployment, checkpoints it into a serving
//! directory, journals a churn wave through the generation's journal, then
//! "crashes" (drops the deployment without checkpointing) and recovers —
//! verifying the recovered answers match the pre-crash state exactly.
//!
//! ```bash
//! cargo run --release -p elsi-serve --example persistence
//! ```

use elsi::{Elsi, ElsiConfig};
use elsi_indices::{SpatialIndex, ZmIndex};
use elsi_serve::{zm_codec, Router, ShardedConfig, ShardedIndex};
use elsi_spatial::Rect;

fn main() {
    let dir = std::env::temp_dir().join(format!("elsi_example_persist_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Build: 2x2 learned-routed ZM shards over clustered data.
    let elsi = Elsi::new(ElsiConfig::default());
    let points = elsi_data::gen::nyc_like(60_000, 42);
    let router = Router::fit_sampled(&points, 2, 2);
    let mut deployed = ShardedIndex::zm(points.clone(), router, &ShardedConfig::default(), &elsi);
    println!("built   {} points across 4 shards", deployed.len());

    // Checkpoint: writes generation 1 (router + per-shard snapshots),
    // starts the deployment's journal, and commits via atomic manifest
    // replace.
    let generation = deployed.save(&dir, &zm_codec()).expect("save");
    println!("saved   generation {generation} -> {}", dir.display());

    // Serve on: every call is one journal record, appended *before* any
    // shard changes, so the directory always covers the state.
    let churn = elsi_data::stream::churn(&points, 6_000, 0.7, 7);
    deployed.par_apply_updates(&churn);
    let window = Rect::new(0.4, 0.4, 0.6, 0.6);
    let before = deployed.window_query(&window);
    println!(
        "churned {} updates (journaled, not checkpointed)",
        churn.len()
    );

    // Crash: the process dies with the checkpoint one churn wave stale.
    drop(deployed);

    // Recover: manifest -> router state (exact cuts, no refit) -> the
    // journal split per shard -> one parallel pass restoring each shard's
    // snapshot and replaying its share -> journaling resumes.
    let recovered = ShardedIndex::<ZmIndex>::open_zm(&dir, &elsi).expect("open");
    let after = recovered.window_query(&window);
    assert_eq!(before, after, "recovery lost journaled updates");
    println!(
        "recovered {} points; window answer identical ({} hits)",
        recovered.len(),
        after.len()
    );

    for entry in std::fs::read_dir(&dir).expect("read_dir") {
        let entry = entry.expect("entry");
        println!(
            "  {:<22} {:>9} bytes",
            entry.file_name().to_string_lossy(),
            entry.metadata().map(|m| m.len()).unwrap_or(0)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
