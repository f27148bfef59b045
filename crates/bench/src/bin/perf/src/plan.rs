//! The five workloads: one serving lifecycle — set up, build, read one at a
//! time, read in batches, ingest beside reads, crash, recover — run with
//! five sets of sizes, so that each puts its time into different layers.
//! `BENCHMARK.json` says why each exists; the README has the long form.

use crate::inputs::{Dataset, Writes};

/// Op counts of one pass of one workload at `--seconds 10` on the reference
/// host; a run makes [`Plan::passes`] identical passes. Counts, not
/// durations, are fixed: the same seed replays the same op stream with the
/// same `attempted`, and the exact-count metrics repeat bit for bit.
/// `--seconds` scales the counts linearly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub name: &'static str,
    pub dataset: Dataset,
    pub n: usize,
    /// Whether ZM / ML-Index / RSMI / LISA are built as monoliths, once at
    /// each set-up (otherwise the workload's `build_s` is its deployment
    /// build).
    pub monoliths: bool,
    /// Sequential point lookups, in timed chunks of [`LOOKUP_CHUNK`].
    pub lookup_chunks: usize,
    pub windows: usize,
    pub window_area: f64,
    pub knns: usize,
    pub knn_k: usize,
    /// Calls of a 64-query mixed batch through the `par_*` entry points.
    pub small_batches: usize,
    /// Calls of a 16 384-query mixed batch.
    pub large_batches: usize,
    /// 1024-update batches, each followed by read-your-writes lookups.
    pub update_batches: usize,
    pub writes: Writes,
    /// Times the crashed deployment is reopened in each pass.
    pub recover_reps: usize,
    /// Identical lifecycle passes an untraced run makes; every sample is
    /// reported at its best time over them.
    pub passes: usize,
    /// Whether `read_kqps` is the 16 384-query batches' throughput (else
    /// the sequential reads').
    pub batched_reads: bool,
}

/// Point lookups are timed in chunks of this many; a sample is chunk / 64.
pub const LOOKUP_CHUNK: usize = 64;
/// Window area and `k` inside mixed batches: always the small kind, so a
/// batch's cost is the fan-out's, not the scan's.
pub const BATCH_WINDOW_AREA: f64 = 1e-5;
pub const BATCH_KNN_K: usize = 5;
/// Read-your-writes reads after every update batch.
pub const DIRTY_LOOKUPS: usize = 32;
pub const DIRTY_WINDOWS: usize = 2;
pub const DIRTY_WINDOW_AREA: f64 = 1e-4;

/// Shape of a mixed batch of `size` queries: point lookups but for a
/// thirty-second each of windows and kNN (a kNN query costs some thirty
/// lookups, so this splits a batch's time about evenly).
pub fn batch_shape(size: usize) -> (usize, usize, usize) {
    (size - 2 * (size / 32), size / 32, size / 32)
}

pub const SMALL_BATCH: usize = 64;
pub const LARGE_BATCH: usize = 16_384;

const BASE: Plan = Plan {
    name: "",
    dataset: Dataset::Clustered,
    n: 250_000,
    monoliths: false,
    lookup_chunks: 64,
    windows: 400,
    window_area: 1e-4,
    knns: 200,
    knn_k: 25,
    small_batches: 40,
    large_batches: 1,
    update_batches: 48,
    // Background writes that follow the data: no shard rebuilds, so the
    // update throughput here is the plain ingest path's. A rebuild or two
    // in a stream this short would decide the whole number.
    writes: Writes::FollowingData,
    recover_reps: 3,
    passes: 12,
    batched_reads: false,
};

pub const PLANS: [Plan; 5] = [
    Plan {
        name: "build-learned",
        monoliths: true,
        passes: 6,
        ..BASE
    },
    Plan {
        name: "read-small",
        lookup_chunks: 384,
        windows: 3_000,
        knns: 800,
        ..BASE
    },
    Plan {
        name: "read-wide",
        windows: 300,
        window_area: 1e-2,
        knns: 150,
        knn_k: 1_000,
        ..BASE
    },
    Plan {
        name: "read-batch",
        dataset: Dataset::Skewed,
        small_batches: 500,
        large_batches: 5,
        batched_reads: true,
        ..BASE
    },
    Plan {
        name: "ingest-durable",
        dataset: Dataset::Uniform,
        // Its point and window latencies are the read-your-writes reads
        // against a dirty overlay; it has no clean sequential phase.
        lookup_chunks: 0,
        windows: 0,
        update_batches: 100,
        writes: Writes::MovingHotspot,
        recover_reps: 1,
        ..BASE
    },
];

/// `--scale`: the committed sizes, or a seconds-long pass for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

impl Plan {
    pub fn named(name: &str) -> Option<Plan> {
        PLANS.into_iter().find(|p| p.name == name)
    }

    /// The plan at `seconds` of measuring (10 = as committed). A phase the
    /// plan has keeps at least one op.
    pub fn scaled_to(self, seconds: f64) -> Plan {
        let s = |count: usize| -> usize {
            if count == 0 {
                0
            } else {
                ((count as f64 * seconds / 10.0).round() as usize).max(1)
            }
        };
        Plan {
            lookup_chunks: s(self.lookup_chunks),
            windows: s(self.windows),
            knns: s(self.knns),
            small_batches: s(self.small_batches),
            large_batches: s(self.large_batches),
            update_batches: s(self.update_batches),
            ..self
        }
    }

    /// The plan over 2 000 points with every phase cut to a handful of ops
    /// (still enough for the oracle's sample sizes): seconds in a debug
    /// build, so the test suite can run all five workloads.
    pub fn smoke(self) -> Plan {
        Plan {
            n: 2_000,
            lookup_chunks: self.lookup_chunks.min(4),
            windows: self.windows.min(64),
            knns: self.knns.min(32),
            knn_k: self.knn_k.min(40),
            small_batches: 4,
            large_batches: 1,
            update_batches: 8,
            recover_reps: 1,
            passes: 2,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_match_the_committed_workload_names() -> Result<(), String> {
        let spec = crate::spec::Spec::committed()?;
        let names: Vec<&str> = PLANS.iter().map(|p| p.name).collect();
        assert_eq!(names, spec.workloads);
        assert!(Plan::named("read-wide").is_some());
        assert!(Plan::named("nope").is_none());
        Ok(())
    }

    #[test]
    fn scaling_is_linear_and_keeps_phases_alive() -> Result<(), String> {
        let p = Plan::named("read-small").ok_or("no plan")?;
        assert_eq!(p.scaled_to(10.0), p);
        let half = p.scaled_to(5.0);
        assert_eq!(half.windows, 1_500);
        assert_eq!(half.passes, p.passes);
        assert_eq!(half.n, p.n);
        let tiny = p.scaled_to(0.001);
        assert!(tiny.windows >= 1 && tiny.large_batches >= 1);
        let ingest = Plan::named("ingest-durable").ok_or("no plan")?;
        let smoke = ingest.smoke();
        assert_eq!((smoke.n, smoke.lookup_chunks, smoke.windows), (2_000, 0, 0));
        assert_eq!(smoke.scaled_to(10.0), smoke);
        Ok(())
    }
}
