//! # elsi-bench
//!
//! The experiment harness reproducing every table and figure of the ELSI
//! paper's evaluation (§VII): one binary, driven by the figure table in
//! [`figures`] —
//! `cargo run --release -p elsi-bench -- <fig06|…|fig16|table1|table2|all> [--json <path>]`.
//! Each entry prints the rows/series the paper reports and returns them as
//! [`figures::Record`]s; a [`session::Session`] builds what entries share
//! once per run. Query latencies all come from the three measure functions
//! in [`harness`] (warm-up pass, fixed repeats, p50 by the perf ledger's
//! own order statistics, [`stats`]).
//!
//! Scale knobs (environment variables):
//!
//! * `ELSI_BENCH_N` — base cardinality standing in for the paper's 100M
//!   OSM1 (other data sets keep the paper's relative sizes). Default 30,000.
//! * `ELSI_BENCH_EPOCHS` — training epochs for *all* models (OG and
//!   reduced alike, as in the paper). Default 50.
//! * `ELSI_THREADS` — rayon pool size (unset or 0: auto-detect).

#![warn(clippy::all)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod session;
/// The perf ledger's order statistics, compiled from the frozen harness's
/// own file so both instruments compute p50 the same way.
#[path = "bin/perf/src/stats.rs"]
pub mod stats;
pub mod updates;

pub use harness::*;
