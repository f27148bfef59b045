#!/bin/sh
# Regenerates every table/figure of the paper into results/ with the one
# figure runner; a failing figure fails the run. Progress goes to stderr.
# Scale: ELSI_BENCH_N (default 30000) stands in for the paper's 100M OSM1,
# ELSI_BENCH_EPOCHS (default 50) for its 500 training epochs.
set -eu
cd "$(dirname "$0")"
cargo run --release -q -p elsi-bench -- all --json results/BENCH_figures.json >results/figures.txt
