#!/usr/bin/env bash
# Regenerates every figure, ablation and simulation of EXPERIMENTS.md into
# results/. Full scale takes ~10 minutes; pass --quick for a smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."
ARGS=("$@")
cargo build --release -p prmsel-bench
mkdir -p results
for bin in fig4 fig5 fig6 fig7 ablation maintenance optimizer; do
  echo "== $bin =="
  ./target/release/$bin "${ARGS[@]}" | tee "results/$bin.txt"
done
