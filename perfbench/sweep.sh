#!/usr/bin/env bash
# Runs every workload over several seeds for BENCHMARK.json's
# run_seconds and keeps each run's result line, building a result set
# for `perfbench compare`.
#
#   perfbench/sweep.sh OUT_DIR SEED...
#
# TRACE=1 makes traced runs (default 0). Run from the repository root.
# Each run writes OUT_DIR/<workload>.<seed>.json (or .<seed>.trace.json)
# and its stderr beside it as .log.
set -euo pipefail

out=${1:?usage: perfbench/sweep.sh OUT_DIR SEED...}
shift
[ "$#" -gt 0 ] || { echo "no seeds given" >&2; exit 2; }
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
[ -n "$seconds" ] || { echo "no run_seconds in BENCHMARK.json" >&2; exit 2; }
trace=${TRACE:-0}

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin=${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench
mkdir -p "$out"
suffix=$([ "$trace" = 1 ] && echo .trace || true)
for seed in "$@"; do
  for w in whatif_first_visit figure_grid_montage wearout_mc; do
    name="$out/$w.$seed$suffix"
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      2>"$name.log" | tail -n 1 >"$name.json"
    echo "$w seed $seed: $(head -c 160 "$name.json")"
  done
done
