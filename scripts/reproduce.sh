#!/usr/bin/env bash
# Regenerates every experiment output under results/ (see EXPERIMENTS.md).
# fig3/fig10/sp_stats/table6 also write results/<bin>.json report sets.
#
# The measurement binaries run on the parallel sweep engine: GCR_THREADS
# caps the worker count (default: all cores; output is byte-identical for
# any value), and the shared GCR_MEASURE_CACHE file below lets the fig10
# ablation pass reuse the base run's measurements instead of re-simulating.
# Fail loudly: any command failure, unset variable, or mid-pipe error
# aborts the run instead of silently producing partial results, and every
# interpolation is quoted (with `--` separators before positional paths)
# so a flag-like value can never be parsed as an option or create a
# flag-named file at the repo root again.
set -euo pipefail
cd -- "$(dirname -- "$0")/.."
mkdir -p -- results
MEASURE_CACHE="$(mktemp -t gcr-measure-cache.XXXXXX)"
trap 'rm -f -- "$MEASURE_CACHE"' EXIT
export GCR_MEASURE_CACHE="$MEASURE_CACHE"
for bin in table_apps fig10 sp_stats table6 bound_check fig3 evadable; do
  echo "== $bin =="
  cargo run --release -q -p gcr-bench --bin "$bin" | tee -- "results/$bin.txt"
done
echo "== fig10 --ablation =="
cargo run --release -q -p gcr-bench --bin fig10 -- --ablation \
  --json results/fig10_ablation.json | tee -- results/fig10_ablation.txt
