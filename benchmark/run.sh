#!/usr/bin/env bash
# Builds the benchmark package and runs it from the repository root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in this process; the last line of output is its
#       result as one JSON object (what BENCHMARK.json's driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--record]
#       the whole suite, one child process per workload;
#       writes benchmark/out/result.json (--traced: benchmark/out/layers.json)
#   benchmark/run.sh compare A.json B.json | selfcheck | check [--quick]
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/gcr-benchmark"
# Pin glibc's mmap threshold, which otherwise grows with the largest block
# freed so far: arrays then return to the system when freed, and peak_rss_mb
# reads the live peak. Unpinned, a third of serve-mix's RSS is whichever
# worker thread's arena happened to keep the largest array (14-20 MB from
# run to run); pinned it repeats within 3 %. Timings do not move.
export MALLOC_MMAP_THRESHOLD_=131072
case "${1:-}" in
    run | suite | compare | selfcheck | check) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" suite "$@"
