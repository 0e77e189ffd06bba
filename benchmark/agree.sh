#!/usr/bin/env bash
# Runs the whole benchmark twice on this commit and prints every
# end-to-end metric x workload with both readings and its bound.
# Exits non-zero when a pair differs by more than its bound, when any
# model.* value differs at all, or when either run fails a check.
#
#   benchmark/agree.sh [--seed N] [--seconds S]
#
# Takes about twice the full command (two passes of four workloads,
# twice: ~9 min at the default 28 s).
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

for run in a b; do
    echo "##### run $run #####"
    bench --out "benchmark/out/agree-$run" "$@"
done
bench --compare benchmark/out/agree-a/results.json benchmark/out/agree-b/results.json
