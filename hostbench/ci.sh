#!/usr/bin/env bash
# Build hostbench, run its unit tests, run the whole benchmark with five
# repetitions per pass, and — given a baseline result.json — fail when any
# end-to-end median is worse than the baseline by more than the metric's
# bound (the bounds of BENCHMARK.json; a unit test keeps the binary's copy
# in step with that file).
#
#   hostbench/ci.sh [BASELINE.json]        SEED=3 hostbench/ci.sh base.json
#
# Not wired into .github/workflows/ci.yml yet; a later change does that and
# retires serve_bench / ckpt_bench / BENCH_*.json in favour of this.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=hostbench/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"

bin="${CARGO_TARGET_DIR:-hostbench/target}/release/hostbench"
"$bin" --reps 5 --seed "${SEED:-1}"

if [ "$#" -ge 1 ]; then
    "$bin" --compare "$1" target/hostbench/result.json
fi
