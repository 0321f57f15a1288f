#!/usr/bin/env bash
# Builds the daemon under test and the benchmark from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload <paper-sweep|batch-cold|daemon-warm> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin weaverd
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
export PERFBENCH_WEAVERD="$CARGO_TARGET_DIR/release/weaverd"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
