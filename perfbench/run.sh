#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the
# given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --self-check
# Build output goes to standard error, so the benchmark's result line
# stays the last line of standard output. Without the repository's
# crates next to it the build fails and the script exits non-zero.
set -u
cd "$(dirname "$0")/.." || exit 1
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2 || exit 1
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
