#!/usr/bin/env bash
# Build the benchmark from source (offline) and run it.
#
#   bash benchmark/run.sh                      the suite: six workloads, untraced and traced
#   bash benchmark/run.sh --quick              smoke mode: 1 block, 10 frames, no traced pass
#   bash benchmark/run.sh --check-repeat       two sets of the same build, compared within bounds
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one run; the last line of stdout is its JSON result
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: stdout carries metrics only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# One malloc arena: peak memory then does not depend on which thread
# happened to allocate first. Every run, of every commit, is run this way.
export MALLOC_ARENA_MAX=1
exec "$target/release/frame-ledger" --out "$here/out" "$@"
