#!/usr/bin/env bash
# Build the host-clock benchmark from source, then run it.
#
#   bash hostbench/run.sh --workload serve_light --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Cargo's output goes to stderr; the last line
# of stdout is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/hostbench" "$@"
