#!/usr/bin/env bash
# Build the benchmark offline, then run it; every argument goes to the
# binary (see README.md). The driver calls this as
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# from the root of a checkout, with CARGO_TARGET_DIR set.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Fails (non-zero, no result line) where ../crates and ../vendor are absent.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/onepass-benchmark" --out-dir "$here/out" "$@"
