#!/usr/bin/env bash
# Builds the `noceas` server and the perf_ledger benchmark from source
# into one target directory, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash perf_ledger/run.sh --workload svc_hot --seed 3 --seconds 10 --trace 0
#   bash perf_ledger/run.sh --seed 1 --out target/perf_ledger   # every workload
#
# perf_ledger finds `noceas` next to its own executable, so both must
# land in the same `release/` directory: CARGO_TARGET_DIR (default
# `target`) is shared by the two builds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" \
    -p noc-eas-cli --bin noceas
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/perf_ledger" "$@"
