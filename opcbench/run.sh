#!/usr/bin/env bash
# Builds opcbench from source (release, offline) and runs it with the
# given arguments, from the root of the repository:
#
#   bash opcbench/run.sh --workload fig12_density --seed 1 --seconds 10 --trace 0
#
# The build goes to $CARGO_TARGET_DIR when set, else to opcbench/target.
# Cargo's output goes to stderr, so the last line of stdout is the
# benchmark's result. Outside a full checkout (no crates/ to build
# against) the build fails and the script exits nonzero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/opcbench" "$@"
