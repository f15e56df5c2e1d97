#!/usr/bin/env bash
# Builds the root release `minos-server` and the harness, then runs the
# harness. See README.md next to this file.
#
#   benchmark/run.sh [--seed S] [--quick] [--trace]      every workload -> out/results.json
#   benchmark/run.sh --compare A.json B.json             row-by-row verdicts
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                        one workload, result on the last line
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds; a relative one (the driver sets
# `.bench_build`) is relative to where we were called from.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

if [ "${1:-}" != "--compare" ]; then
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin minos-server >&2
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/minos-benchmark" \
    --server "$target/release/minos-server" --root "$root" --out "$here/out" "$@"
