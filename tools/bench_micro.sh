#!/usr/bin/env bash
# Runs the micro_substrates benches and writes their rows, with where
# they were measured, as one JSON document (default BENCH_micro.json):
#
#   bash tools/bench_micro.sh [OUT]
#
# Each row is what the criterion shim prints: the median and quartiles
# of its per-sample ns/iter. The benches run unpinned.
set -euo pipefail

out="${1:-BENCH_micro.json}"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
rows="$(cargo bench --offline --quiet -p minos-bench --bench micro_substrates | grep '^{"bench"')"
commit="$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- crates src || echo '+dirty')"
{
    printf '{"provenance":{"commit":"%s","nproc":%s,"kernel":"%s","rustc":"%s","profile":"bench","pinned":false},\n' \
        "$commit" "$(nproc)" "$(uname -sr)" "$(rustc --version)"
    printf ' "rows":[\n'
    printf '%s\n' "$rows" | sed 's/^/  /; $!s/$/,/'
    printf ' ]}\n'
} > "$out"
echo "$(printf '%s\n' "$rows" | wc -l) rows -> $out" >&2
