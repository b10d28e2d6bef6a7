#!/usr/bin/env bash
# The one command of the minsync benchmark. It builds `minsync-node` and the
# benchmark from the checkout it sits in, then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass over one workload; the last line of standard output is the
#       result object BENCHMARK.json describes (what the driver calls).
#   run.sh [--workload W]... [--seed N] [--seconds S] [--runs K] [--no-traced-pass]
#       the ledger: every workload (or the named ones) untraced, then one
#       traced pass each; prints every metric by name and unit and writes
#       out/results.json. Exit code 1 on any correctness miss.
#   run.sh compare A.json B.json
#       applies BENCHMARK.json's bounds to two result files and prints
#       same | worse | unresolved per workload and end-to-end metric.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ "${1:-}" = compare ]; then
    shift
    exec python3 "$here/compare.py" --benchmark "$root/BENCHMARK.json" "$@"
fi

# One target directory for both builds: the driver's, or our own ignored one.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p minsync-transport --bin minsync-node >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export MINSYNC_NODE_BIN="$target/release/minsync-node"
bench="$target/release/minsync-benchmark"

for arg in "$@"; do
    if [ "$arg" = --trace ]; then
        exec "$bench" "$@" --out "$here/out"
    fi
done
exec python3 "$here/suite.py" --bench "$bench" --benchmark "$root/BENCHMARK.json" \
    --out "$here/out" "$@"
