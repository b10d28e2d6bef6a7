#!/usr/bin/env bash
# Prints the two line counts ROADMAP item 9 tracks:
#   1. every *.rs line in the repository outside benchmark/ and target/;
#   2. non-test lines of *.rs under crates/*/src, each file cut at its
#      first line-start `#[cfg(test)]`.
# Run from anywhere: bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

all=$(find . -name '*.rs' -not -path './benchmark/*' -not -path './target/*' \
    -exec cat {} + | wc -l)
non_test=$(find crates/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; \
    | awk '{ s += $1 } END { print s }')
echo "rust lines outside benchmark/: $all"
echo "non-test lines under crates/*/src: $non_test"
