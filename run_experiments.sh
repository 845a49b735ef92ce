#!/usr/bin/env sh
# Regenerates every table and figure of the paper plus the ablations.
# Artifacts land in experiments/ as text and JSON.
set -e
cd "$(dirname "$0")"
bin="${CARGO_TARGET_DIR:-target}/release"
cargo build --release -p zskip-bench --bins
for fig in fig6_area variant_sweep ablations; do
    echo "== $fig =="
    "$bin/$fig"
    echo
done
echo "artifacts written to experiments/"
