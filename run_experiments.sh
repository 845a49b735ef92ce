#!/usr/bin/env sh
# Regenerates every table and figure of the paper plus the ablations.
# Artifacts land in experiments/ as text and JSON.
set -e
cd "$(dirname "$0")"
cargo build --release -p zskip-bench --bins
for bin in fig6_area fig7_efficiency fig8_gops table1_power ablations; do
    echo "== $bin =="
    ./target/release/$bin
    echo
done
echo "artifacts written to experiments/"
