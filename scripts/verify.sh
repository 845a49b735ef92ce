#!/usr/bin/env bash
# Repo verification gate: release build, full test suite, lint-clean.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: the bench bins the gates below run live in zskip-bench,
# which a root-package build does not produce.
cargo build --release --workspace
cargo test -q --workspace
# --workspace here too, so the member crates' own tests are linted.
cargo clippy --workspace --all-targets -- -D warnings

# The end-to-end benchmark harness is its own workspace and imports
# `zskip::` names directly; a deletion that breaks one must fail here,
# not in the benchmark driver.
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets

# API docs must build warning-free (broken intra-doc links and malformed
# doc comments fail here, not on docs.rs).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Fault-matrix campaign: every single injected fault must degrade
# gracefully (no panic, no hang — hence the hard timeout). Small config
# keeps this a few seconds even on one core.
timeout 120 ./target/release/zskip faults --hw 8 --json > /dev/null

# Scheduler regression guard: a reduced hosted workload under both
# steppers. Fails on divergence from the dense oracle, on the event
# scheduler not engaging (no parks / no idle jumps), or on it timing
# slower than dense — the win is structural on this workload, so the
# wall-clock comparison holds even on a noisy box.
timeout 300 ./target/release/sim_bench --check

# Kernel dispatch matrix: the SIMD bit-exactness property tests — and the
# crate's own exactness suites for the lowering, the block epilogue, the
# maxpool and the fused join against their oracles — must pass both at
# the host's native tier and pinned to the scalar oracle tier (the tests
# themselves iterate every reachable tier; pinning the env override
# exercises the ZSKIP_KERNEL fallback path end to end).
cargo test -q -p zskip-nn --lib --test kernel_tiers
ZSKIP_KERNEL=scalar cargo test -q -p zskip-nn --lib --test kernel_tiers

# ... and every tier must carry a whole network: CI's matrix drives
# `native` and `scalar` only, so without this the SSE2 and AVX2 bodies are
# reached by proptests but never by VGG-16 or the ResNet-18 DAG (nor the
# block epilogue each tier inlines). Golden model and cpu backend run the
# same lowering, GEMM, maxpool and join on every tier, the scalar one
# included, so `infer`'s own bit-exactness assertion checks the driver
# around it; the pinned cycle counts show the run completed on the right
# model. A tier the host lacks falls back to the best supported one, so
# the loop is portable.
for tier in scalar sse2 avx2 avx512; do
  tier_out=$(ZSKIP_KERNEL=$tier timeout 300 ./target/release/zskip infer --hw 32 --backend cpu)
  printf '%s\n' "$tier_out" | grep -q '^1603970 cycles' \
    || { echo "verify: vgg16-32 infer under ZSKIP_KERNEL=$tier must report 1603970 cycles"; exit 1; }
  tier_out=$(ZSKIP_KERNEL=$tier timeout 300 ./target/release/zskip infer --network specs/resnet18.json --hw 32 --backend cpu)
  printf '%s\n' "$tier_out" | grep -q '^212601 cycles' \
    || { echo "verify: resnet18 infer under ZSKIP_KERNEL=$tier must report 212601 cycles"; exit 1; }
done

# Kernel-tier performance gate: every SIMD tier's GEMM must beat scalar
# on the VGG-shaped reference layers — by 3x on the deep shapes (4x4 and
# 2x2 planes, FC) — and the scratch arena's steady-state forward pass must
# perform zero heap allocations.
timeout 300 ./target/release/kernel_bench --check > /dev/null

# Serving-daemon smoke: a request burst plus shutdown through the wire
# protocol must drain cleanly (exit 0, every request answered ok), the
# first request must go straight to an idle worker (no batch window: well
# under a millisecond queued), and a protocol-breaking line must make the
# daemon exit non-zero.
serve_out=$(timeout 120 ./target/release/zskip serve --hw 32 --backend cpu <<'EOF'
{"op":"infer","id":"v1","seed":3}
{"op":"infer","id":"v2","seed":4}
{"op":"infer","id":"v3","seed":5}
{"op":"stats"}
{"op":"shutdown"}
EOF
)
[ "$(printf '%s\n' "$serve_out" | grep -c '"ok":true')" -ge 5 ] \
  || { echo "verify: serve smoke missing ok responses"; exit 1; }
printf '%s\n' "$serve_out" | grep -q '"op":"shutdown","draining":true' \
  || { echo "verify: serve smoke missing shutdown ack"; exit 1; }
first_queue_us=$(printf '%s\n' "$serve_out" | grep '"id":"v1"' | sed 's/.*"queue_us":\([0-9]*\).*/\1/')
[ "$first_queue_us" -lt 1000 ] \
  || { echo "verify: the first request waited $first_queue_us us for an idle worker (need < 1000)"; exit 1; }
if printf 'this is not json\n' | timeout 120 ./target/release/zskip serve --hw 32 --backend cpu > /dev/null; then
  echo "verify: serve must exit non-zero on a protocol error"; exit 1
fi

# Multi-instance sharding smoke: a 4-instance layer-pipelined batch must
# run end to end, stay bit-exact vs the golden model (infer asserts it),
# and report the placement it resolved.
shard_out=$(timeout 300 ./target/release/zskip batch --hw 32 --n 4 --instances 4 --placement pipeline)
printf '%s\n' "$shard_out" | grep -q 'pipeline placement' \
  || { echo "verify: sharded batch did not report pipeline placement"; exit 1; }
timeout 300 ./target/release/zskip infer --hw 32 --instances 4 --placement pipeline > /dev/null

# Throughput gates: the daemon's queue + resident workers must deliver
# >= 0.9x the raw batch engine on the same offered burst of cpu-backend
# ResNet-18 images, and the
# placement scheduler must hit its simulated-time floors (image-parallel
# >= 2.5x at 4 instances; pipeline beats image on single-image latency).
timeout 300 ./target/release/batch_bench --check

# Cold-start smoke, the benchmark's `vgg16_cold` command: the simulated
# cycle count is a function of the synthetic weight stream (seed ->
# ChaCha words -> Gaussian draws -> pruned zero pattern) and the benchmark
# holds it exact, so a drift anywhere in the model set-up fails here in
# seconds rather than in the benchmark's exact-count bound.
cold_out=$(timeout 300 ./target/release/zskip infer --hw 32 --backend cpu)
printf '%s\n' "$cold_out" | grep -q '^1603970 cycles' \
  || { echo "verify: vgg16-32 infer must report 1603970 cycles (weight stream or model drifted)"; exit 1; }
# The two executors that read the packed weight stream itself — the
# transaction model in place, the cycle backend's staging kernels through
# their scratchpad copy — at their own pinned counts (infer asserts
# bit-exactness vs the golden model on both). The cycle backend runs one
# engine per instruction on `--threads` workers and adds the runs up: the
# sum must be the whole-stream count at any width (0 = host auto).
for pin in model:1603970:0 cycle:1605470:0 cycle:1605470:1 cycle:1605470:3; do
  IFS=: read -r backend cycles threads <<< "$pin"
  exec_out=$(timeout 300 ./target/release/zskip infer --hw 32 --backend "$backend" --threads "$threads")
  printf '%s\n' "$exec_out" | grep -q "^$cycles cycles" \
    || { echo "verify: vgg16-32 infer --backend $backend --threads $threads must report $cycles cycles"; exit 1; }
done

# Graph-network smoke: the in-repo ResNet-18 spec must load, plan and run
# end to end on the cpu backend (infer asserts bit-exactness vs the
# golden DAG oracle internally) at its pinned simulated cycle count, and
# `analyze` must walk the same DAG.
resnet_out=$(timeout 300 ./target/release/zskip infer --network specs/resnet18.json --hw 32 --backend cpu)
printf '%s\n' "$resnet_out" | grep -q '^212601 cycles' \
  || { echo "verify: resnet18 infer must report 212601 cycles (weight stream or model drifted)"; exit 1; }
# The same DAG through the model backend's functional executor: every
# padded conv is the pad pass and the conv pass staged back to back, and
# infer's bit-exactness assertion holds that fused pair to the golden walk.
resnet_out=$(timeout 300 ./target/release/zskip infer --network specs/resnet18.json --hw 32 --backend model)
printf '%s\n' "$resnet_out" | grep -q '^212601 cycles' \
  || { echo "verify: resnet18 infer --backend model must report 212601 cycles"; exit 1; }
analyze_out=$(timeout 300 ./target/release/zskip analyze --network specs/resnet18.json)
printf '%s\n' "$analyze_out" | grep -q 'branch point' \
  || { echo "verify: analyze --network did not report the residual branch points"; exit 1; }

# Malformed specs — unparseable, or well-formed with an empty conv window
# (`"k": 0` used to pass validation and panic in set-up) — must fail
# closed with the stable machine-readable code and exit 2 (scripted
# callers branch on both).
bad_spec=$(mktemp -t zskip-badspec-XXXXXX.json)
for spec in '{"name": 1}' \
  '{"name":"k0","input":{"c":3,"h":8,"w":8},"layers":[{"op":"conv","name":"c","in_c":3,"out_c":4,"k":0,"stride":1,"pad":0,"relu":true}]}'; do
  printf '%s\n' "$spec" > "$bad_spec"
  set +e
  bad_out=$(timeout 120 ./target/release/zskip infer --network "$bad_spec" 2>&1)
  bad_rc=$?
  set -e
  [ "$bad_rc" -eq 2 ] || { echo "verify: malformed spec $spec must exit 2 (got $bad_rc)"; exit 1; }
  printf '%s\n' "$bad_out" | grep -q 'error\[spec.invalid\]' \
    || { echo "verify: malformed spec $spec missing the spec.invalid error code"; exit 1; }
done
rm -f "$bad_spec"

# Fail-closed CLI: bad knob values — as flags or as artifact fields — bad
# workload flags and artifacts with fields this build does not know must
# each exit 2 with the stable config.invalid code, never panic (101).
expect_invalid() {
  local rc=0 out
  out=$(timeout 120 ./target/release/zskip "$@" 2>&1 >/dev/null) || rc=$?
  [ "$rc" -eq 2 ] || { echo "verify: zskip $* must exit 2 (got $rc)"; exit 1; }
  printf '%s\n' "$out" | grep -q 'error\[config.invalid\]' \
    || { echo "verify: zskip $* missing the config.invalid error code"; exit 1; }
}
bad_cfg=$(mktemp -t zskip-badcfg-XXXXXX.json)
expect_invalid infer --hw 32 --instances 0
expect_invalid infer --hw 16
expect_invalid infer --hw 32 --density 7
printf '{"version": 4, "thread": 4}\n' > "$bad_cfg"
expect_invalid infer --hw 32 --config "$bad_cfg"
timeout 300 ./target/release/zskip tune --budget 1 --out "$bad_cfg" > /dev/null
sed -i 's/"instances": 1,/"instances": 0,/' "$bad_cfg"
expect_invalid infer --hw 32 --config "$bad_cfg"
# A deleted knob's artifact field is an unknown field like any other.
timeout 300 ./target/release/zskip tune --budget 1 --out "$bad_cfg" > /dev/null
sed -i 's/^  "placement"/  "park_hysteresis": null,\n  "placement"/' "$bad_cfg"
grep -q '"park_hysteresis": null' "$bad_cfg" \
  || { echo "verify: the park_hysteresis fixture was not written"; exit 1; }
expect_invalid infer --hw 32 --config "$bad_cfg"
# An artifact the previous build wrote — version 3, with the serve loop's
# deleted batch-shaping knobs — is refused whole.
timeout 300 ./target/release/zskip tune --budget 1 --out "$bad_cfg" > /dev/null
sed -i -e 's/"version": 4,/"version": 3,/' -e 's/^  "queue_depth"/  "max_batch": 8,\n  "batch_window_ms": 2,\n  "queue_depth"/' "$bad_cfg"
grep -q '"batch_window_ms": 2' "$bad_cfg" \
  || { echo "verify: the version-3 fixture was not written"; exit 1; }
expect_invalid infer --hw 32 --config "$bad_cfg"
rm -f "$bad_cfg"
# A deleted knob's flag is an unknown flag like any other: exit 2.
for gone in "infer --hw 32 --weight-cache off" "serve --hw 32 --batch-window-ms 0" "serve --hw 32 --max-batch 1"; do
  gone_rc=0
  gone_out=$(timeout 120 ./target/release/zskip $gone 2>&1 >/dev/null </dev/null) || gone_rc=$?
  [ "$gone_rc" -eq 2 ] || { echo "verify: zskip $gone must exit 2 (got $gone_rc)"; exit 1; }
  printf '%s\n' "$gone_out" | grep -q 'unknown flag --' \
    || { echo "verify: zskip $gone must report an unknown flag"; exit 1; }
done
# ... and what `infer` reports comes from the session it ran: two instances
# run at the cost model's congestion-derated clock, not the variant's.
two_out=$(timeout 300 ./target/release/zskip infer --hw 32 --instances 2)
printf '%s\n' "$two_out" | grep -q ' at 117 MHz' \
  || { echo "verify: infer --instances 2 must report the derated 117 MHz clock"; exit 1; }

# Autotuner smoke: a tiny-budget deterministic tune must emit a loadable
# artifact, and loading it back through --config must run end to end
# (infer asserts bit-exactness vs the golden model internally).
tune_out=$(mktemp -t zskip-tuned-XXXXXX.json)
timeout 300 ./target/release/zskip tune --objective cycles --space hls --budget 8 --out "$tune_out" > /dev/null
timeout 300 ./target/release/zskip infer --hw 32 --config "$tune_out" > /dev/null
rm -f "$tune_out"

# Autotuner gates: every objective's tuned config must score no worse
# than the default, the cycles search must match/beat the best
# hand-picked HLS variant, at least one software objective must improve
# >= 10%, and the same-seed rerun must be byte-identical.
timeout 300 ./target/release/tune_bench --check
echo "verify: OK"
