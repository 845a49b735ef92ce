#!/usr/bin/env bash
# Repo verification gate: release build, full test suite, lint-clean.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."
# Where cargo puts the release binaries: CARGO_TARGET_DIR when it is set.
bin="${CARGO_TARGET_DIR:-target}/release"

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
# gracefully (no panic, no hang — hence the hard timeout), and the
# campaign's report must be exactly the recorded golden: each trial's
# outcome, error code and detail, including the deadlock message that
# names the wedged FIFO and its waiting peers. Small config keeps this a
# few seconds even on one core.
timeout 120 "$bin"/zskip faults --hw 8 --json | diff -u tests/golden/faults_hw8.json - \
  || { echo "verify: zskip faults --hw 8 --json failed or differs from tests/golden/faults_hw8.json"; exit 1; }

# Waveform pins: `zskip trace` (one conv instruction on the 21-kernel
# design, waveform plus utilization table) and the waveforms example
# (dense, sparse and skewed convs, a max-pool) must print exactly the
# recorded goldens — every kernel's state in every traced cycle.
timeout 120 "$bin"/zskip trace | diff -u tests/golden/trace.txt - \
  || { echo "verify: zskip trace differs from tests/golden/trace.txt"; exit 1; }
timeout 300 cargo run -q --release --example waveforms | diff -u tests/golden/waveforms.txt - \
  || { echo "verify: the waveforms example differs from tests/golden/waveforms.txt"; exit 1; }

# Kernel dispatch matrix: the SIMD bit-exactness property tests — and the
# crate's own exactness suites for the lowering, the block epilogue, the
# maxpool and the fused join against their oracles — must pass both at
# the host's native tier and pinned to the scalar oracle tier (the tests
# themselves iterate every reachable tier; pinning the env override
# exercises the ZSKIP_KERNEL fallback path end to end).
cargo test -q -p zskip-nn --lib --test kernel_tiers
ZSKIP_KERNEL=scalar cargo test -q -p zskip-nn --lib --test kernel_tiers
# On an AMX host the native tier is amx, whose conv layers mostly run on
# the tiles: pinned to avx512, the same suites run the AVX-512 GEMM and
# the direct kernel end to end as a host without AMX dispatches them.
ZSKIP_KERNEL=avx512 cargo test -q -p zskip-nn --lib --test kernel_tiers

# The Box–Muller draw's exhaustive checks: the scalar transcription of
# `logf` / `cosf` against the host's libm on all 2²⁴ `u1` and angles, and
# the AVX-512 kernel's lanes against the scalar on the same domains. The
# kernel's check is ignored in debug (intrinsics uninlined: ≈ 9 s); in
# release all of them take under a second. Beside them the weight
# quantizer's: the AVX-512 kernel against `QuantParams::quantize` on all
# 2³² `f32` bit patterns at three scales (≈ 35 s on two cores, the scalar
# oracle's share most of it).
cargo test -q --release -p zskip-nn --lib -- --include-ignored boxmuller weight_quant

# The activation scales of the CLI recipe, bit for bit, on ResNet-18-32
# and VGG-16-32 (the VGG-16 calibration pass is ignored in debug builds).
cargo test -q --release -p zskip-nn --test model_artifact -- --include-ignored

# ... and every tier must carry a whole network: CI's matrix drives
# `native` and `scalar` only, so without this the SSE2 and AVX2 bodies are
# reached by proptests but never by VGG-16 or the ResNet-18 DAG (nor the
# block epilogue each tier inlines). Golden model and cpu backend run the
# same lowering, GEMM, maxpool and join on every tier, the scalar one
# included, so `infer`'s own bit-exactness assertion checks the driver
# around it; the pinned cycle counts show the run completed on the right
# model. A tier the host lacks falls back to the best supported one, so
# the loop is portable.
# Each tier's whole printout (the predicted class among it) must also be
# the scalar tier's, the first run.
for tier in scalar sse2 avx2 avx512 amx; do
  tier_out=$(ZSKIP_KERNEL=$tier timeout 300 "$bin"/zskip infer --hw 32 --backend cpu)
  printf '%s\n' "$tier_out" | grep -q '^1603970 cycles' \
    || { echo "verify: vgg16-32 infer under ZSKIP_KERNEL=$tier must report 1603970 cycles"; exit 1; }
  printf '%s\n' "$tier_out" | grep -q '^bit-exact vs the software golden model$' \
    || { echo "verify: vgg16-32 infer under ZSKIP_KERNEL=$tier must be bit-exact vs the golden model"; exit 1; }
  [ "$tier" = scalar ] && vgg_scalar_out=$tier_out
  [ "$tier_out" = "$vgg_scalar_out" ] \
    || { echo "verify: vgg16-32 infer under ZSKIP_KERNEL=$tier differs from the scalar tier's"; exit 1; }
  tier_out=$(ZSKIP_KERNEL=$tier timeout 300 "$bin"/zskip infer --network specs/resnet18.json --hw 32 --backend cpu)
  printf '%s\n' "$tier_out" | grep -q '^212601 cycles' \
    || { echo "verify: resnet18 infer under ZSKIP_KERNEL=$tier must report 212601 cycles"; exit 1; }
  printf '%s\n' "$tier_out" | grep -q '^bit-exact vs the software golden model$' \
    || { echo "verify: resnet18 infer under ZSKIP_KERNEL=$tier must be bit-exact vs the golden model"; exit 1; }
  [ "$tier" = scalar ] && resnet_scalar_out=$tier_out
  [ "$tier_out" = "$resnet_scalar_out" ] \
    || { echo "verify: resnet18 infer under ZSKIP_KERNEL=$tier differs from the scalar tier's"; exit 1; }
done

# Kernel-tier performance gate: every SIMD tier's GEMM must beat scalar
# on the VGG-shaped reference layers — avx2 and avx512 by 3x on the deep
# shapes (4x4 and 2x2 planes, FC) — sse2 must run at 0.47x the avx2
# tier's throughput on an L2-resident FC, and the scratch arena's
# steady-state forward pass must perform zero heap allocations.
timeout 300 "$bin"/kernel_bench --check > /dev/null

# Serving-daemon smoke: a request burst plus shutdown through the wire
# protocol must drain cleanly (exit 0, every request answered ok), the
# first request must go straight to an idle worker (no batch window: well
# under a millisecond queued), and a protocol-breaking line must make the
# daemon exit non-zero.
serve_out=$(timeout 120 "$bin"/zskip serve --hw 32 --backend cpu <<'EOF'
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
if printf 'this is not json\n' | timeout 120 "$bin"/zskip serve --hw 32 --backend cpu > /dev/null; then
  echo "verify: serve must exit non-zero on a protocol error"; exit 1
fi

# Number spellings at the CLI: one raw 3 072-value image sent three times,
# as `0.5`, as `5e-1` and as a 20-digit significand that rounds to the same
# f64 (the request reader's fast path, its exponent path and its fallback
# to the standard parser), must get three identical `output` arrays.
spelt_request() {
  # `yes` ends on SIGPIPE, which pipefail would report.
  printf '{"op":"infer","id":"%s","image":[%s]}\n' "$1" "$(yes "$2" | head -n 3072 | paste -sd, - || true)"
}
spelt_out=$( { spelt_request plain 0.5; spelt_request exponent 5e-1; spelt_request long 0.50000000000000000001;
  printf '{"op":"shutdown"}\n'; } | timeout 120 "$bin"/zskip serve --hw 32 --backend cpu)
[ "$(printf '%s\n' "$spelt_out" | grep -c '"ok":true,"argmax"')" -eq 3 ] \
  || { echo "verify: serve did not answer all three spellings of one image"; exit 1; }
[ "$(printf '%s\n' "$spelt_out" | grep '"ok":true,"argmax"' | sed 's/.*"output":\(\[[^]]*\]\).*/\1/' | sort -u | wc -l)" -eq 1 ] \
  || { echo "verify: three spellings of one image got different outputs"; exit 1; }

# Multi-instance sharding pins: every placement's whole timeline (makespan,
# per-instance busy cycles, pipeline bubbles, staging split) and per-image
# lines must be exactly the recorded goldens — on 4 instances under each
# explicit placement, a single pipelined image (infer asserts bit-exactness
# vs the golden model) and ResNet-18 on 2 instances under auto.
for placement in stripe image pipeline; do
  timeout 300 "$bin"/zskip batch --hw 32 --n 4 --instances 4 --placement "$placement" \
    | diff -u "tests/golden/shard_batch_$placement.txt" - \
    || { echo "verify: zskip batch --instances 4 --placement $placement differs from its golden"; exit 1; }
done
timeout 300 "$bin"/zskip infer --hw 32 --instances 4 --placement pipeline \
  | diff -u tests/golden/shard_infer_pipeline.txt - \
  || { echo "verify: zskip infer --instances 4 --placement pipeline differs from its golden"; exit 1; }
timeout 300 "$bin"/zskip batch --network specs/resnet18.json --hw 32 --n 3 --instances 2 \
  | diff -u tests/golden/shard_batch_resnet18_auto.txt - \
  || { echo "verify: zskip batch --network specs/resnet18.json --instances 2 differs from its golden"; exit 1; }

# Throughput gates: the daemon's queue + resident workers must deliver
# >= 0.9x the raw batch engine on the same offered burst of cpu-backend
# ResNet-18 images, and the
# placement scheduler must hit its simulated-time floors (image-parallel
# >= 2.5x at 4 instances; pipeline beats image on single-image latency).
timeout 300 "$bin"/batch_bench --check

# Cold-start smoke, the benchmark's `vgg16_cold` command: the simulated
# cycle count is a function of the synthetic weight stream (seed ->
# ChaCha words -> Gaussian draws -> pruned zero pattern) and the benchmark
# holds it exact, so a drift anywhere in the model set-up fails here in
# seconds rather than in the benchmark's exact-count bound.
cold_out=$(timeout 300 "$bin"/zskip infer --hw 32 --backend cpu)
printf '%s\n' "$cold_out" | grep -q '^1603970 cycles' \
  || { echo "verify: vgg16-32 infer must report 1603970 cycles (weight stream or model drifted)"; exit 1; }
# The two executors that read the packed weight stream itself — the
# transaction model in place (the default `model` backend's statistics),
# the cycle backend's staging kernels through their scratchpad copy — at
# their own pinned counts (infer asserts bit-exactness vs the golden model
# on the cycle engine's output). The cycle backend runs one engine per
# instruction on `--threads` workers and adds the runs up: the sum must be
# the whole-stream count at any width (0 = host auto).
for pin in model:1603970:0 cycle:1605470:0 cycle:1605470:1 cycle:1605470:3; do
  IFS=: read -r backend cycles threads <<< "$pin"
  exec_out=$(timeout 300 "$bin"/zskip infer --hw 32 --backend "$backend" --threads "$threads")
  printf '%s\n' "$exec_out" | grep -q "^$cycles cycles" \
    || { echo "verify: vgg16-32 infer --backend $backend --threads $threads must report $cycles cycles"; exit 1; }
done

# Graph-network smoke: the in-repo ResNet-18 spec must load, plan and run
# end to end on the cpu backend (infer asserts bit-exactness vs the
# golden DAG oracle internally) at its pinned simulated cycle count, and
# `analyze` must walk the same DAG.
resnet_out=$(timeout 300 "$bin"/zskip infer --network specs/resnet18.json --hw 32 --backend cpu)
printf '%s\n' "$resnet_out" | grep -q '^212601 cycles' \
  || { echo "verify: resnet18 infer must report 212601 cycles (weight stream or model drifted)"; exit 1; }
# The same DAG under the default backend name must print what the cpu
# backend prints but for the backend's name (the two names are one path),
# and through the cycle engine, the functional oracle of the
# accelerator's data movement, it runs at its own pinned count: every
# padded conv is the pad pass and the conv pass staged back to back, and
# infer's bit-exactness assertion holds that fused pair to the golden
# walk.
diff -u <(timeout 300 "$bin"/zskip infer --network specs/resnet18.json --hw 32 --backend model | sed 's/model backend/cpu backend/') \
  <(printf '%s\n' "$resnet_out") \
  || { echo "verify: resnet18 infer differs between the model and cpu backends"; exit 1; }
resnet_out=$(timeout 300 "$bin"/zskip infer --network specs/resnet18.json --hw 32 --backend cycle)
printf '%s\n' "$resnet_out" | grep -q '^214103 cycles' \
  || { echo "verify: resnet18 infer --backend cycle must report 214103 cycles"; exit 1; }

# Two names, one path: the default `model` backend is the cpu backend's
# golden walk plus its recorded report, so `infer` prints the same lines
# on both but for the backend's name.
for seed in 3 7 11; do
  diff -u <(timeout 300 "$bin"/zskip infer --hw 32 --seed "$seed" | sed 's/model backend/cpu backend/') \
    <(timeout 300 "$bin"/zskip infer --hw 32 --seed "$seed" --backend cpu) \
    || { echo "verify: zskip infer --hw 32 --seed $seed differs between the model and cpu backends"; exit 1; }
done
analyze_out=$(timeout 300 "$bin"/zskip analyze --network specs/resnet18.json)
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
  bad_out=$(timeout 120 "$bin"/zskip infer --network "$bad_spec" 2>&1)
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
  out=$(timeout 120 "$bin"/zskip "$@" 2>&1 >/dev/null) || rc=$?
  [ "$rc" -eq 2 ] || { echo "verify: zskip $* must exit 2 (got $rc)"; exit 1; }
  printf '%s\n' "$out" | grep -q 'error\[config.invalid\]' \
    || { echo "verify: zskip $* missing the config.invalid error code"; exit 1; }
}
bad_cfg=$(mktemp -t zskip-badcfg-XXXXXX.json)
expect_invalid infer --hw 32 --instances 0
expect_invalid infer --hw 16
expect_invalid infer --hw 32 --density 7
printf '{"version": 5, "thread": 4}\n' > "$bad_cfg"
expect_invalid infer --hw 32 --config "$bad_cfg"
timeout 300 "$bin"/zskip tune --out "$bad_cfg" > /dev/null
sed -i 's/"instances": [0-9]*,/"instances": 0,/' "$bad_cfg"
grep -q '"instances": 0,' "$bad_cfg" \
  || { echo "verify: the zero-instances fixture was not written"; exit 1; }
expect_invalid infer --hw 32 --config "$bad_cfg"
# A deleted knob's artifact field is an unknown field like any other.
timeout 300 "$bin"/zskip tune --out "$bad_cfg" > /dev/null
sed -i 's/^  "placement"/  "park_hysteresis": null,\n  "placement"/' "$bad_cfg"
grep -q '"park_hysteresis": null' "$bad_cfg" \
  || { echo "verify: the park_hysteresis fixture was not written"; exit 1; }
expect_invalid infer --hw 32 --config "$bad_cfg"
# An artifact the previous build wrote — version 3, with the serve loop's
# deleted batch-shaping knobs — is refused whole.
timeout 300 "$bin"/zskip tune --out "$bad_cfg" > /dev/null
sed -i -e 's/"version": 5,/"version": 3,/' -e 's/^  "queue_depth"/  "max_batch": 8,\n  "batch_window_ms": 2,\n  "queue_depth"/' "$bad_cfg"
grep -q '"batch_window_ms": 2' "$bad_cfg" \
  || { echo "verify: the version-3 fixture was not written"; exit 1; }
expect_invalid infer --hw 32 --config "$bad_cfg"
# Thread counts are capped (0 still means auto): an absurd one, as a flag
# or as an artifact field, fails closed before any thread is spawned
# instead of exhausting the host's threads (a spawn panic, exit 101).
expect_invalid serve --hw 32 --workers 100000 </dev/null
expect_invalid infer --hw 32 --threads 100000 </dev/null
timeout 300 "$bin"/zskip tune --out "$bad_cfg" > /dev/null
sed -i 's/"batch_workers": 0,/"batch_workers": 100000,/' "$bad_cfg"
grep -q '"batch_workers": 100000' "$bad_cfg" \
  || { echo "verify: the batch_workers fixture was not written"; exit 1; }
expect_invalid serve --hw 32 --config "$bad_cfg" </dev/null
rm -f "$bad_cfg"
# A deleted knob's flag is an unknown flag like any other: exit 2.
for gone in "infer --hw 32 --weight-cache off" "serve --hw 32 --batch-window-ms 0" "serve --hw 32 --max-batch 1" \
    "tune --hw 32 --objective cycles" "tune --hw 32 --space hls" "tune --hw 32 --searcher cd" "tune --hw 32 --n 4" \
    "tune --hw 32 --seed 1" "tune --hw 32 --budget 8"; do
  gone_rc=0
  gone_out=$(timeout 120 "$bin"/zskip $gone 2>&1 >/dev/null </dev/null) || gone_rc=$?
  [ "$gone_rc" -eq 2 ] || { echo "verify: zskip $gone must exit 2 (got $gone_rc)"; exit 1; }
  printf '%s\n' "$gone_out" | grep -q 'unknown flag --' \
    || { echo "verify: zskip $gone must report an unknown flag"; exit 1; }
done
# ... and a deleted subcommand an unknown command: `sweep` became the
# variant_sweep bin.
gone_rc=0
gone_out=$(timeout 120 "$bin"/zskip sweep 2>&1 >/dev/null </dev/null) || gone_rc=$?
[ "$gone_rc" -eq 2 ] || { echo "verify: zskip sweep must exit 2 (got $gone_rc)"; exit 1; }
printf '%s\n' "$gone_out" | grep -q "unknown command 'sweep'" \
  || { echo "verify: zskip sweep must report an unknown command"; exit 1; }
# ... and what `infer` reports comes from the session it ran: two instances
# run at the cost model's congestion-derated clock, not the variant's.
two_out=$(timeout 300 "$bin"/zskip infer --hw 32 --instances 2)
printf '%s\n' "$two_out" | grep -q ' at 117 MHz' \
  || { echo "verify: infer --instances 2 must report the derated 117 MHz clock"; exit 1; }

# Autotuner smoke: the default tune of VGG-16-32 — every point of the hls
# space scored, the first minimum kept — is pinned byte for byte, and
# loading it back through --config must run end to end (infer asserts
# bit-exactness vs the golden model internally).
tune_out=$(mktemp -t zskip-tuned-XXXXXX.json)
timeout 300 "$bin"/zskip tune --hw 32 --out "$tune_out" > /dev/null
cmp "$tune_out" tests/golden/tuned_vgg16_32.json \
  || { echo "verify: zskip tune --hw 32 drifted from tests/golden/tuned_vgg16_32.json"; exit 1; }
timeout 300 "$bin"/zskip infer --hw 32 --config "$tune_out" > /dev/null
rm -f "$tune_out"

# Figure and table artifacts: every figure bin runs the stats-only path
# and must print exactly the committed experiments/ files (variant_sweep
# writes Fig. 7, Fig. 8 and Table I). The bins write under the working
# directory, so they run in a scratch one.
fig_dir=$(mktemp -d -t zskip-figs-XXXXXX)
for fig in fig6_area variant_sweep ablations; do
  fig_bin=$(realpath "$bin/$fig")
  (cd "$fig_dir" && timeout 300 "$fig_bin" > /dev/null)
done
for artifact in fig6_area fig7_efficiency fig8_gops table1_power ablations; do
  for ext in txt json; do
    diff -u "experiments/$artifact.$ext" "$fig_dir/experiments/$artifact.$ext" \
      || { echo "verify: experiments/$artifact.$ext differs from its bin's output"; exit 1; }
  done
done
rm -rf "$fig_dir"
echo "verify: OK"
