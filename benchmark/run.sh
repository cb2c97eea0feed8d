#!/usr/bin/env bash
# Self-agreement check: build, measure the same code twice with interleaved
# rounds, compare the two sets against the benchmark's own bounds, then take
# the traced per-layer run. Results land in benchmark/out/.
#
#   ROUNDS=10 ROUND_SECONDS=12 SEED=1 benchmark/run.sh
#
# ROUND_SECONDS is how long each round's child process repeats its workload. If
# `compare` reports a disagreement or "unresolved", raise ROUNDS — never the
# bounds.
set -euo pipefail
cd "$(dirname "$0")/.."

ROUNDS=${ROUNDS:-10}
ROUND_SECONDS=${ROUND_SECONDS:-12}
SEED=${SEED:-1}
OUT=benchmark/out
BIN=${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark

cargo build --release --manifest-path benchmark/Cargo.toml
mkdir -p "$OUT"
for set in a b; do
  "$BIN" run --rounds "$ROUNDS" --seconds "$ROUND_SECONDS" --seed "$SEED" \
    --out "$OUT/run_$set.json" >/dev/null
done

status=0
"$BIN" compare "$OUT/run_a.json" "$OUT/run_b.json" || status=$?
echo "compare exit code: $status (0 agree, 1 regression or error, 2 cross-host, 3 unresolved)"

"$BIN" trace --seed "$SEED" >"$OUT/layers.json"
echo "per-layer metrics: $OUT/layers.json, spans: $OUT/trace_<workload>.json"
exit "$status"
