#!/usr/bin/env bash
# Offline-safe CI gate: format, lint, build, test.
#
# The main workspace has zero external dependencies, so everything here
# runs without network access. crates/bench (criterion) is a standalone
# workspace and is deliberately NOT covered — it needs crates.io once.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (once: the clocking gates are covered by lockstep tests, not by re-runs)"
cargo test --workspace -q

echo "==> determinism suite at EMERALD_THREADS=4"
EMERALD_THREADS=4 cargo test --release --test determinism -q

echo "==> determinism suite at EMERALD_THREADS=4, pool forced (EMERALD_PAR_THRESHOLD=0)"
EMERALD_THREADS=4 EMERALD_PAR_THRESHOLD=0 cargo test --release --test determinism -q

echo "==> determinism suite at EMERALD_THREADS=4, pool disabled (EMERALD_PAR_THRESHOLD=max)"
EMERALD_THREADS=4 EMERALD_PAR_THRESHOLD=max cargo test --release --test determinism -q

echo "==> conformance suite (32 random programs/draws, differential + metamorphic)"
EMERALD_CONF_CASES=32 cargo test --release --test conformance -q

echo "==> event-skip oracle suite (skip-on vs skip-off lockstep + gap oracles)"
cargo test --release --test event_skip -q

echo "==> cpu-batch oracle suite (batch-axis lockstep + matrix + stall path)"
cargo test --release --test cpu_batch -q

echo "==> snapshot lockstep suite (checkpoint/restore invisibility across both gates)"
cargo test --release --test snapshot -q

echo "==> benchmark package: unit tests + golden gate (cycles and digests vs benchmark/golden.json)"
cargo test --manifest-path benchmark/Cargo.toml -q
for w in soc_dense soc_paced gpgpu_mix; do
  cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- one "$w" --seed 1 --seconds 0 >/dev/null
done

echo "==> examples smoke test"
cargo run --release --example trace_export >/dev/null

echo "==> sweep engine smoke (2 axes x 2 values, 2 fork groups, 4 workers)"
cargo run --release --quiet --bin emerald_bench -- --sweep sweeps/ci_smoke.json --workers 4 > SWEEP_smoke.jsonl
test "$(grep -c '"ev":"session"' SWEEP_smoke.jsonl)" -eq 4
grep -q '"start":"forked"' SWEEP_smoke.jsonl
grep -q '"registry":{' SWEEP_smoke.jsonl

echo "==> sweep protocol smoke (emerald_serve ping + one-shot spec run)"
echo '{"op":"ping"}' | cargo run --release --quiet --bin emerald_serve | grep -q '"ev":"pong"'
cargo run --release --quiet --bin emerald_serve -- --spec sweeps/ci_smoke.json --workers 4 \
  | grep -q '"ev":"sweep_done"'

echo "==> checked-in sweep specs validate against the real axis tables (sweeps/*.json)"
for spec in sweeps/*.json; do
  cargo run --release --quiet --bin emerald_serve -- --spec "$spec" --check
done

echo "==> bench smoke (BENCH_frame.json emitted and well-formed)"
./scripts/bench.sh --smoke >/dev/null 2>&1
test -s BENCH_frame.json
grep -q '"schema": "emerald-bench-v1"' BENCH_frame.json
grep -q '"wall_ms"' BENCH_frame.json
grep -q '"cycles_per_sec"' BENCH_frame.json
grep -q '"speedup_vs_1t"' BENCH_frame.json
grep -q '"phases"' BENCH_frame.json
grep -q '"pool_dispatch"' BENCH_frame.json
grep -q '"soc_restore_warm"' BENCH_frame.json

echo "==> profiled bench smoke (EMERALD_PROFILE=1: profile blocks, overhead gate, trace export)"
EMERALD_PROFILE=1 ./scripts/bench.sh --smoke --out BENCH_profile.json >/dev/null 2>&1
test -s BENCH_profile.json
grep -q '"profile"' BENCH_profile.json
grep -q '"profile_overhead_pct"' BENCH_profile.json
grep -q '"soc_skippable_frac"' BENCH_profile.json
test -s BENCH_profile_trace.json

cargo test --release --test bench_schema -q

echo "==> bench_diff: smoke run vs committed baseline (cycles only; pins the"
echo "    soc_restore_warm restored-run cycles to the committed straight-run value)"
cargo run --release --quiet --bin bench_diff -- scripts/bench_baseline.json BENCH_frame.json --no-wall

echo "==> bench_diff: profiled vs unprofiled smoke (cycles must be identical)"
cargo run --release --quiet --bin bench_diff -- BENCH_frame.json BENCH_profile.json --no-wall

echo "CI gate passed."
