#!/usr/bin/env bash
# Offline-safe CI gate: format, lint, build, test.
#
# The workspace has zero external dependencies, so everything here runs
# without network access. Nothing here measures wall time: timing is
# `benchmark/run.sh`'s job.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check (workspace and the benchmark package)"
cargo fmt --all --check
cargo fmt --manifest-path benchmark/Cargo.toml --check

echo "==> cargo clippy -D warnings, workspace and the benchmark package (dead_code is the crate-internal surface check: a pub(crate) or private item that only unit tests reach fails here)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc -D warnings (every intra-doc link resolves, no public doc links a private item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (once: the clocking gates are covered by lockstep tests, not by re-runs)"
cargo test --workspace -q

echo "==> conformance suite (32 random programs/draws, differential + metamorphic; the injected-bug canaries, each through the oracle its axis's random cases run, the renderer lag canary, the forgotten-fence-wake canary through the CPU wake audit, the forgotten-fill-booking canary through the lazy-booking oracle, the refused-CPU-head canary through the CPU pin audit at 128x96 and in random 2-8 request channel queue scenarios, and the overrun and limit-blind batch canaries among them)"
EMERALD_CONF_CASES=32 cargo test --release --test conformance -q

echo "==> allocation bars on the optimised build (memory system: 0 per saturated DASH / FR-FCFS cycle; SIMT core and renderer steady states, the stalled 48-warp core included)"
cargo test --release -p emerald-mem --test alloc -q
cargo test --release -p emerald-gpu --test alloc -p emerald-core --test alloc -q

echo "==> ISA executor properties on the optimised build, 1024 cases each (the workspace step runs them in the dev profile, where the warp-wide lane loops are not vectorised)"
EMERALD_CHECK_CASES=1024 cargo test --release -p emerald-isa -q

echo "==> memory-substrate and SoC properties on the optimised build, 1024 cases each (the DRAM channel's pick keys against the two-pass selection, the flat cache sets against the set-of-vectors reference with access_with's synchronous fills as an access then a fill, the CPU core's one-call L1/L2 hierarchy against its two-call access-and-fill twin, the event-driven trace replay against the per-cycle loop, the address mapping's shift-and-mask decode against division over power-of-two and other geometries; the workspace step runs them in the dev profile, where every pick also audits its keys)"
EMERALD_CHECK_CASES=1024 cargo test --release -p emerald-mem -p emerald-soc -q

echo "==> clocking-gate lockstep suites, release (32 random SoC scenarios, half drawing a cube and half nothing, each in all four event_skip x cpu_batch cells, three of them profiled, equal at every frame barrier, checkpoint bytes included; 16 random-cycle restores into random cells; one checkpoint restored into each of the four cells; 1024 restore-fuzz cases, each restoring a between-frames and a mid-frame checkpoint with 1-8 body bytes overwritten and the checksum re-sealed, never panicking; 1024 field-targeted restore-fuzz cases, each restoring both checkpoints twice with the bytes of one walked field overwritten, never panicking; 1024 JSON-parse fuzz cases, a registry dump or a sweep spec with 1-8 bytes overwritten, never panicking and within a heap bound linear in the text; 16 memory-system and 32 display gap walks; GPU and renderer twin gap walks; 1024 lazy-booking twin walks, random kernels and draws with each parked core booked every tick on one twin and only where the GPU settles on the other; 32 random twin-core run-ahead cases; per-core wake corner scenarios; loop-iteration and renderer-cycle bounds, renderer steps 3–8 in at most 0.2 of the renderer cycles, and at most 0.25 run-ahead CPU batches per loop iteration)"
EMERALD_CONF_CASES=16 cargo test --release --test event_skip --test cpu_batch --test snapshot -q
EMERALD_CHECK_CASES=1024 cargo test --release --test snapshot --test json_fuzz --test event_skip -q -- restore_of_garbage restore_of_one_garbage_field json_parse lazy_core_booking

echo "==> the random gate-matrix and restore oracles again, dev profile (16 gate-matrix scenarios, half drawing a cube and half nothing, and 8 restores; every loop iteration audits the SoC's cached wake pins against fresh next_event answers, and every CPU core left asleep against what it owed; the workspace step above already ran every suite in this profile)"
EMERALD_CONF_CASES=8 cargo test --test event_skip --test cpu_batch --test snapshot -q -- random_soc_ random_cycle_

echo "==> benchmark package: unit tests + golden gate (cycles and digests vs benchmark/golden.json)"
cargo test --manifest-path benchmark/Cargo.toml -q
# All five: render_cs2 is the only gate on case_study_2 (64 warp slots, 6
# cores, tex2d/blend register quads) and so the only one that fills every
# bit of the SIMT core's u64 slot masks; sweep_fork the only one that
# restores a SimtCore's deferred queues from a snapshot.
for w in soc_dense soc_paced gpgpu_mix render_cs2 sweep_fork; do
  cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- one "$w" --seed 1 --seconds 0 >/dev/null
done
# A second seed (no golden entry: exit 0 means every repetition agrees and
# the numeric checks hold), so a memo that is only right for seed 1's
# traffic cannot pass: the three BENCHMARK.json workloads, and render_cs2,
# the only full-width graphics one — where the renderer launches warps
# through Gpu::core_mut, the re-mark site of the GPU's cached core wakes,
# and the gate for the renderer's wake on six clusters.
for w in soc_dense soc_paced gpgpu_mix render_cs2; do
  cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- one "$w" --seed 2 --seconds 0 >/dev/null
done

echo "==> examples smoke test (telemetry twice: trace, stats and stdout byte-identical; checkpoint -> file -> restore == straight run)"
root=$PWD telemetry=$(mktemp -d)
for run in 1 2; do
  mkdir "$telemetry/$run"
  (cd "$telemetry/$run" && cargo run --release --quiet --manifest-path "$root/Cargo.toml" --example trace_export > stdout.txt)
done
for f in stdout.txt emerald_trace.json emerald_stats.json emerald_stats.csv; do
  cmp "$telemetry/1/$f" "$telemetry/2/$f"
done
rm -rf "$telemetry"
cargo run --release --example checkpoint_restore >/dev/null

echo "==> paper figures (every table once; exits 1 naming any shape EXPERIMENTS.md claims that fails)"
cargo run --release --quiet --bin emerald_figures | sed -n '/^# Summary/,$p'

echo "==> sweep engine smoke (emerald_serve ping + one-shot spec: 2 axes x 2 values, 2 fork groups, 4 workers)"
echo '{"op":"ping"}' | cargo run --release --quiet --bin emerald_serve | grep -q '"ev":"pong"'
# To a file first: a `| grep -q` on an early record closes the pipe mid-sweep.
cargo run --release --quiet --bin emerald_serve -- --spec sweeps/ci_smoke.json --workers 4 > SWEEP_smoke.jsonl
test "$(grep -c '"ev":"session"' SWEEP_smoke.jsonl)" -eq 4
grep -q '"start":"forked"' SWEEP_smoke.jsonl
grep -q '"registry":{' SWEEP_smoke.jsonl
grep -q '"ev":"sweep_done"' SWEEP_smoke.jsonl

echo "==> checked-in sweep specs validate against the real axis tables (sweeps/*.json); a spec no session could run fails the check"
for spec in sweeps/*.json; do
  cargo run --release --quiet --bin emerald_serve -- --spec "$spec" --check
done
bad_spec=$(mktemp)
# A zero-width target, and color + depth buffers that fit the SoC image
# but leave no room for the rest of a session (renderer, CPU arenas, scene).
for base in '{"width":0}' '{"width":5792,"height":5792}'; do
  echo "{\"name\":\"bad\",\"base\":$base}" > "$bad_spec"
  if cargo run --release --quiet --bin emerald_serve -- --spec "$bad_spec" --check 2>/dev/null; then
    echo "emerald_serve --check accepted $base" >&2
    rm -f "$bad_spec"
    exit 1
  fi
done
rm -f "$bad_spec"

echo "CI gate passed."
