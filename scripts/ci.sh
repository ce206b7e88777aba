#!/usr/bin/env bash
# CI gate for the mmgpu repository.
#
# Static stages first (fail fast), then four build trees with the
# tiered test suite:
#
#   mmgpu-lint        whole-tree static analysis (tools/lint; also in
#                     --quick — it is the cheapest signal we have)
#   header_selfcheck  every src/ header compiles standalone
#   clang-tidy        src/common + src/harness, only when the tool is
#                     on PATH (the baseline container ships only GCC)
#   thread-safety     a -DMMGPU_THREAD_SAFETY=ON clang tree: compile-
#                     only, -Werror on clang's -Wthread-safety
#                     analysis of the MMGPU_* annotations; skipped
#                     when clang++ is not on PATH
#   perf-smoke        component microbenches once + a profiler JSON
#                     artifact; times printed, no wall-clock
#                     thresholds (CI hosts drift)
#
#   build           Release            tier1 (the ROADMAP verify gate;
#                                      includes the engine-layer tests
#                                      and the build-once/reset-per-run
#                                      bit-identity gate)
#   build-contracts MMGPU_CONTRACTS=2  tier1 with conservation audits
#                                      armed (energy accounting, NoC
#                                      flit conservation, pool bounds,
#                                      drain audits on machine reuse)
#   build-asan      ASan + UBSan +     tier1 + a per-topology CLI
#                   MMGPU_CONTRACTS=2  smoke (every fabric x placement
#                                      with conservation audits armed)
#   build-tsan      TSan               tier1 + tier2 (the concurrency
#                                      tests, race-instrumented)
#
# Usage: scripts/ci.sh [--quick]
#   --quick  lint + Release tier1 only (the pre-push smoke run).
#
# Environment: MMGPU_JOBS caps sweep worker threads inside the tests;
# CTEST_PARALLEL_LEVEL caps ctest concurrency (default: nproc).

set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"
: "${CTEST_PARALLEL_LEVEL:=${jobs}}"
export CTEST_PARALLEL_LEVEL

generator_args=()
if command -v ninja >/dev/null 2>&1; then
    generator_args=(-G Ninja)
fi

configure_and_build() {
    local tree="$1"
    shift
    # An already-configured tree keeps its cached generator; forcing
    # -G onto it is a hard cmake error.
    if [[ -f "${tree}/CMakeCache.txt" ]]; then
        cmake -B "${tree}" -S . "$@"
    else
        cmake -B "${tree}" -S . "${generator_args[@]}" "$@"
    fi
    cmake --build "${tree}" -j "${jobs}"
}

run_tier() {
    local tree="$1" tier="$2"
    echo "== ${tree}: ctest -L ${tier} =="
    ctest --test-dir "${tree}" -L "${tier}" --output-on-failure
}

echo "== Release tree =="
configure_and_build build -DCMAKE_BUILD_TYPE=Release

echo "== mmgpu-lint =="
cmake --build build -j "${jobs}" --target lint

run_tier build tier1

if [[ "${1:-}" == "--quick" ]]; then
    echo "CI quick gate passed (lint + Release tier1, engine tests" \
         "included)."
    exit 0
fi

echo "== perf-smoke (microbenches + profiler artifact) =="
# One pass over the component microbenches plus a profiled run.
# Deliberately NO wall-clock thresholds — CI hosts drift — the times
# are printed for the log only.
perf_dir="build/perf-smoke"
mkdir -p "${perf_dir}"
cmake --build build -j "${jobs}" --target bench_components
build/bench/bench_components \
    --benchmark_filter='Calendar|GenPool|PageTable|CacheAccess|WarpStep|RunCache' \
    --benchmark_min_time=0.1 \
    --benchmark_out="${perf_dir}/microbench.json" \
    --benchmark_out_format=json > /dev/null
bench_cpu_time() {
    awk -F': ' -v name="$1" \
        '$0 ~ "\"name\": \"" name "\"" { found = 1 }
         found && /"cpu_time"/ { gsub(/[ ,]/, "", $2); print $2; exit }' \
        "${perf_dir}/microbench.json"
}
# Profiler artifact: an armed run must produce parseable aggregates
# for the event loop. The run cache must be bypassed — a cached
# design point skips simulation entirely and profiles as empty.
MMGPU_NO_CACHE=1 MMGPU_PROFILE=1 build/examples/mmgpu_cli \
    --workload Stream --gpms 2 \
    --prof-out "${perf_dir}/prof.json" > /dev/null 2>&1
grep -q '"sim/step_warp"' "${perf_dir}/prof.json"
grep -q '"sim/step_mem"' "${perf_dir}/prof.json"
echo "perf-smoke ok: artifacts in ${perf_dir}/"
# Informational, no threshold: CTA-dispatch bursts, the 32-GPM
# calendar steady state and op generation through a shared launch
# plan; then the run-cache codec: reopening a 3844-entry cache (90%
# snapshot, 10% journal) and one journal-appending insert.
echo "perf-smoke: calendar burst =" \
    "$(bench_cpu_time BM_CalendarScheduleSequential) ns," \
    "calendar pop+schedule @16384 =" \
    "$(bench_cpu_time BM_CalendarPopSchedule16K) ns," \
    "warp step via shared plan = $(bench_cpu_time BM_WarpStepSharedPlan) ns"
echo "perf-smoke: run-cache open (3844 entries) =" \
    "$(bench_cpu_time BM_RunCacheOpen) ms," \
    "run-cache insert =" \
    "$(bench_cpu_time BM_RunCacheInsert/iterations:4000) us"

echo "== Header self-containment =="
cmake --build build -j "${jobs}" --target header_selfcheck

if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (src/common, src/harness) =="
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    clang-tidy -p build src/common/*.cc src/harness/*.cc
else
    echo "== clang-tidy not on PATH; skipping (config: .clang-tidy) =="
fi

if command -v clang++ >/dev/null 2>&1; then
    echo "== clang -Wthread-safety tree (annotations as errors) =="
    # Compile-only gate: clang's thread-safety analysis checks the
    # MMGPU_GUARDED_BY / MMGPU_REQUIRES annotations the in-tree lint
    # reads as tokens. -Werror=thread-safety-analysis is set by the
    # MMGPU_THREAD_SAFETY option itself.
    configure_and_build build-tsa \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DMMGPU_THREAD_SAFETY=ON
else
    echo "== clang++ not on PATH; skipping -Wthread-safety tree" \
         "(the baseline container ships only GCC; mmgpu-lint's" \
         "guarded-field/lock-order rules cover the annotations) =="
fi

echo "== Contracts tree (MMGPU_CONTRACTS=2: audits armed) =="
configure_and_build build-contracts \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMMGPU_CONTRACTS=2
run_tier build-contracts tier1

echo "== ASan/UBSan tree (contracts=2: audits armed under ASan) =="
configure_and_build build-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMMGPU_SANITIZE=address,undefined \
    -DMMGPU_CONTRACTS=2
run_tier build-asan tier1

echo "== Per-topology smoke (ASan, contracts=2) =="
# Every registered fabric end-to-end through the CLI with the flit
# conservation and drain audits armed under ASan: construction,
# routing, books, energy, and teardown for each topology x the
# placement strategies it steers. Cheap points (2 workloads, 4 GPMs)
# — the goal is memory/audit coverage per fabric, not statistics.
for topology in ring switch fullmesh ocs; do
    for placement in first-touch locality; do
        for workload in Stream Hotspot; do
            echo "-- ${topology} / ${placement} / ${workload}"
            MMGPU_NO_CACHE=1 build-asan/examples/mmgpu_cli \
                --workload "${workload}" --gpms 4 --bw 2x \
                --topology "${topology}" \
                --placement "${placement}" > /dev/null
        done
    done
done

echo "== Serve smoke (ASan tree: batch + socket bit-identity) =="
serve_dir="$(mktemp -d)"
trap 'rm -rf "${serve_dir}"' EXIT
# Batch mode: scripted requests through the full service engine.
cat > "${serve_dir}/batch.txt" <<'EOF'
{"type": "ping", "id": "ci-ping"}
{"type": "run", "id": "ci-run", "workload": "Stream", "gpms": 4}
{"type": "run", "id": "ci-dup", "workload": "Stream", "gpms": 4}
{"type": "stats", "id": "ci-stats"}
EOF
build-asan/examples/mmgpu_serve --batch "${serve_dir}/batch.txt" \
    > "${serve_dir}/batch.out"
[[ "$(grep -c '"status":"ok"' "${serve_dir}/batch.out")" -eq 4 ]]
# Socket mode: background daemon, client-side recomputation of the
# Figure 6 sweep must match the served hexfloats byte for byte, and
# the daemon must shut down ASan-clean (exit 0).
build-asan/examples/mmgpu_serve --socket "${serve_dir}/serve.sock" &
serve_pid=$!
build-asan/examples/mmgpu_client --connect "${serve_dir}/serve.sock" \
    --verify-fig6 --gpms-list 2,8
build-asan/examples/mmgpu_client --connect "${serve_dir}/serve.sock" \
    --shutdown > /dev/null
wait "${serve_pid}"

echo "== Serve chaos smoke (ASan daemon under injected faults) =="
# The same daemon with the serve chaos knobs armed: every 5th job
# crashes its shard (supervised recovery must requeue invisibly) and
# every 7th response write hard-closes the connection (the client
# must reconnect and re-ask). The soak exits nonzero on any
# client-visible error, and the verify pass must still be
# bit-identical to in-process recomputation — self-healing may never
# change answers. Leak detection stays on: a crash unwinds the
# interrupted frames, so it may not leak.
MMGPU_FAULT_SERVE_CRASH_EVERY=5 \
MMGPU_FAULT_SERVE_CONN_RESET_EVERY=7 \
build-asan/examples/mmgpu_serve --socket "${serve_dir}/chaos.sock" &
chaos_pid=$!
build-asan/examples/mmgpu_client --connect "${serve_dir}/chaos.sock" \
    --soak 2 --gpms-list 2,4 --retries 6 --client ci-chaos
build-asan/examples/mmgpu_client --connect "${serve_dir}/chaos.sock" \
    --verify-fig6 --gpms-list 2 --retries 6
build-asan/examples/mmgpu_client --connect "${serve_dir}/chaos.sock" \
    --shutdown > /dev/null
wait "${chaos_pid}"

echo "== TSan tree (lockdep-instrumented serve mutexes) =="
# The default contract level (1) keeps sync::Mutex on the lockdep
# runtime, so tier2's serve/chaos suites run BOTH validators at once:
# TSan sees the schedules that happen, lockdep proves the orderings
# that could invert even when this run's schedule stayed lucky.
configure_and_build build-tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMMGPU_SANITIZE=thread
run_tier build-tsan tier1
run_tier build-tsan tier2

echo "CI gate passed: lint + headers clean, tier1 everywhere" \
     "(audits armed in build-contracts), tier2 under TSan."
