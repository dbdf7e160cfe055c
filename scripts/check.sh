#!/usr/bin/env bash
# Hardened check tier: build with -Werror, run the sanitizer-labeled
# tests, the observability (telemetry) tests and the other labelled tiers,
# the concurrency tests under ThreadSanitizer, the whole suite under
# AddressSanitizer and UndefinedBehaviorSanitizer, and the reachability
# lint, then run the solver example suite under --sanitize. Any SIMT
# sanitizer finding (shared race, barrier divergence, out-of-bounds
# access), ThreadSanitizer, AddressSanitizer or UBSan report, or src/
# function that no bench, tool or example links (unless allowlisted) fails
# the script.
#
# Usage: scripts/check.sh            (build dir defaults to ./build)
#        BUILD_DIR=out scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

# -Werror: a new warning fails the hardened tier.
cmake -B "$BUILD_DIR" -S . -DBSIS_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== sanitizer test tier =="
ctest --test-dir "$BUILD_DIR" -L sanitizer --output-on-failure

# Telemetry: metrics registry, Chrome-trace export (valid JSON, properly
# nested spans, monotonic timestamps), convergence history, and the
# live-profile-vs-bench agreement check.
echo "== observability test tier =="
ctest --test-dir "$BUILD_DIR" -L obs --output-on-failure

# Attribution: the work ledger's byte/flop hand counts, roofline
# attribution, drift detection, the continuous-profiler window, and the
# measured-bandwidth sanity bounds of real solves on all three paths.
echo "== attribution test tier =="
ctest --test-dir "$BUILD_DIR" -L attribution --output-on-failure

# Forensics: the failure taxonomy, cross-path classification agreement,
# the flight recorder, and bundle replay -- plus the replay tool's own
# end-to-end loop (force a breakdown, capture the bundle, replay it
# through all three execution paths).
echo "== forensics test tier =="
ctest --test-dir "$BUILD_DIR" -L forensics --output-on-failure
echo "-- replay_entry --selftest"
FORENSICS_DIR=$(mktemp -d)
trap 'rm -rf "$FORENSICS_DIR"' EXIT
"$BUILD_DIR/tools/replay_entry" --selftest "$FORENSICS_DIR/bundles" \
    > /dev/null

# Live monitoring: the sampler's rate math, alert hysteresis, Prometheus
# exposition round-trip, the event log, and the seeded failure-storm
# firing/resolved end-to-end. The storm test exports its firing-tick
# promfile so obs_top's --once gate can be asserted binary-level: it must
# exit 1 (alerts firing) on the storm exposition, 0 on a healthy one, and
# 2 when the promfile cannot be read.
echo "== monitor test tier =="
MONITOR_DIR=$(mktemp -d)
trap 'rm -rf "$FORENSICS_DIR" "$MONITOR_DIR"' EXIT
BSIS_MONITOR_E2E_PROM="$MONITOR_DIR/storm.prom" \
    ctest --test-dir "$BUILD_DIR" -L monitor --output-on-failure
echo "-- obs_top --once e2e"
if [ ! -f "$MONITOR_DIR/storm.prom" ]; then
    echo "check.sh: storm test did not export its promfile" >&2
    exit 1
fi
if "$BUILD_DIR/tools/obs_top" --once "$MONITOR_DIR/storm.prom" \
    > /dev/null; then
    echo "check.sh: obs_top exited 0 on a firing exposition" >&2
    exit 1
fi
"$BUILD_DIR/examples/quickstart" --monitor=50 \
    --prom="$MONITOR_DIR/healthy.prom" > /dev/null
"$BUILD_DIR/tools/obs_top" --once "$MONITOR_DIR/healthy.prom" > /dev/null
status=0
"$BUILD_DIR/tools/obs_top" --once "$MONITOR_DIR/missing.prom" > /dev/null ||
    status=$?
if [ "$status" -ne 2 ]; then
    echo "check.sh: obs_top exited $status, not 2, on a missing promfile" >&2
    exit 1
fi

# Pipelined variants: classic-vs-pipelined equivalence across solvers,
# preconditioners, formats and execution paths, recurrence-drift bounds,
# failure-classification parity on seeded breakdown/NaN batches, and the
# barrier/utilization deltas of the traced pipelined kernel.
echo "== pipelined test tier =="
ctest --test-dir "$BUILD_DIR" -L pipelined --output-on-failure

# Lockstep: per-entry equivalence of the SIMD batch-lockstep path with
# the scalar path at every instantiated width, across formats, degenerate
# batch shapes and the fallback rules -- the guard on the one lane
# protocol (drain_lanes) every lockstep algorithm runs through.
echo "== lockstep test tier =="
ctest --test-dir "$BUILD_DIR" -L lockstep --output-on-failure

# xgc: the collision proxy app -- grid, Maxwellians and moments, the
# collision operator (its face kernel against a per-face reference, one
# operator shared by threads), batch assembly (foreign shapes rejected
# before any write, concurrent calls, values independent of the thread
# count) and the Picard step.
echo "== xgc test tier =="
ctest --test-dir "$BUILD_DIR" -L xgc --output-on-failure

# The perf smoke run also covers the SIMD batch-lockstep rows
# (lockstep4/lockstep8) and cross-checks them against the scalar path
# per entry; the full-size lockstep-vs-scalar speedup gate only runs in
# the non-smoke bench_regression.
echo "== perf regression tier (smoke) =="
ctest --test-dir "$BUILD_DIR" -L perf --output-on-failure

# ThreadSanitizer: the concurrency tests in a second build compiled and
# linked with -fsanitize=thread. libgomp is not TSan-instrumented, so TSan
# cannot see an OpenMP team's own synchronization and reports races inside
# any region with more than one thread; the tier therefore runs one OpenMP
# thread, and the races it can see are those between the tests' own
# std::threads (concurrent solves, registry recording, trace clearing,
# concurrent batch assembly, one collision operator shared by threads,
# concurrent width-1 solves of batches with different patterns).
# Any ThreadSanitizer report makes the test binary exit 66 and fails the
# tier.
echo "== thread sanitizer tier =="
TSAN_DIR="$BUILD_DIR-tsan"
cmake -B "$TSAN_DIR" -S . -DBSIS_BUILD_BENCH=OFF -DBSIS_BUILD_EXAMPLES=OFF \
    -DBSIS_BUILD_TOOLS=OFF "-DCMAKE_CXX_FLAGS=-fsanitize=thread -g" \
    "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread"
cmake --build "$TSAN_DIR" -j "$(nproc)" \
    --target test_obs test_attribution test_xgc test_row_blocks
# Runs the tests of one binary that match a gtest filter and fails unless
# exactly the expected number ran and passed (a renamed test must not
# silently drop out of the tier).
tsan_run() {
    local binary=$1 filter=$2 expected=$3 out
    echo "-- $binary --gtest_filter=$filter"
    out=$(OMP_NUM_THREADS=1 "$TSAN_DIR/tests/$binary" \
        --gtest_filter="$filter" 2>&1) || {
        echo "$out"
        echo "check.sh: $binary failed under ThreadSanitizer" >&2
        exit 1
    }
    if ! grep -q "^\[  PASSED  \] $expected test" <<< "$out"; then
        echo "$out"
        echo "check.sh: expected $expected passing tests in $binary" >&2
        exit 1
    fi
}
tsan_run test_attribution \
    'AttributionEndToEnd.ConcurrentSolvesReportTheirOwnPhaseTotals' 1
tsan_run test_obs 'Metrics.ShardedRecordingMergesExactlyAcrossThreads:Metrics.GaugeMergeKeepsTheLatestWriteAcrossShards:Trace.ClearWhileOtherThreadsRecord' 3
tsan_run test_xgc \
    'Workload.ConcurrentAssemblyMatchesSerial:CollisionOperator.SharedOperatorAssemblesConcurrently' 2
tsan_run test_row_blocks \
    'RowBlockSpmv.ConcurrentSolvesWithDifferentPatternsMatchTheirSoloRuns' 1

# AddressSanitizer + UndefinedBehaviorSanitizer: the whole ctest suite in
# a fourth build dir compiled and linked with -fsanitize=address,undefined.
# -fno-sanitize-recover=undefined makes a UBSan finding abort like an ASan
# one (and LeakSanitizer exits nonzero on a leak), so any report fails its
# test and the tier. The bench harness stays on: the perf smoke test runs
# bench_regression.
echo "== address + undefined-behavior sanitizer tier =="
ASAN_DIR="$BUILD_DIR-asan"
ASAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
cmake -B "$ASAN_DIR" -S . -DBSIS_BUILD_EXAMPLES=OFF -DBSIS_BUILD_TOOLS=OFF \
    "-DCMAKE_CXX_FLAGS=$ASAN_FLAGS -g" \
    "-DCMAKE_EXE_LINKER_FLAGS=$ASAN_FLAGS"
cmake --build "$ASAN_DIR" -j "$(nproc)"
ctest --test-dir "$ASAN_DIR" -j "$(nproc)" --output-on-failure

# Reachability: every out-of-line src/ function must be linked by a bench,
# tool or example binary, or be listed with its reason in
# scripts/reachability_allow.txt (a third build dir, <build>-reach, at
# -O0 -fno-inline with --gc-sections; see the script).
echo "== reachability tier =="
BUILD_DIR="$BUILD_DIR" scripts/reachability.sh

echo "== sanitized examples =="
for example in quickstart solver_comparison device_comparison; do
    echo "-- $example --sanitize"
    "$BUILD_DIR/examples/$example" --sanitize > /dev/null
done

echo "check.sh: all sanitized runs clean"
