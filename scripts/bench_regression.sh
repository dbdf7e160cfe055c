#!/usr/bin/env bash
# Perf-regression run: builds, then times the canonical 992-row collision
# batch (BiCGStab+Jacobi, CSR and ELL, fused/unfused/pipelined host
# kernels, modeled warp-32/warp-64 devices) and writes BENCH_solvers.json
# at the repo root for commit-over-commit comparison.
#
# Baseline refresh cadence: BENCH_solvers.json is COMMITTED and serves as
# the telemetry-overhead gate's reference (the csr/fused median with
# telemetry compiled in but disabled must stay within 2% of it; the cost
# with telemetry ON is gated inside the bench against its own paired
# telemetry-off reps, not against this file). Refresh
# it -- rerun this script on an otherwise idle machine and commit the new
# file -- whenever a PR intentionally changes solver hot-path performance,
# the workload size, or the measurement machine; do NOT refresh it to
# paper over an unexplained slowdown. When a committed baseline exists it
# is passed to the bench automatically and the gate runs; on a fresh
# checkout without one, the run just writes the first baseline.
#
# Usage: scripts/bench_regression.sh            (full run, ~1000 systems)
#        BSIS_QUICK=1 scripts/bench_regression.sh   (smoke-size run)
#        BUILD_DIR=out scripts/bench_regression.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_regression

BASELINE_ARGS=()
if git show HEAD:BENCH_solvers.json > "$BUILD_DIR/BENCH_baseline.json" \
    2> /dev/null; then
  BASELINE_ARGS=(--baseline "$BUILD_DIR/BENCH_baseline.json")
else
  echo "bench_regression.sh: no committed baseline; writing the first one"
fi

"$BUILD_DIR/bench/bench_regression" --out BENCH_solvers.json \
    --metrics-out "$BUILD_DIR/BENCH_metrics.json" "${BASELINE_ARGS[@]}"

# Performance-attribution gate: render the telemetry-live repetitions'
# metrics snapshot through tools/solve_report and fail on drift alarms
# (the cost model no longer explaining the measured phase mix) or on a
# phase bandwidth outside (0, peak].
echo "-- solve_report drift/bandwidth gate"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target solve_report
"$BUILD_DIR/tools/solve_report" "$BUILD_DIR/BENCH_metrics.json" \
    --out="$BUILD_DIR/BENCH_report.txt" --gate-drift --gate-bandwidth
echo "   report at $BUILD_DIR/BENCH_report.txt"

# Pipelined gate, re-checked here from the written JSON in case the bench
# binary's internal gate is ever relaxed: on a full-size run, the
# pipelined lockstep8 row must beat classic lockstep8 (the variant's whole
# point is fewer, fatter sweeps per iteration).
if [ "${BSIS_QUICK:-0}" != "1" ]; then
  python3 - <<'EOF'
import json, sys
doc = json.load(open("BENCH_solvers.json"))
if doc.get("smoke"):
    sys.exit(0)
rows = {(c["format"], c["variant"]): c["median_wall_seconds"]
        for c in doc["host"]}
classic = rows.get(("csr", "lockstep8"))
pipelined = rows.get(("csr", "pipelined-lockstep8"))
if classic is None or pipelined is None:
    sys.exit("bench_regression.sh: missing lockstep8 rows in JSON")
if not pipelined < classic:
    sys.exit("bench_regression.sh: pipelined lockstep8 (%g s) does not "
             "beat classic lockstep8 (%g s)" % (pipelined, classic))
print("bench_regression.sh: pipelined lockstep8 gate OK "
      "(%g s vs %g s)" % (pipelined, classic))
EOF
fi

# Append a one-line history record so commit-over-commit medians can be
# plotted without digging through git history: timestamp, git SHA, the
# per-variant medians, and the telemetry (both sinks, metrics only, trace
# only) and monitor overhead percentages.
mkdir -p results
python3 - <<'EOF'
import json, subprocess, time
doc = json.load(open("BENCH_solvers.json"))
sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                     capture_output=True, text=True).stdout.strip()
entry = {
    "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "git_sha": sha or "unknown",
    "smoke": bool(doc.get("smoke")),
    "num_systems": doc.get("num_systems"),
    "host_median_wall_seconds": {
        "%s/%s" % (c["format"], c["variant"]): c["median_wall_seconds"]
        for c in doc["host"]},
    "telemetry_overhead_percent":
        doc["telemetry"]["enabled_overhead_percent"],
    "telemetry_metrics_only_overhead_percent":
        doc["telemetry"]["metrics_only_overhead_percent"],
    "telemetry_trace_only_overhead_percent":
        doc["telemetry"]["trace_only_overhead_percent"],
    "monitor_overhead_percent": doc["monitor"]["overhead_percent"],
}
with open("results/bench_history.jsonl", "a") as out:
    out.write(json.dumps(entry, sort_keys=True) + "\n")
print("bench_regression.sh: appended results/bench_history.jsonl (%s)"
      % entry["utc"])
EOF

echo "bench_regression.sh: wrote $(pwd)/BENCH_solvers.json"
