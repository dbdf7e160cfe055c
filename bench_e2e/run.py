#!/usr/bin/env python3
"""Builds and runs the end-to-end collision-step benchmark for one workload.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
bench_e2e (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs only re-check the build. The workload runs in a
fresh process pinned with OMP_NUM_THREADS=min(nproc, 4), OMP_PROC_BIND=close
and OMP_PLACES=cores. The metric names are checked against BENCHMARK.json,
the full result (sample counts, environment) is written to
.bench_e2e_out/<workload>-seed<n>-trace<t>.json, and the last line of
standard output is the result object: correct, attempted, failed, metrics.
With --trace 1 the bench-side spans go to .bench_e2e_out/ as Chrome JSON.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout the whole group is
    killed and reaped, so no compiler or solver process outlives us."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "bench_e2e"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no bsis sources next to the benchmark (src/ missing)")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            sys.exit("run.py: cmake configure failed")
    code, _ = run(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                   "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        sys.exit("run.py: build failed")
    return build_dir / "bench_e2e"


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    out_dir = ROOT / ".bench_e2e_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--traced", "--trace-out", str(out_dir / f"spans-{stem}.json")]
    threads = min(len(os.sched_getaffinity(0)), 4)
    env = dict(os.environ, OMP_NUM_THREADS=str(threads),
               OMP_PROC_BIND="close", OMP_PLACES="cores")
    code, out = run(cmd, RUN_TIMEOUT_S, env=env, cwd=ROOT,
                    stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        sys.exit(f"run.py: bench_e2e exited with {code}")
    full = json.loads(lines[-1])

    names = declared_metrics(args.trace)
    got = {n: m["unit"] for n, m in full["metrics"].items()}
    if got != names:
        sys.exit(f"run.py: metrics differ from BENCHMARK.json: got {got}, "
                 f"declared {names}")
    full.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")

    result = {
        "correct": full["correct"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {n: {"value": full["metrics"][n]["value"],
                        "unit": full["metrics"][n]["unit"]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
