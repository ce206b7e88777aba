#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the simulator libraries and the perfbench program from source
(CMake, into $CARGO_TARGET_DIR or .bench_build under the current
directory), runs one workload, checks its result line, and prints it
as the last line of standard output:

    python3 perfbench/run.py --workload sweep_cold --seed 1 \\
        --seconds 25 --trace 0

Run it from the repository root. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of the traced pass (its
spans go to <build dir>/trace-<workload>-seed<n>.json). The exit code
is nonzero, with no result line, when the build fails, an output
mismatches its golden digest, an operation fails, or a metric cannot
be measured.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_cold", "serve_mixed", "cache_restart")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the perfbench target (incremental)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no simulator sources at", ROOT / "src")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("build step failed:", " ".join(step))
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this pass, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """The perfbench result line, validated; None when malformed."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    expected = expected_metrics(trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            log("metrics differ from BENCHMARK.json:",
                sorted(set(got.items()) ^ set(expected.items())))
            return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build")).resolve()
    if not build(build_dir):
        return 2
    work_dir = build_dir / f"work-{args.workload}-{os.getpid()}"
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir),
               "--golden-dir", str(HERE / "golden")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        log(f"perfbench exited with code {run.returncode}")
        return run.returncode or 3
    result = check_result(lines[-1], args.trace)
    if result is None or not result["correct"] or result["failed"]:
        log("invalid result line:", lines[-1])
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
