#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs its workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is hosp-repair, census-repair, hosp-serve, or all, which runs the three
in turn, each in its own process, and prints each one's report and result
line. Run it from the root of a checkout. The first run configures and
builds the library and the benchmark program from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later runs only bring the build up to date. The
program's output is passed through, and its last line is the JSON result.
The script exits
non-zero without printing a result when the sources are missing, the build
fails, or the program crashes or runs past its time limit. With --trace 1
the recorded spans are written as Chrome trace-event JSON next to the build.

perfbench/README.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hosp-repair", "census-repair", "hosp-serve")
BUILD_TIMEOUT_S = 840
# The program must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_build_step(cmd):
    """Runs one build command with its output sent to stderr."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")


def build():
    """Builds the benchmark program and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the program sources (src/) are missing next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_build_step(["cmake", "-S", HERE, "-B", out,
                           "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("configuring the build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_build_step(["cmake", "--build", out, "-j", jobs]) != 0:
        fail("the build failed")
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")


def run_workload(binary, workload, args):
    """Runs one workload in its own process, prints its report and returns
    the program's exit code (0 when every check passed, 1 when one failed)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), f"trace-{workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (proc.returncode not in (0, 1) or not isinstance(result, dict)
            or sorted(result) != ["attempted", "correct", "failed", "metrics"]):
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail(f"the program exited with {proc.returncode} and no result")
    if sorted(result["metrics"]) != sorted(declared_metrics(args.trace)):
        fail("the program's metrics differ from BENCHMARK.json")
    print(proc.stdout, end="")
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(binary, w, args) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
