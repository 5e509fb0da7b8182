#!/usr/bin/env python3
"""Builds the DLACEP benchmark from this checkout's sources and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload online_1q --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls rebuild incrementally. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.
Per-run result files (end-to-end metrics with sample counts, the
self-time table and the spans of traced runs) are written under
<build dir>/results. --selftest runs the benchmark's own checks and
compares the metric lists the binary reports with BENCHMARK.json.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(directory):
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(directory, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(directory, ".lock"), "w") as lock:
        # Serialize concurrent builds of the same directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", directory,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", directory, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                print("perfbench: build step failed: " + " ".join(step),
                      file=sys.stderr)
                return False
    return True


def run(cmd):
    """Runs the binary with stdout passed through; returns its exit code."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def check_metric_lists(binary):
    """BENCHMARK.json must name exactly the workloads and metrics the
    binary reports, with the same units."""
    listed = json.loads(subprocess.run([binary, "--list-metrics"],
                                       capture_output=True, text=True,
                                       check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]],
         listed["workloads"]),
        ("end_to_end", [(m["name"], m["unit"]) for m in spec["end_to_end"]],
         [(m["name"], m["unit"]) for m in listed["end_to_end"]]),
        ("per_layer", [(m["name"], m["unit"]) for m in spec["per_layer"]],
         [(m["name"], m["unit"]) for m in listed["per_layer"]]),
    ]
    for key, declared, reported in pairs:
        ok = declared == reported
        failures += 0 if ok else 1
        print("selftest %-58s %s" % ("BENCHMARK.json " + key + " match the binary",
                                     "PASS" if ok else "FAIL"))
    return failures


def main(argv):
    directory = build_dir()
    if not build(directory):
        return 1
    binary = os.path.join(directory, "dlacep_perfbench")
    if "--selftest" in argv:
        code = run([binary, "--selftest"])
        return 1 if check_metric_lists(binary) or code else 0
    return run([binary] + argv + ["--out", os.path.join(directory, "results")])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
