#!/usr/bin/env python3
"""Build and run the CEPR benchmark.

    python3 perfbench/run.py --workload stock_dip --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds the
engine library from src/ and the benchmark binary from perfbench/ (Release +
LTO) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. Every call then runs the harness self-tests and
one workload. The last line of standard output is the run's result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. Earlier "# provenance" and "# detail" lines record the build, the
commit, the seed, the output digests and the sample counts. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stock_dip", "fork_dag", "wire_sharded")
# A run must finish within 180 s; keep a margin for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"error: {msg}")
    sys.exit(code)


def check_call(cmd, timeout):
    """Runs a build step with its output on stderr; the result line owns stdout."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 1)
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}", 1)


def build(build_dir, deadline):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   max(1, deadline - time.monotonic()))
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", build_dir, "-j", jobs],
               max(1, deadline - time.monotonic()))


def source_id():
    """The commit when the checkout is a git repository, else a hash of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src:" + digest.hexdigest()[:16]


def run(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 1)
    return proc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("CEPR sources not found: run from the root of a full checkout "
             "(src/ next to perfbench/)")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    build(build_dir, time.monotonic() + BUILD_TIMEOUT_S)
    start = time.monotonic()

    selftest = run([os.path.join(build_dir, "perfbench_selftest")], 30)
    if selftest.returncode != 0:
        fail("harness self-tests failed", 1)

    cmd = [os.path.join(build_dir, "cepr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv")]
    proc = run(cmd, max(1, RUN_TIMEOUT_S - (time.monotonic() - start)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}", 1)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail("benchmark printed no result line", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
