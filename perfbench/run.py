#!/usr/bin/env python3
"""Builds and runs the S3 serving benchmark (see perfbench/NOTES.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hot_skew --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the s3core library
from the checkout's sources plus the s3_perfbench program) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
rebuild incrementally. Build output goes to stderr. The program's last
stdout line is the result JSON; it exits non-zero when a correctness
check fails, and this script exits 2 when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_skew", "long_tail", "live_update", "scatter")


def source_id():
    """Identifies the code under test: git sha when available, plus a
    hash over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    sha = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "git:%s+src:%s" % (sha, h.hexdigest()[:16])


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "s3_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=880).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    try:
        if not build(build_dir):
            print("perfbench: build failed", file=sys.stderr)
            return 2
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    binary = os.path.join(build_dir, "s3_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "perfbench-out"),
           "--source-id", source_id()]
    # The program replaces this process: no child outlives a killed run,
    # and its exit code is the run's.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main())
