#!/usr/bin/env python3
"""Measured wall-clock benchmark: build perfbench from this checkout, run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the binary (CMake, Release) under
.bench_build/perfbench; later calls only bring it up to date. Build output
goes to stderr, so the last line of stdout stays the JSON result the binary
prints. Exits non-zero without a result when the library sources are
missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_build", "tmp")
# A run must end within 180 s; stop the binary a little before that.
RUN_TIMEOUT_S = 170


def run_step(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are missing", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                     "-j", str(os.cpu_count() or 1)])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out",
                        help="write the traced pass's spans here as JSON lines")
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp-root", tmp]
    if args.spans_out:
        cmd += ["--spans-out", os.path.abspath(args.spans_out)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
