#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload notebook|analytic|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
when set, else .bench_build; spans of a traced run go to <build>/traces.
The last line of stdout is the benchmark's JSON result. Exits non-zero
when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(out_dir):
    """Configures and builds perfbench; returns the binary path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr so the last stdout line stays the
        # benchmark's result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out_dir, "perfbench")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def main():
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    cmd = [binary] + sys.argv[1:] + [
        "--trace-dir", os.path.join(out_dir, "traces")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
