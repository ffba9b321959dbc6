#!/usr/bin/env python3
"""Self-test of the benchmark: each workload once, at tiny scale.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it builds the benchmark first, as
run.py does. For every workload it checks that
  1. a --trace 0 run prints every end_to_end metric of BENCHMARK.json, and
     a --trace 1 run every per_layer metric, each with its unit;
  2. error_rate is 0: no request failed and success_rate reads 1;
  3. a run whose reference digest is deliberately corrupted fails.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the build step lives there)


def result_of(stdout):
    """The JSON object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def invoke(binary, workload, trace, trace_dir, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny", "--trace-dir", trace_dir]
    cmd += list(extra)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    return done.returncode, result_of(done.stdout), done.stderr


def check_run(spec, binary, workload, trace, trace_dir):
    """Returns a list of failure messages for one clean run."""
    key = "per_layer" if trace else "end_to_end"
    label = "%s --trace %d" % (workload, trace)
    rc, result, stderr = invoke(binary, workload, trace, trace_dir)
    if rc != 0 or result is None:
        return ["%s: exit %d, result %r\n%s" % (label, rc, result,
                                                stderr[-2000:])]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correct=%r failed=%r" %
                      (label, result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (label, result.get("attempted")))
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    if set(metrics) != set(wanted):
        errors.append("%s: missing %s, unexpected %s" % (
            label, sorted(set(wanted) - set(metrics)),
            sorted(set(metrics) - set(wanted))))
    for name, unit in wanted.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            errors.append("%s: %s unit %r, expected %r" %
                          (label, name, got.get("unit"), unit))
        if not isinstance(got.get("value"), (int, float)):
            errors.append("%s: %s value %r" % (label, name, got.get("value")))
    if not trace and metrics.get("success_rate", {}).get("value") != 1:
        errors.append("%s: error_rate is not 0" % label)
    return errors


def check_corrupt(binary, workload, trace_dir):
    rc, result, _ = invoke(binary, workload, 0, trace_dir,
                           ["--corrupt-digest"])
    if rc == 0 or (result is not None and result.get("correct") is not False):
        return ["%s --corrupt-digest: exit %d, result %r" %
                (workload, rc, result)]
    return []


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = run.build_dir()
    binary = run.build(build_dir)
    if binary is None:
        return 1
    trace_dir = os.path.join(build_dir, "selftest-traces")
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        found = []
        for trace in (0, 1):
            found += check_run(spec, binary, workload, trace, trace_dir)
        found += check_corrupt(binary, workload, trace_dir)
        print("selftest %-10s %s" % (workload, "ok" if not found else "FAIL"),
              flush=True)
        errors += found
    for e in errors:
        print("  " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
