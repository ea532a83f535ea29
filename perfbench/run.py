#!/usr/bin/env python3
"""End-to-end benchmark of the LUBT library: build, run, check.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build the measuring program (into .bench_build/perfbench), run one
      workload and print, as the last line, one JSON object with the keys
      correct, attempted, failed and metrics. --trace 0 reports the
      end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

  python3 perfbench/run.py --steady --workload NAME [--runs 5]
                           [--first-seed 1] [--seconds S] [--trace 0|1]
      Repeat a workload on consecutive seeds and print each metric's
      median and quartile spread (Q3 - Q1 over the median) against its
      bound. Exits 1 when a spread exceeds its bound.

  python3 perfbench/run.py --selftest
      Build and run the tests of the benchmark's own code.

See perfbench/README.md for the workloads and the layer map.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(BUILD_DIR, "run")
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    pass


def load_spec(path="BENCHMARK.json"):
    if not os.path.isfile(path):
        raise BenchError("BENCHMARK.json not found in " + os.getcwd())
    with open(path) as f:
        return json.load(f)


def build():
    """Configure (once) and build the measuring program; returns its dir."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found: run from the "
                         "root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    return BUILD_DIR


def validate_result(result, spec, trace):
    """Check one program result against BENCHMARK.json.

    Returns the metrics object to print: with --trace 1, per-layer metrics
    the workload does not measure are filled with 0 and listed in the
    second return value. Raises BenchError on any contract violation.
    """
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise BenchError("result must have exactly correct, attempted, "
                         "failed and metrics")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(key + " must be a whole number")
    if result["attempted"] < 1:
        raise BenchError("attempted must be at least 1")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if name not in units:
            raise BenchError("undeclared metric " + name)
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise BenchError(name + " must have exactly value and unit")
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchError(name + " has a non-finite value")
        if entry["unit"] != units[name]:
            raise BenchError("%s has unit %s, BENCHMARK.json says %s"
                             % (name, entry["unit"], units[name]))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not trace:
        raise BenchError("missing end-to-end metrics: " + ", ".join(missing))
    out = {}
    for m in declared:
        out[m["name"]] = metrics.get(m["name"],
                                     {"value": 0.0, "unit": m["unit"]})
    return out, missing


def run_program(workload, seed, seconds, trace):
    """Run one workload; returns (info lines, validated result object)."""
    spec = load_spec()
    bin_dir = build()
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(bin_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", RUN_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("workload %s ran past %d s" % (workload,
                                                        RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise BenchError("last line is not JSON: %s" % err)
    metrics, missing = validate_result(result, spec, trace)
    info = [l for l in lines[:-1] if l.startswith("#")]
    if missing:
        info.append("# not measured on %s (reported as 0): %s"
                    % (workload, " ".join(missing)))
    result["metrics"] = metrics
    return info, result


def spread(values):
    """Q3 - Q1 over the median, as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else float("inf"))


def spread_verdict(s, bound):
    """How a metric's spread compares with its bound (None: no bound)."""
    if bound is None:
        return ""
    if s <= bound / 3:
        return "steady"
    if s <= bound:
        return "within bound, above bound/3"
    return "NOISY"


def steady(args):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    failed = 0
    for k in range(args.runs):
        seed = args.first_seed + k
        _, result = run_program(args.workload, seed, seconds, args.trace)
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            runs.setdefault(name, []).append(entry["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, e["value"]) for n, e in result["metrics"].items()
        )), flush=True)
    noisy = False
    print("%-24s %14s %8s %6s  %s" % ("metric", "median", "spread", "bound",
                                      "verdict"))
    for name, values in runs.items():
        median, s = spread(values) if len(values) >= 2 else (values[0], 0.0)
        bound = bounds.get(name)
        verdict = spread_verdict(s, bound)
        noisy = noisy or verdict == "NOISY"
        print("%-24s %14.6g %8.4f %6s  %s" % (
            name, median, s, "-" if bound is None else bound, verdict))
    print("failed operations over all runs: %d" % failed)
    return 1 if noisy or failed else 0


def selftest():
    bin_dir = build()
    native = subprocess.run([os.path.join(bin_dir, "perfbench_selftest")])
    sys.path.insert(0, HERE)
    suite = unittest.defaultTestLoader.loadTestsFromName("test_run")
    python = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if native.returncode == 0 and python.wasSuccessful() else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        if args.steady:
            return steady(args)
        seconds = args.seconds or load_spec()["run_seconds"]
        info, result = run_program(args.workload, args.seed, seconds,
                                   args.trace)
    except BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
