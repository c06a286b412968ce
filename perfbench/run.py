#!/usr/bin/env python3
"""Mantra benchmark entry point.

Builds the benchmark program (perfbench/, linked against the repository's
src/) and runs one workload:

    python3 perfbench/run.py --workload live_clean --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer ones. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under the repository root.

    python3 perfbench/run.py --smoke

runs every workload at reduced size in both modes and checks that each
passes its correctness checks and prints every declared metric with its unit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["live_clean", "live_observed", "archive_serve"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds mantra_perf; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Mantra sources next to the benchmark (src/CMakeLists.txt missing)")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 8))
    steps.append(["cmake", "--build", out, "--target", "mantra_perf", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    binary = os.path.join(out, "mantra_perf")
    return binary if os.path.isfile(binary) else None


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json, the one
    list of metric names and units; None if the file is missing."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        log("BENCHMARK.json missing next to the benchmark")
        return None
    with open(path) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (stdout lines, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", os.path.join(build_dir(), "run")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return [], None
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"{workload}: no output (exit {proc.returncode})")
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a result object (exit {proc.returncode})")
        return lines, None
    return lines, result


def finish(result, trace, declared):
    """Checks the program's result object and keeps the metrics of the run's
    mode, named and united as in BENCHMARK.json. Every end-to-end metric must
    have been measured; a per-layer metric the workload never reaches (its
    layer is bypassed) reads 0. Returns (result, problems)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are not correct/attempted/failed/metrics")
    if not result.get("correct"):
        problems.append("a correctness check failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    end_to_end, per_layer = declared
    measured = result.get("metrics", {})
    unknown = sorted(set(measured) - set(end_to_end) - set(per_layer))
    if unknown:
        problems.append(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in (per_layer if trace else end_to_end).items():
        metric = measured.get(name)
        if metric is None:
            if not trace:
                problems.append(f"end-to-end metric not measured: {name}")
            metric = {"value": 0.0, "unit": unit}
        elif metric.get("unit") != unit:
            problems.append(f"{name} is in {metric.get('unit')}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": metric["value"], "unit": unit}
    result = dict(result, metrics=metrics)
    if problems:
        result["correct"] = False
    return result, problems


def smoke(binary, declared):
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_workload(binary, workload, 1, 1, trace, smoke=True)
            if result is None:
                problems = ["no result"]
            else:
                result, problems = finish(result, trace, declared)
                for name, metric in result["metrics"].items():
                    print(f"{workload} trace={trace} metric {name:40s} "
                          f"{metric['value']:16.6f} {metric['unit']}")
            for line in lines:
                if line.startswith("check"):
                    print(f"{workload} trace={trace} {line}")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"== {workload} trace={trace}: {status}")
            failures += bool(problems)
    print(f"smoke: {6 - failures}/6 passed")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size in both modes")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    declared = declared_metrics()
    if binary is None or declared is None:
        return 1
    if args.smoke:
        return smoke(binary, declared)
    lines, result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result, problems = finish(result, args.trace, declared)
    for problem in problems:
        log(problem)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
