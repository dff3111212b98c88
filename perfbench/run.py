#!/usr/bin/env python3
"""Repository benchmark: build tsdx from source, run one workload, report.

Usage, from the repository root:

    python3 perfbench/run.py --workload online|archive|search --seed N \\
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the tsdx
libraries from src/ plus the driver) into .bench_build/perfbench. Each run is
one driver process. The workloads, metrics, bounds, the default run length
(run_seconds) and the online workload's offered rate and latency limit come
from BENCHMARK.json. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). The full run report, with the host fingerprint and every check,
goes to .bench_build/perfbench/reports/. Exit status is 0 only when every
correctness check passed; a failed check exits 3 after the result line, a
build or run error exits 1 without one.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170

# The online workload's offered load and latency limit are written once, in
# its BENCHMARK.json `why`, and read from there on every run.
RATE_RE = re.compile(r"Poisson (\d+(?:\.\d+)?)/s")
LIMIT_RE = re.compile(r"limit (\d+(?:\.\d+)?) ms")

# Declared metrics a workload does not define. Untraced, a share among them
# reads 1.0 (no item failed); traced, a layer the workload does not exercise
# reads 0. Any other declared metric the driver did not report fails the run.
SERVE_LAYER = {
    "serve.submit_us_p50", "serve.admission_ms_p50", "serve.batch_wait_ms_p50",
    "serve.execute_ms_p50", "serve.queue_ms_p99", "serve.queue_depth_max",
    "serve.batch_size_mean", "serve.worker_busy_share",
    "serve.conservation_gap",
}
ROUTER_LAYER = {"route.retries", "route.shed", "bench.generator_lag_ms_p99"}
INDEX_READS = {
    "index.search_ms_p50", "index.write_contention_ratio",
    "index.scanned_rows_per_query", "index.probed_lists_per_query",
}
INDEX_INGEST = {"index.ingest_drain_ms", "index.ingest_dropped"}
NOT_APPLICABLE = {
    "online": {"recall_at_10", "index.insert_us", "index.memory_mb"}
    | INDEX_READS | INDEX_INGEST,
    "archive": {"slo_attainment"} | ROUTER_LAYER | INDEX_READS,
    "search": {"slo_attainment"} | SERVE_LAYER | ROUTER_LAYER | INDEX_INGEST,
}


class BenchError(Exception):
    """A run that cannot produce a result (bad spec, build or driver failure)."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    online = workloads.get("online", "")
    rate, limit = RATE_RE.search(online), LIMIT_RE.search(online)
    if rate is None or limit is None:
        raise BenchError("BENCHMARK.json: the online why must state "
                         "'Poisson <rate>/s' and 'limit <ms> ms'")
    if not isinstance(spec.get("run_seconds"), int) or spec["run_seconds"] < 1:
        raise BenchError("BENCHMARK.json: run_seconds must be a whole number >= 1")
    spec["online_rate"] = float(rate.group(1))
    spec["online_limit_ms"] = float(limit.group(1))
    return spec


def build():
    """Configure (once) and build the driver; raises BenchError on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no tsdx sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock, \
            open(BUILD / "build.log", "a") as log:
        # Concurrent runs in one checkout build once, not twice at once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "perfbench", "perfbench_selftest"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)} "
                                 f"(log: {log.name})")


def result_from_report(report, declared, trace, not_applicable_names):
    """The result line for a driver report.

    `declared` is BENCHMARK.json's end_to_end (trace 0) or per_layer (trace
    1) list, and `not_applicable_names` the workload's NOT_APPLICABLE set. A
    missing metric from that set is filled in and listed in the second
    return value: 1.0 untraced (only shares are in the set), 0 traced.
    Any other missing metric, a unit that disagrees with BENCHMARK.json or a
    non-finite value makes the result incorrect.
    """
    measured = report.get("metrics", {})
    metrics, not_applicable, problems = {}, [], []
    for m in declared:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if name not in not_applicable_names or (
                    trace == 0 and unit != "share"):
                problems.append(f"metric {name} missing")
                continue
            got = {"value": 1.0 if trace == 0 else 0.0, "unit": unit}
            not_applicable.append(name)
        value = got["value"]
        if got["unit"] != unit:
            problems.append(f"metric {name}: unit {got['unit']} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name}: value {value!r} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    failed_checks = [c["name"] for c in report.get("checks", []) if not c["ok"]]
    attempted, failed = report.get("attempted", 0), report.get("failed", 0)
    if attempted < 1:
        problems.append("nothing attempted")
    result = {
        "correct": not failed_checks and not problems,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": metrics,
    }
    return result, not_applicable, failed_checks + problems


def run(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    seconds = args.seconds or spec["run_seconds"]
    build()
    reports = BUILD / "reports"
    reports.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace),
           "--online-rate", str(spec["online_rate"]),
           "--online-slo-ms", str(spec["online_limit_ms"]),
           "--out-dir", str(reports)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver exceeded {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise BenchError(f"driver exited {proc.returncode}")
    report = json.loads(lines[-1])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result, not_applicable, failures = result_from_report(
        report, declared, args.trace, NOT_APPLICABLE[args.workload])
    report["not_applicable"] = not_applicable
    report["failures"] = failures
    report["result"] = result
    out = reports / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    host = report["host"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"host: nproc={host['nproc']} avx2={host['avx2']} "
          f"{host['compiler']} {host['build_type']}")
    for name, m in result["metrics"].items():
        tag = "  (n/a)" if name in not_applicable else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{tag}")
    for f in failures:
        print(f"  FAILED: {f}")
    print(f"  report: {out}")
    print(json.dumps(result))
    return 0 if result["correct"] else 3


def self_test():
    """Build and run the driver's arithmetic self-tests and run.py's own."""
    build()
    status = subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
    unit = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                           str(HERE / "tests"), "-p", "test_*.py"]).returncode
    return 0 if status == 0 and unit == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int,
                        help="run length; BENCHMARK.json's run_seconds "
                             "when omitted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        if args.seconds is not None and args.seconds < 1:
            parser.error("--seconds must be >= 1")
        return run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
