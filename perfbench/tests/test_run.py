"""Self-tests of perfbench/run.py: BENCHMARK.json and the result schema.

Run with `python3 perfbench/run.py --self-test`, or directly with
`python3 -m unittest discover -s perfbench/tests`.
"""

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def report(metrics, checks=(("ok", True),), attempted=10, failed=0):
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "checks": [{"name": n, "ok": ok, "detail": ""} for n, ok in checks],
    }


DECLARED = [
    {"name": "latency_p50_ms", "unit": "ms"},
    {"name": "slo_attainment", "unit": "share"},
]


class BenchmarkSpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_keys_and_limits(self):
        raw = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(raw), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertEqual(raw["command"], ["python3", "perfbench/run.py"])
        self.assertIn(raw["run_seconds"], range(1, 61))
        names = [w["name"] for w in raw["workloads"]]
        self.assertEqual(names, ["online", "archive", "search"])
        for w in raw["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        seen = set(names)
        for m in raw["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in raw["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in raw["end_to_end"] + raw["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        setup = [m for m in raw["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in raw["end_to_end"]))

    def test_online_rate_and_limit_come_from_the_why(self):
        self.assertGreater(self.spec["online_rate"], 0)
        self.assertGreater(self.spec["online_limit_ms"], 0)

    def test_online_default_length_supports_p95(self):
        # Mirrors poisson_schedule's count and the windowing and tail rule of
        # driver/stats.hpp: each window of at least 200 samples must leave
        # 10 beyond its p95, in the half-length pass of a traced run too.
        for seconds in (self.spec["run_seconds"], self.spec["run_seconds"] / 2):
            n = round(self.spec["online_rate"] * seconds)
            window = n // max(1, n // 200)
            beyond = window - math.ceil(0.95 * window - 1e-9)
            self.assertGreaterEqual(beyond, 10)

    def test_not_applicable_names_are_declared(self):
        declared = {m["name"]: m["unit"]
                    for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        self.assertEqual(set(run.NOT_APPLICABLE),
                         {w["name"] for w in self.spec["workloads"]})
        for names in run.NOT_APPLICABLE.values():
            self.assertLessEqual(names, set(declared))
            for name in names & end_to_end:
                self.assertEqual(declared[name], "share")

    def test_seconds_default_to_run_seconds(self):
        calls = []

        def driver(cmd, **kwargs):
            calls.append(cmd)
            line = json.dumps({**report({}), "host": {
                "nproc": 1, "avx2": False, "compiler": "x", "build_type": "x"}})
            return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n")

        with mock.patch.object(run, "build"), \
                mock.patch.object(run.subprocess, "run", side_effect=driver), \
                contextlib.redirect_stdout(io.StringIO()):
            run.main(["--workload", "online", "--seed", "9"])
        cmd = calls[0]
        self.assertEqual(cmd[cmd.index("--seconds") + 1],
                         str(self.spec["run_seconds"]))
        (run.BUILD / "reports" / "online-9-trace0.json").unlink()


class ResultSchemaTest(unittest.TestCase):
    def test_exact_keys_and_units(self):
        result, na, failures = run.result_from_report(
            report({"latency_p50_ms": (1.25, "ms"), "slo_attainment": (0.99, "share")}),
            DECLARED, 0, set())
        self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(na, [])
        self.assertEqual(failures, [])
        self.assertEqual(result["metrics"]["latency_p50_ms"], {"value": 1.25, "unit": "ms"})
        json.loads(json.dumps(result))

    def test_undefined_share_is_vacuous_and_listed(self):
        result, na, _ = run.result_from_report(
            report({"latency_p50_ms": (1.0, "ms")}), DECLARED, 0, {"slo_attainment"})
        self.assertTrue(result["correct"])
        self.assertEqual(na, ["slo_attainment"])
        self.assertEqual(result["metrics"]["slo_attainment"]["value"], 1.0)

    def test_missing_timing_fails(self):
        result, _, failures = run.result_from_report(
            report({"slo_attainment": (1.0, "share")}), DECLARED, 0,
            {"slo_attainment", "latency_p50_ms"})
        self.assertFalse(result["correct"])
        self.assertIn("metric latency_p50_ms missing", failures)

    def test_missing_share_that_applies_fails(self):
        result, _, failures = run.result_from_report(
            report({"latency_p50_ms": (1.0, "ms")}), DECLARED, 0, set())
        self.assertFalse(result["correct"])
        self.assertIn("metric slo_attainment missing", failures)

    def test_unexercised_layer_reads_zero(self):
        result, na, _ = run.result_from_report(
            report({}), DECLARED, 1, {"latency_p50_ms", "slo_attainment"})
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(na), ["latency_p50_ms", "slo_attainment"])
        self.assertEqual(result["metrics"]["latency_p50_ms"]["value"], 0.0)

    def test_missing_layer_that_applies_fails(self):
        result, na, failures = run.result_from_report(
            report({"slo_attainment": (1.0, "share")}), DECLARED, 1,
            {"slo_attainment"})
        self.assertFalse(result["correct"])
        self.assertEqual(na, [])
        self.assertIn("metric latency_p50_ms missing", failures)

    def test_failed_check_unit_mismatch_and_nan_fail(self):
        bad_check = report({"latency_p50_ms": (1.0, "ms")}, checks=(("output_match", False),))
        na = {"slo_attainment"}
        self.assertFalse(run.result_from_report(bad_check, DECLARED, 0, na)[0]["correct"])
        bad_unit = report({"latency_p50_ms": (1.0, "s")})
        self.assertFalse(run.result_from_report(bad_unit, DECLARED, 0, na)[0]["correct"])
        nan = report({"latency_p50_ms": (math.nan, "ms")})
        result = run.result_from_report(nan, DECLARED, 0, na)[0]
        self.assertFalse(result["correct"])
        self.assertTrue(math.isfinite(result["metrics"]["latency_p50_ms"]["value"]))

    def test_nothing_attempted_fails(self):
        result = run.result_from_report(
            report({"latency_p50_ms": (1.0, "ms")}, attempted=0), DECLARED, 0,
            {"slo_attainment"})[0]
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 1)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_sources_and_prints_no_result(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        root = run.BUILD / "selftest-standalone"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", root)
            shutil.copytree(HERE.parent, root / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "online",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)
        finally:
            shutil.rmtree(root, ignore_errors=True)

if __name__ == "__main__":
    unittest.main()
