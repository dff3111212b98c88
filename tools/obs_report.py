#!/usr/bin/env python3
"""obs_report — render critical-path latency attribution from a metrics dump.

The flight recorder (src/obs/recorder.cpp) decomposes every served request's
end-to-end latency into named segments and feeds them to the metrics
registry as obs.segment_ms.* histograms; serve_demo --metrics-dump writes
the registry (tsdx_metrics.json) and the recorder ring (tsdx_recorder.json).
This script turns those files back into the operator's view:

  obs_report.py tsdx_metrics.json [--recorder tsdx_recorder.json]
                [--max-unattributed FRAC]

* A per-segment table: count, p50/p95/p99 (bucket-interpolated), total ms,
  and each segment's share of the summed end-to-end time.
* The attribution check: the four server-side segments (admission, queue,
  batch_wait, execute) are a complete partition of e2e by construction —
  their sums must add up to obs.e2e_ms's sum. The residual fraction is
  reported, and with --max-unattributed FRAC the script exits 1 when it
  exceeds FRAC (CI runs with 0.05: more than 5% unattributed time means the
  segment derivation and the e2e clock have drifted apart).
* With --recorder, the slowest served requests from the ring, each with its
  trace ID and per-segment breakdown — the concrete requests behind the p99.

Exit codes: 0 = pass, 1 = attribution gate failed, 2 = usage/IO error.
"""

from __future__ import annotations

import json
import sys

# The server-side segments, in pipeline order. They partition e2e exactly
# (recorder.cpp clamps missing milestones to zero-length segments).
SEGMENTS = ["admission", "queue", "batch_wait", "execute"]
# Router-side extra: backoff spent between failover attempts. Reported but
# outside the e2e partition (it is a different request population).
EXTRA_SEGMENTS = ["retry_backoff"]


def die(msg: str) -> None:
    print(f"obs_report: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        die(f"cannot read {path}: {err}")


def quantile(hist: dict, q: float) -> float:
    """Bucket-interpolated quantile from {count, buckets: [{le, count}...]}
    with per-bucket (non-cumulative) counts, mirroring Histogram::quantile."""
    total = hist.get("count", 0)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    prev_bound = 0.0
    last_finite = 0.0
    for bucket in hist["buckets"]:
        le = bucket["le"]
        count = bucket["count"]
        if le == "+Inf":
            return last_finite  # rank landed in the overflow bucket
        le = float(le)
        if cumulative + count >= rank and count > 0:
            into = (rank - cumulative) / count
            return prev_bound + (le - prev_bound) * min(1.0, max(0.0, into))
        cumulative += count
        prev_bound = le
        last_finite = le
    return last_finite


def segment_row(name: str, hist: dict, e2e_sum: float) -> str:
    share = hist["sum"] / e2e_sum if e2e_sum > 0 else 0.0
    return (
        f"  {name:<14} {hist.get('count', 0):>8} "
        f"{quantile(hist, 0.50):>9.3f} {quantile(hist, 0.95):>9.3f} "
        f"{quantile(hist, 0.99):>9.3f} {hist['sum']:>12.3f} {share:>7.1%}"
    )


def report_metrics(metrics, max_unattributed: float | None) -> int:
    histograms = metrics.get("histograms")
    if not isinstance(histograms, dict):
        die("metrics JSON has no `histograms` map")
    e2e = histograms.get("obs.e2e_ms")
    if e2e is None or e2e.get("count", 0) == 0:
        die(
            "metrics JSON has no populated obs.e2e_ms histogram — was the "
            "dump taken from a run that served requests?"
        )
    e2e_sum = e2e["sum"]

    print("critical-path attribution (ms):")
    print(
        f"  {'segment':<14} {'count':>8} {'p50':>9} {'p95':>9} {'p99':>9} "
        f"{'total':>12} {'share':>7}"
    )
    attributed = 0.0
    for name in SEGMENTS:
        hist = histograms.get(f"obs.segment_ms.{name}")
        if hist is None:
            die(f"metrics JSON is missing obs.segment_ms.{name}")
        attributed += hist["sum"]
        print(segment_row(name, hist, e2e_sum))
    print(segment_row("e2e", e2e, e2e_sum))
    for name in EXTRA_SEGMENTS:
        hist = histograms.get(f"obs.segment_ms.{name}")
        if hist is not None and hist.get("count", 0) > 0:
            print(segment_row(f"{name} *", hist, e2e_sum))
            print("  (* router-side backoff, outside the e2e partition)")

    residual = abs(e2e_sum - attributed)
    frac = residual / e2e_sum if e2e_sum > 0 else 0.0
    print(
        f"\nunattributed: {residual:.3f} ms of {e2e_sum:.3f} ms e2e "
        f"({frac:.2%})"
    )
    if max_unattributed is not None and frac > max_unattributed:
        print(
            f"obs_report: FAIL — unattributed fraction {frac:.2%} exceeds "
            f"the {max_unattributed:.0%} gate: the segment decomposition no "
            "longer accounts for the measured end-to-end time"
        )
        return 1
    return 0


def report_recorder(dump, top: int = 5) -> None:
    records = dump.get("records", []) if isinstance(dump, dict) else []
    served = [
        r
        for r in records
        if r.get("kind") == "server"
        and r.get("outcome") in ("completed", "degraded", "failed")
    ]
    if not served:
        print("\nrecorder: no served records in the ring")
        return
    served.sort(key=lambda r: r["done_ns"] - r["submit_ns"], reverse=True)
    print(f"\nslowest {min(top, len(served))} served request(s):")
    print(
        f"  {'trace':>8} {'e2e ms':>9} {'adm':>7} {'queue':>7} {'bwait':>7} "
        f"{'exec':>7}  {'outcome':<10} batch"
    )
    for r in served[:top]:
        # Mirror recorder.cpp's clamping: hooks run on different threads, so
        # a later milestone can carry an earlier raw timestamp by a few ns.
        submit = r["submit_ns"]
        enqueue = max(submit, r["enqueue_ns"] or submit)
        dispatch = max(enqueue, r["dispatch_ns"] or enqueue)
        execute = max(dispatch, r["execute_ns"] or dispatch)
        done = max(execute, r["done_ns"])
        ms = 1e-6
        print(
            f"  {r['trace_id']:>8} {(done - submit) * ms:>9.3f} "
            f"{(enqueue - submit) * ms:>7.3f} "
            f"{(dispatch - enqueue) * ms:>7.3f} "
            f"{(execute - dispatch) * ms:>7.3f} {(done - execute) * ms:>7.3f}"
            f"  {r['outcome']:<10} "
            f"{r['batch_size']}@w{r['worker']}"
        )


def main() -> int:
    argv = sys.argv[1:]
    recorder = None
    max_unattributed = None
    if "--recorder" in argv:
        i = argv.index("--recorder")
        if i + 1 >= len(argv):
            die("--recorder needs a file argument")
        recorder = argv[i + 1]
        del argv[i : i + 2]
    if "--max-unattributed" in argv:
        i = argv.index("--max-unattributed")
        if i + 1 >= len(argv):
            die("--max-unattributed needs a fraction argument")
        try:
            max_unattributed = float(argv[i + 1])
        except ValueError:
            die(f"--max-unattributed: not a number: {argv[i + 1]!r}")
        del argv[i : i + 2]
    if len(argv) != 1:
        print(__doc__)
        return 2
    status = report_metrics(load_json(argv[0]), max_unattributed)
    if recorder is not None:
        report_recorder(load_json(recorder))
    if status == 0:
        print("obs_report: PASS")
    return status


if __name__ == "__main__":
    sys.exit(main())
