#!/usr/bin/env python3
"""trace_check — validate the observability artifacts serve_demo dumps.

CI runs `serve_demo --smoke --metrics-dump` and feeds the two JSON files it
writes to this script:

  trace_check.py tsdx_trace.json tsdx_metrics.json

The server runs compiled inference plans only, so the request path bottoms
out at one plan.execute span per batch. Checks (exit 0 = pass, 1 = fail,
2 = usage/IO error):

  trace shape       tsdx_trace.json is Chrome trace-event JSON: a non-empty
                    "traceEvents" list of complete ("ph": "X") events, each
                    with name / tid / ts / dur and an args.trace_id.
  end-to-end trace  At least one trace ID covers serve.request +
                    serve.queue_wait + serve.batch + plan.execute — one
                    submitted clip was traced from the queue through batch
                    formation into the plan that answered it. (model.* spans
                    are not expected: a plan runs as the single plan.execute
                    span, with only its GEMMs' gemm.* spans inside.)
  plan nesting      For such a trace, plan.execute sits inside serve.batch
                    on the worker's thread (span intervals nest, which is
                    what makes the Perfetto rendering meaningful), and a
                    plan.compile span exists somewhere in the buffer (the
                    server compiles at construction).
  metrics shape     tsdx_metrics.json has counters/gauges/histograms maps;
                    serve.submitted, serve.completed, gemm.calls,
                    plan.compiled and plan.executions are positive, and the
                    obs.e2e_ms histogram holds one sample per served request
                    (serve.completed + serve.failed: both derive from the
                    same closed flight records).

Optional artifact checks (combinable with or without the positionals; at
least one check must be requested):

  --prom FILE       Prometheus exposition with OpenMetrics exemplars: every
                    `# {...}` suffix parses as ` # {trace_id="N"} value`, and
                    at least one obs.e2e_ms bucket carries one — the slowest
                    requests are linkable to a concrete flight-recorder
                    trace.
  --recorder FILE   Flight-recorder ring dump (serve_demo --metrics-dump
                    writes tsdx_recorder.json): {"records": [...]}, each
                    record carrying the full schema (id / trace_id / kind /
                    outcome / batching / timeline fields), with at
                    least one terminal served record. With the metrics JSON
                    also given (the second positional) and a ring that holds
                    every record of the run (ids 1..N, nothing lapped), each
                    serve.* outcome counter must equal the number of server
                    records with that outcome — metrics and recorder derive
                    from one record per request, so they cannot disagree.
  --dump FILE       Anomaly dump written by the SLO engine to
                    TSDX_OBS_DUMP_DIR: anomaly kind, offending trace_id, slo
                    window snapshot, recorder records, span tail. When
                    trace_id is nonzero, a record with that trace must be in
                    the dump.
"""

from __future__ import annotations

import json
import re
import sys

REQUIRED_SPANS = {
    "serve.request",
    "serve.queue_wait",
    "serve.batch",
    "plan.execute",
}

# Parent -> children that must nest inside it (same thread, same trace).
NESTING = {
    "serve.batch": ["plan.execute"],
}


def fail(msg: str) -> None:
    print(f"trace_check: FAIL: {msg}")
    sys.exit(1)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_check: cannot read {path}: {err}")
        sys.exit(2)


def check_trace(trace) -> None:
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents is missing or empty")
    by_trace: dict[int, list[dict]] = {}
    for i, e in enumerate(events):
        for key in ("name", "ph", "tid", "ts", "dur", "args"):
            if key not in e:
                fail(f"traceEvents[{i}] is missing `{key}`")
        if e["ph"] != "X":
            fail(f"traceEvents[{i}] has ph={e['ph']!r}, want complete 'X'")
        if e["dur"] < 0:
            fail(f"traceEvents[{i}] has negative duration")
        tid = e["args"].get("trace_id")
        if not isinstance(tid, int):
            fail(f"traceEvents[{i}] has no integer args.trace_id")
        by_trace.setdefault(tid, []).append(e)

    full = [
        tid
        for tid, spans in by_trace.items()
        if tid > 0 and REQUIRED_SPANS <= {s["name"] for s in spans}
    ]
    if not full:
        seen = {s["name"] for spans in by_trace.values() for s in spans}
        fail(
            "no trace ID carries the full request path "
            f"{sorted(REQUIRED_SPANS)}; span names seen: {sorted(seen)}"
        )
    if not any(
        s["name"] == "plan.compile" for spans in by_trace.values() for s in spans
    ):
        fail("no plan.compile span — nothing was compiled this run")

    # Nesting holds for at least one fully-traced request: RAII spans on the
    # worker thread must contain their children's intervals exactly.
    def nests(spans: list[dict]) -> bool:
        for parent_name, children in NESTING.items():
            parents = [s for s in spans if s["name"] == parent_name]
            for child_name in children:
                ok = any(
                    p["tid"] == c["tid"]
                    and p["ts"] <= c["ts"]
                    and c["ts"] + c["dur"] <= p["ts"] + p["dur"]
                    for c in spans
                    if c["name"] == child_name
                    for p in parents
                )
                if not ok:
                    return False
        return True

    if not any(nests(by_trace[tid]) for tid in full):
        fail(
            "no fully-traced request has properly nested spans "
            "(serve.batch > plan.execute on one thread)"
        )
    print(
        f"trace_check: trace OK — {len(events)} spans, "
        f"{len(full)} fully-traced request(s)"
    )


def check_metrics(metrics) -> None:
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(f"metrics JSON is missing the `{section}` map")
    counters = metrics["counters"]
    # Plan GEMMs, portable or AVX2 build, go through the one instrumented
    # entry, so gemm.calls counts them.
    required = [
        "serve.submitted", "serve.completed", "gemm.calls", "plan.compiled",
        "plan.executions",
    ]
    for name in required:
        if counters.get(name, 0) <= 0:
            fail(f"counter `{name}` is missing or zero")
    e2e = metrics["histograms"].get("obs.e2e_ms")
    if e2e is None:
        fail("histogram `obs.e2e_ms` is missing")
    served = counters["serve.completed"] + counters.get("serve.failed", 0)
    if e2e.get("count", 0) != served:
        fail(
            f"obs.e2e_ms holds {e2e.get('count', 0)} samples, want one per "
            f"served request (completed + failed = {served})"
        )
    detail = (
        f"{counters['plan.compiled']} plan(s) compiled, "
        f"{counters['plan.executions']} plan run(s), "
        f"{counters['gemm.calls']} GEMM calls"
    )
    print(
        f"trace_check: metrics OK — {counters['serve.completed']} completed, "
        + detail
    )


# One flight-recorder record, as append_record_json (src/obs/recorder.cpp)
# emits it. `admission` is optional (only router-hop records that reached the
# admission gate carry it); everything else is always present.
RECORD_REQUIRED = {
    "id": int,
    "trace_id": int,
    "kind": str,
    "outcome": str,
    "batch_id": int,
    "batch_size": int,
    "worker": int,
    "replica": int,
    "attempts": int,
    "failovers": int,
    "submit_ns": int,
    "enqueue_ns": int,
    "dispatch_ns": int,
    "execute_ns": int,
    "done_ns": int,
    "backoff_ns": int,
}

RECORD_KINDS = {"server", "router"}
RECORD_OUTCOMES = {
    "in_flight", "completed", "degraded", "failed", "deadline_expired",
    "shed", "rejected", "cancelled",
}
ANOMALY_KINDS = {"deadline_miss", "circuit_trip", "retry_storm",
                 "arena_growth"}

# OpenMetrics exemplar suffix as Histogram::to_prometheus writes it:
#   obs_e2e_ms_bucket{le="0.5"} 12 # {trace_id="7"} 0.35
EXEMPLAR = re.compile(r' # \{trace_id="\d+"\} -?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?$')


def check_record(record, where: str) -> None:
    if not isinstance(record, dict):
        fail(f"{where} is not an object")
    for key, typ in RECORD_REQUIRED.items():
        if not isinstance(record.get(key), typ) or isinstance(
            record.get(key), bool
        ):
            fail(f"{where} is missing integer/string field `{key}`")
    if record["kind"] not in RECORD_KINDS:
        fail(f"{where} has unknown kind {record['kind']!r}")
    if record["outcome"] not in RECORD_OUTCOMES:
        fail(f"{where} has unknown outcome {record['outcome']!r}")
    if "admission" in record and not isinstance(record["admission"], str):
        fail(f"{where} has a non-string `admission`")


def check_prom(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as err:
        print(f"trace_check: cannot read {path}: {err}")
        sys.exit(2)
    exemplars = 0
    e2e_exemplars = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if " # {" not in line:
            continue
        if not EXEMPLAR.search(line):
            fail(
                f"{path}:{lineno}: malformed exemplar suffix "
                f"(want ` # {{trace_id=\"N\"}} value`): {line!r}"
            )
        if "_bucket{" not in line:
            fail(f"{path}:{lineno}: exemplar on a non-bucket line: {line!r}")
        exemplars += 1
        if line.startswith("obs_e2e_ms_bucket{"):
            e2e_exemplars += 1
    if e2e_exemplars == 0:
        fail(f"{path}: no obs.e2e_ms bucket carries a trace-ID exemplar")
    print(
        f"trace_check: prom OK — {exemplars} bucket exemplar(s), "
        f"{e2e_exemplars} on obs.e2e_ms"
    )


# serve.* outcome counter -> the server-record outcomes it counts
# (Recorder::finish, src/obs/recorder.cpp).
OUTCOME_COUNTERS = {
    "serve.completed": ("completed", "degraded"),
    "serve.degraded_completions": ("degraded",),
    "serve.failed": ("failed",),
    "serve.deadline_expired": ("deadline_expired",),
    "serve.shed": ("shed",),
    "serve.cancelled": ("cancelled",),
    "serve.rejected": ("rejected",),
}


def check_recorder(dump, metrics=None) -> None:
    records = dump.get("records") if isinstance(dump, dict) else None
    if not isinstance(records, list) or not records:
        fail("recorder dump has no non-empty `records` list")
    for i, record in enumerate(records):
        check_record(record, f"records[{i}]")
    served = [
        r
        for r in records
        if r["outcome"] in ("completed", "degraded", "failed")
    ]
    if not served:
        fail("recorder dump holds no terminally served record")
    detail = ""
    if metrics is not None:
        detail = cross_check(records, metrics)
    print(
        f"trace_check: recorder OK — {len(records)} record(s), "
        f"{len(served)} served" + detail
    )


def cross_check(records, metrics) -> str:
    """Each serve.* outcome counter equals its count of server records.

    Only meaningful when the ring still holds every record of the run: the
    ids of a never-lapped ring are exactly 1..N.
    """
    ids = sorted(r["id"] for r in records)
    if ids != list(range(1, len(ids) + 1)):
        return " (ring lapped or partial: counter cross-check skipped)"
    counters = metrics.get("counters") if isinstance(metrics, dict) else None
    if not isinstance(counters, dict):
        fail("metrics JSON is missing the `counters` map")
    server = [r for r in records if r["kind"] == "server"]
    in_flight = [r["id"] for r in server if r["outcome"] == "in_flight"]
    if in_flight:
        fail(f"server records still in flight after drain: ids {in_flight}")
    for name, outcomes in OUTCOME_COUNTERS.items():
        want = sum(1 for r in server if r["outcome"] in outcomes)
        got = counters.get(name, 0)
        if got != want:
            fail(
                f"counter `{name}` = {got}, but {want} server record(s) "
                f"closed as {'/'.join(outcomes)}"
            )
    return f", outcome counters agree with {len(server)} server record(s)"


def check_dump(dump) -> None:
    if not isinstance(dump, dict):
        fail("anomaly dump is not a JSON object")
    anomaly = dump.get("anomaly")
    if anomaly not in ANOMALY_KINDS:
        fail(f"anomaly dump has unknown kind {anomaly!r}")
    trace_id = dump.get("trace_id")
    if not isinstance(trace_id, int):
        fail("anomaly dump has no integer `trace_id`")
    slo = dump.get("slo")
    if not isinstance(slo, dict):
        fail("anomaly dump has no `slo` snapshot")
    for key in (
        "good_fast", "bad_fast", "good_slow", "bad_slow", "burn_rate_fast",
        "burn_rate_slow", "budget_remaining", "latency_objective_ms",
        "target",
    ):
        if not isinstance(slo.get(key), (int, float)):
            fail(f"anomaly dump slo snapshot is missing numeric `{key}`")
    records = dump.get("records")
    if not isinstance(records, list):
        fail("anomaly dump has no `records` list")
    for i, record in enumerate(records):
        check_record(record, f"records[{i}]")
    spans = dump.get("spans")
    if not isinstance(spans, list):
        fail("anomaly dump has no `spans` list")
    for i, span in enumerate(spans):
        if not isinstance(span, dict):
            fail(f"spans[{i}] is not an object")
        if not isinstance(span.get("name"), str):
            fail(f"spans[{i}] has no string `name`")
        for key in ("trace_id", "tid", "start_ns", "duration_ns"):
            if not isinstance(span.get(key), int):
                fail(f"spans[{i}] has no integer `{key}`")
    if trace_id != 0 and not any(r["trace_id"] == trace_id for r in records):
        fail(
            f"anomaly dump names trace {trace_id} but no record in the dump "
            "carries it"
        )
    print(
        f"trace_check: dump OK — anomaly {anomaly!r}, trace {trace_id}, "
        f"{len(records)} record(s), {len(spans)} span(s)"
    )


def take_flag(argv: list[str], flag: str) -> str | None:
    if flag not in argv:
        return None
    i = argv.index(flag)
    if i + 1 >= len(argv):
        print(f"trace_check: {flag} needs a file argument")
        sys.exit(2)
    value = argv[i + 1]
    del argv[i : i + 2]
    return value


def main() -> int:
    argv = sys.argv[1:]
    prom = take_flag(argv, "--prom")
    recorder = take_flag(argv, "--recorder")
    dump = take_flag(argv, "--dump")
    if len(argv) not in (0, 2) or (
        not argv and prom is None and recorder is None and dump is None
    ):
        print(__doc__)
        return 2
    metrics = None
    if argv:
        check_trace(load_json(argv[0]))
        metrics = load_json(argv[1])
        check_metrics(metrics)
    if prom is not None:
        check_prom(prom)
    if recorder is not None:
        check_recorder(load_json(recorder), metrics)
    if dump is not None:
        check_dump(load_json(dump))
    print("trace_check: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
