#!/usr/bin/env python3
"""tsdx_lint — repo-invariant checker for the tsdx tree.

Enforced invariants (each maps to a rule id shown in diagnostics):

  header-guard      Every header under src/, bench/, tests/ uses `#pragma once`
                    (the repo convention; no #ifndef-style guards).
  raw-array-new     No raw `new T[...]` / `delete[]` outside src/tensor/.
                    Owning storage lives in std::vector / smart pointers; the
                    tensor layer is the only place allowed to opt out (it
                    currently doesn't either, but it owns the memory model).
  bench-common      Every benchmark translation unit in bench/ includes
                    bench_common.hpp so all reconstructed tables share one
                    dataset recipe and train/eval loop.
  raw-thread        No raw std::thread / std::jthread construction outside
                    src/serve/ and the intra-op pool implementation
                    (src/tensor/kernels/parallel_for.{hpp,cpp}) — every
                    thread in a tsdx process must go through the serve layer
                    (ThreadPool / InferenceServer / the Router's timer
                    thread, src/serve/router.cpp) or tsdx::par, which
                    own spawning and deterministic joining. Inside src/tensor/
                    specifically, compute code must use tsdx::par so results
                    stay deterministic at any thread count. Static members
                    like std::thread::hardware_concurrency() are fine.
                    (src/serve/ headers are swept by the header-guard and
                    raw-array-new rules like every other module.)
  catch-all-swallow No `catch (...)` outside src/serve/ unless the handler
                    rethrows (`throw;`) or routes through the fault-injection
                    layer (`fault::`). A catch-all that swallows is how
                    recovery bugs hide: the serve layer is the one place with
                    a contract for translating arbitrary failures (in-place
                    worker recovery, circuit breaker, degraded fallback, the
                    Router's failover retries in src/serve/router.cpp);
                    every other layer must let unknown exceptions propagate
                    to it.
  taxonomy-int      No floating-point literals in src/sdl/taxonomy.{hpp,cpp}.
                    The SDL slot tables are pure integral enums; a float
                    literal there means an accidental float->int narrowing.
  raw-log           No raw std::cout / std::cerr / printf / fprintf logging
                    in src/serve/, src/obs/, src/index/ or src/plan/ —
                    operational diagnostics in
                    those layers go through TSDX_LOG_INFO / TSDX_LOG_WARN
                    (src/obs/log.hpp, the single allowlisted raw-stderr
                    site). A server's stdout belongs to its operator. This
                    covers the flight recorder (src/obs/recorder.cpp) and
                    SLO engine (src/obs/slo.cpp) too: an anomaly dump is
                    written with fopen/fwrite to TSDX_OBS_DUMP_DIR, never
                    narrated to the console. snprintf-into-a-returned-string
                    (stats table printers) is not logging and stays legal.
  op-shape-check    Every public op declared in src/tensor/ops.hpp and
                    src/tensor/nn_ops.hpp validates its input shapes: its
                    definition must use TSDX_CHECK / TSDX_SHAPE_ASSERT, go
                    through a validating helper (binary_op / unary_op /
                    classify / shape_error), or delegate to another validated
                    op. Genuinely shape-agnostic ops are allowlisted below.
  raw-mutex         No bare std::mutex / std::lock_guard / std::unique_lock /
                    std::condition_variable in src/serve/, src/obs/,
                    src/index/ or src/plan/ — those
                    layers lock through tsdx::Mutex / LockGuard / UniqueLock /
                    CondVar (src/core/annotations.hpp) so every lock carries
                    thread-safety annotations and a lockorder::Rank (the
                    router stack — src/serve/router.cpp, admission.cpp,
                    replica.cpp — sits at the bottom ranks kRouter <
                    kAdmission < kReplica of that hierarchy, while the
                    obs v2 surfaces sit near the top: kSlo < kRecorder <
                    kRegistry < kTraceRing, so the SLO engine may snapshot
                    the recorder ring and span buffer while holding its
                    lock). The wrappers themselves (src/core/) are the one
                    place the raw primitives live.
  unannotated-shared  A mutable data member declared after a tsdx::Mutex
                    member in the same class must carry TSDX_GUARDED_BY (or
                    be a const / static / atomic / another sync primitive).
                    Positional convention: guarded state sits below its lock,
                    so an unannotated member next to a Mutex is either a
                    missing annotation or state whose locking story is
                    undocumented. Checked in src/serve/, src/obs/,
                    src/index/, src/plan/ and src/tensor/kernels/ — which
                    sweeps the new obs v2 state too: the Recorder's ring and
                    the SloEngine's rolling buckets / dump budget are all
                    TSDX_GUARDED_BY their rank-checked mutexes.
  plan-float-math   No std::exp / std::log / std::tanh / std::sqrt under
                    src/plan/. Compiled plans are bit-identical to the
                    dynamic path because both call the shared kernels in
                    src/tensor/kernels (rows.hpp, gemm.hpp); a transcendental
                    in src/plan/ is a copied kernel that can drift.
  rows-libm         No std::exp / std::tanh in src/tensor/kernels/rows.hpp.
                    Every exponential in the row kernels (softmax,
                    log-softmax, GELU and its gradient) comes from the
                    branch-free vector exp4 there; a libm call per element is
                    the scalar hot path that exp4 replaced. std::log and
                    std::sqrt stay legal: each runs once per row.
  terminal-sink     A request's outcome is counted in exactly one place:
                    obs::Recorder::finish (src/obs/recorder.cpp), which
                    derives every outcome counter and the SLO event from the
                    request's closed flight record. Under src/, the outcome
                    counter names (serve.completed / failed /
                    degraded_completions / deadline_expired / shed /
                    cancelled / rejected, route.completed / failed /
                    degraded / retries / failovers) may appear as string
                    literals, and SloEngine::on_event may be called, only in
                    that file — a second bump site is a second accounting
                    path that can disagree with the records.
  serve-plan-only   A server has one execution path: the compiled plan.
                    Under src/serve/, extract_batch may be called only on a
                    PlanExecutor (a receiver named *executor*), never on a
                    ScenarioExtractor — the dynamic forward stays for
                    training and as the test oracle. And the deleted
                    `use_compiled_plan` switch appears nowhere in the code,
                    tests, benches, examples, tools or CI (this file
                    excepted).
  router-nonblocking  The Router holds no thread per request: a replica
                    answers through the request's completion callback and
                    the router's one timer thread serves retries after
                    their backoff, deadline watchdogs and probe ticks. So
                    src/serve/router.{hpp,cpp} may not sleep (sleep_for /
                    sleep_until) or wait on a future (future_status), and
                    the deleted relay-pool knobs `relay_threads` /
                    `relay_queue_capacity` appear nowhere in the code,
                    tests, benches, examples, tools or CI (this file
                    excepted).

Usage: tsdx_lint.py [repo_root]      (exit 0 = clean, 1 = violations)
If repo_root is omitted it is derived from this script's location, so the
linter gives identical results from any working directory.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Ops whose domain really is every shape; nothing to validate.
SHAPE_AGNOSTIC_OPS = {"sum_all"}

# Helpers that perform validation on behalf of their caller. `unary_op` and
# `unary_result` (its autograd half, which bulk row-kernel ops such as gelu
# call directly) are in this set because elementwise unary ops are
# shape-agnostic by construction; `matmul_dims` centralizes the
# matmul/matmul_nt shape contract (ops.cpp).
VALIDATING_HELPERS = {"binary_op", "unary_op", "unary_result", "classify",
                      "shape_error", "matmul_dims"}

VALIDATION_MACROS = ("TSDX_CHECK", "TSDX_SHAPE_ASSERT")


# The outcome counters Recorder::finish derives (terminal-sink rule).
OUTCOME_COUNTERS = (
    "serve.completed", "serve.failed", "serve.degraded_completions",
    "serve.deadline_expired", "serve.shed", "serve.cancelled",
    "serve.rejected", "route.completed", "route.failed", "route.degraded",
    "route.retries", "route.failovers",
)


def strip_comments(text: str) -> str:
    """Blank out comments only (string literals kept), preserving lines."""
    return re.sub(
        r"""//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*'""",
        lambda m: m.group(0) if m.group(0)[0] in "\"'"
        else "\n" * m.group(0).count("\n"),
        text, flags=re.S)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + quote)
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.errors: list[str] = []

    def error(self, path: Path, line: int, rule: str, msg: str) -> None:
        rel = path.relative_to(self.root)
        self.errors.append(f"{rel}:{line}: [{rule}] {msg}")

    # ---- header-guard -------------------------------------------------------

    def check_header_guards(self) -> None:
        for sub in ("src", "bench", "tests"):
            for path in sorted((self.root / sub).rglob("*.hpp")):
                text = path.read_text()
                if "#pragma once" not in text:
                    self.error(path, 1, "header-guard",
                               "header is missing `#pragma once`")
                elif re.search(r"^#ifndef\s+\w+_HPP", text, re.M):
                    self.error(path, 1, "header-guard",
                               "mixes #ifndef guard with `#pragma once`")

    # ---- raw-array-new ------------------------------------------------------

    def check_raw_array_new(self) -> None:
        tensor_dir = self.root / "src" / "tensor"
        pats = (re.compile(r"\bnew\s+[\w:<>,\s]+\["),
                re.compile(r"\bdelete\s*\[\]"))
        for sub in ("src", "bench", "tests", "examples"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix not in (".hpp", ".cpp"):
                    continue
                if tensor_dir in path.parents:
                    continue
                clean = strip_comments_and_strings(path.read_text())
                for lineno, line in enumerate(clean.splitlines(), 1):
                    if any(p.search(line) for p in pats):
                        self.error(path, lineno, "raw-array-new",
                                   "raw array new/delete outside src/tensor/")

    # ---- raw-thread ---------------------------------------------------------

    def check_raw_thread(self) -> None:
        serve_dir = self.root / "src" / "serve"
        tensor_dir = self.root / "src" / "tensor"
        # The intra-op pool is the one compute-side owner of threads; see
        # parallel_for.hpp's determinism contract.
        par_files = {tensor_dir / "kernels" / "parallel_for.hpp",
                     tensor_dir / "kernels" / "parallel_for.cpp"}
        # `std::thread` / `std::jthread` as a type (construction, members,
        # containers of threads) — but not scoped statics like
        # `std::thread::hardware_concurrency()`.
        pat = re.compile(r"\bstd::j?thread\b(?!::)")
        for sub in ("src", "bench", "tests", "examples"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix not in (".hpp", ".cpp"):
                    continue
                if serve_dir in path.parents or path in par_files:
                    continue
                in_tensor = tensor_dir in path.parents
                clean = strip_comments_and_strings(path.read_text())
                for lineno, line in enumerate(clean.splitlines(), 1):
                    if pat.search(line):
                        if in_tensor:
                            self.error(path, lineno, "raw-thread",
                                       "raw std::thread in src/tensor/ — "
                                       "compute kernels must use tsdx::par "
                                       "(kernels/parallel_for.hpp) so results "
                                       "are deterministic at any thread count")
                        else:
                            self.error(path, lineno, "raw-thread",
                                       "raw std::thread outside src/serve/ — "
                                       "use tsdx::serve::ThreadPool, the "
                                       "InferenceServer worker pool, or "
                                       "tsdx::par for intra-op parallelism")

    # ---- catch-all-swallow --------------------------------------------------

    def check_catch_all_swallow(self) -> None:
        serve_dir = self.root / "src" / "serve"
        catch_all = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
        rethrow = re.compile(r"\bthrow\s*;")
        for sub in ("src", "bench", "tests", "examples"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix not in (".hpp", ".cpp"):
                    continue
                if serve_dir in path.parents:
                    continue
                clean = strip_comments_and_strings(path.read_text())
                for m in catch_all.finditer(clean):
                    lineno = clean.count("\n", 0, m.start()) + 1
                    brace = clean.find("{", m.end())
                    if brace == -1:
                        continue
                    depth, j = 0, brace
                    while j < len(clean):
                        if clean[j] == "{":
                            depth += 1
                        elif clean[j] == "}":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    body = clean[brace:j + 1]
                    if not rethrow.search(body) and "fault::" not in body:
                        self.error(path, lineno, "catch-all-swallow",
                                   "catch (...) outside src/serve/ must "
                                   "rethrow (`throw;`) or route through the "
                                   "fault:: layer — swallowing unknown "
                                   "exceptions hides recovery bugs")

    # ---- bench-common -------------------------------------------------------

    def check_bench_common(self) -> None:
        for path in sorted((self.root / "bench").glob("*.cpp")):
            if '#include "bench_common.hpp"' not in path.read_text():
                self.error(path, 1, "bench-common",
                           "bench translation unit must use bench_common.hpp")

    # ---- raw-log ------------------------------------------------------------

    def check_raw_log(self) -> None:
        # obs/log.hpp is the one place allowed to touch stderr directly; the
        # macros it defines are what everyone else uses.
        allow = {self.root / "src" / "obs" / "log.hpp"}
        # cout/cerr as streams, printf/fprintf as calls. The lookbehind keeps
        # snprintf (formatting into a returned buffer, not logging) legal.
        pat = re.compile(
            r"std::cout|std::cerr|\bfprintf\s*\(|(?<!\w)printf\s*\(")
        for sub in ("src/serve", "src/obs", "src/index", "src/plan"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix not in (".hpp", ".cpp") or path in allow:
                    continue
                clean = strip_comments_and_strings(path.read_text())
                for lineno, line in enumerate(clean.splitlines(), 1):
                    if pat.search(line):
                        self.error(path, lineno, "raw-log",
                                   "raw stdout/stderr logging in the serving/"
                                   "observability layers — use TSDX_LOG_INFO /"
                                   " TSDX_LOG_WARN from obs/log.hpp")

    # ---- taxonomy-int -------------------------------------------------------

    def check_taxonomy_tables(self) -> None:
        float_lit = re.compile(r"\b\d+\.\d*f?|\b\.\d+f?")
        for name in ("taxonomy.hpp", "taxonomy.cpp"):
            path = self.root / "src" / "sdl" / name
            if not path.exists():
                continue
            clean = strip_comments_and_strings(path.read_text())
            for lineno, line in enumerate(clean.splitlines(), 1):
                if float_lit.search(line):
                    self.error(path, lineno, "taxonomy-int",
                               "float literal in integral SDL taxonomy table "
                               f"({line.strip()})")

    # ---- op-shape-check -----------------------------------------------------

    @staticmethod
    def _public_ops(header_text: str) -> list[str]:
        decl = re.compile(
            r"^(?:Tensor|std::vector<std::int64_t>)\s+(\w+)\(", re.M)
        return decl.findall(header_text)

    @staticmethod
    def _op_bodies(cpp_text: str) -> dict[str, tuple[int, str]]:
        """Map op name -> (line, body text) for column-0 definitions."""
        bodies: dict[str, tuple[int, str]] = {}
        defn = re.compile(
            r"^(?:Tensor|std::vector<std::int64_t>)\s+(\w+)\(", re.M)
        for m in defn.finditer(cpp_text):
            name = m.group(1)
            brace = cpp_text.find("{", m.end())
            if brace == -1:
                continue  # declaration, not definition
            depth, j = 0, brace
            while j < len(cpp_text):
                if cpp_text[j] == "{":
                    depth += 1
                elif cpp_text[j] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            line = cpp_text.count("\n", 0, m.start()) + 1
            bodies[name] = (line, cpp_text[brace:j + 1])
        return bodies

    def check_op_shape_validation(self) -> None:
        pairs = [("src/tensor/ops.hpp", "src/tensor/ops.cpp"),
                 ("src/tensor/nn_ops.hpp", "src/tensor/nn_ops.cpp")]
        call = {h: re.compile(rf"\b{h}\s*\(") for h in VALIDATING_HELPERS}
        for hpp, cpp in pairs:
            header, source = self.root / hpp, self.root / cpp
            if not header.exists() or not source.exists():
                self.error(self.root / "CMakeLists.txt", 1, "op-shape-check",
                           f"expected {hpp} and {cpp} to exist")
                continue
            ops = self._public_ops(strip_comments_and_strings(
                header.read_text()))
            bodies = self._op_bodies(strip_comments_and_strings(
                source.read_text()))
            validated = set(SHAPE_AGNOSTIC_OPS)
            # Fixed point: an op is validated if it checks directly, uses a
            # validating helper, or calls an already-validated sibling op.
            changed = True
            while changed:
                changed = False
                for name in ops:
                    if name in validated or name not in bodies:
                        continue
                    body = bodies[name][1]
                    ok = (any(macro in body for macro in VALIDATION_MACROS)
                          or any(p.search(body) for p in call.values())
                          or any(re.search(rf"\b{v}\s*\(", body)
                                 for v in validated))
                    if ok:
                        validated.add(name)
                        changed = True
            for name in ops:
                if name not in bodies:
                    self.error(source, 1, "op-shape-check",
                               f"public op `{name}` declared in {hpp} has no "
                               "column-0 definition here")
                elif name not in validated:
                    self.error(source, bodies[name][0], "op-shape-check",
                               f"public op `{name}` does not validate its "
                               "input shapes (TSDX_CHECK / TSDX_SHAPE_ASSERT)")

    # ---- raw-mutex ----------------------------------------------------------

    def check_raw_mutex(self) -> None:
        # std::mutex and friends as types; tsdx::Mutex wraps them exactly
        # once, in src/core/annotations.hpp (outside this rule's scope).
        pat = re.compile(
            r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
            r"lock_guard|unique_lock|scoped_lock|shared_lock|"
            r"condition_variable(?:_any)?)\b")
        for sub in ("src/serve", "src/obs", "src/index", "src/plan"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix not in (".hpp", ".cpp"):
                    continue
                clean = strip_comments_and_strings(path.read_text())
                for lineno, line in enumerate(clean.splitlines(), 1):
                    if pat.search(line):
                        self.error(path, lineno, "raw-mutex",
                                   "raw std sync primitive in an annotated "
                                   "layer — use tsdx::Mutex / LockGuard / "
                                   "UniqueLock / CondVar from "
                                   "core/annotations.hpp so the lock is "
                                   "thread-safety-annotated and rank-checked")

    # ---- unannotated-shared -------------------------------------------------

    # Declarations that never need TSDX_GUARDED_BY: other sync primitives,
    # immutables, nested types, functions and access specifiers.
    _SHARED_EXEMPT = re.compile(
        r"^(?:mutable\s+)?(?:Mutex|CondVar)\b"
        r"|^(?:static|constexpr|using|friend|enum|struct|class|template"
        r"|public|private|protected|explicit|virtual|~)\b"
        r"|^const\b"
        r"|\bstd::atomic\b")

    def _member_statements(self, lines: list[str], start: int,
                           indent: int) -> list[tuple[int, str]]:
        """Joined `;`-terminated statements after `start` until the
        enclosing scope closes (a `}` at indentation below `indent`)."""
        statements: list[tuple[int, str]] = []
        buf: list[str] = []
        first = 0
        depth = 0  # nested scopes (function bodies, nested types) are skipped
        for lineno in range(start, len(lines)):
            line = lines[lineno]
            stripped = line.strip()
            if not stripped:
                continue
            if depth > 0:
                depth += stripped.count("{") - stripped.count("}")
                continue
            line_indent = len(line) - len(line.lstrip())
            if stripped.startswith("}") and line_indent < indent:
                break
            if not buf:
                first = lineno
            buf.append(stripped)
            net = stripped.count("{") - stripped.count("}")
            if net > 0:
                # Entering a nested scope: drop the opener and everything
                # inside — members of nested types get their own pass when
                # their own Mutex declaration matches.
                depth = net
                buf = []
            elif stripped.endswith(";"):
                statements.append((first + 1, " ".join(buf)))
                buf = []
        return statements

    def check_unannotated_shared(self) -> None:
        mutex_decl = re.compile(r"^(\s*)(?:mutable\s+)?Mutex\s+\w+")
        for sub in ("src/serve", "src/obs", "src/index", "src/plan",
                    "src/tensor/kernels"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix not in (".hpp", ".cpp"):
                    continue
                clean = strip_comments_and_strings(path.read_text())
                lines = clean.splitlines()
                for i, line in enumerate(lines):
                    m = mutex_decl.match(line)
                    if not m:
                        continue
                    # Find the end of the Mutex member's own statement.
                    j = i
                    while j < len(lines) and ";" not in lines[j]:
                        j += 1
                    for lineno, stmt in self._member_statements(
                            lines, j + 1, len(m.group(1))):
                        if "TSDX_GUARDED_BY" in stmt:
                            continue
                        if self._SHARED_EXEMPT.search(stmt):
                            continue
                        # Strip initializers, then treat a remaining `(` as
                        # a function declaration (data members only carry
                        # parens inside initializers or annotations).
                        head = re.split(r"=|\{", stmt, maxsplit=1)[0]
                        if "(" in head:
                            continue
                        self.error(path, lineno, "unannotated-shared",
                                   "mutable member below a tsdx::Mutex "
                                   "lacks TSDX_GUARDED_BY — annotate it "
                                   "(or move it above the lock if it is "
                                   f"not shared state): `{stmt}`")

    # ---- plan-float-math ----------------------------------------------------

    def check_plan_float_math(self) -> None:
        pat = re.compile(r"\bstd::(?:exp|log|tanh|sqrt)\b")
        for path in sorted((self.root / "src" / "plan").rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".inc"):
                continue
            clean = strip_comments_and_strings(path.read_text())
            for lineno, line in enumerate(clean.splitlines(), 1):
                if pat.search(line):
                    self.error(path, lineno, "plan-float-math",
                               "float math in src/plan/ — call the shared "
                               "row kernels (tensor/kernels/rows.hpp) so "
                               "compiled and dynamic paths stay bit-identical")

    # ---- rows-libm -----------------------------------------------------------

    def check_rows_libm(self) -> None:
        path = self.root / "src" / "tensor" / "kernels" / "rows.hpp"
        if not path.exists():
            return
        pat = re.compile(r"\bstd::(?:exp|tanh)\b")
        clean = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(clean.splitlines(), 1):
            if pat.search(line):
                self.error(path, lineno, "rows-libm",
                           "per-element libm call in the row kernels — use "
                           "the vector exp4 (std::log / std::sqrt once per "
                           "row are fine)")

    # ---- terminal-sink --------------------------------------------------------

    def check_terminal_sink(self) -> None:
        sink = self.root / "src" / "obs" / "recorder.cpp"
        names = re.compile(
            r'"(?:' + "|".join(re.escape(n) for n in OUTCOME_COUNTERS) +
            r')"')
        # A call of SloEngine::on_event: through an object (`.on_event(` /
        # `->on_event(`) or qualified. slo.cpp's own definition
        # (`void SloEngine::on_event(`) is not a call.
        slo_call = re.compile(r"(?:\.|->|SloEngine::)\s*on_event\s*\(")
        slo_definition = re.compile(r"\bvoid\s+SloEngine::on_event\s*\(")
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".inc") or path == sink:
                continue
            clean = strip_comments(path.read_text())
            for lineno, line in enumerate(clean.splitlines(), 1):
                if names.search(line):
                    self.error(path, lineno, "terminal-sink",
                               "outcome counter named outside "
                               "src/obs/recorder.cpp — derive it in "
                               "Recorder::finish from the request's record")
                if slo_call.search(line) and not slo_definition.search(line):
                    self.error(path, lineno, "terminal-sink",
                               "SLO event sent outside src/obs/recorder.cpp "
                               "— Recorder::finish derives it from the "
                               "request's record")

    # ---- serve-plan-only ------------------------------------------------------

    def check_serve_plan_only(self) -> None:
        call = re.compile(r"(?<!\w)extract_batch\s*\(")
        via_executor = re.compile(
            r"\w*executor\w*\s*(?:\.|->)\s*extract_batch\s*\($")
        for path in sorted((self.root / "src" / "serve").rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".inc"):
                continue
            clean = strip_comments_and_strings(path.read_text())
            for lineno, line in enumerate(clean.splitlines(), 1):
                for m in call.finditer(line):
                    if not via_executor.search(line[:m.end()]):
                        self.error(path, lineno, "serve-plan-only",
                                   "extract_batch outside a PlanExecutor in "
                                   "src/serve/ — the server runs compiled "
                                   "plans only")
        knob = re.compile(r"\buse_compiled_plan\b")
        this_file = Path(__file__).resolve()
        for sub in ("src", "tests", "bench", "examples", "tools", ".github"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix not in (".hpp", ".cpp", ".inc", ".py",
                                       ".yml", ".txt"):
                    continue
                if path.resolve() == this_file:
                    continue
                for lineno, line in enumerate(
                        path.read_text().splitlines(), 1):
                    if knob.search(line):
                        self.error(path, lineno, "serve-plan-only",
                                   "`use_compiled_plan` no longer exists — "
                                   "servers always run compiled plans")

    # ---- router-nonblocking ---------------------------------------------------

    def check_router_nonblocking(self) -> None:
        blocking = re.compile(r"\b(?:sleep_for|sleep_until|future_status)\b")
        for path in sorted((self.root / "src" / "serve").glob("router.*")):
            clean = strip_comments_and_strings(path.read_text())
            for lineno, line in enumerate(clean.splitlines(), 1):
                if blocking.search(line):
                    self.error(path, lineno, "router-nonblocking",
                               "the Router blocks no thread on a request — "
                               "react in the completion callback or post a "
                               "timer to the router's heap")
        knob = re.compile(r"\brelay_(?:threads|queue_capacity)\b")
        this_file = Path(__file__).resolve()
        for sub in ("src", "tests", "bench", "examples", "tools", ".github"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix not in (".hpp", ".cpp", ".inc", ".py",
                                       ".yml", ".txt"):
                    continue
                if path.resolve() == this_file:
                    continue
                for lineno, line in enumerate(
                        path.read_text().splitlines(), 1):
                    if knob.search(line):
                        self.error(path, lineno, "router-nonblocking",
                                   "the Router's relay pool and its knobs "
                                   "no longer exist")

    # ---- driver -------------------------------------------------------------

    def run(self) -> int:
        self.check_header_guards()
        self.check_raw_array_new()
        self.check_raw_thread()
        self.check_catch_all_swallow()
        self.check_bench_common()
        self.check_raw_log()
        self.check_taxonomy_tables()
        self.check_op_shape_validation()
        self.check_raw_mutex()
        self.check_unannotated_shared()
        self.check_plan_float_math()
        self.check_rows_libm()
        self.check_terminal_sink()
        self.check_serve_plan_only()
        self.check_router_nonblocking()
        if self.errors:
            for e in self.errors:
                print(e)
            by_rule: dict[str, int] = {}
            for e in self.errors:
                rule = e.split("[", 1)[1].split("]", 1)[0]
                by_rule[rule] = by_rule.get(rule, 0) + 1
            summary = "  ".join(f"{rule}={count}" for rule, count in
                                sorted(by_rule.items()))
            print(f"tsdx_lint: {len(self.errors)} violation(s)  [{summary}]")
            return 1
        print("tsdx_lint: clean")
        return 0


def main() -> int:
    # Default the root to this script's parent repo (not the CWD) so the
    # linter behaves identically from the repo root, a build dir, or CI.
    root = (Path(sys.argv[1]).resolve() if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent)
    if not (root / "CMakeLists.txt").exists():
        print(f"tsdx_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
