"""Per-operator profiling for the three NRC evaluators.

``repro explain --analyze`` needs to answer "where does this query spend
its time" under any evaluation method, without taxing production paths.
Profiling therefore never instruments the programs a
:class:`~repro.uxquery.engine.PreparedQuery` caches — it compiles a
*separate*, instrumented program on demand:

* ``nrc`` — a :class:`ProfilingCompiler` subclass of the closure compiler
  wraps every node's runner with a timer and row counter;
* ``nrc-interp`` — the Figure 8 interpreter exposes a module-level profile
  hook (one global read per node when disarmed, the same price as its
  per-node limit check); the hook times each node by object identity
  against a pre-registered operator tree;
* ``nrc-codegen`` — source generation accepts a profiler and emits timing
  around every value-position operator plus iteration counters inside the
  fused loops; operators that codegen fuses into an enclosing loop carry
  iteration counts and are marked ``fused``.  When generation declines,
  profiling falls back to the instrumented closures — exactly the
  production fallback rule — and the report records the decline reason.

Times are *inclusive* (each operator's total includes its children, as in
``EXPLAIN ANALYZE``); the renderer derives self-time by subtracting direct
children.  Slow calls are found through the query log
(:func:`repro.obs.qlog.slow_queries`).
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.errors import UXQueryEvalError
from repro.kcollections.kset import KSet
from repro.nrc.ast import Expr
from repro.nrc.compile_eval import CompiledExpr, _Compiler

__all__ = [
    "Profiler",
    "ProfileReport",
    "ProfilingCompiler",
    "profile_evaluate",
]

_PROFILE_METHODS = ("nrc-codegen", "nrc", "nrc-interp")

_perf = time.perf_counter


def _rows(value: Any) -> int:
    return len(value._items) if value.__class__ is KSet else 1


class _Op:
    """One operator node in the profile tree."""

    __slots__ = ("index", "kind", "detail", "fused", "children")

    def __init__(self, index: int, kind: str, detail: str, fused: bool):
        self.index = index
        self.kind = kind
        self.detail = detail
        self.fused = fused
        self.children: list["_Op"] = []


class Profiler:
    """Collects per-operator calls / rows / inclusive wall time.

    Operators are registered during (instrumented) compilation or by a
    pre-walk of the AST; runtime hooks address them by integer index, so
    recording is two list writes and an add.
    """

    def __init__(self):
        self.ops: list[_Op] = []
        self.calls: list[int] = []
        self.rows: list[int] = []
        self.times: list[float] = []
        self.roots: list[_Op] = []
        self._stack: list[_Op] = []
        self._by_id: dict[int, int] = {}

    # ---------------------------------------------------------- registration
    def open_op(self, expr: Expr, fused: bool = False) -> _Op:
        detail = str(expr)
        if len(detail) > 48:
            detail = detail[:45] + "..."
        op = _Op(len(self.ops), type(expr).__name__, detail, fused)
        self.ops.append(op)
        self.calls.append(0)
        self.rows.append(0)
        self.times.append(0.0)
        self._by_id.setdefault(id(expr), op.index)
        if self._stack:
            self._stack[-1].children.append(op)
        else:
            self.roots.append(op)
        self._stack.append(op)
        return op

    def close_op(self) -> None:
        self._stack.pop()

    def register_tree(self, expr: Expr) -> None:
        """Pre-register the whole AST (used by the interpreter hook)."""
        self.open_op(expr)
        for child in expr.children():
            self.register_tree(child)
        self.close_op()

    def index_of(self, expr: Expr) -> int | None:
        return self._by_id.get(id(expr))

    # --------------------------------------------------------------- runtime
    def record(self, index: int, elapsed: float, rows: int) -> None:
        self.calls[index] += 1
        self.times[index] += elapsed
        self.rows[index] += rows

    def count(self, index: int) -> None:
        self.calls[index] += 1


class ProfilingCompiler(_Compiler):
    """The closure compiler with every runner wrapped in a timer."""

    def __init__(self, semiring, profiler: Profiler):
        super().__init__(semiring)
        self._profiler = profiler

    def compile(self, expr: Expr):
        profiler = self._profiler
        op = profiler.open_op(expr)
        try:
            run = super(ProfilingCompiler, self).compile(expr)
        finally:
            profiler.close_op()
        index = op.index
        record = profiler.record

        def profiled(frame: list) -> Any:
            started = _perf()
            value = run(frame)
            record(index, _perf() - started, _rows(value))
            return value

        return profiled


def compile_profiled(expr: Expr, semiring) -> tuple[CompiledExpr, Profiler]:
    """Closure-compile ``expr`` with profiling instrumentation."""
    profiler = Profiler()
    compiler = ProfilingCompiler(semiring, profiler)
    run = compiler.compile(expr)
    return (
        CompiledExpr(expr, semiring, run, compiler.free_slots, compiler.num_slots),
        profiler,
    )


class ProfileReport:
    """The analyzed operator tree for one profiled evaluation."""

    def __init__(self, method: str, profiler: Profiler, total_s: float,
                 generated: bool = False, fallback_reason: str | None = None):
        self.method = method
        self.profiler = profiler
        self.total_s = total_s
        self.generated = generated
        self.fallback_reason = fallback_reason

    # ---------------------------------------------------------------- export
    def to_dict(self) -> dict[str, Any]:
        profiler = self.profiler

        def node(op: _Op) -> dict[str, Any]:
            return {
                "op": op.kind,
                "detail": op.detail,
                "calls": profiler.calls[op.index],
                "rows": profiler.rows[op.index],
                "time_ms": profiler.times[op.index] * 1000.0,
                "fused": op.fused,
                "children": [node(child) for child in op.children],
            }

        return {
            "method": self.method,
            "total_ms": self.total_s * 1000.0,
            "generated": self.generated,
            "fallback_reason": self.fallback_reason,
            "operators": [node(root) for root in profiler.roots],
        }

    def render(self) -> str:
        profiler = self.profiler
        lines = [
            f"operator profile (method={self.method}, "
            f"total {self.total_s * 1000.0:.3f} ms)"
        ]
        if self.method == "nrc-codegen":
            if self.generated:
                lines.append("codegen: generated (fused operators carry "
                             "iteration counts, no own timer)")
            else:
                lines.append(f"codegen: declined ({self.fallback_reason}); "
                             "profiled the closure fallback")

        def walk(op: _Op, depth: int) -> None:
            indent = "  " * depth
            label = f"{indent}{op.kind}  {op.detail}"
            calls = profiler.calls[op.index]
            if op.fused:
                stats = f"iters={calls}  [fused]"
            else:
                time_ms = profiler.times[op.index] * 1000.0
                child_ms = sum(
                    profiler.times[c.index] * 1000.0
                    for c in op.children if not c.fused
                )
                self_ms = max(0.0, time_ms - child_ms)
                stats = (
                    f"time={time_ms:.3f}ms  self={self_ms:.3f}ms  "
                    f"calls={calls}  rows={profiler.rows[op.index]}"
                )
            lines.append(f"{label:<56} {stats}")
            for child in op.children:
                walk(child, depth + 1)

        for root in profiler.roots:
            walk(root, 1)
        return "\n".join(lines)


def profile_evaluate(prepared: Any, env: Mapping[str, Any] | None = None,
                     method: str = "nrc-codegen") -> tuple[Any, ProfileReport]:
    """Evaluate ``prepared`` under ``method`` with per-operator profiling.

    Compiles a separate instrumented program (the prepared query's cached
    programs are untouched); returns ``(result, report)``.
    """
    if method not in _PROFILE_METHODS:
        valid = ", ".join(repr(name) for name in _PROFILE_METHODS)
        raise UXQueryEvalError(
            f"cannot profile method {method!r}; profiling methods: {valid}"
        )
    semiring = prepared.semiring

    if method == "nrc-interp":
        from repro.nrc import eval as interp

        profiler = Profiler()
        profiler.register_tree(prepared.nrc)
        started = _perf()
        with interp.profiling(profiler):
            result = interp.evaluate(
                prepared.nrc, semiring, dict(env) if env else {}
            )
        return result, ProfileReport(method, profiler, _perf() - started)

    if method == "nrc":
        program, profiler = compile_profiled(prepared.nrc_simplified, semiring)
        started = _perf()
        result = program.evaluate(env)
        return result, ProfileReport(method, profiler, _perf() - started)

    # nrc-codegen: instrumented source generation, closure fallback on decline
    from repro.nrc.codegen import CodegenUnsupported, compile_codegen

    profiler = Profiler()
    try:
        program = compile_codegen(
            prepared.nrc_simplified, semiring, profile=profiler
        )
    except CodegenUnsupported as declined:
        fallback, profiler = compile_profiled(prepared.nrc_simplified, semiring)
        started = _perf()
        result = fallback.evaluate(env)
        return result, ProfileReport(
            method, profiler, _perf() - started,
            generated=False, fallback_reason=str(declined),
        )
    program.fallback = prepared.compiled
    started = _perf()
    result = program.evaluate(env)
    return result, ProfileReport(
        method, profiler, _perf() - started, generated=True
    )

