"""Span-based tracing with the fail-point cost discipline.

Every instrumented site calls :func:`span`; when tracing is disarmed that
is one module-global read and the shared no-op span is returned — the same
discipline as :func:`repro.resilience.faults.fail_point` and
:func:`repro.resilience.limits.check_tick`, and CI-bounded the same way
(``benchmarks/bench_obs_overhead.py``).

Arming is scoped::

    from repro.obs.trace import tracing

    with tracing() as tracer:
        evaluate_query(...)            # spans collect into tracer
    print(export_jsonl(tracer.spans))  # or export_chrome(...)

Parent/child nesting is tracked per thread; spans started on another
thread without an enclosing span become trace roots, still tagged with the
tracer's trace id.  While a scope is armed, :func:`current_trace_id` exposes
that id, so flight-recorder events and histogram exemplars emitted inside it
stay linkable to its spans.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Any, Iterable

__all__ = [
    "Span",
    "Tracer",
    "span",
    "tracing",
    "current_trace_id",
    "export_jsonl",
    "export_chrome",
    "is_active",
]

#: One global read decides the disarmed path; guarded by _LOCK for writers.
_ACTIVE = False
_TRACER: "Tracer | None" = None
_LOCK = threading.Lock()
_TLS = threading.local()


class Span:
    """One finished (or in-flight) span."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "attrs",
                 "start_wall", "start_mono", "duration", "pid", "tid")

    def __init__(self, trace_id: str, span_id: str, parent_id: str | None,
                 name: str, attrs: dict[str, Any]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_wall = time.time()
        self.start_mono = time.perf_counter()
        self.duration = 0.0
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start_wall,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Span {self.name} {self.duration * 1000:.3f}ms>"


class _NullSpan:
    """The shared disarmed span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None


_NULL = _NullSpan()


class _LiveSpan:
    """A context manager recording one span into a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._span = Span(
            tracer.trace_id, uuid.uuid4().hex[:16], _current_parent(), name, attrs
        )

    def __enter__(self) -> "_LiveSpan":
        _parent_stack().append(self._span.span_id)
        return self

    def __exit__(self, *exc: Any) -> None:
        stack = _parent_stack()
        if stack and stack[-1] == self._span.span_id:
            stack.pop()
        self._span.duration = time.perf_counter() - self._span.start_mono
        if exc and exc[0] is not None:
            self._span.attrs["error"] = getattr(exc[0], "__name__", str(exc[0]))
        self._tracer.add(self._span)

    def annotate(self, **attrs: Any) -> None:
        self._span.attrs.update(attrs)


def _parent_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def _current_parent() -> str | None:
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else None


class Tracer:
    """Collects spans for one trace; thread-safe appends."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def add(self, finished: Span) -> None:
        with self._lock:
            self.spans.append(finished)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tracer {self.trace_id[:8]} spans={len(self.spans)}>"


# ---------------------------------------------------------------------------
# Arming
# ---------------------------------------------------------------------------
def is_active() -> bool:
    """True when a tracer is armed in this process."""
    return _ACTIVE


def current_trace_id() -> str | None:
    """The armed tracer's trace id, or ``None`` (one global read disarmed)."""
    if not _ACTIVE:
        return None
    tracer = _TRACER
    return tracer.trace_id if tracer is not None else None


def span(name: str, **attrs: Any):
    """Start a span named ``name``; a shared no-op when tracing is disarmed.

    The returned object is a context manager with an ``annotate(**attrs)``
    method.  Cost when disarmed: one module-global read.
    """
    if not _ACTIVE:
        return _NULL
    tracer = _TRACER
    if tracer is None:
        return _NULL
    return _LiveSpan(tracer, name, attrs)


class tracing:
    """Context manager arming a (new or given) tracer process-wide."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        global _ACTIVE, _TRACER
        with _LOCK:
            self._previous = _TRACER
            _TRACER = self.tracer
            _ACTIVE = True
        return self.tracer

    def __exit__(self, *exc: Any) -> None:
        global _ACTIVE, _TRACER
        with _LOCK:
            _TRACER = self._previous
            _ACTIVE = _TRACER is not None


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------
def export_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, in span-finish order."""
    return "".join(json.dumps(s.to_dict()) + "\n" for s in spans)


def export_chrome(spans: Iterable[Span]) -> str:
    """Chrome ``trace_event`` JSON (load via ``chrome://tracing`` / Perfetto)."""
    events = []
    for s in spans:
        events.append({
            "name": s.name,
            "cat": "repro",
            "ph": "X",
            "ts": s.start_wall * 1e6,
            "dur": s.duration * 1e6,
            "pid": s.pid,
            "tid": s.tid,
            "args": dict(s.attrs, trace_id=s.trace_id, span_id=s.span_id,
                         parent_id=s.parent_id),
        })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=1)
