"""Structured query log: one record per user-level call, keyed by a stable plan signature.

Every entry point — engine :meth:`~repro.uxquery.engine.PreparedQuery.evaluate`,
:meth:`~repro.exec.batch.BatchEvaluator.evaluate_many`, the store's
``query``/``query_many`` and IVM :meth:`~repro.ivm.view.MaterializedView.apply`
— wraps its work in one :func:`observe` scope::

    with observe("store.query", prepared, doc=doc_id) as obs:
        result = ...
        return obs.done(result, method="nrc-codegen", plan=plan, pushdown=how)

The scope owns the site's span, the clock pair, the thread-local nesting
guard (only the outermost scope in a thread records, so one user call
yields exactly one record), the query-log record and the slow-query check.
A call that raises records nothing.  Each record's ``method`` names what
served the call: ``index`` for a full pushdown, ``nrc`` when codegen
declined, the requested evaluator otherwise, and ``ivm-incremental`` /
``ivm-recompute`` for view maintenance; ``codegen`` is true exactly when
``method`` is ``nrc-codegen``.

Records land in a bounded ring (the :class:`~repro.obs.events.Ring` the
flight recorder uses too) and, when capture is armed, a size-rotated JSONL
file that ``repro replay`` can re-run and ``repro report`` can aggregate
offline.  Records are keyed by the **plan signature**
(:func:`repro.uxquery.engine.plan_signature`): a stable hash of the
simplified NRC form, the semiring name and the env types, computed once per
plan, when first read.  Equal plans hash equally across processes, so per-signature
aggregations (latency histograms, the ``/debug/queries`` endpoint, the
capture-vs-replay report) line up between a capture run, its replay, and a
scraped production process.

**Slow queries** are a view of the same stream.  With
``REPRO_SLOW_QUERY_MS`` set, a user-level call at or over the threshold is
recorded even while the log is off, bumps ``repro_slow_queries_total`` and
emits one ``query.slow`` event; :func:`slow_queries` (``/debug/slow``) lists
the ring's records over the threshold.  :func:`observe` re-reads the
threshold (and only the threshold) from the environment every 1024 calls,
so a long-lived process can arm it without a restart.

Cost discipline (the ``fail_point`` contract): the log is **disarmed by
default**, and a disarmed :func:`observe` costs a few module-global reads
and never reads the clock.  Arming:

* ``REPRO_QUERY_LOG=FILE`` — ring + per-signature metrics + JSONL capture
  (records gain a ``digest`` so replay can verify results);
* ``REPRO_QLOG=on`` — ring + per-signature metrics, no file;
* :func:`set_recording` / the :func:`recording` context manager.

``REPRO_QUERY_LOG_MAX_BYTES`` (default 64 MiB) bounds the capture file —
it rotates to ``FILE.1``, ``FILE.2``, ... keeping
``REPRO_QUERY_LOG_KEEP`` generations (default 1).  Per-signature metric
cardinality is bounded: the first :data:`SIGNATURE_LIMIT` distinct
signatures get their own histogram series, the rest share ``other``.

Import-weight note: this module depends only on :mod:`repro.obs.metrics`,
:mod:`repro.obs.trace` and :mod:`repro.obs.events`, so the engine can
import it at module level without cycles.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from time import perf_counter as _perf
from typing import Any, Iterable, Iterator, Mapping

from repro.obs import trace as _trace
from repro.obs.events import Ring, emit, export_jsonl
from repro.obs.metrics import LATENCY_BUCKETS, default_registry

__all__ = [
    "RECORD_VERSION",
    "OTHER_SIGNATURE",
    "SIGNATURE_LIMIT",
    "observe",
    "record",
    "recent_records",
    "clear_records",
    "slow_queries",
    "slow_query_ms",
    "export_jsonl",
    "result_digest",
    "is_recording",
    "set_recording",
    "recording",
    "ring_capacity",
    "set_ring_capacity",
    "capture_path",
    "signature_stats",
    "clear_signature_stats",
    "aggregate_records",
    "render_report",
    "render_compare_report",
    "refresh_qlog_config",
    "ENV_QLOG",
    "ENV_QLOG_FILE",
    "ENV_QLOG_MAX_BYTES",
    "ENV_QLOG_KEEP",
    "ENV_SLOW_MS",
]

ENV_QLOG = "REPRO_QLOG"
ENV_QLOG_FILE = "REPRO_QUERY_LOG"
ENV_QLOG_MAX_BYTES = "REPRO_QUERY_LOG_MAX_BYTES"
ENV_QLOG_KEEP = "REPRO_QUERY_LOG_KEEP"
ENV_SLOW_MS = "REPRO_SLOW_QUERY_MS"

RECORD_VERSION = 1
DEFAULT_RING_CAPACITY = 1024
DEFAULT_MAX_BYTES = 64 * 1024 * 1024
DEFAULT_KEEP = 1

#: Distinct signatures admitted to their own metric series; the rest share
#: the ``other`` bucket so per-request query texts cannot blow up the
#: registry's label cardinality.
SIGNATURE_LIMIT = 32
OTHER_SIGNATURE = "other"

#: The disarmed path of :func:`observe` reads these two globals (plus the
#: tracer's) and nothing else.
_RECORDING = False
_SLOW_MS: float | None = None
_RING = Ring(DEFAULT_RING_CAPACITY)

#: :func:`observe` re-reads ``REPRO_SLOW_QUERY_MS`` about every this-many
#: calls.  The probe is a plain integer bump (the benign race on it only
#: changes *when* a re-read happens); the env read is a dict lookup.
_REFRESH_EVERY = 1024
_probe = 0

#: The sites that own a span named after their op; the batch site is
#: covered by its fan-out span.
_SPAN_SITES = frozenset({"evaluate", "store.query", "store.query_many", "ivm.apply"})

_TRUTHY = ("on", "1", "true", "yes")
_FALSY = ("off", "0", "false", "no")

_REGISTRY = default_registry()
_RECORD_COUNTER = _REGISTRY.counter(
    "repro_qlog_records_total", "Query-log records by operation"
)
_SLOW_COUNTER = _REGISTRY.counter(
    "repro_slow_queries_total",
    "User-level calls at or over the REPRO_SLOW_QUERY_MS threshold",
)
#: Per-signature latency distribution on the sub-millisecond preset:
#: DEFAULT_BUCKETS starts at 1ms while the hot path runs ~100us, which
#: would land every evaluation in the first bucket.
_QUERY_LATENCY = _REGISTRY.histogram(
    "repro_query_latency_seconds",
    "Evaluation latency by plan signature (bounded cardinality; overflow "
    "signatures share the 'other' series)",
    buckets=LATENCY_BUCKETS,
)

#: Cumulative per-signature accounting behind /debug/queries: bucket counts
#: on LATENCY_BUCKETS (p95 reads the bucket upper bounds), total/max, and a
#: sample of the query text.  Bounded by SIGNATURE_LIMIT + the other bucket.
_SIG_STATS: dict[str, dict[str, Any]] = {}
_SIG_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# observe(): the one instrumentation scope every entry point uses
# ---------------------------------------------------------------------------
class _Nesting(threading.local):
    depth = 0


_NESTING = _Nesting()


class _Disarmed:
    """The shared scope :func:`observe` returns when nothing is armed."""

    __slots__ = ()

    def __enter__(self) -> "_Disarmed":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    def done(self, result: Any, method: str, plan: Any = None, **fields: Any) -> Any:
        return result


_DISARMED = _Disarmed()


class _Observation:
    """One armed :func:`observe` scope."""

    __slots__ = ("op", "prepared", "fields", "_span", "_outer", "_started", "_outcome")

    def __init__(self, op: str, prepared: Any, fields: dict[str, Any]):
        self.op = op
        self.prepared = prepared
        self.fields = fields
        self._span = _trace.span(op, **fields) if op in _SPAN_SITES else _trace._NULL
        self._outcome: tuple | None = None

    def __enter__(self) -> "_Observation":
        self._span.__enter__()
        self._outer = _NESTING.depth == 0
        _NESTING.depth += 1
        self._started = _perf()
        return self

    def annotate(self, **attrs: Any) -> None:
        """Add attributes to the site's span."""
        self._span.annotate(**attrs)

    def done(self, result: Any, method: str, plan: Any = None, **fields: Any) -> Any:
        """Stamp the call's outcome and return ``result``.

        ``method`` names what served the call; ``"nrc-codegen"`` becomes
        ``"nrc"`` when ``plan`` (default: the observed plan) declined
        codegen.  ``fields`` add store/IVM fields to the record.  Only the
        outermost scope keeps its outcome; the record is written when the
        scope exits without an exception.
        """
        if self._outer:
            self._outcome = (result, method, plan, fields)
        return result

    def __exit__(self, *exc: Any) -> None:
        seconds = _perf() - self._started
        _NESTING.depth -= 1
        self._span.__exit__(*exc)
        if self._outcome is not None and exc[0] is None:
            _finish(self, seconds)


def observe(op: str, prepared: Any, **fields: Any) -> _Observation | _Disarmed:
    """The instrumentation scope of one entry-point call.

    ``op`` names the site (``evaluate``, ``exec.batch``, ``store.query``,
    ``store.query_many``, ``ivm.apply``) and ``prepared`` the plan it
    serves; ``fields`` label both the site's span and its record.  Use as
    ``with observe(...) as obs:`` and finish with ``obs.done(result,
    method=...)``.  Disarmed — no query log, no slow-query threshold, no
    tracer — it returns a shared no-op after a few global reads.
    """
    global _probe, _SLOW_MS
    _probe += 1
    if _probe >= _REFRESH_EVERY:
        _probe = 0
        _SLOW_MS = _threshold(os.environ)
    if _RECORDING or _SLOW_MS is not None or _trace._ACTIVE:
        return _Observation(op, prepared, fields)
    return _DISARMED


def _finish(scope: _Observation, seconds: float) -> None:
    """Write the outermost scope's record if the log is on or it was slow."""
    result, method, plan, fields = scope._outcome
    threshold = _SLOW_MS
    slow = threshold is not None and seconds * 1000.0 >= threshold
    if not (_RECORDING or slow):
        return
    if plan is None:
        plan = scope.prepared
    if method == "nrc-codegen" and getattr(plan, "generated", None) is None:
        method = "nrc"
    entry = _append(
        scope.prepared, scope.op, method, seconds, result, {**scope.fields, **fields}
    )
    if slow:
        _SLOW_COUNTER.inc()
        emit(
            "query.slow",
            op=scope.op,
            duration_ms=entry["ms"],
            method=method,
            semiring=entry["semiring"],
            sig=entry["sig"],
        )


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------
def _count_rows(value: Any) -> int:
    """Result cardinality: K-set member count, list length, else 1."""
    items = getattr(value, "_items", None)
    if items is not None:
        return len(items)
    if isinstance(value, list):
        return len(value)
    return 1


def result_digest(value: Any) -> str:
    """A deterministic, order-independent digest of an evaluation result.

    K-sets hash as the sorted multiset of ``tree -> annotation`` lines with
    annotations rendered by the semiring's canonical ``repr_element``
    (monomials, witnesses and lattice sets come out sorted — so the digest
    is stable across processes and hash seeds, where a raw ``str()`` of a
    frozenset-valued annotation would not be); lists (batch results) hash
    the sequence of per-element digests; everything else hashes its ``str``.
    """
    hasher = hashlib.sha256()
    items = getattr(value, "_items", None)
    if items is not None:
        repr_element = value.semiring.repr_element
        for line in sorted(
            f"{tree}\x1f{repr_element(annotation)}"
            for tree, annotation in value.items()
        ):
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
    elif isinstance(value, list):
        for element in value:
            hasher.update(result_digest(element).encode("ascii"))
            hasher.update(b"\n")
    else:
        hasher.update(str(value).encode("utf-8"))
    return hasher.hexdigest()[:32]


def _signature_label(signature: str) -> str:
    """``signature`` if admitted under the cardinality bound, else ``other``."""
    if signature in _SIG_STATS:
        return signature
    if len(_SIG_STATS) < SIGNATURE_LIMIT:
        return signature
    return OTHER_SIGNATURE


def _account(signature: str, query: str, op: str, seconds: float, rows: int) -> str:
    with _SIG_LOCK:
        label = _signature_label(signature)
        state = _SIG_STATS.get(label)
        if state is None:
            state = _SIG_STATS[label] = {
                "signature": label,
                "query": query if label != OTHER_SIGNATURE else None,
                "count": 0,
                "total_s": 0.0,
                "max_s": 0.0,
                "rows": 0,
                "buckets": [0] * (len(LATENCY_BUCKETS) + 1),
                "ops": {},
            }
        state["count"] += 1
        state["total_s"] += seconds
        state["max_s"] = max(state["max_s"], seconds)
        state["rows"] += rows
        state["ops"][op] = state["ops"].get(op, 0) + 1
        index = len(LATENCY_BUCKETS)
        for position, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                index = position
                break
        state["buckets"][index] += 1
    return label


def record(
    prepared: Any,
    op: str,
    method: str,
    seconds: float,
    *,
    result: Any = None,
    **fields: Any,
) -> dict[str, Any] | None:
    """Append one query-log record directly; returns it (``None`` when disarmed).

    Entry points go through :func:`observe`; this is the raw append for
    tools and tests.  ``prepared`` supplies the signature, query text,
    semiring and env types; ``fields`` (``pushdown``, ``store``, ``doc``,
    ``docs``, ``var``, ``merge``, ...) are added when not ``None``.
    """
    if not _RECORDING:
        return None
    return _append(prepared, op, method, seconds, result, fields)


def _append(
    prepared: Any,
    op: str,
    method: str,
    seconds: float,
    result: Any,
    fields: Mapping[str, Any],
) -> dict[str, Any]:
    signature = getattr(prepared, "signature", None) or ""
    query_text = str(getattr(prepared, "surface", ""))
    rows = _count_rows(result) if result is not None else 0
    entry: dict[str, Any] = {
        "v": RECORD_VERSION,
        "ts": time.time(),
        "sig": signature,
        "q": query_text,
        "semiring": prepared.semiring.name,
        "env_types": dict(getattr(prepared, "env_types", {}) or {}),
        "op": op,
        "method": method,
        "ms": seconds * 1000.0,
        "rows": rows,
        "cache_hit": bool(getattr(prepared, "_plan_cache_hit", False)),
        "codegen": method == "nrc-codegen",
        "trace_id": _trace.current_trace_id(),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    for name, value in fields.items():
        # Site fields extend the record; they never replace a core key
        # (the ``evaluate`` span's requested ``method`` is not the served one).
        if value is not None and name not in entry:
            entry[name] = value
    if _RING.path and result is not None:
        # Digests are computed only when capture is armed: replay needs
        # them, the in-memory ring does not pay for them.
        entry["digest"] = result_digest(result)
    _RING.append(entry)
    label = _account(signature, query_text, op, seconds, rows)
    _RECORD_COUNTER.inc(op=op)
    _QUERY_LATENCY.observe(seconds, signature=label)
    return entry


def recent_records(
    op: str | None = None, limit: int | None = None
) -> list[dict[str, Any]]:
    """A snapshot of the ring, oldest first (optionally filtered/tailed)."""
    return _RING.recent(limit, None if op is None else lambda entry: entry["op"] == op)


def clear_records() -> None:
    _RING.clear()


def slow_queries(limit: int | None = None) -> list[dict[str, Any]]:
    """The ring's records at or over the slow-query threshold, oldest first
    (none while the threshold is unset)."""
    threshold = _SLOW_MS
    if threshold is None:
        return []
    return _RING.recent(limit, lambda entry: entry["ms"] >= threshold)


def slow_query_ms() -> float | None:
    """The armed slow-query threshold (ms), or ``None``."""
    return _SLOW_MS


# ---------------------------------------------------------------------------
# Per-signature accounting
# ---------------------------------------------------------------------------
def _bucket_quantile(buckets: list[int], quantile: float) -> float:
    """The latency quantile estimate from cumulative LATENCY_BUCKETS counts."""
    total = sum(buckets)
    if not total:
        return 0.0
    rank = quantile * total
    seen = 0
    for index, count in enumerate(buckets):
        seen += count
        if seen >= rank:
            if index < len(LATENCY_BUCKETS):
                return LATENCY_BUCKETS[index]
            return LATENCY_BUCKETS[-1]  # +Inf bucket: report the top bound
    return LATENCY_BUCKETS[-1]


def signature_stats(
    sort: str = "total", limit: int | None = None
) -> list[dict[str, Any]]:
    """Cumulative per-signature summaries, ``sort`` in count/total/p95.

    Each entry carries count, total/mean/max/p95 latency (ms), row totals
    and the per-op breakdown; this is the live view ``/debug/queries``
    serves (offline aggregation of a capture file goes through
    :func:`aggregate_records` instead).
    """
    with _SIG_LOCK:
        states = [dict(state, buckets=list(state["buckets"])) for state in _SIG_STATS.values()]
    entries = []
    for state in states:
        count = state["count"]
        entries.append(
            {
                "signature": state["signature"],
                "query": state["query"],
                "count": count,
                "total_ms": state["total_s"] * 1000.0,
                "mean_ms": state["total_s"] / count * 1000.0 if count else 0.0,
                "max_ms": state["max_s"] * 1000.0,
                "p95_ms": _bucket_quantile(state["buckets"], 0.95) * 1000.0,
                "rows": state["rows"],
                "ops": dict(state["ops"]),
            }
        )
    keys = {
        "count": lambda e: e["count"],
        "total": lambda e: e["total_ms"],
        "p95": lambda e: e["p95_ms"],
    }
    entries.sort(key=keys.get(sort, keys["total"]), reverse=True)
    if limit is not None and limit >= 0:
        entries = entries[:limit]
    return entries


def clear_signature_stats() -> None:
    with _SIG_LOCK:
        _SIG_STATS.clear()


# ---------------------------------------------------------------------------
# Offline aggregation (repro report / replay)
# ---------------------------------------------------------------------------
def _exact_quantile(values: list[float], quantile: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(quantile * (len(ordered) - 1)))))
    return ordered[rank]


def aggregate_records(records: Iterable[Mapping[str, Any]]) -> dict[str, dict[str, Any]]:
    """Group capture records by signature with exact latency quantiles.

    Offline we hold every raw latency, so p50/p95 are exact rather than
    bucket-bounded.  Returns ``{signature: summary}``.
    """
    groups: dict[str, dict[str, Any]] = {}
    for entry in records:
        signature = entry.get("sig") or ""
        group = groups.get(signature)
        if group is None:
            group = groups[signature] = {
                "signature": signature,
                "query": entry.get("q"),
                "semiring": entry.get("semiring"),
                "count": 0,
                "rows": 0,
                "ops": {},
                "latencies_ms": [],
            }
        group["count"] += 1
        group["rows"] += int(entry.get("rows") or 0)
        op = entry.get("op") or "?"
        group["ops"][op] = group["ops"].get(op, 0) + 1
        group["latencies_ms"].append(float(entry.get("ms") or 0.0))
    for group in groups.values():
        latencies = group.pop("latencies_ms")
        group["total_ms"] = sum(latencies)
        group["mean_ms"] = group["total_ms"] / len(latencies) if latencies else 0.0
        group["p50_ms"] = _exact_quantile(latencies, 0.50)
        group["p95_ms"] = _exact_quantile(latencies, 0.95)
        group["max_ms"] = max(latencies) if latencies else 0.0
    return groups


def _short_query(text: Any, width: int = 40) -> str:
    rendered = str(text or "")
    return rendered if len(rendered) <= width else rendered[: width - 3] + "..."


def render_report(
    aggregate: Mapping[str, Mapping[str, Any]],
    sort: str = "total",
    limit: int | None = None,
) -> str:
    """A per-signature latency table for one aggregation (``repro report``)."""
    keys = {
        "count": lambda e: e["count"],
        "total": lambda e: e["total_ms"],
        "p95": lambda e: e["p95_ms"],
    }
    entries = sorted(
        aggregate.values(), key=keys.get(sort, keys["total"]), reverse=True
    )
    if limit is not None and limit >= 0:
        entries = entries[:limit]
    lines = [
        f"{'signature':16s}  {'count':>6s}  {'total-ms':>9s}  {'mean-ms':>8s}  "
        f"{'p95-ms':>8s}  query"
    ]
    for entry in entries:
        lines.append(
            f"{entry['signature'][:16]:16s}  {entry['count']:6d}  "
            f"{entry['total_ms']:9.2f}  {entry['mean_ms']:8.3f}  "
            f"{entry['p95_ms']:8.3f}  {_short_query(entry.get('query'))}"
        )
    return "\n".join(lines)


def render_compare_report(
    captured: Mapping[str, Mapping[str, Any]],
    replayed: Mapping[str, Mapping[str, Any]],
) -> str:
    """The capture-vs-replay latency table (``repro replay``), by signature."""
    lines = [
        f"{'signature':16s}  {'count':>6s}  {'capture-mean':>12s}  "
        f"{'replay-mean':>11s}  {'ratio':>6s}  {'cap-p95':>8s}  {'rep-p95':>8s}  query"
    ]
    signatures = sorted(
        set(captured) | set(replayed),
        key=lambda s: -(captured.get(s, {}).get("total_ms", 0.0)),
    )
    for signature in signatures:
        cap = captured.get(signature)
        rep = replayed.get(signature)
        cap_mean = cap["mean_ms"] if cap else 0.0
        rep_mean = rep["mean_ms"] if rep else 0.0
        ratio = rep_mean / cap_mean if cap_mean else float("inf") if rep_mean else 0.0
        source = cap or rep or {}
        lines.append(
            f"{signature[:16]:16s}  {(cap or rep or {}).get('count', 0):6d}  "
            f"{cap_mean:12.3f}  {rep_mean:11.3f}  {ratio:6.2f}  "
            f"{(cap['p95_ms'] if cap else 0.0):8.3f}  "
            f"{(rep['p95_ms'] if rep else 0.0):8.3f}  "
            f"{_short_query(source.get('query'))}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
def is_recording() -> bool:
    return _RECORDING


def set_recording(enabled: bool) -> bool:
    """Enable/disable the recorder; returns the previous state."""
    global _RECORDING
    previous = _RECORDING
    _RECORDING = bool(enabled)
    return previous


@contextmanager
def recording(enabled: bool = True) -> Iterator[None]:
    """Scoped recorder toggle (tests force-arm, benchmarks force-disarm)."""
    previous = set_recording(enabled)
    try:
        yield
    finally:
        set_recording(previous)


def ring_capacity() -> int:
    return _RING.capacity


def set_ring_capacity(capacity: int) -> None:
    """Resize the ring, preserving the newest records that still fit."""
    _RING.resize(capacity)


def capture_path() -> str | None:
    """The armed JSONL capture file, or ``None``."""
    return _RING.path


def _threshold(environ: Mapping[str, str]) -> float | None:
    raw = (environ.get(ENV_SLOW_MS) or "").strip()
    try:
        return float(raw) if raw else None
    except ValueError:
        return None


def _int_env(environ: Mapping[str, str], name: str, default: int) -> int:
    try:
        return int(environ.get(name) or default)
    except ValueError:
        return default


def refresh_qlog_config(environ: Mapping[str, str] | None = None) -> None:
    """(Re-)read the query-log and slow-query env vars; call after mutating
    ``os.environ`` (the telemetry server and the replay/report/follow
    long-runners do)."""
    global _RECORDING, _SLOW_MS
    environ = environ if environ is not None else os.environ
    raw = (environ.get(ENV_QLOG) or "").strip().lower()
    path = environ.get(ENV_QLOG_FILE) or None
    _RECORDING = raw not in _FALSY and (raw in _TRUTHY or path is not None)
    _RING.path = path if _RECORDING else None
    _RING.max_bytes = _int_env(environ, ENV_QLOG_MAX_BYTES, DEFAULT_MAX_BYTES)
    _RING.keep = _int_env(environ, ENV_QLOG_KEEP, DEFAULT_KEEP)
    _SLOW_MS = _threshold(environ)


refresh_qlog_config()
