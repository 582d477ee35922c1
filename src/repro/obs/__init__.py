"""Unified observability: metrics, tracing, events, query log, profiling, HTTP export.

Six cooperating modules, all built on the same cost discipline as the
fault-injection layer (:mod:`repro.resilience.faults`): when nothing is
armed, an instrumentation site costs a few module-global reads.

* :mod:`repro.obs.metrics` — a thread-safe registry of labeled counters,
  gauges and histograms (histograms carry per-bucket trace exemplars).
  Every pre-existing stats surface (plan cache, views, store, codegen)
  publishes into it and the registry renders as JSON or
  Prometheus/OpenMetrics text (``repro metrics``, ``/metrics``).
* :mod:`repro.obs.trace` — span-based tracing across the whole pipeline,
  armed per scope (``with tracing():``); the armed scope's trace id tags
  events and histogram exemplars.  Exportable as JSONL or Chrome
  ``trace_event`` JSON.
* :mod:`repro.obs.events` — the flight recorder: a bounded ring of
  structured events emitted at operational decision points (IVM
  recompute fallbacks, codegen declines, limit trips, fault injections,
  slow calls, ...), dumpable via ``repro events`` or
  ``/debug/events``.  Its :class:`~repro.obs.events.Ring` (bounded,
  sequence-stamped, optional size-rotated JSONL mirror) also backs the
  query log.
* :mod:`repro.obs.qlog` — the structured query log and the one
  instrumentation scope every entry point uses: ``observe()`` wraps engine
  ``evaluate``, ``exec.batch``, store ``query``/``query_many`` and IVM
  ``apply``, owning the span, the clock, the nesting guard (one user call,
  one record) and the slow-query check.  Records are keyed by a stable
  **plan signature**, kept in a bounded ring and optionally captured to a
  size-rotated JSONL file (``REPRO_QUERY_LOG``) for ``repro replay`` /
  ``repro report``.  Slow queries (``REPRO_SLOW_QUERY_MS``) are the
  records over the threshold.  Disarmed by default — a site costs a few
  global reads.
* :mod:`repro.obs.profile` — per-operator wall time and row counts under
  all three NRC evaluators (``repro explain --analyze``).
* :mod:`repro.obs.http` — the telemetry HTTP surface: a mountable WSGI
  app plus a threaded stdlib server (``repro metrics --serve``) exposing
  ``/metrics``, ``/varz``, ``/healthz``, ``/readyz``, ``/debug/slow``,
  ``/debug/events`` and ``/debug/queries``.

Seven environment variables configure the plane: ``REPRO_EVENTS`` and
``REPRO_EVENT_LOG`` (flight recorder), ``REPRO_QLOG``, ``REPRO_QUERY_LOG``,
``REPRO_QUERY_LOG_MAX_BYTES`` and ``REPRO_QUERY_LOG_KEEP`` (query log), and
``REPRO_SLOW_QUERY_MS`` (the slow-query threshold).

Import structure: only the dependency-light modules (metrics, trace,
events) load eagerly, so hot modules anywhere in the tree — including
:mod:`repro.resilience.limits` and :mod:`repro.nrc.codegen`, which sit
*below* the profiler in the import graph — can do
``from repro.obs.events import emit`` at module scope.  ``qlog``,
``profile`` and ``http`` (the latter two pull in the NRC evaluators and the
store-facing readiness checks) resolve lazily via module ``__getattr__``.
"""

from repro.obs.events import (
    EVENT_CATALOG,
    clear_events,
    declare_event,
    emit,
    is_recording,
    recent_events,
    recording,
    refresh_event_config,
)
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    parse_prometheus,
    registry_json,
    render_prometheus,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_trace_id,
    export_chrome,
    export_jsonl,
    span,
    tracing,
)

#: Names served lazily from the heavier modules (PEP 562).
_LAZY = {
    "ProfileReport": "repro.obs.profile",
    "profile_evaluate": "repro.obs.profile",
    "profile": "repro.obs.profile",
    "TelemetryApp": "repro.obs.http",
    "TelemetryServer": "repro.obs.http",
    "start_telemetry_server": "repro.obs.http",
    "parse_serve_address": "repro.obs.http",
    "store_ready_check": "repro.obs.http",
    "plan_cache_ready_check": "repro.obs.http",
    "http": "repro.obs.http",
    "observe": "repro.obs.qlog",
    "slow_queries": "repro.obs.qlog",
    "refresh_qlog_config": "repro.obs.qlog",
    "qlog": "repro.obs.qlog",
}

__all__ = [
    "MetricsRegistry",
    "default_registry",
    "registry_json",
    "render_prometheus",
    "parse_prometheus",
    "Span",
    "Tracer",
    "span",
    "tracing",
    "current_trace_id",
    "export_jsonl",
    "export_chrome",
    "EVENT_CATALOG",
    "emit",
    "declare_event",
    "recent_events",
    "clear_events",
    "recording",
    "is_recording",
    "refresh_event_config",
    *sorted(
        name
        for name in _LAZY
        if "." not in name and name not in ("profile", "http", "qlog")
    ),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = module if name in ("profile", "http", "qlog") else getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
