"""The telemetry HTTP surface: ``/metrics``, ``/varz``, health probes, debug views.

The mount point ROADMAP item 1 (``repro.serve``) plans for: a *WSGI
application* (:class:`TelemetryApp`) that any WSGI-capable front-end can
mount, plus a batteries-included threaded stdlib server
(:func:`start_telemetry_server`, ``repro metrics --serve``) for running it
standalone.  Endpoints:

==================  ========================================================
``/metrics``        Prometheus text exposition (``render_prometheus``),
                    exemplars included
``/varz``           the registry snapshot as JSON (``registry_json``)
``/healthz``        liveness: 200 as long as the process serves requests
``/readyz``         readiness: 200 only when every registered check passes
                    (store recovered, plan cache warm, ...), 503 otherwise,
                    with a per-check JSON report either way
``/debug/slow``     the query-log records at or over ``REPRO_SLOW_QUERY_MS``
                    (:func:`repro.obs.qlog.slow_queries`) and the threshold;
                    ``?limit=``/``?format=jsonl`` supported
``/debug/events``   the flight-recorder ring (:mod:`repro.obs.events`);
                    ``?kind=``/``?limit=``/``?format=jsonl`` supported
``/debug/queries``  per-plan-signature latency accounting
                    (:func:`repro.obs.qlog.signature_stats`);
                    ``?sort=count|total|p95``/``?limit=``/``?format=jsonl``
==================  ========================================================

Readiness checks are plain callables returning ``bool`` or
``(bool, detail)``; :func:`store_ready_check`,
:func:`store_integrity_check` and :func:`plan_cache_ready_check` build the
standard ones.  Starting the server re-reads the event-log and query-log
environment configuration (``refresh_event_config``/``refresh_qlog_config``,
the slow-query threshold included) so a long-lived process can arm its
diagnostics at mount time without restarting.
"""

from __future__ import annotations

import json
import socketserver
import threading
from typing import Any, Callable, Iterable, Mapping
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro.obs import events as _events
from repro.obs import qlog as _qlog
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    registry_json,
    render_prometheus,
)

__all__ = [
    "TelemetryApp",
    "TelemetryServer",
    "start_telemetry_server",
    "parse_serve_address",
    "store_ready_check",
    "store_integrity_check",
    "plan_cache_ready_check",
    "PROMETHEUS_CONTENT_TYPE",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON = "application/json; charset=utf-8"
_TEXT = "text/plain; charset=utf-8"
_JSONL = "application/x-ndjson; charset=utf-8"

ENDPOINTS = (
    "/metrics",
    "/varz",
    "/healthz",
    "/readyz",
    "/debug/slow",
    "/debug/events",
    "/debug/queries",
)


def _json_body(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


def _int_param(query: Mapping[str, list[str]], name: str) -> int | None:
    values = query.get(name)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        return None


class TelemetryApp:
    """A mountable WSGI application over one metrics registry.

    ``repro.serve`` will mount this under its own routing; the standalone
    server below is just ``make_server(host, port, app)``.  GET/HEAD only —
    every endpoint is a read.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else default_registry()
        self._checks: dict[str, Callable[[], Any]] = {}
        self._lock = threading.Lock()

    # ----------------------------------------------------------- readiness
    def add_readiness_check(self, name: str, check: Callable[[], Any]) -> None:
        """Register (or replace) a readiness check.

        ``check()`` returns ``bool`` or ``(bool, detail)``; an exception
        counts as not-ready with the exception text as detail.
        """
        with self._lock:
            self._checks[name] = check

    def remove_readiness_check(self, name: str) -> None:
        with self._lock:
            self._checks.pop(name, None)

    def readiness(self) -> tuple[bool, dict[str, dict[str, Any]]]:
        """Run every registered check; ready only if all pass."""
        with self._lock:
            checks = list(self._checks.items())
        report: dict[str, dict[str, Any]] = {}
        ready = True
        for name, check in checks:
            try:
                verdict = check()
            except Exception as error:  # a broken check means "not ready"
                verdict = (False, f"{type(error).__name__}: {error}")
            if isinstance(verdict, tuple):
                ok, detail = verdict
            else:
                ok, detail = bool(verdict), ""
            report[name] = {"ok": bool(ok), "detail": str(detail)}
            ready = ready and bool(ok)
        return ready, report

    # ---------------------------------------------------------------- WSGI
    def __call__(self, environ: Mapping[str, Any], start_response) -> Iterable[bytes]:
        method = (environ.get("REQUEST_METHOD") or "GET").upper()
        path = environ.get("PATH_INFO") or "/"
        query = parse_qs(environ.get("QUERY_STRING") or "")
        if method not in ("GET", "HEAD"):
            status, content_type, body = (
                "405 Method Not Allowed",
                _TEXT,
                "telemetry endpoints are read-only (GET/HEAD)\n",
            )
        else:
            try:
                status, content_type, body = self._route(path, query)
            except Exception as error:  # a handler bug must not kill the server
                status = "500 Internal Server Error"
                content_type = _JSON
                body = _json_body({"error": f"{type(error).__name__}: {error}"})
        payload = b"" if method == "HEAD" else body.encode("utf-8")
        start_response(
            status,
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(payload))),
                ("Cache-Control", "no-store"),
            ],
        )
        return [payload]

    def _route(self, path: str, query: Mapping[str, list[str]]) -> tuple[str, str, str]:
        if path == "/metrics":
            return "200 OK", PROMETHEUS_CONTENT_TYPE, render_prometheus(self.registry)
        if path == "/varz":
            return "200 OK", _JSON, _json_body(registry_json(self.registry))
        if path == "/healthz":
            return "200 OK", _TEXT, "ok\n"
        if path == "/readyz":
            ready, checks = self.readiness()
            status = "200 OK" if ready else "503 Service Unavailable"
            return status, _JSON, _json_body({"ready": ready, "checks": checks})
        if path == "/debug/slow":
            entries = _qlog.slow_queries(limit=_int_param(query, "limit"))
            if (query.get("format") or ["json"])[0] == "jsonl":
                return "200 OK", _JSONL, _qlog.export_jsonl(entries)
            return "200 OK", _JSON, _json_body(
                {"threshold_ms": _qlog.slow_query_ms(), "slow_queries": entries}
            )
        if path == "/debug/events":
            kind = (query.get("kind") or [None])[0]
            entries = _events.recent_events(kind=kind, limit=_int_param(query, "limit"))
            if (query.get("format") or ["json"])[0] == "jsonl":
                return "200 OK", _JSONL, _events.export_jsonl(entries)
            return "200 OK", _JSON, _json_body(
                {"recording": _events.is_recording(), "events": entries}
            )
        if path == "/debug/queries":
            sort = (query.get("sort") or ["total"])[0]
            limit = _int_param(query, "limit")
            stats = _qlog.signature_stats(
                sort=sort, limit=limit if limit is not None else 20
            )
            if (query.get("format") or ["json"])[0] == "jsonl":
                return "200 OK", _JSONL, _qlog.export_jsonl(stats)
            return "200 OK", _JSON, _json_body(
                {
                    "recording": _qlog.is_recording(),
                    "capture": _qlog.capture_path(),
                    "sort": sort,
                    "queries": stats,
                }
            )
        if path == "/":
            return "200 OK", _JSON, _json_body({"endpoints": list(ENDPOINTS)})
        return "404 Not Found", _JSON, _json_body(
            {"error": f"no such endpoint: {path}", "endpoints": list(ENDPOINTS)}
        )


# ---------------------------------------------------------------------------
# The standalone threaded server
# ---------------------------------------------------------------------------
class _ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
    daemon_threads = True
    allow_reuse_address = True


class _QuietRequestHandler(WSGIRequestHandler):
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapes every few seconds; no stderr chatter


class TelemetryServer:
    """A running telemetry endpoint (serve thread + socket lifecycle)."""

    def __init__(self, app: TelemetryApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self._server = make_server(
            host,
            port,
            app,
            server_class=_ThreadingWSGIServer,
            handler_class=_QuietRequestHandler,
        )
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-telemetry-{self.port}",
            daemon=True,
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def start_telemetry_server(
    port: int = 0,
    host: str = "127.0.0.1",
    app: TelemetryApp | None = None,
    registry: MetricsRegistry | None = None,
) -> TelemetryServer:
    """Serve the telemetry endpoints in-process; returns the live server.

    ``port=0`` binds an ephemeral port (read it back from ``server.port``).
    Starting the server re-reads ``REPRO_EVENTS`` / ``REPRO_EVENT_LOG`` /
    ``REPRO_QLOG`` / ``REPRO_QUERY_LOG`` / ``REPRO_SLOW_QUERY_MS`` so a
    long-lived process picks up diagnostics armed after import.
    """
    _events.refresh_event_config()
    _qlog.refresh_qlog_config()
    if app is None:
        app = TelemetryApp(registry)
    return TelemetryServer(app, host=host, port=port).start()


def parse_serve_address(address: str) -> tuple[str, int]:
    """``"PORT"`` / ``"HOST:PORT"`` / ``":PORT"`` -> ``(host, port)``."""
    host, separator, port_text = address.rpartition(":")
    if not separator:
        host, port_text = "", address
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid serve address {address!r}: expected [HOST:]PORT")
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid port {port} in serve address {address!r}")
    return host, port


# ---------------------------------------------------------------------------
# Standard readiness checks
# ---------------------------------------------------------------------------
def store_ready_check(store: Any) -> Callable[[], tuple[bool, str]]:
    """Ready once ``store`` answers a stats call — i.e. it opened and
    recovered (``DocumentStore.__init__`` replays the WAL before returning)."""

    def check() -> tuple[bool, str]:
        stats = store.stats()
        return True, (
            f"{stats.documents} document(s), {stats.views} view(s), "
            f"{stats.recovered_records} recovered WAL record(s)"
        )

    return check


def store_integrity_check(store: Any) -> Callable[[], tuple[bool, str]]:
    """Ready while the store's durable artifacts verify end-to-end.

    Runs the light (file-level, side-effect-free) scrub of
    :func:`repro.store.fsck.verify_artifacts` on each probe: ``meta.json``,
    the snapshot envelope and every WAL record, read by the same readers
    the store opens with.  Goes unready — naming the damaged artifact — as
    soon as on-disk damage appears that would stop a reopen, so an
    orchestrator stops routing to a replica that would refuse (or worse,
    be unable) to recover.  In-memory stores are trivially ready.
    """

    def check() -> tuple[bool, str]:
        directory = getattr(store, "directory", None)
        if directory is None:
            return True, "in-memory store (no durable artifacts)"
        from repro.store.fsck import verify_artifacts

        findings = verify_artifacts(directory)
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            return False, "; ".join(f"{f.artifact}: {f.detail}" for f in errors)
        warnings = [f for f in findings if f.severity == "warning"]
        detail = "meta, snapshot and wal verified"
        if warnings:
            detail += f" ({len(warnings)} warning(s))"
        return True, detail

    return check


def plan_cache_ready_check(cache: Any, min_size: int = 1) -> Callable[[], tuple[bool, str]]:
    """Ready once the plan cache holds at least ``min_size`` compiled plans
    (serving latency is compile-free from the first request on)."""

    def check() -> tuple[bool, str]:
        stats = cache.stats()
        ok = stats.size >= min_size
        return ok, f"{stats.size} cached plan(s) (warm >= {min_size})"

    return check
