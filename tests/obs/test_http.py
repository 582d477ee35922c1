"""The telemetry HTTP surface: endpoints, readiness, and WSGI mountability."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import events
from repro.obs.http import (
    TelemetryApp,
    parse_serve_address,
    plan_cache_ready_check,
    start_telemetry_server,
    store_ready_check,
)
from repro.obs.metrics import MetricsRegistry, parse_prometheus


def _get(url: str) -> tuple[int, dict[str, str], bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture()
def server():
    with start_telemetry_server(port=0) as live:
        yield live


@pytest.fixture()
def slow_call(monkeypatch):
    """One evaluation over a 0 ms slow-query threshold; yields its query text."""
    from repro.obs import qlog
    from repro.semirings import NATURAL
    from repro.uxquery import prepare_query
    from repro.workloads import random_forest

    monkeypatch.setenv(qlog.ENV_SLOW_MS, "0")
    qlog.refresh_qlog_config()
    qlog.clear_records()
    forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=30)
    prepared = prepare_query("($S)/a", NATURAL, {"S": forest})
    prepared.evaluate({"S": forest})
    yield str(prepared.surface)
    monkeypatch.delenv(qlog.ENV_SLOW_MS)
    qlog.refresh_qlog_config()
    qlog.clear_records()


class TestEndpoints:
    def test_metrics_serves_parseable_prometheus_text(self, server):
        server.app.registry.counter("http_test_total", "test").inc(3, kind="x")
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        parsed = parse_prometheus(body.decode("utf-8"))
        assert parsed["http_test_total"]["samples"]['http_test_total{kind="x"}'] == 3

    def test_metrics_exposes_exemplars_over_http(self, server):
        from repro.obs.trace import tracing

        histogram = server.app.registry.histogram("http_lat_seconds", buckets=(1.0,))
        with tracing() as tracer:
            histogram.observe(0.5)
        _, _, body = _get(server.url + "/metrics")
        text = body.decode("utf-8")
        assert f'trace_id="{tracer.trace_id}"' in text
        parsed = parse_prometheus(text)
        assert parsed["http_lat_seconds"]["exemplars"]

    def test_varz_is_the_registry_as_json(self, server):
        server.app.registry.gauge("http_varz_gauge").set(7)
        status, headers, body = _get(server.url + "/varz")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["http_varz_gauge"]["samples"][0]["value"] == 7

    def test_healthz_is_always_ok(self, server):
        status, _, body = _get(server.url + "/healthz")
        assert status == 200
        assert body == b"ok\n"

    def test_debug_slow_reports_threshold_and_entries(self, server, slow_call):
        status, _, body = _get(server.url + "/debug/slow?limit=5")
        assert status == 200
        payload = json.loads(body)
        assert payload["threshold_ms"] == 0.0
        assert payload["slow_queries"][-1]["q"] == slow_call

    def test_debug_events_serves_json_and_jsonl(self, server):
        events.clear_events()
        with events.recording(True):
            events.emit("limits.timeout", timeout_s=3)
        status, _, body = _get(server.url + "/debug/events?kind=limits.timeout")
        assert status == 200
        payload = json.loads(body)
        assert payload["events"][-1]["attrs"]["timeout_s"] == 3
        status, headers, body = _get(
            server.url + "/debug/events?kind=limits.timeout&format=jsonl"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-ndjson")
        lines = [json.loads(line) for line in body.decode("utf-8").splitlines()]
        assert lines[-1]["kind"] == "limits.timeout"
        events.clear_events()

    def test_debug_slow_serves_jsonl(self, server, slow_call):
        status, headers, body = _get(server.url + "/debug/slow?format=jsonl&limit=5")
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-ndjson")
        lines = [json.loads(line) for line in body.decode("utf-8").splitlines()]
        assert lines[-1]["q"] == slow_call

    def test_debug_queries_serves_signature_stats(self, server):
        from repro.obs import qlog
        from repro.semirings import NATURAL
        from repro.uxquery import prepare_query
        from repro.workloads import random_forest

        qlog.clear_signature_stats()
        qlog.clear_records()
        try:
            forest = random_forest(NATURAL, num_trees=1, depth=3, fanout=2, seed=31)
            prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
            with qlog.recording(True):
                prepared.evaluate({"S": forest})
                prepared.evaluate({"S": forest})
            status, _, body = _get(server.url + "/debug/queries?sort=count&limit=5")
            assert status == 200
            payload = json.loads(body)
            assert payload["sort"] == "count"
            entry = next(
                item
                for item in payload["queries"]
                if item["signature"] == prepared.signature
            )
            assert entry["count"] >= 2
            assert entry["p95_ms"] >= 0.0
            assert entry["query"] == str(prepared.surface)
            status, headers, body = _get(server.url + "/debug/queries?format=jsonl")
            assert status == 200
            assert headers["Content-Type"].startswith("application/x-ndjson")
            lines = [json.loads(line) for line in body.decode("utf-8").splitlines()]
            assert any(line["signature"] == prepared.signature for line in lines)
        finally:
            qlog.clear_signature_stats()
            qlog.clear_records()

    def test_index_lists_the_endpoints(self, server):
        status, _, body = _get(server.url + "/")
        assert status == 200
        endpoints = json.loads(body)["endpoints"]
        assert "/metrics" in endpoints
        assert "/debug/queries" in endpoints

    def test_unknown_path_is_a_json_404(self, server):
        status, _, body = _get(server.url + "/nope")
        assert status == 404
        assert "endpoints" in json.loads(body)

    def test_non_get_is_rejected(self, server):
        request = urllib.request.Request(server.url + "/metrics", data=b"x", method="POST")
        with pytest.raises(urllib.error.HTTPError) as failure:
            urllib.request.urlopen(request, timeout=10)
        assert failure.value.code == 405


class TestReadiness:
    def test_readyz_transitions_with_check_results(self, server):
        status, _, body = _get(server.url + "/readyz")
        assert status == 200  # no checks registered -> vacuously ready
        assert json.loads(body)["ready"] is True

        server.app.add_readiness_check("warm", lambda: (False, "still loading"))
        status, _, body = _get(server.url + "/readyz")
        assert status == 503
        payload = json.loads(body)
        assert payload["ready"] is False
        assert payload["checks"]["warm"] == {"ok": False, "detail": "still loading"}

        server.app.add_readiness_check("warm", lambda: True)
        status, _, body = _get(server.url + "/readyz")
        assert status == 200
        assert json.loads(body)["checks"]["warm"]["ok"] is True

    def test_a_raising_check_counts_as_not_ready(self, server):
        def broken():
            raise RuntimeError("boom")

        server.app.add_readiness_check("broken", broken)
        status, _, body = _get(server.url + "/readyz")
        assert status == 503
        assert "boom" in json.loads(body)["checks"]["broken"]["detail"]
        server.app.remove_readiness_check("broken")

    def test_store_ready_check_reads_recovered_state(self, tmp_path):
        from repro.semirings import NATURAL
        from repro.store import DocumentStore
        from repro.workloads import random_forest

        store = DocumentStore(NATURAL, directory=tmp_path / "store")
        store.ingest("doc", random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=2))
        ok, detail = store_ready_check(store)()
        assert ok
        assert "1 document(s)" in detail

    def test_plan_cache_ready_check_requires_warm_cache(self):
        from repro.exec import PlanCache
        from repro.semirings import NATURAL

        cache = PlanCache(maxsize=4)
        ok, _ = plan_cache_ready_check(cache)()
        assert not ok
        cache.get("($S)/*", NATURAL, env_types={"S": "forest"})
        ok, detail = plan_cache_ready_check(cache)()
        assert ok
        assert "1 cached plan(s)" in detail


class TestWsgiMountability:
    def test_app_is_callable_without_a_server(self):
        # The future repro.serve mounts TelemetryApp as plain WSGI: calling
        # the app directly (no socket anywhere) must fully work.
        app = TelemetryApp(MetricsRegistry())
        app.registry.counter("mounted_total").inc(2)
        captured: dict = {}

        def start_response(status, headers):
            captured["status"] = status
            captured["headers"] = dict(headers)

        body = b"".join(
            app({"REQUEST_METHOD": "GET", "PATH_INFO": "/metrics"}, start_response)
        )
        assert captured["status"] == "200 OK"
        assert "mounted_total 2" in body.decode("utf-8")

        body = b"".join(
            app({"REQUEST_METHOD": "HEAD", "PATH_INFO": "/healthz"}, start_response)
        )
        assert body == b""  # HEAD: headers only
        assert captured["status"] == "200 OK"

    def test_handler_errors_become_500_not_crashes(self):
        app = TelemetryApp(MetricsRegistry())
        app.add_readiness_check("x", lambda: True)
        broken_registry = object()  # render_prometheus will choke on this
        app.registry = broken_registry
        captured: dict = {}
        body = b"".join(
            app(
                {"REQUEST_METHOD": "GET", "PATH_INFO": "/metrics"},
                lambda status, headers: captured.update(status=status),
            )
        )
        assert captured["status"].startswith("500")
        assert "error" in json.loads(body)


class TestServeAddress:
    @pytest.mark.parametrize(
        "address, expected",
        [
            ("9100", ("127.0.0.1", 9100)),
            (":9100", ("127.0.0.1", 9100)),
            ("0.0.0.0:9100", ("0.0.0.0", 9100)),
            ("localhost:0", ("localhost", 0)),
        ],
    )
    def test_accepted_forms(self, address, expected):
        assert parse_serve_address(address) == expected

    @pytest.mark.parametrize("address", ["", "abc", "host:port", "1:2:3x", "70000"])
    def test_rejected_forms(self, address):
        with pytest.raises(ValueError):
            parse_serve_address(address)


class TestServerLifecycle:
    def test_start_refreshes_diagnostic_config(self, monkeypatch):
        from repro.obs import qlog

        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "123.5")
        monkeypatch.setenv("REPRO_EVENTS", "on")
        monkeypatch.setenv("REPRO_QLOG", "on")
        try:
            with start_telemetry_server(port=0):
                assert qlog.slow_query_ms() == 123.5
                assert events.is_recording()
                assert qlog.is_recording()
        finally:
            monkeypatch.delenv("REPRO_SLOW_QUERY_MS")
            monkeypatch.delenv("REPRO_QLOG")
            events.refresh_event_config()
            qlog.refresh_qlog_config()

    def test_shutdown_frees_the_port(self):
        live = start_telemetry_server(port=0)
        url = live.url
        live.shutdown()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(url + "/healthz", timeout=2)
