"""The metrics registry: instruments, collectors, and both exporters."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    parse_prometheus,
    registry_json,
    render_prometheus,
)


class TestInstruments:
    def test_counter_increments_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "events")
        counter.inc()
        counter.inc(2, kind="a")
        counter.inc(kind="a")
        assert counter.value() == 1
        assert counter.value(kind="a") == 3
        assert counter.value(kind="missing") == 0

    def test_counter_set_supports_scoped_restore(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        counter.inc(7, kind="x")
        saved = counter.value(kind="x")
        counter.set(0, kind="x")
        counter.inc(kind="x")
        counter.set(saved, kind="x")
        assert counter.value(kind="x") == 7

    def test_gauge_goes_up_and_down(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds", buckets=(0.01, 0.1, 1.0))
        histogram.observe(0.005)
        histogram.observe(0.05)
        histogram.observe(5.0)
        state = histogram.value()
        assert state["buckets"] == [1, 2, 2]  # cumulative le-counts
        assert state["count"] == 3
        assert state["sum"] == pytest.approx(5.055)

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("thing")

    def test_reset_clears_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(9)
        registry.reset()
        assert registry.counter("c").value() == 0
        assert registry.gauge("g").value() == 0

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def hammer():
            for _ in range(1000):
                counter.inc(kind="shared")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(kind="shared") == 4000


class TestCollectors:
    def test_strong_collector_emits_at_export(self):
        registry = MetricsRegistry()
        registry.counter("pulled_total", "pulled")
        registry.register_collector(
            "src", lambda sink: sink.counter("pulled_total", 42, origin="cell")
        )
        families = registry.snapshot()
        samples = families["pulled_total"]["samples"]
        assert {"labels": {"origin": "cell"}, "value": 42} in samples
        # Declared kind/help win over what the collector supplies.
        assert families["pulled_total"]["help"] == "pulled"

    def test_object_collector_dies_with_its_owner(self):
        registry = MetricsRegistry()

        class Owner:
            def collect(self, sink):
                sink.gauge("owner_gauge", 1, who="me")

        owner = Owner()
        registry.register_object_collector("owner", owner, Owner.collect)
        assert "owner_gauge" in registry.snapshot()
        del owner
        import gc

        gc.collect()
        assert "owner_gauge" not in registry.snapshot()

    def test_unregister_collector(self):
        registry = MetricsRegistry()
        registry.register_collector("gone", lambda sink: sink.counter("x_total", 1))
        registry.unregister_collector("gone")
        assert "x_total" not in registry.snapshot()


class TestExport:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests_total", "requests").inc(3, method="query")
        registry.counter("requests_total").inc(1, method="batch")
        registry.gauge("cache_size", "cached plans").set(12)
        registry.histogram("latency_seconds", "latency", buckets=(0.1, 1.0)).observe(0.5)
        registry.counter("silent_total", "armed but unincremented")
        return registry

    def test_prometheus_text_parses_and_round_trips_values(self):
        registry = self._populated()
        text = render_prometheus(registry)
        assert '# TYPE requests_total counter' in text
        assert '# HELP cache_size cached plans' in text
        parsed = parse_prometheus(text)
        assert parsed["requests_total"]["type"] == "counter"
        assert parsed["requests_total"]["samples"]['requests_total{method="query"}'] == 3
        assert parsed["cache_size"]["samples"]["cache_size"] == 12
        # Histogram explodes into _bucket/_sum/_count series.
        samples = parsed["latency_seconds"]["samples"]
        assert samples['latency_seconds_bucket{le="1"}'] == 1
        assert samples['latency_seconds_bucket{le="+Inf"}'] == 1
        assert samples["latency_seconds_count"] == 1

    def test_sample_less_family_exposes_a_zero_series(self):
        text = render_prometheus(self._populated())
        assert "\nsilent_total 0" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(1, path='a"b\\c\nd')
        text = render_prometheus(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parse_prometheus(text)  # must stay parseable

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE broken notakind\n")
        with pytest.raises(ValueError):
            parse_prometheus("name_without_value\n")

    def test_registry_json_round_trips(self):
        payload = registry_json(self._populated())
        assert json.loads(json.dumps(payload)) == payload
        assert payload["requests_total"]["type"] == "counter"
        values = {
            tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in payload["requests_total"]["samples"]
        }
        assert values[(("method", "query"),)] == 3


class TestExemplars:
    def _traced_histogram(self) -> tuple[MetricsRegistry, str]:
        from repro.obs.trace import tracing

        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        with tracing() as tracer:
            histogram.observe(0.05)
            histogram.observe(5.0)
        return registry, tracer.trace_id

    def test_histogram_records_exemplar_per_bucket(self):
        registry, trace_id = self._traced_histogram()
        state = registry.histogram("lat_seconds").value()
        exemplars = state["exemplars"]
        assert exemplars[0]["trace_id"] == trace_id  # 0.05 -> le=0.1 bucket
        assert exemplars[2]["trace_id"] == trace_id  # 5.0 -> +Inf bucket
        assert exemplars[2]["value"] == 5.0

    def test_no_exemplar_without_an_armed_trace(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", buckets=(0.1,)).observe(0.01)
        assert "exemplars" not in registry.histogram("lat_seconds").value()

    def test_exemplars_can_be_disabled_per_histogram(self):
        from repro.obs.trace import tracing

        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(0.1,), exemplars=False)
        with tracing():
            histogram.observe(0.01)
        assert "exemplars" not in histogram.value()

    def test_render_emits_openmetrics_exemplar_syntax(self):
        registry, trace_id = self._traced_histogram()
        text = render_prometheus(registry)
        assert f'lat_seconds_bucket{{le="0.1"}} 1 # {{trace_id="{trace_id}"}} 0.05' in text
        assert f'# {{trace_id="{trace_id}"}} 5' in text
        # The un-exemplared middle bucket renders plain.
        assert 'lat_seconds_bucket{le="1"} 1\n' in text

    def test_parse_round_trips_exemplar_bearing_output(self):
        registry, trace_id = self._traced_histogram()
        parsed = parse_prometheus(render_prometheus(registry))
        family = parsed["lat_seconds"]
        assert family["samples"]['lat_seconds_bucket{le="0.1"}'] == 1
        assert family["samples"]['lat_seconds_bucket{le="+Inf"}'] == 2
        exemplar = family["exemplars"]['lat_seconds_bucket{le="0.1"}']
        assert trace_id in exemplar["labels"]
        assert exemplar["value"] == pytest.approx(0.05)

    def test_parse_round_trips_escaped_labels_with_exemplars(self):
        from repro.obs.trace import tracing

        registry = MetricsRegistry()
        registry.counter("c_total").inc(1, path='a"b\\c\nd')
        with tracing():
            registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        text = render_prometheus(registry)
        parsed = parse_prometheus(text)
        assert parsed["c_total"]["samples"]['c_total{path="a\\"b\\\\c\\nd"}'] == 1
        assert any("h_seconds_bucket" in key for key in parsed["h_seconds"]["exemplars"])

    def test_parse_rejects_malformed_exemplars(self):
        with pytest.raises(ValueError):
            parse_prometheus('h_bucket{le="1"} 1 # notbraces 0.5\n')
        with pytest.raises(ValueError):
            parse_prometheus('h_bucket{le="1"} 1 # {trace_id="x"}\n')


class TestSlowQueryConcurrency:
    def test_concurrent_recorders_and_readers(self):
        from types import SimpleNamespace

        from repro.obs import qlog

        plan = SimpleNamespace(
            signature="sigconcurrent000", surface="($S)/*",
            semiring=SimpleNamespace(name="natural-numbers"), env_types={},
        )
        previous = qlog.ring_capacity()
        qlog.set_ring_capacity(256)
        qlog.refresh_qlog_config({qlog.ENV_QLOG: "on", qlog.ENV_SLOW_MS: "0"})
        try:
            errors: list[BaseException] = []
            stop = threading.Event()

            def write(worker: int):
                try:
                    for index in range(300):
                        qlog.record(plan, "evaluate", "nrc", 0.0, worker=worker, index=index)
                except BaseException as error:  # pragma: no cover - failure path
                    errors.append(error)

            def read():
                try:
                    while not stop.is_set():
                        for entry in qlog.slow_queries():
                            assert "ts" in entry
                except BaseException as error:  # pragma: no cover - failure path
                    errors.append(error)

            writers = [threading.Thread(target=write, args=(n,)) for n in range(4)]
            readers = [threading.Thread(target=read) for _ in range(2)]
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join()
            stop.set()
            for thread in readers:
                thread.join()
            assert not errors
            # The ring is bounded and holds the newest entries.
            entries = qlog.slow_queries()
            assert len(entries) == 256
            assert entries[-1]["index"] == 299
        finally:
            qlog.refresh_qlog_config({})
            qlog.set_ring_capacity(previous)
            qlog.clear_records()
            qlog.clear_signature_stats()


class TestDefaultRegistryIntegration:
    def test_subsystem_families_are_published(self):
        # Importing the subsystems registers their families; a fresh export
        # must expose every surface the CLI promises.
        import repro.exec.plan_cache  # noqa: F401  (plan-cache families)
        import repro.ivm.view  # noqa: F401  (view maintenance)
        import repro.nrc.codegen  # noqa: F401  (codegen counters)
        import repro.store.store  # noqa: F401  (store families)

        text = render_prometheus(default_registry())
        for family in (
            "repro_plan_cache_hits_total",
            "repro_view_maintenance_total",
            "repro_store_operations_total",
            "repro_codegen_generated_total",
            "repro_codegen_declined_total",
            "repro_codegen_calls_total",
            "repro_slow_queries_total",
        ):
            assert f"# TYPE {family} counter" in text
        parse_prometheus(text)  # the full default export stays well-formed

