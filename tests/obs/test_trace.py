"""Span tracing: arming, nesting, sampling, exports."""

from __future__ import annotations

import json

from repro.obs.trace import export_chrome, export_jsonl, is_active, span, tracing
from repro.obs import trace as trace_module


class TestDisarmed:
    def test_span_is_the_shared_noop(self):
        assert not is_active()
        first = span("anything", attr=1)
        second = span("else")
        assert first is second  # one shared null span, no allocation
        with first as live:
            live.annotate(ignored=True)  # all no-ops


class TestArmed:
    def test_spans_nest_and_carry_attrs(self):
        with tracing() as tracer:
            with span("outer", kind="test") as outer:
                outer.annotate(extra=1)
                with span("inner"):
                    pass
        assert not is_active()
        names = {s.name: s for s in tracer.spans}
        assert set(names) == {"outer", "inner"}
        outer_span, inner_span = names["outer"], names["inner"]
        assert inner_span.parent_id == outer_span.span_id
        assert outer_span.parent_id is None
        assert outer_span.trace_id == inner_span.trace_id == tracer.trace_id
        assert outer_span.attrs == {"kind": "test", "extra": 1}
        assert outer_span.duration >= inner_span.duration >= 0.0

    def test_exception_is_recorded_and_stack_unwinds(self):
        with tracing() as tracer:
            try:
                with span("failing"):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            with span("after"):
                pass
        failing = next(s for s in tracer.spans if s.name == "failing")
        after = next(s for s in tracer.spans if s.name == "after")
        assert failing.attrs["error"] == "RuntimeError"
        assert after.parent_id is None  # the failed span popped its frame

    def test_nested_tracing_restores_previous_tracer(self):
        with tracing() as outer_tracer:
            with tracing() as inner_tracer:
                with span("inner-only"):
                    pass
            with span("outer-only"):
                pass
        assert [s.name for s in inner_tracer.spans] == ["inner-only"]
        assert [s.name for s in outer_tracer.spans] == ["outer-only"]


class TestSampling:
    def test_rate_one_always_keeps_the_trace(self):
        with tracing(sample_rate=1.0) as tracer:
            with span("kept"):
                pass
        assert tracer.sampled and not tracer.promoted
        assert [s.name for s in tracer.spans] == ["kept"]

    def test_sampled_out_scope_records_no_spans_but_keeps_its_id(self):
        with tracing(sample_rate=0.0) as tracer:
            assert trace_module.current_trace_id() == tracer.trace_id
            assert span("dropped") is trace_module._NULL
        assert tracer.spans == []
        assert not tracer.sampled and not tracer.promoted

    def test_invalid_sample_rate_is_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="sample_rate"):
            tracing(sample_rate=1.5)

    def test_current_trace_id_is_none_when_disarmed(self):
        assert trace_module.current_trace_id() is None

    def test_tail_promotion_rescues_a_slow_sampled_out_trace(self, monkeypatch):
        import time

        from repro.obs import qlog

        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "5")
        qlog.refresh_qlog_config()
        try:
            with tracing(sample_rate=0.0) as tracer:
                time.sleep(0.02)  # cross the 5ms threshold
        finally:
            monkeypatch.delenv("REPRO_SLOW_QUERY_MS")
            qlog.refresh_qlog_config()
        assert tracer.sampled and tracer.promoted
        assert [s.name for s in tracer.spans] == ["trace.promoted-root"]
        root = tracer.spans[0]
        assert root.attrs["promoted"] is True
        assert root.attrs["sample_rate"] == 0.0
        assert root.duration >= 0.005
        assert root.trace_id == tracer.trace_id

    def test_fast_sampled_out_trace_stays_dropped(self, monkeypatch):
        from repro.obs import qlog

        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "60000")
        qlog.refresh_qlog_config()
        try:
            with tracing(sample_rate=0.0) as tracer:
                pass
        finally:
            monkeypatch.delenv("REPRO_SLOW_QUERY_MS")
            qlog.refresh_qlog_config()
        assert not tracer.sampled and not tracer.promoted
        assert tracer.spans == []

    def test_no_promotion_when_threshold_disarmed(self):
        import time

        from repro.obs import qlog

        assert qlog.slow_query_ms() is None  # default: disarmed
        with tracing(sample_rate=0.0) as tracer:
            time.sleep(0.005)
        assert not tracer.sampled
        assert tracer.spans == []


class TestExport:
    def _spans(self):
        with tracing() as tracer:
            with span("a", n=1):
                with span("b"):
                    pass
        return tracer.spans

    def test_jsonl_lines_parse(self):
        spans = self._spans()
        lines = export_jsonl(spans).splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert {record["name"] for record in records} == {"a", "b"}
        for record in records:
            assert record["trace_id"] == spans[0].trace_id
            assert record["duration"] >= 0.0

    def test_chrome_trace_events(self):
        payload = json.loads(export_chrome(self._spans()))
        events = payload["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["dur"] >= 0
            assert "trace_id" in event["args"]

