"""Span tracing: arming, nesting, exports."""

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

    def test_current_trace_id_is_none_when_disarmed(self):
        assert trace_module.current_trace_id() is None


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

    def test_every_armed_scope_records_and_exposes_its_id(self):
        with tracing() as tracer:
            assert trace_module.current_trace_id() == tracer.trace_id
            live = span("kept")
            assert live is not trace_module._NULL
            with live:
                pass
        assert trace_module.current_trace_id() is None
        assert [s.name for s in tracer.spans] == ["kept"]
        assert tracer.spans[0].trace_id == tracer.trace_id

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

