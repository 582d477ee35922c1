"""Per-operator profiling under all three evaluators."""

from __future__ import annotations

import json

import pytest

from repro.errors import UXQueryEvalError
from repro.obs.profile import profile_evaluate
from repro.semirings import NATURAL, PROVENANCE
from repro.uxquery import prepare_query
from repro.workloads import random_forest

METHODS = ("nrc-codegen", "nrc", "nrc-interp")


@pytest.fixture
def forest():
    return random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=21)


class TestProfileEvaluate:
    @pytest.mark.parametrize("method", METHODS)
    def test_result_matches_unprofiled_evaluation(self, forest, method):
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": forest})
        expected = prepared.evaluate({"S": forest}, method=method)
        result, report = profile_evaluate(prepared, {"S": forest}, method=method)
        assert result == expected
        assert report.method == method
        assert report.total_s >= 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_operators_record_calls_and_rows(self, forest, method):
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        result, report = profile_evaluate(prepared, {"S": forest}, method=method)
        payload = report.to_dict()
        assert payload["operators"], "profile must contain an operator tree"

        def flatten(nodes):
            for node in nodes:
                yield node
                yield from flatten(node["children"])

        ops = list(flatten(payload["operators"]))
        timed = [op for op in ops if not op["fused"]]
        assert any(op["calls"] > 0 for op in timed)
        assert all(op["time_ms"] >= 0.0 for op in timed)
        # Row counts surface real cardinalities somewhere in the tree.
        assert any(op["rows"] > 0 for op in timed)
        json.dumps(payload)  # --analyze output must be serializable

    def test_codegen_profile_marks_fused_loops(self, forest):
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": forest})
        _result, report = profile_evaluate(prepared, {"S": forest}, method="nrc-codegen")
        assert report.generated is True
        payload = report.to_dict()

        def flatten(nodes):
            for node in nodes:
                yield node
                yield from flatten(node["children"])

        fused = [op for op in flatten(payload["operators"]) if op["fused"]]
        assert fused, "big unions must appear as fused loop operators"
        assert any(op["calls"] > 0 for op in fused)  # iteration counts
        assert "fused" in report.render()

    def test_codegen_decline_falls_back_with_reason(self, forest):
        prepared = prepare_query("($S)//b", NATURAL, {"S": forest})
        assert prepared.generated is None  # srt is outside the codegen fragment
        expected = prepared.evaluate({"S": forest}, method="nrc-codegen")
        result, report = profile_evaluate(prepared, {"S": forest}, method="nrc-codegen")
        assert result == expected
        assert report.generated is False
        assert "srt" in (report.fallback_reason or "")
        assert "declined" in report.render()

    def test_profiling_never_touches_the_production_programs(self, forest):
        document = random_forest(PROVENANCE, 2, 2, 2, seed=3)
        prepared = prepare_query("($S)/*", PROVENANCE, {"S": document})
        production = prepared.generated
        profile_evaluate(prepared, {"S": document})
        assert prepared.generated is production  # same uninstrumented object
        assert "_PREC" not in prepared.generated.source

    def test_unprofilable_method_is_rejected(self, forest):
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        with pytest.raises(UXQueryEvalError, match="cannot profile"):
            profile_evaluate(prepared, {"S": forest}, method="direct")

    def test_interp_hook_disarms_after_profiling(self, forest):
        from repro.nrc import eval as interp

        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        profile_evaluate(prepared, {"S": forest}, method="nrc-interp")
        assert interp._PROFILE is None

