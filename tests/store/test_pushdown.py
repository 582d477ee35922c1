"""Navigation pushdown: recognition, exactness, and the fallback gate."""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.exec.plan_cache import PlanCache
from repro.paperdata import figure1_query, figure1_source, figure4_query, figure4_source
from repro.semirings import NATURAL, PROVENANCE
from repro.store import NAV_VAR, PushdownExecutor, ShreddedColumns, StructuralIndex, split_navigation
from repro.uxquery import prepare_query
from repro.uxquery.parser import parse_query
from repro.uxquery.normalize import normalize
from repro.workloads import random_forest, standard_query_suite


def _split_text(query: str, var: str = "S", env_types=None):
    types = dict(env_types or {})
    types.setdefault(var, "forest")
    core = normalize(parse_query(query), types)
    return split_navigation(core, var)


class TestRecognition:
    def test_whole_document(self):
        split = _split_text("$S")
        assert split is not None and split.steps == () and split.trivial

    def test_single_chain(self):
        split = _split_text("$S/a//c")
        assert split is not None
        assert [str(step) for step in split.steps] == [
            "child::a",
            "descendant-or-self::*",
            "child::c",
        ]
        assert split.trivial

    def test_wrapped_chain_has_residual(self):
        split = _split_text("element out { $S//c }")
        assert split is not None and not split.trivial
        assert str(split.residual) == f"element out {{${NAV_VAR}}}"

    def test_chain_under_binder(self):
        split = _split_text("for $x in $S/a return element hit { ($x)/* }")
        assert split is not None
        assert [str(step) for step in split.steps] == ["child::a"]

    def test_mixed_chains_decline(self):
        assert _split_text("($S/a, $S//b)") is None

    def test_bare_var_plus_chain_decline(self):
        # `$S` (empty chain) and `$S/a` are different chains.
        assert _split_text("for $x in $S return $S/a") is None

    def test_rebound_document_variable(self):
        # The inner `$S` is bound by the for, not free: only the source chain
        # is pushed down, and the bound occurrences stay untouched.
        split = _split_text("for $S in $S/a return ($S)/*")
        assert split is not None
        assert [str(step) for step in split.steps] == ["child::a"]
        assert f"${NAV_VAR}" in str(split.residual)
        assert str(split.residual).count(NAV_VAR) == 1

    def test_var_absent_declines(self):
        assert _split_text("element out { () }") is None

    def test_reserved_variable_collision_declines(self):
        from repro.uxquery.ast import ElementExpr, LabelExpr, PathExpr, Step, VarExpr

        core = ElementExpr(
            LabelExpr("out"),
            PathExpr(VarExpr(NAV_VAR), (Step("child", "a"),)),
        )
        assert split_navigation(core, NAV_VAR) is None

    def test_paper_figures_recognized(self):
        assert _split_text(figure1_query()) is not None
        assert _split_text(figure4_query(), var="T") is not None


class TestExecutorExactness:
    @pytest.fixture
    def executor(self):
        return PushdownExecutor(PlanCache(maxsize=64))

    def test_standard_suite_every_registry_semiring(self, any_semiring, executor):
        forest = random_forest(any_semiring, num_trees=3, depth=3, fanout=2, seed=8)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        for name, query in standard_query_suite().items():
            prepared = prepare_query(query, any_semiring, {"S": forest})
            expected = prepared.evaluate({"S": forest})
            assert executor.execute(prepared, index, "S")[0] == expected, name
        assert executor.fallbacks == 0

    def test_fallback_is_exact_and_counted(self, executor):
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=9)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        query = "element out { ($S/a, $S//b) }"
        prepared = prepare_query(query, NATURAL, {"S": forest})
        expected = prepared.evaluate({"S": forest})
        assert executor.execute(prepared, index, "S") == (expected, "fallback", prepared)
        assert executor.fallbacks == 1 and executor.pushdowns == 0

    def test_full_pushdown_counted(self, executor):
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=10)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        prepared = prepare_query("$S//c", NATURAL, {"S": forest})
        expected = prepared.evaluate({"S": forest})
        assert executor.execute(prepared, index, "S") == (expected, "full-pushdown", None)
        assert executor.pushdowns == 1 and executor.full_pushdowns == 1

    def test_extra_environment_bindings(self, executor):
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=12)
        other = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=13)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        query = "element out { ($S//c, $R/*) }"
        prepared = prepare_query(query, NATURAL, {"S": forest, "R": other})
        expected = prepared.evaluate({"S": forest, "R": other})
        assert executor.execute(prepared, index, "S", {"R": other})[0] == expected

    def test_reserved_env_binding_rejected(self, executor):
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=1, seed=0)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        prepared = prepare_query("$S/*", NATURAL, {"S": forest})
        with pytest.raises(StoreError, match="reserved"):
            executor.execute(prepared, index, "S", {NAV_VAR: forest})

    def test_semiring_mismatch_rejected(self, executor):
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=1, seed=0)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        prov_forest = random_forest(PROVENANCE, num_trees=1, depth=2, fanout=1, seed=0)
        prepared = prepare_query("$S/*", PROVENANCE, {"S": prov_forest})
        with pytest.raises(StoreError, match="cannot run against"):
            executor.execute(prepared, index, "S")

    def test_paper_figures(self, executor):
        fig1 = figure1_source()
        index1 = StructuralIndex(ShreddedColumns.from_forest(fig1))
        prepared1 = prepare_query(figure1_query(), PROVENANCE, {"S": fig1})
        assert executor.execute(prepared1, index1, "S")[0] == prepared1.evaluate({"S": fig1})

        fig4 = figure4_source()
        index4 = StructuralIndex(ShreddedColumns.from_forest(fig4))
        prepared4 = prepare_query(figure4_query(), PROVENANCE, {"T": fig4})
        assert executor.execute(prepared4, index4, "T")[0] == prepared4.evaluate({"T": fig4})
        assert executor.fallbacks == 0

    def test_split_analysis_is_memoized(self, executor):
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=3)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        prepared = prepare_query("$S//c", NATURAL, {"S": forest})
        first = executor.split_for(prepared, "S")
        assert executor.split_for(prepared, "S") is first

    def test_split_memo_respects_variable_type(self, executor):
        """Equal cores with differently-typed document variables must not
        share a split: the FOREST gate depends on the declared type."""
        forest_typed = prepare_query("($S)/*", NATURAL, env_types={"S": "forest"})
        tree_typed = prepare_query("($S)/*", NATURAL, env_types={"S": "tree"})
        assert forest_typed.core == tree_typed.core
        assert executor.split_for(forest_typed, "S") is not None
        assert executor.split_for(tree_typed, "S") is None
