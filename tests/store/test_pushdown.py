"""Navigation pushdown: the multi-chain split and its exactness."""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.exec.plan_cache import PlanCache
from repro.paperdata import figure1_query, figure1_source, figure4_query, figure4_source
from repro.semirings import NATURAL, PROVENANCE, standard_semirings
from repro.store import (
    DocumentStore,
    PushdownExecutor,
    ShreddedColumns,
    StructuralIndex,
    split_navigation,
)
from repro.uxquery import prepare_query
from repro.uxquery.parser import parse_query
from repro.uxquery.normalize import normalize
from repro.workloads import random_forest, standard_query_suite


def _split_text(query: str, var: str = "S", env_types=None):
    types = dict(env_types or {})
    types.setdefault(var, "forest")
    core = normalize(parse_query(query), types)
    return split_navigation(core, var)


def _chains(split):
    return [(name, [str(step) for step in steps]) for name, steps in split.chains]


class TestRecognition:
    def test_whole_document(self):
        split = _split_text("$S")
        assert split.chains == (("__nav0", ()),) and split.trivial

    def test_single_chain(self):
        split = _split_text("$S/a//c")
        assert _chains(split) == [
            ("__nav0", ["child::a", "descendant-or-self::*", "child::c"])
        ]
        assert split.trivial

    def test_wrapped_chain_has_residual(self):
        split = _split_text("element out { $S//c }")
        assert not split.trivial
        assert str(split.residual) == "element out {$__nav0}"

    def test_chain_under_binder(self):
        split = _split_text("for $x in $S/a return element hit { ($x)/* }")
        assert _chains(split) == [("__nav0", ["child::a"])]

    def test_mixed_chains_split(self):
        # Each distinct chain gets its own residual variable.
        split = _split_text("($S/a, $S//b)")
        assert _chains(split) == [
            ("__nav0", ["child::a"]),
            ("__nav1", ["descendant-or-self::*", "child::b"]),
        ]
        assert str(split.residual) == "($__nav0, $__nav1)" and not split.trivial

    def test_repeated_chain_shares_one_variable(self):
        split = _split_text("($S/a, element x { $S/a })")
        assert _chains(split) == [("__nav0", ["child::a"])]
        assert str(split.residual) == "($__nav0, element x {$__nav0})"

    def test_bare_var_plus_chain_split(self):
        # `$S` (the empty chain, the whole document) and `$S/a` are two chains.
        split = _split_text("for $x in $S return $S/a")
        assert _chains(split) == [("__nav0", []), ("__nav1", ["child::a"])]
        assert str(split.residual) == "for $x in $__nav0 return $__nav1"

    def test_rebound_document_variable(self):
        # The inner `$S` is bound by the for, not free: only the source chain
        # is pushed down, and the bound occurrences stay untouched.
        split = _split_text("for $S in $S/a return ($S)/*")
        assert _chains(split) == [("__nav0", ["child::a"])]
        assert str(split.residual).count("__nav") == 1

    def test_var_absent_is_a_residual_without_navigation(self):
        split = _split_text("element out { () }")
        assert split.chains == () and not split.trivial
        assert split.residual == normalize(parse_query("element out { () }"), {"S": "forest"})

    def test_residual_names_skip_names_in_use(self):
        # A variable already named like a residual variable keeps its name:
        # the split numbers past it.
        split = _split_text(
            "let $__nav0 := $S/a return ($__nav0, $S//c, $__nav2)",
            env_types={"__nav2": "forest"},
        )
        assert [name for name, _ in split.chains] == ["__nav1", "__nav3"]
        assert str(split.residual) == (
            "let $__nav0 := $__nav1 return ($__nav0, $__nav3, $__nav2)"
        )

    def test_surface_forms_are_rejected(self):
        from repro.uxquery.ast import EqCondition, ForExpr, LabelExpr, VarExpr

        surface = ForExpr(
            (("x", VarExpr("S")),), VarExpr("x"), EqCondition(LabelExpr("a"), LabelExpr("a"))
        )
        with pytest.raises(StoreError, match="not a core form"):
            split_navigation(surface, "S")

    def test_paper_figures_recognized(self):
        assert _split_text(figure1_query()).chains
        assert _split_text(figure4_query(), var="T").chains


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
        assert executor.pushdowns == len(standard_query_suite())

    def test_mixed_chains_are_exact_and_counted(self, executor):
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=9)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        query = "element out { ($S/a, $S//b) }"
        prepared = prepare_query(query, NATURAL, {"S": forest})
        expected = prepared.evaluate({"S": forest})
        result, how, plan = executor.execute(prepared, index, "S")
        assert (result, how) == (expected, "pushdown")
        assert str(plan.surface) == "element out {($__nav0, $__nav1)}"
        assert executor.pushdowns == 1 and executor.full_pushdowns == 0

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

    def test_env_binding_named_like_a_residual_variable(self, executor):
        # An environment may bind `$__nav0`: the split numbers past the names
        # the query uses, and a binding the query does not use is inert.
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=14)
        other = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=15)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        for query in ("element out { ($S/a, $__nav0/*) }", "element out { ($S/a, $S//b) }"):
            prepared = prepare_query(query, NATURAL, {"S": forest, "__nav0": other})
            expected = prepared.evaluate({"S": forest, "__nav0": other})
            assert executor.execute(prepared, index, "S", {"__nav0": other})[0] == expected

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

    def test_split_analysis_is_memoized(self, executor):
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=3)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        prepared = prepare_query("$S//c", NATURAL, {"S": forest})
        first = executor.split_for(prepared, "S")
        assert executor.split_for(prepared, "S") is first

    def test_non_forest_document_variable_raises(self, executor):
        """A stored document is a forest: a plan typing the document variable
        otherwise is refused, even when an equal core split before."""
        forest_typed = prepare_query("($S)/*", NATURAL, env_types={"S": "forest"})
        tree_typed = prepare_query("($S)/*", NATURAL, env_types={"S": "tree"})
        assert forest_typed.core == tree_typed.core
        assert executor.split_for(forest_typed, "S").chains
        with pytest.raises(StoreError, match="typed tree"):
            executor.split_for(tree_typed, "S")
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=2, seed=3)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        with pytest.raises(StoreError, match="typed tree"):
            executor.execute(tree_typed, index, "S")


#: Named multi-chain shapes, each against single-shot evaluation.
MULTI_CHAIN_CASES = {
    "mixed": "element out { ($S/a, $S//c) }",
    "bare-plus-chain": "element out { for $x in $S return ($x, $S/*/c) }",
    "rebound": "element out { (for $S in $S/* return ($S)/*, $S//c) }",
    "user-bound-nav-name": "let $__nav0 := $S/a return ($__nav0, $S//c)",
    "env-nav-name": "element out { ($S/a, $__nav0//c, $S/*) }",
    "absent": "element out { $__nav0/* }",
}


REGISTRY_SEMIRINGS = pytest.mark.parametrize(
    "semiring", list(standard_semirings()), ids=lambda semiring: semiring.name
)


class TestMultiChainEveryRegistrySemiring:
    """Every composition of the standard suite, and the named shapes, served
    by the store equal single-shot evaluation of the same plan under every
    registry semiring."""

    @REGISTRY_SEMIRINGS
    def test_pairwise_suite_compositions(self, semiring):
        forest = random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=16)
        store = DocumentStore(semiring)
        store.ingest("doc", forest)
        suite = list(standard_query_suite().values())
        for first in suite:
            for second in suite:
                for query in (f"({first}, {second})", f"element out {{ ({first}, {second}) }}"):
                    answer = store.query(query)
                    prepared = store.plan_cache.get(query, semiring, env_types={"S": "forest"})
                    assert answer == prepared.evaluate({"S": forest}), query
        stats = store.stats()
        assert stats.pushdowns == stats.queries == 2 * len(suite) ** 2
        assert stats.fallbacks == 0

    @REGISTRY_SEMIRINGS
    @pytest.mark.parametrize("name", sorted(MULTI_CHAIN_CASES))
    def test_named_cases(self, semiring, name):
        forest = random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=17)
        other = random_forest(semiring, num_trees=2, depth=3, fanout=2, seed=18)
        store = DocumentStore(semiring)
        store.ingest("doc", forest)
        query = MULTI_CHAIN_CASES[name]
        env = {"__nav0": other} if "$__nav0/" in query else {}
        prepared = prepare_query(query, semiring, {"S": forest, **env})
        assert store.query(query, env=env) == prepared.evaluate({"S": forest, **env})
        assert store.stats().pushdowns == 1
