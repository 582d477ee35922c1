"""Delta-plan derivation: classification and structure of derived plans."""

from __future__ import annotations

import pytest

from repro.errors import IVMError
from repro.ivm import BILINEAR, LINEAR, NON_INCREMENTAL, Delta, DeltaPlan, derive_delta
from repro.nrc.ast import (
    BigUnion,
    EmptySet,
    Let,
    Singleton,
    Union,
    Var,
    free_variables,
)
from repro.semirings import NATURAL
from repro.uxquery import prepare_query
from repro.workloads import random_forest

DOC = random_forest(NATURAL, num_trees=6, depth=3, fanout=2, seed=41)


def _plan(query, semiring=NATURAL, env=None):
    prepared = prepare_query(query, semiring, env or {"S": DOC})
    return DeltaPlan(prepared, "S")


class TestClassification:
    @pytest.mark.parametrize(
        "query",
        ["($S)/*", "($S)/*/*", "($S)//c", "for $x in $S return ($x)/*"],
    )
    def test_navigation_queries_are_linear(self, query):
        plan = _plan(query)
        assert plan.classification == LINEAR
        assert not plan.needs_old and not plan.needs_new

    def test_self_join_is_bilinear(self):
        plan = _plan("for $x in $S, $y in $S where $x = $y return ($x)")
        assert plan.classification == BILINEAR
        assert plan.needs_old or plan.needs_new

    def test_element_wrapper_is_non_incremental(self):
        plan = _plan("element out { ($S)/* }")
        assert plan.classification == NON_INCREMENTAL
        assert plan.reason and "forest" in plan.reason
        with pytest.raises(IVMError, match="no delta plan"):
            plan.evaluate_insertions(DOC, DOC, DOC)

    def test_document_ignoring_query_is_linear_with_empty_delta(self):
        plan = _plan("($T)/*", env={"S": DOC, "T": DOC})
        assert plan.classification == LINEAR
        assert isinstance(plan.delta_expr, EmptySet)

    def test_let_alias_is_linear(self):
        plan = _plan("let $d := $S return ($d)/*")
        assert plan.classification == LINEAR

    def test_constant_union_side_is_linear_for_any_semiring(self):
        # The delta of a constant is simply {} — no idempotence needed,
        # even over non-idempotent N.
        plan = _plan("( ($S)/*, ($T)/* )", env={"S": DOC, "T": DOC})
        assert plan.classification == LINEAR


class TestDerivativeStructure:
    def test_var_derives_to_delta_var(self):
        expr, classification, delta_var, old_var, new_var = derive_delta(Var("S"), "S")
        assert expr == Var(delta_var)
        assert classification == LINEAR

    def test_union_derives_pointwise(self):
        expr, classification, delta_var, _, _ = derive_delta(
            Union(Var("S"), Var("T")), "S"
        )
        assert expr == Var(delta_var)  # the constant side dropped out
        assert classification == LINEAR

    def test_bilinear_product_rule_mentions_old_and_new(self):
        # U(x in S) U(y in S) {x}  — both source and (transitively) body.
        inner = BigUnion("y", Var("S"), Singleton(Var("x")))
        outer = BigUnion("x", Var("S"), inner)
        expr, classification, delta_var, old_var, new_var = derive_delta(outer, "S")
        assert classification == BILINEAR
        free = free_variables(expr)
        assert delta_var in free
        assert old_var in free or new_var in free

    def test_fresh_names_avoid_collisions(self):
        # An expression already using the candidate names forces renaming.
        expr = Union(Var("S"), Union(Var("S@delta"), Var("S@old")))
        derived, _, delta_var, old_var, _ = derive_delta(expr, "S")
        assert delta_var not in ("S@delta", "S@old")
        assert old_var not in ("S@delta", "S@old")

    def test_constructors_are_non_incremental(self):
        assert derive_delta(Singleton(Var("S")), "S") is None

    def test_let_alias_inlined_let_value_rejected(self):
        aliased = Let("d", Var("S"), BigUnion("x", Var("d"), Singleton(Var("x"))))
        derived = derive_delta(aliased, "S")
        assert derived is not None and derived[1] == LINEAR
        wrapped = Let("d", Singleton(Var("S")), Var("d"))
        assert derive_delta(wrapped, "S") is None


class TestDeltaEvaluation:
    def test_linear_delta_equals_result_difference(self):
        plan = _plan("($S)//c")
        prepared = plan.prepared
        addition = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=99)
        old = prepared.evaluate({"S": DOC})
        new = prepared.evaluate({"S": DOC.union(addition)})
        change = plan.evaluate_insertions(addition, DOC, DOC.union(addition))
        assert old.union(change) == new

    def test_removal_identity_on_a_bilinear_plan(self):
        # What removing d- takes away is what inserting it into the
        # remainder adds: Q(D'') + g(d-; old=D'', new=D) == Q(D).
        plan = _plan("for $x in $S, $y in $S where $x = $y return ($x)")
        assert plan.classification == BILINEAR
        prepared = plan.prepared
        first, second = sorted(DOC.values(), key=repr)[:2]
        delta = Delta.deletion(NATURAL, first, DOC.annotation(first)) | Delta.deletion(
            NATURAL, second, 1
        )
        remaining = delta.apply_to(DOC)
        change = plan.evaluate_insertions(delta.deletions(), remaining, DOC)
        assert not change.is_empty()
        assert prepared.evaluate({"S": remaining}).union(change) == prepared.evaluate(
            {"S": DOC}
        )
