"""Unit coverage for the source-codegen evaluator (:mod:`repro.nrc.codegen`).

The exhaustive equivalence checks live in ``test_compile_eval_equiv.py``
(corpus x registry semirings, now including ``nrc-codegen``) and
``test_codegen_fuzz.py`` (randomized expressions); this file covers the
mechanics: the decline gates and their reasons, scoping/shadowing in the
generated locals, frame semantics (unbound-at-access), inline-op template
validation, and the engine-level wiring (default method, execution
counters).
"""

from __future__ import annotations

import pytest

from repro.errors import NRCEvalError, SemiringError
from repro.kcollections.kset import KSet
from repro.nrc.ast import (
    BigUnion,
    EmptySet,
    IfEq,
    Kids,
    LabelLit,
    Let,
    PairExpr,
    Proj,
    Scale,
    Singleton,
    Srt,
    Tag,
    TreeExpr,
    Union,
    Var,
)
from repro.nrc.codegen import (
    CodegenProgram,
    CodegenUnsupported,
    compile_codegen,
    codegen_stats,
    try_compile_codegen,
)
from repro.nrc.eval import evaluate as evaluate_interp
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE
from repro.semirings.base import Semiring
from repro.semirings.registry import available_semirings, get_semiring
from repro.uxml.tree import UTree, forest, leaf
from repro.uxquery import prepare_query
from repro.workloads import random_forest


def _sample_tree(semiring) -> UTree:
    a = leaf(semiring, "a")
    b = leaf(semiring, "b")
    inner = UTree("n", forest(semiring, a, b))
    return UTree("root", forest(semiring, inner, a))


# ---------------------------------------------------------------------------
# Node coverage and scoping
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("semiring_name", available_semirings())
def test_node_coverage_expression(semiring_name):
    semiring = get_semiring(semiring_name)
    tree = _sample_tree(semiring)
    expr = Let(
        "t",
        Var("input"),
        BigUnion(
            "x",
            Kids(Var("t")),
            IfEq(
                Tag(Var("x")),
                LabelLit("n"),
                Singleton(PairExpr(Tag(Var("x")), Proj(1, PairExpr(Var("x"), Var("x"))))),
                Union(
                    Singleton(PairExpr(LabelLit("other"), Var("x"))),
                    Scale(semiring.one, EmptySet()),
                ),
            ),
        ),
    )
    env = {"input": tree}
    interpreted = evaluate_interp(expr, semiring, env)
    program = compile_codegen(expr, semiring)
    assert program.evaluate(env) == interpreted
    assert program.evaluate(env) == interpreted  # second call: no state leak


def test_variable_shadowing_and_sibling_scopes():
    semiring = NATURAL
    source = KSet.from_values(semiring, ["x", "y"])
    expr = Union(
        BigUnion("v", Var("S"), Let("v", LabelLit("shadowed"), Singleton(Var("v")))),
        BigUnion("v", Var("S"), Singleton(Var("v"))),
    )
    env = {"S": source}
    interpreted = evaluate_interp(expr, semiring, env)
    assert compile_codegen(expr, semiring).evaluate(env) == interpreted
    assert interpreted.annotation("shadowed") == 2


def test_unbound_variable_raises_on_access_only():
    semiring = NATURAL
    guarded = IfEq(
        LabelLit("a"), LabelLit("a"), Singleton(LabelLit("ok")), Singleton(Var("missing"))
    )
    program = compile_codegen(guarded, semiring)
    assert program.evaluate({}) == evaluate_interp(guarded, semiring, {})
    with pytest.raises(NRCEvalError, match="unbound variable"):
        compile_codegen(Singleton(Var("missing")), semiring).evaluate({})


def test_free_variables_reported():
    expr = BigUnion("x", Var("S"), Singleton(PairExpr(Var("x"), Var("T"))))
    program = compile_codegen(expr, NATURAL)
    assert program.free_variables == {"S", "T"}


@pytest.mark.parametrize("semiring_name", ["natural", "provenance-polynomials", "subset-lattice"])
def test_scale_annihilation_and_units(semiring_name):
    semiring = get_semiring(semiring_name)
    source = KSet.from_values(semiring, ["a", "b"])
    for scalar in semiring.sample_elements():
        expr = Scale(scalar, Var("S"))
        env = {"S": source}
        assert compile_codegen(expr, semiring).evaluate(env) == evaluate_interp(
            expr, semiring, env
        )


def test_foreign_collection_raises_semiring_error():
    # A standalone program (no closure fallback attached) raises, exactly
    # like KSet's own algebra would.
    expr = BigUnion("x", Var("S"), Singleton(Var("x")))
    program = compile_codegen(expr, NATURAL)
    foreign = KSet.from_values(BOOLEAN, ["a"])
    with pytest.raises(SemiringError, match="different semirings"):
        program.evaluate({"S": foreign})


def test_foreign_collection_engine_parity_via_closure_fallback():
    """The engine contract: nrc-codegen agrees with nrc even on runtime
    foreign-semiring collections, where the closure evaluator's bespoke
    behavior (big unions delegate to the collection's semiring) defines the
    result — the generated program bails out and reruns the closures."""
    document = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=41)
    prepared = prepare_query("($S)/*", NATURAL, {"S": document})
    assert prepared.generated is not None
    foreign = random_forest(BOOLEAN, num_trees=2, depth=3, fanout=2, seed=41)
    via_closures = prepared.evaluate({"S": foreign}, method="nrc")
    assert via_closures.semiring == BOOLEAN
    assert prepared.evaluate({"S": foreign}, method="nrc-codegen") == via_closures
    assert prepared.evaluate({"S": foreign}) == via_closures
    # A batch runs each document through the same dispatch, foreign ones too.
    from repro.exec import BatchEvaluator

    mixed = [document, foreign, document]
    batched = BatchEvaluator(prepared).evaluate_many(mixed)
    assert batched == [prepared.evaluate({"S": doc}, method="nrc") for doc in mixed]


# ---------------------------------------------------------------------------
# Decline gates
# ---------------------------------------------------------------------------
def test_declines_srt_with_reason():
    expr = Srt("l", "acc", Singleton(TreeExpr(Var("l"), BigUnion("z", Var("acc"), Var("z")))), Var("t"))
    program, reason = try_compile_codegen(Kids(Var("t")), NATURAL)
    assert program is not None and reason is None
    program, reason = try_compile_codegen(expr, NATURAL)
    assert program is None
    assert "srt" in reason
    with pytest.raises(CodegenUnsupported, match="srt"):
        compile_codegen(expr, NATURAL)


def test_declines_non_canonical_semiring():
    class Sloppy(Semiring):
        name = "sloppy-test"
        ops_preserve_normal_form = False

        @property
        def zero(self):
            return 0

        @property
        def one(self):
            return 1

        def add(self, a, b):
            return a + b

        def mul(self, a, b):
            return a * b

        def is_valid(self, a):
            return isinstance(a, int) and a >= 0

    program, reason = try_compile_codegen(Singleton(LabelLit("a")), Sloppy())
    assert program is None
    assert "canonical form" in reason


def test_declines_foreign_scalar():
    program, reason = try_compile_codegen(Scale(object(), Var("S")), NATURAL)
    assert program is None
    assert "foreign" in reason


def test_counters_track_generation():
    before = codegen_stats()
    compile_codegen(Singleton(LabelLit("a")), NATURAL)
    try_compile_codegen(Srt("l", "a", Var("a"), Var("t")), NATURAL)
    after = codegen_stats()
    assert after["generated"] == before["generated"] + 1
    assert after["declined"] == before["declined"] + 1


# ---------------------------------------------------------------------------
# Inline-op template validation
# ---------------------------------------------------------------------------
def test_bad_inline_template_falls_back_to_bound_ops():
    class WrongTemplate(type(NATURAL)):
        name = "natural"  # same identity so KSets interoperate
        codegen_add = "({a} - {b})"  # disagrees with add on samples
        codegen_mul = "not even python ("  # does not compile

    semiring = WrongTemplate()
    expr = Union(Var("S"), Var("S"))
    program = compile_codegen(expr, semiring)
    source_forest = KSet(semiring, [("a", 2), ("b", 3)])
    result = program.evaluate({"S": source_forest})
    assert result.annotation("a") == 4  # the real add, not the bad template
    assert "_ADD(" in program.source and " - " not in program.source


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------
def test_prepared_query_defaults_to_generated_program():
    document = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=3)
    prepared = prepare_query("element out { $S/*/* }", NATURAL, {"S": document})
    assert prepared.generated is not None
    assert prepared.codegen_reason is None
    assert prepared.program is prepared.generated
    before = prepared.generated.calls
    env = {"S": document}
    assert prepared.evaluate(env) == prepared.evaluate(env, method="nrc")
    assert prepared.generated.calls > before


def test_prepared_query_falls_back_on_srt_plans():
    document = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=3)
    prepared = prepare_query("element out { $S//c }", NATURAL, {"S": document})
    assert prepared.generated is None
    assert "srt" in prepared.codegen_reason
    assert prepared.program is prepared.compiled
    env = {"S": document}
    # nrc-codegen never errors: it serves through the closure fallback.
    assert prepared.evaluate(env, method="nrc-codegen") == prepared.evaluate(
        env, method="nrc"
    )


@pytest.mark.parametrize("semiring_name", available_semirings())
def test_engine_codegen_equals_all_methods(semiring_name):
    semiring = get_semiring(semiring_name)
    document = random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=21)
    env = {"S": document}
    prepared = prepare_query("element out { $S/*/* }", semiring, env)
    results = {
        method: prepared.evaluate(env, method=method)
        for method in ("nrc-codegen", "nrc", "nrc-interp", "direct")
    }
    assert results["nrc-codegen"] == results["nrc"] == results["nrc-interp"]
    assert results["nrc-codegen"] == results["direct"]


def test_generated_program_is_picklable_free():
    """The program exposes the same frame protocol as CompiledExpr."""
    document = random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=5)
    prepared = prepare_query("($S)/*", NATURAL, {"S": document})
    generated = prepared.generated
    assert isinstance(generated, CodegenProgram)
    assert generated._num_slots == len(generated._free_slots) == 1
    assert set(generated._free_slots) == set(prepared.compiled.free_variables)
