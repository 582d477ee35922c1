"""Delta plans: differentiate a simplified NRC_K plan with respect to the
document variable.

The free-semimodule structure of K-collections (Appendix A) makes many query
plans *additive* in the document: writing the query as ``f($S)``, whenever
``f(D U Delta) = f(D) U g(D, Delta)`` holds with ``g`` cheap in ``|Delta|``,
a materialized result of ``f`` can be maintained by evaluating ``g`` instead
of re-running ``f``.  This module computes ``g`` — the **delta plan** — by
structural differentiation of the simplified NRC_K + srt form:

* ``delta($S) = $Delta``; a subplan not mentioning ``$S`` differentiates
  to ``{}``;
* ``delta(e1 U e2) = delta(e1) U delta(e2)`` and
  ``delta(k e) = k delta(e)`` — union and scaling are linear;
* ``delta(U(x in src) body)`` distributes through whichever side mentions
  ``$S``; when **both** do (a self-join shape), the big union is *bilinear*
  and the product rule applies::

      delta = U(x in src[S := S_old]) delta(body)
            U U(x in delta(src)) body[S := S_new]

  which is exact in every semiring because bind distributes over union in
  both arguments (no idempotence needed);
* conditionals differentiate branch-wise when ``$S`` stays out of the
  compared labels; ``let``-bound *aliases* of ``$S`` are inlined first, and a
  ``let`` whose bound value is ``$S``-free differentiates in its body;
* every value constructor (singleton, tree, pair, projection, ``srt``, ...)
  with ``$S`` underneath is **non-incremental**: wrapping the whole document
  in a value admits no member-wise delta, so the view falls back to
  recomputation.

The derived expression mentions at most three fresh variables: the delta
itself, and — only in the bilinear case — the old and the new document.  A
plan whose delta needs neither is classified :data:`LINEAR`; needing them is
:data:`BILINEAR`; underivable plans are :data:`NON_INCREMENTAL`.

The delta expression is itself simplified with the Appendix A axioms and
compiled **once**, over the base semiring ``K``.  That one program serves
every delta: ``g(D, Delta)`` is exact for any added forest, so over a
semiring with exact subtraction a delta that deletes or re-annotates is
split into its insertions ``Delta+`` and removals ``Delta-`` (the counting
algorithm of Gupta, Mumick & Subrahmanian, SIGMOD 1993).  With
``U = D U Delta+ = D'' U Delta-``, the view adds ``g(Delta+; old=D, new=U)``
and subtracts ``g(Delta-; old=D'', new=U)`` member-wise
(:mod:`repro.ivm.view`).  The compilation goes through the same two-stage
pipeline as query plans: the source-codegen evaluator
(:mod:`repro.nrc.codegen`) when the delta expression is straight-line
(child-chain and join shapes; descendant plans keep their ``srt`` inside
the delta and fall back), with the closure-compiled form
(:mod:`repro.nrc.compile_eval`) as automatic fallback, so view maintenance
executes generated bytecode whenever the plan admits it.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import IVMError
from repro.kcollections.kset import KSet
from repro.nrc.ast import (
    BigUnion,
    EmptySet,
    Expr,
    IfEq,
    Let,
    Scale,
    Union,
    Var,
    free_variables,
    iter_subexpressions,
    substitute,
)
from repro.nrc.codegen import CodegenProgram, compile_program
from repro.nrc.compile_eval import CompiledExpr, compile_expr
from repro.nrc.rewrite import simplify
from repro.uxquery.engine import PreparedQuery
from repro.uxquery.typecheck import FOREST

__all__ = [
    "LINEAR",
    "BILINEAR",
    "NON_INCREMENTAL",
    "CLASSIFICATIONS",
    "derive_delta",
    "DeltaPlan",
]

#: The delta plan only reads the delta; maintenance cost is O(|delta result|).
LINEAR = "linear"
#: The delta plan also reads the old and/or new document (self-join shapes).
BILINEAR = "bilinear"
#: No delta plan exists; the view recomputes on every update.
NON_INCREMENTAL = "non-incremental"

CLASSIFICATIONS = (LINEAR, BILINEAR, NON_INCREMENTAL)


class _NonIncremental(Exception):
    """Internal: raised where the derivative rules give up."""


def _fresh_names(expr: Expr, var: str) -> tuple[str, str, str]:
    """Names for the delta / old / new variables, fresh for ``expr``."""
    taken = set(free_variables(expr))
    for node in iter_subexpressions(expr):
        if isinstance(node, BigUnion) or isinstance(node, Let):
            taken.add(node.var)
        elif hasattr(node, "label_var"):  # Srt
            taken.add(node.label_var)
            taken.add(node.acc_var)
    names = []
    for suffix in ("delta", "old", "new"):
        candidate = f"{var}@{suffix}"
        while candidate in taken:
            candidate += "'"
        taken.add(candidate)
        names.append(candidate)
    return tuple(names)


def _union(left: Expr, right: Expr) -> Expr:
    if isinstance(left, EmptySet):
        return right
    if isinstance(right, EmptySet):
        return left
    return Union(left, right)


def derive_delta(
    expr: Expr, var: str
) -> tuple[Expr, str, str, str, str] | None:
    """Differentiate ``expr`` with respect to the collection variable ``var``.

    Returns ``(delta_expr, classification, delta_var, old_var, new_var)``
    with ``classification`` in {:data:`LINEAR`, :data:`BILINEAR`}, or ``None``
    when the expression is non-incremental in ``var``.  ``expr`` must be
    collection-valued (the caller guarantees forest-typed plans).
    """
    delta_var, old_var, new_var = _fresh_names(expr, var)

    def derive(node: Expr) -> Expr:
        if var not in free_variables(node):
            return EmptySet()
        if isinstance(node, Var):  # node.name == var, since var is free in it
            return Var(delta_var)
        if isinstance(node, Union):
            return _union(derive(node.left), derive(node.right))
        if isinstance(node, Scale):
            inner = derive(node.expr)
            return inner if isinstance(inner, EmptySet) else Scale(node.scalar, inner)
        if isinstance(node, BigUnion):
            in_source = var in free_variables(node.source)
            in_body = node.var != var and var in free_variables(node.body)
            if in_source and not in_body:
                return BigUnion(node.var, derive(node.source), node.body)
            if in_body and not in_source:
                return BigUnion(node.var, node.source, derive(node.body))
            # Bilinear: the product rule, exact in every semiring.
            old_term = BigUnion(
                node.var, substitute(node.source, var, Var(old_var)), derive(node.body)
            )
            new_term = BigUnion(
                node.var, derive(node.source), substitute(node.body, var, Var(new_var))
            )
            return _union(old_term, new_term)
        if isinstance(node, IfEq):
            if var in free_variables(node.left) or var in free_variables(node.right):
                raise _NonIncremental(
                    f"${var} occurs in a compared label of a conditional"
                )
            return IfEq(node.left, node.right, derive(node.then), derive(node.orelse))
        if isinstance(node, Let):
            if isinstance(node.value, Var) and node.value.name == var:
                # A let-bound alias of the document: inline it and go on.
                return derive(substitute(node.body, node.var, Var(var)))
            if var not in free_variables(node.value):
                return Let(node.var, node.value, derive(node.body))
            raise _NonIncremental(
                f"${var} flows into a let-bound value that is not an alias"
            )
        # Singleton, TreeExpr, PairExpr, Proj, Tag, Kids, Srt, LabelLit:
        # a value constructor (or label position) over the document.
        raise _NonIncremental(
            f"${var} occurs under {type(node).__name__}, which has no "
            "member-wise delta"
        )

    try:
        delta_expr = derive(expr)
    except _NonIncremental:
        return None
    free = free_variables(delta_expr)
    classification = BILINEAR if (old_var in free or new_var in free) else LINEAR
    return delta_expr, classification, delta_var, old_var, new_var


class DeltaPlan:
    """The compiled maintenance strategy for one prepared query + document var.

    Construction never fails: queries that cannot be differentiated (or whose
    result is not a forest) get a plan classified :data:`NON_INCREMENTAL`
    whose only strategy is recomputation, with the reason recorded in
    :attr:`reason`.  Like the query plans it derives from, a delta plan is
    immutable and safe to evaluate repeatedly and concurrently.
    """

    def __init__(self, prepared: PreparedQuery, var: str):
        self.prepared = prepared
        self.var = var
        self.semiring = prepared.semiring
        self.delta_expr: Expr | None = None
        self.compiled: CompiledExpr | None = None
        self.generated: CodegenProgram | None = None
        self.program: CompiledExpr | CodegenProgram | None = None
        self.delta_var = self.old_var = self.new_var = None
        self.needs_old = self.needs_new = False
        self.reason: str | None = None
        if prepared.result_type != FOREST:
            self.classification = NON_INCREMENTAL
            self.reason = (
                f"result type is {prepared.result_type!r}, not a forest; "
                "only K-set results merge member-wise"
            )
            return
        derivation = derive_delta(prepared.nrc_simplified, var)
        if derivation is None:
            self.classification = NON_INCREMENTAL
            self.reason = (
                f"the plan is not differentiable in ${var} "
                "(the document flows into a value constructor)"
            )
            return
        delta_expr, self.classification, self.delta_var, self.old_var, self.new_var = derivation
        self.delta_expr = simplify(delta_expr, self.semiring)
        self.compiled = compile_expr(self.delta_expr, self.semiring)
        # Same two-stage compilation as query plans: generated bytecode when
        # the delta expression is straight-line, closures as fallback (both
        # for declined generation and for runtime foreign collections).
        self.program, self.generated, _ = compile_program(
            self.delta_expr, self.semiring, self.compiled
        )
        free = self.compiled.free_variables
        self.needs_old = self.old_var in free
        self.needs_new = self.new_var in free

    # ------------------------------------------------------------ evaluation
    def evaluate_insertions(
        self,
        insertions: KSet,
        old_document: KSet,
        new_document: KSet,
        env: Mapping[str, Any] | None = None,
    ) -> KSet:
        """``g(insertions; old, new)``: what adding ``insertions`` to
        ``old_document`` (giving ``new_document``) adds to the result.

        Views call it for the members a delta removes too, with the
        post-removal document as ``old_document``: the change such an
        insertion would make is what the removal takes away.
        """
        if self.classification == NON_INCREMENTAL:
            raise IVMError(f"no delta plan: {self.reason}")
        bindings = dict(env) if env else {}
        bindings[self.delta_var] = insertions
        if self.needs_old:
            bindings[self.old_var] = old_document
        if self.needs_new:
            bindings[self.new_var] = new_document
        return _expect_kset(self.program.evaluate(bindings), self.semiring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DeltaPlan {self.classification} in ${self.var} "
            f"of {self.prepared!r}>"
        )


def _expect_kset(value: Any, semiring) -> KSet:
    if not isinstance(value, KSet) or value.semiring != semiring:
        raise IVMError(
            f"delta plan produced {value!r}, expected a K-set over {semiring.name}"
        )
    return value
