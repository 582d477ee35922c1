"""Navigation pushdown: serve the step-chain prefix of a plan from indexes.

A stored document is queried through a compiled
:class:`~repro.uxquery.engine.PreparedQuery`, but most query shapes start by
*navigating* — ``element out { $S//c }``, ``for $x in $S/a return ...`` — and
navigation is exactly what the structural indexes answer without touching
the rest of the document.  This module splits a prepared query's core form
into

* a **navigation prefix**: the unique downward step chain applied to the
  document variable (possibly empty — a bare ``$S`` occurrence), and
* a **residual query**: the core form with every occurrence of that chain
  replaced by a fresh forest variable.

The split is *exact by construction*: the replaced subexpression's value is
computed once (from the indexes, whose step semantics agree with the
direct/NRC/Datalog semantics for every registry semiring — see
:mod:`repro.store.index`) and substituted for a free subexpression, which is
just compositional evaluation.  What is *gated statically* is whether the
split applies at all:

* every free occurrence of the document variable must be the source of the
  **same** step chain (mixed chains such as ``($S/a, $S//b)`` fall back);
* only downward axes appear in a chain (guaranteed by the language);
* the reserved residual variable must not already occur in the query.

When the recognizer declines, the store transparently **falls back to the
single-shot path** — evaluating the unmodified prepared plan against the
stored forest — so pushdown can never change a result, only its cost.
Recognition, pushdown and fallback counts are reported in the store stats.

Residual plans (and the single-shot fallback) compile through the store's
plan cache and therefore through the engine's full two-stage pipeline: the
residual executes as source-generated bytecode (``nrc-codegen``) whenever it
is straight-line, closures otherwise — observable on the plan's
``generated.calls`` counter.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Mapping, NamedTuple, Optional, Tuple

from repro.errors import StoreError
from repro.obs.events import emit
from repro.obs.trace import span
from repro.store.index import StructuralIndex
from repro.uxquery.ast import (
    AnnotExpr,
    ElementExpr,
    EmptySeq,
    ForExpr,
    IfEqExpr,
    LabelExpr,
    LetExpr,
    NameExpr,
    PathExpr,
    Query,
    Sequence,
    Step,
    VarExpr,
    iter_query,
)
from repro.uxquery.engine import PreparedQuery
from repro.uxquery.typecheck import FOREST

__all__ = ["NAV_VAR", "NavigationSplit", "split_navigation", "PushdownExecutor"]

#: The reserved variable the navigation result is bound to in residual plans.
NAV_VAR = "__nav"


class NavigationSplit(NamedTuple):
    """A recognized navigation prefix and the residual query around it."""

    steps: Tuple[Step, ...]
    residual: Query
    trivial: bool  # residual is exactly ``$__nav`` — no residual evaluation

    def describe(self) -> str:
        chain = "".join(f"/{step}" for step in self.steps) or "(whole document)"
        return f"{chain} -> {self.residual}"


def _match_chain(query: Query, var: str, bound: frozenset) -> Optional[Tuple[Step, ...]]:
    """``query`` as a pure step chain over a free ``$var``, else ``None``.

    Handles nested ``PathExpr`` sources and the ``($S)`` singleton-sequence
    wrapping the parser produces around forest-typed parenthesized sources
    (the union of one forest is that forest).
    """
    if isinstance(query, VarExpr):
        return () if query.name == var and var not in bound else None
    if isinstance(query, PathExpr):
        inner = _match_chain(query.source, var, bound)
        if inner is None:
            return None
        return inner + query.steps
    if isinstance(query, Sequence) and len(query.items) == 1:
        return _match_chain(query.items[0], var, bound)
    return None


def split_navigation(core: Query, var: str) -> Optional[NavigationSplit]:
    """Split ``core`` into one navigation chain over ``$var`` and a residual.

    Returns ``None`` — meaning *fall back to single-shot evaluation* — when
    the free occurrences of ``var`` are not all the source of one identical
    chain, when ``var`` does not occur at all, or when the reserved residual
    variable already appears in the query.
    """
    for node in iter_query(core):
        if isinstance(node, VarExpr) and node.name == NAV_VAR:
            return None
        if isinstance(node, (ForExpr, LetExpr)) and any(
            name == NAV_VAR for name, _ in node.bindings
        ):
            return None

    chains: list[Tuple[Step, ...]] = []

    def rewrite(query: Query, bound: frozenset) -> Query:
        chain = _match_chain(query, var, bound)
        if chain is not None:
            chains.append(chain)
            return VarExpr(NAV_VAR)
        if isinstance(query, (LabelExpr, EmptySeq, VarExpr)):
            return query
        if isinstance(query, Sequence):
            return Sequence(tuple(rewrite(item, bound) for item in query.items))
        if isinstance(query, ForExpr):
            if query.condition is not None:
                # Conditions are surface syntax; core forms have none.  Be
                # conservative rather than rewriting inside one.
                raise _Unsplittable
            inner = bound
            bindings = []
            for name, expr in query.bindings:
                bindings.append((name, rewrite(expr, inner)))
                inner = inner | {name}
            return ForExpr(tuple(bindings), rewrite(query.body, inner), None)
        if isinstance(query, LetExpr):
            inner = bound
            bindings = []
            for name, expr in query.bindings:
                bindings.append((name, rewrite(expr, inner)))
                inner = inner | {name}
            return LetExpr(tuple(bindings), rewrite(query.body, inner))
        if isinstance(query, IfEqExpr):
            return IfEqExpr(
                rewrite(query.left, bound),
                rewrite(query.right, bound),
                rewrite(query.then, bound),
                rewrite(query.orelse, bound),
            )
        if isinstance(query, ElementExpr):
            return ElementExpr(rewrite(query.name, bound), rewrite(query.content, bound))
        if isinstance(query, NameExpr):
            return NameExpr(rewrite(query.expr, bound))
        if isinstance(query, AnnotExpr):
            return AnnotExpr(query.annotation, rewrite(query.expr, bound))
        if isinstance(query, PathExpr):
            return PathExpr(rewrite(query.source, bound), query.steps)
        raise _Unsplittable

    try:
        residual = rewrite(core, frozenset())
    except _Unsplittable:
        return None
    if not chains or len(set(chains)) != 1:
        return None
    trivial = isinstance(residual, VarExpr) and residual.name == NAV_VAR
    return NavigationSplit(chains[0], residual, trivial)


class _Unsplittable(Exception):
    """Internal: the core form contains a node the splitter does not model."""


class PushdownExecutor:
    """Run prepared queries against a structural index, pushing navigation down.

    One executor per store: it memoizes the (plan, variable) -> split
    analysis, compiles residual plans through the store's plan cache, and
    counts how queries were served (``pushdowns`` — served via the indexes,
    of which ``full_pushdowns`` needed no residual evaluation at all — vs
    ``fallbacks`` — the single-shot path).
    """

    #: Bound on memoized split analyses (mirrors the plan cache it fronts —
    #: unbounded growth would leak on per-request query texts).
    SPLIT_CACHE_SIZE = 256

    def __init__(self, plan_cache):
        self._plan_cache = plan_cache
        self._splits: "OrderedDict[tuple, Optional[NavigationSplit]]" = OrderedDict()
        self.pushdowns = 0
        self.full_pushdowns = 0
        self.fallbacks = 0

    # ---------------------------------------------------------------- analysis
    def split_for(self, prepared: PreparedQuery, var: str) -> Optional[NavigationSplit]:
        # Keyed on the core AST itself (Query nodes hash/compare structurally):
        # distinct queries can share a rendering, so a string key could serve
        # one query the split — and hence the residual — of another.  The
        # declared type of the document variable is part of the key because
        # the FOREST gate below depends on it.
        key = (prepared.core, var, prepared.env_types.get(var), prepared.semiring)
        if key in self._splits:
            self._splits.move_to_end(key)
            return self._splits[key]
        if var in prepared.env_types and prepared.env_types[var] != FOREST:
            split = None  # a tree/label-typed document var
        else:
            split = split_navigation(prepared.core, var)
        self._splits[key] = split
        while len(self._splits) > self.SPLIT_CACHE_SIZE:
            self._splits.popitem(last=False)
        return split

    # -------------------------------------------------------------- execution
    def execute(
        self,
        prepared: PreparedQuery,
        index: StructuralIndex,
        var: str,
        env: Mapping[str, Any] | None = None,
    ) -> Tuple[Any, str, Optional[PreparedQuery]]:
        """Evaluate ``prepared`` over the stored document behind ``index``.

        Returns ``(result, how, plan)``.  The result is exactly
        ``prepared.evaluate({**env, var: document})`` for every query and
        semiring.  ``how`` says how the call was served — ``"fallback"``
        (single-shot, when the static split declines), ``"pushdown"``
        (index-served prefix + residual) or ``"full-pushdown"`` (index
        only) — and ``plan`` is the plan that ran: ``prepared`` itself, the
        residual plan, or ``None`` for a full pushdown.
        """
        if prepared.semiring != index.semiring:
            raise StoreError(
                f"query over {prepared.semiring.name} cannot run against a "
                f"store over {index.semiring.name}"
            )
        extra = {name: value for name, value in (env or {}).items() if name != var}
        if NAV_VAR in extra:
            raise StoreError(f"environment must not bind the reserved ${NAV_VAR}")
        with span("store.query.split", var=var):
            split = self.split_for(prepared, var)
        if split is None:
            self.fallbacks += 1
            emit("store.pushdown_fallback", var=var, semiring=prepared.semiring.name)
            with span("store.query.fallback"):
                bindings = dict(extra)
                bindings[var] = index.forest()
                return prepared.evaluate(bindings), "fallback", prepared
        with span("store.query.navigate", steps=len(split.steps)):
            navigated = index.navigate(split.steps)
        self.pushdowns += 1
        if split.trivial:
            self.full_pushdowns += 1
            return navigated, "full-pushdown", None
        with span("store.query.residual"):
            residual_types = {
                name: kind for name, kind in prepared.env_types.items() if name != var
            }
            residual_types[NAV_VAR] = FOREST
            residual_plan = self._plan_cache.get(
                split.residual, prepared.semiring, env_types=residual_types
            )
            bindings = dict(extra)
            bindings[NAV_VAR] = navigated
            return residual_plan.evaluate(bindings), "pushdown", residual_plan
