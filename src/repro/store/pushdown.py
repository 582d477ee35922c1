"""Navigation pushdown: serve every step chain of a plan from indexes.

A stored document is queried through a compiled
:class:`~repro.uxquery.engine.PreparedQuery`, but most query shapes start by
*navigating* — ``element out { $S//c }``, ``for $x in $S/a return ...`` — and
navigation is exactly what the structural indexes answer without touching
the rest of the document.  This module splits a prepared query's core form
into

* its **navigations**: each distinct downward step chain applied to the
  document variable (possibly empty — a bare ``$S`` occurrence is the whole
  document), and
* a **residual query**: the core form with every occurrence of a chain
  replaced by that chain's own forest variable, ``$__nav0``, ``$__nav1``,
  ... (named fresh for the query: the first names it does not use).

``element out { ($S/a, $S//c) }`` navigates ``$S/a`` and ``$S//c`` once
each and evaluates ``element out { ($__nav0, $__nav1) }``; serving several
chains from one index and combining their results in a residual is the
structural-join setting (Al-Khalifa et al., "Structural Joins", ICDE 2002).

The split is *exact by construction*: each replaced subexpression's value
is computed once (from the indexes, whose step semantics agree with the
direct/NRC/Datalog semantics for every registry semiring — see
:mod:`repro.store.index`) and substituted for a free subexpression, which is
just compositional evaluation.  The only static condition is that every
free occurrence of the document variable heads some chain, and every core
form meets it, because a bare variable is the empty chain.  So every query
is served this way: a query whose residual is one chain's variable is
answered by the indexes alone (a *full pushdown*), and a query that never
mentions the document variable is a residual with no navigation.

Residual plans compile through the store's plan cache and therefore through
the engine's full two-stage pipeline: the residual executes as
source-generated bytecode (``nrc-codegen``) whenever it is straight-line,
closures otherwise — observable on the plan's ``generated.calls`` counter.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Mapping, NamedTuple, Optional, Tuple

from repro.errors import StoreError
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

__all__ = ["NAV_PREFIX", "NavigationSplit", "split_navigation", "PushdownExecutor"]

#: Residual variables are this prefix plus a number: ``$__nav0``, ``$__nav1``.
NAV_PREFIX = "__nav"


class NavigationSplit(NamedTuple):
    """The navigations of a query and the residual query around them."""

    #: ``(residual variable, step chain)`` per distinct chain, in order of
    #: first occurrence.
    chains: Tuple[Tuple[str, Tuple[Step, ...]], ...]
    residual: Query
    trivial: bool  # the residual is one chain's variable — no residual evaluation


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


def _fresh_names(core: Query):
    """``__nav0``, ``__nav1``, ... skipping every variable ``core`` uses."""
    used = set()
    for node in iter_query(core):
        if isinstance(node, VarExpr):
            used.add(node.name)
        elif isinstance(node, (ForExpr, LetExpr)):
            used.update(name for name, _ in node.bindings)
    number = 0
    while True:
        name = f"{NAV_PREFIX}{number}"
        if name not in used:
            yield name
        number += 1


def split_navigation(core: Query, var: str) -> NavigationSplit:
    """Split ``core`` into its step chains over ``$var`` and a residual.

    Every free occurrence of ``$var`` heads a chain (at least the empty
    one), so every core form splits; occurrences of one chain share one
    residual variable.  Raises :class:`~repro.errors.StoreError` on a
    surface form (a ``for`` with a ``where`` condition), which
    normalization removes from every prepared plan.
    """
    names = _fresh_names(core)
    chains: dict[Tuple[Step, ...], str] = {}

    def rewrite(query: Query, bound: frozenset) -> Query:
        chain = _match_chain(query, var, bound)
        if chain is not None:
            if chain not in chains:
                chains[chain] = next(names)
            return VarExpr(chains[chain])
        if isinstance(query, (LabelExpr, EmptySeq, VarExpr)):
            return query
        if isinstance(query, Sequence):
            return Sequence(tuple(rewrite(item, bound) for item in query.items))
        if isinstance(query, (ForExpr, LetExpr)):
            if isinstance(query, ForExpr) and query.condition is not None:
                raise StoreError(f"not a core form (a where condition): {query}")
            inner = bound
            bindings = []
            for name, expr in query.bindings:
                bindings.append((name, rewrite(expr, inner)))
                inner = inner | {name}
            return type(query)(tuple(bindings), rewrite(query.body, inner))
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
        raise StoreError(f"not a core form: {query!r}")

    residual = rewrite(core, frozenset())
    trivial = len(chains) == 1 and residual == VarExpr(next(iter(chains.values())))
    return NavigationSplit(
        tuple((name, chain) for chain, name in chains.items()), residual, trivial
    )


class PushdownExecutor:
    """Run prepared queries against a structural index, pushing navigation down.

    One executor per store: it memoizes the (plan, variable) -> split
    analysis, compiles residual plans through the store's plan cache, and
    counts the queries it served (``pushdowns``, of which
    ``full_pushdowns`` needed no residual evaluation at all).
    """

    #: Bound on memoized split analyses (mirrors the plan cache it fronts —
    #: unbounded growth would leak on per-request query texts).
    SPLIT_CACHE_SIZE = 256

    def __init__(self, plan_cache):
        self._plan_cache = plan_cache
        self._splits: "OrderedDict[tuple, NavigationSplit]" = OrderedDict()
        self.pushdowns = 0
        self.full_pushdowns = 0

    # ---------------------------------------------------------------- analysis
    def split_for(self, prepared: PreparedQuery, var: str) -> NavigationSplit:
        """The memoized split of ``prepared`` over the document ``$var``.

        Raises :class:`~repro.errors.StoreError` when ``prepared`` types
        ``$var`` as anything but a forest: a stored document is a forest.
        """
        kind = prepared.env_types.get(var, FOREST)
        if kind != FOREST:
            raise StoreError(f"${var} is typed {kind}; a stored document is a {FOREST}")
        # Keyed on the core AST itself (Query nodes hash/compare structurally):
        # distinct queries can share a rendering, so a string key could serve
        # one query the split — and hence the residual — of another.
        key = (prepared.core, var)
        split = self._splits.get(key)
        if split is not None:
            self._splits.move_to_end(key)
            return split
        split = self._splits[key] = split_navigation(prepared.core, var)
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
        """Serve one query: :meth:`evaluate`, counted in the executor's stats."""
        result, how, plan = self.evaluate(prepared, index, var, env)
        self.pushdowns += 1
        if how == "full-pushdown":
            self.full_pushdowns += 1
        return result, how, plan

    def evaluate(
        self,
        prepared: PreparedQuery,
        index: StructuralIndex,
        var: str,
        env: Mapping[str, Any] | None = None,
    ) -> Tuple[Any, str, Optional[PreparedQuery]]:
        """Evaluate ``prepared`` over the stored document behind ``index``.

        Navigates each chain of the split once, then runs the residual.
        Returns ``(result, how, plan)``.  The result is exactly
        ``prepared.evaluate({**env, var: document})`` for every query and
        semiring.  ``how`` is ``"full-pushdown"`` when the indexes alone
        answered (``plan`` is then ``None``) and ``"pushdown"`` when the
        residual plan ``plan`` ran.
        """
        if prepared.semiring != index.semiring:
            raise StoreError(
                f"query over {prepared.semiring.name} cannot run against a "
                f"store over {index.semiring.name}"
            )
        with span("store.query.split", var=var):
            split = self.split_for(prepared, var)
        navigated = {}
        for name, steps in split.chains:
            with span("store.query.navigate", steps=len(steps)):
                navigated[name] = index.navigate(steps)
        if split.trivial:
            return navigated[split.chains[0][0]], "full-pushdown", None
        with span("store.query.residual"):
            # The residual variables are fresh for the query, so an
            # environment binding under one of their names is unused by it.
            residual_types = {
                name: kind for name, kind in prepared.env_types.items() if name != var
            }
            residual_types.update(dict.fromkeys(navigated, FOREST))
            residual_plan = self._plan_cache.get(
                split.residual, prepared.semiring, env_types=residual_types
            )
            bindings = {name: value for name, value in (env or {}).items() if name != var}
            bindings.update(navigated)
            return residual_plan.evaluate(bindings), "pushdown", residual_plan
