"""Batched evaluation: one prepared query against many documents.

:class:`BatchEvaluator` runs one :class:`PreparedQuery` over many documents
in one call, with one guard and one query-log record for the whole batch.
Each document runs through the plan's own method dispatch, so only the
program's ``evaluate`` sets up frames, falls back on foreign collections and
counts generated-program ``calls``.  The persistent ``srt`` memo tables of
the compiled form are shared across the whole batch automatically, since
they survive between evaluations: recursion results computed for one
document are reused for structurally identical subtrees of every later
document.

Two collection shapes are offered:

* :meth:`BatchEvaluator.evaluate_many` — one result per document, in order
  (what a request/response service wants);
* :meth:`BatchEvaluator.evaluate_merged` — the pointwise union of all
  per-document K-set results, accumulated with the trusted
  :meth:`~repro.kcollections.kset.KSet._accumulate_normalized` fast path
  instead of per-document public constructors.

The guarded loop (:func:`run_guarded`) and the exact merge
(:func:`merge_ksets`) also serve the store's ``query_many``, which runs
each document through the index like its one-document ``query``.

Batches run inline, in the calling thread, with one guard around the whole
batch: evaluation is pure Python under the GIL, so fanning documents out
over a thread pool ran at 0.86–1.02x the inline loop (and a process pool at
0.12–0.68x) on a two-core host, and neither is offered.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ExecError
from repro.kcollections.kset import KSet
from repro.obs.qlog import observe
from repro.obs.trace import span
from repro.resilience.limits import EvalLimits, LimitGuard, activate
from repro.semirings.base import Semiring
from repro.uxquery.engine import DEFAULT_METHOD, PreparedQuery, validate_method
from repro.uxquery.typecheck import FOREST

__all__ = ["BatchEvaluator", "infer_document_var", "run_guarded", "merge_ksets"]


def infer_document_var(prepared: PreparedQuery) -> str:
    """The variable a batch of documents should be bound to.

    Preference order: the unique forest-typed environment variable, then the
    conventional ``S``, then the unique free variable of the compiled form.
    Ambiguity is an error — pass ``var=`` explicitly.
    """
    free = set(prepared.compiled.free_variables)
    forests = sorted(name for name in free if prepared.env_types.get(name) == FOREST)
    if len(forests) == 1:
        return forests[0]
    if "S" in free:
        return "S"
    if len(free) == 1:
        return next(iter(free))
    raise ExecError(
        "cannot infer the document variable "
        f"(free variables: {sorted(free) or 'none'}); pass var= explicitly"
    )


def run_guarded(run: Callable[[Any], Any], items: list, guard: LimitGuard | None) -> list:
    """Run ``run`` over the items in order, under ``guard`` when armed.

    One activation covers the whole loop, so one deadline bounds the
    batch; each item's result is charged as it completes.
    """
    if guard is None:
        return [run(item) for item in items]
    results = []
    with activate(guard):
        for item in items:
            results.append(run(item))
            guard.check_result(results[-1])
    return results


def merge_ksets(
    results: Iterable[Any], semiring: Semiring, guard: LimitGuard | None = None
) -> KSet:
    """The exact pointwise union of K-set ``results`` over ``semiring``.

    Their items are already coerced and normalized, so the merge runs
    through the trusted :meth:`KSet._accumulate_normalized` n-ary sum.  The
    merged K-set is charged against ``guard``'s row and byte budgets, as
    single-shot evaluation over the union forest would charge it.
    """
    results = list(results)
    for result in results:
        if not isinstance(result, KSet) or result.semiring != semiring:
            raise ExecError(
                f"a merge needs forest/K-set results over {semiring.name}; got {result!r}"
            )
    merged = KSet._accumulate_normalized(
        semiring, itertools.chain.from_iterable(result.items() for result in results)
    )
    if guard is not None:
        guard.check_result(merged)
    return merged


class BatchEvaluator:
    """Run one :class:`PreparedQuery` against many documents in a single call."""

    def __init__(self, prepared: PreparedQuery, var: str | None = None):
        self.prepared = prepared
        if var is None:
            var = infer_document_var(prepared)
        elif var not in prepared.compiled.free_variables:
            # An unbound document variable would silently evaluate the same
            # constant result once per document.
            free = sorted(prepared.compiled.free_variables)
            raise ExecError(
                f"${var} is not a free variable of the query "
                f"(free variables: {free or 'none'}); documents bound to it "
                "would be ignored"
            )
        self.var = var

    def evaluate_many(
        self,
        documents: Iterable[Any],
        env: Mapping[str, Any] | None = None,
        method: str = DEFAULT_METHOD,
        limits: EvalLimits | LimitGuard | None = None,
    ) -> list:
        """Evaluate against every document, returning results in order.

        ``env`` supplies bindings for every free variable other than the
        document variable (a binding for the document variable itself is
        ignored — each document takes its place).  ``limits=`` guards the
        whole batch with one deadline and charges every per-document result
        against the row and byte budgets; an armed guard shares its deadline.
        """
        # One record per batch call: the per-document runs below go through
        # the plan's method dispatch, never an observed evaluate().
        with observe("exec.batch", self.prepared) as obs:
            validate_method(method)
            documents = list(documents)
            guard = limits.start() if limits is not None and limits.is_bounded else None
            # Each run has read its bindings before the next document
            # replaces the document binding, so one dict serves them all.
            bindings = dict(env) if env else {}
            dispatch, var = self.prepared._dispatch, self.var

            def run(document: Any) -> Any:
                bindings[var] = document
                return dispatch(bindings, method)

            # The span name predates inline-only batches; storebench's layer
            # table attributes it to exec.batch by this name.
            with span("exec.batch.fan_out", documents=len(documents)):
                results = run_guarded(run, documents, guard)
            return obs.done(results, method=method)

    def evaluate_merged(
        self,
        documents: Iterable[Any],
        env: Mapping[str, Any] | None = None,
        method: str = DEFAULT_METHOD,
        limits: EvalLimits | LimitGuard | None = None,
    ) -> KSet:
        """The pointwise union of the per-document K-set results.

        Per-document results must be K-sets over the prepared semiring; they
        merge exactly through :func:`merge_ksets`.

        ``limits=`` bounds the batch as a whole: one guard's deadline covers
        every document and the merge, and the merged K-set, the batch's
        final result, is charged against the row and byte budgets too, as
        single-shot evaluation over the union forest would charge it.  The
        call's one query-log record carries the merged K-set, and a merge
        over budget writes none.
        """
        with observe("exec.batch", self.prepared) as obs:
            guard = limits.start() if limits is not None and limits.is_bounded else None
            results = self.evaluate_many(documents, env=env, method=method, limits=guard)
            merged = merge_ksets(results, self.prepared.semiring, guard)
            return obs.done(merged, method=method)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BatchEvaluator var=${self.var} of {self.prepared!r}>"
