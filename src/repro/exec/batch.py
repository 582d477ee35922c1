"""Batched evaluation: one prepared query against many documents.

Calling :meth:`PreparedQuery.evaluate` in a loop already reuses the compiled
closure tree, but every call still rebuilds the frame from the environment
dict.  :class:`BatchEvaluator` amortizes that too: the constant part of the
environment is materialized **once** into a frame template, and each document
evaluation copies the template and writes exactly one slot (the document
variable).  The persistent ``srt`` memo tables of the compiled form are shared
across the whole batch automatically — recursion results computed for one
document are reused for structurally identical subtrees of every later
document.

Two collection shapes are offered:

* :meth:`BatchEvaluator.evaluate_many` — one result per document, in order
  (what a request/response service wants);
* :meth:`BatchEvaluator.evaluate_merged` — the pointwise union of all
  per-document K-set results, accumulated with the trusted
  :meth:`~repro.kcollections.kset.KSet._accumulate_normalized` fast path
  instead of per-document public constructors (what merged store reads
  and batched view maintenance want).

The frame-template fast path serves both ``method="nrc-codegen"`` (the
source-generated program, when the plan has one — the default) and
``method="nrc"`` (the closure tree): the two program kinds share the frame
protocol, so one batch call runs **one generated function** across all
documents and bumps its execution counter in bulk.

Both run inline, in the calling thread, with one guard around the whole
batch: evaluation is pure Python under the GIL, so fanning documents out
over a thread pool ran at 0.86–1.02x the inline loop (and a process pool at
0.12–0.68x) on a two-core host, and neither is offered.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Mapping

from repro.errors import ExecError
from repro.kcollections.kset import KSet
from repro.nrc.codegen import CodegenProgram, _ForeignCollection, note_calls
from repro.nrc.compile_eval import _UNBOUND
from repro.obs.qlog import observe
from repro.obs.trace import span
from repro.resilience.limits import EvalLimits, LimitGuard, activate
from repro.uxquery.engine import DEFAULT_METHOD, PreparedQuery, validate_method
from repro.uxquery.typecheck import FOREST

__all__ = ["BatchEvaluator", "infer_document_var"]


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

    # ------------------------------------------------------------- execution
    def _program(self, method: str):
        """The frame-protocol program serving ``method`` on this plan.

        Delta-plan adapters expose their (possibly generated) program as
        ``compiled`` without a ``program_for``; fall through to it.
        """
        resolver = getattr(self.prepared, "program_for", None)
        if resolver is not None:
            return resolver(method)
        return self.prepared.compiled

    def _frame_template(self, program, env: Mapping[str, Any] | None) -> tuple[list, int | None]:
        """The shared frame (constant bindings filled in) and the document slot."""
        template = [_UNBOUND] * program._num_slots
        if env:
            for name, slot in program._free_slots.items():
                if name == self.var:
                    continue  # documents override any representative binding
                value = env.get(name, _UNBOUND)
                if value is not _UNBOUND:
                    template[slot] = value
        return template, program._free_slots.get(self.var)

    @staticmethod
    def _dispatch_runs(run, documents: list, guard: LimitGuard | None) -> list:
        """Run ``run`` over the documents in order, under ``guard`` when armed.

        One activation covers the whole loop, so one deadline bounds the
        batch; each document's result is charged as it completes.
        """
        # The span name predates inline-only batches; storebench's layer
        # table attributes it to exec.batch by this name.
        with span("exec.batch.fan_out", documents=len(documents)):
            if guard is None:
                return [run(document) for document in documents]
            results = []
            with activate(guard):
                for document in documents:
                    results.append(run(document))
                    guard.check_result(results[-1])
            return results

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
        # One record per batch call: the per-document runs below never enter
        # an observed entry point.
        with observe("exec.batch", self.prepared) as obs:
            results = self._evaluate_many(documents, env, method, limits)
            return obs.done(results, method=method)

    def _evaluate_many(
        self,
        documents: Iterable[Any],
        env: Mapping[str, Any] | None,
        method: str,
        limits: EvalLimits | LimitGuard | None,
    ) -> list:
        validate_method(method)
        documents = list(documents)
        if not documents:
            return []
        guard = limits.start() if limits is not None and limits.is_bounded else None
        if method not in ("nrc", "nrc-codegen"):
            # The interpreter baselines take plain environment dicts, through
            # the plan's method dispatch rather than its observed evaluate().
            base = dict(env) if env else {}
            base.pop(self.var, None)
            dispatch = self.prepared._dispatch

            def run_interp(document: Any) -> Any:
                bindings = dict(base)
                bindings[self.var] = document
                return dispatch(bindings, method)

            return self._dispatch_runs(run_interp, documents, guard)
        program = self._program(method)
        template, slot = self._frame_template(program, env)
        run = program._run
        base_env = dict(env) if env else {}

        def run_one(document: Any) -> Any:
            frame = template.copy()
            if slot is not None:
                frame[slot] = document
            try:
                return run(frame)
            except _ForeignCollection as foreign:
                # A foreign-semiring document: only a generated program
                # raises this, and serve_foreign reruns its closure
                # fallback (uncounting the call from the bulk bump below).
                bindings = dict(base_env)
                bindings[self.var] = document
                return program.serve_foreign(foreign, bindings)

        if isinstance(program, CodegenProgram):
            # The template path calls _run directly; account the whole batch
            # so serving layers can observe generated-program execution.
            program.calls += len(documents)
            note_calls(len(documents))
        return self._dispatch_runs(run_one, documents, guard)

    def evaluate_merged(
        self,
        documents: Iterable[Any],
        env: Mapping[str, Any] | None = None,
        method: str = DEFAULT_METHOD,
        limits: EvalLimits | LimitGuard | None = None,
    ) -> KSet:
        """The pointwise union of the per-document K-set results.

        Per-document results must be K-sets over the prepared semiring; their
        items are already coerced and normalized, so the merge runs through
        the trusted :meth:`KSet._accumulate_normalized` n-ary sum.

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
            semiring = self.prepared.semiring
            for result in results:
                if not isinstance(result, KSet) or result.semiring != semiring:
                    raise ExecError(
                        "evaluate_merged needs forest/K-set results over the prepared "
                        f"semiring; got {result!r}"
                    )
            merged = KSet._accumulate_normalized(
                semiring, itertools.chain.from_iterable(result.items() for result in results)
            )
            if guard is not None:
                guard.check_result(merged)
            return obs.done(merged, method=method)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BatchEvaluator var=${self.var} of {self.prepared!r}>"
