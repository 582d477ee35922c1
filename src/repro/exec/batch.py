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

Both accept a ``concurrent.futures`` executor.  Thread pools work on any
prepared query (compiled programs are reusable and thread-safe: every
evaluation gets a fresh frame).  A :class:`~concurrent.futures.ProcessPoolExecutor`
is supported for queries over *registry* semirings: workers cannot receive the
compiled closures, so they re-prepare from the query text through their own
process-wide plan cache (compile-once per worker process) and receive pickled
documents.

Process-pool execution is **fault tolerant**: a worker that dies mid-batch
(OOM kill, segfault, ``os._exit``) breaks the whole pool, so the batch
evaluator submits per-document futures, keeps every completed result, and
retries only the failed partition — with capped exponential backoff on a
freshly built pool — degrading gracefully to inline evaluation once the
retry budget is spent.  Retry/degradation counters live on the evaluator
(``worker_retries``/``worker_degraded``/``pool_rebuilds``) and aggregate
into module-wide :func:`worker_stats` surfaced by ``repro cache-stats``.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ExecError, SemiringError
from repro.kcollections.kset import KSet
from repro.nrc.codegen import CodegenProgram, _ForeignCollection, note_calls
from repro.nrc.compile_eval import _UNBOUND
from repro.obs.events import emit
from repro.obs.metrics import default_registry
from repro.obs.qlog import observe
from repro.obs.trace import span, trace_payload, worker_trace
from repro.resilience.faults import fail_point
from repro.resilience.limits import EvalLimits, activate
from repro.semirings.registry import get_semiring
from repro.uxquery.engine import DEFAULT_METHOD, PreparedQuery, validate_method
from repro.uxquery.typecheck import FOREST

__all__ = [
    "BatchEvaluator",
    "infer_document_var",
    "worker_stats",
    "reset_worker_stats",
    "scoped_worker_stats",
]

#: Pool rebuilds attempted before degrading to inline evaluation.
_RETRY_BUDGET = 2
#: Exponential backoff between pool rebuilds: base * 2**attempt, capped.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0

#: Process-wide fault-tolerance counters, now held by the metrics registry
#: (one labeled family); ``worker_stats()`` stays the canonical dict-shaped
#: read.  Bumps only happen on failures, so the registry lock is free in
#: the happy path.
_WORKER_KEYS = ("retries", "degraded", "pool_rebuilds", "broken_pools")
_WORKER_EVENTS = default_registry().counter(
    "repro_worker_events_total",
    "Process-pool fault-tolerance events (retries, degraded, pool_rebuilds, "
    "broken_pools)",
)


def worker_stats() -> dict[str, int]:
    """Process-wide worker fault-tolerance counters (``cache-stats`` style).

    A thin read of the ``repro_worker_events_total`` metrics family.
    """
    return {key: int(_WORKER_EVENTS.value(kind=key)) for key in _WORKER_KEYS}


def reset_worker_stats() -> None:
    for key in _WORKER_KEYS:
        _WORKER_EVENTS.set(0, kind=key)


@contextmanager
def scoped_worker_stats() -> Iterator[None]:
    """Isolate the module-wide worker counters for the duration of a block.

    The counters start at zero inside the scope and are restored to their
    pre-scope values on exit, so tests and CLI runs can assert on (or
    report) exactly the activity they caused without bleeding state into —
    or inheriting it from — the surrounding process.
    """
    saved = worker_stats()
    reset_worker_stats()
    try:
        yield
    finally:
        for key, value in saved.items():
            _WORKER_EVENTS.set(value, kind=key)


def _bump_worker_stats(**deltas: int) -> None:
    for key, delta in deltas.items():
        _WORKER_EVENTS.inc(delta, kind=key)


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


def _prepare_in_worker(
    query_text: str,
    semiring_name: str,
    env_types: dict[str, str],
    var: str,
    env: dict[str, Any] | None,
    method: str,
    limits_payload: tuple | None,
    tracing_payload: tuple | None,
    document: Any,
) -> Any:
    """Top-level task for process pools: re-prepare via the worker's plan cache.

    ``limits_payload`` is ``(timeout_s, max_rows, max_result_bytes)`` — the
    parent's remaining budget at dispatch time, rebuilt into an
    :class:`EvalLimits` here because guards hold a local monotonic deadline
    that cannot cross a process boundary.  ``tracing_payload`` is the
    parent tracer's ``(trace_id, parent_span_id, sidecar_path)``: worker
    spans are written to the sidecar and reassembled by trace id when the
    parent's tracing scope closes.
    """
    from repro.exec.plan_cache import cached_prepare

    fail_point("exec.worker.task")
    with worker_trace(tracing_payload):
        with span("exec.worker.task", var=var, method=method):
            semiring = get_semiring(semiring_name)
            prepared = cached_prepare(
                query_text, semiring, env_types=env_types, method=method
            )
            bindings = dict(env) if env else {}
            bindings[var] = document
            limits = EvalLimits(*limits_payload) if limits_payload is not None else None
            return prepared.evaluate(bindings, method=method, limits=limits)


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
        #: Fault-tolerance counters for this evaluator (mirrored into the
        #: module-wide worker_stats and aggregated by DocumentStore.stats).
        self.worker_retries = 0
        self.worker_degraded = 0
        self.pool_rebuilds = 0

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

    def _process_pool_tasks(
        self,
        executor: ProcessPoolExecutor,
        documents: list,
        env: Mapping[str, Any] | None,
        method: str,
        limits: EvalLimits | None = None,
    ) -> list:
        semiring = self.prepared.semiring
        try:
            registered = get_semiring(semiring.name)
        except SemiringError as error:
            raise ExecError(
                f"semiring {semiring.name!r} is not in the registry; process-pool "
                "execution needs registry semirings (use a thread pool instead)"
            ) from error
        if registered != semiring:
            raise ExecError(
                f"semiring {semiring.name!r} does not round-trip through the "
                "registry; process-pool execution needs registry semirings "
                "(use a thread pool instead)"
            )
        limits_payload = None
        if limits is not None and limits.is_bounded:
            # Remaining budget at dispatch; workers rebuild the deadline
            # clock locally (monotonic times do not cross processes).
            limits_payload = (
                limits.remaining(limits.start()),
                limits.max_rows,
                limits.max_result_bytes,
            )
        task = partial(
            _prepare_in_worker,
            str(self.prepared.surface),
            semiring.name,
            dict(self.prepared.env_types),
            self.var,
            dict(env) if env else None,
            method,
            limits_payload,
            trace_payload(),
        )

        results: list = [None] * len(documents)
        pending = list(range(len(documents)))
        pool = executor
        own_pool: ProcessPoolExecutor | None = None
        rebuilds = 0
        try:
            while True:
                # Per-document futures (not executor.map): when a dying
                # worker breaks the pool, completed results survive and only
                # the failed partition is retried.
                futures = [(index, pool.submit(task, documents[index])) for index in pending]
                failed: list[int] = []
                for index, future in futures:
                    try:
                        results[index] = future.result()
                    except BrokenExecutor:
                        failed.append(index)
                if not failed:
                    return results
                _bump_worker_stats(broken_pools=1)
                emit("worker.pool_broken", failed=len(failed), rebuilds=rebuilds)
                if rebuilds >= _RETRY_BUDGET:
                    # Retry budget spent: degrade gracefully to inline
                    # evaluation of the failed partition in this process.
                    emit("worker.degraded", documents=len(failed),
                         retry_budget=_RETRY_BUDGET)
                    for index in failed:
                        results[index] = task(documents[index])
                    self.worker_degraded += len(failed)
                    _bump_worker_stats(degraded=len(failed))
                    return results
                # Capped exponential backoff, then retry on a fresh pool —
                # the broken one can never accept work again.
                time.sleep(min(_BACKOFF_BASE_S * (2**rebuilds), _BACKOFF_CAP_S))
                rebuilds += 1
                workers = getattr(pool, "_max_workers", None) or os.cpu_count() or 2
                if own_pool is not None:
                    own_pool.shutdown(wait=False)
                own_pool = pool = ProcessPoolExecutor(max_workers=workers)
                pending = failed
                self.worker_retries += len(failed)
                self.pool_rebuilds += 1
                _bump_worker_stats(retries=len(failed), pool_rebuilds=1)
                emit("worker.retry", documents=len(failed), rebuild=rebuilds)
        finally:
            if own_pool is not None:
                own_pool.shutdown(wait=False)

    @staticmethod
    def _dispatch_runs(run, documents: list, executor: Any | None, guard) -> list:
        """Run ``run`` over the documents, under ``guard`` when one is armed.

        The guard is stateless and shared: each executing thread activates
        it on its own thread-local stack, so the deadline and budgets cover
        the whole batch regardless of fan-out.
        """
        if guard is not None:
            inner = run

            def run(document: Any) -> Any:
                with activate(guard):
                    result = inner(document)
                    guard.check_result(result)
                    return result

        with span("exec.batch.fan_out", documents=len(documents),
                  pool="thread" if executor is not None else "inline"):
            if executor is not None:
                return list(executor.map(run, documents))
            return [run(document) for document in documents]

    def evaluate_many(
        self,
        documents: Iterable[Any],
        env: Mapping[str, Any] | None = None,
        method: str = DEFAULT_METHOD,
        executor: Any | None = None,
        limits: EvalLimits | None = None,
    ) -> list:
        """Evaluate against every document, returning results in order.

        ``env`` supplies bindings for every free variable other than the
        document variable (a binding for the document variable itself is
        ignored — each document takes its place).  ``executor`` may be any
        ``concurrent.futures`` executor; without one the batch runs inline.
        ``limits=`` guards the whole batch with one shared deadline/budget.
        """
        # One record per batch call, not per document: the interp path's
        # per-document evaluations nest inside this scope.
        with observe("exec.batch", self.prepared) as obs:
            results = self._evaluate_many(documents, env, method, executor, limits)
            return obs.done(results, method=method)

    def _evaluate_many(
        self,
        documents: Iterable[Any],
        env: Mapping[str, Any] | None,
        method: str,
        executor: Any | None,
        limits: EvalLimits | None,
    ) -> list:
        validate_method(method)
        documents = list(documents)
        if not documents:
            return []
        if isinstance(executor, ProcessPoolExecutor):
            with span("exec.batch.fan_out", documents=len(documents),
                      pool="process", method=method):
                return self._process_pool_tasks(executor, documents, env, method, limits)
        guard = limits.start() if limits is not None and limits.is_bounded else None
        if method not in ("nrc", "nrc-codegen"):
            # The interpreter baselines take plain environment dicts.
            base = dict(env) if env else {}
            base.pop(self.var, None)

            def run_interp(document: Any) -> Any:
                bindings = dict(base)
                bindings[self.var] = document
                return self.prepared.evaluate(bindings, method=method)

            return self._dispatch_runs(run_interp, documents, executor, guard)
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
        return self._dispatch_runs(run_one, documents, executor, guard)

    def evaluate_merged(
        self,
        documents: Iterable[Any],
        env: Mapping[str, Any] | None = None,
        method: str = DEFAULT_METHOD,
        executor: Any | None = None,
        limits: EvalLimits | None = None,
    ) -> KSet:
        """The pointwise union of the per-document K-set results.

        Per-document results must be K-sets over the prepared semiring; their
        items are already coerced and normalized, so the merge runs through
        the trusted :meth:`KSet._accumulate_normalized` n-ary sum.
        """
        results = self.evaluate_many(
            documents, env=env, method=method, executor=executor, limits=limits
        )
        semiring = self.prepared.semiring
        for result in results:
            if not isinstance(result, KSet) or result.semiring != semiring:
                raise ExecError(
                    "evaluate_merged needs forest/K-set results over the prepared "
                    f"semiring; got {result!r}"
                )
        return KSet._accumulate_normalized(
            semiring, itertools.chain.from_iterable(result.items() for result in results)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BatchEvaluator var=${self.var} of {self.prepared!r}>"
