"""repro.exec — the production execution layer above :mod:`repro.uxquery`.

The engine's :class:`~repro.uxquery.engine.PreparedQuery` gives one caller
compile-once-evaluate-many behavior for one query.  This package scales that
contract to a service: many callers, many documents.

Two cooperating pieces
----------------------
* :mod:`repro.exec.plan_cache` — a bounded, thread-safe LRU cache in front of
  :func:`~repro.uxquery.engine.prepare_query`, keyed by (query text, semiring,
  environment types), with coalesced concurrent compilation and
  hit/miss/eviction stats.  Stateless callers get compile-once for free, and
  one cached plan serves every evaluation method.
* :mod:`repro.exec.batch` — :class:`~repro.exec.batch.BatchEvaluator` runs one
  prepared query against many documents in a single call, under one guard
  and one query-log record, each document through the plan's own method
  dispatch (sharing the compiled form's persistent ``srt`` memo), and merges
  K-set results through the trusted ``KSet._accumulate_normalized`` fast
  path.  Its guarded loop and exact merge also serve the store's
  ``query_many``.

Which one do I want?
--------------------
* **Plain** ``prepared.evaluate(env)`` — one query, one document, you hold the
  :class:`PreparedQuery` yourself.  Also the only option for queries whose
  result is a single tree or label.
* **Plan cache** — you receive query *text* per request (a stateless service,
  the CLI): call :func:`~repro.exec.plan_cache.cached_prepare` instead of
  ``prepare_query`` and evaluate as usual.
* **Batch** — one query, *many documents* in memory: one call, one guard
  and one record for the whole batch.  For documents in a
  :class:`~repro.store.DocumentStore`, use its ``query_many``, which serves
  each one from the indexes.

Batches run inline, in the calling thread: evaluation is pure Python under
the GIL, so a thread or process pool never beat the inline loop.  Batching
one query over many in-memory documents is
:class:`~repro.exec.batch.BatchEvaluator`'s job alone;
``PreparedQuery.evaluate`` and ``evaluate_query`` take one environment.
"""

from repro.errors import ExecError
from repro.exec.batch import BatchEvaluator, infer_document_var
from repro.exec.plan_cache import CacheStats, PlanCache, cached_prepare, default_plan_cache

__all__ = [
    "ExecError",
    "PlanCache",
    "CacheStats",
    "cached_prepare",
    "default_plan_cache",
    "BatchEvaluator",
    "infer_document_var",
]
