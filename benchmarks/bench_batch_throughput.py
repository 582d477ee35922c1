"""Batch throughput: one prepared query over many documents.

Compares three ways a service could answer N per-document requests for the
same query:

* **single-shot loop** — what a stateless caller does without
  :mod:`repro.exec`: ``evaluate_query`` per document, paying parse +
  typecheck + compile every time;
* **prepared loop** — hold a ``PreparedQuery`` and call ``evaluate`` per
  document (compile once, frame setup per call);
* **batch** — :class:`~repro.exec.batch.BatchEvaluator.evaluate_many`, one
  call for the whole corpus (compile once, one guard and one query-log
  record, each document through the plan's own dispatch).  It runs the
  same per-document code as the prepared loop, so it should take about the
  same time.

The asserts pin the three answers equal; ``run_all.py`` records the
single-shot-loop vs batch throughput ratio in ``BENCH_results.json``.
"""

from __future__ import annotations

from repro.exec import BatchEvaluator, PlanCache
from repro.semirings import NATURAL
from repro.uxquery import evaluate_query, prepare_query
from repro.workloads import random_forest

QUERY = "($S)/*/*"
NUM_DOCS = 24

DOCS = [random_forest(NATURAL, num_trees=3, depth=3, fanout=3, seed=500 + i) for i in range(NUM_DOCS)]
PREPARED = prepare_query(QUERY, NATURAL, {"S": DOCS[0]})
EXPECTED = [PREPARED.evaluate({"S": doc}) for doc in DOCS]


def test_batch_single_shot_loop(benchmark):
    """Baseline: re-prepare per document, as a stateless caller would."""
    results = benchmark(
        lambda: [evaluate_query(QUERY, NATURAL, {"S": doc}) for doc in DOCS]
    )
    assert results == EXPECTED


def test_batch_prepared_loop(benchmark):
    results = benchmark(lambda: [PREPARED.evaluate({"S": doc}) for doc in DOCS])
    assert results == EXPECTED


def test_batch_evaluator(benchmark):
    evaluator = BatchEvaluator(PREPARED)
    results = benchmark(lambda: evaluator.evaluate_many(DOCS))
    assert results == EXPECTED


def test_batch_via_plan_cache(benchmark):
    """The stateless-service path: plan cache lookup + batch per request."""
    cache = PlanCache(maxsize=8)

    def request() -> list:
        prepared = cache.get(QUERY, NATURAL, env={"S": DOCS[0]})
        return BatchEvaluator(prepared).evaluate_many(DOCS)

    results = benchmark(request)
    assert results == EXPECTED
