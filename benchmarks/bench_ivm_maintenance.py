"""Incremental view maintenance vs full recomputation.

The workload the IVM layer exists for: a materialized query result over a
sizeable document, updated by small deltas.  Three measurements:

* **recompute baseline** — evaluate the prepared query on the updated
  document from scratch (what a cache without maintenance must do on every
  invalidation);
* **maintain (single update)** — one insert + one delete applied through the
  compiled delta plan; the pair leaves the document unchanged, so every
  benchmark round does identical work (the delete runs the same ``K``
  program on the removed member and subtracts its change exactly over
  ``N``, the counting split);
* **maintain (batched stream)** — an insert-only stream pushed through
  :meth:`~repro.ivm.view.MaterializedView.apply_many` (one run of the
  delta plan over the sum of the insertions), then drained by per-delta
  deletions.

``run_all.py`` records the recompute-vs-maintain per-update ratio in the
``ivm`` section of ``BENCH_results.json``, plus the same ratio for
re-annotations of a self-join view; CI asserts maintenance stays at least
5x faster than recomputation on the single-update workload and at least 2x
on the self-join.
"""

from __future__ import annotations

from repro.ivm import Delta
from repro.semirings import NATURAL
from repro.uxquery import prepare_query
from repro.workloads import random_forest, random_tree

QUERY = "($S)//c"
FOREST = random_forest(NATURAL, num_trees=32, depth=4, fanout=3, seed=910)
PREPARED = prepare_query(QUERY, NATURAL, {"S": FOREST})

TREE = random_tree(NATURAL, depth=3, fanout=2, seed=911)
INSERT = Delta.insertion(NATURAL, TREE, 1)
DELETE = Delta.deletion(NATURAL, TREE, 1)
UPDATED = INSERT.apply_to(FOREST)
EXPECTED_AFTER_INSERT = PREPARED.evaluate({"S": UPDATED})

STREAM_TREES = [random_tree(NATURAL, depth=2, fanout=2, seed=920 + i) for i in range(12)]
INSERT_STREAM = [Delta.insertion(NATURAL, tree, 1) for tree in STREAM_TREES]
DELETE_STREAM = [Delta.deletion(NATURAL, tree, 1) for tree in STREAM_TREES]


def test_ivm_recompute_baseline(benchmark):
    """What invalidate-and-reevaluate costs per update."""
    result = benchmark(lambda: PREPARED.evaluate({"S": UPDATED}))
    assert result == EXPECTED_AFTER_INSERT


def test_ivm_maintain_single_update(benchmark):
    view = PREPARED.materialize(FOREST)
    view.apply(INSERT)
    view.apply(DELETE)  # warm up outside the timer

    def insert_then_delete():
        view.apply(INSERT)
        after_insert = view.result
        view.apply(DELETE)
        return after_insert

    result = benchmark(insert_then_delete)
    assert result == EXPECTED_AFTER_INSERT
    assert view.stats().recomputes == 0


def test_ivm_maintain_batched_stream(benchmark):
    view = PREPARED.materialize(FOREST)
    expected = PREPARED.evaluate(
        {"S": Delta.from_insertions(NATURAL, [(t, 1) for t in STREAM_TREES]).apply_to(FOREST)}
    )
    view.apply_many(INSERT_STREAM)
    for delta in DELETE_STREAM:
        view.apply(delta)  # warm up and restore

    def replay_stream():
        view.apply_many(INSERT_STREAM)
        after_inserts = view.result
        for delta in DELETE_STREAM:
            view.apply(delta)
        return after_inserts

    result = benchmark(replay_stream)
    assert result == expected
    assert view.stats().recomputes == 0
