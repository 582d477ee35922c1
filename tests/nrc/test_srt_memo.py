"""The persistent srt memo: reused across calls, bounded under churn.

A closed ``srt`` body memoizes its results per subtree across evaluations,
so re-running a prepared plan over the same document is cheap.  The memo
lives in generations that keep only what recent evaluations looked up, so
over a churning document it holds the live members' results, and over a
stream of new trees only the last few, not every tree it ever saw.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.kcollections.kset import KSet
from repro.semirings import NATURAL
from repro.uxml.tree import UTree
from repro.uxquery import prepare_query
from repro.uxquery.typecheck import FOREST
from repro.workloads import random_forest, random_tree


def _trees_alive() -> int:
    gc.collect()
    return sum(isinstance(obj, UTree) for obj in gc.get_objects())


def test_memo_over_a_churning_document_stays_bounded():
    plan = prepare_query("$S//c", NATURAL, env_types={"S": FOREST})
    reference = prepare_query("$S//c", NATURAL, env_types={"S": FOREST})
    forest = random_forest(NATURAL, num_trees=16, depth=3, fanout=2, seed=1)
    rng = random.Random(5)
    samples = []
    for step in range(600):
        members = list(forest.items())
        victim = members[rng.randrange(len(members))][0]
        fresh = random_tree(NATURAL, depth=3, fanout=2, seed=50_000 + step)
        forest = forest.restrict([tree for tree, _ in members if tree != victim]).union(
            type(forest).singleton(NATURAL, fresh, rng.randint(1, 3))
        )
        result = plan.evaluate({"S": forest}, method="nrc")
        if step % 25 == 0:
            assert result == reference.evaluate({"S": forest}, method="nrc-interp")
        if step in (150, 599):
            samples.append(_trees_alive())
    # 450 replaced members hold about 3,000 subtrees; a memo keeping every
    # tree it saw would keep them all alive.
    assert samples[1] - samples[0] < 500, samples


@pytest.mark.parametrize("num_trees, evaluations", [(40, 60), (600, 6)])
def test_memo_serves_repeated_evaluation(monkeypatch, num_trees, evaluations):
    """After the first evaluation, evaluations over an equal document find
    every member's result in the memo, across many generations and for
    documents with more members than a generation's least length: the body
    never runs again."""
    import repro.nrc.compile_eval as compile_eval

    plan = prepare_query("$S//c", NATURAL, env_types={"S": FOREST})
    forest = random_forest(NATURAL, num_trees=num_trees, depth=3, fanout=2, seed=2)
    first = plan.evaluate({"S": forest}, method="nrc")
    computed = []
    monkeypatch.setattr(compile_eval, "_check_limits", lambda: computed.append(1))
    for _ in range(evaluations):
        assert plan.evaluate({"S": forest}, method="nrc") == first
    again = random_forest(NATURAL, num_trees, 3, 2, seed=2)
    assert plan.evaluate({"S": again}, method="nrc") == first
    assert not computed


def test_memo_over_new_trees_on_every_call_stays_small():
    """A plan that meets a new tree on every call, as an IVM delta plan
    does, reuses nothing, so its memo keeps only its last few calls' trees
    rather than growing with every call."""
    plan = prepare_query("$S//c", NATURAL, env_types={"S": FOREST})
    samples = []
    for call in range(1000):
        tree = random_tree(NATURAL, depth=3, fanout=2, seed=90_000 + call)
        plan.evaluate({"S": KSet.singleton(NATURAL, tree)}, method="nrc")
        if call in (200, 999):
            samples.append(_trees_alive())
    # The 800 calls between the samples saw about 8,000 subtrees.
    assert samples[1] - samples[0] < 500, samples
