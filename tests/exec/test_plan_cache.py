"""The plan cache: LRU behavior, stats, and concurrent compile coalescing."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ExecError
from repro.exec import PlanCache, cached_prepare, default_plan_cache
from repro.semirings import NATURAL, PROVENANCE
from repro.uxquery.engine import prepare_query
from repro.workloads import random_forest


@pytest.fixture
def forest():
    return random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=7)


class TestPlanCacheBasics:
    def test_hit_returns_same_plan(self, forest):
        cache = PlanCache(maxsize=4)
        first = cache.get("($S)/*", NATURAL, env={"S": forest})
        second = cache.get("($S)/*", NATURAL, env={"S": forest})
        assert first is second
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.compiles == 1

    def test_distinct_keys_compile_separately(self, forest):
        cache = PlanCache(maxsize=8)
        by_query = cache.get("($S)/*", NATURAL, env={"S": forest})
        by_semiring = cache.get("($S)/*", PROVENANCE, env_types={"S": "forest"})
        assert by_query is not by_semiring
        assert cache.stats().compiles == 2

    def test_methods_share_one_plan(self, forest):
        """Plans are method-independent: one compile serves every method."""
        cache = PlanCache(maxsize=8)
        plan = cache.get("($S)/*", NATURAL, env={"S": forest})
        expected = plan.evaluate({"S": forest})
        for method in ("nrc-codegen", "nrc", "nrc-interp", "direct"):
            assert cache.get("($S)/*", NATURAL, env={"S": forest}) is plan
            assert plan.evaluate({"S": forest}, method=method) == expected
        assert cache.stats().compiles == 1

    def test_query_ast_keys_structurally(self, forest):
        from repro.uxquery import parse_query
        from repro.uxquery.ast import LabelExpr

        cache = PlanCache(maxsize=4)
        ast = parse_query("($S)/*")
        ast_plan = cache.get(ast, NATURAL, env={"S": forest})
        # An equal AST value shares the plan.
        assert cache.get(parse_query("($S)/*"), NATURAL, env={"S": forest}) is ast_plan
        assert cache.stats().compiles == 1
        # Renderings are not injective, so a render-identical but different
        # AST must NOT share the plan (a label literal spelling the query).
        label = LabelExpr(str(ast))
        assert str(label) == str(ast)
        label_plan = cache.get(label, NATURAL, env={"S": forest})
        assert label_plan is not ast_plan
        assert label_plan.evaluate({"S": forest}) == str(ast)

    def test_lru_eviction(self, forest):
        cache = PlanCache(maxsize=2)
        cache.get("($S)/*", NATURAL, env={"S": forest})
        cache.get("($S)//c", NATURAL, env={"S": forest})
        cache.get("($S)/*", NATURAL, env={"S": forest})  # refresh recency
        cache.get("($S)/*/*", NATURAL, env={"S": forest})  # evicts ($S)//c
        assert cache.stats().evictions == 1
        cache.get("($S)/*", NATURAL, env={"S": forest})
        assert cache.stats().hits == 2  # the refreshed plan survived
        cache.get("($S)//c", NATURAL, env={"S": forest})
        assert cache.stats().compiles == 4  # the evicted plan recompiled

    def test_clear_resets_contents_not_counters(self, forest):
        cache = PlanCache(maxsize=4)
        cache.get("($S)/*", NATURAL, env={"S": forest})
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().compiles == 1
        cache.get("($S)/*", NATURAL, env={"S": forest})
        assert cache.stats().compiles == 2

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ExecError):
            PlanCache(maxsize=0)

    def test_error_during_compile_is_not_cached(self, forest):
        cache = PlanCache(maxsize=4)
        with pytest.raises(Exception):
            cache.get("for $x in", NATURAL, env={"S": forest})
        assert len(cache) == 0
        # A valid query under the same cache still works afterwards.
        cache.get("($S)/*", NATURAL, env={"S": forest})
        assert len(cache) == 1

    def test_default_cache_and_cached_prepare(self, forest):
        before = default_plan_cache().stats().compiles
        plan_a = cached_prepare("($S)/*/*/*", NATURAL, env={"S": forest})
        plan_b = cached_prepare("($S)/*/*/*", NATURAL, env={"S": forest})
        assert plan_a is plan_b
        assert default_plan_cache().stats().compiles == before + 1


class TestPlanCacheConcurrency:
    def test_one_compile_per_key_under_hammering(self, forest):
        """N threads x M keys: every key compiles exactly once."""
        compiles: dict[tuple, int] = {}
        compile_lock = threading.Lock()

        def counting_prepare(query, semiring, env=None, env_types=None):
            with compile_lock:
                key = (str(query), semiring.name)
                compiles[key] = compiles.get(key, 0) + 1
            return prepare_query(query, semiring, env=env, env_types=env_types)

        cache = PlanCache(maxsize=32, prepare=counting_prepare)
        queries = ["($S)/*", "($S)/*/*", "($S)//c", "($S)//d"]
        num_threads = 16
        iterations = 25
        start = threading.Barrier(num_threads)
        plans: list[dict[str, object]] = [dict() for _ in range(num_threads)]
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                start.wait()
                for i in range(iterations):
                    text = queries[(worker + i) % len(queries)]
                    plan = cache.get(text, NATURAL, env={"S": forest})
                    previous = plans[worker].setdefault(text, plan)
                    assert previous is plan
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert all(count == 1 for count in compiles.values()), compiles
        assert len(compiles) == len(queries)
        stats = cache.stats()
        assert stats.compiles == len(queries)
        assert stats.misses == len(queries)
        assert stats.hits == num_threads * iterations - len(queries)
        # Every thread saw the same shared plan per query.
        for text in queries:
            distinct = {id(per_thread[text]) for per_thread in plans}
            assert len(distinct) == 1

    def test_compile_failure_propagates_to_every_waiter_and_poisons_nothing(self, forest):
        """Regression: an exception in a coalesced compile must reach every
        coalesced waiter, leave no cached entry behind, and let the next
        caller on the key retry (and succeed) cleanly."""
        attempts = {"count": 0}
        attempt_lock = threading.Lock()
        release = threading.Event()
        failing = threading.Event()
        failing.set()

        class Boom(RuntimeError):
            pass

        def flaky_prepare(query, semiring, env=None, env_types=None):
            with attempt_lock:
                attempts["count"] += 1
                first = attempts["count"] == 1
            if failing.is_set():
                if first:
                    release.wait(timeout=5)  # hold waiters coalesced on this key
                raise Boom("transient compile failure")
            return prepare_query(query, semiring, env=env, env_types=env_types)

        cache = PlanCache(maxsize=4, prepare=flaky_prepare)
        num_threads = 8
        start = threading.Barrier(num_threads + 1)
        outcomes: list[BaseException | object] = []
        outcome_lock = threading.Lock()

        def racer() -> None:
            start.wait()
            try:
                plan = cache.get("($S)/*", NATURAL, env={"S": forest})
                with outcome_lock:
                    outcomes.append(plan)
            except BaseException as error:  # noqa: BLE001 - collected below
                with outcome_lock:
                    outcomes.append(error)

        threads = [threading.Thread(target=racer) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        start.wait()  # every racer is now past the barrier
        release.set()  # let the owner fail with all waiters coalesced
        for thread in threads:
            thread.join()

        # Every caller during the failing phase saw the failure itself —
        # coalesced waiters included; none were stranded or got a stale plan.
        assert len(outcomes) == num_threads
        assert all(isinstance(outcome, Boom) for outcome in outcomes), outcomes
        # The failures cached nothing and left no in-flight marker behind.
        assert len(cache) == 0
        assert cache.stats().compiles == 0
        # The next caller on the same key retries cleanly and succeeds.
        failing.clear()
        failed_attempts = attempts["count"]
        assert failed_attempts >= 1
        plan = cache.get("($S)/*", NATURAL, env={"S": forest})
        assert plan.evaluate({"S": forest}) is not None
        assert attempts["count"] == failed_attempts + 1
        assert cache.stats().compiles == 1
        assert len(cache) == 1
