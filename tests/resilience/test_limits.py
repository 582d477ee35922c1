"""Execution guardrails: EvalLimits, LimitGuard, the thread-local stack."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    BudgetExceededError,
    LimitExceeded,
    QueryTimeoutError,
    ResilienceError,
)
from repro.kcollections import KSet
from repro.resilience import EvalLimits, activate, check_tick, current_guard
from repro.resilience.limits import estimate_bytes
from repro.semirings import NATURAL
from repro.uxml import TreeBuilder


def _forest(*labels: str) -> KSet:
    return TreeBuilder(NATURAL).forest(*labels)


class TestEvalLimits:
    def test_validation(self):
        with pytest.raises(ResilienceError, match="timeout_s"):
            EvalLimits(timeout_s=-1)
        with pytest.raises(ResilienceError, match="max_rows"):
            EvalLimits(max_rows=-1)
        with pytest.raises(ResilienceError, match="max_result_bytes"):
            EvalLimits(max_result_bytes=-1)

    def test_is_bounded(self):
        assert not EvalLimits().is_bounded
        assert EvalLimits(timeout_s=1).is_bounded
        assert EvalLimits(max_rows=1).is_bounded
        assert EvalLimits(max_result_bytes=1).is_bounded

    def test_error_taxonomy(self):
        assert issubclass(QueryTimeoutError, LimitExceeded)
        assert issubclass(BudgetExceededError, LimitExceeded)


class TestLimitGuard:
    def test_expired_deadline_raises_timeout(self):
        guard = EvalLimits(timeout_s=0).start()
        with pytest.raises(QueryTimeoutError, match="time budget"):
            guard.tick()

    def test_row_budget(self):
        guard = EvalLimits(max_rows=2).start()
        guard.tick(2)  # at the budget: fine
        with pytest.raises(BudgetExceededError, match="max_rows"):
            guard.tick(3)

    def test_check_result_counts_rows(self):
        guard = EvalLimits(max_rows=1).start()
        guard.check_result(_forest("a"))
        with pytest.raises(BudgetExceededError):
            guard.check_result(_forest("a", "b"))

    def test_check_result_byte_budget(self):
        guard = EvalLimits(max_result_bytes=4).start()
        with pytest.raises(BudgetExceededError, match="max_result_bytes"):
            guard.check_result(_forest("a-rather-long-label"))

    def test_unbounded_guard_never_fires(self):
        guard = EvalLimits().start()
        guard.tick(10**9)
        guard.check_result(_forest("a", "b", "c"))


class TestActivation:
    def test_check_tick_is_a_no_op_when_inactive(self):
        assert current_guard() is None
        check_tick(10**9)  # nothing armed anywhere: free pass

    def test_activation_scopes_the_guard(self):
        guard = EvalLimits(max_rows=1).start()
        with activate(guard):
            assert current_guard() is guard
            with pytest.raises(BudgetExceededError):
                check_tick(2)
        assert current_guard() is None
        check_tick(2)  # deactivated again

    def test_nesting_restores_the_outer_guard(self):
        outer = EvalLimits(max_rows=10).start()
        inner = EvalLimits(max_rows=1).start()
        with activate(outer):
            with activate(inner):
                assert current_guard() is inner
                with pytest.raises(BudgetExceededError):
                    check_tick(5)
            assert current_guard() is outer
            check_tick(5)  # inner bound gone

    def test_one_guard_is_shareable_across_threads(self):
        guard = EvalLimits(max_rows=1).start()
        errors: list[BaseException] = []

        def worker():
            try:
                with activate(guard):
                    check_tick(2)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 4
        assert all(isinstance(error, BudgetExceededError) for error in errors)
        assert current_guard() is None  # nothing leaked onto this thread


class TestEstimateBytes:
    def test_scalars(self):
        assert estimate_bytes("abcd") == 4
        assert estimate_bytes(7) == 8
        assert estimate_bytes(None) == 8

    def test_shared_subtrees_counted_once(self):
        t = TreeBuilder(NATURAL)
        shared = t.tree("shared", t.leaf("xxxxxxxxxx"), t.leaf("yyyyyyyyyy"))
        single = estimate_bytes(t.forest(shared))
        double = estimate_bytes(t.forest(t.tree("a", shared), t.tree("b", shared)))
        # Two wrappers around ONE shared subtree cost far less than two copies.
        assert double < 2 * single + 2 * estimate_bytes("a")

    def test_forest_estimate_grows_with_content(self):
        small = estimate_bytes(_forest("a"))
        large = estimate_bytes(_forest("a", "b", "c", "d"))
        assert large > small > 0
