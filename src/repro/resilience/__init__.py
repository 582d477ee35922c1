"""Resilience layer: deterministic fault injection and execution guardrails.

Two halves, both cooperative and dependency-free:

- :mod:`repro.resilience.faults` — a thread-safe registry of named
  **failpoints** compiled into the store's durability boundaries.  Tests
  arm a site with a deterministic trigger (nth hit, fire-once, seeded
  probability) and an action (raise, simulated crash, delay, corrupt) to
  prove the recovery invariant at every I/O boundary.

- :mod:`repro.resilience.limits` — declarative :class:`EvalLimits`
  (deadline / row budget / result-size budget) threaded through
  ``PreparedQuery.evaluate`` and checked cooperatively inside all three
  evaluators' hot loops, raising the typed ``QueryTimeoutError`` /
  ``BudgetExceededError`` from :mod:`repro.errors`.
"""

from repro.resilience.faults import (
    ENV_VAR,
    SITE_CATALOG,
    SimulatedCrash,
    arm,
    arm_from_env,
    armed_sites,
    corrupt_file,
    declare_site,
    disarm,
    disarm_all,
    env_spec,
    fail_at,
    fail_point,
    faults_armed,
)
from repro.resilience.limits import (
    EvalLimits,
    LimitGuard,
    activate,
    check_tick,
    current_guard,
)

__all__ = [
    "ENV_VAR",
    "SITE_CATALOG",
    "SimulatedCrash",
    "arm",
    "arm_from_env",
    "armed_sites",
    "corrupt_file",
    "declare_site",
    "disarm",
    "disarm_all",
    "env_spec",
    "fail_at",
    "fail_point",
    "faults_armed",
    "EvalLimits",
    "LimitGuard",
    "activate",
    "check_tick",
    "current_guard",
]
