"""Disarmed-instrumentation overhead on the codegen hot path (must stay <= 5%).

The observability contract (:mod:`repro.obs`) follows the ``fail_point``
cost discipline: every entry point's ``observe()`` scope is a few
module-global reads when no query log, slow-query threshold or tracer is
armed, the profiling hook in the reference interpreter is one global read,
and the flight-recorder ``emit`` sites sit on cold paths only (retries,
fallbacks, limit trips) so the hot path never calls them.  This benchmark
times the deep child-chain workload (``suite_child-chain-3``) through the
fully instrumented serving path (``PreparedQuery.evaluate`` — the disarmed
``observe()`` scope + dispatch, with the event ring armed as it is by
default) against the raw generated program call that bypasses every hook,
and the regression bar — enforced here and by the CI quick-mode step via
``run_all.py``'s ``obs`` section — is that the disarmed instrumentation
costs at most 5%.

The armed cases (tracing live, per-operator profiling) are benchmarked for
the record but carry no bar: arming is an explicit diagnostic request.
"""

from __future__ import annotations

import json

from interleaved import interleaved_pair

from repro.obs.metrics import (
    default_registry,
    parse_prometheus,
    registry_json,
    render_prometheus,
)
from repro.obs.profile import profile_evaluate
from repro.obs.trace import tracing
from repro.semirings import NATURAL
from repro.uxquery import prepare_query
from repro.workloads import random_forest, standard_query_suite

#: The acceptance bar: disarmed hooks on vs the raw program call.
MAX_OVERHEAD_RATIO = 1.05


def _case():
    forest = random_forest(NATURAL, num_trees=8, depth=4, fanout=3, seed=17)
    query = standard_query_suite()["child-chain-3"]
    prepared = prepare_query(query, NATURAL, {"S": forest})
    assert prepared.generated is not None, "codegen unexpectedly declined"
    return prepared, {"S": forest}


def test_raw_program_baseline(benchmark):
    prepared, env = _case()
    expected = prepared.evaluate(env)
    answer = benchmark(lambda: prepared.program.evaluate(env))
    assert answer == expected


def test_instrumented_path_disarmed(benchmark):
    prepared, env = _case()
    expected = prepared.program.evaluate(env)
    answer = benchmark(lambda: prepared.evaluate(env, method="nrc-codegen"))
    assert answer == expected


def test_instrumented_path_tracing_armed(benchmark):
    prepared, env = _case()
    expected = prepared.program.evaluate(env)

    def run():
        with tracing():
            return prepared.evaluate(env, method="nrc-codegen")

    assert benchmark(run) == expected


def test_profiled_evaluation(benchmark):
    prepared, env = _case()
    expected = prepared.program.evaluate(env)

    def run():
        result, _report = profile_evaluate(prepared, env, method="nrc-codegen")
        return result

    assert benchmark(run) == expected


def test_disarmed_overhead_within_bound():
    """The disarmed ``observe()`` scope must cost <= 5% on the hot path.

    The flight recorder stays armed (its default state): the bar covers the
    production configuration, not a stripped-down one.
    """
    from repro.obs import events, qlog

    assert events.is_recording(), "flight recorder should be armed by default"
    assert not qlog.is_recording(), "query log should be disarmed by default"
    prepared, env = _case()
    assert prepared.evaluate(env) == prepared.program.evaluate(env)
    raw, instrumented = interleaved_pair(
        lambda: prepared.program.evaluate(env),
        lambda: prepared.evaluate(env, method="nrc-codegen"),
    )
    ratio = instrumented / raw if raw else float("inf")
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"disarmed instrumentation costs {(ratio - 1) * 100:.1f}% "
        f"(bar: {(MAX_OVERHEAD_RATIO - 1) * 100:.0f}%)"
    )


def test_instrumented_path_qlog_armed(benchmark):
    from repro.obs import qlog

    prepared, env = _case()
    expected = prepared.program.evaluate(env)

    def run():
        with qlog.recording(True):
            return prepared.evaluate(env, method="nrc-codegen")

    try:
        assert benchmark(run) == expected
    finally:
        qlog.clear_records()
        qlog.clear_signature_stats()


def test_metrics_export_smoke():
    """The default-registry export is well-formed under both formats."""
    prepared, env = _case()
    prepared.evaluate(env)  # touch the serving counters
    text = render_prometheus(default_registry())
    parsed = parse_prometheus(text)
    assert "repro_codegen_calls_total" in parsed
    payload = registry_json(default_registry())
    assert json.loads(json.dumps(payload)) == payload
