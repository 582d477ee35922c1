"""Timing primitives shared by the workloads: the closed-loop clock and
the latency summaries.

One client, one call at a time: :meth:`Clock.call` times a single public
call into the store, then runs its reference check outside the timed
section.  A call that raises, or whose check fails, counts as a failed
operation.  The traced pass uses :class:`TracedClock`, which arms
``repro.obs.trace.tracing()`` around each call and opens one root span per
operation, so everything the call does nests under it.

Garbage collection stays inside the timed intervals: the collector's work
is the program's.  The runner freezes the set-up heap (``gc.freeze()``)
before the loop, so full passes do not rescan the reference models the
benchmark keeps.  Full-pass time is summed for the detail line only.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import traceback
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.obs.trace import Tracer, span, tracing

#: The tail is the highest percentile that still has this many samples
#: beyond it.
TAIL_BEYOND = 10


class _FullCollections:
    """``gc.callbacks`` hook summing the time spent in full collections."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started


_FULL_COLLECTIONS = _FullCollections()
gc.callbacks.append(_FULL_COLLECTIONS)


def full_collection_seconds() -> float:
    """Time spent in full collections so far (diagnosis, not subtracted)."""
    return _FULL_COLLECTIONS.seconds


#: What the loop times is scaled to a host on which
#: :func:`calibration_kernel` takes this long.
KERNEL_REFERENCE_MS = 5.0


def calibration_kernel() -> float:
    """Seconds one run of a fixed pure-Python kernel takes.

    It builds a dict of 3,000 tuple keys, sorts it and regroups it: the kind
    of work shredding and index builds do, in none of the program's code.
    Run between loop steps, its median tracks how fast the shared host runs
    the loop at the time; on a change to the program it stays the same.
    The collector stays on, as it is for the program: with it off, the
    kernel's median on ``cold_start`` split into two modes a third apart
    that the program's latencies did not follow.
    """
    started = perf_counter()
    table = {}
    for i in range(3000):
        table[(i, i & 7, str(i))] = [i, (i, i)]
    ordered = sorted(table.items(), key=lambda item: item[0][2])
    {key[1]: value for key, value in ordered}
    return perf_counter() - started


class Clock:
    """Times public calls one at a time and counts attempted/failed operations."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.busy = 0.0
        #: Seconds of the benchmark's own work in the loop: reference
        #: checks, reference-model updates, CLI probes and the calibration
        #: kernel (see :meth:`aside`).
        self.set_aside = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(
        self,
        kind: str,
        fn: Callable[..., Any],
        *args: Any,
        check: Callable[[Any], bool] | None = None,
        label: str | None = None,
        **kwargs: Any,
    ) -> Any:
        """Time ``fn(*args, **kwargs)`` as one ``kind`` operation.

        ``check`` receives the result after the clock has stopped; a false
        verdict or an exception from the call marks the operation failed.
        A ``label`` also files the sample under ``kind.label``.  Returns the
        result, or ``None`` when the call raised.
        """
        self.attempted += 1
        try:
            result, elapsed = self._invoke(kind, label, fn, args, kwargs)
        except Exception:  # the benchmark must keep running to count failures
            self._fail(f"{kind}: {traceback.format_exc(limit=3)}")
            return None
        self.samples[kind].append(elapsed)
        if label is not None:
            self.samples[f"{kind}.{label}"].append(elapsed)
        self.busy += elapsed
        if check is not None:
            with self.aside():
                try:
                    ok = check(result)
                except Exception:
                    self._fail(f"{kind} check: {traceback.format_exc(limit=3)}")
                else:
                    self.verify(ok, kind)
        return result

    def _invoke(self, kind, label, fn, args, kwargs):
        started = perf_counter()
        result = fn(*args, **kwargs)
        return result, perf_counter() - started

    @contextlib.contextmanager
    def aside(self) -> Iterator[None]:
        """Count the enclosed time as the benchmark's own, not the loop's."""
        started = perf_counter()
        try:
            yield
        finally:
            self.set_aside += perf_counter() - started

    def record(self, kind: str, seconds: float) -> None:
        """Add a latency sample for a call nested inside a timed operation."""
        self.samples[kind].append(seconds)

    def verify(self, ok: bool, what: str) -> None:
        """Count a failed reference check against the last operation."""
        if not ok:
            self._fail(f"{what}: result differs from the reference")

    def check_state(self, ok: bool, what: str) -> None:
        """A reference check of store state that is not a timed call."""
        self.attempted += 1
        self.verify(ok, what)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class TracedClock(Clock):
    """A clock that arms tracing around each call, under one root span."""

    def __init__(self) -> None:
        super().__init__()
        self.tracer = Tracer()

    def _invoke(self, kind, label, fn, args, kwargs):
        started = perf_counter()
        with tracing(self.tracer), span(f"op.{kind}", label=label):
            result = fn(*args, **kwargs)
        return result, perf_counter() - started


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def tail(samples: list[float]) -> tuple[float, int, int]:
    """``(value_ms, percentile, samples_beyond)`` of the tail latency.

    The tail is the highest whole percentile with at least
    :data:`TAIL_BEYOND` samples beyond it (nearest rank): p99 from 1,000
    samples up, p95 at 230, the maximum with 10 samples or fewer.
    """
    ordered = sorted(samples)
    count = len(ordered)
    percentile = max(0, math.floor(100 * (count - TAIL_BEYOND) / count)) if count else 0
    rank = max(1, math.ceil(percentile * count / 100))
    if count <= TAIL_BEYOND:
        percentile, rank = 100, count
    return ordered[rank - 1] * 1000.0, percentile, count - rank
