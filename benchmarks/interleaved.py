"""The interleaved-pair timer behind every overhead bar.

An overhead bar compares two timings of the *same* work (hooks on vs off,
limits armed vs not).  Running all of one side's batches before the other
lets clock-frequency or load drift masquerade as overhead of whichever side
ran later; alternating batches puts both sides in every drift regime, and
min-over-batches then cancels it.
"""

from __future__ import annotations

import time
from typing import Any, Callable


def interleaved_pair(
    baseline_fn: Callable[[], Any],
    candidate_fn: Callable[[], Any],
    repetitions: int = 40,
    batches: int = 7,
) -> tuple[float, float]:
    """Best batch-mean wall times (seconds) of the two sides, batches interleaved."""
    best_baseline = best_candidate = float("inf")
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(repetitions):
            baseline_fn()
        best_baseline = min(best_baseline, (time.perf_counter() - start) / repetitions)
        start = time.perf_counter()
        for _ in range(repetitions):
            candidate_fn()
        best_candidate = min(best_candidate, (time.perf_counter() - start) / repetitions)
    return best_baseline, best_candidate
