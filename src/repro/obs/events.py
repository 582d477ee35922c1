"""Flight recorder: a bounded ring of structured "something notable happened" events.

The metrics counters say *how often* the interesting things happened —
recompute fallbacks, codegen declines, limit trips, fault trips — but not
*when*, *why*, or *inside which trace*.  This module is the always-on
complement: every such site calls :func:`emit` with a typed kind and
structured attributes, and the event lands in a bounded, thread-safe ring
buffer that a live process can dump (``repro events``, the telemetry
server's ``/debug/events``) and optionally mirrors to a JSONL file
(``REPRO_EVENT_LOG``).

Cost discipline (the :func:`repro.resilience.faults.fail_point` contract):
:func:`emit` is one module-global read when recording is disabled, and the
ring is only ever touched on *cold* paths — event sites are exceptional by
definition (a fallback, a decline, a trip), never the per-evaluate hot loop —
so the recorder stays armed by default (``REPRO_EVENTS=off`` disables).

Every event carries the active trace id when tracing is armed (see
:mod:`repro.obs.trace`), which is what links an ``ivm.recompute`` event to
the exact view update that suffered it.

The :class:`Ring` behind the recorder is shared with the query log
(:mod:`repro.obs.qlog`): one bounded, sequence-stamped, thread-safe ring
with an optional size-rotated JSONL mirror.

Import-weight note: this module depends only on :mod:`repro.obs.metrics`
and :mod:`repro.obs.trace` (both repro-import-free), so even the earliest
importers (``repro.resilience.faults``, armed at interpreter start) can
wire :func:`emit` at module level without cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.obs import trace as _trace
from repro.obs.metrics import default_registry

__all__ = [
    "EVENT_CATALOG",
    "Ring",
    "declare_event",
    "emit",
    "recent_events",
    "clear_events",
    "export_jsonl",
    "is_recording",
    "set_recording",
    "recording",
    "ring_capacity",
    "set_ring_capacity",
    "refresh_event_config",
    "ENV_EVENTS",
    "ENV_EVENT_LOG",
]

ENV_EVENTS = "REPRO_EVENTS"
ENV_EVENT_LOG = "REPRO_EVENT_LOG"

DEFAULT_RING_CAPACITY = 512

#: The typed event kinds and where they are emitted.  ``emit`` rejects
#: undeclared kinds so the catalog stays the single source of truth
#: (tests and ad-hoc tooling extend it through :func:`declare_event`).
EVENT_CATALOG: dict[str, str] = {
    "ivm.recompute": "view maintenance fell back to full recomputation",
    "codegen.decline": "source codegen declined an expression (closure fallback)",
    "store.wal_compact": "a store snapshotted its columns and truncated the WAL",
    "limits.timeout": "an evaluation exceeded its time budget (QueryTimeoutError)",
    "limits.budget": "an evaluation exceeded a row/byte budget (BudgetExceededError)",
    "fault.injected": "an armed failpoint fired (repro.resilience.faults)",
    "query.slow": "a user-level call crossed the REPRO_SLOW_QUERY_MS threshold",
    "integrity.checksum-mismatch": "a WAL record or snapshot failed checksum/digest verification",
    "integrity.quarantine": "fsck moved a corrupt artifact or WAL suffix to a .quarantine sidecar",
    "integrity.salvage": "fsck salvaged the longest valid WAL prefix of a damaged log",
}


class Ring:
    """A bounded, thread-safe ring of JSON-friendly records.

    :meth:`append` stamps each record with a monotone ``seq`` and, when
    :attr:`path` is set, mirrors it to that JSONL file; once the file
    reaches :attr:`max_bytes` (0: never) it rotates to ``path.1``,
    ``path.2``, ... keeping :attr:`keep` generations.
    """

    def __init__(self, capacity: int):
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.path: str | None = None
        self.max_bytes = 0
        self.keep = 1

    def append(self, entry: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            self._seq += 1
            entry["seq"] = self._seq
            self._entries.append(entry)
        path = self.path
        if path:
            self._mirror(path, json.dumps(entry, default=str) + "\n")
        return entry

    def recent(
        self,
        limit: int | None = None,
        where: Callable[[dict[str, Any]], bool] | None = None,
    ) -> list[dict[str, Any]]:
        """A snapshot, oldest first, of the entries ``where`` accepts;
        ``limit`` keeps the newest ``limit`` of them."""
        with self._lock:
            entries = list(self._entries)
        if where is not None:
            entries = [entry for entry in entries if where(entry)]
        if limit is not None and limit >= 0:
            entries = entries[-limit:] if limit else []
        return entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def capacity(self) -> int:
        return self._entries.maxlen or 0

    def resize(self, capacity: int) -> None:
        """Change the bound, preserving the newest entries that still fit."""
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        with self._lock:
            self._entries = deque(self._entries, maxlen=capacity)

    def _mirror(self, path: str, line: str) -> None:
        """One JSONL append plus the size-rotation check (cross-process safe)."""
        try:
            with open(path, "a", encoding="utf-8") as log:
                log.write(line)
                size = log.tell()
        except OSError:  # pragma: no cover - log dir vanished
            return
        if self.max_bytes and size >= self.max_bytes:
            self._rotate(path)

    def _rotate(self, path: str) -> None:
        """Shift ``path`` -> ``path.1`` -> ... keeping ``keep`` generations.

        Another process may rotate concurrently — every rename is
        individually best-effort, so a lost race drops at most one
        generation, never a record from the active file.
        """
        with self._lock:
            try:
                if os.path.getsize(path) < self.max_bytes:
                    return  # another thread/process already rotated
            except OSError:
                return
            for generation in range(self.keep, 0, -1):
                source = path if generation == 1 else f"{path}.{generation - 1}"
                try:
                    os.replace(source, f"{path}.{generation}")
                except OSError:
                    continue
            if self.keep < 1:
                try:
                    os.remove(path)
                except OSError:
                    pass


#: One global read decides the disarmed path.
_RECORDING = True
_RING = Ring(DEFAULT_RING_CAPACITY)

_EVENT_COUNTER = default_registry().counter(
    "repro_events_total", "Flight-recorder events by kind"
)


def declare_event(kind: str, description: str) -> None:
    """Register an extra event kind (tests may declare ad-hoc kinds)."""
    EVENT_CATALOG.setdefault(kind, description)


def emit(kind: str, **attrs: Any) -> dict[str, Any] | None:
    """Record one structured event; returns it (or ``None`` when disabled).

    Cost when recording is disabled: one module-global read.  ``kind`` must
    be declared in :data:`EVENT_CATALOG`; ``attrs`` are free-form but should
    stay JSON-friendly (non-JSON values are stringified in the file mirror).
    """
    if not _RECORDING:
        return None
    if kind not in EVENT_CATALOG:
        raise ValueError(
            f"undeclared event kind {kind!r}; add it with declare_event()"
        )
    event = _RING.append({
        "kind": kind,
        "ts": time.time(),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "trace_id": _trace.current_trace_id(),
        "attrs": attrs,
    })
    _EVENT_COUNTER.inc(kind=kind)
    return event


def recent_events(kind: str | None = None,
                  limit: int | None = None) -> list[dict[str, Any]]:
    """A snapshot of the ring, oldest first (optionally filtered/tailed)."""
    return _RING.recent(limit, None if kind is None else lambda event: event["kind"] == kind)


def clear_events() -> None:
    _RING.clear()


def export_jsonl(entries: Iterable[Mapping[str, Any]]) -> str:
    """One JSON object per line, in ring order."""
    return "".join(json.dumps(dict(entry), default=str) + "\n" for entry in entries)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
def is_recording() -> bool:
    return _RECORDING


def set_recording(enabled: bool) -> bool:
    """Enable/disable the recorder; returns the previous state."""
    global _RECORDING
    previous = _RECORDING
    _RECORDING = bool(enabled)
    return previous


@contextmanager
def recording(enabled: bool = True) -> Iterator[None]:
    """Scoped recorder toggle (benchmarks disarm, tests force-arm)."""
    previous = set_recording(enabled)
    try:
        yield
    finally:
        set_recording(previous)


def ring_capacity() -> int:
    return _RING.capacity


def set_ring_capacity(capacity: int) -> None:
    """Resize the ring, preserving the newest events that still fit."""
    _RING.resize(capacity)


def refresh_event_config(environ: Mapping[str, str] | None = None) -> None:
    """(Re-)read ``REPRO_EVENTS``/``REPRO_EVENT_LOG``; call after mutating
    ``os.environ`` (the telemetry server calls this on start)."""
    global _RECORDING
    environ = environ if environ is not None else os.environ
    raw = (environ.get(ENV_EVENTS) or "").strip().lower()
    _RECORDING = raw not in ("off", "0", "false", "no")
    _RING.path = environ.get(ENV_EVENT_LOG) or None


refresh_event_config()
