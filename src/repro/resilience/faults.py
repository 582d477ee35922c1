"""Failpoints: deterministic fault injection at named sites.

A *failpoint* is a named hook compiled into a production code path::

    fail_point("wal.append.fsync")

When nothing is armed this is a single global read — cheap enough to
leave in durability boundaries permanently.  Tests (or operators, via
the ``REPRO_FAULTS`` environment variable) arm a site with a trigger
and an action:

    with fail_at("wal.append.fsync"):            # raise on first hit
        ...
    with fail_at("snapshot.replace", action="crash", hits=2):
        ...                                       # simulated crash on 2nd hit

Triggers
--------
``hits=n``
    Skip the first ``n - 1`` hits, then become eligible (default 1).
``times=t``
    Fire on at most ``t`` eligible hits (default 1 = fire once;
    ``times=0`` means every eligible hit).
``probability=p, seed=s``
    Fire each eligible hit with probability ``p`` from a seeded RNG —
    deterministic for a given seed.

Actions
-------
``raise``
    Raise :class:`repro.errors.FaultInjected` (an ordinary library error).
``crash``
    Raise :class:`SimulatedCrash` — a ``BaseException`` subclass that
    sails past ``except Exception`` handlers, modelling a process that
    stopped dead at the site.  In-process crash harnesses catch it
    explicitly and then reopen state from disk.
``delay``
    Sleep ``delay_s`` seconds, then continue (for races/timeouts).
``corrupt``
    Damage the file named by the site's context (seeded, deterministic)
    and *continue silently* — modelling media corruption that is only
    discovered on the next load or ``repro fsck``.  ``mode=flip`` XORs
    ``flips`` random byte(s) inside the site's byte region, ``mode=truncate``
    cuts the file at a random point inside the region, ``mode=garbage``
    splices a junk line at the region start.  Sites that support it
    (``corrupt.wal.record``, ``corrupt.snapshot.file``) pass the file path
    and byte region as context.

Environment variable
--------------------
``REPRO_FAULTS`` carries ``site=action:opt=value,opt=value`` entries
joined by ``;`` so subprocesses (a CLI run under test) inherit armed
faults::

    REPRO_FAULTS='wal.append.fsync=raise:hits=2;wal.truncate=crash'

The module parses it at import time.
"""

from __future__ import annotations

import os
import random
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.errors import FaultInjected, ResilienceError
from repro.obs.events import emit

ENV_VAR = "REPRO_FAULTS"

_ACTIONS = ("raise", "crash", "delay", "corrupt")
_CORRUPT_MODES = ("flip", "truncate", "garbage")

#: Catalog of every failpoint compiled into the library, site -> description.
#: ``repro faults list`` prints it and the crash-exhaustive harness iterates it.
SITE_CATALOG: Dict[str, str] = {
    "wal.append.write": "before the WAL record body is written",
    "wal.append.torn": "after the record body, before its newline (torn tail)",
    "wal.append.fsync": "after the full record, before fsync",
    "wal.truncate": "before the WAL file is truncated post-snapshot",
    "snapshot.write": "before the snapshot JSON is written to the temp file",
    "snapshot.fsync": "after the temp file is written, before its fsync",
    "snapshot.replace": "before os.replace publishes the snapshot",
    "snapshot.dirfsync": "after os.replace, before the directory fsync barrier",
    "store.ingest.apply": "between WAL append and in-memory ingest apply",
    "store.update.apply": "between WAL append and in-memory update apply",
    "store.view.apply": "between WAL append and in-memory view registration",
    "corrupt.wal.record": "after a WAL record is durably appended (region: that record's bytes)",
    "corrupt.snapshot.file": "after os.replace publishes a snapshot (region: the whole file)",
}


class SimulatedCrash(BaseException):
    """A failpoint fired with the ``crash`` action.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``) so that
    library ``except Exception`` blocks cannot absorb it — from the code
    under test it is indistinguishable from the process stopping dead.
    """

    def __init__(self, site: str):
        super().__init__(f"simulated crash at failpoint {site!r}")
        self.site = site


def corrupt_file(
    path: str | os.PathLike,
    mode: str = "flip",
    *,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    start: int = 0,
    end: Optional[int] = None,
    flips: int = 1,
) -> None:
    """Deterministically damage ``path`` within the byte region [start, end).

    The primitive behind the ``corrupt`` action, exported so corruption
    harnesses can place the exact same damage offline (on a closed store)
    that the live failpoint places online.  ``flip`` XORs ``flips`` random
    byte(s) with a random nonzero mask; ``truncate`` cuts the file at a
    random point inside the region (everything after is lost — physically
    indistinguishable from a torn append); ``garbage`` splices a junk line
    at the region start.  All randomness comes from ``rng`` (or a fresh
    ``random.Random(seed)``), so a given seed always places identical damage.
    """
    if mode not in _CORRUPT_MODES:
        raise ResilienceError(
            f"unknown corruption mode {mode!r}; valid modes: {', '.join(_CORRUPT_MODES)}"
        )
    path = Path(path)
    rng = rng if rng is not None else random.Random(seed)
    data = bytearray(path.read_bytes())
    region_end = len(data) if end is None else min(end, len(data))
    region_start = max(0, min(start, region_end))
    if mode == "flip":
        if region_end <= region_start:
            return
        for _ in range(max(1, flips)):
            position = rng.randrange(region_start, region_end)
            data[position] ^= rng.randrange(1, 256)
        path.write_bytes(bytes(data))
    elif mode == "truncate":
        if region_end <= region_start:
            return
        cut = (
            rng.randrange(region_start, region_end)
            if region_end - region_start > 1
            else region_start
        )
        with open(path, "r+b") as handle:
            handle.truncate(cut)
    else:  # garbage: a junk (but newline-terminated) line spliced in
        junk = bytes(rng.randrange(33, 127) for _ in range(24)) + b"\n"
        path.write_bytes(bytes(data[:region_start] + junk + data[region_start:]))


class FailPoint:
    """One armed site.  Mutable state (hit/fire counters) guarded by ``_LOCK``."""

    __slots__ = (
        "site",
        "action",
        "hits",
        "times",
        "probability",
        "delay_s",
        "seed",
        "mode",
        "flips",
        "hit_count",
        "fired",
        "_rng",
        "_corrupt_rng",
    )

    def __init__(
        self,
        site: str,
        action: str = "raise",
        *,
        hits: int = 1,
        times: int = 1,
        probability: Optional[float] = None,
        seed: int = 0,
        delay_s: float = 0.01,
        mode: str = "flip",
        flips: int = 1,
    ):
        if site not in SITE_CATALOG:
            known = ", ".join(sorted(SITE_CATALOG))
            raise ResilienceError(f"unknown failpoint site {site!r}; known sites: {known}")
        if action not in _ACTIONS:
            raise ResilienceError(
                f"unknown failpoint action {action!r}; valid actions: {', '.join(_ACTIONS)}"
            )
        if hits < 1:
            raise ResilienceError(f"failpoint hits must be >= 1, got {hits}")
        if times < 0:
            raise ResilienceError(f"failpoint times must be >= 0, got {times}")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ResilienceError(f"failpoint probability must be in [0, 1], got {probability}")
        if mode not in _CORRUPT_MODES:
            raise ResilienceError(
                f"unknown corruption mode {mode!r}; valid modes: {', '.join(_CORRUPT_MODES)}"
            )
        self.site = site
        self.action = action
        self.hits = hits
        self.times = times
        self.probability = probability
        self.delay_s = delay_s
        self.seed = seed
        self.mode = mode
        self.flips = flips
        self.hit_count = 0
        self.fired = 0
        self._rng = random.Random(seed) if probability is not None else None
        self._corrupt_rng = random.Random(seed) if action == "corrupt" else None

    def _should_fire(self) -> bool:
        """Called under ``_LOCK``.  Advances counters, decides this hit."""
        self.hit_count += 1
        if self.hit_count < self.hits:
            return False
        if self.times and self.fired >= self.times:
            return False
        if self._rng is not None and self._rng.random() >= self.probability:
            return False
        self.fired += 1
        return True

    def _fire(self, context: Optional[dict] = None) -> None:
        """Perform the action.  Called outside the lock."""
        context = context or {}
        emit(
            "fault.injected",
            site=self.site,
            action=self.action,
            fired=self.fired,
            **({"path": context["path"]} if "path" in context else {}),
        )
        if self.action == "raise":
            raise FaultInjected(f"fault injected at {self.site!r}")
        if self.action == "crash":
            raise SimulatedCrash(self.site)
        if self.action == "corrupt":
            path = context.get("path")
            if path is None:
                raise ResilienceError(
                    f"corrupt action fired at {self.site!r}, but the site "
                    "passed no file path in its context"
                )
            corrupt_file(
                path,
                self.mode,
                rng=self._corrupt_rng,
                start=context.get("start", 0),
                end=context.get("end"),
                flips=self.flips,
            )
            return  # silent damage: execution continues, detection comes later
        time.sleep(self.delay_s)  # action == "delay"

    def spec(self) -> str:
        """Render this failpoint as an ``ENV_VAR`` entry."""
        opts = []
        if self.hits != 1:
            opts.append(f"hits={self.hits}")
        if self.times != 1:
            opts.append(f"times={self.times}")
        if self.probability is not None:
            opts.append(f"probability={self.probability}")
            if self.seed:
                opts.append(f"seed={self.seed}")
        if self.action == "delay" and self.delay_s != 0.01:
            opts.append(f"delay_s={self.delay_s}")
        if self.action == "corrupt":
            opts.append(f"mode={self.mode}")
            if self.flips != 1:
                opts.append(f"flips={self.flips}")
            if self.seed:
                opts.append(f"seed={self.seed}")
        rendered = f"{self.site}={self.action}"
        if opts:
            rendered += ":" + ",".join(opts)
        return rendered


_LOCK = threading.Lock()
_REGISTRY: Dict[str, FailPoint] = {}
_ACTIVE = False  # mirrors bool(_REGISTRY); read without the lock on the hot path


def declare_site(site: str, description: str) -> None:
    """Register an extra site (tests may declare ad-hoc sites)."""
    SITE_CATALOG.setdefault(site, description)


def faults_armed() -> bool:
    """True when any failpoint is armed (one global read, no lock).

    Hot paths whose :func:`fail_point` call would need non-trivial context
    (a ``stat`` for a byte offset, string rendering) guard that work behind
    this so the unarmed cost stays a single read.
    """
    return _ACTIVE


def fail_point(site: str, **context) -> None:
    """Hook compiled into a production code path.  Near-free when unarmed.

    ``context`` carries site-specific facts for actions that need them —
    the ``corrupt`` sites pass the target file path and byte region.
    Keyword construction only happens when the caller passes context, so
    context-free sites stay a single global read when unarmed.
    """
    if not _ACTIVE:
        return
    with _LOCK:
        point = _REGISTRY.get(site)
        if point is None or not point._should_fire():
            return
    point._fire(context)


def arm(site: str, action: str = "raise", **options) -> FailPoint:
    """Arm ``site``; returns the live :class:`FailPoint` (inspect ``.fired``)."""
    global _ACTIVE
    point = FailPoint(site, action, **options)
    with _LOCK:
        _REGISTRY[site] = point
        _ACTIVE = True
    return point


def disarm(site: str) -> None:
    global _ACTIVE
    with _LOCK:
        _REGISTRY.pop(site, None)
        _ACTIVE = bool(_REGISTRY)


def disarm_all() -> None:
    global _ACTIVE
    with _LOCK:
        _REGISTRY.clear()
        _ACTIVE = False


def armed_sites() -> Dict[str, FailPoint]:
    """Snapshot of the currently armed sites."""
    with _LOCK:
        return dict(_REGISTRY)


class fail_at:
    """Context manager arming one site for the dynamic extent of a block::

        with fail_at("wal.append.fsync", hits=3) as point:
            ...
        assert point.fired == 1
    """

    def __init__(self, site: str, action: str = "raise", **options):
        self._site = site
        self._action = action
        self._options = options
        self.point: Optional[FailPoint] = None

    def __enter__(self) -> FailPoint:
        self.point = arm(self._site, self._action, **self._options)
        return self.point

    def __exit__(self, *exc) -> bool:
        disarm(self._site)
        return False


def env_spec(points: Iterator[FailPoint] = None) -> str:
    """Render armed failpoints as an ``ENV_VAR`` value for child processes."""
    source = list(points) if points is not None else list(armed_sites().values())
    return ";".join(point.spec() for point in source)


def _parse_options(text: str) -> dict:
    options: dict = {}
    for part in filter(None, text.split(",")):
        if "=" not in part:
            raise ResilienceError(f"malformed failpoint option {part!r} (expected key=value)")
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in ("hits", "times", "seed", "flips"):
            options[key] = int(raw)
        elif key in ("probability", "delay_s"):
            options[key] = float(raw)
        elif key == "mode":
            options[key] = raw
        else:
            raise ResilienceError(f"unknown failpoint option {key!r}")
    return options


def arm_from_env(value: Optional[str]) -> int:
    """Parse an ``ENV_VAR``-style spec and arm every entry.  Returns the count.

    Grammar: ``site=action[:opt=value[,opt=value...]]`` joined by ``;``.
    """
    if not value:
        return 0
    count = 0
    for entry in filter(None, (piece.strip() for piece in value.split(";"))):
        if "=" not in entry:
            raise ResilienceError(f"malformed failpoint spec {entry!r} (expected site=action)")
        site, _, rest = entry.partition("=")
        action, _, option_text = rest.partition(":")
        arm(site.strip(), action.strip(), **_parse_options(option_text))
        count += 1
    return count


arm_from_env(os.environ.get(ENV_VAR))
