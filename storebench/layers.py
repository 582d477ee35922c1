"""The traced pass: wrap each layer's public calls, fold spans into layers.

:func:`instrumented` wraps, for the duration of the traced pass only, the
calls the issue names as layer boundaries: plan-cache lookups and query
preparation, the pushdown executor, index build and navigation, shredding,
delta application, view maintenance, WAL appends and replay, snapshot
writes and loads, batch evaluation and program runs.  Each wrapper opens a
``call:<name>`` span through ``repro.obs.trace.span``, so it records only
while the clock has tracing armed around an operation; reference checks run
disarmed and leave no spans.  The program's own spans (``store.query.*``,
``prepare.*``, ``ivm.apply``, ``store.wal.append``, ...) nest with them.

:func:`per_layer_metrics` folds the spans into per-layer *self* time: a
span's duration minus the part its child spans cover.  The root span of each
operation (``op.<kind>``) belongs to no layer; its self time is the
unattributed share.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.exec.batch import BatchEvaluator
from repro.exec.plan_cache import PlanCache
from repro.ivm.delta import Delta
from repro.ivm.view import MaterializedView
from repro.obs.trace import Span, span
from repro.store import store as store_module
from repro.store.columns import ShreddedColumns
from repro.store.index import StructuralIndex
from repro.store.pushdown import PushdownExecutor
from repro.store.store import DocumentStore
from repro.store.wal import WriteAheadLog
from repro.uxquery.engine import PreparedQuery

#: Span name -> layer.  ``call:`` spans come from the wrappers below, the
#: rest are spans the program emits itself.
LAYERS = {
    "call:PlanCache.get": "exec.plan_cache",
    "call:PreparedQuery.__init__": "uxquery.prepare",
    "prepare.parse": "uxquery.prepare",
    "prepare.typecheck": "uxquery.prepare",
    "prepare.normalize": "uxquery.prepare",
    "prepare.compile-nrc": "uxquery.prepare",
    "prepare.simplify": "uxquery.prepare",
    "prepare.compile-closures": "uxquery.prepare",
    "prepare.codegen": "uxquery.prepare",
    "store.query": "store.api",
    "call:PushdownExecutor.execute": "store.pushdown",
    "store.query.split": "store.pushdown",
    "store.query.navigate": "store.pushdown",
    "store.query.residual": "store.pushdown",
    "store.query.fallback": "store.pushdown",
    "call:StructuralIndex.__init__": "store.index.build",
    "call:StructuralIndex.navigate": "store.index.navigate",
    "call:ShreddedColumns.from_forest": "store.columns.shred",
    "call:Delta.apply_to": "ivm.delta.apply_to",
    "call:MaterializedView.__init__": "ivm.view",
    "call:MaterializedView.apply": "ivm.view",
    "ivm.apply": "ivm.view",
    "call:WriteAheadLog.append": "store.wal.append",
    "store.wal.append": "store.wal.append",
    "call:WriteAheadLog.__init__": "store.wal.replay",
    "call:DocumentStore._replay": "store.wal.replay",
    "call:write_snapshot": "store.snapshot.write",
    "store.snapshot.write": "store.snapshot.write",
    "call:load_snapshot": "store.snapshot.load",
    "call:BatchEvaluator.evaluate_many": "exec.batch",
    "exec.batch.fan_out": "exec.batch",
}

#: Program runs take the layer of whoever ran them: a run under the
#: pushdown executor (its residual or fallback program) is ``nrc.program``;
#: a view recompute stays in ``ivm.view``.
_PROGRAM_RUNS = ("call:PreparedQuery.evaluate", "evaluate")


def _wrap(name: str, fn: Callable[..., Any], annotate=None) -> Callable[..., Any]:
    """``fn`` inside a ``call:<name>`` span.  ``annotate(args)`` runs before
    the call and returns a function of the result giving span attributes."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span(f"call:{name}") as current:
            after = annotate(args) if annotate is not None else None
            result = fn(*args, **kwargs)
            if after is not None:
                current.annotate(**after(result))
            return result

    return wrapper


def _navigate_hit(args):
    index = args[0]
    hits = index.nav_hits
    return lambda _result: {"hit": index.nav_hits > hits}


def _plan_cache_outcome(args):
    before = args[0].stats()
    return lambda _result: {
        "hit": args[0].stats().misses == before.misses,
        "evictions": args[0].stats().evictions - before.evictions,
    }


def _codegen_served(args):
    generated = args[0].generated
    calls = generated.calls if generated is not None else 0
    return lambda _result: {
        "codegen": generated is not None and generated.calls > calls
    }


def _snapshot_bytes(args):
    return lambda _result: {"bytes": Path(args[0]).stat().st_size}


def _rows(_args):
    return lambda columns: {"rows": len(columns)}


def _documents(args):
    documents = args[1]
    return lambda _result: {"documents": len(documents)}


@contextlib.contextmanager
def instrumented() -> Iterator[None]:
    """Install the layer wrappers; restore the originals on exit."""
    patches = [
        (PlanCache, "get", _plan_cache_outcome),
        (PreparedQuery, "__init__", None),
        (PreparedQuery, "evaluate", _codegen_served),
        (PushdownExecutor, "execute", None),
        (StructuralIndex, "__init__", None),
        (StructuralIndex, "navigate", _navigate_hit),
        (Delta, "apply_to", None),
        (MaterializedView, "__init__", None),
        (MaterializedView, "apply", None),
        (WriteAheadLog, "__init__", None),
        (WriteAheadLog, "append", None),
        (DocumentStore, "_replay", None),
        (BatchEvaluator, "evaluate_many", _documents),
    ]
    saved = []
    try:
        for owner, attribute, annotate in patches:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(f"{owner.__name__}.{attribute}", original, annotate))
        # A classmethod: wrap the underlying function, keep it a classmethod.
        original = ShreddedColumns.__dict__["from_forest"]
        saved.append((ShreddedColumns, "from_forest", original))
        ShreddedColumns.from_forest = classmethod(
            _wrap("ShreddedColumns.from_forest", original.__func__, _rows)
        )
        # The store module imported these by name; wrap them where it calls them.
        for attribute, annotate in (("write_snapshot", _snapshot_bytes), ("load_snapshot", None)):
            original = getattr(store_module, attribute)
            saved.append((store_module, attribute, original))
            setattr(store_module, attribute, _wrap(attribute, original, annotate))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


class Folded:
    """Spans of one traced pass, folded into per-layer self time."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self._by_id = {each.span_id: each for each in spans}
        covered: dict[str, float] = defaultdict(float)
        for each in spans:
            if each.parent_id in self._by_id:
                covered[each.parent_id] += each.duration
        self.self_time = {each.span_id: each.duration - covered[each.span_id] for each in spans}
        self._layers: dict[str, str | None] = {}
        self._roots: dict[str, Span] = {}

    def parent(self, each: Span) -> Span | None:
        return self._by_id.get(each.parent_id)

    def root(self, each: Span) -> Span:
        found = self._roots.get(each.span_id)
        if found is None:
            parent = self.parent(each)
            found = each if parent is None else self.root(parent)
            self._roots[each.span_id] = found
        return found

    def layer(self, each: Span) -> str | None:
        """The layer a span's self time belongs to (``None``: unattributed)."""
        if each.span_id not in self._layers:
            if each.name.startswith("op."):
                layer = None
            elif each.name in _PROGRAM_RUNS:
                parent = self.parent(each)
                layer = self.layer(parent) if parent is not None else None
                if each.name == "call:PreparedQuery.evaluate" and layer == "store.pushdown":
                    layer = "nrc.program"
            else:
                layer = LAYERS.get(each.name, each.name)
            self._layers[each.span_id] = layer
        return self._layers[each.span_id]

    def roots(self, kinds: tuple[str, ...] | None = None) -> list[Span]:
        return [
            each for each in self.spans
            if each.parent_id is None and (kinds is None or each.name[3:] in kinds)
        ]

    def named(self, name: str) -> list[Span]:
        return [each for each in self.spans if each.name == name]

    def layer_self(self) -> Counter:
        totals: Counter = Counter()
        for each in self.spans:
            totals[self.layer(each)] += self.self_time[each.span_id]
        return totals

    def shares(self, root_filter: Callable[[Span], bool]) -> dict[str, float]:
        """Layer self time as a share of the matching operations' time."""
        roots = {each.span_id for each in self.spans
                 if each.parent_id is None and root_filter(each)}
        total = sum(self._by_id[span_id].duration for span_id in roots)
        totals: Counter = Counter()
        for each in self.spans:
            if self.root(each).span_id in roots:
                totals[self.layer(each) or "unattributed"] += self.self_time[each.span_id]
        return {layer: value / total for layer, value in sorted(totals.items())} if total else {}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(folded: Folded, loop_kinds: tuple[str, ...], rows_changed: int) -> dict[str, float]:
    """Every per-layer metric of the traced pass (name -> value)."""
    operations = len(folded.roots(loop_kinds))
    self_ms = {layer: seconds * 1000.0 / operations for layer, seconds in folded.layer_self().items()}
    roots = folded.roots()

    builds = folded.named("call:StructuralIndex.__init__")
    shreds = [each for each in folded.named("call:ShreddedColumns.from_forest")
              if folded.root(each).name == "op.update"]
    view_applies = folded.named("ivm.apply")
    appends = folded.named("store.wal.append")
    snapshots = folded.named("call:write_snapshot")
    pushdowns = len(folded.named("call:PushdownExecutor.execute"))
    residuals = len(folded.named("store.query.residual"))
    fallbacks = len(folded.named("store.query.fallback"))
    navigations = folded.named("call:StructuralIndex.navigate")
    prepares = folded.named("call:PreparedQuery.__init__")
    lookups = folded.named("call:PlanCache.get")
    programs = [each for each in folded.named("call:PreparedQuery.evaluate")
                if folded.layer(each) == "nrc.program"]
    batches = folded.named("call:BatchEvaluator.evaluate_many")
    replays = folded.named("call:WriteAheadLog.__init__") + folded.named("call:DocumentStore._replay")
    wal_bytes = sum(each.attrs.get("bytes", 0) for each in appends)
    snapshot_bytes = sum(each.attrs.get("bytes", 0) for each in snapshots)
    root_time = sum(each.duration for each in roots)

    return {
        "disk_bytes_per_op": _ratio(wal_bytes + snapshot_bytes, operations),
        "store.index.build_ms": self_ms.get("store.index.build", 0.0),
        "store.index.builds": len(builds),
        "store.columns.shred_ms": self_ms.get("store.columns.shred", 0.0),
        "store.columns.rows_shredded_per_row_changed": _ratio(
            sum(each.attrs["rows"] for each in shreds), rows_changed
        ),
        "ivm.delta.apply_to_ms": self_ms.get("ivm.delta.apply_to", 0.0),
        "ivm.view.apply_ms": self_ms.get("ivm.view", 0.0),
        "ivm.view.incremental_share": _ratio(
            sum(each.attrs.get("maintenance") == "incremental" for each in view_applies),
            len(view_applies),
        ),
        "store.wal.append_ms": self_ms.get("store.wal.append", 0.0),
        "store.wal.bytes_per_append": _ratio(wal_bytes, len(appends)),
        "store.snapshot.write_ms": self_ms.get("store.snapshot.write", 0.0),
        "store.snapshot.bytes": _ratio(snapshot_bytes, len(snapshots)),
        "store.snapshot.compactions": len(snapshots),
        "store.pushdown.full_share": _ratio(pushdowns - residuals - fallbacks, pushdowns),
        "store.pushdown.residual_share": _ratio(residuals, pushdowns),
        "store.pushdown.fallback_share": _ratio(fallbacks, pushdowns),
        "store.pushdown.self_ms": self_ms.get("store.pushdown", 0.0),
        "store.index.navigate_ms": self_ms.get("store.index.navigate", 0.0),
        "store.index.nav_memo_hit_ratio": _ratio(
            sum(bool(each.attrs.get("hit")) for each in navigations), len(navigations)
        ),
        "uxquery.prepare_ms": self_ms.get("uxquery.prepare", 0.0),
        "uxquery.prepares": len(prepares),
        "exec.plan_cache.hit_ratio": _ratio(
            sum(bool(each.attrs.get("hit")) for each in lookups), len(lookups)
        ),
        "exec.plan_cache.evictions": sum(each.attrs.get("evictions", 0) for each in lookups),
        "nrc.program_ms": self_ms.get("nrc.program", 0.0),
        "nrc.codegen_share": _ratio(
            sum(bool(each.attrs.get("codegen")) for each in programs), len(programs)
        ),
        "exec.batch.ms_per_doc": _ratio(
            sum(each.duration for each in batches) * 1000.0,
            sum(each.attrs.get("documents", 0) for each in batches),
        ),
        "store.snapshot.load_ms": self_ms.get("store.snapshot.load", 0.0),
        "store.wal.replay_ms": _ratio(sum(each.duration for each in replays) * 1000.0, operations),
        "trace.unattributed_share": _ratio(
            sum(folded.self_time[each.span_id] for each in roots), root_time
        ),
    }
