"""The :class:`DocumentStore` facade: ingest, update, query, compact.

One store holds many documents, each kept as one immutable index block per
top-level member (:mod:`repro.store.index`), from which its shredded
columnar form (:mod:`repro.store.columns`) is assembled when a snapshot or
``fsck`` needs it.  Queries are compiled through a per-store
:class:`~repro.exec.plan_cache.PlanCache` and served by the navigation
pushdown (:mod:`repro.store.pushdown`), exactly equal to single-shot
evaluation; ``query_many`` serves each of its documents the same way.
Updates are :class:`~repro.ivm.delta.Delta` values applied through the IVM
machinery, maintaining every registered
:class:`~repro.ivm.view.MaterializedView` as they land.  A delta changes
whole members, so an update replaces only the blocks of the members it
touches: its cost follows the change, not the document.

Durability (optional — pass ``directory=``): every state change is appended
to the JSONL write-ahead log *before* it is applied, and
:meth:`DocumentStore.compact` writes an atomic snapshot of the columns and
view definitions, then truncates the log.  Opening a store over an existing
directory recovers by loading the snapshot and replaying the WAL tail
through the same ingest/update/register code paths — the recovery invariant
(checked on randomized update streams by ``tests/store``):

    snapshot + WAL replay  ==  the uninterrupted in-memory state,

bit-identical in columns, annotations and registered view caches, for every
registry semiring.

Observability follows the ``cache-stats`` idiom: :meth:`DocumentStore.stats`
snapshots ingest/update/query counters, pushdown counts, WAL and snapshot
activity; the per-store plan cache exposes its own
:class:`~repro.exec.plan_cache.CacheStats`.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Tuple

from repro.errors import ExecError, SemiringError, StoreError
from repro.exec.batch import merge_ksets, run_guarded
from repro.exec.plan_cache import PlanCache
from repro.ivm.delta import Delta
from repro.ivm.view import MaterializedView
from repro.kcollections.kset import KSet
from repro.obs.events import emit
from repro.obs.metrics import default_registry
from repro.obs.qlog import observe
from repro.obs.trace import span
from repro.resilience.faults import fail_point
from repro.resilience.limits import EvalLimits
from repro.semirings.base import Semiring
from repro.semirings.registry import get_semiring
from repro.store.columns import ShreddedColumns
from repro.store.index import StructuralIndex
from repro.store.pushdown import PushdownExecutor
from repro.store.snapshot import (
    load_snapshot,
    semiring_registry_name,
    write_snapshot,
)
from repro.store.wal import WriteAheadLog, delta_to_payload, payload_to_delta
from repro.uxquery.ast import Query
from repro.uxquery.engine import PreparedQuery, env_types_of
from repro.uxquery.typecheck import FOREST

__all__ = [
    "META_FILE",
    "WAL_FILE",
    "SNAPSHOT_FILE",
    "read_meta",
    "StoredDocument",
    "StoreStats",
    "DocumentStore",
]

#: The durable files of a store directory.
META_FILE = "meta.json"
WAL_FILE = "wal.jsonl"
SNAPSHOT_FILE = "snapshot.json"


def read_meta(directory: Path) -> Tuple[Optional[str], Optional[str]]:
    """The registry semiring name ``meta.json`` pins, or why it cannot be read.

    Returns ``(name, None)`` when the file names a registry semiring and
    ``(None, problem)`` otherwise; reads nothing else and changes nothing.
    """
    try:
        name = json.loads((directory / META_FILE).read_text(encoding="utf-8"))["semiring"]
        get_semiring(name)
    except FileNotFoundError:
        return None, "missing store metadata"
    except (OSError, ValueError, KeyError, TypeError, SemiringError) as error:
        return None, f"corrupt store metadata: {error}"
    return name, None

# Pre-declared metric families: every store publishes its counters under a
# unique ``store=`` label via a weakref pull collector over
# :meth:`DocumentStore.stats` (the instance counters stay the source of
# truth; nothing on the ingest/update/query hot paths touches the registry).
_REGISTRY = default_registry()
_REGISTRY.counter(
    "repro_store_operations_total",
    "Store operations by kind (ingests / updates / queries / pushdowns / "
    "full_pushdowns / fallbacks / snapshots / recovered_records)",
)
_REGISTRY.gauge("repro_store_documents", "Documents currently held by the store")
_REGISTRY.gauge("repro_store_views", "Materialized views registered on the store")
_REGISTRY.gauge("repro_store_wal_records", "Records currently in the store's WAL")

#: Disambiguates the ``store=`` label across instances (two in-memory stores
#: must not collapse into one time series).
_STORE_SEQ = itertools.count(1)

_DURABILITY_POLICIES = ("none", "fsync")

_OPERATION_KINDS = (
    "ingests",
    "updates",
    "queries",
    "pushdowns",
    "full_pushdowns",
    "fallbacks",
    "snapshots",
    "recovered_records",
)


def _method(how: str | None) -> str:
    """The query-log ``method`` of a read the pushdown served ``how``: the
    indexes alone, or the residual plan's generated program."""
    return "index" if how == "full-pushdown" else "nrc-codegen"


class StoredDocument:
    """One stored document: the current version of its per-member index."""

    __slots__ = ("doc_id", "index")

    def __init__(self, doc_id: str, index: StructuralIndex):
        self.doc_id = doc_id
        self.index = index

    @property
    def columns(self) -> ShreddedColumns:
        """The document's shredded rows (assembled from the index blocks)."""
        return self.index.columns

    def forest(self) -> KSet:
        """The document as a K-set of trees (cached on the index)."""
        return self.index.forest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StoredDocument {self.doc_id!r}: {len(self.columns)} rows>"


class StoreStats(NamedTuple):
    """A consistent snapshot of a store's counters (``cache-stats`` style).

    ``queries`` and ``pushdowns`` (reads served through the indexes) both
    count documents: one per :meth:`DocumentStore.query` call and one per
    document of a :meth:`DocumentStore.query_many` call.  View
    materializations are not queries.
    ``fallbacks`` always reads 0: no query is evaluated single-shot since
    every plan splits.  It stays so ``repro store stats`` and the
    ``repro_store_operations_total`` series keep their shape.
    """

    documents: int
    views: int
    ingests: int
    updates: int
    queries: int
    pushdowns: int
    full_pushdowns: int
    fallbacks: int
    wal_records: int
    snapshots: int
    recovered_records: int
    wal_v0_records: int = 0

    @property
    def pushdown_rate(self) -> float:
        """Fraction of queries served through the indexes (0.0 when unused)."""
        return self.pushdowns / self.queries if self.queries else 0.0


class DocumentStore:
    """A persistent, indexed, K-annotated multi-document store."""

    def __init__(
        self,
        semiring: Semiring | None = None,
        directory: Path | str | None = None,
        *,
        snapshot_every: int = 0,
        durability: str = "none",
        plan_cache: PlanCache | None = None,
    ):
        """Open (or create) a store.

        ``directory=None`` gives a purely in-memory store (no durability).
        With a directory, the store is durable: a ``meta.json`` pins the
        semiring, ``wal.jsonl`` journals every change, ``snapshot.json``
        holds the latest compaction image, and construction *recovers* any
        existing state.  ``semiring`` may be omitted when opening an existing
        directory.  ``snapshot_every=N`` auto-compacts after every N WAL
        appends.

        The WAL fsync policy is ``durability``: ``"none"`` (the default)
        flushes each append to the OS but survives only process crashes,
        ``"fsync"`` makes each append a true fsync barrier that also
        survives power loss, at the cost of one disk sync per operation.
        """
        self.directory = Path(directory) if directory is not None else None
        if durability not in _DURABILITY_POLICIES:
            raise StoreError(
                f"unknown durability policy {durability!r}; "
                f"valid policies: {', '.join(sorted(_DURABILITY_POLICIES))}"
            )
        self.durability = durability
        self._snapshot_every = snapshot_every
        self._documents: dict[str, StoredDocument] = {}
        self._views: dict[str, MaterializedView] = {}
        self._view_records: dict[str, dict] = {}
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(maxsize=128)
        self._pushdown = PushdownExecutor(self.plan_cache)
        self._ingests = 0
        self._updates = 0
        self._queries = 0
        self._snapshots = 0
        self._recovered_records = 0
        self._snapshot_lsn = 0
        self._appends_since_snapshot = 0
        self._wal: WriteAheadLog | None = None

        if self.directory is None:
            if semiring is None:
                raise StoreError("an in-memory store needs an explicit semiring")
            self.semiring = semiring
            self._semiring_name = semiring_registry_name(semiring)
            self._register_metrics()
            return

        self.directory.mkdir(parents=True, exist_ok=True)
        meta_path = self.directory / META_FILE
        if meta_path.exists():
            stored_name, problem = read_meta(self.directory)
            if problem is not None:
                raise StoreError(f"{meta_path}: {problem}")
            stored = get_semiring(stored_name)
            if semiring is not None and semiring != stored:
                raise StoreError(
                    f"store at {self.directory} is over {stored.name}, "
                    f"not {semiring.name}"
                )
            self.semiring = stored
            self._semiring_name = stored_name
        else:
            if semiring is None:
                raise StoreError(
                    f"no store at {self.directory}; creating one needs a semiring"
                )
            name = semiring_registry_name(semiring)
            if name is None:
                raise StoreError(
                    f"semiring {semiring.name} is not in the registry; durable "
                    "stores need a registry semiring (use directory=None)"
                )
            self.semiring = semiring
            self._semiring_name = name
            meta_path.write_text(
                json.dumps({"format": 1, "semiring": name}, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        self._wal = WriteAheadLog(self.directory / WAL_FILE, fsync=durability == "fsync")
        self._recover()
        self._register_metrics()

    def _register_metrics(self) -> None:
        where = self.directory.name if self.directory is not None else "memory"
        self._metrics_label = f"{where}:{next(_STORE_SEQ)}"
        _REGISTRY.register_object_collector(
            f"store:{self._metrics_label}", self, DocumentStore._collect_metrics
        )

    def _collect_metrics(self, sink: Any) -> None:
        stats = self.stats()
        label = self._metrics_label
        for kind in _OPERATION_KINDS:
            sink.counter(
                "repro_store_operations_total", getattr(stats, kind), store=label, kind=kind
            )
        sink.gauge("repro_store_documents", stats.documents, store=label)
        sink.gauge("repro_store_views", stats.views, store=label)
        sink.gauge("repro_store_wal_records", stats.wal_records, store=label)

    @classmethod
    def open(cls, directory: Path | str, **kwargs: Any) -> "DocumentStore":
        """Open an existing durable store, reading the semiring from disk."""
        return cls(semiring=None, directory=directory, **kwargs)

    # ------------------------------------------------------------------ state
    @property
    def durable(self) -> bool:
        return self._wal is not None

    def document_ids(self) -> list[str]:
        return sorted(self._documents)

    def document(self, doc_id: str) -> StoredDocument:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise StoreError(
                f"no document {doc_id!r} in the store; have: {self.document_ids()}"
            ) from None

    def columns(self, doc_id: str) -> ShreddedColumns:
        return self.document(doc_id).columns

    def forest(self, doc_id: str) -> KSet:
        return self.document(doc_id).forest()

    def view(self, name: str) -> MaterializedView:
        try:
            return self._views[name]
        except KeyError:
            raise StoreError(
                f"no view {name!r} registered; have: {sorted(self._views)}"
            ) from None

    def view_names(self) -> list[str]:
        return sorted(self._views)

    def _resolve_doc(self, doc_id: str | None) -> str:
        if doc_id is not None:
            return doc_id
        if len(self._documents) == 1:
            return next(iter(self._documents))
        raise StoreError(
            f"doc_id is required when the store holds {len(self._documents)} "
            f"documents; have: {self.document_ids()}"
        )

    # ------------------------------------------------------------------ ingest
    def ingest(self, doc_id: str, forest: KSet, replace: bool = False) -> StoredDocument:
        """Shred and store ``forest`` under ``doc_id`` (WAL-logged first)."""
        if not isinstance(forest, KSet):
            raise StoreError(f"documents are K-sets of trees, got {forest!r}")
        if forest.semiring != self.semiring:
            raise StoreError(
                f"document over {forest.semiring.name} cannot enter a store "
                f"over {self.semiring.name}"
            )
        if doc_id in self._documents and not replace:
            raise StoreError(
                f"document {doc_id!r} already exists (pass replace=True to overwrite)"
            )
        columns = ShreddedColumns.from_forest(forest)
        self._log({"op": "ingest", "doc": doc_id, "columns": columns.to_payload()})
        # A crash here leaves the record journaled but unapplied; recovery
        # replays it exactly once (replay skips nothing past the snapshot lsn).
        fail_point("store.ingest.apply")
        stored = self._apply_ingest(doc_id, columns)
        self._ingests += 1
        self._maybe_autocompact()
        return stored

    def _apply_ingest(self, doc_id: str, columns: ShreddedColumns) -> StoredDocument:
        stored = StoredDocument(doc_id, StructuralIndex(columns))
        replacing = doc_id in self._documents
        self._documents[doc_id] = stored
        if replacing:
            # A replaced document invalidates every view over it: re-materialize
            # from the new contents, or the caches (and all later delta
            # maintenance) would keep tracking the old document.
            for record in list(self._view_records.values()):
                if record["doc"] == doc_id:
                    self._apply_view(record)
        return stored

    # ------------------------------------------------------------------ update
    def update(self, doc_id: str, delta: Delta) -> KSet:
        """Apply a delta to a stored document; returns the updated forest.

        The delta is journaled, the index blocks of the members it touches
        are replaced (every other member's block, navigation memo included,
        carries over), and every registered view over the document is
        maintained through its compiled delta plan (recompute fallback per
        the IVM contract).
        """
        if not isinstance(delta, Delta):
            raise StoreError(f"updates are repro.ivm Delta values, got {delta!r}")
        if delta.semiring != self.semiring:
            raise StoreError(
                f"delta over {delta.semiring.name} cannot update a store "
                f"over {self.semiring.name}"
            )
        stored = self.document(doc_id)
        # Validate applicability before journaling: a rejected delta (e.g. a
        # deletion with no exact subtraction) must not reach the WAL.
        new_forest = delta.apply_to(stored.forest())
        payload = delta_to_payload(delta)
        payload.update({"op": "update", "doc": doc_id})
        self._log(payload)
        fail_point("store.update.apply")
        self._apply_update(doc_id, delta, new_forest)
        self._updates += 1
        self._maybe_autocompact()
        return self._documents[doc_id].forest()

    def _apply_update(self, doc_id: str, delta: Delta, new_forest: KSet | None = None) -> None:
        stored = self._documents[doc_id]
        if new_forest is None:
            new_forest = delta.apply_to(stored.forest())
        with span("store.index.build", doc=doc_id, members=len(delta)):
            index = stored.index.updated(delta.trees(), new_forest)
        self._documents[doc_id] = StoredDocument(doc_id, index)
        for name, record in self._view_records.items():
            if record["doc"] == doc_id:
                self._views[name].apply(delta)

    # ------------------------------------------------------------------- query
    def _prepare(
        self, query: str | Query, var: str, env: Mapping[str, Any] | None = None
    ) -> PreparedQuery:
        """The store's plan for ``query`` over a document bound to ``$var``."""
        env_types = {var: FOREST}
        if env:
            env_types.update(env_types_of({k: v for k, v in env.items() if k != var}))
        return self.plan_cache.get(query, self.semiring, env_types=env_types)

    def query(
        self,
        query: str | Query,
        doc_id: str | None = None,
        env: Mapping[str, Any] | None = None,
        var: str = "S",
    ) -> Any:
        """Evaluate a K-UXQuery over one stored document.

        The document is bound to ``$var``; extra bindings come from ``env``.
        Plans compile once through the store's plan cache.  Each distinct
        step chain over ``$var`` is navigated once on the structural
        indexes, and the residual plan combines the results — exactly
        ``prepared.evaluate({var: document, **env})``.
        """
        stored = self.document(self._resolve_doc(doc_id))
        prepared = self._prepare(query, var, env)
        self._queries += 1
        with observe("store.query", prepared, doc=stored.doc_id) as obs:
            result, how, plan = self._pushdown.execute(prepared, stored.index, var, env)
            return obs.done(
                result,
                method=_method(how),
                plan=plan,
                pushdown=how,
                store=self._metrics_label,
                var=var,
            )

    def query_many(
        self,
        query: str | Query,
        doc_ids: Iterable[str] | None = None,
        env: Mapping[str, Any] | None = None,
        var: str = "S",
        merge: bool = False,
        executor: Any | None = None,
        limits: EvalLimits | None = None,
    ) -> Any:
        """Run one query over many stored documents in a single call.

        Each document is served exactly as :meth:`query` serves it, from
        the indexes and the residual plan, and ``merge=True`` unions the
        per-document K-sets exactly.  ``limits=`` guards the whole call:
        one deadline across every document, and each per-document result
        and the merged K-set are charged against the row and byte budgets.
        The call runs inline; ``executor`` is kept only for callers that
        pass ``None``, and any other value raises
        :class:`~repro.errors.ExecError` before any document runs.
        """
        if executor is not None:
            raise ExecError(f"query_many runs inline and takes no executor; got {executor!r}")
        ids = list(doc_ids) if doc_ids is not None else self.document_ids()
        documents = [self.document(doc_id) for doc_id in ids]
        prepared = self._prepare(query, var, env)
        self._queries += len(ids)
        guard = limits.start() if limits is not None and limits.is_bounded else None
        # The split depends only on the plan, so every document is served
        # the same way: the record reports how the last one was.
        how = plan = None

        def serve(stored: StoredDocument) -> Any:
            nonlocal how, plan
            result, how, plan = self._pushdown.execute(prepared, stored.index, var, env)
            return result

        with observe(
            "store.query_many",
            prepared,
            store=self._metrics_label,
            docs=ids,
            var=var,
            merge=merge,
        ) as obs:
            result = run_guarded(serve, documents, guard)
            if merge:
                result = merge_ksets(result, self.semiring, guard)
            return obs.done(result, method=_method(how), plan=plan, pushdown=how)

    # ------------------------------------------------------------------- views
    def register_view(self, name: str, query: str, doc_id: str, var: str = "S") -> MaterializedView:
        """Materialize ``query`` over a stored document, maintained on update.

        The initial result is served like a query, by navigating the
        indexes and running the residual, never the view's own plan (it is
        not counted as one in :meth:`stats`).  The definition is journaled
        (and snapshotted), so recovery rebuilds the view the same way and
        replays subsequent updates through its delta plan — ending with a
        cache equal to the uninterrupted store's.
        """
        if name in self._views:
            raise StoreError(f"a view named {name!r} is already registered")
        if not isinstance(query, str):
            raise StoreError("view definitions are query text (durable records)")
        self.document(doc_id)  # existence check before journaling
        record = {"op": "view", "name": name, "doc": doc_id, "query": query, "var": var}
        self._log(record)
        fail_point("store.view.apply")
        view = self._apply_view(record)
        self._maybe_autocompact()
        return view

    def _apply_view(self, record: dict) -> MaterializedView:
        name, doc_id, query, var = (
            record["name"],
            record["doc"],
            record["query"],
            record.get("var", "S"),
        )
        prepared = self._prepare(query, var)
        stored = self.document(doc_id)
        # One ``evaluate`` record in the view's own text, as evaluating its
        # plan writes: the residual's ``$__nav`` text never reaches the log.
        with observe(
            "evaluate", prepared, method="nrc-codegen", semiring=self.semiring.name
        ) as obs:
            result, how, plan = self._pushdown.evaluate(prepared, stored.index, var)
            obs.done(result, method=_method(how), plan=plan)
        view = MaterializedView(prepared, stored.forest(), var=var, result=result)
        self._views[name] = view
        self._view_records[name] = {k: v for k, v in record.items() if k != "lsn"}
        return view

    # -------------------------------------------------------------- durability
    def _log(self, record: dict) -> None:
        if self._wal is None:
            return
        self._wal.append(record)
        self._appends_since_snapshot += 1

    def _maybe_autocompact(self) -> None:
        if (
            self._wal is not None
            and self._snapshot_every > 0
            and self._appends_since_snapshot >= self._snapshot_every
        ):
            self.compact()

    def compact(self) -> None:
        """Snapshot the store and truncate the WAL (crash-safe sequence)."""
        if self._wal is None:
            raise StoreError("an in-memory store has nothing to compact")
        self._snapshot_lsn = self._wal.last_lsn if len(self._wal) else self._snapshot_lsn
        write_snapshot(
            self.directory / SNAPSHOT_FILE,
            semiring_name=self._semiring_name,
            wal_lsn=self._snapshot_lsn,
            documents={doc_id: doc.columns for doc_id, doc in self._documents.items()},
            views=list(self._view_records.values()),
        )
        self._wal.truncate()
        self._snapshots += 1
        self._appends_since_snapshot = 0
        emit("store.wal_compact", documents=len(self._documents),
             snapshot_lsn=self._snapshot_lsn, snapshots=self._snapshots,
             directory=str(self.directory))

    def _recover(self) -> None:
        assert self._wal is not None
        snapshot = load_snapshot(self.directory / SNAPSHOT_FILE)
        if snapshot is not None:
            if snapshot["semiring"] != self.semiring:
                raise StoreError(
                    f"snapshot semiring {snapshot['semiring'].name} does not "
                    f"match store semiring {self.semiring.name}"
                )
            for doc_id, columns in snapshot["documents"].items():
                self._apply_ingest(doc_id, columns)
            for record in snapshot["views"]:
                self._apply_view(record)
            self._snapshot_lsn = snapshot["wal_lsn"]
            # A reopened (truncated) WAL has no lsn history: resume numbering
            # after the snapshot's mark, or fresh post-compaction records
            # would be skipped by the next recovery as already-snapshotted.
            self._wal.ensure_lsn_after(self._snapshot_lsn)
        for lsn, record in self._wal.records(after_lsn=self._snapshot_lsn):
            self._replay(record)
            self._recovered_records += 1
            self._appends_since_snapshot += 1

    def _replay(self, record: dict) -> None:
        op = record.get("op")
        if op == "ingest":
            columns = ShreddedColumns.from_payload(self.semiring, record["columns"])
            self._apply_ingest(record["doc"], columns)
        elif op == "update":
            delta = payload_to_delta(record, self.semiring)
            self._apply_update(record["doc"], delta)
        elif op == "view":
            self._apply_view(record)
        else:
            raise StoreError(f"unknown WAL operation {op!r}")

    # --------------------------------------------------------------- reporting
    def stats(self) -> StoreStats:
        return StoreStats(
            documents=len(self._documents),
            views=len(self._views),
            ingests=self._ingests,
            updates=self._updates,
            queries=self._queries,
            pushdowns=self._pushdown.pushdowns,
            full_pushdowns=self._pushdown.full_pushdowns,
            fallbacks=0,
            wal_records=len(self._wal) if self._wal is not None else 0,
            snapshots=self._snapshots,
            recovered_records=self._recovered_records,
            wal_v0_records=self._wal.v0_records if self._wal is not None else 0,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.directory) if self.directory else "memory"
        return (
            f"<DocumentStore {len(self._documents)} document(s) over "
            f"{self.semiring.name} at {where}>"
        )
