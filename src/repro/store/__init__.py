"""repro.store — the persistent indexed document store.

The serving layer on top of the three prior subsystems: documents live in
their Section 7 shredded form, queries run through compiled plans with the
navigation prefix pushed down to structural indexes, updates flow through
:mod:`repro.ivm` deltas, and everything is journaled for crash recovery.

Six cooperating pieces
----------------------
* :mod:`repro.store.columns` — :class:`ShreddedColumns`, one document as the
  four parallel arrays ``pid``/``nid``/``label``/annotation in deterministic
  shredding order, plus the pickle codec used by the durable formats.
* :mod:`repro.store.index` — :class:`StructuralIndex`: one immutable block
  per top-level member, each with its label index and the pre/post-order
  interval index that turns descendant steps into interval containment;
  exact annotated navigation via multiplicity counting over precomputed
  root-to-node prefix products.  An update replaces only the blocks of the
  members it touches.
* :mod:`repro.store.pushdown` — :func:`split_navigation` /
  :class:`PushdownExecutor`: split a prepared plan into its step chains over
  the document variable and a residual, serve each chain from the indexes,
  and evaluate only the residual fragment.  Every query (``query`` and
  each document of ``query_many``) and every view materialization is
  served this way.
* :mod:`repro.store.wal` / :mod:`repro.store.snapshot` — durability: an
  append-only JSONL write-ahead log of store operations (deltas as the
  update records) plus atomic snapshots of the shredded columns; recovery is
  snapshot + replay through the same delta machinery, exact for every
  registry semiring.  Each module holds the only reader of its file
  (:func:`~repro.store.wal.scan_wal`,
  :func:`~repro.store.snapshot.read_snapshot`).
* :mod:`repro.store.store` — :class:`DocumentStore`: the facade wiring it
  together (ingest / update / query / query_many / register_view / compact),
  with a per-store plan cache and ``cache-stats``-style counters.  It names
  the durable files of a store directory and reads ``meta.json``
  (:func:`~repro.store.store.read_meta`).
* :mod:`repro.store.fsck` — ``repro fsck`` and the ``/readyz`` probe
  (:func:`verify_artifacts`): report what those three readers find, and with
  ``repair=True`` salvage the longest valid prefix and quarantine the rest.

Quick start::

    from repro.semirings import PROVENANCE
    from repro.store import DocumentStore

    store = DocumentStore(PROVENANCE, directory="catalog.store")
    store.ingest("doc", forest)
    answer = store.query("element out { $S//c }", "doc")   # index-served
    store.update("doc", delta)                             # WAL-journaled
    store.compact()                                        # snapshot + truncate

The CLI exposes the same surface as ``python -m repro store
ingest|query|update|compact|stats``, plus ``python -m repro fsck``.
"""

from repro.errors import IntegrityError, StoreError
from repro.store.columns import ShreddedColumns
from repro.store.index import StructuralIndex
from repro.store.pushdown import (
    NAV_PREFIX,
    NavigationSplit,
    PushdownExecutor,
    split_navigation,
)
from repro.store.snapshot import load_snapshot, semiring_registry_name, write_snapshot
from repro.store.store import DocumentStore, StoredDocument, StoreStats
from repro.store.wal import WriteAheadLog, delta_to_payload, payload_to_delta

__all__ = [
    "StoreError",
    "IntegrityError",
    "ShreddedColumns",
    "FsckReport",
    "fsck_store",
    "verify_artifacts",
    "StructuralIndex",
    "NAV_PREFIX",
    "NavigationSplit",
    "PushdownExecutor",
    "split_navigation",
    "WriteAheadLog",
    "delta_to_payload",
    "payload_to_delta",
    "write_snapshot",
    "load_snapshot",
    "semiring_registry_name",
    "DocumentStore",
    "StoredDocument",
    "StoreStats",
]

#: ``repro fsck`` and the readiness probe load on first use: opening and
#: querying a store does not need them.
_LAZY = {
    name: "repro.store.fsck" for name in ("FsckReport", "fsck_store", "verify_artifacts")
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value
