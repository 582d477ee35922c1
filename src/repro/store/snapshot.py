"""Snapshots: periodic full images of the shredded columns.

A snapshot is one JSON document holding, for every stored document, its four
shredded columns (``pid``/``nid``/``label``/annotations — the annotation
column through the pickle codec), plus the registered view definitions and
the WAL high-water mark (``wal_lsn``) the image corresponds to.  Recovery
loads the snapshot and replays only the WAL records **beyond** that mark.

Snapshots are written atomically (temp file + ``os.replace``) so a crash
during compaction leaves either the old snapshot or the new one, never a
half-written file; together with the monotone WAL lsns this makes the
compaction sequence (write snapshot, then truncate the log) crash-safe at
every intermediate point.

Format 2 adds end-to-end integrity: the file is a two-line envelope whose
first line is a small header carrying a CRC32 of the body line's exact
bytes, and the body embeds per-column SHA-256 content digests (exact
because shredding is deterministic and document-stable).
:func:`read_snapshot` is the only parser of the envelope.  It has no side
effects and returns the parsed body with every problem it found: a
whole-file checksum mismatch (which transitively authenticates the column
digests and every column byte), then — only after a mismatch — the
per-column digests that localize the damage to a document and column; a
format-2 body without its header; an unsupported ``format``.
:func:`load_snapshot` raises the first problem — a typed
:class:`~repro.errors.IntegrityError` naming the file for damage — and
``repro fsck`` and the ``/readyz`` probe report them all.  Format-1
(pre-checksum) snapshots still load, flagged unverified.

The annotation *semiring* is stored by registry name — durability is a
registry-semirings feature; exotic user semirings can still use the store
in-memory.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.errors import StoreError
from repro.obs.trace import span
from repro.resilience.faults import fail_point
from repro.semirings.base import Semiring
from repro.semirings.registry import available_semirings, get_semiring
from repro.store.columns import ShreddedColumns
from repro.store.integrity import (
    column_digest,
    column_digests,
    crc32_text,
    integrity_error,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "SnapshotProblem",
    "SnapshotRead",
    "semiring_registry_name",
    "write_snapshot",
    "read_snapshot",
    "load_snapshot",
]

SNAPSHOT_FORMAT = 2


def _structurally_equal(candidate: Semiring, semiring: Semiring) -> bool:
    """True when ``candidate`` rebuilds ``semiring`` exactly.

    ``Semiring.__eq__`` compares only type and name, which is too weak here:
    a parameterized lattice with a non-default universe shares its name with
    the registry instance, and persisting it by that name would silently
    reopen as a *different* semiring.  Types that define ``__reduce__``
    expose their constructor arguments; compare those too.
    """
    if candidate != semiring:
        return False
    if type(semiring).__dict__.get("__reduce__") is not None:
        try:
            return candidate.__reduce__() == semiring.__reduce__()
        except Exception:
            return False
    return True


def semiring_registry_name(semiring: Semiring) -> Optional[str]:
    """The registry name reconstructing ``semiring``, or ``None``.

    Durability serializes the semiring by name; a semiring is persistable
    only when some registered factory rebuilds a *structurally* equal
    instance (see :func:`_structurally_equal`).
    """
    for name in available_semirings():
        if _structurally_equal(get_semiring(name), semiring):
            return name
    return None


def write_snapshot(
    path: Path | str,
    *,
    semiring_name: str,
    wal_lsn: int,
    documents: Dict[str, ShreddedColumns],
    views: list[dict],
) -> None:
    """Atomically write a snapshot of the given store state."""
    path = Path(path)
    with span("store.snapshot.write", documents=len(documents), views=len(views), wal_lsn=wal_lsn):
        _write_snapshot(path, semiring_name, wal_lsn, documents, views)


def _write_snapshot(
    path: Path,
    semiring_name: str,
    wal_lsn: int,
    documents: Dict[str, ShreddedColumns],
    views: list[dict],
) -> None:
    column_payloads = {
        doc_id: columns.to_payload() for doc_id, columns in documents.items()
    }
    payload = {
        "format": SNAPSHOT_FORMAT,
        "semiring": semiring_name,
        "wal_lsn": wal_lsn,
        "documents": column_payloads,
        "views": list(views),
        "column_digests": {
            doc_id: column_digests(columns) for doc_id, columns in column_payloads.items()
        },
    }
    body = json.dumps(payload, sort_keys=True) + "\n"
    header = json.dumps(
        {"format": SNAPSHOT_FORMAT, "algo": "crc32", "checksum": crc32_text(body)},
        sort_keys=True,
    )
    handle, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as temp:
            fail_point("snapshot.write")
            temp.write(header)
            temp.write("\n")
            temp.write(body)
            temp.flush()
            fail_point("snapshot.fsync")
            os.fsync(temp.fileno())
        fail_point("snapshot.replace")
        os.replace(temp_name, path)
        # Barrier: the rename must be durable before the caller truncates the
        # WAL, or a power loss could surface the old snapshot alongside an
        # already-empty log (losing every record since the previous snapshot).
        fail_point("snapshot.dirfsync")
        directory_fd = os.open(str(path.parent), os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    # The snapshot is durably published: the corruption harness damages the
    # whole file (header, body, digests alike).
    fail_point("corrupt.snapshot.file", path=str(path))


class SnapshotProblem(NamedTuple):
    """One thing wrong with a snapshot file."""

    detail: str
    #: Damage (raised as :class:`~repro.errors.IntegrityError`) rather than
    #: content this code cannot load (:class:`~repro.errors.StoreError`).
    damage: bool = True
    cause: Optional[Exception] = None


class SnapshotRead(NamedTuple):
    """Everything :func:`read_snapshot` found in one snapshot file."""

    payload: Optional[dict]  # the parsed body; columns still encoded
    format: Optional[int]
    verified: bool           # the whole-file checksum was checked and matched
    problems: List[SnapshotProblem]


def read_snapshot(path: Path, *, verify: bool = True) -> Optional[SnapshotRead]:
    """Parse a snapshot file's envelope, with no side effects.

    Returns ``None`` when no snapshot exists.  ``verify=False`` skips the
    whole-file checksum, so nothing is verified.
    """
    if not path.exists():
        return None
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        return _failed(SnapshotProblem(f"undecodable bytes: {error}", cause=error))
    except OSError as error:
        return _failed(SnapshotProblem(f"unreadable: {error}", damage=False, cause=error))
    head, newline, body = text.partition("\n")
    header = None
    if newline:
        try:
            candidate = json.loads(head)
        except ValueError:
            candidate = None
        if isinstance(candidate, dict) and "checksum" in candidate:
            header = candidate
    if header is None:
        # Either a format-1 (pre-checksum) single-JSON snapshot or damage
        # severe enough to destroy the envelope header.
        body = text
    unparsed: Optional[ValueError] = None
    try:
        payload = json.loads(body)
    except ValueError as error:
        payload, unparsed = None, error
    verified = False
    if header is not None and verify:
        computed = crc32_text(body)
        if computed != header.get("checksum"):
            mismatch = SnapshotProblem(
                f"whole-file CRC32 mismatch (stored {header.get('checksum')!r}, "
                f"computed {computed})"
            )
            localized = _localize(payload) if isinstance(payload, dict) else []
            return SnapshotRead(None, None, False, [mismatch] + localized)
        verified = True
    if unparsed is not None:
        detail = "corrupt body" if header is not None else "unparseable"
        return _failed(SnapshotProblem(f"{detail}: {unparsed}", cause=unparsed))
    if not isinstance(payload, dict):
        return _failed(SnapshotProblem(f"unsupported format {payload!r}", damage=False))
    snapshot_format = payload.get("format")
    problems = []
    if snapshot_format not in (1, SNAPSHOT_FORMAT):
        problems.append(
            SnapshotProblem(f"unsupported format {snapshot_format!r}", damage=False)
        )
    elif header is None and snapshot_format == SNAPSHOT_FORMAT:
        problems.append(
            SnapshotProblem(f"format-{SNAPSHOT_FORMAT} body without its checksum header")
        )
    return SnapshotRead(payload, snapshot_format, verified, problems)


def _failed(problem: SnapshotProblem) -> SnapshotRead:
    return SnapshotRead(None, None, False, [problem])


def _localize(payload: dict) -> List[SnapshotProblem]:
    """Name each document column whose content digest no longer matches."""
    digests = payload.get("column_digests", {})
    problems = []
    for doc_id, columns in sorted(payload.get("documents", {}).items()):
        for column, values in sorted(columns.items()):
            stored = digests.get(doc_id, {}).get(column)
            if stored is not None and column_digest(values) != stored:
                problems.append(
                    SnapshotProblem(
                        f"column digest mismatch: document {doc_id!r} column {column!r}"
                    )
                )
    return problems


def load_snapshot(path: Path | str, *, verify: bool = True) -> Optional[dict]:
    """Load a snapshot file into ``{semiring, wal_lsn, documents, views}``.

    Returns ``None`` when no snapshot exists.  ``documents`` maps document
    ids to :class:`ShreddedColumns`; the semiring is resolved through the
    registry.

    Raises the first problem :func:`read_snapshot` finds: damage as an
    :class:`~repro.errors.IntegrityError` naming the file, an unsupported
    format as a :class:`~repro.errors.StoreError`.  ``verify=False`` skips
    the whole-file checksum; benchmarks use it as the unverified baseline.
    Format-1 (pre-checksum) snapshots load with ``verified: False`` in the
    result.
    """
    path = Path(path)
    read = read_snapshot(path, verify=verify)
    if read is None:
        return None
    if read.problems:
        problem = read.problems[0]
        message = f"snapshot {path}: {problem.detail}"
        if problem.damage:
            raise integrity_error(
                message, artifact=str(path), kind="snapshot"
            ) from problem.cause
        raise StoreError(message) from problem.cause
    payload = read.payload
    try:
        semiring = get_semiring(payload["semiring"])
    except KeyError:
        raise StoreError(f"snapshot {path} names no semiring") from None
    documents = {
        doc_id: ShreddedColumns.from_payload(semiring, columns)
        for doc_id, columns in payload.get("documents", {}).items()
    }
    return {
        "semiring": semiring,
        "semiring_name": payload["semiring"],
        "wal_lsn": int(payload.get("wal_lsn", 0)),
        "documents": documents,
        "views": list(payload.get("views", [])),
        "format": read.format,
        "verified": read.verified,
        "column_digests": dict(payload.get("column_digests", {})),
    }
