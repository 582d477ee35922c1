"""Write-ahead log: an append-only JSONL journal of store operations.

Every state-changing store operation — document ingest, delta update, view
registration — is appended here *before* it is applied in memory, one JSON
object per line, each carrying a monotonically increasing log sequence
number (``lsn``).  Recovery is then snapshot + replay: load the latest
snapshot and re-apply every WAL record with an lsn greater than the
snapshot's high-water mark through exactly the same code paths that applied
it the first time.  Because the update machinery is the exact
:mod:`repro.ivm` delta application (and view maintenance is exact for every
registry semiring), the recovered store is equal — columns, annotations and
registered view caches — to the uninterrupted one.

Robustness notes:

* :func:`scan_wal` is the only parser of WAL lines.  It has no side
  effects: it returns the longest valid record prefix, the torn-tail and v0
  counts and the first problem, and each caller decides what to do with
  them — :class:`WriteAheadLog` raises or truncates, ``repro fsck`` and the
  ``/readyz`` probe report, ``repro fsck --repair`` quarantines.
* the **last** line of the file may be torn by a crash mid-append; a torn
  tail (bytes with no terminating newline — appends write the newline last,
  so a *complete* line can never be torn) is physically truncated away on
  open and the count of dropped bytes is reported.  Unparseable complete
  lines are real corruption and refuse to load — silently dropping an
  acknowledged record would be worse.
* every record is written in **format v1**: the line carries ``"v": 1`` and
  a ``"crc"`` field holding a CRC32 over the canonical serialization of the
  record without the crc/version fields
  (:func:`repro.store.integrity.record_body`).
  Loading verifies each record's crc and the strict monotonicity of in-file
  lsns; any mismatch on a *complete* line raises a typed
  :class:`~repro.errors.IntegrityError` naming the file and line — a
  bit-flip that still parses as JSON (a changed count in an N-annotation)
  is detected instead of being served as a correct result.  Pre-checksum
  (v0) records still replay; they are counted in :attr:`v0_records` so
  ``repro fsck`` and store stats can surface the downgrade.
* lsns stay monotonic **across truncation**: compaction snapshots the store
  and then truncates the log, and a crash *between* those two steps leaves
  old records in the log — replay skips every record at or below the
  snapshot's lsn, so nothing is applied twice.

Delta payloads go through the pickle codec of
:mod:`repro.store.columns` (exact for every registry semiring); each change
also records the member's root label and rendered annotations for human
inspection of the journal.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import StoreError
from repro.ivm.delta import Delta
from repro.obs.trace import span
from repro.resilience.faults import fail_point, faults_armed
from repro.semirings.base import Semiring
from repro.semirings.diff import DiffPair
from repro.store.columns import decode_obj, encode_obj
from repro.store.integrity import integrity_error, record_crc

__all__ = [
    "WAL_RECORD_FORMAT",
    "WalProblem",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "delta_to_payload",
    "payload_to_delta",
    "scan_wal",
]

#: Version stamped into every appended record (the ``"v"`` field).  v0
#: records (no ``v``/``crc``) predate checksumming and still replay.
WAL_RECORD_FORMAT = 1


def delta_to_payload(delta: Delta) -> dict:
    """A JSON-serializable record of a :class:`~repro.ivm.delta.Delta`."""
    semiring = delta.semiring
    changes = []
    for tree, pair in delta.items():
        changes.append(
            {
                "tree": encode_obj(tree),
                "pos": encode_obj(pair.pos),
                "neg": encode_obj(pair.neg),
                # Human-readable shadow fields (ignored on replay).
                "label": tree.label,
                "pos_repr": semiring.repr_element(pair.pos),
                "neg_repr": semiring.repr_element(pair.neg),
            }
        )
    return {"changes": changes}


def payload_to_delta(payload: dict, semiring: Semiring) -> Delta:
    """Rebuild a delta from its WAL payload."""
    try:
        changes = payload["changes"]
    except (TypeError, KeyError):
        raise StoreError(f"malformed delta payload: {payload!r}") from None
    pairs = []
    for change in changes:
        tree = decode_obj(change["tree"])
        pair = DiffPair(decode_obj(change["pos"]), decode_obj(change["neg"]))
        pairs.append((tree, pair))
    return Delta(semiring, pairs)


class WalRecord(NamedTuple):
    """One valid record of a scanned WAL file."""

    lsn: int
    record: dict  # the stored record without its crc/v wire fields
    line: int     # 1-based line number
    start: int    # byte offset of the line in the file
    end: int      # byte offset just past its newline


class WalProblem(NamedTuple):
    """The first line that invalidates a WAL file."""

    line: int
    detail: str
    lsn: Optional[int] = None
    cause: Optional[Exception] = None


class WalScan(NamedTuple):
    """Everything :func:`scan_wal` found in one WAL file."""

    records: List[WalRecord]      # the longest record-valid prefix
    valid_bytes: int              # byte length of that prefix
    total_bytes: int
    torn_bytes: int               # newline-less tail length (crash residue)
    v0_records: int               # records predating the checksum format
    problem: Optional[WalProblem]
    suffix_lsns: List[int]        # lsns parsed best-effort out of the bad suffix


def scan_wal(path: Path) -> WalScan:
    """Parse a WAL file up to its first bad line, with no side effects.

    A line is valid when it parses as a JSON object with an integer
    ``lsn``, its crc (if it carries one) matches, and its lsn exceeds the
    preceding one.  Blank lines are skipped; a missing file scans empty.
    The bytes after the last newline are a torn tail, never a problem.
    """
    data = path.read_bytes() if path.exists() else b""
    records: List[WalRecord] = []
    v0_records = 0
    position = 0
    number = 0
    previous_lsn = 0
    problem: Optional[WalProblem] = None
    while position < len(data):
        newline = data.find(b"\n", position)
        if newline == -1:
            break  # torn tail: a crash mid-append left no newline
        line = data[position:newline]
        number += 1
        if line.strip():
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError(f"record is not a JSON object: {record!r}")
                lsn = int(record["lsn"])
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
                problem = WalProblem(number, f"unparseable: {error}", cause=error)
                break
            if "crc" in record:
                expected = record_crc(record)
                if record["crc"] != expected:
                    problem = WalProblem(
                        number,
                        f"CRC32 mismatch (stored {record['crc']!r}, computed "
                        f"{expected}) for lsn {lsn}",
                        lsn,
                    )
                    break
            else:
                v0_records += 1  # pre-checksum record: replayable, but counted
            if lsn <= previous_lsn:
                # Appends only ever extend the file with fresh, larger lsns,
                # so a non-monotone sequence means lines were spliced or
                # reordered — replaying a duplicated lsn would double-apply
                # an operation.
                problem = WalProblem(
                    number,
                    f"lsn {lsn} not greater than preceding lsn {previous_lsn} "
                    "(spliced or reordered lines)",
                    lsn,
                )
                break
            previous_lsn = lsn
            record.pop("crc", None)
            record.pop("v", None)
            records.append(WalRecord(lsn, record, number, position, newline + 1))
        position = newline + 1
    suffix_lsns: List[int] = []
    if problem is not None:
        # Best-effort: which acknowledged lsns sit in the unusable suffix?
        for line in data[position:].split(b"\n"):
            try:
                suffix_lsns.append(int(json.loads(line.decode("utf-8"))["lsn"]))
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                continue
    return WalScan(
        records=records,
        valid_bytes=position,
        total_bytes=len(data),
        torn_bytes=0 if problem is not None else len(data) - position,
        v0_records=v0_records,
        problem=problem,
        suffix_lsns=suffix_lsns,
    )


class WriteAheadLog:
    """An append-only JSONL log with monotone lsns and torn-tail recovery."""

    def __init__(self, path: Path | str, fsync: bool = False, checksum: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self.checksum = checksum
        self.torn_bytes = 0
        self.v0_records = 0
        self._records: List[Tuple[int, dict]] = []
        self._next_lsn = 1
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        scan = scan_wal(self.path)
        problem = scan.problem
        if problem is not None:
            # Appends write the newline last, so a complete (newline-
            # terminated) line can never be torn — a bad one is real
            # corruption, and silently dropping an fsync-acknowledged
            # record would be worse than refusing to open.
            raise integrity_error(
                f"{self.path}:{problem.line}: corrupt WAL record: {problem.detail}",
                artifact=str(self.path),
                kind="wal-record",
                line=problem.line,
                lsn=problem.lsn,
            ) from problem.cause
        self._records = [(entry.lsn, entry.record) for entry in scan.records]
        self.v0_records = scan.v0_records
        self.ensure_lsn_after(self.last_lsn)
        if scan.torn_bytes:
            # Physically remove the torn tail: appends go to the end of the
            # file, so leaving partial bytes in place would corrupt the next
            # record (and lose it on the following recovery).
            self.torn_bytes = scan.torn_bytes
            with open(self.path, "r+b") as handle:
                handle.truncate(scan.valid_bytes)

    # ------------------------------------------------------------------ append
    def append(self, record: dict) -> int:
        """Durably append ``record`` (a JSON-serializable dict); returns its lsn."""
        lsn = self._next_lsn
        payload = dict(record)
        payload["lsn"] = lsn
        if self.checksum:
            canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
            # Splice version marker and crc in without a second
            # serialization (or encode) pass; the verifier re-serializes
            # the record minus crc/v, so their position in the line is
            # immaterial (and `v` sits outside the checksum domain — see
            # `record_body`).
            body = b'%s, "v": %d, "crc": %d}' % (
                canonical[:-1],
                WAL_RECORD_FORMAT,
                zlib.crc32(canonical),
            )
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        # Only the corruption harness needs the record's byte region; keep
        # the stat off the unarmed hot path.
        armed = faults_armed()
        offset = (self.path.stat().st_size if self.path.exists() else 0) if armed else 0
        with span("store.wal.append", lsn=lsn, bytes=len(body) + 1, fsync=self.fsync), open(
            self.path, "ab"
        ) as handle:
            fail_point("wal.append.write")
            handle.write(body)
            handle.flush()
            # A crash here leaves a newline-less tail: exactly the torn
            # record that _load() physically truncates on the next open.
            fail_point("wal.append.torn")
            handle.write(b"\n")
            handle.flush()
            fail_point("wal.append.fsync")
            if self.fsync:
                os.fsync(handle.fileno())
        # The record is durably on disk: the corruption harness damages
        # exactly its byte range (json.dumps with ensure_ascii keeps the
        # line pure ASCII, so character counts are byte counts).
        if armed:
            fail_point(
                "corrupt.wal.record",
                path=str(self.path),
                start=offset,
                end=offset + len(body) + 1,
            )
        self._next_lsn = lsn + 1
        self._records.append((lsn, payload))
        return lsn

    # ------------------------------------------------------------------ replay
    def records(self, after_lsn: int = 0) -> Iterator[Tuple[int, dict]]:
        """Iterate ``(lsn, record)`` pairs with ``lsn > after_lsn``, in order."""
        for lsn, record in self._records:
            if lsn > after_lsn:
                yield lsn, record

    @property
    def last_lsn(self) -> int:
        """The lsn of the newest record (0 when the log is empty)."""
        return self._records[-1][0] if self._records else 0

    def __len__(self) -> int:
        return len(self._records)

    def ensure_lsn_after(self, lsn: int) -> None:
        """Advance the lsn counter past ``lsn``.

        A truncated log file carries no lsn history, so a *reopened* WAL
        would otherwise restart at 1 and its records would be skipped by
        replay as already-snapshotted.  The store calls this with the
        snapshot's high-water mark right after recovery, which keeps lsns
        monotone across truncation *and* across processes.
        """
        if lsn >= self._next_lsn:
            self._next_lsn = lsn + 1

    # -------------------------------------------------------------- truncation
    def truncate(self) -> None:
        """Empty the log (after a snapshot); the lsn counter keeps counting."""
        fail_point("wal.truncate")
        self.path.write_text("", encoding="utf-8")
        self._records = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WriteAheadLog {self.path} {len(self._records)} records>"
