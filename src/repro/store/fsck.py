"""``repro fsck``: offline scrub-and-salvage for a durable store directory.

The store's load paths already *refuse* to serve damaged data (checksummed
WAL records, checksummed snapshots — see :mod:`repro.store.integrity`);
this module is the operator's next move: scan every durable artifact,
report exactly what is damaged, and — with ``repair=True`` — bring the
directory back to the **maximal salvageable prefix** of its history.

fsck parses no file itself.  Each durable file has one reader, in the
module that writes it — :func:`repro.store.store.read_meta`,
:func:`repro.store.snapshot.read_snapshot` and
:func:`repro.store.wal.scan_wal` — and the store's open path, this scrub
and the ``/readyz`` probe (:func:`verify_artifacts`) all go through them,
so the three cannot disagree about what is damaged.  Repair then acts on
what the readers found:

* a corrupt snapshot is *quarantined* (moved into a ``.quarantine``
  sidecar, never deleted) so recovery falls back to pure WAL replay;
* a WAL with an invalid record is cut at the longest valid prefix — valid
  means parseable, checksum-correct, lsn-monotone *and replayable* (a
  record referencing a document that no surviving artifact defines is as
  unusable as a bad-crc one) — and the corrupt suffix is appended to
  ``wal.jsonl.quarantine`` with a header line recording why;
* a physically torn tail (crash residue, not corruption) is likewise
  truncated-and-quarantined;
* the report names exactly which lsns were lost (parsed best-effort out of
  the quarantined suffix) so an operator can re-submit them.

After file-level repair the directory is reopened through the ordinary
recovery path and cross-checked: every document's columns must re-shred
canonically (columns are the source of truth; the structural indexes are
rebuilt from them deterministically on open), and in ``deep`` mode every
registered view cache is recomputed from its definition and compared.

Convergence property (proved by ``tests/store/test_corruption_exhaustive``):
``fsck(repair=True)`` followed by ``fsck()`` is always clean, and reopening
yields a state equal to some prefix of the store's operation history —
never a silently wrong annotation.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.errors import ReproError
from repro.obs.events import emit
from repro.store.columns import ShreddedColumns
from repro.store.integrity import FSCK_RUNS
from repro.store.snapshot import SNAPSHOT_FORMAT, SnapshotRead, read_snapshot
from repro.store.store import (
    META_FILE,
    SNAPSHOT_FILE,
    WAL_FILE,
    DocumentStore,
    read_meta,
)
from repro.store.wal import WalScan, scan_wal

__all__ = ["Finding", "FsckReport", "fsck_store", "verify_artifacts"]

QUARANTINE_SUFFIX = ".quarantine"


class Finding(NamedTuple):
    """One fsck observation: ``error`` blocks a clean bill, ``warning`` is
    survivable (torn tail, pre-checksum records), ``info`` is bookkeeping."""

    severity: str
    artifact: str
    detail: str

    def render(self) -> str:
        return f"[{self.severity}] {self.artifact}: {self.detail}"


class _Artifacts(NamedTuple):
    """What the readers found in a store directory, as fsck findings."""

    semiring_name: Optional[str]   # None when meta.json is missing or damaged
    snapshot: Optional[SnapshotRead]
    wal: WalScan
    findings: List[Finding]


def _read_artifacts(directory: Path) -> _Artifacts:
    """Run every durable file's reader and turn what it found into findings."""
    findings: List[Finding] = []
    semiring_name, problem = read_meta(directory)
    if problem is not None:
        findings.append(Finding("error", str(directory / META_FILE), problem))

    snapshot_path = directory / SNAPSHOT_FILE
    snapshot = read_snapshot(snapshot_path)
    if snapshot is not None:
        for each in snapshot.problems:
            findings.append(Finding("error", str(snapshot_path), each.detail))
        if snapshot.format == 1:
            findings.append(
                Finding(
                    "warning",
                    str(snapshot_path),
                    "format-1 (pre-checksum) snapshot — loads, but carries no "
                    "integrity metadata; compacting rewrites it as format "
                    f"{SNAPSHOT_FORMAT}",
                )
            )

    wal_path = directory / WAL_FILE
    wal = scan_wal(wal_path)
    if wal.problem is not None:
        findings.append(
            Finding("error", str(wal_path), f"line {wal.problem.line}: {wal.problem.detail}")
        )
    if wal.torn_bytes:
        findings.append(
            Finding(
                "warning",
                str(wal_path),
                f"torn tail: {wal.torn_bytes} byte(s) with no terminating "
                "newline (crash residue; the interrupted append was never "
                "acknowledged)",
            )
        )
    if wal.v0_records:
        findings.append(
            Finding(
                "warning",
                str(wal_path),
                f"{wal.v0_records} pre-checksum (v0) record(s) — replayable, but "
                "unprotected against bit rot; compacting rewrites history "
                "into checksummed form",
            )
        )
    return _Artifacts(semiring_name, snapshot, wal, findings)


def verify_artifacts(directory: Path | str) -> List[Finding]:
    """Light, side-effect-free artifact verification (the ``/readyz`` probe).

    Reads ``meta.json``, the snapshot envelope and every WAL record through
    the same readers the store opens with; returns the findings without
    raising, quarantining, or bumping the mismatch counters — probes must
    be repeatable."""
    directory = Path(directory)
    if not directory.is_dir():
        return [Finding("error", str(directory), "no store directory")]
    return _read_artifacts(directory).findings


class FsckReport:
    """The outcome of one :func:`fsck_store` run."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.findings: List[Finding] = []
        self.repairs: List[str] = []
        self.lost_lsns: List[int] = []
        self.lost_after_lsn: Optional[int] = None
        self.salvaged_records = 0
        self.checked: Dict[str, int] = {}
        self.deep = False

    @property
    def ok(self) -> bool:
        """True when nothing error-grade remains."""
        return not any(f.severity == "error" for f in self.findings)

    def add(self, severity: str, artifact: str, detail: str) -> None:
        self.findings.append(Finding(severity, str(artifact), detail))

    def to_payload(self) -> dict:
        return {
            "directory": str(self.directory),
            "ok": self.ok,
            "deep": self.deep,
            "checked": dict(self.checked),
            "findings": [f._asdict() for f in self.findings],
            "repairs": list(self.repairs),
            "salvaged_records": self.salvaged_records,
            "lost_lsns": list(self.lost_lsns),
            "lost_after_lsn": self.lost_after_lsn,
        }

    def render(self) -> str:
        lines = [f"fsck {self.directory}" + (" (deep)" if self.deep else "")]
        for key, value in sorted(self.checked.items()):
            lines.append(f"  checked {key}: {value}")
        for finding in self.findings:
            lines.append("  " + finding.render())
        for repair in self.repairs:
            lines.append(f"  repaired: {repair}")
        if self.lost_lsns:
            lines.append(f"  lost lsns: {self.lost_lsns}")
        lines.append("  status: " + ("clean" if self.ok else "CORRUPT"))
        return "\n".join(lines)


def _quarantine_bytes(target: Path, blob: bytes, source: str, reason: str) -> None:
    """Append ``blob`` to the ``.quarantine`` sidecar — never delete evidence."""
    with open(target, "ab") as handle:
        header = {
            "quarantined_at": time.time(),
            "source": source,
            "bytes": len(blob),
            "reason": reason,
        }
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        handle.write(blob)
        if blob and not blob.endswith(b"\n"):
            handle.write(b"\n")
    emit(
        "integrity.quarantine",
        sidecar=str(target),
        source=source,
        bytes=len(blob),
        reason=reason,
    )


def _rewrite_file(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (same discipline as snapshots)."""
    handle, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".fsck", dir=str(path.parent)
    )
    try:
        with os.fdopen(handle, "wb") as temp:
            temp.write(data)
            temp.flush()
            os.fsync(temp.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def fsck_store(directory: Path | str, *, repair: bool = False, deep: bool = False) -> FsckReport:
    """Scrub a store directory; with ``repair=True``, salvage what is valid.

    Verification layers, cheapest first:

    1. ``meta.json`` parses and names a registry semiring;
    2. the snapshot envelope checksum (plus per-column digest localization
       when the whole-file check fails);
    3. every WAL record: parseable, CRC-correct, lsn-monotone;
    4. replayability: each post-snapshot record must reference a document
       some surviving artifact defines (a WAL tail orphaned by a corrupt
       snapshot is as lost as a bad-crc record);
    5. after repair (or when the files are clean): reopen through normal
       recovery and re-shred every document's columns canonically;
    6. ``deep``: recompute every registered view from its durable
       definition and compare against the maintained cache.

    Repair never deletes bytes: everything removed lands in a
    ``.quarantine`` sidecar next to the artifact it came from.
    """
    directory = Path(directory)
    report = FsckReport(directory)
    report.deep = deep
    repaired_artifacts: set = set()
    if not directory.is_dir():
        report.add("error", directory, "no store directory")
        FSCK_RUNS.inc(outcome="corrupt")
        return report

    # -- 1-3: every durable file through its reader ------------------------
    artifacts = _read_artifacts(directory)
    report.findings.extend(artifacts.findings)
    semiring_name = artifacts.semiring_name

    snapshot_path = directory / SNAPSHOT_FILE
    snapshot = artifacts.snapshot
    if snapshot is not None and snapshot.problems and repair:
        blob = snapshot_path.read_bytes()
        _quarantine_bytes(
            snapshot_path.with_name(snapshot_path.name + QUARANTINE_SUFFIX),
            blob,
            source=snapshot_path.name,
            reason="; ".join(problem.detail for problem in snapshot.problems),
        )
        snapshot_path.unlink()
        report.repairs.append(
            f"quarantined corrupt snapshot ({len(blob)} bytes); recovery "
            "falls back to WAL replay"
        )
        repaired_artifacts.add(str(snapshot_path))
        snapshot = None
    snapshot_usable = snapshot is not None and not snapshot.problems
    snapshot_lsn = int(snapshot.payload.get("wal_lsn", 0)) if snapshot_usable else 0
    snapshot_docs = set(snapshot.payload.get("documents", {})) if snapshot_usable else set()
    report.checked["snapshot_documents"] = len(snapshot_docs)

    # -- 4: replayability --------------------------------------------------
    wal_path = directory / WAL_FILE
    scan = artifacts.wal
    report.checked["wal_records"] = len(scan.records)
    cut_bytes = scan.valid_bytes
    cut_records = len(scan.records)
    # Replayability: recovery applies records with lsn > snapshot_lsn in
    # order, tracking which documents exist.  The first inapplicable record
    # poisons everything after it (order matters for exactly-once replay).
    known_docs = set(snapshot_docs)
    for index, entry in enumerate(scan.records):
        if entry.lsn <= snapshot_lsn:
            continue  # pre-compaction leftover: replay skips it
        op = entry.record.get("op")
        if op == "ingest":
            known_docs.add(entry.record.get("doc"))
        elif op in ("update", "view"):
            doc = entry.record.get("doc")
            if doc not in known_docs:
                report.add(
                    "error",
                    wal_path,
                    f"line {entry.line}: record lsn {entry.lsn} ({op}) "
                    f"references unknown document {doc!r} — unreplayable "
                    "(its definition was lost with an earlier artifact)",
                )
                cut_bytes = min(cut_bytes, entry.start)
                cut_records = min(cut_records, index)
                break
        else:
            report.add(
                "error",
                wal_path,
                f"line {entry.line}: record lsn {entry.lsn} has unknown "
                f"operation {op!r}",
            )
            cut_bytes = min(cut_bytes, entry.start)
            cut_records = min(cut_records, index)
            break
    wal_total = scan.total_bytes
    if repair and wal_path.exists() and cut_bytes < wal_total:
        data = wal_path.read_bytes()
        suffix = data[cut_bytes:]
        torn_only = cut_bytes == scan.valid_bytes and scan.torn_bytes == len(suffix)
        reason = (
            "torn tail (crash residue)"
            if torn_only
            else "invalid WAL suffix (first bad record and everything after)"
        )
        _quarantine_bytes(
            wal_path.with_name(wal_path.name + QUARANTINE_SUFFIX),
            suffix,
            source=wal_path.name,
            reason=reason,
        )
        _rewrite_file(wal_path, data[:cut_bytes])
        lost = sorted(
            {lsn for lsn in scan.suffix_lsns}
            | {entry.lsn for entry in scan.records[cut_records:]}
        )
        report.lost_lsns = [lsn for lsn in lost if lsn > snapshot_lsn]
        report.salvaged_records = cut_records
        # Everything acknowledged above this watermark is gone, even when
        # the damaged suffix is too mangled to parse the lsns back out.
        report.lost_after_lsn = max(
            [snapshot_lsn] + [entry.lsn for entry in scan.records[:cut_records]]
        )
        emit(
            "integrity.salvage",
            path=str(wal_path),
            salvaged_records=cut_records,
            quarantined_bytes=len(suffix),
            lost_lsns=report.lost_lsns,
            lost_after_lsn=report.lost_after_lsn,
        )
        report.repairs.append(
            f"salvaged the longest valid WAL prefix ({cut_records} record(s), "
            f"{cut_bytes} bytes); quarantined {len(suffix)} byte(s)"
            + (f"; lost lsns {report.lost_lsns}" if report.lost_lsns else "")
        )
        repaired_artifacts.add(str(wal_path))
        if not torn_only:
            detail = (
                f"suffix lsns lost to corruption: {report.lost_lsns}"
                if report.lost_lsns
                else "suffix too damaged to parse lsns back out; every "
                f"acknowledged lsn above {report.lost_after_lsn} is lost"
            )
            report.add("info", wal_path, detail)

    # -- 5 + 6: semantic checks through normal recovery --------------------
    if repaired_artifacts:
        # Pre-repair error findings about a now-quarantined artifact are
        # history, not state: downgrade them so the verdict reflects the
        # directory as it stands (the re-scan below is authoritative).
        report.findings = [
            Finding("warning", f.artifact, f.detail + " (quarantined)")
            if f.severity == "error" and f.artifact in repaired_artifacts
            else f
            for f in report.findings
        ]
    file_errors = [f for f in report.findings if f.severity == "error"]
    can_open = semiring_name is not None and not file_errors
    if can_open and not repair and wal_path.exists() and cut_bytes < wal_total:
        # A torn tail survived the scan as a mere warning, but the normal
        # recovery path would *truncate* it on open — and a no-repair scrub
        # must be side-effect-free.  Leave the semantic layer to --repair.
        report.add(
            "info",
            wal_path,
            "semantic checks skipped: the log carries crash residue that "
            "reopening would truncate; rerun with --repair to "
            "truncate-and-quarantine it",
        )
        can_open = False
    if can_open:
        try:
            store = DocumentStore.open(directory)
        except ReproError as error:
            report.add("error", directory, f"store fails to reopen: {error}")
        else:
            report.checked["documents"] = len(store.document_ids())
            for doc_id in store.document_ids():
                columns = store.document(doc_id).columns
                if ShreddedColumns.from_forest(columns.forest()) != columns:
                    report.add(
                        "error",
                        directory / SNAPSHOT_FILE,
                        f"document {doc_id!r}: columns are not the canonical "
                        "shred of their own forest (index/column drift)",
                    )
            if deep:
                report.checked["views"] = len(store.view_names())
                for name in store.view_names():
                    view = store.view(name)
                    record = store._view_records[name]
                    expected = view.prepared.evaluate(
                        {view.var: store.forest(record["doc"])}
                    )
                    if expected != view.result:
                        report.add(
                            "error",
                            directory,
                            f"view {name!r}: maintained cache differs from a "
                            "fresh recompute of its definition",
                        )
    outcome = "repaired" if report.repairs and report.ok else ("clean" if report.ok else "corrupt")
    FSCK_RUNS.inc(outcome=outcome)
    return report
