"""Corruption-exhaustive integrity: damage every region class, never be wrong.

The harness replays a fixed update stream against a durable store, then
damages one durable artifact region — every WAL record line and the
snapshot file, in every corruption mode (``flip``/``garbage``/``truncate``)
— and asserts the integrity invariant:

    reopening the directory either *recovers a state equal to some prefix
    of the operation history* (a torn/truncated tail is crash residue and
    recovers silently) or *raises a typed* :class:`IntegrityError` *naming
    the damaged artifact* — never a silently wrong answer; and
    ``fsck(repair=True)`` always converges: the repaired directory reopens
    to exactly the maximal salvageable prefix, a second fsck is clean, and
    everything cut away survives in a ``.quarantine`` sidecar.

Damage confined to WAL line *k* always salvages exactly records ``1..k-1``:
a byte flip invalidates line *k*'s CRC (or merges it with its neighbour), a
garbage splice lands an unparseable line at position *k*, and a truncation
cuts inside line *k* (leaving at most crash-indistinguishable torn bytes).
Snapshot damage orphans the whole post-compaction WAL tail — its updates
reference documents only the snapshot defined — so the maximal prefix is
empty: honest, reported loss instead of silent fabrication.

By default the full region x mode matrix runs on two representative
semirings (N and N[X]) and a representative subset on every other registry
semiring; set ``REPRO_CORRUPTION_EXHAUSTIVE=full`` for the full product.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.errors import IntegrityError
from repro.ivm import Delta
from repro.resilience import corrupt_file, fail_at
from repro.semirings import NATURAL, PROVENANCE
from repro.semirings.registry import standard_semirings
from repro.store import DocumentStore, fsck_store, verify_artifacts
from repro.uxml import TreeBuilder
from repro.workloads import random_forest, random_tree

CORRUPT_MODES = ("flip", "garbage", "truncate")

#: (scenario, target, mode): scenario ``wal`` damages WAL line *target* of a
#: snapshot-less store (9 records); ``walsnap`` damages post-compaction WAL
#: line *target* (of 3) next to a live snapshot; ``snapshot`` damages the
#: snapshot file itself.
_WAL_LINES = 9
_WALSNAP_LINES = 3

#: One case per damage class, run on every registry semiring by default.
REPRESENTATIVE_CASES = (
    ("wal", 4, "flip"),
    ("walsnap", 2, "garbage"),
    ("snapshot", 0, "truncate"),
)


def _all_cases():
    for line in range(1, _WAL_LINES + 1):
        for mode in CORRUPT_MODES:
            yield ("wal", line, mode)
    for line in range(1, _WALSNAP_LINES + 1):
        for mode in CORRUPT_MODES:
            yield ("walsnap", line, mode)
    for mode in CORRUPT_MODES:
        yield ("snapshot", 0, mode)


def _matrix():
    full = os.environ.get("REPRO_CORRUPTION_EXHAUSTIVE", "").lower() in (
        "full",
        "all",
        "1",
    )
    cases = []
    for semiring in standard_semirings():
        exhaustive = full or semiring in (NATURAL, PROVENANCE)
        for scenario, target, mode in (
            _all_cases() if exhaustive else REPRESENTATIVE_CASES
        ):
            cases.append(
                pytest.param(
                    scenario,
                    target,
                    mode,
                    semiring,
                    id=f"{scenario}-{target}-{mode}-{semiring.name}",
                )
            )
    return cases


def _steps(semiring, compact):
    """The deterministic stream (the crash-exhaustive script, compact optional)."""
    doc_a = random_forest(semiring, num_trees=3, depth=2, fanout=2, seed=11)
    doc_b = random_forest(semiring, num_trees=2, depth=2, fanout=2, seed=23)
    samples = [v for v in semiring.sample_elements() if not semiring.is_zero(v)]
    deltas = [
        Delta.insertion(
            semiring,
            random_tree(semiring, depth=2, fanout=2, seed=100 + index),
            samples[index % len(samples)],
        )
        for index in range(6)
    ]
    steps = [
        ("ingest", "a", doc_a),
        ("ingest", "b", doc_b),
        ("view", "v", "($S)/*", "a"),
        ("update", "a", deltas[0]),
        ("update", "a", deltas[1]),
        ("update", "a", deltas[2]),
    ]
    if compact:
        steps.append(("compact",))
    steps.extend(
        [
            ("update", "a", deltas[3]),
            ("update", "a", deltas[4]),
            ("update", "a", deltas[5]),
        ]
    )
    return steps


def _execute(store, step):
    kind = step[0]
    if kind == "ingest":
        store.ingest(step[1], step[2])
    elif kind == "view":
        store.register_view(step[1], step[2], step[3])
    elif kind == "update":
        store.update(step[1], step[2])
    elif kind == "compact":
        if store.durable:
            store.compact()
    else:  # pragma: no cover - script typo guard
        raise AssertionError(f"unknown step {step!r}")


def _model_signature(semiring, steps, upto):
    store = DocumentStore(semiring)
    for step in steps[:upto]:
        _execute(store, step)
    return _signature(store)


def _signature(store):
    return (
        {doc_id: store.forest(doc_id) for doc_id in store.document_ids()},
        tuple(store.view_names()),
        {name: store.view(name).result for name in store.view_names()},
    )


def _line_region(path: Path, line: int):
    """Byte region [start, end) of 1-based ``line``, newline included."""
    data = path.read_bytes()
    start = 0
    for _ in range(line - 1):
        start = data.index(b"\n", start) + 1
    end = data.index(b"\n", start) + 1
    return start, end


class TestCorruptionExhaustive:
    @pytest.mark.parametrize(("scenario", "target", "mode", "semiring"), _matrix())
    def test_damage_detect_salvage_converge(
        self, scenario, target, mode, semiring, tmp_path
    ):
        compact = scenario in ("walsnap", "snapshot")
        steps = _steps(semiring, compact=compact)
        directory = tmp_path / "store"
        store = DocumentStore(semiring, directory=directory)
        for step in steps:
            _execute(store, step)
        del store  # only the directory survives

        # The maximal salvageable prefix once line/artifact `target` is hit:
        # wal      -> records 1..target-1  == steps[:target-1]
        # walsnap  -> snapshot (6 steps + compact) + target-1 replayed updates
        # snapshot -> nothing: the WAL tail references snapshot-only documents
        if scenario == "wal":
            expected = _model_signature(semiring, steps, upto=target - 1)
        elif scenario == "walsnap":
            expected = _model_signature(semiring, steps, upto=7 + (target - 1))
        else:
            expected = _model_signature(semiring, steps, upto=0)

        wal_path = directory / "wal.jsonl"
        snapshot_path = directory / "snapshot.json"
        seed = 1000 + 37 * target + len(mode)
        if scenario == "snapshot":
            damaged = snapshot_path
            corrupt_file(snapshot_path, mode, seed=seed)
        else:
            damaged = wal_path
            start, end = _line_region(wal_path, target)
            corrupt_file(wal_path, mode, seed=seed, start=start, end=end)

        # -- detect (read-only): neither fsck nor the probe mutates -------
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        detect = fsck_store(directory)
        probe_errors = [
            f for f in verify_artifacts(directory) if f.severity == "error"
        ]
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

        # -- the invariant: prefix state or a typed refusal, never wrong --
        try:
            recovered = _signature(DocumentStore.open(directory))
        except IntegrityError as error:
            assert error.artifact == str(damaged)
            # Whatever refuses the open must also be visible to the scrub
            # and to the readiness probe.
            assert not detect.ok
            assert probe_errors
        else:
            # Silent recovery is legal only for crash-indistinguishable
            # damage (a truncation / a flipped final newline) and must land
            # exactly on the expected prefix — which the scrub and the
            # probe must then agree is no damage.
            assert recovered == expected
            assert detect.ok, detect.render()
            assert not probe_errors, probe_errors

        # -- repair converges on the maximal salvageable prefix -----------
        report = fsck_store(directory, repair=True, deep=True)
        assert report.ok, report.render()
        assert _signature(DocumentStore.open(directory)) == expected
        if report.repairs:
            sidecars = list(directory.glob("*.quarantine"))
            assert sidecars, "repair must quarantine, never delete"
        if scenario == "wal" and mode == "garbage":
            # The spliced suffix still parses: the report names exactly the
            # acknowledged lsns that were lost.
            assert report.lost_lsns == list(range(target, _WAL_LINES + 1))

        # -- and is stable: a second scrub finds nothing to do -------------
        second = fsck_store(directory, deep=True)
        assert second.ok, second.render()
        assert not second.repairs

    def test_every_corrupt_site_is_in_the_matrix(self):
        from repro.resilience import SITE_CATALOG

        corrupt_sites = {s for s in SITE_CATALOG if s.startswith("corrupt.")}
        # wal/walsnap cases exercise corrupt.wal.record's region class, the
        # snapshot cases corrupt.snapshot.file's (placed offline through the
        # same corrupt_file primitive the live failpoint calls).
        assert corrupt_sites == {"corrupt.wal.record", "corrupt.snapshot.file"}


class TestLiveCorruptionFailpoints:
    """The same damage placed *online* through the armed failpoints."""

    def test_wal_record_corruption_detected_on_reopen(self, tmp_path):
        t = TreeBuilder(NATURAL)
        member = t.leaf("m")
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        store.ingest("d", t.forest(member))
        with fail_at(
            "corrupt.wal.record", action="corrupt", mode="garbage", seed=7
        ) as point:
            store.update("d", Delta.insertion(NATURAL, member, 1))
        assert point.fired == 1
        # The damage is silent: the in-memory store is ahead of its journal.
        assert store.forest("d").annotation(member) == 2
        del store
        with pytest.raises(IntegrityError) as err:
            DocumentStore.open(tmp_path / "s")
        assert err.value.artifact == str(tmp_path / "s" / "wal.jsonl")
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.ok
        assert report.lost_lsns == [2]
        assert (tmp_path / "s" / "wal.jsonl.quarantine").exists()
        reopened = DocumentStore.open(tmp_path / "s")
        assert reopened.forest("d").annotation(member) == 1

    def test_snapshot_corruption_detected_on_reopen(self, tmp_path):
        t = TreeBuilder(NATURAL)
        member = t.leaf("m")
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        store.ingest("d", t.forest(member))
        with fail_at(
            "corrupt.snapshot.file", action="corrupt", mode="flip", seed=9
        ) as point:
            store.compact()
        assert point.fired == 1
        del store
        with pytest.raises(IntegrityError) as err:
            DocumentStore.open(tmp_path / "s")
        assert err.value.artifact == str(tmp_path / "s" / "snapshot.json")
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.ok
        assert (tmp_path / "s" / "snapshot.json.quarantine").exists()
        # The WAL was truncated by the compaction, so nothing replays: the
        # document is honestly lost (quarantined), not silently wrong.
        assert DocumentStore.open(tmp_path / "s").document_ids() == []
