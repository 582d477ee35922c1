"""Storage integrity: checksummed records and snapshots, typed refusals.

Satellite regressions around the corruption-exhaustive invariant: the v1
WAL record format and its v0 compatibility path, torn-tail vs
checksum-mismatch disambiguation on both sides of a compaction boundary,
the format-2 snapshot envelope, the durability knob, and the observability
wiring (events, counters, the ``/readyz`` integrity probe).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import IntegrityError, StoreError
from repro.ivm import Delta
from repro.obs.events import EVENT_CATALOG, recent_events, recording
from repro.semirings import NATURAL
from repro.store import (
    DocumentStore,
    WriteAheadLog,
    fsck_store,
    load_snapshot,
    verify_artifacts,
    write_snapshot,
)
from repro.store.columns import ShreddedColumns
from repro.store.integrity import INTEGRITY_ERRORS, crc32_text, record_crc
from repro.store.wal import WAL_RECORD_FORMAT
from repro.uxml import TreeBuilder


def _tree():
    return TreeBuilder(NATURAL)


def _build_store(directory, *, compact=False):
    """A small durable store: ingest + update (+ optional compact + update)."""
    t = _tree()
    member = t.leaf("m")
    store = DocumentStore(NATURAL, directory=directory)
    store.ingest("d", t.forest(member))
    store.update("d", Delta.insertion(NATURAL, member, 1))
    if compact:
        store.compact()
        store.update("d", Delta.insertion(NATURAL, member, 1))
    return store, member


class TestWalRecordFormat:
    def test_appended_records_carry_version_and_crc(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"op": "a"})
        line = path.read_text(encoding="utf-8").splitlines()[0]
        record = json.loads(line)
        assert record["v"] == WAL_RECORD_FORMAT
        assert record["crc"] == record_crc(record)

    def test_crc_is_position_independent(self, tmp_path):
        """The verifier re-serializes record-minus-crc, so reordering the
        JSON keys of a line must not invalidate it."""
        path = tmp_path / "wal.jsonl"
        WriteAheadLog(path).append({"op": "a"})
        record = json.loads(path.read_text(encoding="utf-8"))
        shuffled = {key: record[key] for key in reversed(list(record))}
        path.write_text(json.dumps(shuffled) + "\n", encoding="utf-8")
        assert [r["op"] for _, r in WriteAheadLog(path).records()] == ["a"]

    def test_in_memory_records_are_clean(self, tmp_path):
        """crc/v are a wire detail: neither fresh appends nor reloads leak
        them into the records handed to replay."""
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"op": "a"})
        assert all(
            "crc" not in r and "v" not in r for _, r in wal.records()
        )
        assert all(
            "crc" not in r and "v" not in r
            for _, r in WriteAheadLog(path).records()
        )

    def test_bad_crc_raises_typed_integrity_error(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        WriteAheadLog(path).append({"op": "a"})
        record = json.loads(path.read_text(encoding="utf-8"))
        record["crc"] = (record["crc"] + 1) % (1 << 32)
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(IntegrityError) as err:
            WriteAheadLog(path)
        assert err.value.artifact == str(path)
        # IntegrityError is a StoreError: pre-existing handlers still match.
        assert isinstance(err.value, StoreError)

    def test_parseable_bit_flip_is_caught_by_crc(self, tmp_path):
        """The motivating case: a flip that still parses as JSON (a changed
        count) must be refused, not served as a correct answer."""
        path = tmp_path / "wal.jsonl"
        WriteAheadLog(path).append({"op": "a", "count": 5})
        record = json.loads(path.read_text(encoding="utf-8"))
        record["count"] = 6  # still perfectly valid JSON
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(IntegrityError, match="CRC32 mismatch"):
            WriteAheadLog(path)

    def test_spliced_duplicate_lsn_refuses(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"op": "a"})
        line = path.read_text(encoding="utf-8")
        path.write_text(line + line, encoding="utf-8")  # replayed-twice splice
        with pytest.raises(IntegrityError, match="not greater than"):
            WriteAheadLog(path)

    def test_checksum_false_writes_v0_records(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        WriteAheadLog(path, checksum=False).append({"op": "a"})
        record = json.loads(path.read_text(encoding="utf-8"))
        assert "crc" not in record and "v" not in record

    def test_v0_records_replay_and_are_counted(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, checksum=False)
        wal.append({"op": "a"})
        wal.append({"op": "b"})
        reopened = WriteAheadLog(path)
        assert [r["op"] for _, r in reopened.records()] == ["a", "b"]
        assert reopened.v0_records == 2

    def test_store_stats_surface_v0_downgrade(self, tmp_path):
        store, _ = _build_store(tmp_path / "s")
        del store
        wal_path = tmp_path / "s" / "wal.jsonl"
        lines = []
        for line in wal_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.pop("crc", None)
            record.pop("v", None)
            lines.append(json.dumps(record, sort_keys=True))
        wal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reopened = DocumentStore.open(tmp_path / "s")
        assert reopened.stats().wal_v0_records == 2
        # fsck flags the downgrade without failing the store.
        report = fsck_store(tmp_path / "s")
        assert report.ok
        assert any("pre-checksum" in f.detail for f in report.findings)


class TestTornVsCorrupt:
    """A torn tail is crash residue (recover silently); a damaged *complete*
    line is corruption (refuse, typed) — on either side of a compaction."""

    @pytest.mark.parametrize("compact", [False, True], ids=["pre", "post"])
    def test_torn_tail_recovers_silently(self, tmp_path, compact):
        store, member = _build_store(tmp_path / "s", compact=compact)
        expected = store.forest("d").annotation(member)
        del store
        wal_path = tmp_path / "s" / "wal.jsonl"
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "update", "lsn"')  # crash mid-append
        reopened = DocumentStore.open(tmp_path / "s")
        assert reopened.forest("d").annotation(member) == expected

    @pytest.mark.parametrize("compact", [False, True], ids=["pre", "post"])
    def test_flipped_complete_record_refuses(self, tmp_path, compact):
        store, _ = _build_store(tmp_path / "s", compact=compact)
        del store
        wal_path = tmp_path / "s" / "wal.jsonl"
        data = bytearray(wal_path.read_bytes())
        data[-5] ^= 0xFF  # inside the newline-terminated final record
        wal_path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError) as err:
            DocumentStore.open(tmp_path / "s")
        assert err.value.artifact == str(wal_path)


class TestSnapshotEnvelope:
    def _write(self, tmp_path):
        t = _tree()
        columns = ShreddedColumns.from_forest(t.forest(t.leaf("m")))
        path = tmp_path / "snapshot.json"
        write_snapshot(
            path,
            semiring_name="natural",
            wal_lsn=4,
            documents={"d": columns},
            views=[],
        )
        return path, columns

    def test_format2_round_trip_verifies(self, tmp_path):
        path, columns = self._write(tmp_path)
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["algo"] == "crc32"
        loaded = load_snapshot(path)
        assert loaded["format"] == 2
        assert loaded["verified"] is True
        assert loaded["documents"]["d"] == columns
        assert set(loaded["column_digests"]["d"]) == {
            "pid",
            "nid",
            "label",
            "annot",
        }

    @pytest.mark.parametrize("damage", ["flipped-byte", "header-stripped"])
    def test_flipped_byte_raises_naming_the_file(self, tmp_path, damage):
        path, _ = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        if damage == "flipped-byte":
            data[len(data) // 2] ^= 0x40
        else:
            # A format-2 body alone parses, but nothing vouches for it.
            del data[: data.index(b"\n") + 1]
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError) as err:
            load_snapshot(path)
        assert err.value.artifact == str(path)

    def test_verify_false_skips_the_checksum(self, tmp_path):
        path, _ = self._write(tmp_path)
        body = path.read_text(encoding="utf-8").split("\n", 1)[1]
        payload = json.loads(body)
        payload["wal_lsn"] = 99  # silently diverge from the stored checksum
        path.write_text(
            path.read_text(encoding="utf-8").split("\n", 1)[0]
            + "\n"
            + json.dumps(payload, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        loaded = load_snapshot(path, verify=False)
        assert loaded["wal_lsn"] == 99
        assert loaded["verified"] is False

    def test_format1_snapshot_still_loads(self, tmp_path):
        path, columns = self._write(tmp_path)
        body = path.read_text(encoding="utf-8").split("\n", 1)[1]
        payload = json.loads(body)
        payload["format"] = 1
        payload.pop("column_digests")
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        loaded = load_snapshot(path)
        assert loaded["format"] == 1
        assert loaded["verified"] is False
        assert loaded["documents"]["d"] == columns


class TestDurabilityKnob:
    def test_durability_fsync_sets_wal_fsync(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s", durability="fsync")
        assert store.durability == "fsync"
        assert store._wal.fsync is True

    def test_durability_none_is_the_default(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        assert store.durability == "none"
        assert store._wal.fsync is False

    def test_unknown_policy_refuses(self, tmp_path):
        with pytest.raises(StoreError, match="unknown durability"):
            DocumentStore(NATURAL, directory=tmp_path / "s", durability="paranoid")


class TestObservabilityWiring:
    def test_integrity_event_kinds_are_declared(self):
        for kind in (
            "integrity.checksum-mismatch",
            "integrity.quarantine",
            "integrity.salvage",
        ):
            assert kind in EVENT_CATALOG

    def test_checksum_mismatch_bumps_counter_and_emits(self, tmp_path):
        """The open counts and reports a mismatch; the scrub and the probe
        read the same file through the same reader without doing either."""
        path = tmp_path / "wal.jsonl"
        WriteAheadLog(path).append({"op": "a"})
        record = json.loads(path.read_text(encoding="utf-8"))
        record["crc"] = (record["crc"] + 1) % (1 << 32)
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        before = INTEGRITY_ERRORS.value(artifact="wal-record") or 0
        with recording():
            earlier = recent_events("integrity.checksum-mismatch")
            assert not fsck_store(tmp_path).ok
            assert verify_artifacts(tmp_path)
            assert (INTEGRITY_ERRORS.value(artifact="wal-record") or 0) == before
            assert recent_events("integrity.checksum-mismatch") == earlier
            with pytest.raises(IntegrityError):
                WriteAheadLog(path)
            events = recent_events("integrity.checksum-mismatch")
        assert INTEGRITY_ERRORS.value(artifact="wal-record") == before + 1
        assert any(e["attrs"]["artifact_kind"] == "wal-record" for e in events)

    def test_fsck_emits_quarantine_and_salvage(self, tmp_path):
        store, _ = _build_store(tmp_path / "s")
        del store
        wal_path = tmp_path / "s" / "wal.jsonl"
        data = bytearray(wal_path.read_bytes())
        data[-5] ^= 0xFF
        wal_path.write_bytes(bytes(data))
        with recording():
            report = fsck_store(tmp_path / "s", repair=True)
            quarantines = recent_events("integrity.quarantine")
            salvages = recent_events("integrity.salvage")
        assert report.ok
        assert quarantines and salvages
        assert salvages[-1]["attrs"]["salvaged_records"] == 1

    @pytest.mark.parametrize(
        "damage", ["wal-flip", "corrupt-meta", "unsupported-snapshot-format"]
    )
    def test_readiness_probe_flags_corruption(self, tmp_path, damage):
        """Every state that stops a reopen makes the probe unready."""
        from repro.obs.http import store_integrity_check

        directory = tmp_path / "s"
        store, _ = _build_store(directory, compact=damage == "unsupported-snapshot-format")
        check = store_integrity_check(store)
        ok, _detail = check()
        assert ok
        if damage == "wal-flip":
            data = bytearray((directory / "wal.jsonl").read_bytes())
            data[-5] ^= 0xFF
            (directory / "wal.jsonl").write_bytes(bytes(data))
            expected = ("CRC32", "unparseable")
        elif damage == "corrupt-meta":
            (directory / "meta.json").write_text("{not json", encoding="utf-8")
            expected = ("corrupt store metadata",)
        else:
            # A valid envelope around a body this code cannot load.
            snapshot = directory / "snapshot.json"
            payload = json.loads(snapshot.read_text(encoding="utf-8").split("\n")[1])
            payload["format"] = 99
            body = json.dumps(payload, sort_keys=True) + "\n"
            header = {"format": 2, "algo": "crc32", "checksum": crc32_text(body)}
            snapshot.write_text(json.dumps(header) + "\n" + body, encoding="utf-8")
            expected = ("unsupported format",)
        ok, detail = check()
        assert not ok
        assert any(fragment in detail for fragment in expected), detail
        with pytest.raises(StoreError):
            DocumentStore.open(directory)

    def test_readiness_probe_trivial_for_memory_stores(self):
        from repro.obs.http import store_integrity_check

        ok, detail = store_integrity_check(DocumentStore(NATURAL))()
        assert ok
        assert "in-memory" in detail


class TestFsckCli:
    def _seed(self, tmp_path):
        store, _ = _build_store(tmp_path / "s")
        del store
        return tmp_path / "s"

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        directory = self._seed(tmp_path)
        assert main(["fsck", "--dir", str(directory)]) == 0
        assert "status: clean" in capsys.readouterr().out

    def test_corrupt_store_exits_nonzero_then_repairs(self, tmp_path, capsys):
        from repro.cli import main

        directory = self._seed(tmp_path)
        data = bytearray((directory / "wal.jsonl").read_bytes())
        data[-5] ^= 0xFF
        (directory / "wal.jsonl").write_bytes(bytes(data))
        assert main(["fsck", "--dir", str(directory)]) == 1
        assert "CORRUPT" in capsys.readouterr().out
        assert main(["fsck", "--dir", str(directory), "--repair"]) == 0
        capsys.readouterr()
        assert main(["fsck", "--dir", str(directory)]) == 0
        assert (directory / "wal.jsonl.quarantine").exists()

    def test_json_output(self, tmp_path, capsys):
        from repro.cli import main

        directory = self._seed(tmp_path)
        assert main(["fsck", "--dir", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["checked"]["wal_records"] == 2

    def test_ingest_accepts_durability_flag(self, tmp_path, capsys):
        from repro.cli import main

        xml = tmp_path / "doc.xml"
        xml.write_text("<a><b>x</b></a>", encoding="utf-8")
        code = main(
            [
                "store",
                "ingest",
                "--dir",
                str(tmp_path / "s"),
                "--doc",
                "d",
                "--input",
                str(xml),
                "--durability",
                "fsync",
            ]
        )
        assert code == 0
