"""The failpoint registry: triggers, actions, scoping, env inheritance."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import FaultInjected, ResilienceError
from repro.resilience import (
    ENV_VAR,
    SITE_CATALOG,
    SimulatedCrash,
    arm,
    arm_from_env,
    armed_sites,
    corrupt_file,
    declare_site,
    disarm,
    disarm_all,
    env_spec,
    fail_at,
    fail_point,
    faults_armed,
)

SITE = "wal.append.fsync"  # any catalogued site works for registry tests


class TestRegistry:
    def test_unarmed_fail_point_is_a_no_op(self):
        fail_point(SITE)  # must not raise

    def test_unknown_site_is_rejected(self):
        with pytest.raises(ResilienceError, match="unknown failpoint site"):
            arm("no.such.site")

    def test_unknown_action_is_rejected(self):
        with pytest.raises(ResilienceError, match="unknown failpoint action"):
            arm(SITE, action="explode")

    def test_option_validation(self):
        with pytest.raises(ResilienceError, match="hits must be >= 1"):
            arm(SITE, hits=0)
        with pytest.raises(ResilienceError, match="times must be >= 0"):
            arm(SITE, times=-1)
        with pytest.raises(ResilienceError, match="probability must be in"):
            arm(SITE, probability=1.5)

    def test_arm_disarm_round_trip(self):
        arm(SITE)
        assert SITE in armed_sites()
        disarm(SITE)
        assert SITE not in armed_sites()
        fail_point(SITE)  # disarmed again: no-op

    def test_disarm_all(self):
        arm(SITE)
        arm("wal.truncate")
        disarm_all()
        assert armed_sites() == {}

    def test_declare_site_registers_ad_hoc_sites(self):
        declare_site("test.ad_hoc", "a site declared by the test-suite")
        try:
            assert "test.ad_hoc" in SITE_CATALOG
            with fail_at("test.ad_hoc"):
                with pytest.raises(FaultInjected):
                    fail_point("test.ad_hoc")
        finally:
            SITE_CATALOG.pop("test.ad_hoc", None)

    def test_catalog_covers_durability_and_exec_boundaries(self):
        for site in (
            "wal.append.write",
            "wal.append.torn",
            "wal.append.fsync",
            "wal.truncate",
            "snapshot.write",
            "snapshot.fsync",
            "snapshot.replace",
            "snapshot.dirfsync",
            "store.ingest.apply",
            "store.update.apply",
            "store.view.apply",
        ):
            assert site in SITE_CATALOG, site


class TestTriggers:
    def test_fires_once_by_default(self):
        with fail_at(SITE) as point:
            with pytest.raises(FaultInjected):
                fail_point(SITE)
            fail_point(SITE)  # times=1 default: second hit passes
        assert point.fired == 1
        assert point.hit_count == 2

    def test_hits_skips_early_hits(self):
        with fail_at(SITE, hits=3) as point:
            fail_point(SITE)
            fail_point(SITE)
            with pytest.raises(FaultInjected):
                fail_point(SITE)
        assert point.fired == 1

    def test_times_zero_fires_every_eligible_hit(self):
        with fail_at(SITE, times=0) as point:
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    fail_point(SITE)
        assert point.fired == 3

    def test_times_caps_firings(self):
        with fail_at(SITE, times=2) as point:
            with pytest.raises(FaultInjected):
                fail_point(SITE)
            with pytest.raises(FaultInjected):
                fail_point(SITE)
            fail_point(SITE)
        assert point.fired == 2

    def test_probability_is_deterministic_for_a_seed(self):
        def pattern() -> list[bool]:
            fired = []
            with fail_at(SITE, probability=0.5, seed=42, times=0):
                for _ in range(20):
                    try:
                        fail_point(SITE)
                        fired.append(False)
                    except FaultInjected:
                        fired.append(True)
            return fired

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)  # p=0.5 over 20 draws


class TestActions:
    def test_crash_is_a_base_exception(self):
        with fail_at(SITE, action="crash"):
            with pytest.raises(SimulatedCrash) as info:
                try:
                    fail_point(SITE)
                except Exception:  # noqa: BLE001 - the point of the test
                    pytest.fail("SimulatedCrash must sail past `except Exception`")
        assert info.value.site == SITE
        assert not isinstance(info.value, Exception)

    def test_delay_sleeps_then_continues(self):
        with fail_at(SITE, action="delay", delay_s=0.02):
            start = time.monotonic()
            fail_point(SITE)
            assert time.monotonic() - start >= 0.015


class TestCorruptAction:
    def test_corrupt_file_flip_is_deterministic_per_seed(self, tmp_path):
        for name in ("a.bin", "b.bin"):
            path = tmp_path / name
            path.write_bytes(b"0123456789" * 4)
            corrupt_file(path, "flip", seed=7)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() != b"0123456789" * 4

    def test_corrupt_file_respects_the_byte_region(self, tmp_path):
        path = tmp_path / "a.bin"
        original = b"0123456789" * 4
        path.write_bytes(original)
        corrupt_file(path, "flip", seed=3, start=10, end=20, flips=5)
        damaged = path.read_bytes()
        assert damaged[:10] == original[:10]
        assert damaged[20:] == original[20:]
        assert damaged[10:20] != original[10:20]

    def test_corrupt_file_truncate_cuts_inside_the_region(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"0123456789" * 4)
        corrupt_file(path, "truncate", seed=5, start=10, end=20)
        assert 10 <= len(path.read_bytes()) < 20

    def test_corrupt_file_garbage_splices_a_junk_line(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"first\nsecond\n")
        corrupt_file(path, "garbage", seed=5, start=6)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"first"
        assert lines[2] == b"second"
        assert len(lines[1]) == 24  # the spliced junk

    def test_corrupt_file_rejects_unknown_mode(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"data")
        with pytest.raises(ResilienceError, match="unknown corruption mode"):
            corrupt_file(path, "scramble")

    def test_corrupt_fires_silently_and_damages_the_context_path(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b"record-bytes\n")
        with fail_at(
            "corrupt.wal.record", action="corrupt", mode="flip", seed=11
        ) as point:
            fail_point(
                "corrupt.wal.record", path=str(path), start=0, end=len(b"record-bytes")
            )
        assert point.fired == 1  # continued silently: no exception escaped
        assert path.read_bytes() != b"record-bytes\n"

    def test_corrupt_without_a_path_context_is_an_error(self):
        with fail_at("corrupt.wal.record", action="corrupt"):
            with pytest.raises(ResilienceError, match="path"):
                fail_point("corrupt.wal.record")

    def test_faults_armed_tracks_the_registry(self):
        assert not faults_armed()
        arm("corrupt.wal.record", action="corrupt", seed=1)
        assert faults_armed()
        disarm_all()
        assert not faults_armed()

    def test_corrupt_env_spec_round_trip(self):
        arm("corrupt.wal.record", action="corrupt", mode="garbage", seed=7, flips=3)
        spec = env_spec()
        disarm_all()
        assert arm_from_env(spec) == 1
        point = armed_sites()["corrupt.wal.record"]
        assert point.action == "corrupt"
        assert point.mode == "garbage"
        assert point.seed == 7
        assert point.flips == 3

    def test_corrupt_rejects_unknown_mode_at_arm_time(self):
        with pytest.raises(ResilienceError, match="unknown corruption mode"):
            arm("corrupt.wal.record", action="corrupt", mode="scramble")


class TestEnvInheritance:
    def test_env_spec_round_trip(self):
        arm(SITE, hits=2, times=0)
        arm("store.view.apply", action="delay", delay_s=0.5)
        arm("wal.truncate", action="crash", probability=0.25, seed=7)
        spec = env_spec()
        disarm_all()
        assert arm_from_env(spec) == 3
        rearmed = armed_sites()
        assert rearmed[SITE].hits == 2
        assert rearmed[SITE].times == 0
        assert rearmed["store.view.apply"].action == "delay"
        assert rearmed["store.view.apply"].delay_s == 0.5
        assert rearmed["wal.truncate"].probability == 0.25
        assert rearmed["wal.truncate"].seed == 7

    def test_arm_from_env_rejects_malformed_specs(self):
        with pytest.raises(ResilienceError, match="malformed failpoint spec"):
            arm_from_env("just-a-site")
        with pytest.raises(ResilienceError, match="malformed failpoint option"):
            arm_from_env(f"{SITE}=raise:hits")
        with pytest.raises(ResilienceError, match="unknown failpoint option"):
            arm_from_env(f"{SITE}=raise:color=red")

    def test_empty_env_arms_nothing(self):
        assert arm_from_env(None) == 0
        assert arm_from_env("") == 0
        assert armed_sites() == {}

    def test_subprocess_inherits_faults_through_env_var(self):
        """A child process armed via ENV_VAR fires at import time."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env[ENV_VAR] = f"{SITE}=raise"
        code = (
            "import sys\n"
            "from repro.errors import FaultInjected\n"
            "from repro.resilience import fail_point\n"
            "try:\n"
            f"    fail_point({SITE!r})\n"
            "except FaultInjected:\n"
            "    sys.exit(42)\n"
            "sys.exit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 42
