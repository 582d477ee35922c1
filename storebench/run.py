"""End-to-end benchmark of the K-annotated document store.

Run from the repository root::

    python3 storebench/run.py --workload read_mix --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), warms it up untimed, drives a closed loop of one client for
``--seconds`` of operation time, rounded up to whole cycles of the
workload's mix, with cold
``repro store query`` subprocesses spread over the loop, and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of loop steps three
times from fresh set-ups (untraced warm-up, traced, untraced) and reports
the per-layer metrics.  Every result is checked against a reference outside the timed
sections.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives the details (sample counts, tail percentiles, per-layer shares).
See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from harness import (  # noqa: E402
    KERNEL_REFERENCE_MS,
    Clock,
    TracedClock,
    calibration_kernel,
    full_collection_seconds,
    median_ms,
    tail,
)
from layers import Folded, instrumented, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Cold CLI subprocesses per timed run, one at a time, spread evenly over
#: the loop's operation time.
CLI_PROBES = 9
#: ``import repro.cli`` subprocesses per traced run.
IMPORT_PROBES = 3
#: Working directories live inside the checkout and are removed on exit.
SCRATCH = ROOT / ".storebench-tmp"


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for the mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if trace else "end_to_end"]
    }


def _summary(samples: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for kind, values in sorted(samples.items()):
        value, percentile, beyond = tail(values)
        out[kind] = {
            "samples": len(values),
            "p50_ms": median_ms(values),
            "tail_ms": value,
            "tail_percentile": percentile,
            "beyond_tail": beyond,
        }
    return out


def _freeze_heap() -> None:
    """Move everything alive after set-up out of the collector's reach, so
    full passes in the loop scan only what the loop allocates."""
    gc.collect()
    gc.freeze()


def timed_run(workload_class, seed: int, seconds: float, workdir: Path):
    """The untraced pass: end-to-end metrics."""
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        directory = workdir / f"setup{repeat}"
        workload = None
        gc.collect()  # the previous set-up's garbage is not this one's cost
        workload = workload_class(seed, directory)
        started = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    workload.prepare_cli(workdir / "cli")
    warmup = Clock()
    workload.warm_up(warmup)
    first = workload.steps
    _freeze_heap()
    clock, probes = Clock(), Clock()
    kernel: list[float] = []
    # The loop ends on operation time, after whole cycles of the mix.  A
    # wall-clock cap keeps a run that only fails (no busy time) finite.
    started, collecting = perf_counter(), full_collection_seconds()
    deadline = started + 3 * seconds + 30
    while (
        clock.busy < seconds or (workload.steps - first) % workload.cycle
    ) and perf_counter() < deadline:
        if probes.attempted < CLI_PROBES and probes.attempted * seconds <= clock.busy * CLI_PROBES:
            # Probes are not loop operations: out of the loop's time.
            with clock.aside():
                workload.cli_probe(probes, SRC)
        workload.step(clock)
        with clock.aside():
            kernel.append(calibration_kernel())
    loop_seconds = perf_counter() - started - clock.set_aside
    collecting = full_collection_seconds() - collecting
    operations = sum(len(clock.samples[kind]) for kind in workload.loop_kinds)
    workload.finish(clock)
    while probes.attempted < CLI_PROBES:
        workload.cli_probe(probes, SRC)
    op = clock.samples[workload.op_kind]
    reads = clock.samples["read"]
    loop = {
        "op_p50_ms": median_ms(op),
        "op_tail_ms": tail(op)[0],
        "read_p50_ms": median_ms(reads),
        "read_tail_ms": tail(reads)[0],
        "cli_query_p50_ms": median_ms(probes.samples["cli"]),
    }
    # The shared host's speed drifts by half between runs minutes apart; the
    # timings are scaled by the calibration kernel run beside the loop.  The
    # host's phase lasts a run: scaled set-up times moved a sixth between
    # sets of runs, unscaled ones up to twice.
    kernel_ms = statistics.median(kernel) * 1000.0
    scale = KERNEL_REFERENCE_MS / kernel_ms
    metrics = {
        "setup_s": statistics.median(setup_times) * scale,
        **{name: value * scale for name, value in loop.items()},
        # Per second of the loop's wall time, less the benchmark's own work.
        "ops_per_s": operations / loop_seconds / scale,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s": setup_times,
        "steps": workload.steps,
        "loop_s": loop_seconds,
        "kernel_ms": kernel_ms,
        "unscaled": {
            **loop,
            "setup_s": statistics.median(setup_times),
            "ops_per_s": operations / loop_seconds,
        },
        "samples": _summary({**clock.samples, **probes.samples}),
        "loop_full_gc_s": collecting,
    }
    return (warmup, clock, probes), metrics, detail


def _import_ms() -> float:
    """Median time of a subprocess that only imports ``repro.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        started = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, check=True, timeout=120
        )
        times.append(perf_counter() - started)
    return statistics.median(times) * 1000.0


def _fixed_pass(workload_class, seed: int, directory: Path, clock: Clock):
    workload = workload_class(seed, directory)
    workload.setup()
    _freeze_heap()
    for _ in range(workload_class.trace_steps):
        workload.step(clock)
    return workload


def traced_run(workload_class, seed: int, workdir: Path):
    """Three passes over the same fixed steps, each from a fresh set-up:
    untraced (warms process-wide caches), traced, untraced again.  The
    overhead ratio compares the last two, which start equally warm."""
    warmup = Clock()
    _fixed_pass(workload_class, seed, workdir / "warmup", warmup).finish(warmup)

    clock = TracedClock()
    with instrumented():
        workload = _fixed_pass(workload_class, seed, workdir / "traced", clock)
    workload.finish(clock)

    plain = Clock()
    _fixed_pass(workload_class, seed, workdir / "untraced", plain).finish(plain)

    folded = Folded(clock.tracer.spans)
    metrics = per_layer_metrics(
        folded, workload.loop_kinds, getattr(workload, "rows_changed", 0)
    )
    metrics["trace.overhead_ratio"] = clock.busy / plain.busy
    clocks = (warmup, clock, plain)
    metrics["error_rate"] = sum(each.failed for each in clocks) / sum(
        each.attempted for each in clocks
    )
    metrics["cli.import_ms"] = _import_ms()
    shares = {kind: folded.shares(lambda root, kind=kind: root.name == f"op.{kind}")
              for kind in workload.loop_kinds}
    labelled = {(root.name, root.attrs.get("label")) for root in folded.roots()}
    for name, label in sorted(each for each in labelled if each[1] is not None):
        shares[f"{name[3:]}.{label}"] = folded.shares(
            lambda root, name=name, label=label: (root.name, root.attrs.get("label")) == (name, label)
        )
    detail = {
        "steps": workload_class.trace_steps,
        "samples": _summary(clock.samples),
        "untraced_samples": _summary(plain.samples),
        "layer_shares": shares,
    }
    return clocks, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload_class = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        if args.trace:
            clocks, metrics, detail = traced_run(workload_class, args.seed, workdir)
        else:
            clocks, metrics, detail = timed_run(workload_class, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is still using it
    attempted = sum(clock.attempted for clock in clocks)
    failed = sum(clock.failed for clock in clocks)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        errors=[error for clock in clocks for error in clock.errors],
    )
    units = declared_metrics(bool(args.trace))
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
