"""Command-line interface.

A small front end so the library can be used without writing Python:

* ``python -m repro semirings`` — list the available annotation semirings;
* ``python -m repro query`` — run a K-UXQuery over an annotated XML document;
* ``python -m repro explain`` — show how a query would execute: the
  simplified NRC_K form and the Python source the codegen evaluator
  generates for it (or why generation declined and closures serve it);
  ``--analyze`` additionally runs the query with per-operator profiling
  and prints wall time and row counts for every operator;
* ``python -m repro batch`` — run one K-UXQuery over every document in a
  directory (plan-cached, optionally merged);
* ``python -m repro maintain`` — materialize a query over a document, replay
  an update script through the incremental view-maintenance layer and report
  maintain-vs-recompute timings;
* ``python -m repro cache-stats`` — show the process-wide plan-cache
  counters (``--stats`` on query/batch/maintain prints them after a run);
* ``python -m repro metrics`` — export every registered metric (plan
  cache, views, stores, codegen) as Prometheus text or JSON;
* ``python -m repro faults list`` — the fault-injection site catalog of the
  resilience layer (:mod:`repro.resilience`), with currently armed sites;
* ``python -m repro replay`` — re-run a workload captured by the structured
  query log (``REPRO_QUERY_LOG``), re-executing store queries against a
  store directory and verifying recorded result digests (``--compare``);
* ``python -m repro report`` — aggregate a query-log capture offline into
  the per-plan-signature latency table ``/debug/queries`` serves live;
* ``python -m repro specialize`` — apply a token valuation to an annotated
  document (Corollary 1: specialize provenance to a concrete semiring);
* ``python -m repro shred`` — print the ``E(pid, nid, label)`` edge relation
  of a document (Section 7);
* ``python -m repro store ingest|query|update|compact|stats`` — the
  persistent indexed document store (:mod:`repro.store`): shredded columnar
  storage with structural indexes, navigation pushdown, and WAL/snapshot
  durability.

Annotated documents are ordinary XML files whose elements may carry an
``annot="..."`` attribute, parsed according to the chosen semiring.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.kcollections import KSet
from repro.semirings import available_semirings, get_semiring, polynomial_valuation
from repro.semirings.polynomial import PROVENANCE
from repro.shredding import edge_relation, shred_forest
from repro.uxml import forest_to_xml, parse_document, to_paper_notation, to_xml
from repro.uxml.tree import UTree, map_forest_annotations
from repro.uxquery.engine import VALID_METHODS

__all__ = ["main", "build_parser"]


def _add_limit_arguments(subparser: argparse.ArgumentParser) -> None:
    """Attach the execution-guardrail options shared by query/batch/maintain."""
    subparser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evaluation deadline in seconds; exceeding it raises a query "
        "timeout (checked cooperatively inside the evaluator hot loops)",
    )
    subparser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help="largest K-collection the evaluation may produce; exceeding it "
        "raises a budget error",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command-line tool."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Annotated XML: queries and provenance (PODS 2008) — command line front end",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("semirings", help="list the available annotation semirings")

    query = subparsers.add_parser("query", help="run a K-UXQuery over an annotated XML document")
    query.add_argument("--query", "-q", required=True, help="K-UXQuery text, or @file to read it from a file")
    query.add_argument("--input", "-i", required=True, help="annotated XML document")
    query.add_argument("--var", default="S", help="variable the document is bound to (default: S)")
    query.add_argument("--semiring", "-k", default="provenance-polynomials", help="annotation semiring (see `repro semirings`)")
    query.add_argument("--annot-attr", default="annot", help="attribute carrying annotations (default: annot)")
    query.add_argument("--format", choices=("paper", "xml"), default="paper", help="output format")
    query.add_argument(
        "--method",
        choices=VALID_METHODS,
        default="nrc-codegen",
        help="evaluation semantics (nrc-codegen = generated bytecode with "
        "closure fallback, nrc = closures, nrc-interp = Figure 8 interpreter)",
    )
    query.add_argument(
        "--stats", action="store_true", help="print plan-cache statistics after the run"
    )
    query.add_argument("--json", action="store_true", help="print --stats output as JSON")
    query.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record spans for the whole run (prepare stages, evaluate, "
        "store activity) and write them to FILE",
    )
    query.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: JSONL spans or Chrome trace-event JSON "
        "(load in about://tracing; default: jsonl)",
    )
    _add_limit_arguments(query)

    explain = subparsers.add_parser(
        "explain",
        help="show the simplified NRC form and the generated Python source of a query",
        description="Compile QUERY without evaluating it and print each "
        "pipeline stage: the normalized core form, the simplified NRC_K + srt "
        "plan, and — when the plan lies in the straight-line codegen "
        "fragment — the specialized Python source the nrc-codegen evaluator "
        "byte-compiles for it.  When generation declines, the reason is "
        "printed instead (such plans run on the closure evaluator).",
    )
    explain.add_argument("--query", "-q", required=True, help="K-UXQuery text, or @file to read it from a file")
    explain.add_argument("--semiring", "-k", default="provenance-polynomials", help="annotation semiring (see `repro semirings`)")
    explain.add_argument("--var", default="S", help="forest variable the document would be bound to (default: S)")
    explain.add_argument(
        "--type",
        dest="var_types",
        action="append",
        default=[],
        metavar="NAME=KIND",
        help="declare an extra free variable's type (KIND: forest, tree or "
        "label; repeatable)",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="actually run the query (requires --input) with per-operator "
        "profiling and print wall time and row counts for every operator",
    )
    explain.add_argument("--input", "-i", default=None, help="annotated XML document (--analyze only)")
    explain.add_argument("--annot-attr", default="annot", help="attribute carrying annotations (default: annot)")
    explain.add_argument(
        "--method",
        choices=("nrc-codegen", "nrc", "nrc-interp"),
        default="nrc-codegen",
        help="evaluation method to profile under --analyze (default: nrc-codegen)",
    )

    batch = subparsers.add_parser(
        "batch", help="run one K-UXQuery over every annotated XML document in a directory"
    )
    batch.add_argument("--query", "-q", required=True, help="K-UXQuery text, or @file to read it from a file")
    batch.add_argument("--dir", "-d", required=True, help="directory of annotated XML documents")
    batch.add_argument("--glob", default="*.xml", help="document filename pattern (default: *.xml)")
    batch.add_argument("--var", default="S", help="variable each document is bound to (default: S)")
    batch.add_argument("--semiring", "-k", default="provenance-polynomials", help="annotation semiring (see `repro semirings`)")
    batch.add_argument("--annot-attr", default="annot", help="attribute carrying annotations (default: annot)")
    batch.add_argument("--format", choices=("paper", "xml"), default="paper", help="output format")
    batch.add_argument(
        "--method",
        choices=VALID_METHODS,
        default="nrc-codegen",
        help="evaluation semantics (nrc-codegen = generated bytecode with "
        "closure fallback, nrc = closures, nrc-interp = Figure 8 interpreter)",
    )
    batch.add_argument(
        "--merge",
        action="store_true",
        help="print the single merged K-set of all per-document results "
        "(requires a forest-valued query) instead of one result per file",
    )
    batch.add_argument(
        "--stats", action="store_true", help="print plan-cache statistics after the run"
    )
    batch.add_argument("--json", action="store_true", help="print --stats output as JSON")
    batch.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record spans for the whole batch and write them to FILE",
    )
    batch.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: JSONL spans or Chrome trace-event JSON (default: jsonl)",
    )
    _add_limit_arguments(batch)

    maintain = subparsers.add_parser(
        "maintain",
        help="materialize a query over a document, replay an update script "
        "incrementally and report maintain-vs-recompute timings",
        description="Materialize QUERY over the INPUT document as an "
        "incrementally maintained view, then replay the UPDATES script "
        "(one JSON object per line: "
        '{"op": "insert"|"delete"|"reannotate", "tree": "<xml>", '
        '"annot": "...", "old": "..."}; '
        "blank lines and lines starting with # are skipped).  Inserted "
        "trees take their annotation from the XML annot attribute unless "
        "an explicit \"annot\" field overrides it; \"delete\" without "
        "\"annot\" removes the member's entire annotation; \"reannotate\" "
        "replaces \"old\" (default: the current annotation) by \"annot\".  "
        "Every update is applied through the compiled delta plan when the "
        "query admits one, and the result is verified against (and timed "
        "versus) full recomputation.",
    )
    maintain.add_argument("--query", "-q", required=True, help="K-UXQuery text, or @file to read it from a file")
    maintain.add_argument("--input", "-i", required=True, help="initial annotated XML document")
    maintain.add_argument("--updates", "-u", required=True, help="update script (one JSON object per line)")
    maintain.add_argument("--var", default="S", help="variable the document is bound to (default: S)")
    maintain.add_argument("--semiring", "-k", default="provenance-polynomials", help="annotation semiring (see `repro semirings`)")
    maintain.add_argument("--annot-attr", default="annot", help="attribute carrying annotations (default: annot)")
    maintain.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-update recompute comparison (faster replay; "
        "no recompute timings in the report)",
    )
    maintain.add_argument(
        "--print-result",
        action="store_true",
        help="print the final maintained result after the summary",
    )
    maintain.add_argument("--format", choices=("paper", "xml"), default="paper", help="output format for --print-result")
    maintain.add_argument(
        "--stats", action="store_true", help="print plan-cache statistics after the run"
    )
    maintain.add_argument("--json", action="store_true", help="print --stats output as JSON")
    _add_limit_arguments(maintain)

    cache_stats = subparsers.add_parser(
        "cache-stats",
        help="show the process-wide plan-cache counters "
        "(hits, misses, evictions, compiles)",
    )
    cache_stats.add_argument("--json", action="store_true", help="print the counters as JSON")

    metrics = subparsers.add_parser(
        "metrics",
        help="export every registered metric (plan cache, views, store, "
        "codegen) as Prometheus text or JSON",
        description="Dump the process-wide metrics registry "
        "(:mod:`repro.obs.metrics`).  Counters published by the plan cache, "
        "materialized views, document stores and the codegen evaluator all "
        "land here; `--store DIR` opens a store first "
        "so its counters (recovered state included) appear in the export.",
    )
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format: Prometheus text exposition or JSON (default: prom)",
    )
    metrics.add_argument("--store", default=None, metavar="DIR", help="open this store directory before exporting")
    metrics.add_argument(
        "--serve",
        default=None,
        metavar="[HOST:]PORT",
        help="serve the telemetry endpoints over HTTP instead of dumping once "
        "(/metrics, /varz, /healthz, /readyz, /debug/events, /debug/queries, "
        "and /debug/slow: the query-log records at or over "
        "REPRO_SLOW_QUERY_MS); runs until interrupted",
    )

    events = subparsers.add_parser(
        "events",
        help="dump the flight-recorder event ring as JSONL",
        description="Dump the flight recorder (:mod:`repro.obs.events`): "
        "structured events emitted at operational decision points (IVM "
        "recompute fallbacks, codegen declines, WAL compactions, limit "
        "trips, fault injections).  By default prints "
        "this process's in-memory ring; "
        "`--log FILE` reads a JSONL mirror written by another process via "
        "REPRO_EVENT_LOG, and `--follow` tails it.",
    )
    events.add_argument("--kind", default=None, help="only events of this kind")
    events.add_argument("--limit", type=int, default=None, metavar="N", help="only the last N events")
    events.add_argument(
        "--log",
        default=None,
        metavar="FILE",
        help="read events from this JSONL mirror file instead of the in-process ring",
    )
    events.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep reading as the mirror file grows (requires --log or REPRO_EVENT_LOG)",
    )

    replay = subparsers.add_parser(
        "replay",
        help="re-run a workload captured by the structured query log",
        description="Replay a JSONL capture written via REPRO_QUERY_LOG "
        "(:mod:`repro.obs.qlog`).  Records captured at the store layer "
        "(store.query / store.query_many) re-execute against --store DIR; "
        "every other record is re-prepared through the plan cache and its "
        "plan signature checked against the captured one (equal plans must "
        "hash equally across processes).  --compare additionally verifies "
        "the result digest recorded at capture time against the replayed "
        "result.  Any digest or signature mismatch makes the exit status "
        "nonzero.  By default the replay is paced by the captured "
        "timestamps; --speed N divides the gaps by N and --max-rate "
        "disables pacing entirely.",
    )
    replay.add_argument("capture", help="JSONL capture file (REPRO_QUERY_LOG output)")
    replay.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory to re-execute store.query/store.query_many "
        "records against (without it those records are re-prepared only)",
    )
    replay.add_argument(
        "--speed",
        type=float,
        default=None,
        metavar="N",
        help="pace the replay N times faster than the capture "
        "(default: 1.0 — real-time pacing, inter-record gaps capped at 1s)",
    )
    replay.add_argument(
        "--max-rate",
        action="store_true",
        help="replay as fast as possible (no timestamp pacing)",
    )
    replay.add_argument(
        "--compare",
        action="store_true",
        help="verify captured result digests against the replayed results",
    )
    replay.add_argument(
        "--limit", type=int, default=None, metavar="N", help="replay only the first N records"
    )
    replay.add_argument(
        "--json", action="store_true", help="print the summary as JSON instead of the latency table"
    )

    report = subparsers.add_parser(
        "report",
        help="aggregate a query-log capture into a per-signature latency table",
        description="Offline aggregation of a REPRO_QUERY_LOG capture: group "
        "records by plan signature and print count, total/mean latency and "
        "exact p50/p95/max quantiles per signature — the same table "
        "/debug/queries serves live from the in-process accounting.",
    )
    report.add_argument("capture", help="JSONL capture file (REPRO_QUERY_LOG output)")
    report.add_argument(
        "--sort",
        choices=("count", "total", "p95"),
        default="total",
        help="sort signatures by record count, total latency or p95 (default: total)",
    )
    report.add_argument(
        "--limit", type=int, default=None, metavar="N", help="only the top N signatures"
    )
    report.add_argument(
        "--json", action="store_true", help="print the aggregation as JSON"
    )

    bench_check = subparsers.add_parser(
        "bench-check",
        help="compare the latest archived benchmark run against recent history "
        "and fail on regressions",
        description="The bench-regression watchdog (benchmarks/regress.py): "
        "walks BENCH_history/, compares the newest run's headline metrics "
        "against the median of the preceding runs of the same mode, and "
        "exits nonzero when any metric regressed past the threshold.",
    )
    bench_check.add_argument(
        "--history", default="BENCH_history", metavar="DIR", help="archived-run directory (default: BENCH_history)"
    )
    bench_check.add_argument(
        "--threshold",
        type=float,
        default=15.0,
        metavar="PCT",
        help="regression threshold in percent (default: 15)",
    )
    bench_check.add_argument(
        "--window",
        type=int,
        default=3,
        metavar="N",
        help="baseline = median of up to N preceding runs (default: 3)",
    )
    bench_check.add_argument("--quick", action="store_true", help="compare quick-mode runs instead of full runs")
    bench_check.add_argument("--json", action="store_true", help="print the comparison report as JSON")

    faults = subparsers.add_parser(
        "faults",
        help="the fault-injection sites of the resilience layer",
        description="Inspect the failpoint registry "
        "(:mod:`repro.resilience.faults`): every named site instrumenting a "
        "durability boundary, and which are currently armed.  Sites are "
        "armed programmatically (`fail_at(...)`) or through the "
        "REPRO_FAULTS environment variable "
        "(`site=action:opt=value,...;site2=...`), which subprocesses inherit.",
    )
    faults_commands = faults.add_subparsers(dest="faults_command", required=True)
    faults_commands.add_parser(
        "list",
        help="list every declared failpoint site and the currently armed ones",
    )

    specialize = subparsers.add_parser(
        "specialize", help="apply a token valuation to a provenance-annotated document"
    )
    specialize.add_argument("--input", "-i", required=True, help="N[X]-annotated XML document")
    specialize.add_argument("--semiring", "-k", required=True, help="target semiring")
    specialize.add_argument(
        "--set",
        dest="bindings",
        action="append",
        default=[],
        metavar="TOKEN=VALUE",
        help="token valuation entry (repeatable); unset tokens default to the semiring one",
    )
    specialize.add_argument("--annot-attr", default="annot", help="attribute carrying annotations")
    specialize.add_argument("--format", choices=("paper", "xml"), default="xml", help="output format")

    shred = subparsers.add_parser("shred", help="print the E(pid, nid, label) edge relation of a document")
    shred.add_argument("--input", "-i", required=True, help="annotated XML document")
    shred.add_argument("--semiring", "-k", default="provenance-polynomials", help="annotation semiring")
    shred.add_argument("--annot-attr", default="annot", help="attribute carrying annotations")

    store = subparsers.add_parser(
        "store",
        help="the persistent indexed document store (ingest/query/update/compact)",
        description="Operate a durable repro.store directory: documents are "
        "kept in shredded columnar form with structural indexes, every "
        "change is write-ahead-logged, and `compact` snapshots the columns. "
        "Every query and view is served through navigation pushdown: each "
        "step chain over the document is looked up in the indexes once, and "
        "only the residual query around the chains is evaluated.",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    store_ingest = store_commands.add_parser(
        "ingest",
        help="shred an annotated XML document into the store (WAL-logged)",
        description="Parse INPUT as an annotated XML document and store it "
        "under DOC in shredded columnar form.  A new store directory is "
        "created with the given semiring; an existing one pins its semiring "
        "and rejects mismatches.",
    )
    store_ingest.add_argument("--dir", "-d", required=True, help="store directory")
    store_ingest.add_argument("--input", "-i", required=True, help="annotated XML document")
    store_ingest.add_argument("--doc", required=True, help="document id inside the store")
    store_ingest.add_argument(
        "--semiring", "-k", default=None,
        help="annotation semiring: required semantics — a new store is created "
        "with it (default: provenance-polynomials); an existing store checks "
        "it against its pinned semiring and rejects mismatches",
    )
    store_ingest.add_argument("--annot-attr", default="annot", help="attribute carrying annotations (default: annot)")
    store_ingest.add_argument("--replace", action="store_true", help="overwrite an existing document id")
    store_ingest.add_argument(
        "--durability", choices=("none", "fsync"), default="none",
        help="WAL fsync policy: 'none' (default) flushes each append to the "
        "OS — fast, survives process crashes but not power loss; 'fsync' "
        "adds a disk sync per append — every acknowledged operation "
        "survives power loss, at a large per-operation latency cost",
    )

    store_query = store_commands.add_parser(
        "query",
        help="run a K-UXQuery over a stored document (navigation pushed to indexes)",
        description="Evaluate QUERY with the stored document bound to $VAR.  "
        "Each step chain over $VAR ($S/a//b, or $S itself) is answered from "
        "the structural indexes, and only the residual query around the "
        "chains is evaluated — exactly equal to single-shot evaluation.  "
        "--stats shows how the query was served (index-only or with a "
        "residual) and the plan cache counters.",
    )
    store_query.add_argument("--dir", "-d", required=True, help="store directory")
    store_query.add_argument("--query", "-q", required=True, help="K-UXQuery text, or @file to read it from a file")
    store_query.add_argument("--doc", help="document id (optional when the store holds exactly one)")
    store_query.add_argument("--var", default="S", help="variable the document is bound to (default: S)")
    store_query.add_argument("--format", choices=("paper", "xml"), default="paper", help="output format")
    store_query.add_argument("--stats", action="store_true", help="print store and plan-cache statistics after the run")

    store_update = store_commands.add_parser(
        "update",
        help="apply a JSONL update script to a stored document (WAL-logged deltas)",
        description="Apply the UPDATES script (the `maintain` format: one "
        'JSON object per line, {"op": "insert"|"delete"|"reannotate", '
        '"tree": "<xml>", "annot": "...", "old": "..."}) to the stored '
        "document.  Every update is journaled to the write-ahead log before "
        "it is applied, and registered views are maintained through their "
        "compiled delta plans.",
    )
    store_update.add_argument("--dir", "-d", required=True, help="store directory")
    store_update.add_argument("--doc", required=True, help="document id inside the store")
    store_update.add_argument("--updates", "-u", required=True, help="update script (one JSON object per line)")
    store_update.add_argument("--annot-attr", default="annot", help="attribute carrying annotations (default: annot)")
    store_update.add_argument("--stats", action="store_true", help="print store statistics after the run")
    store_update.add_argument(
        "--durability", choices=("none", "fsync"), default="none",
        help="WAL fsync policy: 'none' (default) flushes each append to the "
        "OS — fast, survives process crashes but not power loss; 'fsync' "
        "adds a disk sync per append — every acknowledged operation "
        "survives power loss, at a large per-operation latency cost",
    )

    store_commands.add_parser(
        "compact",
        help="snapshot the shredded columns and truncate the write-ahead log",
        description="Write an atomic snapshot of every stored document's "
        "columns (plus registered view definitions) and truncate the WAL.  "
        "Recovery afterwards loads the snapshot and replays only newer "
        "records; a crash anywhere in the sequence is safe.",
    ).add_argument("--dir", "-d", required=True, help="store directory")

    store_stats = store_commands.add_parser(
        "stats",
        help="show store counters (documents, pushdowns, WAL/snapshot activity)",
    )
    store_stats.add_argument("--dir", "-d", required=True, help="store directory")
    store_stats.add_argument("--json", action="store_true", help="print the counters as JSON")

    fsck = subparsers.add_parser(
        "fsck",
        help="verify (and optionally repair) a store directory's on-disk integrity",
        description="Scrub a durable store directory: verify the snapshot's "
        "whole-file checksum and per-column digests, every WAL record's "
        "CRC32 and lsn monotonicity, replayability, and the canonical "
        "shred of every recovered document.  --repair salvages the longest "
        "valid WAL prefix and quarantines everything removed into "
        ".quarantine sidecars (nothing is ever deleted), reporting exactly "
        "which lsns were lost.  Exit status: 0 when the directory is clean "
        "(or repair converged), 1 when damage remains.",
    )
    fsck.add_argument("--dir", "-d", required=True, help="store directory")
    fsck.add_argument(
        "--repair", action="store_true",
        help="salvage the longest valid prefix; quarantine (never delete) the rest",
    )
    fsck.add_argument(
        "--deep", action="store_true",
        help="also recompute every registered view from its definition and "
        "compare against the maintained cache",
    )
    fsck.add_argument("--json", action="store_true", help="print the report as JSON")

    return parser


def _read_query(text: str) -> str:
    if text.startswith("@"):
        return Path(text[1:]).read_text(encoding="utf-8")
    return text


def _load_document(path: str, semiring, annot_attr: str) -> KSet:
    return parse_document(Path(path).read_text(encoding="utf-8"), semiring, annot_attr)


def _render(value, output_format: str) -> str:
    if output_format == "paper":
        if isinstance(value, UTree):
            return to_paper_notation(value)
        return to_paper_notation(value)
    if isinstance(value, UTree):
        return to_xml(value)
    if isinstance(value, KSet):
        return forest_to_xml(value)
    return str(value)


def _command_semirings(_: argparse.Namespace) -> int:
    for name in available_semirings():
        print(name)
    return 0


def _exec_stats_payload() -> dict:
    from repro.exec import default_plan_cache

    stats = default_plan_cache().stats()
    cache = dict(stats._asdict())
    cache["hit_rate"] = stats.hit_rate
    return {"plan_cache": cache}


def _print_plan_cache_stats(as_json: bool = False) -> None:
    from repro.exec import default_plan_cache

    if as_json:
        import json

        print(json.dumps(_exec_stats_payload(), indent=2, sort_keys=True))
        return
    stats = default_plan_cache().stats()
    print(
        f"plan cache: size {stats.size}/{stats.maxsize}  hits {stats.hits}  "
        f"misses {stats.misses}  evictions {stats.evictions}  "
        f"compiles {stats.compiles}  hit-rate {stats.hit_rate:.0%}"
    )


def _trace_scope(args: argparse.Namespace):
    """A ``(tracer, context-manager)`` pair arming tracing when ``--trace`` is set."""
    if getattr(args, "trace", None) is None:
        from contextlib import nullcontext

        return None, nullcontext()
    from repro.obs.trace import Tracer, tracing

    tracer = Tracer()
    return tracer, tracing(tracer)


def _write_trace(tracer, args: argparse.Namespace) -> None:
    if tracer is None:
        return
    from repro.obs.trace import export_chrome, export_jsonl

    if args.trace_format == "chrome":
        text = export_chrome(tracer.spans)
    else:
        text = export_jsonl(tracer.spans)
    Path(args.trace).write_text(text, encoding="utf-8")
    print(
        f"trace: {len(tracer.spans)} span(s) written to {args.trace} "
        f"({args.trace_format})",
        file=sys.stderr,
    )


def _limits_from_args(args: argparse.Namespace):
    """The :class:`EvalLimits` described by ``--timeout``/``--max-rows`` (or None)."""
    timeout = getattr(args, "timeout", None)
    max_rows = getattr(args, "max_rows", None)
    if timeout is None and max_rows is None:
        return None
    from repro.resilience.limits import EvalLimits

    return EvalLimits(timeout_s=timeout, max_rows=max_rows)


def _command_query(args: argparse.Namespace) -> int:
    from repro.exec import cached_prepare

    semiring = get_semiring(args.semiring)
    document = _load_document(args.input, semiring, args.annot_attr)
    tracer, scope = _trace_scope(args)
    with scope:
        prepared = cached_prepare(_read_query(args.query), semiring, env={args.var: document})
        answer = prepared.evaluate(
            {args.var: document}, method=args.method, limits=_limits_from_args(args)
        )
    _write_trace(tracer, args)
    print(_render(answer, args.format))
    if args.stats:
        _print_plan_cache_stats(args.json)
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    from repro.nrc.ast import expression_size
    from repro.uxquery.engine import prepare_query
    from repro.uxquery.typecheck import FOREST, LABEL, TREE

    kinds = {"forest": FOREST, "tree": TREE, "label": LABEL}
    env_types = {args.var: FOREST}
    for declaration in args.var_types:
        name, _, kind = declaration.partition("=")
        name, kind = name.strip(), kind.strip()
        if not name or kind not in kinds:
            raise ReproError(
                f"--type expects NAME=forest|tree|label, got {declaration!r}"
            )
        env_types[name] = kinds[kind]
    semiring = get_semiring(args.semiring)
    prepared = prepare_query(_read_query(args.query), semiring, env_types=env_types)
    print(f"surface      : {prepared.surface}")
    print(f"result type  : {prepared.result_type}")
    print(f"semiring     : {semiring.name}")
    print(f"core form    : {prepared.core}")
    print(f"nrc          : {prepared.nrc}  ({prepared.nrc_size} nodes)")
    print(
        f"simplified   : {prepared.nrc_simplified}  "
        f"({expression_size(prepared.nrc_simplified)} nodes)"
    )
    if args.analyze:
        if args.input is None:
            raise ReproError("--analyze needs --input (a document to run the query over)")
        from repro.obs.profile import profile_evaluate

        document = _load_document(args.input, semiring, args.annot_attr)
        _result, report = profile_evaluate(
            prepared, {args.var: document}, method=args.method
        )
        timings = prepared.stage_timings
        if timings:
            rendered = "  ".join(
                f"{stage} {seconds * 1e3:.2f}ms" for stage, seconds in timings.items()
            )
            print(f"prepare      : {rendered}")
        print()
        print(report.render())
        return 0
    if prepared.generated is not None:
        print(
            f"evaluator    : nrc-codegen (generated program, "
            f"{prepared.generated._num_slots} frame slot(s))"
        )
        checks = prepared.generated.limit_checks
        if checks:
            print(
                f"limit checks : {checks} stride-counted guard site(s) in "
                "generated loops (armed by --timeout/--max-rows)"
            )
        else:
            print("limit checks : none (no loops in the generated program)")
        print("generated source:")
        print(prepared.generated.source.rstrip("\n"))
    else:
        print("evaluator    : nrc (closure fallback)")
        print(f"codegen declined: {prepared.codegen_reason}")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    from repro.exec import BatchEvaluator, cached_prepare

    semiring = get_semiring(args.semiring)
    paths = sorted(Path(args.dir).glob(args.glob))
    if not paths:
        raise ReproError(f"no documents matching {args.glob!r} in {args.dir}")
    documents = [_load_document(str(path), semiring, args.annot_attr) for path in paths]
    prepared = cached_prepare(_read_query(args.query), semiring, env={args.var: documents[0]})
    evaluator = BatchEvaluator(prepared, var=args.var)
    limits = _limits_from_args(args)
    tracer, scope = _trace_scope(args)
    with scope:
        if args.merge:
            merged = evaluator.evaluate_merged(documents, method=args.method, limits=limits)
            print(_render(merged, args.format))
        else:
            results = evaluator.evaluate_many(documents, method=args.method, limits=limits)
            for path, result in zip(paths, results):
                print(f"== {path.name}")
                print(_render(result, args.format))
    _write_trace(tracer, args)
    if args.stats:
        _print_plan_cache_stats(args.json)
    return 0


def _iter_update_specs(path: Path):
    import json

    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"{path}:{line_number}: bad JSON in update script: {error}")
        if not isinstance(spec, dict) or "op" not in spec or "tree" not in spec:
            raise ReproError(
                f"{path}:{line_number}: updates need at least \"op\" and \"tree\" fields"
            )
        yield line_number, spec


def _spec_to_delta(spec: dict, semiring, annot_attr: str, document: KSet):
    """One update-script entry as a Delta against the current document."""
    from repro.ivm import Delta

    op = spec["op"]
    members = parse_document(spec["tree"], semiring, annot_attr)
    explicit = (
        semiring.parse_element(str(spec["annot"])) if "annot" in spec else None
    )
    delta = Delta(semiring)
    for tree, xml_annotation in members.items():
        annotation = explicit if explicit is not None else xml_annotation
        if op == "insert":
            change = Delta.insertion(semiring, tree, annotation)
        elif op == "delete":
            removed = explicit
            if removed is None:
                if tree not in document:
                    raise ReproError(
                        f"cannot delete {tree!r}: not a member of the document"
                    )
                removed = document.annotation(tree)
            change = Delta.deletion(semiring, tree, removed)
        elif op == "reannotate":
            if tree not in document:
                raise ReproError(
                    f"cannot reannotate {tree!r}: not a member of the document"
                )
            old = (
                semiring.parse_element(str(spec["old"]))
                if "old" in spec
                else document.annotation(tree)
            )
            change = Delta.reannotation(semiring, tree, old, annotation)
        else:
            raise ReproError(
                f"unknown update op {op!r}; valid: insert, delete, reannotate"
            )
        delta = delta.merge(change)
    return delta


def _command_maintain(args: argparse.Namespace) -> int:
    import time

    from repro.exec import cached_prepare

    semiring = get_semiring(args.semiring)
    document = _load_document(args.input, semiring, args.annot_attr)
    prepared = cached_prepare(
        _read_query(args.query), semiring, env={args.var: document}
    )
    view = prepared.materialize(document, document_var=args.var)
    maintain_s = 0.0
    recompute_s = 0.0
    count = 0
    limits = _limits_from_args(args)
    if limits is not None and limits.is_bounded:
        # One guard spans the whole replay: the deadline covers every
        # incremental apply and verification recompute together.
        from repro.resilience.limits import activate

        replay_guard = activate(limits.start())
    else:
        from contextlib import nullcontext

        replay_guard = nullcontext()
    with replay_guard:
        for line_number, spec in _iter_update_specs(Path(args.updates)):
            delta = _spec_to_delta(spec, semiring, args.annot_attr, view.document)
            start = time.perf_counter()
            view.apply(delta)
            maintain_s += time.perf_counter() - start
            count += 1
            if not args.no_verify:
                start = time.perf_counter()
                expected = prepared.evaluate({args.var: view.document})
                recompute_s += time.perf_counter() - start
                if expected != view.result:
                    raise ReproError(
                        f"{args.updates}:{line_number}: maintained result diverged "
                        "from recomputation (this is a bug — please report it)"
                    )
    stats = view.stats()
    print(
        f"applied {count} update(s): {stats.incremental} incremental, "
        f"{stats.recomputes} recomputed (plan: {stats.classification})"
    )
    if count:
        print(f"maintain   total {maintain_s * 1e3:9.2f}ms  ({maintain_s / count * 1e6:9.1f}us/update)")
        if not args.no_verify:
            print(f"recompute  total {recompute_s * 1e3:9.2f}ms  ({recompute_s / count * 1e6:9.1f}us/update)")
            if maintain_s > 0:
                print(f"speedup    {recompute_s / maintain_s:9.1f}x")
    if args.print_result:
        print(_render(view.result, args.format))
    if args.stats:
        _print_plan_cache_stats(args.json)
    return 0


def _command_cache_stats(args: argparse.Namespace) -> int:
    _print_plan_cache_stats(getattr(args, "json", False))
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    from repro.obs.metrics import registry_json, render_prometheus

    # Metric families are declared by the modules that publish them; import
    # every publishing subsystem so a fresh process still exports the full
    # catalog (with zero series) rather than only what this command touched.
    import repro.exec.plan_cache  # noqa: F401  (plan-cache families)
    import repro.ivm.view  # noqa: F401  (view maintenance)
    import repro.nrc.codegen  # noqa: F401  (codegen counters)
    import repro.obs.qlog  # noqa: F401  (query log, slow queries)
    import repro.store.store  # noqa: F401  (store families)

    # Keep the store referenced until after the export: its counters are
    # published through a weakref collector that dies with the instance.
    store = _open_store(args.store) if args.store else None
    try:
        if getattr(args, "serve", None) is not None:
            return _serve_metrics(args.serve, store)
        if args.format == "json":
            import json

            print(json.dumps(registry_json(), indent=2, sort_keys=True))
        else:
            sys.stdout.write(render_prometheus())
    finally:
        del store
    return 0


def _refresh_obs_env_config() -> None:
    """Re-read the observability env configuration (events, qlog, slow queries).

    Every long-running or capture-consuming command (``metrics --serve``,
    ``events --follow``, ``replay``, ``report``) calls this so
    REPRO_SLOW_QUERY_MS / REPRO_EVENT_LOG / REPRO_QUERY_LOG exported after
    this module imported are still honoured.
    """
    from repro.obs import events as obs_events
    from repro.obs import qlog as obs_qlog

    obs_events.refresh_event_config()
    obs_qlog.refresh_qlog_config()


def _serve_metrics(address: str, store) -> int:
    """Run the telemetry HTTP server until interrupted (``metrics --serve``)."""
    import time

    from repro.obs.http import (
        TelemetryApp,
        TelemetryServer,
        parse_serve_address,
        store_integrity_check,
        store_ready_check,
    )

    try:
        host, port = parse_serve_address(address)
    except ValueError as error:
        raise ReproError(str(error)) from error
    # Same env re-read as start_telemetry_server: a service launched with
    # REPRO_SLOW_QUERY_MS / REPRO_EVENT_LOG / REPRO_QUERY_LOG set after
    # this module imported still picks the configuration up.
    _refresh_obs_env_config()
    app = TelemetryApp()
    if store is not None:
        app.add_readiness_check("store", store_ready_check(store))
        app.add_readiness_check("store_integrity", store_integrity_check(store))
    server = TelemetryServer(app, host=host, port=port).start()
    print(f"serving telemetry on {server.url} "
          "(/metrics /varz /healthz /readyz /debug/slow /debug/events "
          "/debug/queries)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _command_events(args: argparse.Namespace) -> int:
    import json as _json
    import os

    from repro.obs import events as obs_events

    log_path = args.log or os.environ.get("REPRO_EVENT_LOG")
    if args.follow:
        if not log_path:
            raise ReproError("--follow needs an event log file (--log or REPRO_EVENT_LOG)")
        # A follower is a long-runner started with the env already set:
        # honour REPRO_EVENTS / REPRO_SLOW_QUERY_MS / REPRO_QUERY_LOG
        # exported after import, exactly like `metrics --serve` does.
        _refresh_obs_env_config()
        return _follow_event_log(log_path, args.kind)
    if log_path and (args.log or not obs_events.recent_events()):
        # Reading another process's mirror: filter/limit on the parsed lines.
        entries = []
        try:
            with open(log_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    event = _json.loads(line)
                    if args.kind is None or event.get("kind") == args.kind:
                        entries.append(event)
        except FileNotFoundError:
            raise ReproError(f"no event log at {log_path}")
        if args.limit is not None:
            entries = entries[-args.limit:]
        for event in entries:
            print(_json.dumps(event, sort_keys=True, default=str))
        return 0
    for event in obs_events.recent_events(kind=args.kind, limit=args.limit):
        print(_json.dumps(event, sort_keys=True, default=str))
    return 0


def _follow_event_log(log_path: str, kind: str | None) -> int:
    """``tail -f`` over a JSONL event mirror (poll-based, Ctrl-C to stop)."""
    import json as _json
    import time

    position = 0
    try:
        while True:
            try:
                with open(log_path, "r", encoding="utf-8") as handle:
                    handle.seek(position)
                    for line in handle:
                        if not line.endswith("\n"):
                            break  # partial write; re-read next poll
                        position = handle.tell()
                        line = line.strip()
                        if not line:
                            continue
                        event = _json.loads(line)
                        if kind is None or event.get("kind") == kind:
                            print(_json.dumps(event, sort_keys=True, default=str), flush=True)
            except FileNotFoundError:
                pass  # not created yet; keep polling
            time.sleep(0.2)
    except KeyboardInterrupt:
        return 0


def _read_capture(path: str, limit: int | None = None) -> list[dict]:
    """The parsed records of one REPRO_QUERY_LOG JSONL capture, in order."""
    import json as _json

    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                text = line.strip()
                if not text:
                    continue
                try:
                    entry = _json.loads(text)
                except _json.JSONDecodeError as error:
                    raise ReproError(
                        f"{path}:{line_number}: bad JSON in capture: {error}"
                    )
                if isinstance(entry, dict):
                    records.append(entry)
                if limit is not None and len(records) >= limit:
                    break
    except FileNotFoundError:
        raise ReproError(f"no capture file at {path}")
    return records


def _command_replay(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro.exec import cached_prepare
    from repro.obs import qlog as obs_qlog

    _refresh_obs_env_config()
    records = _read_capture(args.capture, args.limit)
    if not records:
        raise ReproError(f"capture {args.capture} holds no records")
    store = _open_store(args.store) if args.store else None
    # Pacing: real-time by default, divided by --speed, off under --max-rate.
    speed = None if args.max_rate else (args.speed if args.speed is not None else 1.0)
    if speed is not None and speed <= 0:
        raise ReproError(f"--speed must be positive, got {speed}")

    executed = 0
    prepared_only = 0
    skipped = 0
    compared = 0
    digest_mismatches: list[dict] = []
    signature_mismatches: list[dict] = []
    captured_executed: list[dict] = []
    replay_records: list[dict] = []
    previous_ts: float | None = None

    for rec in records:
        op = rec.get("op") or ""
        query_text = rec.get("q")
        semiring_name = rec.get("semiring")
        if not query_text or not semiring_name:
            skipped += 1
            continue
        ts = rec.get("ts")
        if speed is not None and previous_ts is not None and isinstance(ts, (int, float)):
            gap = (ts - previous_ts) / speed
            if gap > 0:
                _time.sleep(min(gap, 1.0))
        if isinstance(ts, (int, float)):
            previous_ts = ts
        env_types = dict(rec.get("env_types") or {})
        var = rec.get("var") or "S"
        # Re-prepare through the plan cache and check the stability
        # guarantee: equal plans hash equally across processes.
        try:
            semiring = get_semiring(semiring_name)
        except ReproError:
            skipped += 1  # ad-hoc semiring (product/derived); not re-creatable
            continue
        try:
            plan = cached_prepare(query_text, semiring, env_types=env_types)
        except ReproError as error:
            skipped += 1
            print(f"replay: skipping unpreparable record: {error}", file=sys.stderr)
            continue
        if rec.get("sig") and plan.signature != rec["sig"]:
            signature_mismatches.append(
                {"captured": rec["sig"], "replayed": plan.signature, "q": query_text}
            )
        replayable = (
            store is not None
            and op in ("store.query", "store.query_many")
            and set(env_types) <= {var}
            and semiring_name == store.semiring.name
        )
        if not replayable:
            # Env values beyond the document binding are not recoverable
            # from the capture, so non-store records stay prepare-only.
            prepared_only += 1
            continue
        started = _time.perf_counter()
        try:
            if op == "store.query":
                result = store.query(query_text, rec.get("doc"), var=var)
            else:
                result = store.query_many(
                    query_text,
                    rec.get("docs"),
                    var=var,
                    merge=bool(rec.get("merge", False)),
                )
        except ReproError as error:
            skipped += 1
            print(f"replay: skipping failed record: {error}", file=sys.stderr)
            continue
        elapsed_ms = (_time.perf_counter() - started) * 1000.0
        executed += 1
        captured_executed.append(rec)
        replay_records.append(
            {
                "sig": rec.get("sig"),
                "q": query_text,
                "semiring": semiring_name,
                "op": op,
                "ms": elapsed_ms,
                "rows": rec.get("rows", 0),
            }
        )
        if args.compare and rec.get("digest"):
            compared += 1
            replayed_digest = obs_qlog.result_digest(result)
            if replayed_digest != rec["digest"]:
                digest_mismatches.append(
                    {
                        "sig": rec.get("sig"),
                        "doc": rec.get("doc") or rec.get("docs"),
                        "captured": rec["digest"],
                        "replayed": replayed_digest,
                    }
                )

    summary = {
        "records": len(records),
        "executed": executed,
        "prepared_only": prepared_only,
        "skipped": skipped,
        "compared": compared,
        "digest_mismatches": len(digest_mismatches),
        "signature_mismatches": len(signature_mismatches),
    }
    captured_agg = obs_qlog.aggregate_records(captured_executed)
    replayed_agg = obs_qlog.aggregate_records(replay_records)
    if args.json:
        print(
            _json.dumps(
                {
                    "summary": summary,
                    "captured": captured_agg,
                    "replayed": replayed_agg,
                    "digest_mismatches": digest_mismatches,
                    "signature_mismatches": signature_mismatches,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        if captured_agg or replayed_agg:
            print(obs_qlog.render_compare_report(captured_agg, replayed_agg))
            print()
        print(
            f"replayed {executed} store record(s), re-prepared {prepared_only}, "
            f"skipped {skipped} of {len(records)} captured record(s)"
        )
        if args.compare:
            print(f"digest mismatches: {len(digest_mismatches)} (of {compared} compared)")
        print(f"signature mismatches: {len(signature_mismatches)}")
        for mismatch in digest_mismatches:
            print(f"  digest mismatch: {mismatch}", file=sys.stderr)
        for mismatch in signature_mismatches:
            print(f"  signature mismatch: {mismatch}", file=sys.stderr)
    return 1 if digest_mismatches or signature_mismatches else 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.obs import qlog as obs_qlog

    _refresh_obs_env_config()
    records = _read_capture(args.capture)
    aggregate = obs_qlog.aggregate_records(records)
    if args.json:
        import json

        print(json.dumps(aggregate, indent=2, sort_keys=True))
    else:
        print(obs_qlog.render_report(aggregate, sort=args.sort, limit=args.limit))
    return 0


def _command_bench_check(args: argparse.Namespace) -> int:
    import importlib.util

    candidates = [
        Path.cwd() / "benchmarks" / "regress.py",
        Path(__file__).resolve().parents[2] / "benchmarks" / "regress.py",
    ]
    script = next((path for path in candidates if path.is_file()), None)
    if script is None:
        raise ReproError(
            "benchmarks/regress.py not found (run from the repository root)"
        )
    spec = importlib.util.spec_from_file_location("repro_bench_regress", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_check(
        history_dir=args.history,
        threshold_pct=args.threshold,
        window=args.window,
        quick=args.quick,
        as_json=args.json,
    )


def _command_faults(args: argparse.Namespace) -> int:
    from repro.resilience import ENV_VAR, SITE_CATALOG, armed_sites, env_spec

    if args.faults_command != "list":  # pragma: no cover - argparse enforces
        raise ReproError(f"unknown faults command {args.faults_command!r}")
    armed = armed_sites()
    width = max(len(site) for site in SITE_CATALOG)
    for site in sorted(SITE_CATALOG):
        marker = "armed" if site in armed else "-"
        print(f"{site:<{width}}  {marker:<5}  {SITE_CATALOG[site]}")
    spec = env_spec()
    if spec:
        print(f"{ENV_VAR}={spec}")
    return 0


def _command_specialize(args: argparse.Namespace) -> int:
    target = get_semiring(args.semiring)
    document = _load_document(args.input, PROVENANCE, args.annot_attr)
    valuation = {}
    for binding in args.bindings:
        token, _, raw = binding.partition("=")
        if not token or not raw:
            raise ReproError(f"--set expects TOKEN=VALUE, got {binding!r}")
        valuation[token.strip()] = target.parse_element(raw.strip())
    from repro.provenance import tokens_used

    for token in tokens_used(document):
        valuation.setdefault(token, target.one)
    specialized = map_forest_annotations(document, polynomial_valuation(valuation, target))
    print(_render(specialized, args.format))
    return 0


def _command_shred(args: argparse.Namespace) -> int:
    semiring = get_semiring(args.semiring)
    document = _load_document(args.input, semiring, args.annot_attr)
    print(edge_relation(shred_forest(document), semiring).to_table())
    return 0


def _open_store(
    directory: str,
    semiring_name: str | None = None,
    create: bool = False,
    durability: str = "none",
):
    """Open an existing store directory, or (``create=True``) make a new one.

    A ``--semiring`` passed for an existing store is checked against the
    pinned one (mismatch is an error, not silently ignored).  ``durability``
    is the WAL fsync policy (``none``/``fsync``), a per-open choice — it is
    not pinned in the directory.
    """
    from repro.store import DocumentStore

    if (Path(directory) / "meta.json").exists():
        semiring = get_semiring(semiring_name) if semiring_name is not None else None
        return DocumentStore(semiring, directory=directory, durability=durability)
    if not create:
        raise ReproError(
            f"no store at {directory}; run `store ingest` to create one"
        )
    return DocumentStore(
        get_semiring(semiring_name or "provenance-polynomials"),
        directory=directory,
        durability=durability,
    )


def _print_store_stats(store, as_json: bool = False) -> None:
    stats = store.stats()
    if as_json:
        import json

        payload = dict(stats._asdict())
        payload["pushdown_rate"] = stats.pushdown_rate
        cache = store.plan_cache.stats()
        cache_payload = dict(cache._asdict())
        cache_payload["hit_rate"] = cache.hit_rate
        print(json.dumps({"store": payload, "plan_cache": cache_payload}, indent=2, sort_keys=True))
        return
    print(
        f"store: {stats.documents} document(s)  {stats.views} view(s)  "
        f"ingests {stats.ingests}  updates {stats.updates}  queries {stats.queries}"
    )
    print(
        f"pushdown: served {stats.pushdowns} ({stats.full_pushdowns} index-only)  "
        f"fallbacks {stats.fallbacks}  rate {stats.pushdown_rate:.0%}"
    )
    print(
        f"durability: wal records {stats.wal_records}  snapshots {stats.snapshots}  "
        f"recovered records {stats.recovered_records}"
    )
    cache = store.plan_cache.stats()
    print(
        f"plan cache: size {cache.size}/{cache.maxsize}  hits {cache.hits}  "
        f"misses {cache.misses}  compiles {cache.compiles}"
    )


def _command_store(args: argparse.Namespace) -> int:
    command = args.store_command
    if command == "ingest":
        if (Path(args.dir) / "meta.json").exists():
            store = _open_store(args.dir, args.semiring, durability=args.durability)
            document = _load_document(args.input, store.semiring, args.annot_attr)
        else:
            # Parse and validate the input *before* creating the directory:
            # a failed first ingest must not leave a half-created store
            # pinned to a semiring no document was ever stored under.
            semiring = get_semiring(args.semiring or "provenance-polynomials")
            document = _load_document(args.input, semiring, args.annot_attr)
            store = _open_store(
                args.dir, args.semiring, create=True, durability=args.durability
            )
        stored = store.ingest(args.doc, document, replace=args.replace)
        print(
            f"ingested {args.doc!r}: {len(stored.columns)} edge rows, "
            f"{len(stored.index.label_counts())} distinct labels"
        )
        return 0
    store = _open_store(args.dir, durability=getattr(args, "durability", "none"))
    if command == "query":
        answer = store.query(_read_query(args.query), args.doc, var=args.var)
        print(_render(answer, args.format))
        if args.stats:
            _print_store_stats(store)
        return 0
    if command == "update":
        count = 0
        for _line_number, spec in _iter_update_specs(Path(args.updates)):
            delta = _spec_to_delta(
                spec, store.semiring, args.annot_attr, store.forest(args.doc)
            )
            store.update(args.doc, delta)
            count += 1
        print(f"applied {count} update(s) to {args.doc!r} (WAL-logged)")
        if args.stats:
            _print_store_stats(store)
        return 0
    if command == "compact":
        store.compact()
        stats = store.stats()
        print(
            f"compacted: snapshot written, WAL truncated "
            f"({stats.documents} document(s), {stats.views} view(s))"
        )
        return 0
    if command == "stats":
        _print_store_stats(store, getattr(args, "json", False))
        return 0
    raise ReproError(f"unknown store command {command!r}")  # pragma: no cover


def _command_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from repro.store.fsck import fsck_store

    report = fsck_store(args.dir, repair=args.repair, deep=args.deep)
    if args.json:
        print(_json.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


_COMMANDS = {
    "semirings": _command_semirings,
    "query": _command_query,
    "explain": _command_explain,
    "batch": _command_batch,
    "maintain": _command_maintain,
    "cache-stats": _command_cache_stats,
    "metrics": _command_metrics,
    "events": _command_events,
    "replay": _command_replay,
    "report": _command_report,
    "bench-check": _command_bench_check,
    "faults": _command_faults,
    "specialize": _command_specialize,
    "shred": _command_shred,
    "store": _command_store,
    "fsck": _command_fsck,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro`` (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
