"""The three seeded workloads: ``read_mix``, ``update_mix`` and ``cold_start``.

Every input comes from the seed through :mod:`repro.workloads`; the store
receives only the generated documents, deltas and query texts.  Each
workload keeps a *model* forest per document, updated with
``Delta.apply_to``, and checks every store read, every view cache and every
reopened state against single-shot ``PreparedQuery.evaluate`` on that model
(:class:`Reference`), outside the timed section.  See ``README.md`` for why
each workload exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from bisect import bisect
from itertools import accumulate
from pathlib import Path
from time import perf_counter
from typing import Any

from harness import Clock
from repro.ivm.delta import Delta
from repro.kcollections.kset import KSet
from repro.semirings import NATURAL, PROVENANCE
from repro.semirings.polynomial import Polynomial
from repro.store import DocumentStore
from repro.uxml.serializer import to_paper_notation
from repro.uxquery import prepare_query
from repro.uxquery.typecheck import FOREST
from repro.workloads import random_forest, random_tree
from repro.workloads.generator import DEFAULT_LABELS

#: WAL flush policy on every store the benchmark opens.  Appends reach the
#: OS cache but are not fsynced; snapshots are still fsynced by the store.
DURABILITY = "none"

#: Every document tree has depth 3 and fan-out 3, so 13 nodes (13 shredded
#: rows) whatever the seed: document sizes do not vary between seeds.
DEPTH, FANOUT = 3, 3

#: The query every CLI probe runs, on each workload's own store directory.
CLI_QUERY = "$S//c"

#: Full-pushdown (``$S//x``) and pushdown-plus-residual reads, one per label.
CHAIN_READS = tuple(f"$S//{label}" for label in DEFAULT_LABELS) + tuple(
    f"element out {{ $S/*/{label} }}" for label in DEFAULT_LABELS
)


class Reference:
    """Single-shot evaluation on model forests, never through the store."""

    def __init__(self, semiring) -> None:
        self.semiring = semiring
        self._plans: dict[str, Any] = {}

    def evaluate(self, query: str, forest: KSet) -> Any:
        plan = self._plans.get(query)
        if plan is None:
            plan = self._plans[query] = prepare_query(
                query, self.semiring, env_types={"S": FOREST}
            )
        return plan.evaluate({"S": forest})


class Workload:
    """Shared set-up and CLI-probe plumbing; subclasses define the loop."""

    name = ""
    semiring: Any = None
    #: Sample kinds that are operations of the closed loop.
    loop_kinds: tuple[str, ...] = ()
    #: The workload's defining operation (``op_p50_ms`` / ``op_tail_ms``).
    op_kind = ""
    #: Steps after which the workload's mix repeats.  A timed loop stops only
    #: at the end of a cycle, so every run sees the same mix.
    cycle = 1
    #: Steps the traced pass runs: whole cycles, so counts repeat exactly.
    trace_steps = 0
    #: Document the CLI probes query.
    cli_doc = ""
    #: Where the CLI probes run and what they must print (``prepare_cli``).
    cli_directory: Path | None = None
    cli_expected = ""
    #: ``(name, query, document)`` of every registered view.
    views: tuple[tuple[str, str, str], ...] = ()

    def __init__(self, seed: int, directory: Path) -> None:
        self.seed = seed
        self.directory = directory
        self.reference = Reference(self.semiring)
        self.models: dict[str, KSet] = {}
        self.stream = random.Random(f"{seed}:{self.name}:stream")
        self._memo: dict[tuple[str, str], Any] = {}
        self.steps = 0

    def _rng(self, purpose: str) -> random.Random:
        # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
        return random.Random(f"{self.seed}:{self.name}:{purpose}")

    def _forest(self, rng: random.Random, trees: int) -> KSet:
        return random_forest(self.semiring, trees, DEPTH, FANOUT, seed=rng.randrange(1 << 30))

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, clock: Clock) -> None:
        raise NotImplementedError

    def warm_up(self, clock: Clock) -> None:
        """Untimed work before a timed loop: every query text of the mix runs
        once, so the store's plan cache and process-wide caches (polynomial
        interning) start the loop as warm as they stay."""

    def finish(self, clock: Clock) -> None:
        """End-of-loop checks."""

    def prepare_cli(self, directory: Path) -> None:
        """Copy the store as set up to ``directory`` for the CLI probes.

        The copy never changes, so the probes can run at any point of the
        loop and all see the same store.
        """
        shutil.copytree(self.directory, directory)
        self.cli_directory = directory
        self.cli_expected = to_paper_notation(self._expected(CLI_QUERY, self.cli_doc)) + "\n"

    def cli_probe(self, clock: Clock, src: Path) -> None:
        """One cold ``repro store query`` subprocess, spawn to exit."""
        expected = self.cli_expected
        command = [
            sys.executable, "-m", "repro", "store", "query",
            "--dir", str(self.cli_directory), "-q", CLI_QUERY, "--doc", self.cli_doc,
        ]
        env = dict(os.environ, PYTHONPATH=str(src))
        # ``check=`` is the clock's result check; subprocess.run keeps its
        # default and the check reads the return code instead.
        clock.call(
            "cli",
            subprocess.run,
            command,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=lambda done: done.returncode == 0 and done.stdout == expected,
        )

    # -------------------------------------------------------------- checks
    def _expected(self, query: str, doc: str) -> Any:
        return self.reference.evaluate(query, self.models[doc])

    def _expected_unchanged(self, query: str, doc: str) -> Any:
        """:meth:`_expected`, memoized: for documents the loop never changes."""
        key = (query, doc)
        if key not in self._memo:
            self._memo[key] = self._expected(query, doc)
        return self._memo[key]

    def _expected_merged(self, query: str, expected=None) -> Any:
        """The union over every document, as ``query_many(merge=True)`` gives it."""
        expected = expected or self._expected
        docs = sorted(self.models)
        merged = expected(query, docs[0])
        for doc in docs[1:]:
            merged = merged.union(expected(query, doc))
        return merged

    def _views_match(self, store: DocumentStore, doc: str | None = None) -> bool:
        return all(
            store.view(name).result == self._expected(query, view_doc)
            for name, query, view_doc in self.views
            if doc is None or view_doc == doc
        )

    def _state_matches(self, store: DocumentStore) -> bool:
        """A (reopened) store holds exactly the model documents and views."""
        return (
            store.document_ids() == sorted(self.models)
            and all(store.forest(doc) == model for doc, model in self.models.items())
            and self._views_match(store)
        )


class ReadMix(Workload):
    """Read-only serving from a durable N[X] store of several documents.

    Zipf draws from a pool of 512 queries, each bound to one document: more
    texts than the store's 128-entry plan cache, and more distinct step
    chains per document (about 110) than the 64-chain navigation memo of
    each document's index.
    """

    name = "read_mix"
    semiring = PROVENANCE
    loop_kinds = ("read",)
    op_kind = "read"
    trace_steps = 1500
    cli_doc = "doc0"

    DOCUMENTS = 4
    TREES = 96
    #: Pool entries per slot of the class cycle (16 slots: 512 entries).
    PER_SLOT = 32
    #: Rank ``r`` of the pool serves class ``CLASS_CYCLE[r % 16]``, so every
    #: seed draws the classes in the same proportions: 10/16 full pushdown,
    #: 4/16 pushdown plus residual, 1/16 fallback, 1/16 merged
    #: ``query_many``.  Full-pushdown hits are then well over half of all
    #: reads, so the median read sits inside one population instead of at
    #: the boundary between two.
    CLASS_CYCLE = (
        "chain", "residual", "chain", "chain", "residual", "chain", "chain", "fallback",
        "chain", "residual", "chain", "chain", "residual", "chain", "chain", "merged",
    )
    ZIPF_EXPONENT = 1.2

    def setup(self) -> None:
        rng = self._rng("inputs")
        self.store = DocumentStore(
            PROVENANCE, directory=self.directory, durability=DURABILITY
        )
        for index in range(self.DOCUMENTS):
            doc = f"doc{index}"
            self.models[doc] = self._forest(rng, self.TREES)
            self.store.ingest(doc, self.models[doc])
        self.store.compact()
        self.doc_ids = sorted(self.models)
        self.pool = self._pool(rng)
        self._cumulative = list(
            accumulate(1.0 / (rank + 1) ** self.ZIPF_EXPONENT for rank in range(len(self.pool)))
        )

    def _pool(self, rng: random.Random) -> list[tuple[str, str, str]]:
        """``(class, query, document)`` entries, in Zipf rank order.

        Each class fills one template with seeded labels, so queries of one
        class cost about the same whatever the seed.
        """

        def step() -> str:
            return rng.choice(DEFAULT_LABELS + ("*",))

        def label() -> str:
            return rng.choice(DEFAULT_LABELS)

        def chain() -> str:
            # Templates disjoint from the merged class's, so both classes
            # always find enough distinct texts.
            return rng.choice((
                lambda: f"$S/{step()}//{label()}",
                lambda: f"$S/{step()}/{step()}/{label()}",
                lambda: f"$S//{label()}/{label()}",
            ))()

        def residual() -> str:
            if rng.random() < 0.5:
                return f"element out {{ {chain()} }}"
            return f"for $v in $S/{step()} return element r {{ ($v)/{label()} }}"

        makers = {
            "chain": chain,
            "residual": residual,
            # Two different chains over $S: the pushdown split declines.
            "fallback": lambda: f"element out {{ ($S/{step()}, $S//{label()}) }}",
            "merged": lambda: f"$S/{step()}/{label()}",
        }
        seen: set[str] = set()
        pool = []
        for rank in range(len(self.CLASS_CYCLE) * self.PER_SLOT):
            kind = self.CLASS_CYCLE[rank % len(self.CLASS_CYCLE)]
            text = makers[kind]()
            while text in seen:
                text = makers[kind]()
            seen.add(text)
            doc = "*" if kind == "merged" else self.doc_ids[rng.randrange(len(self.doc_ids))]
            pool.append((kind, text, doc))
        return pool

    def _reference(self, text: str, doc: str) -> Any:
        if doc != "*":
            return self._expected_unchanged(text, doc)
        return self._expected_merged(text, self._expected_unchanged)

    def step(self, clock: Clock) -> None:
        self.steps += 1
        draw = self.stream.random() * self._cumulative[-1]
        kind, text, doc = self.pool[bisect(self._cumulative, draw)]
        check = lambda result: result == self._reference(text, doc)  # noqa: E731
        if kind == "merged":
            clock.call("read", self.store.query_many, text, merge=True, executor=None, check=check)
        else:
            clock.call("read", self.store.query, text, doc, check=check)


class UpdateMix(Workload):
    """Writes beside reads on a durable N store with three views.

    N has exact subtraction, so partial deletions run the view's delta plan
    over Diff(N) instead of recomputing.
    """

    name = "update_mix"
    semiring = NATURAL
    loop_kinds = ("update", "read")
    op_kind = "update"
    cycle = 80
    trace_steps = 80
    cli_doc = "small"

    SIZES = {"large": 384, "small": 24}
    #: Step ``i`` applies a ``KIND_CYCLE[i % 10]`` delta to
    #: ``DOC_CYCLE[i % 4]`` and then reads it with ``READS[i % 16]``, so the
    #: mix repeats every 80 steps.  Seeds pick the members, trees and
    #: annotations.
    DOC_CYCLE = ("large", "large", "large", "small")
    KIND_CYCLE = (
        "insert", "delete", "reannotate", "delete", "insert",
        "reannotate", "delete", "insert", "delete", "reannotate",
    )
    #: Auto-compaction after every 5 WAL appends: one update in five pays
    #: for a snapshot, so the tail percentile falls among compactions, and
    #: each 80-step cycle compacts at the same steps.
    SNAPSHOT_EVERY = 5
    views = (
        ("linear", "$S//c", "large"),
        ("bilinear", "for $x in $S, $y in $S where $x = $y return ($x)/*", "small"),
        ("recompute", "element out { ($S)/* }", "small"),
    )
    #: Two reads in 16 are a merged ``query_many`` over both documents, run
    #: without an executor (``exec.batch``).  They are the slowest reads, and
    #: one in eight puts the tail inside their class.
    MERGED_READS = ("$S/*/entry", "$S/*/record")
    READS = CHAIN_READS[:7] + MERGED_READS[:1] + CHAIN_READS[8:15] + MERGED_READS[1:]

    def setup(self) -> None:
        rng = self._rng("inputs")
        self.store = DocumentStore(
            NATURAL,
            directory=self.directory,
            durability=DURABILITY,
            snapshot_every=self.SNAPSHOT_EVERY,
        )
        for doc, trees in self.SIZES.items():
            self.models[doc] = self._forest(rng, trees)
            self.store.ingest(doc, self.models[doc])
        for name, query, doc in self.views:
            self.store.register_view(name, query, doc)
        #: Shredded rows of the member trees the deltas touched.
        self.rows_changed = 0

    def _next_delta(self, rng: random.Random, doc: str, kind: str) -> tuple[Delta, int]:
        model = self.models[doc]
        if kind == "insert" or not len(model):
            tree = random_tree(NATURAL, DEPTH, FANOUT, seed=rng.randrange(1 << 30))
            return Delta.insertion(NATURAL, tree, rng.randint(1, 3)), tree.size()
        members = list(model.values())
        tree = members[rng.randrange(len(members))]
        current = model.annotation(tree)
        if kind == "delete":
            # Mostly whole-member deletions, so inserts and deletes keep the
            # document size level; the rest are partial (exact subtraction).
            partial = current >= 2 and rng.random() < 0.3
            return Delta.deletion(NATURAL, tree, current - 1 if partial else current), tree.size()
        return Delta.reannotation(NATURAL, tree, current, rng.randint(1, 4)), tree.size()

    def step(self, clock: Clock) -> None:
        rng = self.stream
        doc = self.DOC_CYCLE[self.steps % len(self.DOC_CYCLE)]
        kind = self.KIND_CYCLE[self.steps % len(self.KIND_CYCLE)]
        text = self.READS[self.steps % len(self.READS)]
        self.steps += 1
        with clock.aside():
            delta, rows = self._next_delta(rng, doc, kind)
            expected = delta.apply_to(self.models[doc])
        self.models[doc] = expected
        self.rows_changed += rows
        clock.call(
            "update", self.store.update, doc, delta, label=doc,
            check=lambda forest: forest == expected and self._views_match(self.store, doc),
        )
        if text in self.MERGED_READS:
            clock.call(
                "read", self.store.query_many, text, merge=True, executor=None, label="merged",
                check=lambda result: result == self._expected_merged(text),
            )
        else:
            clock.call(
                "read", self.store.query, text, doc, label=doc,
                check=lambda result: result == self._expected(text, doc),
            )

    def warm_up(self, clock: Clock) -> None:
        for _ in self.READS:
            self.step(clock)

    def finish(self, clock: Clock) -> None:
        reopened = DocumentStore.open(self.directory, durability=DURABILITY)
        clock.check_state(self._state_matches(reopened), "reopened state")


class ColdStart(Workload):
    """Open and serve from nothing: snapshot load, WAL replay, one query."""

    name = "cold_start"
    semiring = PROVENANCE
    loop_kinds = ("reopen",)
    op_kind = "reopen"
    cycle = 18
    trace_steps = 18
    cli_doc = "doc1"

    TREES = 96
    #: Updates journaled after the snapshot, replayed by every open.
    WAL_TAIL = 8
    views = (("linear", "$S//c", "doc0"),)
    #: Step ``i`` answers ``READS[i % 18]`` on document ``i % 2``: a third
    #: full pushdown, a third pushdown plus residual and a third fallback
    #: (two different chains over ``$S``), so the median and the tail read
    #: each fall inside one class.
    READS = tuple(
        query
        for first, second in zip(DEFAULT_LABELS[:6], DEFAULT_LABELS[2:])
        for query in (
            f"$S//{first}",
            f"element out {{ $S/*/{first} }}",
            f"element out {{ ($S/{first}, $S//{second}) }}",
        )
    )
    CLASSES = ("pushdown", "residual", "fallback")

    def setup(self) -> None:
        rng = self._rng("inputs")
        store = DocumentStore(PROVENANCE, directory=self.directory, durability=DURABILITY)
        for doc in ("doc0", "doc1"):
            self.models[doc] = self._forest(rng, self.TREES)
            store.ingest(doc, self.models[doc])
        for name, query, doc in self.views:
            store.register_view(name, query, doc)
        store.compact()
        for index in range(self.WAL_TAIL):
            doc = ("doc0", "doc1")[index % 2]
            delta = self._tail_delta(rng, doc, index)
            self.models[doc] = delta.apply_to(self.models[doc])
            store.update(doc, delta)

    def _tail_delta(self, rng: random.Random, doc: str, index: int) -> Delta:
        fresh = Polynomial.variable(f"w{index}")
        if index % 3 == 0:
            tree = random_tree(PROVENANCE, DEPTH, FANOUT, seed=rng.randrange(1 << 30))
            return Delta.insertion(PROVENANCE, tree, fresh)
        model = self.models[doc]
        members = list(model.values())
        tree = members[rng.randrange(len(members))]
        if index % 3 == 1:
            return Delta.deletion(PROVENANCE, tree, model.annotation(tree))
        return Delta.reannotation(PROVENANCE, tree, model.annotation(tree), fresh)

    def warm_up(self, clock: Clock) -> None:
        # One open answers every query of the cycle.  Without this, the
        # first cycle's reads took three times the later ones'.
        store = DocumentStore.open(self.directory, durability=DURABILITY)
        for index, text in enumerate(self.READS):
            doc = ("doc0", "doc1")[index % 2]
            clock.call(
                "read", store.query, text, doc,
                check=lambda result: result == self._expected_unchanged(text, doc),
            )

    def step(self, clock: Clock) -> None:
        text = self.READS[self.steps % len(self.READS)]
        doc = ("doc0", "doc1")[self.steps % 2]
        label = self.CLASSES[self.steps % len(self.CLASSES)]
        self.steps += 1

        def open_and_query():
            store = DocumentStore.open(self.directory, durability=DURABILITY)
            started = perf_counter()
            result = store.query(text, doc)
            elapsed = perf_counter() - started
            clock.record("read", elapsed)
            clock.record(f"read.{label}", elapsed)
            return store, result

        clock.call(
            "reopen", open_and_query,
            check=lambda out: (
                out[1] == self._expected_unchanged(text, doc) and self._state_matches(out[0])
            ),
        )


WORKLOADS = {workload.name: workload for workload in (ReadMix, UpdateMix, ColdStart)}
