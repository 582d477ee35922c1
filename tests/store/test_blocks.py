"""Per-member index blocks: the state a store maintains equals a fresh build.

A document's index is one block per top-level member, and an update replaces
only the blocks of the members its delta touches.  The acceptance bar: after
every step of a seeded stream — inserts (of new trees and of trees already
present), whole and partial deletions, re-annotations, multi-member deltas,
``ingest(replace=True)``, a compaction and a reopen — the store's columns are
exactly the canonical shred of its forest, and every chain navigates to
exactly what a from-scratch index over that forest gives.  The chains are
read between updates, so the block memos are warm and a stale entry would
show.
"""

from __future__ import annotations

import gc
import random

import pytest
from test_columns_index import CHAINS

from repro.ivm import Delta
from repro.kcollections.kset import KSet
from repro.semirings import NATURAL
from repro.semirings.diff import DiffPair
from repro.semirings.registry import standard_semirings
from repro.store import DocumentStore, ShreddedColumns, StructuralIndex
from repro.store.index import _Block
from repro.uxml.tree import UTree
from repro.uxquery.ast import Step
from repro.uxquery.parser import parse_query
from repro.workloads import random_forest, random_tree

STEPS = 24

OPS = (
    "insert", "insert", "insert-present", "delete", "partial", "reannotate",
    "reannotate", "multi", "replace",
)


class _Stream:
    """Seeded deltas over a model forest, with partial deletions undoing
    earlier top-ups of a present member (exact where subtraction is)."""

    def __init__(self, semiring, seed: int):
        self.semiring = semiring
        self.rng = random.Random(seed)
        self.samples = [v for v in semiring.sample_elements() if not semiring.is_zero(v)]
        self.topped_up: list = []

    def _fresh_tree(self):
        return random_tree(self.semiring, depth=3, fanout=2, seed=self.rng.randrange(1 << 30))

    def next(self, model):
        semiring, rng = self.semiring, self.rng
        members = list(model.items())
        op = rng.choice(OPS) if members else "insert"
        if op == "partial":
            self.topped_up = [(t, a) for t, a in self.topped_up if t in model]
            if not (semiring.supports_subtraction and self.topped_up):
                op = "delete"
        if op == "insert":
            return op, Delta.insertion(semiring, self._fresh_tree(), rng.choice(self.samples))
        if op == "replace":
            self.topped_up = []
            return op, random_forest(semiring, num_trees=4, depth=3, fanout=2, seed=rng.randrange(1 << 30))
        if op == "partial":
            tree, amount = self.topped_up.pop(rng.randrange(len(self.topped_up)))
            return op, Delta.deletion(semiring, tree, amount)
        tree, annotation = rng.choice(members)
        if op != "insert-present":
            # Any other change to the member voids its pending top-ups.
            self.topped_up = [(t, a) for t, a in self.topped_up if t != tree]
        if op == "insert-present":
            amount = rng.choice(self.samples)
            self.topped_up.append((tree, amount))
            return op, Delta.insertion(semiring, tree, amount)
        if op == "delete":
            return op, Delta.deletion(semiring, tree, annotation)
        if op == "reannotate":
            return op, Delta.reannotation(semiring, tree, annotation, rng.choice(self.samples))
        # multi: one delta re-annotating a present member and inserting a new one
        zero = semiring.normalize(semiring.zero)
        return op, Delta(
            semiring,
            [
                (tree, DiffPair(semiring.coerce(rng.choice(self.samples)), annotation)),
                (self._fresh_tree(), DiffPair(semiring.coerce(rng.choice(self.samples)), zero)),
            ],
        )


def _check(store: DocumentStore, model) -> None:
    forest = store.forest("doc")
    assert forest == model
    assert store.columns("doc") == ShreddedColumns.from_forest(forest)
    fresh = StructuralIndex(ShreddedColumns.from_forest(forest))
    index = store.document("doc").index
    for chain in CHAINS:
        assert index.navigate(chain) == fresh.navigate(chain), [str(step) for step in chain]


class TestBlocksEqualFreshBuild:
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_streams_every_registry_semiring(self, tmp_path, seed):
        for position, semiring in enumerate(standard_semirings()):
            stream = _Stream(semiring, seed * 7919 + position)
            directory = tmp_path / f"{position}-{seed}"
            store = DocumentStore(semiring, directory=directory)
            model = random_forest(semiring, num_trees=5, depth=3, fanout=2, seed=seed)
            store.ingest("doc", model)
            compact_at, reopen_at = stream.rng.randrange(STEPS), stream.rng.randrange(STEPS)
            for step in range(STEPS):
                _check(store, model)
                op, change = stream.next(model)
                if op == "replace":
                    model = change
                    store.ingest("doc", model, replace=True)
                else:
                    model = change.apply_to(model)
                    assert store.update("doc", change) == model, (semiring.name, op)
                if step == compact_at:
                    store.compact()
                if step == reopen_at:
                    store = DocumentStore.open(directory)
            _check(store, model)

    def test_reads_after_a_write_reuse_untouched_blocks(self):
        store = DocumentStore(NATURAL)
        forest = random_forest(NATURAL, num_trees=12, depth=3, fanout=2, seed=5)
        store.ingest("doc", forest)
        chain = (Step("descendant", "c"),)
        store.document("doc").index.navigate(chain)
        before = store.document("doc").index.blocks
        tree = random_tree(NATURAL, depth=3, fanout=2, seed=77)
        store.update("doc", Delta.insertion(NATURAL, tree, 2))
        after = store.document("doc").index
        shared = [block for block in after.blocks if any(block is old for old in before)]
        assert len(shared) == len(before) == len(after.blocks) - 1
        # Every shared block answers the chain from its memo; only the new
        # member's block navigates.
        assert all(block.memo for block in shared)
        fresh = StructuralIndex(ShreddedColumns.from_forest(store.forest("doc")))
        assert after.navigate(chain) == fresh.navigate(chain)

    @pytest.mark.parametrize(
        "first, second",
        [("$S/a/b", "$S/'a/child::b'"), ("$S//x/y", "$S//'x/child::y'")],
    )
    def test_chains_that_render_alike_do_not_share_block_memos(self, first, second):
        """A quoted node test may contain ``/``, so ``$S/'a/child::b'`` (one
        step) and ``$S/a/b`` (two) print alike; each must get its own
        answer, not the one the other left in the block memos."""

        def tree(label, *children):
            return UTree(label, KSet(NATURAL, [(child, 1) for child in children]))

        forest = KSet(
            NATURAL,
            [
                (tree("r", tree("a", tree("b")), tree("x", tree("y"))), 1),
                (tree("r", tree("a/child::b"), tree("x/child::y")), 2),
            ],
        )
        store = DocumentStore(NATURAL)
        store.ingest("doc", forest)
        fresh = StructuralIndex(ShreddedColumns.from_forest(forest))
        for query in (first, second, first):
            chain = parse_query(query).steps
            expected = fresh.navigate(chain, use_cache=False)
            assert expected, query
            assert store.query(query) == expected, query
            assert store.document("doc").index.navigate(chain) == expected, query
        assert store.query(first) != store.query(second)


class TestMemoryUnderChurn:
    def test_intern_table_and_memos_stay_bounded(self):
        """500 insert/delete pairs with a read after each: the shared intern
        table and the memo entries stay within a constant factor of the live
        node count, and no dropped block stays alive.  The reads cycle
        through more chains than a memo keeps, so eviction must happen."""
        store = DocumentStore(NATURAL)
        store.ingest("doc", random_forest(NATURAL, num_trees=24, depth=3, fanout=2, seed=9))
        store.register_view("hits", "$S//c", "doc")
        gc.collect()
        elsewhere = _blocks_alive() - len(store.document("doc").index.blocks)
        trees_alive = []
        rng = random.Random(3)
        limit = StructuralIndex.NAV_CACHE_SIZE
        chains = [(Step("descendant", f"label{number}"),) for number in range(limit + 8)]
        chains += [(Step("child", "*"), Step("child", label)) for label in "abc"]
        for pair in range(500):
            tree = random_tree(NATURAL, depth=3, fanout=2, seed=10_000 + pair)
            store.update("doc", Delta.insertion(NATURAL, tree, rng.randint(1, 3)))
            store.query("$S//c")
            victim, annotation = rng.choice(list(store.forest("doc").items()))
            store.update("doc", Delta.deletion(NATURAL, victim, annotation))
            store.document("doc").index.navigate(chains[pair % len(chains)])
            index = store.document("doc").index
            assert len(index._intern) <= 2 * index.node_count()
            assert len(index._chains) <= limit
            assert all(len(block.memo) <= limit for block in index.blocks)
            assert len(index._nav_cache) <= limit
            if pair % 50 == 49:
                gc.collect()
                trees_alive.append(sum(isinstance(obj, UTree) for obj in gc.get_objects()))
        gc.collect()
        assert _blocks_alive() - elsewhere == len(store.document("doc").index.blocks)
        # The 450 members inserted and deleted after the first sample hold
        # over 3,000 subtrees; only the srt memos of the view's plans keep
        # some of them, for a few evaluations.
        assert max(trees_alive) - trees_alive[0] < 2_000, trees_alive


def _blocks_alive() -> int:
    return sum(isinstance(obj, _Block) for obj in gc.get_objects())
