"""Shredded columns and structural indexes: determinism and exact navigation."""

from __future__ import annotations

import pytest

from repro.kcollections import KSet
from repro.errors import StoreError
from repro.paperdata import figure4_source
from repro.semirings import NATURAL, PROVENANCE
from repro.semirings.registry import standard_semirings
from repro.shredding import evaluate_xpath_via_datalog, shred_forest
from repro.store import ShreddedColumns, StructuralIndex
from repro.store.index import _fuse_steps
from repro.uxml.navigation import apply_axis
from repro.uxquery.ast import Step
from repro.workloads import random_forest

CHAINS = [
    (),
    (Step("self", "a"),),
    (Step("child", "*"),),
    (Step("child", "c"),),
    (Step("descendant", "c"),),
    (Step("descendant", "*"),),
    (Step("descendant-or-self", "b"),),
    (Step("descendant-or-self", "*"), Step("child", "c")),
    (Step("child", "*"), Step("descendant", "*")),
    (Step("descendant", "*"), Step("descendant", "c")),
    (Step("child", "*"), Step("child", "*"), Step("child", "*")),
]


def _direct(forest: KSet, steps) -> KSet:
    current = forest
    for step in steps:
        current = apply_axis(current, step.axis, step.nodetest)
    return current


class TestColumns:
    def test_rows_follow_shred_order(self):
        forest = figure4_source()
        columns = ShreddedColumns.from_forest(forest)
        assert list(columns.facts().items()) == list(shred_forest(forest).items())

    def test_forest_round_trip(self, any_semiring):
        forest = random_forest(any_semiring, num_trees=3, depth=3, fanout=2, seed=3)
        columns = ShreddedColumns.from_forest(forest)
        assert columns.forest() == forest

    def test_payload_round_trip(self, any_semiring):
        forest = random_forest(any_semiring, num_trees=2, depth=3, fanout=2, seed=4)
        columns = ShreddedColumns.from_forest(forest)
        rebuilt = ShreddedColumns.from_payload(any_semiring, columns.to_payload())
        assert rebuilt == columns

    def test_equal_forests_equal_columns(self, any_semiring):
        forest = random_forest(any_semiring, num_trees=4, depth=3, fanout=2, seed=5)
        # Rebuild the same K-set value with a different insertion order.
        shuffled = KSet(any_semiring, list(reversed(list(forest.items()))))
        assert shuffled == forest
        assert ShreddedColumns.from_forest(shuffled) == ShreddedColumns.from_forest(forest)

    def test_ragged_columns_rejected(self):
        with pytest.raises(StoreError, match="equal lengths"):
            ShreddedColumns(NATURAL, (0,), (1, 2), ("a", "b"), (1, 1))


class TestIndexStructure:
    def test_intervals_cover_subtrees(self):
        forest = random_forest(NATURAL, num_trees=2, depth=4, fanout=2, seed=6)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        assert len(index.blocks) == len(forest)
        for block in index.blocks:
            nodes = range(len(block))
            # Child lists from the parent links, independent of the intervals.
            children_of: dict[int, list[int]] = {}
            for node in nodes:
                children_of.setdefault(block.parents[node], []).append(node)
            for node in nodes:
                end = block.ends[node]
                descendants = {other for other in nodes if node < other <= end}
                # Walk the child lists to get the reference descendant set.
                frontier = list(children_of.get(node, ()))
                reference = set()
                while frontier:
                    child = frontier.pop()
                    reference.add(child)
                    frontier.extend(children_of.get(child, ()))
                assert descendants == reference

    def test_label_index_counts(self):
        forest = figure4_source()
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        total = sum(index.count_label(label) for label in index.label_counts())
        assert total == index.node_count() == len(index.columns)

    def test_out_of_order_columns_rejected(self):
        with pytest.raises(StoreError, match="precedes its parent"):
            StructuralIndex(
                ShreddedColumns(NATURAL, (1, 0), (2, 1), ("b", "a"), (1, 1))
            )

    def test_bfs_ordered_columns_rejected(self):
        """Non-DFS id allocation would make subtree intervals cover siblings;
        the index must refuse it rather than navigate wrongly."""
        columns = ShreddedColumns(
            NATURAL,
            (0, 1, 1, 2, 2),
            (1, 2, 3, 4, 5),
            ("a", "b", "b", "c", "c"),
            (1, 1, 1, 1, 1),
        )
        with pytest.raises(StoreError, match="not a depth-first pre-order"):
            StructuralIndex(columns)

    def test_non_integer_node_ids_rejected(self):
        columns = ShreddedColumns(NATURAL, (0,), ("one",), ("a",), (1,))
        with pytest.raises(StoreError, match="must be integers"):
            StructuralIndex(columns)

    def test_navigation_memo_is_lru(self):
        """A full memo evicts its least recently used chain, so a chain first
        seen after NAV_CACHE_SIZE others is still memoized."""
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=8)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        for number in range(StructuralIndex.NAV_CACHE_SIZE):
            index.navigate((Step("descendant", f"label{number}"),))
        late = (Step("descendant", "c"),)
        index.navigate(late)
        hits = index.nav_hits
        assert index.navigate(late) == _direct(forest, late)
        assert index.nav_hits == hits + 1

    def test_fuse_double_slash(self):
        fused = _fuse_steps([Step("descendant-or-self", "*"), Step("child", "c")])
        assert [str(step) for step in fused] == ["descendant::c"]
        # A non-wildcard descendant-or-self is not fused.
        kept = _fuse_steps([Step("descendant-or-self", "b"), Step("child", "c")])
        assert [str(step) for step in kept] == ["descendant-or-self::b", "child::c"]


class TestNavigationExactness:
    @pytest.mark.parametrize("seed", range(3))
    def test_against_direct_semantics_every_semiring(self, any_semiring, seed):
        forest = random_forest(any_semiring, num_trees=3, depth=4, fanout=2, seed=seed)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        assert index.forest() == forest
        for chain in CHAINS:
            assert index.navigate(chain) == _direct(forest, chain), [
                str(step) for step in chain
            ]

    def test_against_datalog_semantics(self):
        for semiring in (NATURAL, PROVENANCE):
            forest = random_forest(semiring, num_trees=2, depth=3, fanout=2, seed=11)
            index = StructuralIndex(ShreddedColumns.from_forest(forest))
            steps = [Step("descendant-or-self", "*"), Step("child", "c")]
            assert index.navigate(steps) == evaluate_xpath_via_datalog(forest, steps)

    def test_figure4_descendant(self):
        source = figure4_source()
        index = StructuralIndex(ShreddedColumns.from_forest(source))
        steps = [Step("descendant-or-self", "*"), Step("child", "c")]
        assert index.navigate(steps) == _direct(source, steps)

    def test_nested_frontier_counts(self, nat_builder):
        """Descendant steps from a nested frontier sum multiplicities."""
        b = nat_builder
        # a > b > b > c: //b//c reaches c via both b nodes.
        tree = b.tree("a", b.tree("b", b.tree("b", b.leaf("c"))))
        forest = b.forest(tree)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        chain = (Step("descendant", "b"), Step("descendant", "c"))
        assert index.navigate(chain) == _direct(forest, chain)

    def test_unsupported_axis_raises(self):
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=1, seed=0)
        index = StructuralIndex(ShreddedColumns.from_forest(forest))
        # Build a step with an unsupported axis by bypassing Step validation.
        bogus = Step.__new__(Step)
        bogus.axis = "parent"
        bogus.nodetest = "*"
        with pytest.raises(StoreError, match="not servable"):
            index.navigate([bogus])
