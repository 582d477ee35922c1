"""Delta semantics: construction, composition, projections, application."""

from __future__ import annotations

import pytest

from repro.errors import IVMError
from repro.ivm import Delta
from repro.kcollections import KSet
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE, DiffPair, diff_of, variables
from repro.uxml.tree import forest, leaf
from repro.workloads import random_forest


def _doc(semiring, seed=11):
    return random_forest(semiring, num_trees=6, depth=3, fanout=2, seed=seed)


class TestConstruction:
    def test_insertion_defaults_to_one(self):
        tree = leaf(NATURAL, "a")
        delta = Delta.insertion(NATURAL, tree)
        assert dict(delta.items()) == {tree: DiffPair(1, 0)}
        assert delta.is_insert_only()

    def test_changes_to_the_same_tree_accumulate(self):
        tree = leaf(NATURAL, "a")
        delta = Delta(NATURAL, [(tree, 2), (tree, DiffPair(1, 1))])
        assert dict(delta.items()) == {tree: DiffPair(3, 1)}
        assert not delta.is_insert_only()

    def test_zero_changes_are_dropped(self):
        tree = leaf(NATURAL, "a")
        assert Delta(NATURAL, [(tree, 0)]).is_empty()
        assert len(Delta(NATURAL, [(tree, 0), (leaf(NATURAL, "b"), 1)])) == 1

    def test_deletion_and_reannotation(self):
        tree = leaf(PROVENANCE, "a")
        x, y = variables("x", "y")
        assert dict(Delta.deletion(PROVENANCE, tree, x).items()) == {
            tree: DiffPair(PROVENANCE.zero, x)
        }
        assert dict(Delta.reannotation(PROVENANCE, tree, x, y).items()) == {
            tree: DiffPair(y, x)
        }

    def test_rejects_non_trees_and_diff_semirings(self):
        with pytest.raises(IVMError):
            Delta(NATURAL, [("not-a-tree", 1)])
        with pytest.raises(IVMError):
            Delta(diff_of(NATURAL))

    def test_merge_is_pairwise(self):
        a, b = leaf(NATURAL, "a"), leaf(NATURAL, "b")
        merged = Delta.insertion(NATURAL, a, 2) | Delta.deletion(NATURAL, a, 1) | Delta.insertion(NATURAL, b)
        assert dict(merged.items()) == {a: DiffPair(2, 1), b: DiffPair(1, 0)}
        with pytest.raises(IVMError):
            Delta.insertion(NATURAL, a) | Delta.insertion(BOOLEAN, leaf(BOOLEAN, "a"))


class TestProjections:
    def test_insertions_and_deletions_ksets(self):
        a, b = leaf(NATURAL, "a"), leaf(NATURAL, "b")
        delta = Delta(NATURAL, [(a, DiffPair(2, 1)), (b, DiffPair(0, 3))])
        assert delta.insertions() == KSet(NATURAL, [(a, 2)])
        assert delta.deletions() == KSet(NATURAL, [(a, 1), (b, 3)])


class TestApplication:
    def test_insert_new_and_existing_members(self):
        a, b = leaf(NATURAL, "a"), leaf(NATURAL, "b")
        document = forest(NATURAL, (a, 2))
        updated = Delta(NATURAL, [(a, 1), (b, 3)]).apply_to(document)
        assert updated == forest(NATURAL, (a, 3), (b, 3))

    def test_exact_partial_deletion_with_subtraction(self):
        a = leaf(NATURAL, "a")
        document = forest(NATURAL, (a, 5))
        assert Delta.deletion(NATURAL, a, 2).apply_to(document) == forest(NATURAL, (a, 3))
        assert Delta.deletion(NATURAL, a, 5).apply_to(document).is_empty()
        with pytest.raises(IVMError, match="removes more"):
            Delta.deletion(NATURAL, a, 7).apply_to(document)

    def test_full_deletion_without_subtraction(self):
        a = leaf(BOOLEAN, "a")
        document = forest(BOOLEAN, (a, True))
        assert Delta.deletion(BOOLEAN, a, True).apply_to(document).is_empty()

    def test_replacement_without_subtraction(self):
        a = leaf(BOOLEAN, "a")
        document = forest(BOOLEAN, (a, True))
        updated = Delta.reannotation(BOOLEAN, a, True, True).apply_to(document)
        assert updated == document

    def test_partial_deletion_without_subtraction_is_rejected(self):
        a, b = leaf(BOOLEAN, "a"), leaf(BOOLEAN, "b")
        document = forest(BOOLEAN, (a, True), (b, True))
        # Deleting an annotation that is neither the member's whole
        # annotation nor zero is undecidable without cancellation.
        delta = Delta(BOOLEAN, [(a, DiffPair(True, True)), (b, DiffPair(False, True))])
        updated = delta.apply_to(document)  # a: replacement; b: full removal
        assert updated == forest(BOOLEAN, (a, True))

    def test_apply_to_validates_semiring(self):
        a = leaf(NATURAL, "a")
        with pytest.raises(IVMError):
            Delta.insertion(NATURAL, a).apply_to(_doc(BOOLEAN))

    def test_empty_delta_returns_document_unchanged(self):
        document = _doc(NATURAL)
        assert Delta(NATURAL).apply_to(document) is document
