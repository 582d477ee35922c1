"""The K-UXML data model: annotated, unordered XML trees (Section 3).

Following the paper's mutually recursive definition:

* a *value* is a label, a tree, or a K-set of trees;
* a *tree* is a label together with a finite (possibly empty) K-set of trees
  (its children);
* a finite K-set of trees is a function from trees to K with finite support.

A tree gets an annotation only as a member of a K-set; to annotate a single
tree it is placed into a singleton K-set.  ``K = B`` gives ordinary unordered
XML (UXML), ``K = N`` gives unordered XML with repetitions, and ``K = N[X]``
attaches full provenance polynomials.

:class:`UTree` instances are immutable and hashable, so they can themselves be
members of :class:`~repro.kcollections.kset.KSet` collections — which is
exactly how forests (and the children of every node) are represented.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import UXMLError
from repro.kcollections.kset import KSet
from repro.semirings.base import Semiring
from repro.semirings.homomorphism import SemiringHomomorphism

__all__ = [
    "UTree",
    "leaf",
    "forest",
    "map_tree_annotations",
    "map_forest_annotations",
    "forest_size",
    "tree_size",
]


class UTree:
    """An unordered, K-annotated XML tree: a label plus a K-set of child trees."""

    __slots__ = ("_label", "_children", "_hash")

    def __init__(self, label: str, children: KSet):
        if not isinstance(label, str):
            raise UXMLError(f"tree labels must be strings, got {label!r}")
        if not isinstance(children, KSet):
            raise UXMLError("tree children must be given as a KSet of UTree values")
        for child in children:
            if not isinstance(child, UTree):
                raise UXMLError(f"children of a UTree must be UTree values, got {child!r}")
        object.__setattr__(self, "_label", label)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_hash", None)

    # -------------------------------------------------------------- accessors
    @property
    def label(self) -> str:
        """The label at the root of this tree."""
        return self._label

    @property
    def children(self) -> KSet:
        """The K-set of immediate subtrees."""
        return self._children

    @property
    def semiring(self) -> Semiring:
        """The annotation semiring (taken from the children collection)."""
        return self._children.semiring

    def is_leaf(self) -> bool:
        """True if this tree has no children (models an atomic value)."""
        return self._children.is_empty()

    # ------------------------------------------------------------- traversal
    def subtrees(self) -> Iterator["UTree"]:
        """Iterate over this tree and all (distinct) subtrees, pre-order."""
        yield self
        for child in self._children:
            yield from child.subtrees()

    def child_trees(self) -> Iterator["UTree"]:
        """Iterate over the immediate subtrees (support of the children K-set)."""
        return iter(self._children)

    def find(self, label: str) -> Iterator["UTree"]:
        """Iterate over all subtrees (including this one) labeled ``label``."""
        return (subtree for subtree in self.subtrees() if subtree.label == label)

    def size(self) -> int:
        """Number of nodes, counting each distinct occurrence along paths once."""
        return 1 + sum(child.size() for child in self._children)

    def height(self) -> int:
        """Length of the longest root-to-leaf path (a leaf has height 1)."""
        if self._children.is_empty():
            return 1
        return 1 + max(child.height() for child in self._children)

    def labels(self) -> frozenset[str]:
        """All labels occurring in the tree."""
        return frozenset(subtree.label for subtree in self.subtrees())

    def annotations(self) -> Iterator[Any]:
        """Iterate over every annotation appearing anywhere inside the tree."""
        for child, annotation in self._children.items():
            yield annotation
            yield from child.annotations()

    # ------------------------------------------------------------- comparison
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UTree):
            return NotImplemented
        return self._label == other._label and self._children == other._children

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self._label, self._children))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ---------------------------------------------------------------- display
    def __repr__(self) -> str:
        if self.is_leaf():
            return f"UTree({self._label!r})"
        return f"UTree({self._label!r}, {len(self._children)} children)"

    def __str__(self) -> str:
        from repro.uxml.serializer import to_paper_notation

        return to_paper_notation(self)

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover - safety
        raise AttributeError("UTree instances are immutable")

    def __reduce__(self):
        # The immutability guard breaks pickle's default slot-state restore
        # (needed by the store's WAL and snapshot value codec).  The pickled
        # parts already satisfy the constructor invariants, so restoring
        # skips the per-child re-validation.
        return (_unpickle_utree, (self._label, self._children))


def _unpickle_utree(label: str, children: KSet) -> "UTree":
    instance = object.__new__(UTree)
    object.__setattr__(instance, "_label", label)
    object.__setattr__(instance, "_children", children)
    object.__setattr__(instance, "_hash", None)
    return instance


# ----------------------------------------------------------------- builders
def leaf(semiring: Semiring, label: str) -> UTree:
    """A childless tree (the paper models atomic values as labels on leaves)."""
    return UTree(label, KSet.empty(semiring))


def forest(semiring: Semiring, *members: UTree | tuple[UTree, Any]) -> KSet:
    """Build a K-set of trees.

    Each member is either a bare :class:`UTree` (annotated with ``1``) or a
    ``(tree, annotation)`` pair.  Duplicate trees have their annotations added.
    """
    pairs = []
    for member in members:
        if isinstance(member, tuple):
            tree, annotation = member
        else:
            tree, annotation = member, semiring.one
        if not isinstance(tree, UTree):
            raise UXMLError(f"forest members must be UTree values, got {tree!r}")
        pairs.append((tree, annotation))
    return KSet(semiring, pairs)


# ------------------------------------------------------------- measurements
def tree_size(tree: UTree) -> int:
    """Number of nodes of a tree (used for the Proposition 2 bound)."""
    return tree.size()


def forest_size(collection: KSet) -> int:
    """Total number of nodes over all trees in a K-set of trees."""
    return sum(tree.size() for tree in collection)


# --------------------------------------------------- homomorphism lifting
def map_tree_annotations(
    tree: UTree,
    fn: Callable[[Any], Any] | SemiringHomomorphism,
    target: Semiring | None = None,
) -> UTree:
    """Apply a homomorphism (or plain function) to every annotation inside a tree.

    This is the lifting ``H`` of Corollary 1 restricted to a single tree: the
    tree structure is preserved and every child annotation is replaced by its
    image.  When ``fn`` is a :class:`SemiringHomomorphism` the target semiring
    is taken from it; otherwise ``target`` must be supplied (or the tree's own
    semiring is reused).
    """
    if isinstance(fn, SemiringHomomorphism):
        target_semiring = fn.target
        mapping: Callable[[Any], Any] = fn
    else:
        target_semiring = target if target is not None else tree.semiring
        mapping = fn
    new_children = KSet(
        target_semiring,
        [
            (map_tree_annotations(child, mapping, target_semiring), mapping(annotation))
            for child, annotation in tree.children.items()
        ],
    )
    return UTree(tree.label, new_children)


def map_forest_annotations(
    collection: KSet,
    fn: Callable[[Any], Any] | SemiringHomomorphism,
    target: Semiring | None = None,
) -> KSet:
    """Apply a homomorphism to every annotation in a K-set of trees (Corollary 1 lifting)."""
    if isinstance(fn, SemiringHomomorphism):
        target_semiring = fn.target
        mapping: Callable[[Any], Any] = fn
    else:
        target_semiring = target if target is not None else collection.semiring
        mapping = fn
    return KSet(
        target_semiring,
        [
            (map_tree_annotations(tree, mapping, target_semiring), mapping(annotation))
            for tree, annotation in collection.items()
        ],
    )
