"""Shredding K-UXML into the K-relation ``E(pid, nid, label)`` (Section 7).

Each K-UXML node becomes one tuple of ``E`` carrying the node's membership
annotation; ``pid`` is the parent's node identifier, ``nid`` the node's own
identifier, and the reserved parent identifier ``0`` marks the (top-level)
roots of the encoded K-set of trees.

Going back (:func:`unshred`) rebuilds the K-set of trees from the tuples
reachable from the roots; unreachable "garbage" tuples — which the Datalog
translation of XPath naturally produces — are ignored (the paper notes the
same clean-up step).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Tuple

from repro.errors import ShreddingError
from repro.kcollections.kset import KSet
from repro.semirings.base import Semiring
from repro.uxml.tree import UTree

if TYPE_CHECKING:  # the store shreds without loading repro.relational
    from repro.relational.krelation import KRelation

__all__ = [
    "ROOT_PID",
    "EDGE_ATTRIBUTES",
    "canonical_member_key",
    "shred_forest",
    "shred_tree",
    "unshred",
    "reachable_facts",
    "edge_relation",
]

#: The reserved parent id of top-level roots.
ROOT_PID = 0

#: The schema of the edge relation.
EDGE_ATTRIBUTES = ("pid", "nid", "label")

EdgeFacts = dict[Tuple[Any, Any, str], Any]


def _canonical_key(tree: UTree, semiring: Semiring, cache: dict) -> Tuple[Any, ...]:
    """A canonical ordering key for a tree *value*, memoized per tree object.

    The key is a nested tuple ``(label, sorted (child key, annotation
    rendering) pairs)`` — tuples, not a flat string, so a label or rendered
    annotation containing would-be delimiter characters cannot collide with
    a structurally different tree (strings are compared as whole components).
    Children are sorted, so equal tree values always produce equal keys
    however their K-sets were built.  The cache (keyed by object identity;
    the caller keeps the trees alive) makes one shredding pass build every
    node's key once, instead of once per ancestor level.
    """
    key = id(tree)
    built = cache.get(key)
    if built is None:
        built = (
            tree.label,
            tuple(
                sorted(
                    (_canonical_key(child, semiring, cache), semiring.repr_element(annotation))
                    for child, annotation in tree.children.items()
                )
            ),
        )
        cache[key] = built
    return built


def canonical_member_key(
    tree: UTree, annotation: Any, semiring: Semiring, _cache: dict | None = None
) -> Tuple[Any, str]:
    """A total, document-stable ordering key for an annotated forest member.

    The tree part is a canonical structural key (equal tree values get equal
    keys however the K-set was built); the rendered annotation keeps members
    that share a tree value apart.  Shredding sorts members by this key,
    which makes node-id allocation a function of the forest *value*: equal
    forests shred to identical columns (the invariant the snapshot/WAL
    equality of :mod:`repro.store` relies on).
    """
    cache = {} if _cache is None else _cache
    return (
        _canonical_key(tree, semiring, cache),
        semiring.repr_element(semiring.normalize(annotation)),
    )


class _IdAllocator:
    """Invent node identifiers during translation (1, 2, 3, ...)."""

    def __init__(self, start: int = 1):
        self._next = start

    def fresh(self) -> int:
        value = self._next
        self._next += 1
        return value


def _shred_into(
    tree: UTree,
    annotation: Any,
    parent: Any,
    allocator: _IdAllocator,
    facts: EdgeFacts,
    semiring: Semiring,
    key_cache: dict,
) -> None:
    node_id = allocator.fresh()
    key = (parent, node_id, tree.label)
    facts[key] = semiring.normalize(annotation)
    # Children are visited in canonical order too, so ids depend only on the
    # tree value, not on the insertion order of the children K-set.  One
    # key cache spans the whole shredding pass, so every subtree is rendered
    # once no matter how deep the sort recursion goes.
    for child, child_annotation in sorted(
        tree.children.items(),
        key=lambda item: canonical_member_key(item[0], item[1], semiring, key_cache),
    ):
        _shred_into(child, child_annotation, node_id, allocator, facts, semiring, key_cache)


def shred_forest(forest: KSet) -> EdgeFacts:
    """Shred a K-set of trees into edge facts ``(pid, nid, label) -> annotation``.

    Every node occurrence gets a fresh identifier, so two occurrences of the
    same subtree value are kept apart (they are merged again, with their
    annotations added, when the forest is rebuilt).  Members are shredded in
    :func:`canonical_member_key` order, so node-id allocation is deterministic
    and document-stable: equal forests yield identical facts, ids included.
    """
    semiring = forest.semiring
    for tree in forest:
        if not isinstance(tree, UTree):
            raise ShreddingError(f"cannot shred non-tree member {tree!r}")
    allocator = _IdAllocator()
    facts: EdgeFacts = {}
    key_cache: dict = {}
    for tree, annotation in sorted(
        forest.items(),
        key=lambda item: canonical_member_key(item[0], item[1], semiring, key_cache),
    ):
        _shred_into(tree, annotation, ROOT_PID, allocator, facts, semiring, key_cache)
    return facts


def shred_tree(tree: UTree, annotation: Any | None = None) -> EdgeFacts:
    """Shred a single tree (with the given root annotation, default ``1``)."""
    semiring = tree.semiring
    root_annotation = semiring.one if annotation is None else annotation
    return shred_forest(KSet.singleton(semiring, tree, root_annotation))


def edge_relation(facts: Mapping[Tuple[Any, Any, str], Any], semiring: Semiring) -> KRelation:
    """Package edge facts as the K-relation ``E(pid, nid, label)``."""
    from repro.relational.krelation import KRelation

    return KRelation(semiring, EDGE_ATTRIBUTES, dict(facts))


def reachable_facts(facts: Mapping[Tuple[Any, Any, str], Any], semiring: Semiring) -> EdgeFacts:
    """Remove garbage: keep only the tuples reachable from the root parent id."""
    children_of: dict[Any, list[Tuple[Any, Any, str]]] = {}
    for key in facts:
        children_of.setdefault(key[0], []).append(key)
    reachable: EdgeFacts = {}
    frontier = list(children_of.get(ROOT_PID, []))
    while frontier:
        key = frontier.pop()
        if key in reachable:
            continue
        annotation = facts[key]
        if semiring.is_zero(annotation):
            continue
        # Coercing (validate + normalize) here lets unshred rebuild the
        # forest through the trusted K-set constructors while still rejecting
        # invalid annotations in caller-supplied fact mappings.
        reachable[key] = semiring.coerce(annotation)
        frontier.extend(children_of.get(key[1], []))
    return reachable


def unshred(
    facts: Mapping[Tuple[Any, Any, str], Any] | KRelation,
    semiring: Semiring,
) -> KSet:
    """Rebuild the K-set of trees encoded by edge facts (ignoring garbage).

    Distinct node identifiers that denote equal tree *values* are merged and
    their annotations added, which is exactly the K-set semantics of the
    direct data model.
    """
    # A K-relation is not a mapping; its items() are the same pairs.
    table = facts if isinstance(facts, Mapping) else dict(facts.items())
    live = reachable_facts(table, semiring)
    children_of: dict[Any, list[Tuple[Any, Any, str]]] = {}
    for key in live:
        children_of.setdefault(key[0], []).append(key)

    def build(node_id: Any, label: str) -> UTree:
        members = []
        for child_pid, child_nid, child_label in children_of.get(node_id, []):
            child_tree = build(child_nid, child_label)
            members.append((child_tree, live[(child_pid, child_nid, child_label)]))
        # The annotations were normalized and zero-filtered by
        # reachable_facts, so the trusted accumulating constructor applies.
        return UTree(label, KSet._accumulate_normalized(semiring, members))

    roots = []
    for pid, nid, label in children_of.get(ROOT_PID, []):
        roots.append((build(nid, label), live[(pid, nid, label)]))
    return KSet._accumulate_normalized(semiring, roots)
