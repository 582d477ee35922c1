"""Structural indexes over shredded columns: navigation as lookups.

A document is a K-set of trees, and every :mod:`repro.ivm` delta changes
whole top-level members, so the index is kept as one immutable **block** per
member.  A block numbers its member's nodes in depth-first pre-order with
local ids ``0..n-1`` (the root is ``0``) and holds, over those ids:

* the **label index** ``label -> ascending local ids``;
* the **interval index**: ids are allocated in pre-order, so the descendants
  of node ``a`` are exactly the ids in ``(a, end[a]]`` — a descendant
  (``//``) step is two :func:`bisect.bisect_right` calls on a label list
  instead of the transitive closure ``Reach`` the Datalog translation
  computes, and the children of ``a`` are ``a + 1``, then each next id past
  the previous child's interval (Grust, "Accelerating XPath Location
  Steps", SIGMOD 2002);
* the parent, label and annotation of every node, enough to give the rows
  back (:attr:`StructuralIndex.columns`).

Annotation bookkeeping — the part that makes this *exact* for every
commutative semiring — rides on one precomputed column: ``prefix[n]``, the
product of the membership annotations along the path from the member's root
down to ``n`` (inclusive).  Navigation per the paper's semantics annotates a
step result with the sum, over all witnessing paths, of the path products;
since data is a tree, every contribution via a frontier node ``a`` to a node
``d`` below it equals ``prefix[d]``, so a navigation frontier never needs
semiring arithmetic at all: it is a map ``id -> natural-number multiplicity``
(how many witnessing frontier ancestors contribute), and the final
annotation of ``d`` is ``from_int(count) * prefix[d]``.  Until a descendant
step starts from nodes nested in one another every count is 1, so the
frontier is a plain list of ids and ``d`` gets ``prefix[d]`` itself; and a
block records whether any prefix product is zero (zero divisors, e.g. in a
lattice), so results from the usual zero-free block need no zero test.
Paths never leave their member, so a document's result is the sum of its
blocks' results.
Equality with the direct, NRC and Datalog semantics is asserted by
``tests/store`` for every registry semiring.

A block also holds every node's subtree as a :class:`~repro.uxml.tree.UTree`
(built bottom-up in one pass), so producing a navigation result costs only
the matched nodes.  Equal subtrees are one object across all of a
document's blocks: they are interned in one table per document, which
carries over updates (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing"), so summing block results merges equal trees on the dict
identity fast path.

:class:`StructuralIndex` is one version of a document: its blocks in
canonical member order (:func:`~repro.shredding.shred.canonical_member_key`,
the order the shredder emits members in).  ``StructuralIndex(columns)``
builds every block in one pass over the columns, splitting them at root
rows; :meth:`StructuralIndex.updated` derives the next version by replacing
only the blocks of the members a delta touched.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.kcollections.kset import KSet
from repro.semirings.base import Semiring
from repro.shredding.shred import ROOT_PID, canonical_member_key
from repro.store.columns import ShreddedColumns
from repro.uxml.tree import UTree
from repro.uxquery.ast import Step

__all__ = ["StructuralIndex"]

#: Axes servable from the structural indexes (the downward fragment).
SUPPORTED_AXES = ("self", "child", "descendant", "descendant-or-self")

WILDCARD = "*"


class _Block:
    """The indexes of one top-level member, over local pre-order ids.

    Immutable once built: a block is shared by every version of its
    document that still holds the member.  ``memo`` maps a chain key to the
    block's navigation result for that chain, a tuple of ``(subtree,
    annotation)`` pairs; it lives as long as the block, so it survives
    updates to the other members.
    """

    __slots__ = (
        "labels", "parents", "annots", "prefix", "zero_free", "ends", "by_label", "trees", "memo"
    )

    def __init__(self, labels, parents, annots, prefix, zero_free, ends, by_label, trees):
        self.labels: Tuple[str, ...] = labels
        self.parents: Tuple[int, ...] = parents  # -1 for the root
        self.annots: Tuple[Any, ...] = annots
        self.prefix: Tuple[Any, ...] = prefix
        self.zero_free: bool = zero_free  # no prefix product is zero
        self.ends: Tuple[int, ...] = ends
        self.by_label: Dict[str, Tuple[int, ...]] = by_label
        self.trees: Tuple[UTree, ...] = trees
        self.memo: Dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self.labels)

    def reannotated(self, annotation: Any, semiring: Semiring) -> "_Block":
        """The same member under a new root annotation.

        Subtrees, labels and intervals do not depend on the root annotation,
        so only the annotation column and the prefix products are rebuilt.
        """
        annots = list(self.annots)
        annots[0] = annotation
        prefix = [annotation]
        mul = semiring.mul
        normalize = None if semiring.ops_preserve_normal_form else semiring.normalize
        for node in range(1, len(annots)):
            product = mul(prefix[self.parents[node]], annots[node])
            prefix.append(normalize(product) if normalize else product)
        zero_free = not any(map(semiring.is_zero, prefix))
        return _Block(
            self.labels,
            self.parents,
            tuple(annots),
            tuple(prefix),
            zero_free,
            self.ends,
            self.by_label,
            self.trees,
        )

    # ------------------------------------------------------------- navigation
    def collect(self, steps: Sequence[Step], semiring: Semiring, out: list) -> None:
        """Append the block's share of a fused chain to ``out``, as
        ``(subtree, annotation)`` pairs, in one pass over the steps."""
        labels = self.labels
        ends = self.ends
        # The frontier is a list of nodes each reached along one path until a
        # step can reach a node along several; from then on it is a dict from
        # node to its path count.
        frontier: Sequence[int] | Dict[int, int] = (0,)
        nested = False  # whether a frontier node may lie below another one
        for step in steps:
            axis, nodetest = step.axis, step.nodetest
            counted = isinstance(frontier, dict)
            if axis == "self":
                kept = []
                for node in frontier:
                    if nodetest == WILDCARD or labels[node] == nodetest:
                        kept.append(node)
                frontier = {node: frontier[node] for node in kept} if counted else kept
            elif axis == "child":
                candidates = None if nodetest == WILDCARD else self.by_label.get(nodetest, ())
                children = []
                if candidates is not None and len(candidates) <= 2 * len(frontier):
                    # Few nodes carry the label: keep those whose parent is in
                    # the frontier.
                    parents = self.parents
                    within = frontier if counted else set(frontier)
                    for child in candidates:
                        if parents[child] in within:
                            children.append(child)
                else:
                    # Pre-order ids: the first child is node + 1, each next
                    # child starts right after the previous child's interval.
                    for node in frontier:
                        child, end = node + 1, ends[node]
                        while child <= end:
                            if nodetest == WILDCARD or labels[child] == nodetest:
                                children.append(child)
                            child = ends[child] + 1
                if counted:  # every node has one parent, whose count it takes
                    parents = self.parents
                    children = {child: frontier[parents[child]] for child in children}
                frontier = children
            else:  # descendant / descendant-or-self (axes checked by the index)
                candidates = (
                    range(len(labels)) if nodetest == WILDCARD else self.by_label.get(nodetest, ())
                )
                # Interval containment: the descendants of node are the ids in
                # (node, end]; descendant-or-self also takes node itself.
                first = bisect_left if axis == "descendant-or-self" else bisect_right
                if not nested:
                    # Disjoint subtrees: each match has one frontier ancestor.
                    matched: list = []
                    for node in frontier:
                        start = first(candidates, node)
                        stop = bisect_right(candidates, ends[node], lo=start)
                        matched.extend(candidates[start:stop])
                    frontier = matched
                    nested = True
                else:
                    counts = frontier if counted else dict.fromkeys(frontier, 1)
                    result: Dict[int, int] = {}
                    for node, count in counts.items():
                        start = first(candidates, node)
                        stop = bisect_right(candidates, ends[node], lo=start)
                        for match in candidates[start:stop]:
                            result[match] = result.get(match, 0) + count
                    frontier = result
            if not frontier:
                return
        trees = self.trees
        prefix = self.prefix
        # Annihilated path products drop out, as in unshred.
        is_zero = None if self.zero_free else semiring.is_zero
        if isinstance(frontier, dict):
            for node, count in frontier.items():
                annotation = prefix[node]
                if count != 1:
                    annotation = semiring.normalize(
                        semiring.mul(semiring.normalize(semiring.from_int(count)), annotation)
                    )
                    if semiring.is_zero(annotation):
                        continue
                elif is_zero and is_zero(annotation):
                    continue
                out.append((trees[node], annotation))
        else:
            for node in frontier:
                annotation = prefix[node]
                if not (is_zero and is_zero(annotation)):
                    out.append((trees[node], annotation))


def _build_blocks(
    semiring: Semiring, rows: Iterable[Tuple[Any, Any, str, Any]], intern: Dict[UTree, UTree]
) -> List[_Block]:
    """Blocks from shredded rows in storage order, one per root row, one pass.

    Rejects (:class:`StoreError`) rows that are not a dense depth-first
    pre-order numbering per member: the interval index would silently
    answer wrongly over them.
    """
    mul = semiring.mul
    normalize = None if semiring.ops_preserve_normal_form else semiring.normalize
    blocks: List[_Block] = []
    labels: Optional[List[str]] = None
    for pid, nid, label, annotation in rows:
        if pid == ROOT_PID:
            if labels is not None:
                blocks.append(_finish_block(semiring, labels, parents, annots, prefix, by_label, intern))
            if not isinstance(nid, int):
                raise StoreError(f"node ids must be integers, got {nid!r}")
            base = nid
            labels, parents, annots, prefix = [label], [-1], [annotation], [annotation]
            by_label = {label: [0]}
            continue
        if labels is None:
            raise StoreError(
                f"row for node {nid!r} precedes its parent {pid!r} "
                "(columns are not in shredding order)"
            )
        try:
            node, parent = nid - base, pid - base
        except TypeError:
            raise StoreError(f"node ids must be integers, got {nid!r}") from None
        if not 0 <= parent < len(labels):
            if parent < 0:
                raise StoreError(
                    f"node ids are not a depth-first pre-order: node {nid!r} "
                    f"follows a later member than its parent {pid!r}"
                )
            raise StoreError(
                f"row for node {nid!r} precedes its parent {pid!r} "
                "(columns are not in shredding order)"
            )
        if node != len(labels):
            if node < len(labels):
                raise StoreError(f"node ids are not ascending in storage order at {nid!r}")
            raise StoreError(
                f"node ids are not a depth-first pre-order: {nid!r} leaves a gap"
            )
        labels.append(label)
        parents.append(parent)
        annots.append(annotation)
        product = mul(prefix[parent], annotation)
        prefix.append(normalize(product) if normalize else product)
        nodes = by_label.get(label)
        if nodes is None:
            by_label[label] = [node]
        else:
            nodes.append(node)
    if labels is not None:
        blocks.append(_finish_block(semiring, labels, parents, annots, prefix, by_label, intern))
    return blocks


def _finish_block(semiring, labels, parents, annots, prefix, by_label, intern) -> _Block:
    """Intervals and interned subtrees of one member, in reverse pre-order."""
    count = len(labels)
    ends = list(range(count))
    sizes = [1] * count
    kids: List[list] = [[] for _ in range(count)]
    trees: List[Any] = [None] * count
    accumulate = semiring.ops_preserve_normal_form
    for node in range(count - 1, -1, -1):
        # A subtree must occupy exactly the ids [node, node + size): this
        # rejects e.g. BFS-ordered columns, whose intervals would silently
        # cover unrelated siblings.
        if ends[node] != node + sizes[node] - 1:
            raise StoreError(
                f"node ids are not a depth-first pre-order: subtree of local "
                f"node {node} spans ids up to {ends[node]} but has "
                f"{sizes[node]} node(s)"
            )
        members = kids[node]
        children = (
            KSet._accumulate_normalized(semiring, members) if accumulate else KSet(semiring, members)
        )
        tree = UTree(labels[node], children)
        tree = trees[node] = intern.setdefault(tree, tree)
        parent = parents[node]
        if parent >= 0:
            kids[parent].append((tree, annots[node]))
            sizes[parent] += sizes[node]
            if ends[node] > ends[parent]:
                ends[parent] = ends[node]
    zero_free = not any(map(semiring.is_zero, prefix))
    # Tuples, not lists: the garbage collector stops tracking a tuple of
    # atomic values (ids, labels, most annotations), so a document's blocks
    # add little to the cost of each full collection.
    return _Block(
        tuple(labels),
        tuple(parents),
        tuple(annots),
        tuple(prefix),
        zero_free,
        tuple(ends),
        {label: tuple(nodes) for label, nodes in by_label.items()},
        tuple(trees),
    )


def _fuse_steps(steps: Sequence[Step]) -> list[Step]:
    """Peephole: ``descendant-or-self::*/child::nt`` is ``descendant::nt``.

    The parser expands the ``//nt`` shorthand into that two-step form; fusing
    it back turns the full-frontier expansion of ``descendant-or-self::*``
    into a single interval probe per frontier node.  Exact because the two
    chains witness the same paths: a child of a self-or-descendant of ``a``
    is precisely a strict descendant of ``a`` (each with its unique parent).
    """
    fused: list[Step] = []
    index = 0
    steps = list(steps)
    while index < len(steps):
        step = steps[index]
        if (
            step.axis == "descendant-or-self"
            and step.nodetest == WILDCARD
            and index + 1 < len(steps)
            and steps[index + 1].axis == "child"
        ):
            fused.append(Step("descendant", steps[index + 1].nodetest))
            index += 2
            continue
        fused.append(step)
        index += 1
    return fused


class StructuralIndex:
    """One version of a document: its per-member blocks in canonical order."""

    __slots__ = (
        "semiring",
        "blocks",
        "_intern",
        "_chains",
        "_nodes",
        "_members",
        "_columns",
        "_forest",
        "_nav_cache",
        "nav_hits",
        "nav_misses",
    )

    #: Bound on memoized chains: results per document version, and the
    #: chains whose per-block results the blocks keep (small: a serving
    #: workload repeats a handful of hot chains).  Both are LRU.
    NAV_CACHE_SIZE = 64

    def __init__(self, columns: ShreddedColumns):
        """Build every block in one pass over ``columns`` (the from-scratch build)."""
        intern: Dict[UTree, UTree] = {}
        blocks = _build_blocks(columns.semiring, columns.rows(), intern)
        self._setup(columns.semiring, blocks, intern, OrderedDict(), columns=columns)

    def _setup(
        self,
        semiring: Semiring,
        blocks: List[_Block],
        intern: Dict[UTree, UTree],
        chains: "OrderedDict[tuple, None]",
        columns: ShreddedColumns | None = None,
        forest: KSet | None = None,
        members: Dict[UTree, _Block] | None = None,
    ) -> None:
        self.semiring = semiring
        self.blocks = blocks
        self._intern = intern
        self._chains = chains
        self._nodes = sum(len(block) for block in blocks)
        self._members = members
        self._columns = columns
        self._forest = forest
        self._nav_cache: "OrderedDict[Tuple[Step, ...], KSet]" = OrderedDict()
        self.nav_hits = 0
        self.nav_misses = 0

    # ----------------------------------------------------------------- update
    def updated(self, trees: Iterable[UTree], forest: KSet) -> "StructuralIndex":
        """The index of ``forest``, which differs from this version's document
        only in the members ``trees`` (those of a delta).

        Only their blocks change: a new member is shredded on its own and
        gets a new block, a removed one loses its block, and one whose
        annotation changed gets its block with new prefix products.  Every
        other block, its navigation memo included, is shared with this
        version, which stays valid.
        """
        semiring = self.semiring
        blocks = list(self.blocks)
        members = dict(self._member_blocks())
        intern = self._intern
        key_cache: dict = {}
        inserted: Dict[UTree, UTree] = {}
        for tree in trees:
            old = members.pop(tree, None)
            if old is not None:
                del blocks[blocks.index(old)]
            if tree not in forest:
                continue
            annotation = semiring.normalize(forest.annotation(tree))
            if old is not None:
                block = old.reannotated(annotation, semiring)
            else:
                one = ShreddedColumns.from_forest(KSet.singleton(semiring, tree, annotation))
                (block,) = _build_blocks(semiring, one.rows(), intern)
                inserted[tree] = block.trees[0]
            key = canonical_member_key(block.trees[0], annotation, semiring, key_cache)
            position = bisect_left(
                blocks,
                key,
                key=lambda other: canonical_member_key(
                    other.trees[0], other.annots[0], semiring, key_cache
                ),
            )
            blocks.insert(position, block)
            members[block.trees[0]] = block
        if inserted:
            # A new member enters ``forest`` as the delta's own tree object.
            # Keep its block's interned tree instead, so queries over the
            # forest merge equal subtrees of different members on the dict
            # identity fast path rather than by deep comparison.
            items = dict(forest._items)
            for tree, root in inserted.items():
                items[root] = items.pop(tree)
            forest = KSet._from_normalized(semiring, items)
        derived = StructuralIndex.__new__(StructuralIndex)
        derived._setup(semiring, blocks, intern, self._chains, forest=forest, members=members)
        if len(intern) > 2 * derived._nodes:
            # Subtrees of removed members stay interned until the table
            # outgrows the live document; then it keeps only live subtrees
            # (already canonical objects, so identities are unchanged).
            derived._intern = {tree: tree for block in blocks for tree in block.trees}
        return derived

    def _member_blocks(self) -> Dict[UTree, _Block]:
        members = self._members
        if members is None:
            members = self._members = {block.trees[0]: block for block in self.blocks}
        return members

    # ----------------------------------------------------------------- access
    def forest(self) -> KSet:
        """The stored document as a K-set of trees (cached; equals unshred)."""
        cached = self._forest
        if cached is None:
            members = [(block.trees[0], block.annots[0]) for block in self.blocks]
            if self.semiring.ops_preserve_normal_form:
                cached = KSet._accumulate_normalized(self.semiring, members)
            else:
                cached = KSet(self.semiring, members)
            self._forest = cached
        return cached

    @property
    def columns(self) -> ShreddedColumns:
        """The document's rows: the blocks in order, each block's ids offset.

        Equal to ``ShreddedColumns.from_forest(self.forest())``: shredding a
        forest emits its members' one-member shreds in canonical order, ids
        numbered on.  Assembled on first use and cached for this version.
        """
        cached = self._columns
        if cached is None:
            pid: List[Any] = []
            nid: List[Any] = []
            label: List[str] = []
            annot: List[Any] = []
            base = 1  # the global id of the next block's root
            for block in self.blocks:
                count = len(block)
                pid.append(ROOT_PID)
                pid.extend([parent + base for parent in block.parents[1:]])
                nid.extend(range(base, base + count))
                label.extend(block.labels)
                annot.extend(block.annots)
                base += count
            cached = self._columns = ShreddedColumns(
                self.semiring, tuple(pid), tuple(nid), tuple(label), tuple(annot)
            )
        return cached

    def node_count(self) -> int:
        return self._nodes

    # ------------------------------------------------------------- navigation
    def navigate(self, steps: Sequence[Step], use_cache: bool = True) -> KSet:
        """Evaluate a downward step chain against the indexes.

        The result is exactly the paper's navigation semantics (direct, NRC
        and Datalog agree on it): a K-set of the matched nodes' subtrees,
        each annotated with the sum over witnessing paths of the path
        products.  An empty chain returns the whole document.

        Two memos serve repeated chains, both LRU.  This version's results
        are memoized per chain (``nav_hits`` counts those hits): the
        version is immutable, so they never go stale, and an update starts
        a new version with an empty memo.  Below it, each block memoizes its
        share of a chain, and blocks outlive updates to other members, so a
        read after a write navigates only the changed members and sums the
        memoized rest.  ``use_cache=False`` bypasses both (benchmarks
        measuring the raw index path).
        """
        key = tuple(steps)
        if use_cache:
            cache = self._nav_cache
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                self.nav_hits += 1
                return cached
            self.nav_misses += 1
        fused = _fuse_steps(key)
        for step in fused:
            if step.axis not in SUPPORTED_AXES:
                raise StoreError(
                    f"axis {step.axis!r} is not servable from the structural "
                    f"indexes; supported: {SUPPORTED_AXES}"
                )
        semiring = self.semiring
        pairs: list = []
        if use_cache:
            chain_key = self._admit_chain(fused)
            for block in self.blocks:
                part = block.memo.get(chain_key)
                if part is None:
                    start = len(pairs)
                    block.collect(fused, semiring, pairs)
                    block.memo[chain_key] = tuple(pairs[start:])
                else:
                    pairs.extend(part)
        else:
            for block in self.blocks:
                block.collect(fused, semiring, pairs)
        if semiring.ops_preserve_normal_form:
            result = KSet._accumulate_normalized(semiring, pairs)
        else:
            result = KSet(semiring, pairs)
        if use_cache:
            cache[key] = result
            if len(cache) > self.NAV_CACHE_SIZE:
                cache.popitem(last=False)
        return result

    def _admit_chain(self, fused: Sequence[Step]) -> Tuple[Tuple[str, str], ...]:
        """The chain's block-memo key, marked most recently used.

        The key is the chain's ``(axis, nodetest)`` pairs: a node test may be
        any quoted string, ``/`` included, so no text rendering of the chain
        is unambiguous.  The chain LRU is shared by every version of the
        document; evicting a chain drops it from every live block's memo, so
        no block keeps more than ``NAV_CACHE_SIZE`` results.
        """
        chain_key = tuple((step.axis, step.nodetest) for step in fused)
        chains = self._chains
        if chain_key in chains:
            chains.move_to_end(chain_key)
        else:
            chains[chain_key] = None
            if len(chains) > self.NAV_CACHE_SIZE:
                evicted, _ = chains.popitem(last=False)
                for block in self.blocks:
                    block.memo.pop(evicted, None)
        return chain_key

    # ------------------------------------------------------------- statistics
    def count_label(self, label: str) -> int:
        """How many nodes carry ``label`` (one probe per block)."""
        return sum(len(block.by_label.get(label, ())) for block in self.blocks)

    def label_counts(self) -> Dict[str, int]:
        """Every label with the number of nodes carrying it."""
        counts: Dict[str, int] = {}
        for block in self.blocks:
            for label, nodes in block.by_label.items():
                counts[label] = counts.get(label, 0) + len(nodes)
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<StructuralIndex {self._nodes} nodes in {len(self.blocks)} "
            f"blocks over {self.semiring.name}>"
        )
