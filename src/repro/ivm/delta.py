"""Annotated document deltas: the unit of change the IVM layer maintains.

A document is a K-set of trees (a forest); the semimodule structure the whole
paper is built on makes the *top-level members* of that forest the natural
granularity of change.  A :class:`Delta` records, per member tree, a
:class:`~repro.semirings.diff.DiffPair` ``(pos, neg)`` over the document's
semiring:

* **insertion** of a (possibly new) tree with annotation ``k``: ``(k, 0)`` —
  expressible for every semiring;
* **deletion** of annotation ``k`` from an existing member: ``(0, k)``;
* **re-annotation** from ``old`` to ``new``: ``(new, old)``.

Deltas over the same document compose by pairwise addition (:meth:`Delta.merge`).

Applying a delta to a document (:meth:`Delta.apply_to`) defines the updated
document exactly: for each changed tree with current annotation ``cur`` the
new annotation is ``cur + pos - neg``.  The subtraction is resolved, in order,
by (1) ``neg = 0`` — pure insertion, total for every semiring; (2) exact
subtraction when the semiring is cancellative
(:attr:`~repro.semirings.base.Semiring.supports_subtraction`); (3) the
*replacement* reading ``neg = cur`` — "remove what is there, then add
``pos``" — which needs no subtraction; (4) otherwise the delta is not
applicable and :class:`~repro.errors.IVMError` is raised.  Full-member
deletion and re-annotation therefore work for every semiring, while *partial*
deletions (reduce a multiplicity, drop one summand of a polynomial) need a
subtractive semiring — exactly the paper-level distinction between semirings
that embed in their ring completion and those that do not.

For evaluation, a delta splits into two plain K-sets over the document's
semiring: :meth:`Delta.insertions` (the positive parts) and
:meth:`Delta.deletions` (the negative parts).  A view feeds each to the one
delta plan compiled over ``K`` and adds, respectively subtracts, the
results (:mod:`repro.ivm.view`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Tuple

from repro.errors import IVMError
from repro.kcollections.kset import KSet
from repro.semirings.base import Semiring
from repro.semirings.diff import DiffPair, DiffSemiring
from repro.uxml.tree import UTree

__all__ = ["Delta", "apply_sequence", "combine_change"]


class Delta:
    """An immutable set of annotated top-level changes to one document forest."""

    __slots__ = ("_semiring", "_pairs")

    def __init__(
        self,
        semiring: Semiring,
        changes: Iterable[Tuple[UTree, Any]] = (),
    ):
        """Build a delta from ``(tree, change)`` pairs.

        Each ``change`` is either a :class:`DiffPair` (coerced component-wise)
        or a plain semiring element, read as an insertion ``(k, 0)``.  Changes
        to the same tree are added pairwise; changes whose two parts are both
        zero are dropped.
        """
        if isinstance(semiring, DiffSemiring):
            raise IVMError("deltas are built over the base semiring, not Diff(K)")
        collected: dict[UTree, DiffPair] = {}
        for tree, change in changes:
            if not isinstance(tree, UTree):
                raise IVMError(f"delta members must be UTree values, got {tree!r}")
            if isinstance(change, DiffPair):
                pair = DiffPair(semiring.coerce(change.pos), semiring.coerce(change.neg))
            else:
                pair = DiffPair(semiring.coerce(change), semiring.normalize(semiring.zero))
            current = collected.get(tree)
            if current is not None:
                pair = DiffPair(
                    semiring.add(current.pos, pair.pos),
                    semiring.add(current.neg, pair.neg),
                )
            collected[tree] = pair
        cleaned = {
            tree: pair
            for tree, pair in collected.items()
            if not (semiring.is_zero(pair.pos) and semiring.is_zero(pair.neg))
        }
        object.__setattr__(self, "_semiring", semiring)
        object.__setattr__(self, "_pairs", cleaned)

    # ------------------------------------------------------------ constructors
    @classmethod
    def insertion(cls, semiring: Semiring, tree: UTree, annotation: Any | None = None) -> "Delta":
        """Insert ``tree`` with the given annotation (default: the semiring one)."""
        value = semiring.one if annotation is None else annotation
        return cls(semiring, [(tree, value)])

    @classmethod
    def from_insertions(cls, semiring: Semiring, forest: KSet | Iterable[Tuple[UTree, Any]]) -> "Delta":
        """Insert every annotated member of ``forest``."""
        pairs = forest.items() if isinstance(forest, KSet) else forest
        return cls(semiring, pairs)

    @classmethod
    def deletion(cls, semiring: Semiring, tree: UTree, annotation: Any) -> "Delta":
        """Remove ``annotation`` worth of ``tree`` (all of it, to drop the member)."""
        zero = semiring.normalize(semiring.zero)
        return cls(semiring, [(tree, DiffPair(zero, semiring.coerce(annotation)))])

    @classmethod
    def reannotation(cls, semiring: Semiring, tree: UTree, old: Any, new: Any) -> "Delta":
        """Replace the annotation ``old`` of ``tree`` by ``new``."""
        return cls(semiring, [(tree, DiffPair(semiring.coerce(new), semiring.coerce(old)))])

    # --------------------------------------------------------------- accessors
    @property
    def semiring(self) -> Semiring:
        """The base annotation semiring (the document's, not ``Diff(K)``)."""
        return self._semiring

    def items(self) -> Iterator[Tuple[UTree, DiffPair]]:
        """Iterate over ``(tree, (pos, neg))`` changes."""
        return iter(self._pairs.items())

    def trees(self) -> Iterator[UTree]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def is_empty(self) -> bool:
        return not self._pairs

    def is_insert_only(self) -> bool:
        """True if no change has a negative part (applies in plain ``K``)."""
        is_zero = self._semiring.is_zero
        return all(is_zero(pair.neg) for pair in self._pairs.values())

    # ------------------------------------------------------------- composition
    def merge(self, other: "Delta") -> "Delta":
        """The pairwise sum of two deltas.

        Over a semiring with exact subtraction, applying the merged delta
        equals applying the two deltas one after the other, in either order.
        Without exact subtraction the *replacement* reading resolves removals
        against the annotation present at application time, so merging can
        differ from sequential application (e.g. over ``B``, insert-then-
        delete of an existing member removes it sequentially but merges to
        the pair ``(1, 1)``, which reads as replacement and keeps it) —
        merge deltas only when they touch distinct trees, or stay sequential.
        """
        if self._semiring != other._semiring:
            raise IVMError(
                f"cannot merge deltas over different semirings "
                f"({self._semiring.name} vs {other._semiring.name})"
            )
        merged = list(self._pairs.items()) + list(other._pairs.items())
        return Delta(self._semiring, merged)

    def __or__(self, other: "Delta") -> "Delta":
        return self.merge(other)

    # -------------------------------------------------------------- evaluation
    def insertions(self) -> KSet:
        """The positive parts as a plain K-set (what the delta adds)."""
        semiring = self._semiring
        return KSet(
            semiring,
            [
                (tree, pair.pos)
                for tree, pair in self._pairs.items()
                if not semiring.is_zero(pair.pos)
            ],
        )

    def deletions(self) -> KSet:
        """The negative parts as a plain K-set (what the delta takes away)."""
        semiring = self._semiring
        return KSet(
            semiring,
            [
                (tree, pair.neg)
                for tree, pair in self._pairs.items()
                if not semiring.is_zero(pair.neg)
            ],
        )

    # -------------------------------------------------------------- application
    def apply_to(self, document: KSet) -> KSet:
        """The updated document (see the module docstring for the exact rules)."""
        if not isinstance(document, KSet):
            raise IVMError(f"deltas apply to K-set forests, got {document!r}")
        if document.semiring != self._semiring:
            raise IVMError(
                f"delta over {self._semiring.name} cannot apply to a document "
                f"over {document.semiring.name}"
            )
        if not self._pairs:
            return document
        return apply_sequence(document, (self,))


def apply_sequence(document: KSet, deltas: Iterable["Delta"]) -> KSet:
    """Apply several deltas in order with **one** document copy.

    Semantically identical to folding :meth:`Delta.apply_to` (each change
    resolves against the annotations as updated by the changes before it),
    but the member dict is copied once instead of once per delta — the shape
    :meth:`~repro.ivm.view.MaterializedView.apply_many` wants for long
    streams over large documents.
    """
    deltas = list(deltas)
    if not deltas:
        return document
    semiring = document.semiring
    for delta in deltas:
        if delta.semiring != semiring:
            raise IVMError(
                f"delta over {delta.semiring.name} cannot apply to a document "
                f"over {semiring.name}"
            )
    zero = semiring.normalize(semiring.zero)
    updated = {tree: annotation for tree, annotation in document.items()}
    for delta in deltas:
        for tree, pair in delta._pairs.items():
            current = updated.get(tree, zero)
            new = combine_change(
                semiring, current, pair.pos, pair.neg, tree, allow_replacement=True
            )
            if semiring.is_zero(new):
                updated.pop(tree, None)
            else:
                updated[tree] = semiring.normalize(new)
    return _rebuild_kset(semiring, updated)


def combine_change(
    semiring: Semiring,
    current: Any,
    pos: Any,
    neg: Any,
    subject: Any,
    allow_replacement: bool,
) -> Any:
    """``current + pos - neg``: the one place the removal rules live.

    Resolution order: a zero ``neg`` is pure addition (total for every
    semiring); exact subtraction when the semiring is cancellative; then —
    only with ``allow_replacement``, i.e. when ``current`` is the *exact*
    annotation the change was issued against, as in
    :meth:`Delta.apply_to` — the replacement readings ``neg == current``
    ("remove what is there, add ``pos``") and ``neg == current + pos``
    (full removal).  Anything else raises :class:`IVMError`.
    """
    total = semiring.add(current, pos)
    if semiring.is_zero(neg):
        return total
    if semiring.supports_subtraction:
        try:
            return semiring.subtract(total, neg)
        except Exception as error:
            raise IVMError(
                f"change removes more than is present for {subject!r}: {error}"
            ) from error
    if allow_replacement:
        if semiring.eq(neg, current):
            # Replacement reading: the change removes exactly what is there.
            return pos
        if semiring.eq(neg, total):
            return semiring.zero
    raise IVMError(
        f"semiring {semiring.name} has no exact subtraction; removals must "
        f"cancel an entire annotation ({subject!r})"
    )


def _rebuild_kset(semiring: Semiring, items: dict) -> KSet:
    """A K-set from normalized, non-zero annotations (defensive when needed)."""
    if not semiring.ops_preserve_normal_form:
        return KSet(semiring, items)
    return KSet._from_normalized(semiring, items)
