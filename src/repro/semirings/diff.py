"""The difference-pair (ring-completion) construction ``Diff(K)``.

Commutative semirings have no additive inverses, yet incremental view
maintenance (:mod:`repro.ivm`) needs to talk about *removing* annotations: a
document update that deletes or re-annotates a member is the formal difference
of what is added and what is taken away.  The classical fix is the first half
of the Grothendieck ring-completion: work with **pairs** ``(pos, neg)`` read
as the formal difference ``pos - neg``, with

* ``(a, b) + (c, d) = (a + c, b + d)``,
* ``(a, b) * (c, d) = (a*c + b*d, a*d + b*c)``  (signs multiply),
* ``0 = (0, 0)`` and ``1 = (1, 0)``.

These pairwise operations make ``Diff(K)`` a commutative semiring for *every*
commutative semiring ``K`` (it is the group algebra ``K[Z/2]``), so the whole
K-set / NRC_K / compiled-evaluation machinery — which is parameterized by the
semiring — runs over ``Diff(K)`` unchanged.  IVM uses the pairs as the
payload of a delta (and of its WAL record) and evaluates the two parts
separately in ``K`` (:mod:`repro.ivm.view`).

Equality is **pairwise**, not difference-equivalence: ``(a + c, c)`` and
``(a, 0)`` are distinct elements.  Deciding difference-equivalence requires
cancellative addition, which not every ``K`` has; collapsing a pair back into
``K`` is therefore a separate, partial operation (:meth:`DiffSemiring.lower`)
that succeeds exactly when the base semiring supports exact subtraction
(:attr:`~repro.semirings.base.Semiring.supports_subtraction`) or the negative
part is zero.  The lift ``k -> (k, 0)`` (:meth:`DiffSemiring.lift`) is a
semiring homomorphism and ``lower(lift(k)) == k``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import SemiringError
from repro.semirings.base import Semiring

__all__ = ["DiffPair", "DiffSemiring", "diff_of"]


class DiffPair:
    """An element of ``Diff(K)``: the formal difference ``pos - neg``."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: Any, neg: Any):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffPair):
            return NotImplemented
        return self.pos == other.pos and self.neg == other.neg

    def __hash__(self) -> int:
        return hash((DiffPair, self.pos, self.neg))

    def __repr__(self) -> str:
        return f"DiffPair({self.pos!r}, {self.neg!r})"

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover - safety
        raise AttributeError("DiffPair instances are immutable")

    def __reduce__(self):
        # The immutability guard breaks pickle's default slot-state restore
        # (needed to carry Diff(K)-annotated values into the store's durable
        # formats).
        return (DiffPair, (self.pos, self.neg))


class DiffSemiring(Semiring):
    """``Diff(K)``: pairs over a base semiring with difference semantics.

    Base elements are accepted wherever a ``Diff(K)`` element is expected and
    are normalized to their lift ``(k, 0)`` — so scalar constants embedded in
    a query plan compiled over ``K`` work unchanged when the plan is
    re-compiled over ``Diff(K)``.
    """

    def __init__(self, base: Semiring):
        if isinstance(base, DiffSemiring):
            raise SemiringError("Diff(Diff(K)) is not supported; use Diff(K) directly")
        self.base = base
        self.name = f"diff({base.name})"
        # (a,b) + (a,b) = (a+a, b+b), so +-idempotence transfers from the base;
        # *-idempotence does not: in Diff(B), (0,1)^2 = (1,0) != (0,1).
        self.idempotent_add = base.idempotent_add
        self.idempotent_mul = False
        self.ops_preserve_normal_form = base.ops_preserve_normal_form
        self._zero = DiffPair(base.normalize(base.zero), base.normalize(base.zero))
        self._one = DiffPair(base.normalize(base.one), base.normalize(base.zero))

    # ------------------------------------------------------------------ core
    @property
    def zero(self) -> DiffPair:
        return self._zero

    @property
    def one(self) -> DiffPair:
        return self._one

    def add(self, a: DiffPair, b: DiffPair) -> DiffPair:
        base = self.base
        return DiffPair(base.add(a.pos, b.pos), base.add(a.neg, b.neg))

    def mul(self, a: DiffPair, b: DiffPair) -> DiffPair:
        base = self.base
        return DiffPair(
            base.add(base.mul(a.pos, b.pos), base.mul(a.neg, b.neg)),
            base.add(base.mul(a.pos, b.neg), base.mul(a.neg, b.pos)),
        )

    def is_valid(self, a: Any) -> bool:
        if isinstance(a, DiffPair):
            return self.base.is_valid(a.pos) and self.base.is_valid(a.neg)
        return self.base.is_valid(a)

    def normalize(self, a: Any) -> DiffPair:
        if isinstance(a, DiffPair):
            return DiffPair(self.base.normalize(a.pos), self.base.normalize(a.neg))
        return DiffPair(self.base.normalize(a), self._zero.neg)

    # ------------------------------------------------------------ lift/lower
    def lift(self, k: Any) -> DiffPair:
        """The canonical (homomorphic) embedding ``k -> (k, 0)`` of the base."""
        return DiffPair(self.base.coerce(k), self._zero.neg)

    def is_lifted(self, a: DiffPair) -> bool:
        """True if ``a`` has no negative part (it is the lift of ``a.pos``)."""
        return self.base.is_zero(a.neg)

    def lower(self, a: DiffPair) -> Any:
        """Collapse a pair back into the base semiring: ``pos - neg``.

        Exact and partial: succeeds when ``neg`` is zero or the base supports
        exact subtraction, raises :class:`SemiringError` otherwise.
        """
        if self.base.is_zero(a.neg):
            return self.base.normalize(a.pos)
        return self.base.subtract(a.pos, a.neg)

    def negate(self, a: DiffPair) -> DiffPair:
        """The additive inverse up to difference-equivalence: swap the parts."""
        return DiffPair(a.neg, a.pos)

    # -------------------------------------------------------------- metadata
    def repr_element(self, a: DiffPair) -> str:
        if isinstance(a, DiffPair) and self.base.is_zero(a.neg):
            return self.base.repr_element(a.pos)
        return f"{self.base.repr_element(a.pos)} (-) {self.base.repr_element(a.neg)}"

    def parse_element(self, text: str) -> DiffPair:
        """Parse a base element and lift it (deltas are written in base form)."""
        return self.lift(self.base.parse_element(text))

    def sample_elements(self) -> Sequence[DiffPair]:
        base_samples = list(self.base.sample_elements())[:3]
        samples = [self._zero, self._one]
        samples.extend(DiffPair(value, self._zero.neg) for value in base_samples)
        samples.extend(
            DiffPair(a, b) for a in base_samples[:2] for b in base_samples[:2]
        )
        # Deduplicate while keeping order (zero/one often recur in the lifts).
        unique: list[DiffPair] = []
        for sample in samples:
            normalized = self.normalize(sample)
            if normalized not in unique:
                unique.append(normalized)
        return unique

    # ------------------------------------------------------------------ misc
    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiffSemiring) and self.base == other.base

    def __hash__(self) -> int:
        return hash((DiffSemiring, self.base))


_DIFF_CACHE: dict[Semiring, DiffSemiring] = {}


def diff_of(semiring: Semiring) -> DiffSemiring:
    """The (interned) difference semiring over ``semiring``.

    Interning keeps one ``Diff(K)`` instance per base, so K-sets produced by
    different delta computations over the same base combine without the
    cross-semiring guard re-checking structural equality every time.
    """
    if isinstance(semiring, DiffSemiring):
        return semiring
    cached = _DIFF_CACHE.get(semiring)
    if cached is None:
        cached = _DIFF_CACHE[semiring] = DiffSemiring(semiring)
    return cached
