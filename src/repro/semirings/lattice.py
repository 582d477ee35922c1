"""Distributive-lattice semirings.

Every bounded distributive lattice ``(L, join, meet, bottom, top)`` is a
commutative semiring ``(L, join, meet, bottom, top)`` in which both operations
are idempotent and absorption holds.  Section 4 of the paper generalizes the
total-order clearance example to arbitrary distributive lattices, and
Proposition 3 states that UXQueries that are equivalent on ordinary UXML remain
equivalent on K-annotated UXML whenever ``K`` is a distributive lattice.

We ship two concrete, finite, easily-enumerable distributive lattices that the
tests and the Proposition 3 benchmark use:

* :class:`SubsetLatticeSemiring` — subsets of a finite universe under
  union / intersection;
* :class:`DivisorLatticeSemiring` — divisors of a square-free integer under
  lcm / gcd.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

from repro.errors import AnnotationError
from repro.semirings.base import Semiring

__all__ = [
    "LatticeSemiring",
    "SubsetLatticeSemiring",
    "DivisorLatticeSemiring",
]


class LatticeSemiring(Semiring):
    """A bounded distributive lattice presented by its join/meet operations.

    Addition is the lattice join and multiplication the meet; the bottom
    element is the semiring zero and the top element the one.  (The clearance
    semiring of :mod:`repro.semirings.security` is the order-dual convention:
    there "addition picks the more public level"; here addition picks the
    join.  Both are distributive-lattice semirings.)
    """

    idempotent_add = True
    idempotent_mul = True

    def __init__(
        self,
        join: Callable[[Any, Any], Any],
        meet: Callable[[Any, Any], Any],
        bottom: Any,
        top: Any,
        contains: Callable[[Any], bool],
        name: str = "lattice",
        samples: Sequence[Any] = (),
    ):
        self.name = name
        self._join = join
        self._meet = meet
        self._bottom = bottom
        self._top = top
        self._contains = contains
        self._samples = list(samples) or [bottom, top]

    @property
    def zero(self) -> Any:
        return self._bottom

    @property
    def one(self) -> Any:
        return self._top

    def add(self, a: Any, b: Any) -> Any:
        return self._join(a, b)

    def mul(self, a: Any, b: Any) -> Any:
        return self._meet(a, b)

    def is_valid(self, a: Any) -> bool:
        return self._contains(a)

    def leq(self, a: Any, b: Any) -> bool:
        """Lattice order: ``a <= b`` iff ``a join b == b``."""
        return self.eq(self.add(a, b), b)

    def sample_elements(self) -> Sequence[Any]:
        return list(self._samples)


class SubsetLatticeSemiring(LatticeSemiring):
    """Subsets of a finite universe: ``(P(U), union, intersection, {}, U)``.

    A natural reading for access control: annotate each item with the set of
    roles allowed to see it; joint use intersects the allowed roles, and
    alternative derivations union them.
    """

    def __init__(self, universe: Iterable[str], name: str = "subset-lattice"):
        frozen_universe = frozenset(universe)
        if not frozen_universe:
            raise AnnotationError("the subset lattice needs a non-empty universe")
        elements = sorted(frozen_universe)
        samples = [
            frozenset(),
            frozen_universe,
            frozenset(elements[:1]),
            frozenset(elements[-1:]),
            frozenset(elements[: max(1, len(elements) // 2)]),
        ]
        super().__init__(
            join=lambda a, b: a | b,
            meet=lambda a, b: a & b,
            bottom=frozenset(),
            top=frozen_universe,
            contains=lambda a: isinstance(a, frozenset) and a <= frozen_universe,
            name=name,
            samples=samples,
        )
        self._universe = frozen_universe

    @property
    def universe(self) -> frozenset[str]:
        return self._universe

    def __reduce__(self):
        # The lattice operations are closures, which pickle cannot serialize;
        # rebuilding from the universe restores an equal instance (needed to
        # carry lattice-annotated values into durable stores).
        return (SubsetLatticeSemiring, (self._universe, self.name))

    def parse_element(self, text: str) -> frozenset[str]:
        stripped = text.strip()
        if stripped in ("{}", ""):
            return frozenset()
        stripped = stripped.strip("{}")
        members = frozenset(part.strip() for part in stripped.split(",") if part.strip())
        if not members <= self._universe:
            raise ValueError(f"{members - self._universe} not in the lattice universe")
        return members

    def repr_element(self, a: frozenset[str]) -> str:
        return "{" + ",".join(sorted(a)) + "}"


class DivisorLatticeSemiring(LatticeSemiring):
    """Divisors of a square-free integer ``n`` under lcm (join) and gcd (meet).

    For square-free ``n`` this lattice is distributive (it is isomorphic to the
    subset lattice of the prime factors of ``n``), which makes it a compact
    test case for Proposition 3.
    """

    def __init__(self, n: int, name: str = "divisor-lattice"):
        if n < 1:
            raise AnnotationError("the divisor lattice requires a positive integer")
        if not self._square_free(n):
            raise AnnotationError(
                f"{n} is not square-free; the divisor lattice would not be distributive"
            )
        divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
        super().__init__(
            join=lambda a, b: a * b // math.gcd(a, b),
            meet=math.gcd,
            bottom=1,
            top=n,
            contains=lambda a: isinstance(a, int) and not isinstance(a, bool) and a >= 1 and n % a == 0,
            name=name,
            samples=divisors,
        )
        self._n = n
        self._divisors = tuple(divisors)

    @staticmethod
    def _square_free(n: int) -> bool:
        factor = 2
        remaining = n
        while factor * factor <= remaining:
            if remaining % (factor * factor) == 0:
                return False
            if remaining % factor == 0:
                remaining //= factor
            else:
                factor += 1
        return True

    @property
    def modulus(self) -> int:
        return self._n

    @property
    def divisors(self) -> tuple[int, ...]:
        return self._divisors

    def __reduce__(self):
        # See SubsetLatticeSemiring.__reduce__: closures block default pickling.
        return (DivisorLatticeSemiring, (self._n, self.name))

    def parse_element(self, text: str) -> int:
        value = int(text.strip())
        if not self.is_valid(value):
            raise ValueError(f"{value} is not a divisor of {self._n}")
        return value
