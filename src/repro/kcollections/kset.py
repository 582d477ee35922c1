"""K-collections: finite-support functions from values to a semiring.

Section 6.2 of the paper replaces the usual set semantics of the collection
type ``{t}`` by *K-collections*: functions ``f : [[t]] -> K`` with finite
support (only finitely many values map to a non-zero annotation).  With
``K = B`` these are ordinary finite sets, with ``K = N`` they are finite bags,
and with ``K = N[X]`` every member carries a provenance polynomial.

:class:`KSet` is the central data structure of the library: the children of
every K-UXML node, every collection value of the NRC_K calculus, and every
result of a K-UXQuery is a :class:`KSet`.

The free-semimodule structure (Appendix A) is exposed as:

* :meth:`KSet.union`  — pointwise addition,
* :meth:`KSet.scale`  — scalar multiplication by an element of ``K``,
* :meth:`KSet.bind`   — the big-union operator ``U(x in e1) e2`` of the
  calculus (the monad multiplication): annotations of the outer collection
  multiply the annotations of the inner ones, and coinciding members are
  added.

Instances are immutable and hashable provided that both the member values and
the annotations are hashable; zero-annotated members are dropped on
construction so structural equality coincides with semantic equality.

Construction paths
------------------
The public constructor is *defensive*: it coerces, normalizes and zero-checks
every annotation, so arbitrary user input always yields a canonical K-set.
The algebra methods (:meth:`KSet.union`, :meth:`KSet.bind`, :meth:`KSet.scale`,
:meth:`KSet.map`, ...) instead route their results through the *trusted*
constructor :meth:`KSet._from_normalized`: their inputs are annotations taken
from existing K-sets (hence already coerced and normalized), and for every
shipped semiring ``add``/``mul`` preserve canonical form
(:attr:`~repro.semirings.base.Semiring.ops_preserve_normal_form`), so only a
cheap structural comparison against the normalized zero is needed.  Semirings
that declare ``ops_preserve_normal_form = False`` transparently fall back to
the defensive path.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Tuple

from repro.errors import SemiringError
from repro.semirings.base import Semiring

__all__ = ["KSet"]


class KSet:
    """An immutable finite-support function ``value -> K``."""

    __slots__ = ("_semiring", "_items", "_hash")

    def __init__(
        self,
        semiring: Semiring,
        items: Mapping[Any, Any] | Iterable[Tuple[Any, Any]] = (),
    ):
        """Create a K-set from ``(value, annotation)`` pairs.

        Annotations of duplicate values are summed; values whose (normalized)
        annotation is the semiring zero are dropped.
        """
        collected: dict[Any, Any] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for value, annotation in pairs:
            annotation = semiring.coerce(annotation)
            if value in collected:
                collected[value] = semiring.add(collected[value], annotation)
            else:
                collected[value] = annotation
        cleaned = {
            value: semiring.normalize(annotation)
            for value, annotation in collected.items()
            if not semiring.is_zero(annotation)
        }
        object.__setattr__(self, "_semiring", semiring)
        object.__setattr__(self, "_items", cleaned)
        object.__setattr__(self, "_hash", None)

    # ----------------------------------------------------------- constructors
    @classmethod
    def _from_normalized(cls, semiring: Semiring, items: dict[Any, Any]) -> "KSet":
        """Trusted constructor: wrap ``items`` without re-checking annotations.

        The caller guarantees that ``items`` is a fresh dict (ownership is
        transferred), that every annotation is a coerced, normalized,
        *non-zero* element of ``semiring``, and that no two keys collapse.
        All internal algebra goes through this path; external input must use
        the defensive ``KSet(...)`` constructor.
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "_semiring", semiring)
        object.__setattr__(instance, "_items", items)
        object.__setattr__(instance, "_hash", None)
        return instance

    @classmethod
    def _accumulate_normalized(
        cls, semiring: Semiring, pairs: Iterable[Tuple[Any, Any]]
    ) -> "KSet":
        """Trusted n-ary sum: merge already-normalized ``(value, annotation)`` pairs.

        Duplicate values have their annotations added; sums that collapse to
        zero are dropped.  Falls back to the defensive constructor for
        semirings whose operations do not preserve canonical form.
        """
        if not semiring.ops_preserve_normal_form:
            return cls(semiring, pairs)
        add = semiring.add
        zero = semiring.normalize(semiring.zero)
        collected: dict[Any, Any] = {}
        for value, annotation in pairs:
            if value in collected:
                total = add(collected[value], annotation)
                if total == zero:
                    del collected[value]
                else:
                    collected[value] = total
            else:
                collected[value] = annotation
        return cls._from_normalized(semiring, collected)

    @classmethod
    def empty(cls, semiring: Semiring) -> "KSet":
        """The empty K-collection ``{}``."""
        return cls._from_normalized(semiring, {})

    @classmethod
    def singleton(cls, semiring: Semiring, value: Any, annotation: Any | None = None) -> "KSet":
        """The singleton ``{value}`` with the given annotation (default ``1``)."""
        if annotation is None:
            one = semiring.normalize(semiring.one)
            if semiring.is_zero(one):  # the trivial semiring: {} == {v^0}
                return cls._from_normalized(semiring, {})
            return cls._from_normalized(semiring, {value: one})
        return cls(semiring, [(value, annotation)])

    @classmethod
    def from_values(cls, semiring: Semiring, values: Iterable[Any]) -> "KSet":
        """A K-set in which each listed value is annotated with ``1`` (duplicates add)."""
        return cls(semiring, [(value, semiring.one) for value in values])

    # ------------------------------------------------------------- accessors
    @property
    def semiring(self) -> Semiring:
        """The annotation semiring of this collection."""
        return self._semiring

    def annotation(self, value: Any) -> Any:
        """The annotation of ``value`` (the semiring zero if absent)."""
        return self._items.get(value, self._semiring.zero)

    def support(self) -> frozenset:
        """The set of values with a non-zero annotation."""
        return frozenset(self._items)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate over ``(value, annotation)`` pairs."""
        return iter(self._items.items())

    def values(self) -> Iterator[Any]:
        """Iterate over the member values (the support)."""
        return iter(self._items)

    def annotations(self) -> Iterator[Any]:
        """Iterate over the annotations of the members."""
        return iter(self._items.values())

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __contains__(self, value: Any) -> bool:
        return value in self._items

    def __len__(self) -> int:
        """The size of the support."""
        return len(self._items)

    def is_empty(self) -> bool:
        return not self._items

    def total_annotation(self) -> Any:
        """The sum of all annotations (e.g. the total multiplicity for ``K = N``)."""
        return self._semiring.sum(self._items.values())

    # ----------------------------------------------------- semimodule algebra
    def _require_same_semiring(self, other: "KSet") -> None:
        if self._semiring != other._semiring:
            raise SemiringError(
                f"cannot combine K-sets over different semirings "
                f"({self._semiring.name} vs {other._semiring.name})"
            )

    def union(self, other: "KSet") -> "KSet":
        """Pointwise addition of annotations (the K-set union ``e1 U e2``)."""
        self._require_same_semiring(other)
        if not other._items:
            return self
        if not self._items:
            return other
        semiring = self._semiring
        if not semiring.ops_preserve_normal_form:
            merged = dict(self._items)
            for value, annotation in other._items.items():
                if value in merged:
                    merged[value] = semiring.add(merged[value], annotation)
                else:
                    merged[value] = annotation
            return KSet(semiring, merged)
        # Fast path: both operands carry normalized non-zero annotations, so
        # only colliding values need an addition and a zero check.
        add = semiring.add
        zero = semiring.normalize(semiring.zero)
        merged = dict(self._items)
        for value, annotation in other._items.items():
            if value in merged:
                total = add(merged[value], annotation)
                if total == zero:
                    del merged[value]
                else:
                    merged[value] = total
            else:
                merged[value] = annotation
        return KSet._from_normalized(semiring, merged)

    def __or__(self, other: "KSet") -> "KSet":
        return self.union(other)

    def scale(self, scalar: Any) -> "KSet":
        """Multiply every annotation by ``scalar`` (scalar multiplication ``k e``)."""
        semiring = self._semiring
        scalar = semiring.coerce(scalar)
        if semiring.is_zero(scalar):
            return KSet.empty(semiring)
        if semiring.is_one(scalar):
            return self
        if not semiring.ops_preserve_normal_form:
            return KSet(
                semiring,
                [(value, semiring.mul(scalar, annotation)) for value, annotation in self._items.items()],
            )
        mul = semiring.mul
        zero = semiring.normalize(semiring.zero)
        scaled: dict[Any, Any] = {}
        for value, annotation in self._items.items():
            product = mul(scalar, annotation)
            if product != zero:  # e.g. lattice meets can annihilate
                scaled[value] = product
        return KSet._from_normalized(semiring, scaled)

    def bind(self, fn: Callable[[Any], "KSet"]) -> "KSet":
        """The big-union operator: ``U(x in self) fn(x)``.

        For each member ``x`` with annotation ``k``, the collection ``fn(x)``
        is scaled by ``k``; the scaled collections are then summed pointwise.
        This is exactly the semantics of ``U(x in e1) e2`` in Figure 8.
        """
        semiring = self._semiring
        fast = semiring.ops_preserve_normal_form
        add, mul = semiring.add, semiring.mul
        one = semiring.normalize(semiring.one)
        zero = semiring.normalize(semiring.zero)
        accumulated: dict[Any, Any] = {}
        for value, outer_annotation in self._items.items():
            inner = fn(value)
            if not isinstance(inner, KSet):
                raise SemiringError("bind expects the function to return a KSet")
            self._require_same_semiring(inner)
            outer_is_one = fast and outer_annotation == one
            for inner_value, inner_annotation in inner._items.items():
                contribution = (
                    inner_annotation if outer_is_one else mul(outer_annotation, inner_annotation)
                )
                if inner_value in accumulated:
                    accumulated[inner_value] = add(accumulated[inner_value], contribution)
                else:
                    accumulated[inner_value] = contribution
        if not fast:
            return KSet(semiring, accumulated)
        cleaned = {value: annotation for value, annotation in accumulated.items() if annotation != zero}
        return KSet._from_normalized(semiring, cleaned)

    def map(self, fn: Callable[[Any], Any]) -> "KSet":
        """Apply ``fn`` to every member, summing annotations of collapsing members."""
        return KSet._accumulate_normalized(
            self._semiring,
            ((fn(value), annotation) for value, annotation in self._items.items()),
        )

    def filter(self, predicate: Callable[[Any], bool]) -> "KSet":
        """Keep only the members satisfying ``predicate``."""
        kept = {value: annotation for value, annotation in self._items.items() if predicate(value)}
        return KSet._from_normalized(self._semiring, kept)

    def flatten(self) -> "KSet":
        """Flatten a K-set of K-sets (the paper's ``flatten W = U(w in W) w``)."""
        return self.bind(lambda inner: inner)

    def product(self, other: "KSet", combine: Callable[[Any, Any], Any] = lambda a, b: (a, b)) -> "KSet":
        """The annotated cartesian product ``R x S`` (annotations multiply)."""
        self._require_same_semiring(other)
        return self.bind(lambda a: other.map(lambda b: combine(a, b)))

    # --------------------------------------------------- annotation rewriting
    def map_annotations(
        self,
        fn: Callable[[Any], Any],
        target: Semiring | None = None,
        value_fn: Callable[[Any], Any] | None = None,
    ) -> "KSet":
        """Apply ``fn`` to every annotation (and optionally ``value_fn`` to values).

        This is the shallow lifting of a semiring homomorphism to one K-set;
        deep lifting through nested values (trees, pairs, nested sets) is done
        by :func:`repro.nrc.values.map_value_annotations` and
        :func:`repro.uxml.tree.map_tree_annotations`, which recurse using this
        method.
        """
        semiring = target if target is not None else self._semiring
        value_fn = value_fn or (lambda value: value)
        return KSet(
            semiring,
            [(value_fn(value), fn(annotation)) for value, annotation in self._items.items()],
        )

    def restrict(self, values: Iterable[Any]) -> "KSet":
        """Keep only the listed values (with their current annotations)."""
        wanted = values if isinstance(values, (set, frozenset)) else set(values)
        kept = {value: annotation for value, annotation in self._items.items() if value in wanted}
        return KSet._from_normalized(self._semiring, kept)

    # ------------------------------------------------------------- comparison
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KSet):
            return NotImplemented
        return self._semiring == other._semiring and self._items == other._items

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self._semiring, frozenset(self._items.items())))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ---------------------------------------------------------------- display
    def __repr__(self) -> str:
        inner = ", ".join(
            f"{value!r}^{self._semiring.repr_element(annotation)}"
            for value, annotation in sorted(self._items.items(), key=lambda kv: repr(kv[0]))
        )
        return "KSet{" + inner + "}"

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover - safety
        raise AttributeError("KSet instances are immutable")

    def __reduce__(self):
        # The immutability guard above breaks pickle's default slot-state
        # restore (needed by the store's WAL and snapshot value codec).
        # The pickled items are canonical by construction, so restoring can
        # take the trusted path instead of re-normalizing every annotation.
        return (_unpickle_kset, (self._semiring, list(self._items.items())))


def _unpickle_kset(semiring: Semiring, items: list) -> KSet:
    return KSet._from_normalized(semiring, dict(items))
