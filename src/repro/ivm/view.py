"""Materialized K-annotated views with exact incremental maintenance.

A :class:`MaterializedView` pairs a :class:`~repro.uxquery.engine.PreparedQuery`
with a document, caches the evaluated K-set result, and keeps it **exactly**
equal to re-evaluation as the document changes:

* :meth:`MaterializedView.apply` takes a :class:`~repro.ivm.delta.Delta`,
  updates the document, and maintains the result through the one delta plan
  compiled over ``K`` (:mod:`repro.ivm.derive`) when it applies, and
  **recomputes** otherwise.  A delta that deletes or re-annotates is split
  into insertions ``d+`` and removals ``d-`` (the counting algorithm): with
  ``U = D + d+ = D'' + d-``, the result gains ``g(d+; old=D, new=U)`` and
  then loses ``g(d-; old=D'', new=U)`` by exact subtraction.  Insertions go
  first, so a change that removes more of a member than it holds but adds
  it back first stays incremental.  Either way the post-state equals
  evaluating the query on the updated document, for every semiring,
  including the non-idempotent ones where a sloppy merge would corrupt
  multiplicities.
* :meth:`MaterializedView.apply_many` maintains a stream of insert-only
  deltas on a linear plan with **one** run of the delta plan, over the sum
  of their insertions: a linear delta plan is additive in the delta.  Like
  :meth:`apply`, it is one user call and writes one ``ivm.apply``
  query-log record.
* Freshness is observable: :meth:`MaterializedView.stats` counts applies,
  incremental vs recomputed maintenance, refreshes and batched deltas, the
  way the plan cache exposes hits and misses.

Recompute fallback triggers (the *delta-plan contract*):

1. the plan is :data:`~repro.ivm.derive.NON_INCREMENTAL` (non-forest result,
   or the document flows into a value constructor);
2. the delta deletes or re-annotates and the semiring has no exact
   subtraction (``supports_subtraction`` is ``False``), so removal weights
   cannot be cancelled out of the cached result.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple

from repro.errors import IVMError
from repro.kcollections.kset import KSet
from repro.obs.events import emit
from repro.obs.metrics import default_registry
from repro.obs.qlog import observe
from repro.ivm.delta import Delta, apply_sequence, combine_change
from repro.ivm.derive import LINEAR, NON_INCREMENTAL, DeltaPlan
from repro.uxquery.engine import PreparedQuery

__all__ = ["ViewStats", "MaterializedView"]

#: Process-wide maintenance counters aggregated across every view, published
#: into ``repro metrics``.  Per-view counts stay on the instance
#: (:meth:`MaterializedView.stats` is the thin per-view read).
_VIEW_EVENTS = default_registry().counter(
    "repro_view_maintenance_total",
    "Materialized-view maintenance events by kind "
    "(applies / incremental / recomputes / refreshes / batched)",
)


class ViewStats(NamedTuple):
    """A snapshot of a view's maintenance counters.

    ``applies`` counts deltas applied, ``incremental`` those maintained by
    the delta plan, and ``recomputes`` the full recomputations actually
    performed — which can be fewer than ``applies - incremental`` when
    :meth:`MaterializedView.apply_many` folds a whole non-incremental
    stream into a single recomputation.
    """

    applies: int
    incremental: int
    recomputes: int
    refreshes: int
    batched: int
    classification: str

    @property
    def incremental_rate(self) -> float:
        """Fraction of applies served by the delta plan (0.0 when unused)."""
        return self.incremental / self.applies if self.applies else 0.0


class MaterializedView:
    """A cached query result kept exactly consistent under document deltas."""

    def __init__(
        self,
        prepared: PreparedQuery,
        document: KSet,
        env: Mapping[str, Any] | None = None,
        var: str | None = None,
        result: Any = None,
    ):
        """Materialize ``prepared`` over ``document``.

        ``result``, when given, must equal evaluating ``prepared`` on
        ``document`` (the store computes it from its indexes); otherwise
        the plan is evaluated here.
        """
        if not isinstance(document, KSet):
            raise IVMError(f"materialized views need a K-set document, got {document!r}")
        if document.semiring != prepared.semiring:
            raise IVMError(
                f"document over {document.semiring.name} does not match the "
                f"prepared semiring {prepared.semiring.name}"
            )
        if var is None:
            from repro.exec.batch import infer_document_var

            var = infer_document_var(prepared)
        self.prepared = prepared
        self.var = var
        self.semiring = prepared.semiring
        self.plan = DeltaPlan(prepared, var)
        self._env = {name: value for name, value in (env or {}).items() if name != var}
        self._document = document
        self._result = (
            prepared.evaluate(self._bindings(document)) if result is None else result
        )
        self._applies = 0
        self._incremental = 0
        self._recomputes = 0
        self._refreshes = 0
        self._batched = 0

    # --------------------------------------------------------------- accessors
    @property
    def document(self) -> KSet:
        """The current document (as of the last applied delta)."""
        return self._document

    @property
    def result(self) -> Any:
        """The materialized result; always equals evaluating on :attr:`document`."""
        return self._result

    @property
    def classification(self) -> str:
        """How updates are maintained: linear / bilinear / non-incremental."""
        return self.plan.classification

    def stats(self) -> ViewStats:
        return ViewStats(
            applies=self._applies,
            incremental=self._incremental,
            recomputes=self._recomputes,
            refreshes=self._refreshes,
            batched=self._batched,
            classification=self.plan.classification,
        )

    # ------------------------------------------------------------- maintenance
    def apply(self, delta: Delta) -> Any:
        """Apply one delta; returns the (exactly maintained) new result."""
        self._check_delta(delta)
        with observe(
            "ivm.apply", self.prepared, classification=self.plan.classification
        ) as obs:
            reason = self._maintain(delta)
            if reason is None:
                obs.annotate(maintenance="incremental")
                obs.done(self._result, method="ivm-incremental")
            else:
                obs.annotate(maintenance="recompute", reason=reason)
                obs.done(self._result, method="ivm-recompute")
        return self._result

    def apply_many(self, deltas: Iterable[Delta]) -> Any:
        """Apply a stream of deltas, batching the insert-only linear case.

        When every delta is insert-only and the plan is linear, the delta
        plan reads only the delta and is additive in it, so the sum of the
        per-delta result changes is **one** run of the plan over the sum of
        the deltas' insertions, merged into the view once.  A
        non-incremental plan folds the stream into one recomputation;
        anything else maintains the view delta by delta, as :meth:`apply`
        does.  The whole call is one ``ivm.apply`` scope, so it writes one
        query-log record and one span, whose ``method`` and
        ``maintenance`` say ``recompute`` if any recomputation ran.
        """
        deltas = list(deltas)
        for delta in deltas:
            self._check_delta(delta)
        if not deltas:
            return self._result
        plan = self.plan
        batchable = (
            len(deltas) > 1
            and plan.classification == LINEAR
            and plan.delta_var in plan.compiled.free_variables
            and all(delta.is_insert_only() for delta in deltas)
        )
        recomputes = self._recomputes
        with observe(
            "ivm.apply", self.prepared,
            classification=plan.classification, deltas=len(deltas),
        ) as obs:
            if plan.classification == NON_INCREMENTAL:
                # Intermediate results are never observed, so fold the whole
                # stream into the document and pay for one recomputation.
                obs.annotate(maintenance="recompute")
                document = apply_sequence(self._document, deltas)
                self._applies += len(deltas)
                self._recomputes += 1
                _VIEW_EVENTS.inc(len(deltas), kind="applies")
                _VIEW_EVENTS.inc(kind="recomputes")
                emit("ivm.recompute", reason="non-incremental plan",
                     classification=NON_INCREMENTAL, deltas=len(deltas))
                self._document = document
                self._result = self.prepared.evaluate(self._bindings(document))
            elif batchable:
                from repro.exec.batch import merge_ksets

                obs.annotate(maintenance="incremental-batch")
                document = apply_sequence(self._document, deltas)
                insertions = merge_ksets(
                    [delta.insertions() for delta in deltas], self.semiring
                )
                change = plan.evaluate_insertions(
                    insertions, self._document, document, self._env
                )
                self._applies += len(deltas)
                self._incremental += len(deltas)
                self._batched += len(deltas)
                _VIEW_EVENTS.inc(len(deltas), kind="applies")
                _VIEW_EVENTS.inc(len(deltas), kind="incremental")
                _VIEW_EVENTS.inc(len(deltas), kind="batched")
                self._document = document
                self._result = self._result.union(change)
            else:
                for delta in deltas:
                    self._maintain(delta)
                obs.annotate(
                    maintenance="recompute" if self._recomputes > recomputes else "incremental"
                )
            recomputed = self._recomputes > recomputes
            obs.done(
                self._result, method="ivm-recompute" if recomputed else "ivm-incremental"
            )
        return self._result

    def refresh(self) -> Any:
        """Force a full recomputation from the current document."""
        self._refreshes += 1
        _VIEW_EVENTS.inc(kind="refreshes")
        self._result = self.prepared.evaluate(self._bindings(self._document))
        return self._result

    # ---------------------------------------------------------------- internals
    def _maintain(self, delta: Delta) -> str | None:
        """Apply one checked delta to the document and the result.

        Returns why the result was recomputed, or ``None`` when the delta
        plan maintained it.
        """
        new_document = delta.apply_to(self._document)
        # Counted only once the delta is known to be applicable: a failed
        # apply leaves the stats (and the view) untouched.
        self._applies += 1
        _VIEW_EVENTS.inc(kind="applies")
        maintained, reason = self._try_incremental(delta, new_document)
        if maintained is None:
            self._recomputes += 1
            _VIEW_EVENTS.inc(kind="recomputes")
            emit("ivm.recompute", reason=reason, classification=self.plan.classification)
            maintained = self.prepared.evaluate(self._bindings(new_document))
        else:
            self._incremental += 1
            _VIEW_EVENTS.inc(kind="incremental")
        self._document = new_document
        self._result = maintained
        return reason

    def _bindings(self, document: KSet) -> dict[str, Any]:
        bindings = dict(self._env)
        bindings[self.var] = document
        return bindings

    def _check_delta(self, delta: Delta) -> None:
        if not isinstance(delta, Delta):
            raise IVMError(f"apply expects a Delta, got {delta!r}")
        if delta.semiring != self.semiring:
            raise IVMError(
                f"delta over {delta.semiring.name} cannot maintain a view "
                f"over {self.semiring.name}"
            )

    def _try_incremental(
        self, delta: Delta, new_document: KSet
    ) -> tuple[Any | None, str | None]:
        """``(maintained result, None)``, or ``(None, reason)`` to trigger
        the recompute fallback (the reason feeds the flight recorder)."""
        plan = self.plan
        if delta.is_empty():
            return self._result, None
        if plan.classification == NON_INCREMENTAL:
            return None, "non-incremental plan"
        try:
            if delta.is_insert_only():
                change = plan.evaluate_insertions(
                    delta.insertions(), self._document, new_document, self._env
                )
                return self._result.union(change), None
            if not self.semiring.supports_subtraction:
                return None, f"{self.semiring.name} has no subtraction"
            # The counting split, insertions first: with U = D + d+ and
            # new_document = D'' = U - d-, Q(U) = Q(D) + g(d+; old=D, new=U)
            # and Q(D'') = Q(U) - g(d-; old=D'', new=U).
            insertions = delta.insertions()
            result, union = self._result, self._document
            if not insertions.is_empty():
                # U is built only when the plan reads a document.
                union = (
                    self._document.union(insertions)
                    if plan.needs_old or plan.needs_new
                    else None
                )
                result = result.union(
                    plan.evaluate_insertions(insertions, self._document, union, self._env)
                )
            removed = plan.evaluate_insertions(
                delta.deletions(), new_document, union, self._env
            )
            return self._subtract(result, removed), None
        except IVMError as error:
            return None, str(error)

    def _subtract(self, result: KSet, removed: KSet) -> KSet:
        """``result`` minus ``removed``, member by member.

        Replacement readings are *not* allowed here: a result annotation
        aggregates many members' contributions, so a removal weight that
        happens to equal the cached annotation proves nothing — only exact
        subtraction cancels it, anything else raises (and the caller
        recomputes).
        """
        semiring = self.semiring
        zero = semiring.normalize(semiring.zero)
        remaining = dict(result.items())
        for value, annotation in removed.items():
            updated = combine_change(
                semiring,
                remaining.get(value, zero),
                zero,
                annotation,
                value,
                allow_replacement=False,
            )
            if semiring.is_zero(updated):
                remaining.pop(value, None)
            else:
                remaining[value] = semiring.normalize(updated)
        if not semiring.ops_preserve_normal_form:
            return KSet(semiring, remaining)
        return KSet._from_normalized(semiring, remaining)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MaterializedView {self.plan.classification} in ${self.var} "
            f"of {self.prepared!r}: {self._applies} applies, "
            f"{self._recomputes} recomputes>"
        )
