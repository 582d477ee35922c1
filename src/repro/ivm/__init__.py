"""repro.ivm — incremental view maintenance over the execution layer.

The paper's central move — annotating data with semiring elements so that
query results are objects of a *semimodule* — pays off operationally here:
because the semantics is algebraic, the effect of a document change on a
materialized query result can be **computed**, compositionally and exactly,
instead of re-evaluated from scratch.

Three cooperating pieces
------------------------
* :mod:`repro.ivm.delta` — :class:`Delta`, annotated top-level changes to a
  document forest (insert / delete / re-annotate), carried as difference
  pairs ``(pos, neg)`` (:class:`~repro.semirings.diff.DiffPair`) and split
  into plain K-sets of insertions and deletions for evaluation.
* :mod:`repro.ivm.derive` — :class:`DeltaPlan`, the derivative of a prepared
  query plan with respect to the document variable: classified
  :data:`~repro.ivm.derive.LINEAR` (reads only the delta),
  :data:`~repro.ivm.derive.BILINEAR` (also reads the old/new document — the
  self-join shapes) or :data:`~repro.ivm.derive.NON_INCREMENTAL`
  (recompute), and compiled once over ``K`` like every other plan.
* :mod:`repro.ivm.view` — :class:`MaterializedView`, a cached K-set result
  plus :meth:`~MaterializedView.apply`: exact maintenance with recompute
  fallback (deletions by the counting split over semirings with exact
  subtraction), insert-only streams on linear plans as one delta-plan run
  over the sum of their insertions, and hit/miss-style freshness stats.

Entry points
------------
``PreparedQuery.materialize(document)`` builds a view from a plan you hold;
:func:`materialize` is the stateless-caller form — query *text* in, view
out — which compiles through the process-wide plan cache
(:mod:`repro.exec.plan_cache`), so a service materializing many views of the
same query compiles it once.  The CLI ``maintain`` subcommand replays an
update script against a view and reports maintain-vs-recompute timings.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import IVMError
from repro.ivm.delta import Delta
from repro.ivm.derive import (
    BILINEAR,
    CLASSIFICATIONS,
    LINEAR,
    NON_INCREMENTAL,
    DeltaPlan,
    derive_delta,
)
from repro.ivm.view import MaterializedView, ViewStats
from repro.kcollections.kset import KSet
from repro.semirings.base import Semiring

__all__ = [
    "IVMError",
    "Delta",
    "DeltaPlan",
    "MaterializedView",
    "ViewStats",
    "materialize",
    "derive_delta",
    "LINEAR",
    "BILINEAR",
    "NON_INCREMENTAL",
    "CLASSIFICATIONS",
]


def materialize(
    query: str,
    semiring: Semiring,
    document: KSet,
    env: Mapping[str, Any] | None = None,
    var: str = "S",
    cache: Any | None = None,
) -> MaterializedView:
    """Materialize a query given as *text*, compiling through the plan cache.

    The stateless-caller counterpart of
    :meth:`~repro.uxquery.engine.PreparedQuery.materialize`: the plan is
    fetched from ``cache`` (default: the process-wide
    :func:`~repro.exec.plan_cache.default_plan_cache`), so repeated
    materializations of the same query text share one compilation.
    """
    from repro.exec.plan_cache import default_plan_cache
    from repro.uxquery.engine import env_types_of

    if cache is None:
        cache = default_plan_cache()
    bindings = dict(env) if env else {}
    bindings[var] = document
    prepared = cache.get(query, semiring, env_types=env_types_of(bindings))
    return MaterializedView(prepared, document, env=env, var=var)
