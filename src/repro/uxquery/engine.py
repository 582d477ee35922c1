"""High-level K-UXQuery engine: parse, normalize, typecheck, compile, evaluate.

This is the main entry point of the library::

    from repro.semirings import PROVENANCE
    from repro.uxquery import evaluate_query

    answer = evaluate_query("element p { $S/*/* }", PROVENANCE, {"S": source})

Four evaluation methods are available and agree on every query (the
test-suite checks this):

* ``method="nrc-codegen"`` (default) — the paper's semantics at full speed:
  compile into NRC_K + srt (Section 6.3), simplify with the Appendix A
  axioms, and run the *source-generated* program (:mod:`repro.nrc.codegen`):
  the straight-line fragment is printed as specialized Python source — bind
  chains fused into nested loops, semiring operations inlined — and
  byte-compiled once, on first use.  When generation declines (``srt``
  recursion, non-canonical semirings), this method **transparently falls
  back** to the closure-compiled form, so it is always safe;
* ``method="nrc"`` — the closure-compiled form
  (:mod:`repro.nrc.compile_eval`) unconditionally: one AST walk emits a tree
  of Python closures with slot-based frames and pre-bound semiring ops.
  The fallback target of ``nrc-codegen`` and the production evaluator for
  recursive (``srt``) plans;
* ``method="nrc-interp"`` — the *unsimplified* NRC_K + srt compilation output
  run by the reference Figure 8 interpreter (:mod:`repro.nrc.eval`).  Kept as
  the executable specification and as the baseline of the performance suite;
  because it evaluates the pre-simplification program, agreement between the
  methods also validates the Appendix A simplifier;
* ``method="direct"`` — an independent structural interpreter over K-UXML.

The three-evaluator equivalence contract — ``nrc-interp == nrc ==
nrc-codegen`` on every expression, every registry semiring — is checked by
the equivalence corpus and the differential fuzz suite in ``tests/nrc/``.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from time import perf_counter as _perf
from typing import Any, Mapping

from repro.errors import UXQueryEvalError
from repro.kcollections.kset import KSet
from repro.nrc.ast import Expr, expression_size
from repro.nrc.codegen import CodegenProgram, compile_program
from repro.nrc.compile_eval import CompiledExpr, compile_expr
from repro.nrc.eval import evaluate as evaluate_nrc
from repro.nrc.rewrite import simplify
from repro.obs.qlog import observe
from repro.obs.trace import span
from repro.resilience.limits import EvalLimits, activate
from repro.semirings.base import Semiring
from repro.uxml.tree import UTree
from repro.uxquery.ast import Query, query_size
from repro.uxquery.compile import compile_to_nrc
from repro.uxquery.direct import evaluate_direct
from repro.uxquery.normalize import normalize
from repro.uxquery.parser import parse_query
from repro.uxquery.typecheck import FOREST, LABEL, TREE, infer_type

__all__ = [
    "PreparedQuery",
    "prepare_query",
    "evaluate_query",
    "env_types_of",
    "plan_signature",
    "VALID_METHODS",
    "DEFAULT_METHOD",
    "validate_method",
]

#: The evaluation methods understood by :meth:`PreparedQuery.evaluate`.
VALID_METHODS = ("nrc-codegen", "nrc", "nrc-interp", "direct")

#: The production default: the generated program when codegen succeeded,
#: the closure-compiled form otherwise (automatic fallback, never an error).
DEFAULT_METHOD = "nrc-codegen"


def validate_method(method: str) -> str:
    """Check an evaluation-method name, raising a listing error if unknown."""
    if method not in VALID_METHODS:
        valid = ", ".join(repr(name) for name in VALID_METHODS)
        raise UXQueryEvalError(
            f"unknown evaluation method {method!r}; valid methods: {valid}"
        )
    return method


def _alpha_normalized(expr: Expr, env: Mapping[str, str], level: int) -> str:
    """Render ``expr`` with bound variables replaced by binder-depth names.

    Capture-avoiding substitution gensyms fresh names (``x#17``) from a
    process-global counter, so ``str(plan)`` depends on compilation history.
    This rendering replaces every bound name by ``%<depth>`` (free variables
    keep their names), making alpha-equivalent plans render identically.
    """
    from repro.nrc.ast import (
        BigUnion,
        EmptySet,
        IfEq,
        Kids,
        LabelLit,
        Let,
        PairExpr,
        Proj,
        Scale,
        Singleton,
        Srt,
        Tag,
        TreeExpr,
        Union,
        Var,
    )

    if isinstance(expr, Var):
        return env.get(expr.name, expr.name)
    if isinstance(expr, LabelLit):
        return repr(expr.label)
    if isinstance(expr, EmptySet):
        return "{}"
    if isinstance(expr, Singleton):
        return f"{{{_alpha_normalized(expr.expr, env, level)}}}"
    if isinstance(expr, Union):
        return (
            f"({_alpha_normalized(expr.left, env, level)} U "
            f"{_alpha_normalized(expr.right, env, level)})"
        )
    if isinstance(expr, Scale):
        return f"({expr.scalar} * {_alpha_normalized(expr.expr, env, level)})"
    if isinstance(expr, BigUnion):
        source = _alpha_normalized(expr.source, env, level)
        name = f"%{level}"
        inner = dict(env)
        inner[expr.var] = name
        return f"U({name} in {source}) {_alpha_normalized(expr.body, inner, level + 1)}"
    if isinstance(expr, IfEq):
        return (
            f"if {_alpha_normalized(expr.left, env, level)} = "
            f"{_alpha_normalized(expr.right, env, level)} then "
            f"{_alpha_normalized(expr.then, env, level)} else "
            f"{_alpha_normalized(expr.orelse, env, level)}"
        )
    if isinstance(expr, PairExpr):
        return (
            f"({_alpha_normalized(expr.first, env, level)}, "
            f"{_alpha_normalized(expr.second, env, level)})"
        )
    if isinstance(expr, Proj):
        return f"pi_{expr.index}({_alpha_normalized(expr.expr, env, level)})"
    if isinstance(expr, TreeExpr):
        return (
            f"Tree({_alpha_normalized(expr.label, env, level)}, "
            f"{_alpha_normalized(expr.kids, env, level)})"
        )
    if isinstance(expr, Tag):
        return f"tag({_alpha_normalized(expr.expr, env, level)})"
    if isinstance(expr, Kids):
        return f"kids({_alpha_normalized(expr.expr, env, level)})"
    if isinstance(expr, Srt):
        target = _alpha_normalized(expr.target, env, level)
        label_name, acc_name = f"%{level}", f"%{level + 1}"
        inner = dict(env)
        inner[expr.label_var] = label_name
        inner[expr.acc_var] = acc_name
        body = _alpha_normalized(expr.body, inner, level + 2)
        return f"(srt({label_name}, {acc_name}). {body}) {target}"
    if isinstance(expr, Let):
        value = _alpha_normalized(expr.value, env, level)
        name = f"%{level}"
        inner = dict(env)
        inner[expr.var] = name
        return f"let {name} := {value} in {_alpha_normalized(expr.body, inner, level + 1)}"
    raise TypeError(f"unknown expression node {expr!r}")


def plan_signature(
    simplified: Expr, semiring: Semiring, env_types: Mapping[str, str]
) -> str:
    """A stable fingerprint of a prepared plan.

    Hashes the *simplified* NRC form's alpha-normalized rendering (bound
    variables are renamed by binder depth, so the gensym counter's history
    cannot leak in), the semiring's registry name and the sorted env types.
    Equal plans therefore hash equally across threads, processes and runs,
    which is what lets the query log's per-signature aggregations line up
    between a capture run, its replay, and a scraped production process.
    Textually distinct spellings of one query (``$S/*`` vs ``$S/child::*``)
    normalize to the same simplified form and share a signature —
    deliberately coarser than the plan-cache key, which must never merge
    distinct texts.
    """
    payload = "\x1f".join(
        (
            f"v{1}",
            _alpha_normalized(simplified, {}, 0),
            semiring.name,
            ",".join(f"{name}={kind}" for name, kind in sorted(env_types.items())),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def env_types_of(env: Mapping[str, Any] | None) -> dict[str, str]:
    """Infer the K-UXQuery types of environment values.

    Strings are labels, :class:`UTree` values are trees and :class:`KSet`
    values are sets of trees.
    """
    types: dict[str, str] = {}
    if not env:
        return types
    for name, value in env.items():
        if isinstance(value, str):
            types[name] = LABEL
        elif isinstance(value, UTree):
            types[name] = TREE
        elif isinstance(value, KSet):
            types[name] = FOREST
        else:
            raise UXQueryEvalError(
                f"environment value for ${name} must be a label, a tree or a K-set, "
                f"got {value!r}"
            )
    return types


class PreparedQuery:
    """A parsed, normalized and typechecked K-UXQuery, compiled once on first use.

    Preparation runs the front end — parse, typecheck, normalize — so the
    core form (:attr:`core`) is ready at once.  The back end — compile to
    NRC_K + srt, simplify, compile the NRC core into closures and generated
    source — runs the first time anything reads its result (:attr:`nrc`,
    :attr:`nrc_simplified`, :attr:`signature`, :attr:`compiled`,
    :attr:`program`, :attr:`generated`, ...), once, so that
    :meth:`evaluate` only pays for evaluation after the first call.  A
    document store serving a query from its indexes reads only the core
    form, and never compiles a program it does not run.  The
    compile-once-evaluate-many contract: a prepared query is immutable and
    safe to evaluate repeatedly (and concurrently) against different
    environments, and repeated evaluations reuse the compiled closure tree
    and its memo tables.
    """

    def __init__(self, query: Query, semiring: Semiring, env_types: Mapping[str, str]):
        self.semiring = semiring
        self.env_types = dict(env_types)
        self.surface = query
        #: Wall time per prepare stage in seconds (parse is stamped by
        #: :func:`prepare_query` when it did the parsing; back-end stages
        #: when they run).  Always recorded: a handful of clock reads against
        #: whole compilation passes, and ``repro explain --analyze`` reports
        #: them after the fact.
        self.stage_timings: dict[str, float] = {}
        timings = self.stage_timings
        started = _perf()
        with span("prepare.typecheck"):
            self.result_type = infer_type(query, self.env_types)
        timings["typecheck"] = _perf() - started
        started = _perf()
        with span("prepare.normalize"):
            self.core = normalize(query, self.env_types)
        timings["normalize"] = _perf() - started
        #: ``_plan_cache_hit`` flips to True the first time a plan cache
        #: serves this plan without preparing it.
        self._plan_cache_hit = False

    # ------------------------------------------------------------- back end
    # Each stage reads the stages it depends on before starting its clock,
    # so ``stage_timings`` holds every stage's own time.
    @cached_property
    def nrc(self) -> Expr:
        """The core form compiled to NRC_K + srt (Section 6.3)."""
        started = _perf()
        with span("prepare.compile-nrc"):
            nrc = compile_to_nrc(self.core, self.semiring, self.env_types)
        self.stage_timings["compile-nrc"] = _perf() - started
        return nrc

    @cached_property
    def nrc_simplified(self) -> Expr:
        """:attr:`nrc` simplified with the Appendix A axioms."""
        nrc = self.nrc
        started = _perf()
        with span("prepare.simplify"):
            simplified = simplify(nrc, self.semiring)
        self.stage_timings["simplify"] = _perf() - started
        return simplified

    @cached_property
    def signature(self) -> str:
        """The stable plan fingerprint the query log keys on (see
        :func:`plan_signature`), reused by every evaluation record."""
        return plan_signature(self.nrc_simplified, self.semiring, self.env_types)

    @cached_property
    def compiled(self) -> CompiledExpr:
        """The closure-compiled program (``method="nrc"``)."""
        simplified = self.nrc_simplified
        started = _perf()
        with span("prepare.compile-closures"):
            compiled = compile_expr(simplified, self.semiring)
        self.stage_timings["compile-closures"] = _perf() - started
        return compiled

    @cached_property
    def _codegen(self) -> tuple:
        # The source-generated program, when the simplified form lies in the
        # straight-line codegen fragment; ``codegen_reason`` records why
        # generation declined otherwise (surfaced by ``repro explain``).
        # ``program`` is the default execution program: generated code (with
        # the closure tree as runtime foreign-collection fallback) when
        # available, the closure tree otherwise — the ``nrc-codegen``
        # fallback rule.
        simplified, compiled = self.nrc_simplified, self.compiled
        started = _perf()
        with span("prepare.codegen") as codegen_span:
            program, generated, reason = compile_program(simplified, self.semiring, compiled)
            codegen_span.annotate(generated=generated is not None, reason=reason)
        self.stage_timings["codegen"] = _perf() - started
        return program, generated, reason

    @property
    def program(self) -> CompiledExpr | CodegenProgram:
        """The default execution program: :attr:`generated`, else :attr:`compiled`."""
        return self._codegen[0]

    @property
    def generated(self) -> CodegenProgram | None:
        """The source-generated program, or ``None`` when codegen declined."""
        return self._codegen[1]

    @property
    def codegen_reason(self) -> str | None:
        """Why codegen declined, or ``None`` when it generated a program."""
        return self._codegen[2]

    # ------------------------------------------------------------ evaluation
    def evaluate(
        self,
        env: Mapping[str, Any] | None = None,
        method: str = DEFAULT_METHOD,
        *,
        limits: EvalLimits | None = None,
    ) -> Any:
        """Evaluate the prepared query in the given environment.

        To run it over many documents in one call, use
        :class:`repro.exec.batch.BatchEvaluator`.

        ``limits=`` attaches an :class:`~repro.resilience.limits.EvalLimits`
        guardrail: the deadline clock starts at this call, the evaluators
        check it cooperatively in their hot loops, and violations raise the
        typed ``QueryTimeoutError``/``BudgetExceededError`` — identically
        under every method (three-evaluator contract).
        """
        validate_method(method)
        with observe("evaluate", self, method=method, semiring=self.semiring.name) as obs:
            if limits is None or not limits.is_bounded:
                result = self._dispatch(env, method)
            else:
                guard = limits.start()
                with activate(guard):
                    result = self._dispatch(env, method)
                    guard.check_result(result)
            return obs.done(result, method=method)

    def _dispatch(self, env: Mapping[str, Any] | None, method: str) -> Any:
        # One evaluation by ``method``, with no record and no guard of its
        # own: ``evaluate`` and every document of a batch run through here.
        if method == "nrc-codegen":
            return self.program.evaluate(env)
        if method == "nrc":
            return self.compiled.evaluate(env)
        if method == "nrc-interp":
            return evaluate_nrc(self.nrc, self.semiring, dict(env) if env else {})
        return evaluate_direct(self.core, self.semiring, dict(env) if env else {})

    # ---------------------------------------------------------- materialization
    def materialize(
        self,
        document: Any,
        env: Mapping[str, Any] | None = None,
        document_var: str | None = None,
    ) -> Any:
        """Materialize this query over ``document`` as an incrementally
        maintained view (see :class:`repro.ivm.view.MaterializedView`).

        The returned view caches the evaluated result and keeps it exactly
        equal to re-evaluation as deltas are applied — through the compiled
        delta plan when the query admits one, by recomputation otherwise.
        """
        from repro.ivm.view import MaterializedView

        return MaterializedView(self, document, env=env, var=document_var)

    # --------------------------------------------------------------- metrics
    @property
    def surface_size(self) -> int:
        """Number of surface AST nodes (the ``|p|`` of Proposition 2)."""
        return query_size(self.surface)

    @property
    def nrc_size(self) -> int:
        """Number of NRC AST nodes after compilation."""
        return expression_size(self.nrc)

    @property
    def nrc_expression(self) -> Expr:
        """The compiled NRC_K + srt expression."""
        return self.nrc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PreparedQuery {str(self.surface)[:60]!r} over {self.semiring.name}>"


def prepare_query(
    query: str | Query,
    semiring: Semiring,
    env: Mapping[str, Any] | None = None,
    env_types: Mapping[str, str] | None = None,
) -> PreparedQuery:
    """Parse (if necessary) and compile a query against a semiring and environment.

    Either the environment values (``env``) or explicit variable types
    (``env_types``) may be supplied; explicit types win.
    """
    if isinstance(query, str):
        started = _perf()
        with span("prepare.parse"):
            ast = parse_query(query)
        parse_s = _perf() - started
    else:
        ast, parse_s = query, None
    types = dict(env_types) if env_types is not None else env_types_of(env)
    prepared = PreparedQuery(ast, semiring, types)
    if parse_s is not None:
        prepared.stage_timings["parse"] = parse_s
    return prepared


def evaluate_query(
    query: str | Query,
    semiring: Semiring,
    env: Mapping[str, Any] | None = None,
    method: str = DEFAULT_METHOD,
    *,
    limits: EvalLimits | None = None,
) -> Any:
    """Parse, compile and evaluate a K-UXQuery in one call.

    ``limits=`` is forwarded to :meth:`PreparedQuery.evaluate`.
    """
    prepared = prepare_query(query, semiring, env)
    return prepared.evaluate(env, method=method, limits=limits)
