"""Source-codegen evaluator for straight-line NRC_K (compile to real bytecode).

The closure-compiled evaluator (:mod:`repro.nrc.compile_eval`) resolves AST
dispatch at compile time, but every node is still an indirect Python call,
every ``add``/``mul`` a method invocation, and every binder a frame-slot
write.  For the straight-line fragment of the calculus — everything except
``srt`` structural recursion — none of that indirection is necessary: the
expression can be *printed as specialized Python source* and compiled to real
bytecode with :func:`compile`/``exec``:

* **bind chains fuse into nested ``for`` loops** over the normalized
  ``KSet._items`` dicts, accumulating contributions straight into one dict
  that the trusted :meth:`~repro.kcollections.kset.KSet._from_normalized`
  constructor wraps at the end — no intermediate collections for the inner
  levels of ``U(x in ...) U(y in ...) ...`` chains;
* **semiring operations inline** for registry semirings that declare scalar
  op templates (:attr:`~repro.semirings.base.Semiring.codegen_add` /
  ``codegen_mul``: ``+``/``*`` for ``N``, ``or``/``and`` for ``B``, tropical
  ``min``/``+``, set union for ``Why(X)``); semirings without templates get
  the pre-bound ``add``/``mul`` calls, which still beats closure dispatch;
* **annotation weights thread through the loops**: the product of the
  enclosing binder annotations is maintained incrementally (one
  multiplication per outer member instead of one per contribution), with the
  closure evaluator's ``one``-skip so all-unit documents never multiply;
* **type guards compile to class-identity checks** (``x.__class__ is not
  KSet``) that fall back to the shared ``isinstance``-based helpers — free
  when values are well-typed, identical errors when they are not.

Exactness: the generated program computes the same sums of products as the
closure evaluator, re-associated by the semiring axioms that every shipped
semiring satisfies exactly on its canonical representatives (the same premise
the Appendix A simplifier, the batch merger and the IVM delta plans already
stand on).  The differential fuzz suite (``tests/nrc/test_codegen_fuzz.py``)
and the equivalence corpus assert ``nrc-codegen == nrc == nrc-interp`` for
every registry semiring.

Coverage is *total within the straight-line fragment*: generation declines —
it never errors — with a recorded reason when the expression contains ``srt``
(the result of recursion is not a straight-line loop nest), when the semiring
does not preserve canonical forms under its operations (the trusted
constructors would be unsound), when the semiring is trivial (``1 == 0``), or
when a ``Scale`` scalar is foreign to the compile-time semiring.  Callers
(:class:`repro.uxquery.engine.PreparedQuery`, the IVM delta plans) fall back
to the closure evaluator, so ``method="nrc-codegen"`` is always safe.

Usage::

    from repro.nrc.codegen import compile_codegen

    program = compile_codegen(expr, semiring)      # raises CodegenUnsupported
    value = program.evaluate({"S": source})        # same contract as closures
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import AnnotationError, NRCEvalError, SemiringError
from repro.kcollections.kset import KSet
from repro.nrc.ast import (
    BigUnion,
    EmptySet,
    Expr,
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
from repro.nrc.compile_eval import _UNBOUND, _expect_kset, _expect_tree
from repro.nrc.values import Pair
from repro.obs.events import emit
from repro.obs.metrics import default_registry
from repro.resilience.limits import check_tick
from repro.semirings.base import Semiring
from repro.uxml.tree import UTree

__all__ = [
    "CodegenUnsupported",
    "CodegenProgram",
    "compile_codegen",
    "try_compile_codegen",
    "compile_program",
    "generate_source",
    "codegen_stats",
]


class CodegenUnsupported(Exception):
    """Raised when an expression is outside the codegen fragment.

    The message is the human-readable reason surfaced by ``repro explain``;
    callers catching it fall back to the closure evaluator.
    """


class _ForeignCollection(Exception):
    """Internal: a runtime K-set over a different semiring reached a loop.

    The closure evaluator has bespoke behavior for foreign collections
    (big unions delegate to the collection's own semiring; unions raise), so
    a generated program does not try to reproduce it inline: it bails out,
    and :meth:`CodegenProgram.evaluate` re-runs the *fallback* closure
    program — exact parity at zero cost on the same-semiring path.
    """

    def __init__(self, expected: str, actual: str):
        super().__init__(expected, actual)
        self.expected = expected
        self.actual = actual


#: Module-wide generation counters, published in the process metrics
#: registry (compilation is cold, so a lock per bump is immaterial).
_GENERATED_COUNTER = default_registry().counter(
    "repro_codegen_generated_total", "NRC programs compiled to specialized bytecode"
)
_DECLINED_COUNTER = default_registry().counter(
    "repro_codegen_declined_total",
    "NRC programs outside the codegen fragment (served by closures)",
)

#: Total evaluations served by generated code across every program.  The
#: per-program ``CodegenProgram.calls`` bumps are deliberately lock-free
#: (hot path, racy-OK), so the aggregate follows the same discipline: a
#: plain cell, published by a pull-time registry collector.
_TOTAL_CALLS = [0]


def _collect_codegen(sink: Any) -> None:
    sink.counter(
        "repro_codegen_calls_total", _TOTAL_CALLS[0],
        "Evaluations served by generated code (all programs)",
    )


default_registry().register_collector("codegen", _collect_codegen)


def codegen_stats() -> dict[str, int]:
    """A snapshot of how many programs were generated vs declined.

    A thin read of the metrics-registry counters (the canonical surface
    since the observability layer landed).
    """
    return {
        "generated": int(_GENERATED_COUNTER.value()),
        "declined": int(_DECLINED_COUNTER.value()),
    }


class CodegenProgram:
    """A straight-line NRC expression compiled to specialized Python bytecode.

    Exposes the same evaluation contract as
    :class:`~repro.nrc.compile_eval.CompiledExpr`.  ``calls`` counts the
    evaluations generated code served, one per :meth:`evaluate` (no caller
    bumps it in bulk), so every serving layer can observe that generated
    code, not closures, did the work.
    """

    __slots__ = ("expr", "semiring", "source", "_run", "_free_slots", "_num_slots",
                 "calls", "fallback", "limit_checks")

    def __init__(self, expr: Expr, semiring: Semiring, source: str,
                 run: Callable[[list], Any], free_slots: dict[str, int], num_slots: int):
        self.expr = expr
        self.semiring = semiring
        self.source = source
        self._run = run
        self._free_slots = free_slots
        self._num_slots = num_slots
        #: Evaluations served by the generated code (foreign-collection
        #: evaluations that fell back to closures are excluded).  A plain
        #: int updated without a lock: approximate under heavy concurrency,
        #: which is fine for an observability counter.
        self.calls = 0
        #: The closure program re-run when a runtime collection is foreign to
        #: the compile-time semiring (set by the engine / delta plans; a
        #: standalone program raises :class:`SemiringError` instead).
        self.fallback: Any | None = None
        #: Number of generated fold loops carrying a stride-counted
        #: EvalLimits check (``repro explain`` reports it).
        self.limit_checks = source.count("_TICK(")

    @property
    def free_variables(self) -> frozenset[str]:
        """The free variables the frame is seeded from at evaluation time."""
        return frozenset(self._free_slots)

    def evaluate(self, env: Mapping[str, Any] | None = None) -> Any:
        """Evaluate the generated program in the given environment.

        Same contract as :meth:`CompiledExpr.evaluate`: unused entries are
        ignored, and referencing a free variable the environment does not
        bind raises :class:`NRCEvalError` when the reference is reached.
        """
        frame = [_UNBOUND] * self._num_slots
        if env:
            for name, slot in self._free_slots.items():
                value = env.get(name, _UNBOUND)
                if value is not _UNBOUND:
                    frame[slot] = value
        self.calls += 1
        _TOTAL_CALLS[0] += 1
        try:
            return self._run(frame)
        except _ForeignCollection as foreign:
            # A foreign-semiring collection: the closure evaluator defines
            # the behavior (big unions delegate to the collection's
            # semiring, unions raise), so the fallback program reruns when
            # one is attached, and a standalone program raises like the
            # K-set algebra would.  Either way generated code did not serve
            # the call, so it comes back out of the counters.
            self.calls -= 1
            _TOTAL_CALLS[0] -= 1
            if self.fallback is not None:
                return self.fallback.evaluate(env)
            raise SemiringError(
                f"cannot combine K-sets over different semirings "
                f"({foreign.expected} vs {foreign.actual})"
            ) from None

    __call__ = evaluate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CodegenProgram over {self.semiring.name}: {str(self.expr)[:60]}>"


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------
class _Emitter:
    """Walks the expression once, printing specialized Python statements.

    With ``profile`` set (an ``repro.obs.profile.Profiler``), the emitted
    source additionally times every value-position operator and counts
    iterations of the fused big-union loops — profiled programs are always
    compiled separately, so production programs carry zero profiling code.
    """

    def __init__(self, semiring: Semiring, profile: Any | None = None):
        self.semiring = semiring
        self.profile = profile
        self.lines: list[str] = []
        self.indent = 1
        self._temp = 0
        self.num_slots = 0
        self.free_slots: dict[str, int] = {}
        #: name -> stack of atoms; the top entry is the innermost binder.
        self._scope: dict[str, list[str]] = {}
        #: atom -> statically-known kind ("label" | "tree" | "kset"), used to
        #: skip type guards the data-model invariants make dead (labels from
        #: literals and tag(), trees from Tree(), K-sets from kids() — UTree
        #: children are a KSet of UTrees by construction).
        self._known: dict[str, str] = {}
        #: K-set atoms whose members are known to be trees (kids() results).
        self._tree_elements: set[str] = set()
        #: accumulator atom -> hoisted bound ``dict.get`` atom.
        self._acc_get: dict[str, str] = {}
        #: Number of fold loops instrumented with a stride-counted limit
        #: check (surfaced as ``CodegenProgram.limit_checks`` for explain).
        self.loop_checks = 0
        self.consts: list[Any] = []
        self._add_tmpl = _validated_template(semiring, "add", semiring.codegen_add, semiring.add)
        self._mul_tmpl = _validated_template(semiring, "mul", semiring.codegen_mul, semiring.mul)
        self._one = semiring.normalize(semiring.one)
        self._zero = semiring.normalize(semiring.zero)

    # ------------------------------------------------------------- plumbing
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, prefix: str = "t") -> str:
        self._temp += 1
        return f"_{prefix}{self._temp}"

    def emit_loop_check(self, acc: str) -> None:
        """Stride-counted guardrail inside a generated fold loop.

        ``_lc`` is a shared per-call counter; every 256th iteration calls
        :func:`repro.resilience.limits.check_tick` with the rows accumulated
        so far — two cheap statements per iteration when no limits are armed.
        """
        self.loop_checks += 1
        self.emit("_lc += 1")
        self.emit(f"if not _lc & 255: _TICK(len({acc}))")

    def const(self, value: Any) -> str:
        for index, existing in enumerate(self.consts):
            if existing is value:
                return f"_C{index}"
        self.consts.append(value)
        return f"_C{len(self.consts) - 1}"

    def add_expr(self, a: str, b: str) -> str:
        if self._add_tmpl is not None:
            return self._add_tmpl.format(a=a, b=b)
        return f"_ADD({a}, {b})"

    def mul_expr(self, a: str, b: str) -> str:
        if self._mul_tmpl is not None:
            return self._mul_tmpl.format(a=a, b=b)
        return f"_MUL({a}, {b})"

    # -------------------------------------------------------------- guards
    def guard_kset(self, atom: str, context: str) -> None:
        if self._known.get(atom) != "kset":
            self.emit(f"if {atom}.__class__ is not _KSet: _expect_kset({atom}, {context!r})")

    def guard_semiring(self, atom: str) -> None:
        self.emit(f"if {atom}._semiring is not _SR: _require_semiring({atom})")

    def guard_tree(self, atom: str, context: str) -> None:
        if self._known.get(atom) != "tree":
            self.emit(f"if {atom}.__class__ is not _UTree: _expect_tree({atom}, {context!r})")

    def guard_label(self, atom: str) -> bool:
        """True when the atom is statically known to be a label."""
        return self._known.get(atom) == "label"

    # ---------------------------------------------------------- value mode
    def emit_value(self, expr: Expr) -> str:
        """Emit statements computing ``expr``; returns a pure atom for it.

        Under profiling, non-trivial nodes are bracketed with a timer and a
        row-count record (inclusive times, as in ``EXPLAIN ANALYZE``).
        """
        profile = self.profile
        if profile is None or type(expr) in (LabelLit, Var, EmptySet):
            return self._emit_value_node(expr)
        op = profile.open_op(expr)
        timer = self.fresh("pt")
        self.emit(f"{timer} = _PERF()")
        try:
            atom = self._emit_value_node(expr)
        finally:
            profile.close_op()
        self.emit(f"_PREC({op.index}, _PERF() - {timer}, _PROWS({atom}))")
        return atom

    def _emit_value_node(self, expr: Expr) -> str:
        kind = type(expr)
        if kind is LabelLit:
            atom = repr(expr.label)
            self._known[atom] = "label"
            return atom
        if kind is Var:
            return self._emit_var(expr)
        if kind is EmptySet:
            return "_EMPTY"
        if kind in (Singleton, Union, Scale, BigUnion):
            return self._emit_collection_value(expr)
        if kind is IfEq:
            left, right = self._emit_ifeq_head(expr)
            out = self.fresh()
            self.emit(f"if {left} == {right}:")
            self.indent += 1
            then_atom = self.emit_value(expr.then)
            self.emit(f"{out} = {then_atom}")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            else_atom = self.emit_value(expr.orelse)
            self.emit(f"{out} = {else_atom}")
            self.indent -= 1
            return out
        if kind is PairExpr:
            first = self.emit_value(expr.first)
            second = self.emit_value(expr.second)
            out = self.fresh()
            self.emit(f"{out} = _Pair({first}, {second})")
            return out
        if kind is Proj:
            inner = self.emit_value(expr.expr)
            self.emit(f"if {inner}.__class__ is not _Pair: _expect_pair({inner})")
            out = self.fresh()
            field = "_first" if expr.index == 1 else "_second"
            self.emit(f"{out} = {inner}.{field}")
            return out
        if kind is TreeExpr:
            label = self.emit_value(expr.label)
            if not self.guard_label(label):
                self.emit(f"if {label}.__class__ is not str: _expect_tree_label({label})")
            kids = self.emit_value(expr.kids)
            self.guard_kset(kids, "tree children")
            if kids not in self._tree_elements:
                child = self.fresh("c")
                self.emit(f"for {child} in {kids}._items:")
                self.indent += 1
                self.emit(f"if {child}.__class__ is not _UTree: _expect_child({child})")
                self.indent -= 1
            out = self.fresh()
            self.emit(f"{out} = _UTree({label}, {kids})")
            self._known[out] = "tree"
            return out
        if kind is Tag:
            inner = self.emit_value(expr.expr)
            self.guard_tree(inner, "tag")
            out = self.fresh()
            self.emit(f"{out} = {inner}._label")
            self._known[out] = "label"
            return out
        if kind is Kids:
            inner = self.emit_value(expr.expr)
            self.guard_tree(inner, "kids")
            out = self.fresh()
            self.emit(f"{out} = {inner}._children")
            # A UTree's children are a KSet of UTrees by construction.
            self._known[out] = "kset"
            self._tree_elements.add(out)
            return out
        if kind is Let:
            value = self.emit_value(expr.value)
            self._scope.setdefault(expr.var, []).append(value)
            try:
                return self.emit_value(expr.body)
            finally:
                self._scope[expr.var].pop()
        if kind is Srt:
            raise CodegenUnsupported(
                "srt structural recursion is not straight-line "
                "(falls back to the closure evaluator)"
            )
        raise CodegenUnsupported(f"unknown expression node {expr!r}")

    def _emit_var(self, expr: Var) -> str:
        stack = self._scope.get(expr.name)
        if stack:
            return stack[-1]
        slot = self.free_slots.get(expr.name)
        if slot is None:
            slot = self.free_slots[expr.name] = self.num_slots
            self.num_slots += 1
        out = self.fresh("v")
        self.emit(f"{out} = frame[{slot}]")
        self.emit(f"if {out} is _UNBOUND: _raise_unbound({expr.name!r})")
        return out

    def _emit_ifeq_head(self, expr: IfEq) -> tuple[str, str]:
        left = self.emit_value(expr.left)
        right = self.emit_value(expr.right)
        if not (self.guard_label(left) and self.guard_label(right)):
            self.emit(
                f"if {left}.__class__ is not str or {right}.__class__ is not str: "
                f"_check_labels({left}, {right})"
            )
        return left, right

    def _emit_collection_value(self, expr: Expr) -> str:
        # Singleton gets the closure evaluator's direct construction.
        if type(expr) is Singleton:
            member = self.emit_value(expr.expr)
            out = self.fresh()
            self.emit(f"{out} = _from_normalized(_SR, {{{member}: _ONE}})")
            self._known[out] = "kset"
            if self._known.get(member) == "tree":
                self._tree_elements.add(out)
            return out
        acc = self.fresh("acc")
        self.emit(f"{acc} = {{}}")
        getter = self._acc_get[acc] = self.fresh("g")
        self.emit(f"{getter} = {acc}.get")
        self.emit_into(expr, acc, None)
        out = self.fresh()
        # One cleanup pass over the accumulator: collision sums can collapse
        # to zero and annihilating multiplications can produce it (exactly
        # the closure evaluator's final comprehension in big union).
        self.emit(
            f"{out} = _from_normalized(_SR, "
            f"{{_v: _a for _v, _a in {acc}.items() if _a != _ZERO}})"
        )
        self._known[out] = "kset"
        return out

    # ---------------------------------------------------- accumulation mode
    def emit_into(self, expr: Expr, acc: str, weight: str | None,
                  context: str = "big union") -> None:
        """Accumulate the collection-typed ``expr``, scaled by ``weight``,
        into the dict ``acc`` (``weight is None`` means the semiring one)."""
        kind = type(expr)
        if kind is EmptySet:
            return
        if kind is Singleton:
            member = self.emit_value(expr.expr)
            self._accumulate(acc, member, weight if weight is not None else "_ONE")
            return
        if kind is Union:
            self.emit_into(expr.left, acc, weight, "union")
            self.emit_into(expr.right, acc, weight, "union")
            return
        if kind is Scale:
            self._emit_scale_into(expr, acc, weight)
            return
        if kind is BigUnion:
            self._emit_big_union_into(expr, acc, weight)
            return
        if kind is IfEq:
            left, right = self._emit_ifeq_head(expr)
            self.emit(f"if {left} == {right}:")
            self.indent += 1
            self.emit_into(expr.then, acc, weight, context)
            self.emit("pass")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self.emit_into(expr.orelse, acc, weight, context)
            self.emit("pass")
            self.indent -= 1
            return
        if kind is Let:
            value = self.emit_value(expr.value)
            self._scope.setdefault(expr.var, []).append(value)
            try:
                self.emit_into(expr.body, acc, weight, context)
            finally:
                self._scope[expr.var].pop()
            return
        # Opaque collection (Var, Kids, Proj, ...): compute it, then fold
        # its already-normalized items into the accumulator.
        atom = self.emit_value(expr)
        self.guard_kset(atom, context)
        self.guard_semiring(atom)
        member = self.fresh("m")
        annot = self.fresh("k")
        self.emit(f"for {member}, {annot} in {atom}._items.items():")
        self.indent += 1
        self.emit_loop_check(acc)
        if weight is None:
            self._accumulate(acc, member, annot)
        else:
            contribution = self.fresh("w")
            self.emit(
                f"{contribution} = {annot} if {weight} == _ONE "
                f"else {self.mul_expr(weight, annot)}"
            )
            self._accumulate(acc, member, contribution)
        self.indent -= 1

    def _emit_scale_into(self, expr: Scale, acc: str, weight: str | None) -> None:
        try:
            scalar = self.semiring.coerce(expr.scalar)
        except AnnotationError:
            raise CodegenUnsupported(
                f"scalar {expr.scalar!r} is foreign to the semiring "
                f"{self.semiring.name}"
            ) from None
        if self.semiring.is_zero(scalar):
            # Contributes nothing, but the inner collection is still
            # evaluated and checked, as in the closure evaluator — including
            # the semiring guard, whose foreign behavior (KSet.scale with
            # the raw scalar) only the closure fallback reproduces.
            atom = self.emit_value(expr.expr)
            self.guard_kset(atom, "scalar multiplication")
            self.guard_semiring(atom)
            return
        if self.semiring.is_one(scalar):
            self.emit_into(expr.expr, acc, weight)
            return
        scalar_atom = self.const(scalar)
        if weight is None:
            self.emit_into(expr.expr, acc, scalar_atom)
            return
        scaled = self.fresh("w")
        self.emit(f"{scaled} = {self.mul_expr(weight, scalar_atom)}")
        self.emit_into(expr.expr, acc, scaled)

    def _emit_big_union_into(self, expr: BigUnion, acc: str, weight: str | None) -> None:
        # A fused loop has no own timer (its body is interleaved with the
        # enclosing accumulation), but under profiling it registers as a
        # ``fused`` operator whose iterations are counted.
        profile = self.profile
        fused_op = None
        if profile is not None:
            fused_op = profile.open_op(expr, fused=True)
        try:
            self._emit_big_union_loop(expr, acc, weight, fused_op)
        finally:
            if profile is not None:
                profile.close_op()

    def _emit_big_union_loop(self, expr: BigUnion, acc: str, weight: str | None,
                             fused_op: Any | None) -> None:
        source = self.emit_value(expr.source)
        self.guard_kset(source, "big union")
        self.guard_semiring(source)
        member = self.fresh("x")
        annot = self.fresh("k")
        if source in self._tree_elements:
            self._known[member] = "tree"
        self.emit(f"for {member}, {annot} in {source}._items.items():")
        self.indent += 1
        self.emit_loop_check(acc)
        if fused_op is not None:
            self.emit(f"_PCNT({fused_op.index})")
        if weight is None:
            inner_weight = annot
        else:
            inner_weight = self.fresh("w")
            self.emit(
                f"{inner_weight} = {weight} if {annot} == _ONE "
                f"else {self.mul_expr(weight, annot)}"
            )
        self._scope.setdefault(expr.var, []).append(member)
        try:
            self.emit_into(expr.body, acc, inner_weight, "big union body")
        finally:
            self._scope[expr.var].pop()
        self.emit("pass")
        self.indent -= 1

    def _accumulate(self, acc: str, member: str, contribution: str) -> None:
        # One bound-method lookup per accumulator (hoisted to its creation
        # site), one dict probe per contribution (annotations are never
        # None, so None is a safe miss sentinel).
        getter = self._acc_get[acc]
        previous = self.fresh("p")
        self.emit(f"{previous} = {getter}({member})")
        self.emit(f"if {previous} is None:")
        self.indent += 1
        self.emit(f"{acc}[{member}] = {contribution}")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.emit(f"{acc}[{member}] = {self.add_expr(previous, contribution)}")
        self.indent -= 1


#: Validation verdicts per (semiring type, name, op, template) — the same
#: identity the semiring's own __eq__/__hash__ use, so validation runs once
#: per process instead of on every compilation.  (Templates are class
#: attributes, so equal-by-identity semirings share one verdict.)
_TEMPLATE_VERDICTS: dict[tuple, str | None] = {}


def _validated_template(semiring: Semiring, op_name: str, template: str | None,
                        operation: Callable[[Any, Any], Any]) -> str | None:
    """The inline-op template, or ``None`` when absent or untrustworthy.

    A template that fails to format/compile, or that disagrees with the
    bound operation on the semiring's sample elements, is silently dropped:
    the generated program then uses the pre-bound call, trading speed for
    guaranteed agreement.
    """
    if template is None:
        return None
    key = (type(semiring), semiring.name, op_name, template)
    if key in _TEMPLATE_VERDICTS:
        return _TEMPLATE_VERDICTS[key]
    verdict: str | None = template
    try:
        snippet = template.format(a="_a", b="_b")
        code = compile(snippet, "<codegen-op-template>", "eval")
    except (KeyError, IndexError, ValueError, SyntaxError):
        verdict = None
    else:
        samples = list(semiring.sample_elements())[:4]
        try:
            for a in samples:
                for b in samples:
                    left = semiring.normalize(a)
                    right = semiring.normalize(b)
                    if eval(code, {"_a": left, "_b": right}) != operation(left, right):
                        verdict = None
                        break
                if verdict is None:
                    break
        except Exception:
            verdict = None
    _TEMPLATE_VERDICTS[key] = verdict
    return verdict


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
def _prof_rows(value: Any) -> int:
    """Row count of a profiled atom (non-collections count as one row)."""
    return len(value._items) if value.__class__ is KSet else 1


def generate_source(expr: Expr, semiring: Semiring,
                    profile: Any | None = None) -> tuple[str, dict[str, Any], dict[str, int], int]:
    """Emit the specialized source for ``expr`` over ``semiring``.

    Returns ``(source, namespace, free_slots, num_slots)``; raises
    :class:`CodegenUnsupported` when the expression is outside the
    straight-line fragment or the semiring is unsuitable.  ``profile``
    (an ``repro.obs.profile.Profiler``) adds per-operator instrumentation
    to the emitted source — never used for cached production programs.
    """
    if not semiring.ops_preserve_normal_form:
        raise CodegenUnsupported(
            f"semiring {semiring.name} does not preserve canonical form under "
            "its operations (the trusted constructors would be unsound)"
        )
    one = semiring.normalize(semiring.one)
    if semiring.is_zero(one):
        raise CodegenUnsupported(
            f"semiring {semiring.name} is trivial (1 == 0); singletons collapse"
        )
    # No pre-scan for srt: the emitter raises CodegenUnsupported at the Srt
    # node itself, so unsupported forms decline in the same single walk.
    emitter = _Emitter(semiring, profile=profile)
    result = emitter.emit_value(expr)
    emitter.emit(f"return {result}")
    if emitter.loop_checks:
        emitter.lines.insert(0, "    _lc = 0")
    source = "def _nrc_program(frame):\n" + "\n".join(emitter.lines) + "\n"

    def _require_semiring(collection: KSet) -> None:
        other = collection._semiring
        if other != semiring:
            raise _ForeignCollection(semiring.name, other.name)

    def _raise_unbound(name: str) -> None:
        raise NRCEvalError(f"unbound variable {name!r}")

    def _check_labels(left: Any, right: Any) -> None:
        if not isinstance(left, str) or not isinstance(right, str):
            raise NRCEvalError(
                "the positive calculus only compares labels; "
                f"got {type(left).__name__} and {type(right).__name__}"
            )

    def _expect_pair(value: Any) -> None:
        if not isinstance(value, Pair):
            raise NRCEvalError(f"projection applied to a non-pair value {value!r}")

    def _expect_tree_label(value: Any) -> None:
        if not isinstance(value, str):
            raise NRCEvalError(f"tree labels must be labels, got {value!r}")

    def _expect_child(value: Any) -> None:
        if not isinstance(value, UTree):
            raise NRCEvalError(f"tree children must be trees, got {value!r}")

    namespace: dict[str, Any] = {
        "_SR": semiring,
        "_KSet": KSet,
        "_UTree": UTree,
        "_Pair": Pair,
        "_UNBOUND": _UNBOUND,
        "_EMPTY": KSet.empty(semiring),
        "_ZERO": semiring.normalize(semiring.zero),
        "_ONE": one,
        "_ADD": semiring.add,
        "_MUL": semiring.mul,
        "_from_normalized": KSet._from_normalized,
        "_expect_kset": _expect_kset,
        "_expect_tree": _expect_tree,
        "_require_semiring": _require_semiring,
        "_raise_unbound": _raise_unbound,
        "_check_labels": _check_labels,
        "_expect_pair": _expect_pair,
        "_expect_tree_label": _expect_tree_label,
        "_expect_child": _expect_child,
        "_TICK": check_tick,
    }
    if profile is not None:
        import time

        namespace["_PERF"] = time.perf_counter
        namespace["_PREC"] = profile.record
        namespace["_PCNT"] = profile.count
        namespace["_PROWS"] = _prof_rows
    for index, value in enumerate(emitter.consts):
        namespace[f"_C{index}"] = value
    return source, namespace, emitter.free_slots, emitter.num_slots


def compile_codegen(expr: Expr, semiring: Semiring,
                    profile: Any | None = None) -> CodegenProgram:
    """Generate and byte-compile ``expr``; raises :class:`CodegenUnsupported`.

    Profiled compilations (``profile=``) are side runs for ``explain
    --analyze``: they do not touch the generation counters.
    """
    source, namespace, free_slots, num_slots = generate_source(expr, semiring, profile)
    try:
        code = compile(source, "<nrc-codegen>", "exec")
    except SyntaxError as error:  # e.g. a malformed user op template survived
        raise CodegenUnsupported(f"generated source does not compile: {error}") from error
    exec(code, namespace)
    if profile is None:
        _GENERATED_COUNTER.inc()
    return CodegenProgram(expr, semiring, source, namespace["_nrc_program"], free_slots, num_slots)


def try_compile_codegen(expr: Expr, semiring: Semiring) -> tuple[CodegenProgram | None, str | None]:
    """:func:`compile_codegen` that reports a decline instead of raising.

    Returns ``(program, None)`` on success and ``(None, reason)`` when the
    expression is outside the codegen fragment — the engine keeps the reason
    for ``repro explain`` and falls back to the closure evaluator.
    """
    try:
        return compile_codegen(expr, semiring), None
    except CodegenUnsupported as declined:
        _DECLINED_COUNTER.inc()
        emit("codegen.decline", reason=str(declined), semiring=semiring.name)
        return None, str(declined)


def compile_program(expr: Expr, semiring: Semiring, closure: Any) -> tuple[Any, CodegenProgram | None, str | None]:
    """The full two-stage compilation used by every serving layer.

    Tries codegen; on success wires ``closure`` (the closure-compiled form
    of the same expression) as the runtime foreign-collection fallback; on
    decline the closure program itself serves.  Returns
    ``(program, generated, reason)`` — ``program`` is what callers execute,
    ``generated`` is the :class:`CodegenProgram` (or ``None``), ``reason``
    is the decline reason (or ``None``).
    """
    generated, reason = try_compile_codegen(expr, semiring)
    if generated is None:
        return closure, None, reason
    generated.fallback = closure
    return generated, generated, None
