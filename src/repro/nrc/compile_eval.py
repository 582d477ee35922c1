"""Closure-compiling evaluator for NRC_K + srt (compile once, evaluate many).

:mod:`repro.nrc.eval` is the *reference* evaluator: a tree-walking interpreter
that transcribes the semantic equations of Figure 8 literally.  It pays an
``isinstance`` dispatch chain per AST node per collection element and copies
the whole environment dict at every ``BigUnion``/``Let``/``Srt`` binder, which
makes it the hot spot of every benchmark and of every
:meth:`repro.uxquery.engine.PreparedQuery.evaluate` call.

This module removes that overhead without changing the semantics.  The AST is
walked **once** and translated into a tree of Python closures of type
``frame -> value``:

* **dispatch is resolved at compile time** — each node becomes a dedicated
  closure, so evaluation never looks at AST classes again;
* **variables become frame slots** — every binder is assigned a distinct
  integer index into a flat, mutable frame list, so entering a ``BigUnion``,
  ``Let`` or ``Srt`` scope writes one list cell instead of copying a dict
  (distinct slots per binder make shadowing and re-entrancy safe, and the
  frame is allocated per top-level call, so compiled programs are reusable
  and thread-safe);
* **semiring operations are pre-bound** — ``add``/``mul`` and the normalized
  ``zero``/``one`` are captured in the closures, and results are built with
  the trusted :meth:`repro.kcollections.kset.KSet._from_normalized`
  constructor, skipping re-coercion of annotations that already live in
  K-sets;
* **structural recursion is memoized** — within one application of an ``srt``
  operator, results are cached per (hashable, immutable)
  :class:`~repro.uxml.tree.UTree` subtree, so recursion over documents with
  shared or repeated subtrees is linear in the number of *distinct* subtrees.

The compiled form and the interpreter agree on every expression; the
equivalence suite in ``tests/nrc/test_compile_eval_equiv.py`` checks this
across the query corpus and every registry semiring.

Usage::

    from repro.nrc.compile_eval import compile_expr

    program = compile_expr(expr, semiring)   # once
    value = program.evaluate({"S": source})  # many times
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
    free_variables,
)
from repro.nrc.values import Pair
from repro.resilience.limits import check_tick as _check_limits
from repro.semirings.base import Semiring
from repro.uxml.tree import UTree

__all__ = ["CompiledExpr", "compile_expr", "evaluate_compiled"]

#: Sentinel stored in frame slots that have not been bound yet.
_UNBOUND = object()

#: Cap on a persistent (cross-evaluation) srt memo table before it is reset.
_SRT_MEMO_LIMIT = 65536

#: Applications in the first generation of a persistent srt memo, and the
#: least any later one sees (see ``_compile_srt``).
_SRT_MEMO_GENERATION = 32

Runner = Callable[[list], Any]


class CompiledExpr:
    """An NRC_K + srt expression compiled to a reusable closure tree.

    Instances are produced by :func:`compile_expr`.  They are immutable,
    reusable and safe to evaluate concurrently: every :meth:`evaluate` call
    allocates a fresh frame for the variable slots.
    """

    __slots__ = ("expr", "semiring", "_run", "_free_slots", "_num_slots")

    def __init__(self, expr: Expr, semiring: Semiring, run: Runner,
                 free_slots: dict[str, int], num_slots: int):
        self.expr = expr
        self.semiring = semiring
        self._run = run
        self._free_slots = free_slots
        self._num_slots = num_slots

    @property
    def free_variables(self) -> frozenset[str]:
        """The free variables the frame is seeded from at evaluation time."""
        return frozenset(self._free_slots)

    def evaluate(self, env: Mapping[str, Any] | None = None) -> Any:
        """Evaluate the compiled expression in the given environment.

        Unused environment entries are ignored; referencing a free variable
        that ``env`` does not bind raises :class:`NRCEvalError` exactly when
        the reference is reached (as in the interpreter).
        """
        frame = [_UNBOUND] * self._num_slots
        if env:
            for name, slot in self._free_slots.items():
                value = env.get(name, _UNBOUND)
                if value is not _UNBOUND:
                    frame[slot] = value
        return self._run(frame)

    __call__ = evaluate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CompiledExpr over {self.semiring.name}: {str(self.expr)[:60]}>"


def compile_expr(expr: Expr, semiring: Semiring) -> CompiledExpr:
    """Compile ``expr`` over ``semiring`` into a reusable :class:`CompiledExpr`."""
    compiler = _Compiler(semiring)
    run = compiler.compile(expr)
    return CompiledExpr(expr, semiring, run, compiler.free_slots, compiler.num_slots)


def evaluate_compiled(expr: Expr, semiring: Semiring, env: Mapping[str, Any] | None = None) -> Any:
    """Compile and immediately evaluate (one-shot convenience wrapper)."""
    return compile_expr(expr, semiring).evaluate(env)


class _Compiler:
    """Single-pass AST-to-closure translator with slot-based scoping."""

    def __init__(self, semiring: Semiring):
        self.semiring = semiring
        self.num_slots = 0
        #: name -> stack of slot indices; the top entry is the innermost binder.
        self._scope: dict[str, list[int]] = {}
        #: free variable name -> the slot seeded from the environment.
        self.free_slots: dict[str, int] = {}
        # Pre-bound semiring machinery shared by every closure.
        self._fast = semiring.ops_preserve_normal_form
        self._add = semiring.add
        self._mul = semiring.mul
        self._zero = semiring.normalize(semiring.zero)
        self._one = semiring.normalize(semiring.one)
        self._empty = KSet.empty(semiring)

    # ------------------------------------------------------------- scoping
    def _allocate(self) -> int:
        slot = self.num_slots
        self.num_slots += 1
        return slot

    def _push(self, name: str) -> int:
        slot = self._allocate()
        self._scope.setdefault(name, []).append(slot)
        return slot

    def _pop(self, name: str) -> None:
        self._scope[name].pop()

    def _lookup(self, name: str) -> int:
        stack = self._scope.get(name)
        if stack:
            return stack[-1]
        slot = self.free_slots.get(name)
        if slot is None:
            slot = self.free_slots[name] = self._allocate()
        return slot

    # ----------------------------------------------------------- dispatch
    def compile(self, expr: Expr) -> Runner:
        handler = _HANDLERS.get(type(expr))
        if handler is None:
            raise NRCEvalError(f"unknown expression node {expr!r}")
        return handler(self, expr)

    # ------------------------------------------------------------ leaves
    def _compile_label(self, expr: LabelLit) -> Runner:
        label = expr.label
        return lambda frame: label

    def _compile_var(self, expr: Var) -> Runner:
        slot = self._lookup(expr.name)
        name = expr.name

        def run(frame: list) -> Any:
            value = frame[slot]
            if value is _UNBOUND:
                raise NRCEvalError(f"unbound variable {name!r}")
            return value

        return run

    def _compile_empty(self, expr: EmptySet) -> Runner:
        empty = self._empty
        return lambda frame: empty

    # ------------------------------------------------------- collections
    def _compile_singleton(self, expr: Singleton) -> Runner:
        inner = self.compile(expr.expr)
        semiring = self.semiring
        one = self._one
        if semiring.is_zero(one):  # the trivial semiring: {v}^1 collapses to {}
            empty = self._empty
            return lambda frame: (inner(frame), empty)[1]
        from_normalized = KSet._from_normalized
        return lambda frame: from_normalized(semiring, {inner(frame): one})

    def _compile_union(self, expr: Union) -> Runner:
        left = self.compile(expr.left)
        right = self.compile(expr.right)

        def run(frame: list) -> Any:
            return _expect_kset(left(frame), "union").union(
                _expect_kset(right(frame), "union")
            )

        return run

    def _compile_scale(self, expr: Scale) -> Runner:
        inner = self.compile(expr.expr)
        semiring = self.semiring
        # As in the interpreter, the scalar is coerced by the semiring of the
        # collection it ends up scaling.  The common case — the collection
        # lives in the compile-time semiring — is resolved here, once; a
        # scalar that is foreign to the compile-time semiring (or a foreign
        # collection at run time) defers to KSet.scale with the raw scalar.
        raw_scalar = expr.scalar
        try:
            scalar = semiring.coerce(raw_scalar)
        except AnnotationError:

            def run_foreign(frame: list) -> Any:
                collection = _expect_kset(inner(frame), "scalar multiplication")
                return collection.scale(raw_scalar)

            return run_foreign
        if semiring.is_zero(scalar):
            empty = self._empty

            def run_zero(frame: list) -> Any:
                collection = _expect_kset(inner(frame), "scalar multiplication")
                if collection.semiring != semiring:
                    return collection.scale(raw_scalar)
                return empty

            return run_zero
        if semiring.is_one(scalar):

            def run_one(frame: list) -> Any:
                collection = _expect_kset(inner(frame), "scalar multiplication")
                if collection.semiring != semiring:
                    return collection.scale(raw_scalar)
                return collection

            return run_one
        fast, mul, zero = self._fast, self._mul, self._zero
        from_normalized = KSet._from_normalized

        def run(frame: list) -> Any:
            collection = _expect_kset(inner(frame), "scalar multiplication")
            if not fast or collection.semiring != semiring:
                return collection.scale(raw_scalar)
            scaled: dict[Any, Any] = {}
            for value, annotation in collection.items():
                product = mul(scalar, annotation)
                if product != zero:
                    scaled[value] = product
            return from_normalized(semiring, scaled)

        return run

    def _compile_big_union(self, expr: BigUnion) -> Runner:
        source = self.compile(expr.source)
        slot = self._push(expr.var)
        body = self.compile(expr.body)
        self._pop(expr.var)
        semiring = self.semiring
        fast, add, mul = self._fast, self._add, self._mul
        one, zero = self._one, self._zero
        from_normalized = KSet._from_normalized
        check_limits = _check_limits

        def run(frame: list) -> Any:
            outer = source(frame)
            if not isinstance(outer, KSet):
                raise NRCEvalError(f"big union: expected a K-collection, got {outer!r}")
            outer_semiring = outer._semiring
            if outer_semiring is not semiring and outer_semiring != semiring:
                # Foreign collections keep the interpreter's behavior: the
                # bind happens in the collection's own semiring.
                def foreign_body(value: Any) -> KSet:
                    frame[slot] = value
                    return _expect_kset(body(frame), "big union body")

                return outer.bind(foreign_body)
            accumulated: dict[Any, Any] = {}
            for value, outer_annotation in outer._items.items():
                frame[slot] = value
                inner = body(frame)
                if not isinstance(inner, KSet):
                    raise NRCEvalError(
                        f"big union body: expected a K-collection, got {inner!r}"
                    )
                inner_semiring = inner._semiring
                if inner_semiring is not semiring and inner_semiring != semiring:
                    raise SemiringError(
                        f"cannot combine K-sets over different semirings "
                        f"({semiring.name} vs {inner_semiring.name})"
                    )
                if fast and outer_annotation == one:
                    for inner_value, contribution in inner._items.items():
                        if inner_value in accumulated:
                            accumulated[inner_value] = add(
                                accumulated[inner_value], contribution
                            )
                        else:
                            accumulated[inner_value] = contribution
                else:
                    for inner_value, inner_annotation in inner._items.items():
                        contribution = mul(outer_annotation, inner_annotation)
                        if inner_value in accumulated:
                            accumulated[inner_value] = add(
                                accumulated[inner_value], contribution
                            )
                        else:
                            accumulated[inner_value] = contribution
                # Cooperative guardrail: one check per outer member (the
                # inner fold is where rows accumulate), charging the rows
                # gathered so far.  A single global read when unguarded.
                check_limits(len(accumulated))
            if not fast:
                return KSet(semiring, accumulated)
            cleaned = {
                value: annotation
                for value, annotation in accumulated.items()
                if annotation != zero
            }
            return from_normalized(semiring, cleaned)

        return run

    # ----------------------------------------------------------- branches
    def _compile_ifeq(self, expr: IfEq) -> Runner:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        then = self.compile(expr.then)
        orelse = self.compile(expr.orelse)

        def run(frame: list) -> Any:
            left_value = left(frame)
            right_value = right(frame)
            if not isinstance(left_value, str) or not isinstance(right_value, str):
                raise NRCEvalError(
                    "the positive calculus only compares labels; "
                    f"got {type(left_value).__name__} and {type(right_value).__name__}"
                )
            return then(frame) if left_value == right_value else orelse(frame)

        return run

    # -------------------------------------------------------------- pairs
    def _compile_pair(self, expr: PairExpr) -> Runner:
        first = self.compile(expr.first)
        second = self.compile(expr.second)
        return lambda frame: Pair(first(frame), second(frame))

    def _compile_proj(self, expr: Proj) -> Runner:
        inner = self.compile(expr.expr)
        index = expr.index

        def run(frame: list) -> Any:
            value = inner(frame)
            if not isinstance(value, Pair):
                raise NRCEvalError(f"projection applied to a non-pair value {value!r}")
            return value.first if index == 1 else value.second

        return run

    # -------------------------------------------------------------- trees
    def _compile_tree(self, expr: TreeExpr) -> Runner:
        label = self.compile(expr.label)
        kids = self.compile(expr.kids)

        def run(frame: list) -> Any:
            label_value = label(frame)
            if not isinstance(label_value, str):
                raise NRCEvalError(f"tree labels must be labels, got {label_value!r}")
            kids_value = _expect_kset(kids(frame), "tree children")
            for child in kids_value:
                if not isinstance(child, UTree):
                    raise NRCEvalError(f"tree children must be trees, got {child!r}")
            return UTree(label_value, kids_value)

        return run

    def _compile_tag(self, expr: Tag) -> Runner:
        inner = self.compile(expr.expr)
        return lambda frame: _expect_tree(inner(frame), "tag").label

    def _compile_kids(self, expr: Kids) -> Runner:
        inner = self.compile(expr.expr)
        return lambda frame: _expect_tree(inner(frame), "kids").children

    # ------------------------------------------------------------ binders
    def _compile_let(self, expr: Let) -> Runner:
        value = self.compile(expr.value)
        slot = self._push(expr.var)
        body = self.compile(expr.body)
        self._pop(expr.var)

        def run(frame: list) -> Any:
            frame[slot] = value(frame)
            return body(frame)

        return run

    def _compile_srt(self, expr: Srt) -> Runner:
        target = self.compile(expr.target)
        label_slot = self._push(expr.label_var)
        acc_slot = self._push(expr.acc_var)
        body = self.compile(expr.body)
        self._pop(expr.acc_var)
        self._pop(expr.label_var)
        # srt is pure given the bindings it can see.  When the body is
        # *closed* (no free variables besides the label and accumulator
        # binders) the result is a function of the subtree alone, so the memo
        # table survives across evaluate() calls: re-running a prepared query
        # over the same (or an overlapping) document reuses earlier results.
        # An open body still gets a per-application memo, which keeps
        # recursion over shared/repeated subtrees linear.
        #
        # The persistent memo lives in generations: a result found in the
        # previous generation moves to the current one, and a new generation
        # drops the previous one with whatever it still holds.  Generations
        # turn over only between evaluations, once one has seen at least
        # twice as many applications as the one before it reused results
        # from its predecessor (and at least ``_SRT_MEMO_GENERATION``).  A
        # document queried again therefore keeps its members' results,
        # results for trees no query reaches any more (members deleted from
        # a churning document) go within a few evaluations, and a plan that
        # sees new trees on every call (an IVM delta plan) keeps only its
        # last few dozen.
        closed = not (free_variables(expr.body) - {expr.label_var, expr.acc_var})
        started_slot = self._allocate()  # unbound until the evaluation's first application
        current: dict[UTree, Any] = {}
        previous: dict[UTree, Any] = {}
        applications = reused = 0
        generation = _SRT_MEMO_GENERATION

        def run(frame: list) -> Any:
            nonlocal current, previous, applications, reused, generation
            tree = _expect_tree(target(frame), "structural recursion")
            if not closed:
                memo: dict[UTree, Any] = {}
                older: dict[UTree, Any] | None = None
            else:
                if len(current) + len(previous) > _SRT_MEMO_LIMIT:
                    current, previous = {}, {}
                elif frame[started_slot] is _UNBOUND and applications > generation:
                    generation = max(_SRT_MEMO_GENERATION, 2 * reused)
                    current, previous = {}, current
                    applications = reused = 0
                frame[started_slot] = True
                applications += 1
                memo, older = current, previous

            def recur(node: UTree) -> Any:
                nonlocal reused
                cached = memo.get(node)
                if cached is not None:
                    return cached
                if older:
                    cached = older.get(node)
                    if cached is not None:
                        memo[node] = cached
                        reused += 1
                        return cached
                _check_limits()  # per-node deadline check along the recursion
                accumulator = node.children.map(recur)
                frame[label_slot] = node.label
                frame[acc_slot] = accumulator
                result = body(frame)
                memo[node] = result
                return result

            return recur(tree)

        return run


def _expect_kset(value: Any, context: str) -> KSet:
    if not isinstance(value, KSet):
        raise NRCEvalError(f"{context}: expected a K-collection, got {value!r}")
    return value


def _expect_tree(value: Any, context: str) -> UTree:
    if not isinstance(value, UTree):
        raise NRCEvalError(f"{context}: expected a tree, got {value!r}")
    return value


_HANDLERS: dict[type, Callable[[_Compiler, Any], Runner]] = {
    LabelLit: _Compiler._compile_label,
    Var: _Compiler._compile_var,
    EmptySet: _Compiler._compile_empty,
    Singleton: _Compiler._compile_singleton,
    Union: _Compiler._compile_union,
    Scale: _Compiler._compile_scale,
    BigUnion: _Compiler._compile_big_union,
    IfEq: _Compiler._compile_ifeq,
    PairExpr: _Compiler._compile_pair,
    Proj: _Compiler._compile_proj,
    TreeExpr: _Compiler._compile_tree,
    Tag: _Compiler._compile_tag,
    Kids: _Compiler._compile_kids,
    Let: _Compiler._compile_let,
    Srt: _Compiler._compile_srt,
}
