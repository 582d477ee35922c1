"""Batched evaluation equals single-shot evaluation, for every registry semiring."""

from __future__ import annotations

import time

import pytest

from repro.errors import BudgetExceededError, ExecError, QueryTimeoutError, UXQueryEvalError
from repro.exec import BatchEvaluator, infer_document_var
from repro.kcollections import KSet
from repro.resilience import EvalLimits
from repro.resilience.limits import estimate_bytes
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE, standard_semirings
from repro.uxml import TreeBuilder
from repro.uxquery import prepare_query
from repro.workloads import random_forest

REGISTRY_SEMIRINGS = list(standard_semirings())

METHODS = ["nrc-codegen", "nrc", "nrc-interp", "direct"]

QUERIES = [
    "($S)/*",
    "($S)/*/*",
    "($S)//c",
    "element out { for $x in $S return element hit { ($x)/* } }",
]

#: Forest-valued queries that are linear in $S: per-document results over
#: any split of a forest merge to the result on the whole forest.
LINEAR_QUERIES = [
    "($S)/*",
    "($S)/*/*",
    "($S)//c",
    "for $x in $S return ($x)/*",
]


def _documents(semiring, count=6, seed=11):
    return [
        random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=seed + index)
        for index in range(count)
    ]


def _forest(semiring, num_trees=12, seed=23):
    return random_forest(semiring, num_trees=num_trees, depth=3, fanout=2, seed=seed)


def _split(forest, parts):
    """Deal the members of ``forest`` round-robin into ``parts`` documents."""
    buckets = [[] for _ in range(parts)]
    for index, pair in enumerate(forest.items()):
        buckets[index % parts].append(pair)
    return [KSet(forest.semiring, bucket) for bucket in buckets]


@pytest.mark.parametrize("semiring", REGISTRY_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("query", QUERIES)
def test_batch_equals_single_shot_every_registry_semiring(semiring, query):
    documents = _documents(semiring)
    prepared = prepare_query(query, semiring, {"S": documents[0]})
    single = [prepared.evaluate({"S": document}) for document in documents]
    batched = BatchEvaluator(prepared).evaluate_many(documents)
    assert batched == single


@pytest.mark.parametrize("semiring", REGISTRY_SEMIRINGS, ids=lambda s: s.name)
def test_batch_merged_is_pointwise_union(semiring):
    documents = _documents(semiring, count=4)
    prepared = prepare_query("($S)/*", semiring, {"S": documents[0]})
    merged = BatchEvaluator(prepared).evaluate_merged(documents)
    expected = KSet.empty(semiring)
    for document in documents:
        expected = expected.union(prepared.evaluate({"S": document}))
    assert merged == expected


class TestMergedEqualsSingleShotOnTheWholeForest:
    """Merged store reads and batched view maintenance rely on this."""

    @pytest.mark.parametrize("semiring", REGISTRY_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("query", LINEAR_QUERIES)
    def test_every_registry_semiring(self, semiring, query):
        """Exact for the non-idempotent semirings too (N counts, N[X])."""
        forest = _forest(semiring)
        prepared = prepare_query(query, semiring, {"S": forest})
        single = prepared.evaluate({"S": forest})
        evaluator = BatchEvaluator(prepared)
        one_per_tree = [KSet(semiring, [pair]) for pair in forest.items()]
        assert evaluator.evaluate_merged(one_per_tree) == single
        assert evaluator.evaluate_merged(_split(forest, 4)) == single

    @pytest.mark.parametrize("parts", [1, 2, 3, 8, 100])
    def test_split_counts_including_more_than_members(self, parts):
        forest = _forest(NATURAL, num_trees=8)
        prepared = prepare_query("($S)//c", NATURAL, {"S": forest})
        single = prepared.evaluate({"S": forest})
        documents = _split(forest, parts)
        assert sum(len(document) for document in documents) == len(forest)
        assert BatchEvaluator(prepared).evaluate_merged(documents) == single

    def test_empty_forest(self):
        forest = _forest(NATURAL)
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        empty = KSet.empty(NATURAL)
        single = prepared.evaluate({"S": empty})
        evaluator = BatchEvaluator(prepared)
        assert evaluator.evaluate_merged([empty]) == single
        assert evaluator.evaluate_merged([]) == single

    @pytest.mark.parametrize("semiring", [NATURAL, PROVENANCE], ids=lambda s: s.name)
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_agrees(self, method, semiring):
        forest = _forest(semiring)
        prepared = prepare_query("($S)//c", semiring, {"S": forest})
        single = prepared.evaluate({"S": forest})
        merged = BatchEvaluator(prepared).evaluate_merged(
            _split(forest, 3), method=method
        )
        assert merged == single

    @pytest.mark.parametrize("semiring", [BOOLEAN, NATURAL], ids=lambda s: s.name)
    def test_constant_side_counts_once_per_document(self, semiring):
        """A var-free union side is summed once per document: the merge
        equals the single shot only when addition is idempotent."""
        forest = _forest(semiring, num_trees=10)
        constant = _forest(semiring, num_trees=3, seed=77)
        env = {"S": forest, "T": constant}
        prepared = prepare_query("( ($S)/*, ($T)/* )", semiring, env)
        single = prepared.evaluate(env)
        constant_part = prepare_query("($T)/*", semiring, env).evaluate(env)
        evaluator = BatchEvaluator(prepared, var="S")
        for parts in (1, 2, 4):
            merged = evaluator.evaluate_merged(_split(forest, parts), env={"T": constant})
            expected = single
            for _ in range(parts - 1):
                expected = expected.union(constant_part)
            assert merged == expected
            if semiring is BOOLEAN:
                assert merged == single


def test_batch_interpreter_methods_agree():
    documents = _documents(NATURAL, count=3)
    prepared = prepare_query("($S)/*/*", NATURAL, {"S": documents[0]})
    evaluator = BatchEvaluator(prepared)
    compiled = evaluator.evaluate_many(documents)
    assert evaluator.evaluate_many(documents, method="nrc-codegen") == compiled
    assert evaluator.evaluate_many(documents, method="nrc") == compiled
    assert evaluator.evaluate_many(documents, method="nrc-interp") == compiled
    assert evaluator.evaluate_many(documents, method="direct") == compiled


def test_batch_executes_the_generated_program():
    """The default batch path runs codegen bytecode, observably (calls)."""
    documents = _documents(NATURAL, count=5)
    prepared = prepare_query("($S)/*/*", NATURAL, {"S": documents[0]})
    assert prepared.generated is not None
    before = prepared.generated.calls
    BatchEvaluator(prepared).evaluate_many(documents)
    assert prepared.generated.calls == before + len(documents)
    # Forcing the closure method leaves the generated counter untouched.
    BatchEvaluator(prepared).evaluate_many(documents, method="nrc")
    assert prepared.generated.calls == before + len(documents)


def test_batch_env_constants_are_shared():
    documents = _documents(NATURAL, count=3)
    prepared = prepare_query(
        "for $x in $S where name($x) = $l return ($x)/*",
        NATURAL,
        env_types={"S": "forest", "l": "label"},
    )
    evaluator = BatchEvaluator(prepared, var="S")
    batched = evaluator.evaluate_many(documents, env={"l": "a"})
    single = [prepared.evaluate({"S": document, "l": "a"}) for document in documents]
    assert batched == single


def test_empty_batch_returns_empty_list():
    documents = _documents(NATURAL, count=1)
    prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
    assert BatchEvaluator(prepared).evaluate_many([]) == []


def test_infer_document_var():
    forest = _documents(NATURAL, count=1)[0]
    prepared = prepare_query("($D)/*", NATURAL, {"D": forest})
    assert infer_document_var(prepared) == "D"
    two_forests = prepare_query(
        "($A)/*, ($B)/*", NATURAL, env_types={"A": "forest", "B": "forest"}
    )
    with pytest.raises(ExecError, match="pass var="):
        BatchEvaluator(two_forests)


def test_explicit_var_binds_each_document():
    documents = _documents(NATURAL, count=3)
    prepared = prepare_query(
        "($D)/*, ($T)/*", NATURAL, env_types={"D": "forest", "T": "forest"}
    )
    constant = documents[0]
    evaluator = BatchEvaluator(prepared, var="D")
    batched = evaluator.evaluate_many(documents, env={"T": constant})
    single = [prepared.evaluate({"D": document, "T": constant}) for document in documents]
    assert batched == single


def test_explicit_var_must_be_free_in_the_query():
    forest = _documents(NATURAL, count=1)[0]
    prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
    with pytest.raises(ExecError, match="not a free variable"):
        BatchEvaluator(prepared, var="T")


def test_merged_rejects_non_forest_results():
    forest = _documents(NATURAL, count=1)[0]
    prepared = prepare_query("element out { ($S)/* }", NATURAL, {"S": forest})
    with pytest.raises(ExecError, match="K-set results"):
        BatchEvaluator(prepared).evaluate_merged([forest])


def test_empty_batch_still_validates_the_method():
    documents = _documents(NATURAL, count=1)
    prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
    evaluator = BatchEvaluator(prepared)
    with pytest.raises(UXQueryEvalError, match="valid methods"):
        evaluator.evaluate_many([], method="nrcc")
    with pytest.raises(UXQueryEvalError, match="valid methods"):
        evaluator.evaluate_merged([], method="nrcc")


@pytest.fixture(params=["thread-pool", "process-pool", "not-a-pool"])
def executor(request):
    """Anything but ``None``: the pools an older caller might pass, or junk."""
    if request.param == "not-a-pool":
        yield "threads"
        return
    from concurrent import futures

    pool_type = {
        "thread-pool": futures.ThreadPoolExecutor,
        "process-pool": futures.ProcessPoolExecutor,
    }[request.param]
    with pool_type(max_workers=1) as pool:
        yield pool


@pytest.mark.parametrize("merge", [False, True])
def test_store_query_many_refuses_an_executor(monkeypatch, executor, merge):
    """Batches run inline: ``query_many`` keeps ``executor=`` only for
    ``None``, and refuses any other value before any document runs.  Each
    document is served through the store's pushdown executor."""
    from repro.store import DocumentStore, PushdownExecutor

    store = DocumentStore(NATURAL)
    for index, document in enumerate(_documents(NATURAL, count=2)):
        store.ingest(f"d{index}", document)
    runs = []
    original = PushdownExecutor.execute

    def counting_execute(self, prepared, index, var, env=None):
        runs.append(index)
        return original(self, prepared, index, var, env)

    monkeypatch.setattr(PushdownExecutor, "execute", counting_execute)
    with pytest.raises(ExecError, match="no executor"):
        store.query_many("($S)/*", merge=merge, executor=executor)
    assert runs == []
    store.query_many("($S)/*", merge=merge, executor=None)
    assert len(runs) == 2


def test_documents_round_trip_through_pickle():
    """KSet/UTree __reduce__: what the store's WAL and snapshot codec pickles."""
    import pickle

    for semiring in (NATURAL, PROVENANCE):
        for document in _documents(semiring, count=2):
            assert pickle.loads(pickle.dumps(document)) == document


class TestBatchGuardrails:
    """``limits=`` bounds the whole batch with one guard and trips the same
    typed error under every method."""

    @pytest.fixture
    def batch(self):
        documents = _documents(NATURAL, count=4)
        prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
        return BatchEvaluator(prepared), documents

    @pytest.fixture(params=["evaluate_many", "evaluate_merged"])
    def entry(self, request):
        """Both batch entry points take ``limits=`` and share one guard."""
        return request.param

    @pytest.mark.parametrize("method", METHODS)
    def test_expired_deadline_raises_timeout(self, batch, entry, method):
        evaluator, documents = batch
        with pytest.raises(QueryTimeoutError):
            getattr(evaluator, entry)(
                documents, method=method, limits=EvalLimits(timeout_s=0)
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_row_budget_raises_budget_exceeded(self, batch, entry, method):
        evaluator, documents = batch
        # The final result exceeds the budget, so every method must agree.
        assert max(len(result) for result in evaluator.evaluate_many(documents)) > 1
        with pytest.raises(BudgetExceededError):
            getattr(evaluator, entry)(
                documents, method=method, limits=EvalLimits(max_rows=1)
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_generous_limits_return_the_unguarded_result(self, batch, entry, method):
        evaluator, documents = batch
        run = getattr(evaluator, entry)
        expected = run(documents, method=method)
        guarded = run(documents, method=method, limits=EvalLimits(timeout_s=300))
        assert guarded == expected

    @pytest.mark.parametrize("method", METHODS)
    def test_one_deadline_bounds_the_whole_batch(self, batch, monkeypatch, method):
        """The guard is armed once: a deadline that passes after the first
        document stops the batch at the next check, not after every document."""
        evaluator, documents = batch
        guard = EvalLimits(timeout_s=300).start()
        runs = []

        def expire_after_first(run):
            def counted(*args):
                result = run(*args)
                runs.append(args)
                if len(runs) == 1:
                    guard.deadline = time.monotonic() - 1.0
                return result

            return counted

        prepared = evaluator.prepared
        monkeypatch.setattr(prepared, "_dispatch", expire_after_first(prepared._dispatch))
        with pytest.raises(QueryTimeoutError):
            evaluator.evaluate_many(documents, method=method, limits=guard)
        assert len(runs) < len(documents)

    def test_an_armed_guard_is_shared_not_restarted(self, batch, entry):
        """A caller's armed guard keeps its deadline: restarting it would
        give the batch a fresh 0.2 s, ample for four small documents."""
        evaluator, documents = batch
        guard = EvalLimits(timeout_s=0.2).start()
        assert guard.start() is guard
        time.sleep(0.25)
        with pytest.raises(QueryTimeoutError):
            getattr(evaluator, entry)(documents, limits=guard)

    @pytest.mark.parametrize("method", METHODS)
    def test_many_charges_each_result_not_their_sum(self, one_row_batch, method):
        """``evaluate_many`` returns one result per document, so the row
        budget bounds each of them; only a merge charges the union."""
        evaluator, documents = one_row_batch
        results = evaluator.evaluate_many(
            documents, method=method, limits=EvalLimits(max_rows=1)
        )
        assert [len(result) for result in results] == [1, 1, 1]

    @pytest.fixture
    def one_row_documents(self):
        """``a(p)``, ``a(q)``, ``a(r)``: one row each under ``($S)/*``, three merged."""
        builder = TreeBuilder(NATURAL)
        return [builder.forest(builder.tree("a", builder.leaf(label))) for label in "pqr"]

    @pytest.fixture
    def one_row_batch(self, one_row_documents):
        prepared = prepare_query("($S)/*", NATURAL, {"S": one_row_documents[0]})
        return BatchEvaluator(prepared, var="S"), one_row_documents

    @pytest.mark.parametrize("method", METHODS)
    def test_merged_result_is_charged_against_the_row_budget(self, one_row_batch, method):
        evaluator, documents = one_row_batch
        union = evaluator.evaluate_merged(documents, method=method)
        assert len(union) == 3
        # Single-shot evaluation over the union forest trips at two rows;
        # so must the merge, although every per-document result fits.
        with pytest.raises(BudgetExceededError):
            evaluator.evaluate_merged(documents, method=method, limits=EvalLimits(max_rows=2))
        merged = evaluator.evaluate_merged(documents, method=method, limits=EvalLimits(max_rows=3))
        assert merged == union

    def test_merged_result_is_charged_against_the_byte_budget(self, one_row_batch):
        evaluator, documents = one_row_batch
        largest = max(estimate_bytes(each) for each in evaluator.evaluate_many(documents))
        union = evaluator.evaluate_merged(documents)
        assert estimate_bytes(union) > largest
        with pytest.raises(BudgetExceededError):
            evaluator.evaluate_merged(documents, limits=EvalLimits(max_result_bytes=largest))
        bound = EvalLimits(max_result_bytes=estimate_bytes(union))
        assert evaluator.evaluate_merged(documents, limits=bound) == union

    def test_store_merged_result_is_charged_against_the_row_budget(self, one_row_documents):
        from repro.store import DocumentStore

        store = DocumentStore(NATURAL)
        for index, document in enumerate(one_row_documents):
            store.ingest(f"d{index}", document)
        union = store.query_many("($S)/*", merge=True)
        assert len(union) == 3
        with pytest.raises(BudgetExceededError):
            store.query_many("($S)/*", merge=True, limits=EvalLimits(max_rows=2))
        assert store.query_many("($S)/*", merge=True, limits=EvalLimits(max_rows=3)) == union

    def test_store_merged_result_is_charged_against_the_byte_budget(self, one_row_documents):
        from repro.store import DocumentStore

        store = DocumentStore(NATURAL)
        for index, document in enumerate(one_row_documents):
            store.ingest(f"d{index}", document)
        largest = max(estimate_bytes(each) for each in store.query_many("($S)/*"))
        union = store.query_many("($S)/*", merge=True)
        assert estimate_bytes(union) > largest
        with pytest.raises(BudgetExceededError):
            store.query_many("($S)/*", merge=True, limits=EvalLimits(max_result_bytes=largest))
        bound = EvalLimits(max_result_bytes=estimate_bytes(union))
        assert store.query_many("($S)/*", merge=True, limits=bound) == union

    @pytest.mark.parametrize("merge", [False, True])
    def test_store_query_many_honours_the_deadline(self, merge):
        from repro.store import DocumentStore

        store = DocumentStore(NATURAL)
        for index, document in enumerate(_documents(NATURAL, count=3)):
            store.ingest(f"d{index}", document)
        with pytest.raises(QueryTimeoutError):
            store.query_many(
                "($S)/*", merge=merge, limits=EvalLimits(timeout_s=0)
            )


def test_opening_a_store_loads_no_process_pool_machinery(tmp_path):
    """Batches run in this process, so importing the store and the CLI (what
    every cold ``repro store query`` pays) and running ``repro batch`` load
    no pool machinery."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    (tmp_path / "one.xml").write_text('<a annot="x"><b annot="y"/></a>', encoding="utf-8")
    script = (
        "import sys\n"
        "import repro.store, repro.cli\n"
        f"assert repro.cli.main(['batch', '--query', '($S)/*', '--dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(name for name in ('multiprocessing', 'concurrent.futures')"
        " if name in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    output = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert "== one.xml" in output
    assert output.splitlines()[-1] == "[]"
