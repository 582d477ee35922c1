"""Batched evaluation equals single-shot evaluation, for every registry semiring."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import BudgetExceededError, ExecError, QueryTimeoutError
from repro.exec import BatchEvaluator, infer_document_var
from repro.kcollections import KSet
from repro.resilience import EvalLimits
from repro.semirings import BOOLEAN, NATURAL, PROVENANCE, standard_semirings
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


@pytest.mark.parametrize("semiring", [NATURAL, PROVENANCE], ids=lambda s: s.name)
def test_batch_with_thread_pool_matches_inline(semiring):
    documents = _documents(semiring, count=10)
    prepared = prepare_query("($S)/*/*", semiring, {"S": documents[0]})
    evaluator = BatchEvaluator(prepared)
    inline = evaluator.evaluate_many(documents)
    with ThreadPoolExecutor(max_workers=4) as executor:
        threaded = evaluator.evaluate_many(documents, executor=executor)
    assert threaded == inline


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

    @pytest.mark.parametrize("semiring", [NATURAL, PROVENANCE], ids=lambda s: s.name)
    def test_thread_pool_matches_single_shot(self, semiring):
        forest = _forest(semiring, num_trees=16)
        prepared = prepare_query("($S)/*/*", semiring, {"S": forest})
        single = prepared.evaluate({"S": forest})
        with ThreadPoolExecutor(max_workers=4) as executor:
            merged = BatchEvaluator(prepared).evaluate_merged(
                _split(forest, 4), executor=executor
            )
        assert merged == single

    def test_empty_forest(self):
        forest = _forest(NATURAL)
        prepared = prepare_query("($S)/*", NATURAL, {"S": forest})
        empty = KSet.empty(NATURAL)
        single = prepared.evaluate({"S": empty})
        evaluator = BatchEvaluator(prepared)
        assert evaluator.evaluate_merged([empty]) == single
        assert evaluator.evaluate_merged([]) == single

    @pytest.mark.parametrize("method", ["nrc-codegen", "nrc", "nrc-interp", "direct"])
    def test_every_method_agrees(self, method):
        forest = _forest(NATURAL)
        prepared = prepare_query("($S)//c", NATURAL, {"S": forest})
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


class TestProcessPool:
    """Batches run in the calling process: a process pool is refused with a
    typed error at every batch entry point, before any document runs."""

    @pytest.fixture
    def pool(self):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as executor:
            yield executor

    @pytest.fixture
    def counted(self, monkeypatch):
        """A plan whose generated program counts every document it runs."""
        documents = _documents(NATURAL, count=4)
        prepared = prepare_query("($S)/*/*", NATURAL, {"S": documents[0]})
        runs = []
        program = prepared.program_for("nrc-codegen")
        original = program._run

        def counting_run(frame):
            runs.append(frame)
            return original(frame)

        monkeypatch.setattr(program, "_run", counting_run)
        return prepared, documents, runs

    @pytest.mark.parametrize("entry", ["evaluate_many", "evaluate_merged"])
    def test_batch_evaluator_refuses_process_pools(self, pool, counted, entry):
        prepared, documents, runs = counted
        run = getattr(BatchEvaluator(prepared), entry)
        with pytest.raises(ExecError, match="process pools"):
            run(documents, executor=pool)
        assert runs == []
        run(documents)  # the counter sees the documents an inline batch runs
        assert len(runs) == len(documents)

    def test_prepared_evaluate_refuses_process_pools(self, pool, counted):
        prepared, documents, runs = counted
        with pytest.raises(ExecError, match="process pools"):
            prepared.evaluate(documents=documents, executor=pool)
        assert runs == []

    @pytest.mark.parametrize("count", [2, 0])
    def test_evaluate_query_refuses_process_pools(self, pool, count):
        from repro.uxquery import evaluate_query

        documents = _documents(NATURAL, count=count)
        with pytest.raises(ExecError, match="process pools"):
            evaluate_query("($S)/*", NATURAL, documents=documents, executor=pool)

    def test_store_query_many_refuses_process_pools(self, pool):
        from repro.store import DocumentStore

        store = DocumentStore(NATURAL)
        for index, document in enumerate(_documents(NATURAL, count=2)):
            store.ingest(f"d{index}", document)
        with pytest.raises(ExecError, match="process pools"):
            store.query_many("($S)/*", executor=pool)


def test_documents_round_trip_through_pickle():
    """KSet/UTree __reduce__: what the store's WAL and snapshot codec pickles."""
    import pickle

    for semiring in (NATURAL, PROVENANCE):
        for document in _documents(semiring, count=2):
            assert pickle.loads(pickle.dumps(document)) == document


@pytest.fixture(params=["inline", "threads"])
def executor(request):
    """No executor, or a two-thread pool: both run in this process."""
    if request.param == "inline":
        yield None
        return
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield pool


class TestBatchGuardrails:
    """``limits=`` bounds the whole batch, inline or on a thread pool, and
    trips the same typed error under every method."""

    @pytest.fixture
    def batch(self):
        documents = _documents(NATURAL, count=4)
        prepared = prepare_query("($S)/*", NATURAL, {"S": documents[0]})
        return BatchEvaluator(prepared), documents

    @pytest.mark.parametrize("method", METHODS)
    def test_expired_deadline_raises_timeout(self, batch, executor, method):
        evaluator, documents = batch
        with pytest.raises(QueryTimeoutError):
            evaluator.evaluate_many(
                documents, method=method, executor=executor, limits=EvalLimits(timeout_s=0)
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_row_budget_raises_budget_exceeded(self, batch, executor, method):
        evaluator, documents = batch
        # The final result exceeds the budget, so every method must agree.
        assert max(len(result) for result in evaluator.evaluate_many(documents)) > 1
        with pytest.raises(BudgetExceededError):
            evaluator.evaluate_many(
                documents, method=method, executor=executor, limits=EvalLimits(max_rows=1)
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_generous_limits_return_the_unguarded_result(self, batch, executor, method):
        evaluator, documents = batch
        expected = evaluator.evaluate_many(documents, method=method)
        guarded = evaluator.evaluate_many(
            documents, method=method, executor=executor, limits=EvalLimits(timeout_s=300)
        )
        assert guarded == expected

    @pytest.mark.parametrize("merge", [False, True])
    def test_store_query_many_honours_the_deadline(self, executor, merge):
        from repro.store import DocumentStore

        store = DocumentStore(NATURAL)
        for index, document in enumerate(_documents(NATURAL, count=3)):
            store.ingest(f"d{index}", document)
        with pytest.raises(QueryTimeoutError):
            store.query_many(
                "($S)/*", merge=merge, executor=executor, limits=EvalLimits(timeout_s=0)
            )


def test_opening_a_store_loads_no_process_pool_machinery():
    """Batches run in this process, so importing the store and the CLI (what
    every cold ``repro store query`` pays) loads no multiprocessing."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    script = (
        "import sys\n"
        "import repro.store, repro.cli\n"
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
    assert output == "[]"
