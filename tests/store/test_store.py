"""DocumentStore: the facade, its stats, and the recovery invariant.

The acceptance bar of the subsystem:

* the pushdown path returns exactly the single-shot
  ``PreparedQuery.evaluate`` result for every registry semiring on the
  standard query suite, mixed chains included;
* a killed-and-recovered store (snapshot + WAL replay) is bit-identical —
  columns, annotations, registered view caches — to the uninterrupted store
  on randomized update streams.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import StoreError
from repro.ivm import Delta
from repro.semirings import NATURAL, PROVENANCE
from repro.semirings.registry import standard_semirings
from repro.store import DocumentStore
from repro.uxquery import prepare_query
from repro.workloads import random_forest, random_tree, standard_query_suite

#: A bilinear (self-join) view definition.
SELF_JOIN = "for $x in $S, $y in $S where $x = $y return ($x)/*"


def _random_delta(semiring, document, rng: random.Random, counter: list[int]):
    """One randomized update: insert / full-delete / re-annotate a member."""
    members = list(document.items())
    samples = [v for v in semiring.sample_elements() if not semiring.is_zero(v)]
    op = rng.choice(["insert", "insert", "delete", "reannotate"]) if members else "insert"
    if op == "insert":
        counter[0] += 1
        tree = random_tree(semiring, depth=2, fanout=2, seed=1000 + counter[0] * 7)
        return Delta.insertion(semiring, tree, rng.choice(samples))
    tree, annotation = rng.choice(members)
    if op == "delete":
        return Delta.deletion(semiring, tree, annotation)
    return Delta.reannotation(semiring, tree, annotation, rng.choice(samples))


class TestFacade:
    def test_ingest_and_query(self):
        store = DocumentStore(NATURAL)
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=1)
        store.ingest("doc", forest)
        prepared = prepare_query("element out { $S//c }", NATURAL, {"S": forest})
        assert store.query("element out { $S//c }") == prepared.evaluate({"S": forest})
        stats = store.stats()
        assert stats.documents == 1 and stats.queries == 1 and stats.pushdowns == 1
        assert stats.pushdown_rate == 1.0

    def test_duplicate_ingest_needs_replace(self):
        store = DocumentStore(NATURAL)
        forest = random_forest(NATURAL, num_trees=1, depth=2, fanout=1, seed=2)
        store.ingest("doc", forest)
        with pytest.raises(StoreError, match="already exists"):
            store.ingest("doc", forest)
        store.ingest("doc", forest, replace=True)

    def test_doc_id_resolution(self):
        store = DocumentStore(NATURAL)
        with pytest.raises(StoreError, match="no document"):
            store.query("$S/*", "missing")
        store.ingest("a", random_forest(NATURAL, num_trees=1, depth=2, fanout=1, seed=3))
        store.query("$S/*")  # unambiguous without a doc_id
        store.ingest("b", random_forest(NATURAL, num_trees=1, depth=2, fanout=1, seed=4))
        with pytest.raises(StoreError, match="doc_id is required"):
            store.query("$S/*")

    def test_semiring_mismatch_rejected(self):
        store = DocumentStore(NATURAL)
        prov = random_forest(PROVENANCE, num_trees=1, depth=2, fanout=1, seed=5)
        with pytest.raises(StoreError, match="cannot enter"):
            store.ingest("doc", prov)

    def test_query_many_matches_per_document_evaluation(self):
        store = DocumentStore(NATURAL)
        forests = {
            f"doc{i}": random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=10 + i)
            for i in range(3)
        }
        for doc_id, forest in forests.items():
            store.ingest(doc_id, forest)
        query = "element out { $S//c }"
        results = store.query_many(query)
        expected = [
            prepare_query(query, NATURAL, {"S": forest}).evaluate({"S": forest})
            for _, forest in sorted(forests.items())
        ]
        assert results == expected
        merged = store.query_many("$S//c", merge=True)
        single = None
        for forest in forests.values():
            part = prepare_query("$S//c", NATURAL, {"S": forest}).evaluate({"S": forest})
            single = part if single is None else single.union(part)
        assert merged == single

    def test_update_maintains_views(self):
        store = DocumentStore(NATURAL)
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=20)
        store.ingest("doc", forest)
        view = store.register_view("v", "$S//c", "doc")
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=21)
        store.update("doc", Delta.insertion(NATURAL, tree, 2))
        updated = store.forest("doc")
        prepared = prepare_query("$S//c", NATURAL, {"S": updated})
        assert view.result == prepared.evaluate({"S": updated})
        assert store.view("v") is view
        assert store.stats().updates == 1

    def test_replace_rebuilds_views(self):
        """Replacing a document re-materializes every view over it."""
        store = DocumentStore(NATURAL)
        first = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=22)
        second = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=23)
        store.ingest("doc", first)
        view = store.register_view("v", "$S//c", "doc")
        store.ingest("doc", second, replace=True)
        prepared = prepare_query("$S//c", NATURAL, {"S": second})
        rebuilt = store.view("v")
        assert rebuilt is not view  # re-materialized, not stale
        assert rebuilt.result == prepared.evaluate({"S": second})
        # Maintenance after the replace tracks the new document.
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=24)
        store.update("doc", Delta.insertion(NATURAL, tree, 2))
        updated = store.forest("doc")
        assert store.view("v").result == prepared.evaluate({"S": updated})

    def test_split_memo_keys_structurally(self):
        """Two distinct query ASTs that render identically must not share a
        cached split (``Query.__str__`` is not injective)."""
        from repro.uxquery.ast import LabelExpr, PathExpr, Step, VarExpr

        store = DocumentStore(NATURAL)
        forest = random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=26)
        store.ingest("doc", forest)
        path_query = PathExpr(VarExpr("S"), (Step("child", "a"),))
        label_query = LabelExpr(str(path_query))  # a label spelled "$S/child::a"
        assert str(label_query) == str(path_query)
        path_split = store._pushdown.split_for(
            store.plan_cache.get(path_query, NATURAL, env_types={"S": "forest"}), "S"
        )
        label_split = store._pushdown.split_for(
            store.plan_cache.get(label_query, NATURAL, env_types={"S": "forest"}), "S"
        )
        assert path_split.trivial
        # No document variable in a label literal: a residual without navigation.
        assert label_split.chains == () and label_split.residual == label_query
        # And the query results follow each AST's own semantics.
        prepared = prepare_query(path_query, NATURAL, env_types={"S": "forest"})
        assert store.query(path_query) == prepared.evaluate({"S": forest})
        assert store.query(label_query) == str(path_query)

    def test_split_cache_is_bounded(self):
        from repro.store.pushdown import PushdownExecutor

        store = DocumentStore(NATURAL)
        store.ingest("doc", random_forest(NATURAL, num_trees=1, depth=2, fanout=1, seed=25))
        bound = PushdownExecutor.SPLIT_CACHE_SIZE
        for index in range(bound + 10):
            store.query(f"$S//label{index}")
        assert len(store._pushdown._splits) <= bound

    def test_pushdown_vs_single_shot_on_suite_every_registry_semiring(self):
        for semiring in standard_semirings():
            store = DocumentStore(semiring)
            forest = random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=30)
            store.ingest("doc", forest)
            for name, query in standard_query_suite().items():
                prepared = prepare_query(query, semiring, {"S": forest})
                assert store.query(query) == prepared.evaluate({"S": forest}), (
                    semiring.name,
                    name,
                )
            stats = store.stats()
            assert stats.fallbacks == 0, semiring.name
            assert stats.pushdowns == stats.queries

    def test_mixed_chains_counted_as_pushdowns(self):
        store = DocumentStore(NATURAL)
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=31)
        store.ingest("doc", forest)
        query = "element out { ($S/a, $S//b) }"
        answer = store.query(query)
        assert answer == prepare_query(query, NATURAL, {"S": forest}).evaluate({"S": forest})
        stats = store.stats()
        assert stats.fallbacks == 0 and stats.pushdowns == 1

    def test_in_memory_store_cannot_compact(self):
        store = DocumentStore(NATURAL)
        with pytest.raises(StoreError, match="nothing to compact"):
            store.compact()

    def test_plan_cache_is_per_store(self):
        store = DocumentStore(NATURAL)
        store.ingest("doc", random_forest(NATURAL, num_trees=1, depth=2, fanout=1, seed=32))
        store.query("$S/*")
        store.query("$S/*")
        cache = store.plan_cache.stats()
        assert cache.compiles == 1 and cache.hits >= 1


class TestDurability:
    def test_open_requires_existing_or_semiring(self, tmp_path):
        with pytest.raises(StoreError, match="needs a semiring"):
            DocumentStore.open(tmp_path / "absent")

    def test_semiring_pinned_in_meta(self, tmp_path):
        DocumentStore(NATURAL, directory=tmp_path / "s")
        with pytest.raises(StoreError, match="is over"):
            DocumentStore(PROVENANCE, directory=tmp_path / "s")
        reopened = DocumentStore.open(tmp_path / "s")
        assert reopened.semiring == NATURAL

    def test_non_registry_semiring_cannot_be_durable(self, tmp_path):
        from repro.semirings import ProductSemiring
        from repro.semirings.boolean import BOOLEAN

        with pytest.raises(StoreError, match="not in the registry"):
            DocumentStore(ProductSemiring(BOOLEAN, NATURAL), directory=tmp_path / "p")

    def test_recovery_without_snapshot(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=40)
        store.ingest("doc", forest)
        store.register_view("v", "$S//c", "doc")
        store.update("doc", Delta.insertion(NATURAL, random_tree(NATURAL, depth=2, fanout=2, seed=41), 1))
        recovered = DocumentStore.open(tmp_path / "s")
        assert recovered.columns("doc") == store.columns("doc")
        assert recovered.forest("doc") == store.forest("doc")
        assert recovered.view("v").result == store.view("v").result
        assert recovered.stats().recovered_records == 3

    def test_compaction_truncates_and_recovery_uses_snapshot(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=42)
        store.ingest("doc", forest)
        store.compact()
        assert store.stats().wal_records == 0
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=43)
        store.update("doc", Delta.insertion(NATURAL, tree, 3))
        recovered = DocumentStore.open(tmp_path / "s")
        assert recovered.stats().recovered_records == 1  # only the tail update
        assert recovered.columns("doc") == store.columns("doc")

    def test_crash_between_snapshot_and_truncate_is_safe(self, tmp_path):
        """Old WAL records at or below the snapshot lsn are never re-applied."""
        from repro.store.snapshot import write_snapshot
        from repro.store.store import SNAPSHOT_FILE

        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=44)
        store.ingest("doc", forest)
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=45)
        store.update("doc", Delta.insertion(NATURAL, tree, 1))
        # Simulate the crash window: snapshot written, WAL left untruncated.
        write_snapshot(
            (tmp_path / "s") / SNAPSHOT_FILE,
            semiring_name="natural",
            wal_lsn=2,
            documents={"doc": store.columns("doc")},
            views=[],
        )
        recovered = DocumentStore.open(tmp_path / "s")
        assert recovered.stats().recovered_records == 0
        assert recovered.columns("doc") == store.columns("doc")

    def test_torn_tail_recovers_prefix(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s")
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=46)
        store.ingest("doc", forest)
        columns_before = store.columns("doc")
        with open(tmp_path / "s" / "wal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"op": "update", "doc": "doc", "chan')  # torn append
        recovered = DocumentStore.open(tmp_path / "s")
        assert recovered.columns("doc") == columns_before

    def test_update_from_reopened_store_after_compaction(self, tmp_path):
        """lsns stay monotone across processes, not just within one.

        Regression: a reopened store sees a truncated (empty) WAL; its next
        record must be numbered past the snapshot's high-water mark, or the
        following recovery would skip it as already-snapshotted and silently
        lose the update.
        """
        first = DocumentStore(NATURAL, directory=tmp_path / "s")
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=50)
        first.ingest("doc", forest)
        first.update(
            "doc", Delta.insertion(NATURAL, random_tree(NATURAL, depth=2, fanout=1, seed=51), 1)
        )
        first.compact()
        # "Another process": a fresh store over the same directory.
        second = DocumentStore.open(tmp_path / "s")
        tree = random_tree(NATURAL, depth=2, fanout=2, seed=52)
        second.update("doc", Delta.insertion(NATURAL, tree, 4))
        # And a third recovery must see the second process's update.
        third = DocumentStore.open(tmp_path / "s")
        assert third.stats().recovered_records == 1
        assert third.columns("doc") == second.columns("doc")
        assert tree in third.forest("doc")

    def test_auto_compaction(self, tmp_path):
        store = DocumentStore(NATURAL, directory=tmp_path / "s", snapshot_every=3)
        forest = random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=47)
        store.ingest("doc", forest)
        for seed in (48, 49):
            store.update(
                "doc",
                Delta.insertion(NATURAL, random_tree(NATURAL, depth=2, fanout=2, seed=seed), 1),
            )
        stats = store.stats()
        assert stats.snapshots == 1
        assert stats.wal_records == 0


class TestRecoveryInvariant:
    """Snapshot + WAL replay == the uninterrupted store, bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_streams_every_registry_semiring(self, tmp_path, seed):
        # Enumerate: other tests may register extra factories whose semirings
        # share a .name, so the name alone is not a unique directory key.
        for position, semiring in enumerate(standard_semirings()):
            rng = random.Random(seed * 1001 + 7)
            counter = [0]
            directory = tmp_path / f"{position}-{semiring.name}-{seed}"
            live = DocumentStore(semiring, directory=directory)
            forest = random_forest(
                semiring, num_trees=3, depth=3, fanout=2, seed=seed
            )
            live.ingest("doc", forest)
            live.register_view("hits", "$S//c", "doc")
            live.register_view("pairs", SELF_JOIN, "doc")
            compact_at = rng.randrange(8)
            for step in range(8):
                if step == compact_at:
                    live.compact()
                delta = _random_delta(semiring, live.forest("doc"), rng, counter)
                live.update("doc", delta)

            recovered = DocumentStore.open(directory)
            # Bit-identical columns and annotations...
            assert recovered.columns("doc") == live.columns("doc"), semiring.name
            assert recovered.forest("doc") == live.forest("doc"), semiring.name
            # ... and registered view caches, both equal to re-evaluation on
            # the final document.
            for name, query in (("hits", "$S//c"), ("pairs", SELF_JOIN)):
                assert (
                    recovered.view(name).result == live.view(name).result
                ), (name, semiring.name)
                prepared = prepare_query(query, semiring, env_types={"S": "forest"})
                assert recovered.view(name).result == prepared.evaluate(
                    {"S": recovered.forest("doc")}
                ), (name, semiring.name)
            if semiring.supports_subtraction:
                # WAL replay maintains the self-join by the counting split.
                assert live.view("pairs").stats().recomputes == 0, semiring.name
                assert recovered.view("pairs").stats().recomputes == 0, semiring.name


class TestCodegenServing:
    """The store's serving paths execute source-generated programs: the
    pushdown residual (one chain or several), for ``query`` and every
    document of ``query_many``, compiles through the engine's two-stage
    pipeline (observable on the plans' execution counters)."""

    def test_residual_plan_executes_generated_code(self):
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=61)
        store = DocumentStore(NATURAL)
        store.ingest("doc", forest)
        query = "element out { $S/*/* }"
        answer = store.query(query)
        prepared = prepare_query(query, NATURAL, {"S": forest})
        assert answer == prepared.evaluate({"S": forest})
        assert store.stats().pushdowns == 1
        # The residual (element out { $__nav }) was compiled in the store's
        # plan cache and ran as generated bytecode.
        residuals = [
            plan
            for plan in store.plan_cache._plans.values()
            if "__nav" in str(plan.surface)
        ]
        assert residuals and residuals[0].generated is not None
        assert residuals[0].generated.calls > 0

    def test_mixed_chain_residual_executes_generated_code(self):
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=62)
        store = DocumentStore(NATURAL)
        store.ingest("doc", forest)
        # Mixed chains are navigated one by one; the residual combining them
        # runs as generated code, and the unmodified plan never runs.
        query = "element out { ($S/a, $S/b/c) }"
        answer = store.query(query)
        prepared = prepare_query(query, NATURAL, {"S": forest})
        assert answer == prepared.evaluate({"S": forest})
        assert store.stats().fallbacks == 0
        cached = store.plan_cache.get(query, NATURAL, env_types={"S": "forest"})
        assert cached.generated is not None and cached.generated.calls == 0
        [residual] = [
            plan for plan in store.plan_cache._plans.values() if "__nav" in str(plan.surface)
        ]
        assert str(residual.surface) == "element out {($__nav0, $__nav1)}"
        assert residual.generated is not None and residual.generated.calls > 0

    def test_plans_served_from_the_index_are_never_compiled(self):
        """The store runs residuals, never the user's plan, so preparing it
        stops at the core form: no NRC compilation, simplification, closures
        or codegen for a program that would not run."""
        forest = random_forest(NATURAL, num_trees=3, depth=3, fanout=2, seed=63)
        store = DocumentStore(NATURAL)
        store.ingest("doc", forest)
        for query in ("$S//c", "element out { $S/*/c }", "element out { ($S/a, $S//c) }"):
            answer = store.query(query)
            plan = store.plan_cache.get(query, NATURAL, env_types={"S": "forest"})
            assert set(plan.stage_timings) == {"parse", "typecheck", "normalize"}, query
            assert answer == plan.evaluate({"S": forest})  # compiles on first use
            assert {"simplify", "codegen"} <= set(plan.stage_timings), query

    def test_query_many_batches_generated_code(self):
        """``query_many`` serves each document as ``query`` does: the user's
        plan is never compiled, and a residual runs as generated code once
        per document."""
        store = DocumentStore(NATURAL)
        for index in range(3):
            store.ingest(
                f"doc{index}",
                random_forest(NATURAL, num_trees=2, depth=3, fanout=2, seed=70 + index),
            )
        for query in ("($S)/*/*", "element out { $S/*/* }"):
            results = store.query_many(query)
            for doc_id, result in zip(store.document_ids(), results):
                forest = store.forest(doc_id)
                assert result == prepare_query(query, NATURAL, {"S": forest}).evaluate(
                    {"S": forest}
                )
            cached = store.plan_cache.get(query, NATURAL, env_types={"S": "forest"})
            assert set(cached.stage_timings) == {"parse", "typecheck", "normalize"}, query
        [residual] = [
            plan for plan in store.plan_cache._plans.values() if "__nav" in str(plan.surface)
        ]
        assert residual.generated is not None and residual.generated.calls == 3


class TestQueryManyFromTheIndex:
    """``query_many`` serves every document from the index, as ``query``
    does, and equals per-document single-shot evaluation (merged: their
    union) for every registry semiring."""

    #: query text -> whether it needs ``$T`` bound in the environment.
    QUERIES = {
        "($S)//c": False,  # full pushdown
        "for $x in $S/* return ($x)/*": False,  # one chain and a residual
        "($S/a, $S//c)": False,  # two chains
        "($S, $T)/*": True,  # a residual reading the environment
        "$T/*": True,  # no $S at all: a residual with no navigation
    }

    @pytest.mark.parametrize("semiring", list(standard_semirings()), ids=lambda s: s.name)
    def test_equals_per_document_single_shot(self, semiring):
        forests = {
            f"d{index}": random_forest(semiring, num_trees=3, depth=3, fanout=2, seed=90 + index)
            for index in range(4)
        }
        store = DocumentStore(semiring)
        for doc_id, forest in forests.items():
            store.ingest(doc_id, forest)
        constant = random_forest(semiring, num_trees=2, depth=2, fanout=2, seed=99)
        for query, uses_env in self.QUERIES.items():
            env = {"T": constant} if uses_env else None
            env_types = {"S": "forest", "T": "forest"} if uses_env else {"S": "forest"}
            reference = prepare_query(query, semiring, env_types=env_types)
            for doc_ids in (None, ["d3", "d1"]):
                ids = doc_ids or sorted(forests)
                single = [
                    reference.evaluate({**(env or {}), "S": forests[doc_id]}) for doc_id in ids
                ]
                union = single[0]
                for part in single[1:]:
                    union = union.union(part)
                before = store.stats().pushdowns
                assert store.query_many(query, doc_ids, env=env) == single, query
                assert store.query_many(query, doc_ids, env=env, merge=True) == union, query
                # One pushdown per document served, merged or not.
                assert store.stats().pushdowns == before + 2 * len(ids)
            plan = store.plan_cache.get(query, semiring, env_types=env_types)
            assert set(plan.stage_timings) == {"parse", "typecheck", "normalize"}, query

    def test_merging_a_non_forest_result_raises(self):
        from repro.errors import ExecError

        store = DocumentStore(NATURAL)
        store.ingest("d0", random_forest(NATURAL, num_trees=2, depth=2, fanout=2, seed=97))
        assert len(store.query_many("element out { $S/* }")) == 1
        with pytest.raises(ExecError, match="K-set results"):
            store.query_many("element out { $S/* }", merge=True)


class TestViewsByNavigation:
    """A store view's initial result comes from the indexes and its
    residual, never from the view's own plan: at registration and at every
    open (snapshot load and WAL replay)."""

    VIEWS = {
        "hits": "$S//c",  # full pushdown; the plan itself runs closures (srt)
        "wrapped": "element out { $S/*/* }",  # residual; the plan is codegen
        "mixed": "element out { ($S/a, $S//c) }",  # two chains
        "pairs": "for $x in $S, $y in $S where $x = $y return ($x)/*",
    }

    @staticmethod
    def _count_runs(plan, runs):
        """Count every execution of ``plan``'s closure tree and generated
        program (``generated.calls`` only counts the latter)."""
        programs = [plan.compiled] + ([plan.generated] if plan.generated else [])
        for program in programs:
            run = program._run

            def counted(frame, run=run):
                runs.append(plan)
                return run(frame)

            program._run = counted

    def test_views_materialize_without_running_their_plan(self, tmp_path):
        from repro.exec.plan_cache import PlanCache

        cache = PlanCache(maxsize=64)
        forest = random_forest(PROVENANCE, num_trees=4, depth=3, fanout=2, seed=81)
        store = DocumentStore(PROVENANCE, directory=tmp_path / "s", plan_cache=cache)
        store.ingest("doc", forest)
        runs: list = []
        plans = {}
        for name, query in self.VIEWS.items():
            plans[name] = cache.get(query, PROVENANCE, env_types={"S": "forest"})
            self._count_runs(plans[name], runs)
        calls = {name: plan.generated.calls for name, plan in plans.items() if plan.generated}
        for name, query in self.VIEWS.items():
            store.register_view(name, query, "doc")
            if name == "wrapped":
                store.compact()  # the views after it replay from the WAL
        assert runs == []
        assert calls == {name: plan.generated.calls for name, plan in plans.items() if plan.generated}
        tree = random_tree(PROVENANCE, 3, 2, seed=82)
        store.update("doc", Delta.insertion(PROVENANCE, tree, PROVENANCE.one))
        reopened = DocumentStore.open(tmp_path / "s", plan_cache=cache)
        # Only a recompute runs a view's plan: the update's, live and replayed.
        recomputed = [
            plans[name]
            for each in (store, reopened)
            for name in self.VIEWS
            if each.view(name).stats().recomputes
        ]
        assert sorted(map(id, runs)) == sorted(map(id, recomputed))
        reference = store.forest("doc")
        for name, query in self.VIEWS.items():
            expected = prepare_query(query, PROVENANCE, {"S": reference}).evaluate({"S": reference})
            assert store.view(name).result == expected, name
            assert reopened.view(name).result == expected, name
        # View materializations are not queries.
        assert reopened.stats().pushdowns == reopened.stats().queries == 0
        reopened.query("element out { ($S/a, $S//b) }")
        assert reopened.stats().pushdown_rate == 1.0
