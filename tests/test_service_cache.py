"""Tests for the serving layer: canonical keys, the LRU cache, wiring.

Covers the acceptance bar of the cache subsystem: relabeled-but-identical
models/patterns collide on their canonical keys, cache-on and cache-off
evaluation agree across every exact solver path, the LRU evicts at
capacity, and ``PreferenceService.answer_many`` matches sequential
``answer`` output.
"""

import numpy as np
import pytest

from repro.api import answer
from repro.db.database import PPDatabase
from repro.db.examples import polling_example
from repro.db.schema import ORelation, PRelation
from repro.patterns.labels import Labeling
from repro.patterns.pattern import LabelPattern, node
from repro.patterns.union import PatternUnion
from repro.query.parser import parse_query
from repro.rim.mallows import Mallows
from repro.rim.mixture import MallowsMixture
from repro.rim.model import RIM
from repro.service import SolverCache, session_cache_key, solve_cache_key
from repro.service.service import PreferenceService
from repro.solvers.dispatch import solve

EXACT_METHODS = ("auto", "two_label", "bipartite", "general", "lifted", "brute")


@pytest.fixture
def db():
    return polling_example()


# ----------------------------------------------------------------------
# Canonical forms (freeze hooks)
# ----------------------------------------------------------------------


class TestModelFreeze:
    def test_equal_mallows_instances_collide(self):
        a = Mallows(["x", "y", "z"], 0.4)
        b = Mallows(["x", "y", "z"], 0.4)
        assert a is not b
        assert a.freeze() == b.freeze()

    def test_mallows_parameters_distinguish(self):
        base = Mallows(["x", "y", "z"], 0.4)
        assert base.freeze() != Mallows(["x", "y", "z"], 0.5).freeze()
        assert base.freeze() != Mallows(["x", "z", "y"], 0.4).freeze()

    def test_rim_freeze_tracks_pi(self):
        a = RIM.uniform(["x", "y", "z"])
        b = RIM.uniform(["x", "y", "z"])
        assert a.freeze() == b.freeze()
        assert a.freeze() != Mallows(["x", "y", "z"], 0.3).freeze()

    def test_mixture_component_order_is_normalized(self):
        a = Mallows(["x", "y", "z"], 0.3)
        b = Mallows(["z", "y", "x"], 0.5)
        forward = MallowsMixture([a, b], [0.3, 0.7])
        backward = MallowsMixture([b, a], [0.7, 0.3])
        split = MallowsMixture([a, a, b], [0.15, 0.15, 0.7])
        assert forward.freeze() == backward.freeze() == split.freeze()
        reweighted = MallowsMixture([a, b], [0.4, 0.6])
        assert forward.freeze() != reweighted.freeze()

    def test_singleton_mixture_collides_with_plain_mallows(self):
        a = Mallows(["x", "y", "z"], 0.3)
        assert MallowsMixture([a], [1.0]).freeze() == a.freeze()


class TestPatternCanonicalForm:
    def test_renamed_nodes_collide(self):
        original = LabelPattern([(node("c1", "F"), node("c2", "M"))])
        renamed = LabelPattern([(node("left", "F"), node("right", "M"))])
        assert original.canonical_form() == renamed.canonical_form()

    def test_edge_direction_distinguishes(self):
        forward = LabelPattern([(node("a", "F"), node("b", "M"))])
        backward = LabelPattern([(node("a", "M"), node("b", "F"))])
        assert forward.canonical_form() != backward.canonical_form()

    def test_same_label_multiset_different_shape(self):
        chain = LabelPattern(
            [(node("a", "X"), node("b", "X")), (node("b", "X"), node("c", "X"))]
        )
        fork = LabelPattern(
            [(node("a", "X"), node("b", "X")), (node("a", "X"), node("c", "X"))]
        )
        assert chain.canonical_form() != fork.canonical_form()

    def test_identical_label_nodes_renamed(self):
        one = LabelPattern([(node("a", "F"), node("b", "F"))])
        other = LabelPattern([(node("u", "F"), node("v", "F"))])
        assert one.canonical_form() == other.canonical_form()

    def test_relabeled_helper_collides(self):
        pattern = LabelPattern(
            [(node("a", "F"), node("b", "M")), (node("a", "F"), node("c", "D"))]
        )
        assert pattern.canonical_form() == pattern.relabeled("&0").canonical_form()

    def test_union_is_order_and_name_invariant(self):
        fm = LabelPattern([(node("c1", "F"), node("c2", "M"))])
        dd = LabelPattern([(node("c3", "D"), node("c4", "D"))])
        fm_renamed = LabelPattern([(node("x", "F"), node("y", "M"))])
        assert (
            PatternUnion([fm, dd]).freeze()
            == PatternUnion([dd, fm_renamed]).freeze()
        )
        assert PatternUnion([fm]).freeze() != PatternUnion([fm, dd]).freeze()


class TestLabelingFreeze:
    def test_item_order_is_normalized(self):
        a = Labeling({"t": {"M"}, "c": {"F"}})
        b = Labeling({"c": {"F"}, "t": {"M"}})
        assert a.freeze() == b.freeze()

    def test_projection_ignores_irrelevant_labels(self):
        a = Labeling({"t": {"M", "R"}, "c": {"F", "D"}})
        b = Labeling({"t": {"M", "other"}, "c": {"F"}})
        assert a.freeze({"M", "F"}) == b.freeze({"M", "F"})
        assert a.freeze() != b.freeze()

    def test_item_universe_matters(self):
        # An extra (even unlabeled) item changes what wildcard nodes match.
        small = Labeling({"t": {"M"}, "c": {"F"}})
        large = Labeling({"t": {"M"}, "c": {"F"}, "x": set()})
        assert small.freeze({"M", "F"}) != large.freeze({"M", "F"})


class TestRequestKeys:
    def test_equivalent_requests_collide(self):
        labeling = Labeling({"t": {"M"}, "c": {"F"}, "s": {"M"}})
        union = PatternUnion([LabelPattern([(node("a", "F"), node("b", "M"))])])
        renamed = PatternUnion([LabelPattern([(node("p", "F"), node("q", "M"))])])
        key1 = solve_cache_key(
            Mallows(["c", "s", "t"], 0.3), labeling, union, "auto"
        )
        key2 = solve_cache_key(
            Mallows(["c", "s", "t"], 0.3), labeling, renamed, "two_label"
        )
        assert key1 == key2  # auto resolves to two_label for this union

    def test_session_and_solve_keys_are_disjoint(self):
        labeling = Labeling({"t": {"M"}, "c": {"F"}})
        union = PatternUnion([LabelPattern([(node("a", "F"), node("b", "M"))])])
        model = Mallows(["c", "t"], 0.3)
        assert solve_cache_key(model, labeling, union) != session_cache_key(
            model, labeling, union
        )

    def test_options_distinguish(self):
        labeling = Labeling({"t": {"M"}, "c": {"F"}})
        union = PatternUnion([LabelPattern([(node("a", "F"), node("b", "M"))])])
        model = Mallows(["c", "t"], 0.3)
        plain = solve_cache_key(model, labeling, union, "lifted")
        tuned = solve_cache_key(
            model, labeling, union, "lifted", {"merge_gaps": False}
        )
        assert plain != tuned


# ----------------------------------------------------------------------
# The LRU cache
# ----------------------------------------------------------------------


class TestSolverCache:
    def test_hit_miss_counting(self):
        cache = SolverCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_at_capacity(self):
        cache = SolverCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats().evictions == 1
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_get_refreshes_recency(self):
        cache = SolverCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "a" becomes most recent; "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_get_or_compute_computes_once(self):
        cache = SolverCache(capacity=2)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SolverCache(capacity=0)

    def test_get_or_compute_single_flight_under_contention(self):
        # Regression: concurrent misses on ONE key used to race past the
        # documented check-then-compute window and each run compute().
        # With per-key in-flight events, a barrier-synchronized pool of
        # threads releases exactly one compute; the rest block and read
        # the published value.
        import threading
        from concurrent.futures import ThreadPoolExecutor

        n_threads = 8
        cache = SolverCache(capacity=4)
        barrier = threading.Barrier(n_threads)
        calls = []
        calls_lock = threading.Lock()

        def compute():
            with calls_lock:
                calls.append(threading.get_ident())
            return "value"

        def contend():
            barrier.wait()  # all threads miss at the same instant
            return cache.get_or_compute("hot", compute)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(lambda _: contend(), range(n_threads)))
        assert results == ["value"] * n_threads
        assert len(calls) == 1

    def test_get_or_compute_failed_owner_does_not_strand_waiters(self):
        import threading

        cache = SolverCache(capacity=4)
        entered = threading.Event()
        release = threading.Event()
        outcome = []

        def failing():
            entered.set()
            release.wait(5.0)
            raise RuntimeError("solver blew up")

        def owner():
            try:
                cache.get_or_compute("k", failing)
            except RuntimeError:
                outcome.append("raised")

        def waiter():
            entered.wait(5.0)
            outcome.append(cache.get_or_compute("k", lambda: "recovered"))

        threads = [
            threading.Thread(target=owner),
            threading.Thread(target=waiter),
        ]
        threads[0].start()
        entered.wait(5.0)
        threads[1].start()
        release.set()
        for thread in threads:
            thread.join(5.0)
        assert "raised" in outcome
        assert "recovered" in outcome

    def test_put_many_takes_the_lock_once(self):
        # The batch flush contract: ONE outer lock acquisition for the
        # whole batch (re-entrant re-entries inside it are free), not one
        # per entry — so a flush never interleaves with readers.
        import threading

        class CountingRLock:
            """Counts acquisitions made while the lock was not yet held."""

            def __init__(self):
                self._inner = threading.RLock()
                self._depth = 0
                self.outer_acquisitions = 0

            def __enter__(self):
                entered = self._inner.__enter__()
                if self._depth == 0:
                    self.outer_acquisitions += 1
                self._depth += 1
                return entered

            def __exit__(self, *exc_info):
                self._depth -= 1
                return self._inner.__exit__(*exc_info)

        cache = SolverCache(capacity=64)
        lock = CountingRLock()
        cache._lock = lock
        cache.put_many([(f"k{i}", i) for i in range(50)])
        assert len(cache) == 50
        assert lock.outer_acquisitions == 1


# ----------------------------------------------------------------------
# Engine and dispatch wiring
# ----------------------------------------------------------------------


class TestEngineCache:
    QUERY = "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)"

    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_cache_on_equals_cache_off(self, db, method):
        query = parse_query(self.QUERY)
        reference = answer(query, db, method=method)
        cache = SolverCache(64)
        cold = answer(query, db, method=method, cache=cache)
        warm = answer(query, db, method=method, cache=cache)
        assert abs(cold.probability - reference.probability) <= 1e-12
        assert abs(warm.probability - reference.probability) <= 1e-12
        assert warm.stats["n_solver_calls"] == 0
        assert warm.stats["cache_hits"] == warm.stats["n_groups"]

    def test_cache_hits_across_different_query_texts(self, db):
        # Different syntax, same compiled (model, union) request.
        cache = SolverCache(64)
        direct = answer(
            parse_query("P('Ann', '5/5'; 'Trump'; 'Clinton')"), db, cache=cache
        )
        via_comparison = answer(
            parse_query("P(v, '5/5'; 'Trump'; 'Clinton'), v = 'Ann'"),
            db,
            cache=cache,
        )
        assert direct.stats["n_solver_calls"] == 1
        assert via_comparison.stats["n_solver_calls"] == 0
        assert via_comparison.probability == direct.probability

    def test_mixture_sessions_are_cached(self):
        components = [
            Mallows(["a", "b", "c"], 0.3),
            Mallows(["c", "b", "a"], 0.6),
        ]
        mixture = MallowsMixture(components, [0.4, 0.6])
        db = PPDatabase(
            orelations=[
                ORelation("C", ["item", "kind"], [("a", "X"), ("b", "Y"), ("c", "Y")])
            ],
            prelations=[
                PRelation(
                    "P",
                    ["user"],
                    # Distinct but identically-parameterized mixture objects:
                    # id()-based grouping cannot merge them, the cache can.
                    {
                        ("u1",): mixture,
                        ("u2",): MallowsMixture(components, [0.4, 0.6]),
                    },
                )
            ],
        )
        query = parse_query("P(_; i; j), C(i, 'X'), C(j, 'Y')")
        cache = SolverCache(64)
        reference = answer(query, db)
        cold = answer(query, db, cache=cache)
        warm = answer(query, db, cache=cache)
        assert abs(cold.probability - reference.probability) <= 1e-12
        assert cold.stats["n_solver_calls"] == 1  # the two mixtures share one key
        assert warm.stats["n_solver_calls"] == 0

    def test_approximate_methods_bypass_cache(self, db):
        cache = SolverCache(64)
        rng = np.random.default_rng(3)
        first = answer(
            parse_query(self.QUERY), db, method="mis_amp_adaptive", rng=rng,
            cache=cache, n_per_proposal=50,
        )
        assert first.stats["n_solver_calls"] > 0
        assert len(cache) == 0

    def test_grouping_disabled_bypasses_cache(self, db):
        # group_sessions=False is the naive ablation baseline (Fig. 15);
        # a cache must not silently reintroduce session dedup there.
        cache = SolverCache(64)
        query = parse_query(self.QUERY)
        cold = answer(query, db, cache=cache, group_sessions=False)
        warm = answer(query, db, cache=cache, group_sessions=False)
        assert cold.stats["n_solver_calls"] == cold.n_sessions
        assert warm.stats["n_solver_calls"] == warm.n_sessions
        assert len(cache) == 0
        assert abs(warm.probability - cold.probability) <= 1e-12


class TestDispatchCache:
    def test_solve_returns_cached_result(self):
        model = Mallows(["c", "s", "t"], 0.3)
        labeling = Labeling({"c": {"F"}, "s": {"M"}, "t": {"M"}})
        union = PatternUnion([LabelPattern([(node("a", "F"), node("b", "M"))])])
        cache = SolverCache(8)
        first = solve(model, labeling, union, cache=cache)
        renamed = PatternUnion([LabelPattern([(node("x", "F"), node("y", "M"))])])
        second = solve(
            Mallows(["c", "s", "t"], 0.3), labeling, renamed, cache=cache
        )
        assert second is first  # the exact cached object
        assert cache.stats().hits == 1
        uncached = solve(model, labeling, union)
        assert abs(uncached.probability - first.probability) <= 1e-12


# ----------------------------------------------------------------------
# The batch service
# ----------------------------------------------------------------------


class TestPreferenceService:
    QUERIES = (
        "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), C(c2, 'R', _, _, e, _)",
        "P('Ann', '5/5'; 'Trump'; 'Clinton')",
        "P(_, _; c1; c2), C(c1, _, 'F', _, _, _), C(c2, _, 'M', _, _, _)",
        "P(_, _; c1; c2), C(c1, 'Green', _, _, _, _)",  # unsatisfiable
    )

    @pytest.mark.parametrize("method", ("auto", "lifted"))
    def test_answer_many_matches_sequential_answer(self, db, method):
        service = PreferenceService(method=method)
        batch = service.answer_many(self.QUERIES, db)
        for text, result in zip(self.QUERIES, batch):
            sequential = answer(parse_query(text), db, method=method)
            assert abs(result.probability - sequential.probability) <= 1e-12
            assert result.n_sessions == sequential.n_sessions
            for ours, theirs in zip(result.per_session, sequential.per_session):
                assert ours.key == theirs.key
                assert abs(ours.probability - theirs.probability) <= 1e-12

    def test_second_batch_is_all_cache_hits(self, db):
        service = PreferenceService()
        cold = service.answer_many(self.QUERIES, db)
        warm = service.answer_many(self.QUERIES, db)
        assert cold.n_cache_hits == 0
        assert warm.n_distinct_solves == 0
        assert warm.n_cache_hits == cold.n_distinct_solves
        assert warm.values == cold.values

    def test_threads_sharing_the_default_cache_solve_each_key_once(self):
        # Two threads answer one cold batch through one service: the
        # default cache's flight table lets one thread solve each key
        # while the other waits for it, so together they solve the batch
        # once.
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.__main__ import batch_queries
        from repro.datasets.crowdrank import crowdrank_database

        db = crowdrank_database(n_workers=60, n_movies=8, seed=3)
        queries = batch_queries(8)
        once = PreferenceService().answer_many(queries, db)
        service = PreferenceService()
        barrier = threading.Barrier(2)

        def run(_):
            barrier.wait(10.0)
            return service.answer_many(queries, db)

        with ThreadPoolExecutor(max_workers=2) as pool:
            batches = list(pool.map(run, range(2)))
        assert once.n_distinct_solves > 0
        assert (
            sum(batch.n_distinct_solves for batch in batches)
            == once.n_distinct_solves
        )
        for batch in batches:
            assert batch.values == once.values

    def test_worker_pool_matches_serial(self, db):
        serial = PreferenceService(max_workers=1).answer_many(self.QUERIES, db)
        threaded = PreferenceService(max_workers=4).answer_many(
            self.QUERIES, db
        )
        assert threaded.values == pytest.approx(serial.values, abs=1e-12)

    def test_single_query_answer_uses_shared_cache(self, db):
        service = PreferenceService()
        first = service.answer(self.QUERIES[0], db)
        second = service.answer(self.QUERIES[0], db)
        assert first.stats["n_solver_calls"] > 0
        assert second.stats["n_solver_calls"] == 0
        assert second.probability == first.probability

    def test_unsatisfiable_query_probability_zero(self, db):
        batch = PreferenceService().answer_many([self.QUERIES[3]], db)
        # Matches the engine: numerically zero (inclusion-exclusion noise).
        assert batch.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_approximate_method_falls_back_to_sequential(self, db):
        service = PreferenceService(method="mis_amp_adaptive")
        rng = np.random.default_rng(5)
        batch = service.answer_many(
            self.QUERIES[:2], db, rng=rng, n_per_proposal=50
        )
        assert batch.n_cache_hits == 0
        assert all(0.0 <= p <= 1.0 for p in batch.values)

    def test_accepts_parsed_queries(self, db):
        query = parse_query(self.QUERIES[1])
        batch = PreferenceService().answer_many([query], db)
        reference = answer(query, db)
        assert abs(batch.values[0] - reference.probability) <= 1e-12
