"""The configuration matrix: every way to get an answer gives the same one.

Every request kind (P, COUNT, TOPK with both strategies, AGG) is answered
through each execution backend (serial, thread, process) over each cache
tier (none, LRU, persistent, embedded shards, an attached shard server),
each cache cell cold and then warm.  Three more cells take other routes:
one answer at a time, the unoptimized plan, and standing queries kept
fresh by a session update and its revert.  Every cell must be
bit-identical (``answers_equal``) to every other cell, and within 1e-9 of
the brute-force solver.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.api import Aggregate, Count, Probability, TopK, answer, answer_many
from repro.datasets.crowdrank import crowdrank_database
from repro.db.mutable import MutablePPDatabase
from repro.service.cache import SolverCache
from repro.service.executors import ProcessBackend, SerialBackend, ThreadBackend
from repro.service.shard import ShardCacheServer, ShardGroup, ShardedSolverCache
from repro.stream.standing import StandingQueryEngine, answers_equal

#: An itemwise two-label query, and a session-joined two-hop query that
#: the general solver answers.
QUERIES = (
    "P(v; m1; m2), M(m1, _, 'F', _, _), M(m2, 'Thriller', _, _, _)",
    "P(v; m1; m2), P(v; m2; m3), V(v, sex, _), M(m1, _, sex, _, _), "
    "M(m3, _, _, _, 'long')",
)

REQUESTS = tuple(
    request
    for query in QUERIES
    for request in (
        Probability(query),
        Count(query),
        TopK(query, k=3, strategy="naive"),
        TopK(query, k=3, strategy="upper_bound"),
        Aggregate(query, relation="V", column="age"),
    )
)

CACHES = ("none", "lru", "persistent", "shard-embedded", "shard-attached")


@pytest.fixture(scope="module")
def db():
    return crowdrank_database(n_workers=14, n_movies=5, seed=29)


@pytest.fixture(scope="module")
def backends():
    # One process backend serves every process cell.
    return {
        "serial": SerialBackend(),
        "thread": ThreadBackend(max_workers=2),
        "process": ProcessBackend(max_workers=2),
    }


@pytest.fixture(scope="module")
def reference(db):
    return answer_many(REQUESTS, db)


def _open_cache(kind, tmp_path, stack):
    """A fresh cache of ``kind``; ``stack`` closes what it opens."""
    if kind == "none":
        return None
    if kind == "lru":
        return SolverCache(64)
    if kind == "persistent":
        cache = SolverCache(
            64, tier=ShardGroup(1, cache_db=tmp_path / "matrix.sqlite")
        )
    elif kind == "shard-embedded":
        cache = ShardedSolverCache(64, n_shards=2)
    else:
        server = stack.enter_context(ShardCacheServer(n_shards=2))
        cache = ShardedSolverCache(64, address=server.address)
    stack.callback(cache.close)
    return cache


def assert_same(answers, reference):
    assert len(answers) == len(reference)
    for ours, theirs in zip(answers, reference):
        assert answers_equal(ours, theirs), (ours.kind, ours.value, theirs.value)


@pytest.mark.parametrize("cache_kind", CACHES)
@pytest.mark.parametrize("backend_name", ("serial", "thread", "process"))
def test_backend_by_cache(db, backends, reference, tmp_path, backend_name,
                          cache_kind):
    with contextlib.ExitStack() as stack:
        cache = _open_cache(cache_kind, tmp_path, stack)
        backend = backends[backend_name]
        cold = answer_many(REQUESTS, db, cache=cache, backend=backend)
        warm = answer_many(REQUESTS, db, cache=cache, backend=backend)
    assert_same(cold, reference)
    assert_same(warm, reference)
    if cache is not None:
        assert cold.n_distinct_solves > 0
        assert warm.n_distinct_solves == 0


def test_single_requests(db, reference):
    cache = SolverCache(64)
    for _ in range(2):  # cold, then warm
        assert_same([answer(one, db, cache=cache) for one in REQUESTS],
                    reference)


def test_unoptimized_plan(db, reference):
    assert_same([answer(one, db, optimize=False) for one in REQUESTS],
                reference)


def test_standing_queries_after_update_and_revert(db, reference):
    live = MutablePPDatabase.from_database(db)
    relation = live.prelation("P")
    first, *others = relation.session_keys()
    original = relation.model_of(first)
    replacement = next(
        relation.model_of(key) for key in others
        if relation.model_of(key).freeze() != original.freeze()
    )
    engine = StandingQueryEngine(live, cache=SolverCache(64))
    # Register against a changed session, then revert it: the refresh
    # materializes the answers incrementally through the warm cache.
    live.update_session("P", first, replacement)
    registered = [engine.register(one) for one in REQUESTS]
    changed = [standing.answer for standing in registered]
    assert not all(map(answers_equal, changed, reference))
    live.update_session("P", first, original)
    assert_same([standing.answer for standing in registered], reference)


def test_reference_covers_the_interesting_paths(reference):
    assert {one.kind for one in reference} == {
        "probability", "count", "top_k", "aggregate",
    }
    assert {"two_label", "general"} <= {
        method for one in reference for method in one.methods
    }
    pruned = [one for one in reference if one.request.kind == "top_k"
              and one.request.strategy == "upper_bound"]
    assert all(one.stats["n_pruned"] > 0 for one in pruned)


def test_within_tolerance_of_brute_force(db, reference):
    brute = answer_many(REQUESTS, db, method="brute")
    for ours, exact in zip(reference, brute):
        assert ours.kind == exact.kind
        assert [e.key for e in ours.per_session] == [
            e.key for e in exact.per_session
        ]
        for mine, theirs in zip(ours.per_session, exact.per_session):
            assert mine.probability == pytest.approx(theirs.probability,
                                                     abs=1e-9)
        if ours.kind == "top_k":
            assert [p for _, p in ours.value] == pytest.approx(
                [p for _, p in exact.value], abs=1e-9
            )
        else:
            assert ours.value == pytest.approx(exact.value, abs=1e-9)
