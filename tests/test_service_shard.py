"""Tests for the sharded shared-cache tier (:mod:`repro.service.shard`).

Covers the tentpole contract: stable key partitioning, per-shard LRU and
write-back semantics, the cache-server protocol (including the version
handshake and fleet-wide single-flight), the drop-in
:class:`ShardedSolverCache`, warm-fleet restarts performing zero solves,
and bit-identity of sharded vs. unsharded answers on a seeded mixed-kind
corpus.
"""

import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets.crowdrank import crowdrank_database
from repro.service.cache import SolverCache, Tier
from repro.service.persist import default_version, encode_key
from repro.service.service import PreferenceService
from repro.service.shard import (
    ShardCacheServer,
    ShardClient,
    ShardGroup,
    ShardProtocolError,
    ShardedSolverCache,
    shard_db_path,
    shard_of,
)


@pytest.fixture
def db():
    return crowdrank_database(n_workers=30, n_movies=6, seed=11)


#: A seeded mixed-kind corpus over the CrowdRank schema.
MIXED_REQUESTS = (
    "P(v; m1; m2), M(m1, 'Comedy', _, _, _)",
    "COUNT P(v; m1; m2), M(m1, _, 'F', _, _), M(m2, _, 'M', _, _)",
    "TOPK 3 P(v; m1; m2), M(m1, 'Thriller', _, _, _)",
    "AGG mean(V.age) P(v; m1; m2), M(m1, 'Drama', _, _, _)",
    "P(v; m1; m2), M(m1, 'Comedy', _, _, _)",  # repeat: must dedup
)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


class TestShardOf:
    def test_stable_and_in_range(self):
        keys = [encode_key(("session", "k", i)) for i in range(200)]
        for n_shards in (1, 2, 7):
            first = [shard_of(key, n_shards) for key in keys]
            second = [shard_of(key, n_shards) for key in keys]
            assert first == second
            assert all(0 <= index < n_shards for index in first)

    def test_spreads_across_shards(self):
        keys = [encode_key(("session", "k", i)) for i in range(400)]
        counts = [0] * 4
        for key in keys:
            counts[shard_of(key, 4)] += 1
        # blake2b over distinct keys: no shard may be empty or hog >60%.
        assert min(counts) > 0
        assert max(counts) < 0.6 * len(keys)

    def test_rejects_empty_partition(self):
        with pytest.raises(ValueError):
            shard_of("k", 0)

    def test_shard_db_path(self):
        assert (
            shard_db_path(os.path.join("x", "cache.sqlite"), 3)
            == os.path.join("x", "cache-shard3.sqlite")
        )
        assert shard_db_path("warm", 0) == "warm-shard0"


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------


class TestShardStore:
    def test_lru_eviction_per_shard(self):
        group = ShardGroup(n_shards=1, capacity=2)
        group.put_many([("a", (0.1, "s")), ("b", (0.2, "s"))])
        assert group.get("a") == (0.1, "s")  # refreshes recency
        group.put_many([("c", (0.3, "s"))])
        assert group.get("b") is None
        assert group.get("a") == (0.1, "s")
        assert group.stats()["totals"]["evictions"] == 1

    def test_interleaved_writers_across_shards(self, tmp_path):
        # Concurrent batch writers hitting all shards at once: every
        # write lands, in memory and in the per-shard files.
        stem = tmp_path / "interleaved.sqlite"
        group = ShardGroup(n_shards=3, capacity=4096, cache_db=stem)
        keys = [encode_key(("session", "w", i)) for i in range(120)]

        def write(offset):
            group.put_many(
                (key, (index / 1000.0 + offset, f"writer{offset}"))
                for index, key in enumerate(keys[offset::6])
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(write, range(6)))
        assert len(group) == len(keys)
        for offset in range(6):
            for index, key in enumerate(keys[offset::6]):
                assert group.get(key) == (
                    index / 1000.0 + offset,
                    f"writer{offset}",
                )
        group.close()
        # Together the per-shard files hold every key, each a piece.
        fresh = ShardGroup(n_shards=3, capacity=4096, cache_db=stem)
        sizes = [shard["disk_size"] for shard in fresh.stats()["shards"]]
        fresh.close()
        assert sum(sizes) == len(keys)
        assert all(size > 0 for size in sizes)

    def test_version_mismatch_clears_shards(self, tmp_path):
        stem = tmp_path / "versioned.sqlite"
        group = ShardGroup(n_shards=2, capacity=64, cache_db=stem)
        group.put_many([(encode_key(("session", i)), (0.5, "s"))
                        for i in range(10)])
        group.close()
        same = ShardGroup(n_shards=2, capacity=64, cache_db=stem)
        assert same.get(encode_key(("session", 3))) == (0.5, "s")
        same.close()
        bumped = ShardGroup(
            n_shards=2, capacity=64, cache_db=stem, version="next-format/k2"
        )
        assert bumped.get(encode_key(("session", 3))) is None
        assert bumped.stats()["totals"]["disk_size"] == 0
        bumped.close()


# ----------------------------------------------------------------------
# The Tier contract, embedded and attached
# ----------------------------------------------------------------------


@pytest.fixture(params=["embedded", "attached"])
def connect(request):
    """Hands out handles on one fresh two-shard tier: the same embedded
    ``ShardGroup`` every time, or a new ``ShardClient`` per call."""
    if request.param == "embedded":
        group = ShardGroup(n_shards=2, capacity=64)
        yield lambda: group
        group.close()
        return
    with ShardCacheServer(n_shards=2, capacity=64) as server:
        clients: list[ShardClient] = []

        def client():
            clients.append(ShardClient(server.address))
            return clients[-1]

        yield client
        for handle in clients:
            handle.close()


def _wait_in_thread(tier: Tier, key: str, timeout: float):
    """Start ``tier.wait(key, timeout)`` on a thread; returns (thread, out)."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(tier.wait(key, timeout)))
    thread.start()
    return thread, out


def test_tier_contract(connect):
    tier: Tier = connect()
    peer: Tier = connect()

    assert tier.get("k") is None
    tier.put_many([("k", (0.25, "lifted"))])
    assert peer.get("k") == (0.25, "lifted")
    assert peer.claim("k") == ("value", (0.25, "lifted"))

    # Single-flight: one owner, and a publish wakes the waiter with it.
    assert tier.claim("hot") == ("claimed", None)
    assert peer.claim("hot") == ("wait", None)
    thread, waited = _wait_in_thread(peer, "hot", 10.0)
    tier.put_many([("hot", (0.75, "two_label"))])
    thread.join(10.0)
    assert not thread.is_alive() and waited == [(0.75, "two_label")]

    # An abandoned claim wakes its waiter empty-handed and is claimable.
    assert tier.claim("lost") == ("claimed", None)
    thread, waited = _wait_in_thread(peer, "lost", 10.0)
    tier.release("lost")
    thread.join(10.0)
    assert not thread.is_alive() and waited == [None]
    assert peer.claim("lost") == ("claimed", None)
    assert peer.wait("lost", 0.05) is None  # times out: nobody publishes
    peer.release("lost")

    assert tier.invalidate(["k", "ghost"]) == 1
    assert peer.get("k") is None
    stats = peer.stats()
    assert stats["n_shards"] == 2
    assert stats["version"] == default_version()
    assert len(stats["shards"]) == 2
    totals = stats["totals"]
    assert totals["size"] == 1 and totals["invalidations"] == 1
    assert totals["in_flight"] == 0

    tier.clear()
    assert peer.get("hot") is None
    assert peer.stats()["totals"]["size"] == 0


# ----------------------------------------------------------------------
# The cache-server protocol
# ----------------------------------------------------------------------


class TestShardServer:
    def test_version_handshake_rejects_stale_clients(self):
        group = ShardGroup(n_shards=1, capacity=8, version="old-format/k0")
        with ShardCacheServer(group=group) as server:
            client = ShardClient(server.address)
            with pytest.raises(ShardProtocolError, match="version mismatch"):
                client.get("k")
            client.close()

    def test_malformed_put_many_is_rejected(self):
        with ShardCacheServer(n_shards=1, capacity=8) as server:
            client = ShardClient(server.address)
            with pytest.raises(ShardProtocolError, match="pairs"):
                client.put_many([("k", "not-a-pair")])
            # The connection survives the protocol error.
            client.put_many([("k", (0.5, "s"))])
            assert client.get("k") == (0.5, "s")
            client.close()

    def test_client_is_picklable(self):
        with ShardCacheServer(n_shards=1, capacity=8) as server:
            client = ShardClient(server.address)
            client.put_many([("k", (0.5, "s"))])
            clone = pickle.loads(pickle.dumps(client))
            assert clone.get("k") == (0.5, "s")
            client.close()
            clone.close()

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            ShardClient("nonsense")

    def test_disconnect_releases_orphaned_claims(self):
        # A client that claims a key and disconnects must not leave every
        # later claimer waiting out the flight: the server releases the
        # connection's unpublished claims when it ends.
        with ShardCacheServer(n_shards=2, capacity=8) as server:
            owner = ShardClient(server.address)
            peer = ShardClient(server.address)
            assert owner.claim("k") == ("claimed", None)
            assert owner.claim("kept") == ("claimed", None)
            owner.put_many([("kept", (0.5, "s"))])  # published: not orphaned
            assert peer.claim("k") == ("wait", None)
            owner.close()
            deadline = time.perf_counter() + 0.5
            while (status := peer.claim("k")) != ("claimed", None):
                assert status == ("wait", None)
                assert time.perf_counter() < deadline
                time.sleep(0.01)
            assert peer.stats()["totals"]["in_flight"] == 1  # peer's own
            assert peer.get("kept") == (0.5, "s")
            peer.close()

    def test_close_is_prompt_with_a_connected_client(self):
        # A blocked accept() and a handler blocked on an idle client's
        # socket must both wake on close(), not wait out the joins.
        server = ShardCacheServer(n_shards=2, capacity=8)
        client = ShardClient(server.address)
        client.stats()
        started = time.perf_counter()
        server.close()
        assert time.perf_counter() - started < 0.5
        client.close()


# ----------------------------------------------------------------------
# The drop-in cache
# ----------------------------------------------------------------------


class TestShardedSolverCache:
    def test_address_excludes_cache_db(self):
        with pytest.raises(ValueError, match="server"):
            ShardedSolverCache(address="127.0.0.1:1", cache_db="x.sqlite")

    def test_write_through_and_promotion(self, tmp_path):
        cache = ShardedSolverCache(
            capacity=8, n_shards=2, cache_db=tmp_path / "tier.sqlite"
        )
        cache.put(("session", "a"), (0.5, "s"))
        assert cache.get(("session", "a")) == (0.5, "s")
        # A second cache over the same files sees the write-back.
        cache.close()
        fresh = ShardedSolverCache(
            capacity=8, n_shards=2, cache_db=tmp_path / "tier.sqlite"
        )
        assert fresh.get(("session", "a")) == (0.5, "s")
        # ... and promoted it into its local LRU (no tier consultation).
        before = fresh.tier_stats()["shard_misses"]
        assert fresh.get(("session", "a")) == (0.5, "s")
        assert fresh.tier_stats()["shard_misses"] == before
        fresh.close()

    def test_non_persistable_values_stay_local(self):
        cache = ShardedSolverCache(capacity=8, n_shards=2)
        marker = object()
        cache.put(("solve", "rich"), marker)
        assert cache.get(("solve", "rich")) is marker
        assert cache.tier_stats()["shard_size"] == 0
        cache.close()

    def test_fleet_single_flight_one_solve(self):
        # N workers (each with its OWN ShardedSolverCache, sharing one
        # server) rush one cold key: the tier admits one compute.
        n_workers = 6
        with ShardCacheServer(n_shards=2, capacity=64) as server:
            barrier = threading.Barrier(n_workers)
            calls = []
            calls_lock = threading.Lock()

            def work(index):
                cache = ShardedSolverCache(
                    capacity=8, address=server.address
                )

                def compute():
                    with calls_lock:
                        calls.append(index)
                    return (0.625, "lifted")

                barrier.wait()
                value = cache.get_or_compute(("session", "hot"), compute)
                cache.close()
                return value

            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                results = list(pool.map(work, range(n_workers)))
            assert results == [(0.625, "lifted")] * n_workers
            assert len(calls) == 1

    def test_clear_drops_all_shards(self):
        cache = ShardedSolverCache(capacity=8, n_shards=3, shard_capacity=64)
        cache.put_many(
            [(("session", i), (0.5, "s")) for i in range(9)]
        )
        assert cache.tier_stats()["shard_size"] == 9
        cache.clear()
        assert cache.tier_stats()["shard_size"] == 0
        assert len(cache) == 0
        cache.close()


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


class TestShardedService:
    def test_knob_validation(self):
        with pytest.raises(ValueError, match="shard_address excludes"):
            PreferenceService(shard_address="127.0.0.1:1", cache_shards=2)
        with pytest.raises(ValueError, match="not both"):
            PreferenceService(cache=SolverCache(4), cache_shards=2)

    def test_sharded_bit_identical_to_unsharded_mixed_kinds(self, db):
        # The seeded mixed-kind corpus: Probability, Count, TopK, and
        # Aggregate requests must produce bit-identical answers whether
        # the cache tier is sharded or not (aggregates draw from a seeded
        # rng, so both runs get an identically seeded generator).
        plain = PreferenceService(backend="serial")
        sharded = PreferenceService(backend="serial", cache_shards=3)
        reference = plain.answer_many(
            MIXED_REQUESTS, db, rng=np.random.default_rng(7)
        )
        answered = sharded.answer_many(
            MIXED_REQUESTS, db, rng=np.random.default_rng(7)
        )
        for theirs, ours in zip(reference, answered):
            assert ours.kind == theirs.kind
            assert ours.value == theirs.value

    def test_warm_fleet_restart_zero_solves(self, db, tmp_path):
        stem = tmp_path / "fleet.sqlite"
        queries = [MIXED_REQUESTS[0], MIXED_REQUESTS[1]]
        with ShardCacheServer(n_shards=2, cache_db=stem) as server:
            cold = PreferenceService(
                shard_address=server.address, backend="serial"
            )
            first = cold.answer_many(queries, db)
            assert first.n_distinct_solves > 0
        # The fleet restarts: a NEW server over the same shard files and
        # entirely new workers; nothing may be solved again.
        with ShardCacheServer(n_shards=2, cache_db=stem) as server:
            warm = PreferenceService(
                shard_address=server.address, backend="serial"
            )
            second = warm.answer_many(queries, db)
            assert second.n_distinct_solves == 0
            for theirs, ours in zip(first, second):
                assert ours.value == theirs.value

    def test_tier_depth_surfaces_per_shard_counters(self, db):
        service = PreferenceService(backend="serial", cache_shards=2)
        service.answer_many([MIXED_REQUESTS[0]], db)
        depth = service.tier_depth()
        assert depth["n_shards"] == 2
        assert len(depth["shards"]) == 2
        assert depth["totals"]["size"] > 0
        flat = service.stats()
        assert flat["n_shards"] == 2
        assert flat["shard_size"] == depth["totals"]["size"]

    def test_version_bump_refuses_stale_fleet(self, tmp_path):
        group = ShardGroup(
            n_shards=1, capacity=8, version="other-generation/k9"
        )
        with ShardCacheServer(group=group) as server:
            service = PreferenceService(
                shard_address=server.address, backend="serial"
            )
            with pytest.raises(ShardProtocolError, match="version mismatch"):
                service.cache.get(("session", "k"))
