"""The two in-process closed-loop workloads: ``batch_cold`` and
``stream_refresh``.

Both follow one design rule: the seed picks *which* draws a run sees
(populations, request orders, schedules) from fixed distributions, while
the amount of work per run stays the same — the catalog is held fixed, and
each run rotates over a pool of seeded draws in whole rotations.

A workload object splits its life into ``setup`` (timed, reported as
``setup_s``), ``prepare`` (untimed: references and warm-up), ``cycle``
(one timed operation), ``check`` (untimed, cheap correctness checks after
each cycle) and ``verify`` (untimed correctness checks deferred until the
measured cycles are over, so their work stays out of the peak memory).
"""

from __future__ import annotations

import time

import numpy as np

from repro.__main__ import batch_queries
from repro.api.evaluate import answer
from repro.datasets.crowdrank import crowdrank_database
from repro.db.database import PPDatabase
from repro.db.schema import ORelation, PRelation
from repro.service import PreferenceService
from repro.service.shard import ShardedSolverCache
from repro.stream.replay import TrafficReplayer
from repro.stream.standing import StandingQueryEngine, answers_equal

from measure import peak_rss_mb, quarter_means, reset_peak_rss

#: Request-kind prefixes of the mixed batches: 12 of each kind.
KINDS = ("", "COUNT ", "TOPK 3 ", "AGG mean(V.age) ")


def mixed_requests(n_queries: int) -> list[str]:
    """``n_queries`` ``batch_queries`` templates under all four kinds."""
    return [kind + text for kind in KINDS for text in batch_queries(n_queries)]


def sub_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent integer seeds derived from ``seed``."""
    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


class BatchCold:
    """Cold mixed batches over a fixed 11-movie catalog.

    Every cycle answers the 48-request batch through a fresh
    ``PreferenceService`` (default thread backend, empty ``SolverCache``),
    so every cache lookup misses and the solvers do most of the work.
    Cycles rotate through a pool of seeded 80-session worker populations,
    sampled from a fixed universe of workers that share the catalog's
    Mallows components, so populations differ only in who is in them.
    The untimed first cycle of set-up runs on a fixed warm-up population in
    a fixed order, so set-up does the same work on every seed.
    """

    name = "batch_cold"
    N_MOVIES = 11
    CATALOG_SEED = 20150415
    UNIVERSE = 1000
    POPULATION = 80
    POOL = 3
    N_QUERIES = 12

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.requests = mixed_requests(self.N_QUERIES)
        self.picks = [
            sorted(
                int(i) for i in rng.choice(
                    self.UNIVERSE, self.POPULATION, replace=False
                )
            )
            for _ in range(self.POOL)
        ]
        self.orders = [
            [self.requests[int(i)] for i in rng.permutation(
                len(self.requests))]
            for _ in range(self.POOL)
        ]
        self.references: list[dict] = []

    def _population(self, universe: PPDatabase, picks) -> PPDatabase:
        voters = universe.orelation("V")
        sessions = universe.prelation("P")
        rows = [voters.rows[i] for i in picks]
        return PPDatabase(
            orelations=[
                universe.orelation("M"),
                ORelation("V", voters.columns, rows),
            ],
            prelations=[
                PRelation(
                    "P", ["voter"],
                    {(row[0],): sessions.model_of((row[0],)) for row in rows},
                )
            ],
        )

    def setup(self) -> None:
        """Build the pool, then run one untimed cycle (first touch)."""
        universe = crowdrank_database(
            n_workers=self.UNIVERSE, n_movies=self.N_MOVIES,
            seed=self.CATALOG_SEED,
        )
        self.pool = [self._population(universe, p) for p in self.picks]
        warm_picks = np.random.default_rng(self.CATALOG_SEED).choice(
            self.UNIVERSE, self.POPULATION, replace=False
        )
        warm = self._population(universe, sorted(int(i) for i in warm_picks))
        PreferenceService().answer_many(self.requests, warm)

    def prepare(self) -> None:
        """Cacheless single-request references for every population."""
        if self.references:
            return
        self.references = [
            {text: answer(text, db) for text in self.requests}
            for db in self.pool
        ]

    def cycle(self, index: int) -> dict:
        slot = index % self.POOL
        service = PreferenceService()
        cpu = time.process_time()
        started = time.perf_counter()
        batch = service.answer_many(self.orders[slot], self.pool[slot])
        ended = time.perf_counter()
        return {
            "latency": ended - started,
            "window": (started, ended),
            "cpu": time.process_time() - cpu,
            "answers": batch.answers,
            "attempted": len(self.orders[slot]),
        }

    def check(self, index: int, result: dict) -> int:
        """Answers unequal to their reference; a missing answer fails."""
        slot = index % self.POOL
        expected = self.references[slot]
        order = self.orders[slot]
        return max(0, len(order) - len(result["answers"])) + sum(
            not answers_equal(got, expected[text])
            for text, got in zip(order, result["answers"])
        )

    def verify(self) -> int:
        """Nothing deferred: the references exist before the cycles run."""
        return 0

    def complete(self, n_cycles: int) -> bool:
        """Stop only after whole rotations, so each population counts
        equally."""
        return n_cycles % self.POOL == 0

    def evidence(self, results: list) -> dict:
        return {
            "pool": self.POOL,
            "population_sessions": self.POPULATION,
            "movies": self.N_MOVIES,
            "first_cycle_in_setup": True,
        }


def distinct_live_models(db) -> int:
    relation = db.prelation("P")
    return len({id(relation.model_of(key)) for key in relation.session_keys()})


class StreamRefresh:
    """Standing queries kept fresh while sessions arrive, drift and leave.

    A pool of fixed ``TrafficReplayer`` streams (40 live sessions, a pool
    of 12 waiting workers, 8 movies, 2 updates per step), each pre-rolled
    past the ~100 generations over which its live-model count still
    climbs.  Each stream has its own ``StandingQueryEngine`` with 8
    standing queries of all four kinds over an embedded 2-shard
    ``ShardedSolverCache``.  A cycle is one ``step()`` then one
    ``refresh()``; cycles rotate through the streams.

    The streams' catalogs and first ``PRE_ROLL`` generations are held
    fixed, so set-up registers the same standing queries over the same
    sessions on every seed.  The seed draws how many further generations
    (up to ``MAX_OFFSET``) each stream runs before the measured cycles, so
    it picks which live populations the cycles see.
    """

    name = "stream_refresh"
    STREAMS = 4
    CATALOG_SEED = 20150415
    PRE_ROLL = 200
    MAX_OFFSET = 100
    WARM_CYCLES = 3
    N_STANDING = 8
    CHECK_SHARE = 0.1

    def __init__(self, seed: int) -> None:
        self.replayers = [
            TrafficReplayer(
                n_active=40, n_pool=12, n_movies=8, updates=2, seed=s
            )
            for s in sub_seeds(self.CATALOG_SEED, self.STREAMS)
        ]
        for replayer in self.replayers:
            replayer.run(self.PRE_ROLL)
        self.check_rng = np.random.default_rng(seed)
        self.offsets = [
            int(self.check_rng.integers(self.MAX_OFFSET + 1))
            for _ in self.replayers
        ]
        self.live_models: list[float] = []
        self.deferred: list[tuple] = []

    def setup(self) -> None:
        """Engine construction plus registration (the cold materialization)."""
        self.engines = []
        for replayer in self.replayers:
            engine = StandingQueryEngine(
                replayer.db,
                cache=ShardedSolverCache(4096, n_shards=2),
                auto_refresh=False,
            )
            for request in replayer.standing_requests(self.N_STANDING):
                engine.register(request)
            self.engines.append(engine)

    def prepare(self) -> None:
        """Warm-up: each stream's seeded offset, then a few cycles each."""
        self.models_at_setup = _mean(
            distinct_live_models(r.db) for r in self.replayers
        )
        for replayer, engine, offset in zip(
            self.replayers, self.engines, self.offsets
        ):
            replayer.run(offset)
            engine.refresh()
        for index in range(self.WARM_CYCLES * self.STREAMS):
            self.cycle(index)

    def cycle(self, index: int) -> dict:
        slot = index % self.STREAMS
        replayer, engine = self.replayers[slot], self.engines[slot]
        solved = engine.stats()["fresh_solves"]
        cpu = time.process_time()
        started = time.perf_counter()
        replayer.step()
        applied = time.perf_counter()
        stale = engine.refresh()
        ended = time.perf_counter()
        cpu = time.process_time() - cpu
        return {
            "latency": ended - applied,
            "window": (started, ended),
            "cpu": cpu,
            "answers": [standing.answer for standing in stale],
            "attempted": len(stale),
            "slot": slot,
            "fresh_solves": engine.stats()["fresh_solves"] - solved,
        }

    def check(self, index: int, result: dict) -> int:
        """Every standing answer must be fresh.  A seeded subset of
        generations is snapshotted, to be compared with evaluation from
        scratch in :meth:`verify`."""
        slot = result["slot"]
        replayer, engine = self.replayers[slot], self.engines[slot]
        generation = replayer.db.generation
        failed = sum(
            standing.generation != generation
            for standing in engine.standing_queries()
        )
        if slot == self.STREAMS - 1:
            self.live_models.append(
                _mean(distinct_live_models(r.db) for r in self.replayers)
            )
        if self.check_rng.random() < self.CHECK_SHARE:
            self.deferred.append((
                replayer.db.snapshot(),
                [(s.request, s.answer) for s in engine.standing_queries()],
            ))
        return failed

    def verify(self) -> int:
        """Snapshotted generations against evaluation from scratch."""
        failed = 0
        for snapshot, standing in self.deferred:
            for request, got in standing:
                try:
                    failed += not answers_equal(got, answer(request, snapshot))
                except Exception as error:  # a failed check, not a crash
                    print(f"from-scratch check failed: {error!r}", flush=True)
                    failed += 1
        self.deferred.clear()
        return failed

    def complete(self, n_cycles: int) -> bool:
        return n_cycles % self.STREAMS == 0

    def evidence(self, results: list) -> dict:
        """Warm-up evidence: live models and fresh solves per generation
        must be level, first quarter of the measured cycles against the
        last."""
        live = self.live_models
        fresh = [r["fresh_solves"] for r in results if "fresh_solves" in r]
        return {
            "streams": self.STREAMS,
            "pre_roll_generations": self.PRE_ROLL,
            "offset_generations": self.offsets,
            "live_models_at_setup": self.models_at_setup,
            "live_models_by_quarter": quarter_means(live),
            "fresh_solves_per_generation_by_quarter": quarter_means(fresh),
            "stale_per_generation": _mean(r["attempted"] for r in results),
        }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def closed_loop(workload, seconds: float, n_cycles: "int | None" = None):
    """Run timed cycles for ``seconds`` (or exactly ``n_cycles``).

    Time-bounded runs stop on a whole rotation: the one whose end is
    nearest the deadline, judged by the mean rotation so far, and at least
    one.  Peak memory is taken over the cycles and their in-loop checks
    only: it is reset when the loop starts and read before the deferred
    checks.  Returns the per-cycle results, the failed-operation count and
    the peak resident set in MiB.
    """
    results: list[dict] = []
    failed = 0
    reset_peak_rss()
    started = time.perf_counter()
    rotations = 0
    index = 0
    while True:
        try:
            result = workload.cycle(index)
        except Exception as error:  # a failed operation, not a crash
            print(f"cycle {index} failed: {error!r}", flush=True)
            result = {"latency": None, "window": None, "cpu": 0.0,
                      "answers": [], "attempted": 1, "error": True}
            failed += 1
        else:
            try:
                failed += workload.check(index, result)
            except Exception as error:  # unverified answers fail
                print(f"check of cycle {index} failed: {error!r}", flush=True)
                failed += result["attempted"]
        results.append(result)
        index += 1
        done = len(results)
        if n_cycles is not None:
            if done >= n_cycles:
                break
        elif workload.complete(done):
            rotations += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / rotations / 2 >= seconds:
                break
    peak = peak_rss_mb()
    return results, failed + workload.verify(), peak


WORKLOADS = {
    BatchCold.name: BatchCold,
    StreamRefresh.name: StreamRefresh,
}
