"""The unified query API on a mixed-kind repeated-template workload.

Not a paper figure: this benchmark covers the unified request/answer
surface of DESIGN.md Section 10.  The CrowdRank batch templates are served
as a *mixed-kind* workload — each base query asked both as a Boolean
``Probability`` and as a ``COUNT`` — and compared against evaluating the
same requests kind by kind on fresh services.

Acceptance bars:

* **mixed-kind dedup** — the mixed batch executes **>= 2x fewer** distinct
  solves than the kind-by-kind evaluation (a Count and a Probability of
  the same query share every solve, so the mixed batch costs the same as
  either kind alone);
* **bit-identity to the pre-redesign algorithms** — ``answer()`` for
  Probability, Count, Aggregate, and TopK requests (both strategies) is
  compared against verbatim reimplementations of the pre-redesign
  algorithms over the engine's per-session primitives: probabilities,
  expectations, per-session breakdowns, rankings, and effort counters
  must match exactly.

``BENCH_API_QUICK=1`` shrinks the workload for CI smoke runs.  Results are
written to ``benchmarks/BENCH_api.json`` (committed) and
``benchmarks/results/`` like every other benchmark.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.__main__ import batch_queries
from repro.api import Aggregate, Count, TopK, answer
from repro.datasets.crowdrank import crowdrank_database
from repro.evaluation.experiments import ExperimentResult
from repro.plan.execute import session_upper_bound
from repro.query.classify import analyze
from repro.query.compile import labeling_for_patterns
from repro.query.engine import compile_session_work, solve_session
from repro.query.parser import parse_query
from repro.service import PreferenceService

QUICK = os.environ.get("BENCH_API_QUICK") == "1"
N_BASE_QUERIES = 8 if QUICK else 24
N_SESSIONS = 30 if QUICK else 80
N_MOVIES = 6 if QUICK else 8
MIN_DEDUP_RATIO = 2.0
DB_SEED = 7

JSON_PATH = Path(__file__).parent / "BENCH_api.json"


# ----------------------------------------------------------------------
# Verbatim pre-redesign reference implementations
# ----------------------------------------------------------------------


def session_solver(query, db):
    """The selected sessions and an exact per-session solve, plan-free."""
    analysis = analyze(query, db)
    items = db.prelation(analysis.p_relation).items
    works = compile_session_work(query, db, analysis=analysis)
    labelings = {}

    def labeling_of(union):
        if union not in labelings:
            labelings[union] = labeling_for_patterns(union.patterns, items, db)
        return labelings[union]

    def exact(work):
        if work.union is None:
            return 0.0
        probability, _ = solve_session(
            work.model, labeling_of(work.union), work.union
        )
        return probability

    return works, labeling_of, exact


def reference_sessions(query, db):
    """``[(session_key, Pr(Q | s))]`` in session order, one solve each."""
    works, _, exact = session_solver(query, db)
    return [(work.key, exact(work)) for work in works]


def reference_probability(per_session):
    """``Pr(Q | D) = 1 - prod_i (1 - Pr(Q | s_i))`` with clamping."""
    complement = 1.0
    for _, probability in per_session:
        complement *= 1.0 - min(1.0, max(0.0, probability))
    return 1.0 - complement


def reference_aggregate(query, db, relation, column, statistic, n_worlds, rng):
    """The pre-redesign attribute-aggregate numpy recipe, verbatim."""
    attribute_relation = db.orelation(relation)
    column_index = attribute_relation.column_index(column)
    per_session = [
        (
            key,
            probability,
            float(
                attribute_relation.first_row_where({0: key[0]})[column_index]
            ),
        )
        for key, probability in reference_sessions(query, db)
    ]
    probabilities = np.array([p for _, p, _ in per_session])
    values = np.array([v for _, _, v in per_session])
    weighted_total = float(probabilities @ values)
    probability_mass = float(probabilities.sum())
    weighted_average = (
        weighted_total / probability_mass if probability_mass > 0 else 0.0
    )
    if rng is None:
        rng = np.random.default_rng(0)
    draws = rng.random((n_worlds, len(per_session))) < probabilities
    any_satisfied = draws.any(axis=1)
    if statistic == "mean":
        counts = draws.sum(axis=1)
        sums = draws @ values
        with np.errstate(invalid="ignore"):
            world_values = np.where(
                counts > 0, sums / np.maximum(counts, 1), 0.0
            )
        satisfied_values = world_values[any_satisfied]
    else:
        satisfied_values = (draws @ values)[any_satisfied]
    expectation = (
        float(satisfied_values.mean()) if len(satisfied_values) else 0.0
    )
    return expectation, float(any_satisfied.mean()), weighted_average


def reference_topk(query, db, k, strategy, n_edges):
    """The pre-redesign top-k loop, verbatim."""
    works, labeling_of, exact = session_solver(query, db)
    if strategy == "naive":
        scored = [(w.key, exact(w)) for w in works]
        scored.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        return scored[:k], len(works), 0

    bounded = [
        (
            0.0
            if w.union is None
            else session_upper_bound(
                w.model, labeling_of(w.union), w.union, n_edges
            ),
            w,
        )
        for w in works
    ]
    bounded.sort(key=lambda pair: (-pair[0], repr(pair[1].key)))
    confirmed, n_exact = [], 0
    for bound, work in bounded:
        if len(confirmed) >= k:
            kth = sorted((p for _, p in confirmed), reverse=True)[k - 1]
            if kth >= bound:
                break
        confirmed.append((work.key, exact(work)))
        n_exact += 1
    confirmed.sort(key=lambda pair: (-pair[1], repr(pair[0])))
    return confirmed[:k], n_exact, len(works)


def _breakdown(one):
    return [(e.key, e.probability) for e in one.per_session]


def test_unified_api(record_result):
    db = crowdrank_database(
        n_workers=N_SESSIONS, n_movies=N_MOVIES, seed=DB_SEED
    )
    texts = batch_queries(N_BASE_QUERIES)

    # --- kind-by-kind: each kind on its own fresh service --------------
    kind_started = time.perf_counter()
    prob_batch = PreferenceService().answer_many(texts, db)
    count_batch = PreferenceService().answer_many(
        [f"COUNT {text}" for text in texts], db
    )
    kind_seconds = time.perf_counter() - kind_started
    kind_by_kind_solves = (
        prob_batch.n_distinct_solves + count_batch.n_distinct_solves
    )

    # --- mixed-kind: one batch, one plan, cross-kind elimination -------
    mixed_requests = [
        request
        for text in texts
        for request in (text, f"COUNT {text}")
    ]
    mixed_started = time.perf_counter()
    mixed = PreferenceService().answer_many(mixed_requests, db)
    mixed_seconds = time.perf_counter() - mixed_started

    dedup_ratio = kind_by_kind_solves / max(mixed.n_distinct_solves, 1)
    assert dedup_ratio >= MIN_DEDUP_RATIO, (
        f"mixed-kind batch executed {mixed.n_distinct_solves} distinct "
        f"solves vs {kind_by_kind_solves} kind-by-kind; ratio "
        f"{dedup_ratio:.2f}x < {MIN_DEDUP_RATIO}x"
    )
    # The mixed batch costs no more than either kind alone.
    assert mixed.n_distinct_solves == prob_batch.n_distinct_solves

    # Mixed answers agree with the kind-by-kind batches, pairwise.
    for index, text in enumerate(texts):
        assert mixed[2 * index].value == prob_batch[index].probability
        assert mixed[2 * index + 1].value == count_batch[index].value

    # --- bit-identity of answer() to the reference algorithms ---------
    check_queries = [parse_query(text) for text in texts[:4]]
    for query in check_queries:
        per_session = reference_sessions(query, db)
        probability = answer(query, db)
        assert probability.value == reference_probability(per_session)
        assert _breakdown(probability) == per_session

        count = answer(Count(query), db)
        assert count.value == float(sum(p for _, p in per_session))
        assert _breakdown(count) == per_session

        for strategy in ("naive", "upper_bound"):
            sessions, n_exact, n_upper = reference_topk(
                query, db, 3, strategy, 1
            )
            topk = answer(TopK(query, k=3, strategy=strategy), db)
            assert topk.ranking == sessions
            assert topk.stats["n_exact_evaluations"] == n_exact
            assert topk.stats["n_upper_bound_evaluations"] == n_upper

        expectation, probability_any, weighted_average = reference_aggregate(
            query, db, "V", "age", "mean", 10_000, None
        )
        aggregate = answer(Aggregate(query, relation="V", column="age"), db)
        assert aggregate.value == expectation
        assert aggregate.stats["probability_any"] == probability_any
        assert aggregate.stats["weighted_average"] == weighted_average

    report = {
        "config": {
            "n_base_queries": N_BASE_QUERIES,
            "n_sessions": N_SESSIONS,
            "n_movies": N_MOVIES,
            "quick": QUICK,
            "seed": DB_SEED,
        },
        "mixed_kind_dedup": {
            "kind_by_kind_solves": kind_by_kind_solves,
            "mixed_solves": mixed.n_distinct_solves,
            "required_ratio": MIN_DEDUP_RATIO,
            "measured_ratio": dedup_ratio,
            "enforced": True,
        },
        "bit_identity": {
            "probability": True,
            "count": True,
            "aggregate": True,
            "top_k": True,
            "n_queries_checked": len(check_queries),
            "enforced": True,
        },
        "timings": {
            "kind_by_kind_seconds": kind_seconds,
            "mixed_seconds": mixed_seconds,
        },
    }
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    record_result(
        ExperimentResult(
            experiment="unified_api",
            headers=["workload", "requests", "distinct_solves", "seconds"],
            rows=[
                [
                    "kind-by-kind (2 services)",
                    2 * N_BASE_QUERIES,
                    kind_by_kind_solves,
                    kind_seconds,
                ],
                [
                    "mixed-kind batch",
                    2 * N_BASE_QUERIES,
                    mixed.n_distinct_solves,
                    mixed_seconds,
                ],
            ],
            notes={
                "dedup_ratio": round(dedup_ratio, 2),
                "quick": QUICK,
            },
        )
    )
