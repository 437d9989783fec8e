"""Span bookkeeping: self time, nesting, leaves and installed wrappers."""

import threading
import types

import _paths  # noqa: F401
import pytest

from tracing import Ledger, Tracer, layer_metrics, union_length


def span(sid, name, start, end, parent=None, value=None):
    return (sid, name, start, end, parent, None, value)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 5 + 1
    assert union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span(1, "plan.execute", 0.0, 10.0),
        span(2, "solvers.solve", 1.0, 4.0, parent=1),
        span(3, "solvers.solve", 3.0, 6.0, parent=1),  # overlaps span 2
        span(4, "cache.get", 8.0, 9.0, parent=1, value=1),
    ]
    ledger = Ledger(spans, [], [(0.0, 10.0)])
    assert ledger.self_seconds["plan.execute"] == pytest.approx(10 - 6)
    assert ledger.self_seconds["solvers.solve"] == pytest.approx(6.0)
    assert ledger.total_seconds["solvers.solve"] == pytest.approx(6.0)
    assert ledger.layer_share("plan") == pytest.approx(0.4)


def test_leaf_time_is_charged_to_its_parent_and_counted_once():
    spans = [span(1, "plan.build", 0.0, 4.0)]
    leaves = [
        ("db.rows_where", 0.5, 1, 1.0, True),
        ("db.rows_where", 0.5, None, 0.5, False),  # same generator
        ("db.rows_where", 2.0, 1, 0.5, True),
    ]
    ledger = Ledger(spans, leaves, [(0.0, 4.0)])
    assert ledger.self_seconds["plan.build"] == pytest.approx(4 - 1.5)
    assert ledger.leaf_calls["db.rows_where"] == 2
    assert ledger.leaf_seconds["db.rows_where"] == pytest.approx(2.0)


def test_same_name_nesting_counts_outermost_only_and_windows_filter():
    spans = [
        span(1, "cache.get", 0.0, 2.0, value=1),
        span(2, "cache.get", 0.5, 1.5, parent=1, value=1),
        span(3, "cache.get", 5.0, 6.0, value=0),  # outside the window
    ]
    ledger = Ledger(spans, [], [(0.0, 3.0)])
    assert ledger.count["cache.get"] == 1
    assert ledger.total_seconds["cache.get"] == pytest.approx(2.0)
    metrics = layer_metrics(ledger)
    assert metrics["cache.hits"] == 1 and metrics["cache.misses"] == 0


def test_worker_thread_spans_hang_off_the_handing_span():
    module = types.ModuleType("repro_selftest_fake")

    def leaf(x):
        return x + 1

    def work(xs):
        results = []
        threads = [
            threading.Thread(target=lambda x=x: results.append(module.leaf(x)))
            for x in xs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        return sorted(results)

    module.leaf, module.work = leaf, work
    tracer = Tracer()
    wrapped_leaf = tracer.wrap(leaf, "solvers.solve")
    wrapped_work = tracer.wrap(work, "executors.run", hands_off=True)
    module.leaf = wrapped_leaf
    assert wrapped_work([1, 2, 3]) == [2, 3, 4]
    runs = [s for s in tracer.spans if s[1] == "executors.run"]
    solves = [s for s in tracer.spans if s[1] == "solvers.solve"]
    assert len(runs) == 1 and len(solves) == 3
    assert all(s[4] == runs[0][0] for s in solves)


def test_wrapper_records_errors_and_reraises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "server.admit")()
    assert tracer.spans[0][6] == "error:KeyError"


def test_main_thread_spans_never_hang_off_a_worker_handoff():
    tracer = Tracer()
    started, release = threading.Event(), threading.Event()

    def run():
        started.set()
        release.wait(timeout=10)

    other = threading.Thread(
        target=tracer.wrap(run, "executors.run", hands_off=True)
    )
    other.start()
    assert started.wait(timeout=10)
    tracer.wrap(lambda: None, "api.parse")()
    release.set()
    other.join(timeout=10)
    assert not other.is_alive()
    parse = next(s for s in tracer.spans if s[1] == "api.parse")
    assert parse[4] is None
