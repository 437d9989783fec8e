"""Faults in the program under test count as failed operations."""

import _paths  # noqa: F401

from run import summarize_cycles
from serve import response_ok
from workloads import BatchCold, closed_loop


class Faulty:
    """A workload whose cycles, checks and deferred checks can fail."""

    def __init__(self, cycle_fails=(), check_fails=(), deferred=0):
        self.cycle_fails, self.check_fails = cycle_fails, check_fails
        self.deferred = deferred

    def cycle(self, index):
        if index in self.cycle_fails:
            raise RuntimeError("cycle fault")
        return {"latency": 0.01, "window": (index, index + 0.01), "cpu": 0.01,
                "answers": ["a", "b"], "attempted": 2}

    def check(self, index, result):
        if index in self.check_fails:
            raise RuntimeError("reference fault")
        return 0

    def verify(self):
        return self.deferred

    def complete(self, n_cycles):
        return True


def test_faults_in_cycles_checks_and_deferred_checks_are_counted():
    workload = Faulty(cycle_fails={0}, check_fails={2}, deferred=3)
    results, failed, _ = closed_loop(workload, 0, n_cycles=4)
    assert len(results) == 4
    assert failed == 1 + 2 + 3  # one cycle, two unverified answers, three


def test_a_run_with_nothing_delivered_summarizes_without_dividing():
    results, _, _ = closed_loop(Faulty(cycle_fails={0, 1}), 0, n_cycles=2)
    summary = summarize_cycles(results)
    assert summary["answers_per_s"] == 0.0
    assert summary["latency_p50_ms"] == float("inf")
    assert summary["cpu_ms_per_answer"] == float("inf")


def test_a_short_batch_counts_its_missing_answers():
    workload = BatchCold.__new__(BatchCold)
    workload.orders = [["P(v; m1; m2)"] * 3]
    workload.references = [{"P(v; m1; m2)": "x"}]
    workload.POOL = 1
    assert workload.check(0, {"answers": []}) == 3


def test_a_response_must_match_kind_and_value():
    expected = {"q": ("count", 2.5)}
    record = {"status": 200, "texts": ["q"],
              "body": {"kind": "count", "value": 2.5}}
    assert response_ok(record, expected)
    record["body"]["kind"] = "probability"
    assert not response_ok(record, expected)
    record["body"] = {"answers": []}
    assert not response_ok(record, expected)
