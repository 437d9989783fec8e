"""Time-bounded closed loops stop on the whole rotation nearest the
deadline."""

import _paths  # noqa: F401

import workloads
from workloads import closed_loop


class Clock:
    """A stand-in for the ``time`` module that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


class Rotating:
    """Cycles of a fixed length on the fake clock, in rotations of 3."""

    def __init__(self, clock, cycle_s):
        self.clock, self.cycle_s = clock, cycle_s

    def cycle(self, index):
        self.clock.now += self.cycle_s
        return {"latency": self.cycle_s, "window": None, "cpu": 0.0,
                "answers": [], "attempted": 1}

    def check(self, index, result):
        return 0

    def verify(self):
        return 0

    def complete(self, n_cycles):
        return n_cycles % 3 == 0


def run(monkeypatch, cycle_s, seconds):
    clock = Clock()
    monkeypatch.setattr(workloads, "time", clock)
    results, _, _ = closed_loop(Rotating(clock, cycle_s), seconds)
    return len(results)


def test_stops_on_the_rotation_whose_end_is_nearest_the_deadline(monkeypatch):
    # Rotations of 3.0 s against 6.7 s: 6 s is nearer than 9 s.
    assert run(monkeypatch, 1.0, 6.7) == 6
    # Against 7.8 s, 9 s is nearer than 6 s.
    assert run(monkeypatch, 1.0, 7.8) == 9


def test_runs_at_least_one_rotation(monkeypatch):
    assert run(monkeypatch, 1.0, 0.5) == 3
