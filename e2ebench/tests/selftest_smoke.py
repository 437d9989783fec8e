"""A few-second smoke run of each workload, answers checked."""

import json
import subprocess
import sys

import _paths  # noqa: F401
from _paths import BENCH, ROOT

from serve import references, response_ok, schedule, serve_session
from workloads import BatchCold, StreamRefresh, closed_loop


class SmallBatch(BatchCold):
    N_MOVIES = 6
    POOL = 2


class SmallStream(StreamRefresh):
    STREAMS = 2
    PRE_ROLL = 20
    WARM_CYCLES = 1
    CHECK_SHARE = 1.0


def test_batch_cold_cycles_match_their_references():
    workload = SmallBatch(seed=3)
    workload.setup()
    workload.prepare()
    results, failed, peak = closed_loop(workload, 0, n_cycles=4)
    assert failed == 0 and peak > 0
    assert [len(r["answers"]) for r in results] == [48] * 4


def test_stream_refresh_stays_fresh_and_matches_from_scratch():
    workload = SmallStream(seed=3)
    workload.setup()
    workload.prepare()
    results, failed, _ = closed_loop(workload, 0, n_cycles=6)
    assert failed == 0 and not workload.deferred
    assert all(r["attempted"] == 8 for r in results)
    evidence = workload.evidence(results)
    assert evidence["stale_per_generation"] == 8


def test_serve_open_answers_a_short_schedule_warm():
    expected = references()
    setup, measured, _ = serve_session(ROOT, schedule(5, 1.0), traced=False)
    assert setup > 0
    assert all(response_ok(r, expected) for r in measured["records"])
    assert measured["misses"] == 0


def test_run_py_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "stream_refresh", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
