"""BENCHMARK.json against the contract and against what run.py prints."""

import json
import re
import shutil
import subprocess
import sys

from _paths import BENCH, ROOT

from tracing import Ledger, layer_metrics

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_names_and_units_follow_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == [BENCH.name]
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.fullmatch(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.fullmatch(metric["unit"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    budget = (4 + 22 * len(SPEC["workloads"])) * SPEC["run_seconds"]
    assert budget < 3420


def test_the_traced_ledger_covers_the_declared_per_layer_metrics():
    traced = set(layer_metrics(Ledger([], [], [(0.0, 1.0)])))
    traced |= {"driver.late_ms_p50", "driver.late_ms_max",
               "trace.overhead_frac", "trace.mismatches"}
    assert traced == {m["name"] for m in SPEC["per_layer"]}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"][:1] + SPEC["command"][1:]
        + ["--workload", "batch_cold", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
