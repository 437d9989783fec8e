"""Seed-steadiness check: each workload on several seeds, spreads vs bounds.

Usage, from the repository root::

    python3 e2ebench/seed_check.py [--seeds 5] [--first-seed 1]
        [--workloads batch_cold stream_refresh serve_open] [--seconds N]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time,
and prints for every gated metric its median over the seeds, its spread
(interquartile distance over the median, as ``statistics.quantiles(n=4)``
gives the quartiles) and the metric's bound from ``BENCHMARK.json``.  A
spread under a third of its bound is marked ``ok``, one above its bound
``TOO NOISY``.  Exits 1 if any run fails or is incorrect, or if any spread
is above its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", nargs="+",
        default=[workload["name"] for workload in spec["workloads"]],
    )
    args = parser.parse_args(argv)
    if args.seeds < 5:
        parser.error("the check needs at least 5 seeds")

    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {args.seeds} seeds from {args.first_seed}, "
              f"{args.seconds} s each")
        print(f"  {'metric':<20}{'median':>12}{'spread':>9}{'bound':>8}"
              "  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = values[name]
            median = statistics.median(series)
            spread = measure.spread(series)
            if spread < metric["bound"] / 3:
                verdict = "ok"
            elif spread <= metric["bound"]:
                verdict = "within bound, above a third"
            else:
                verdict = "TOO NOISY"
                status = 1
            print(f"  {name:<20}{median:>12.4f}{spread:>9.3f}"
                  f"{metric['bound']:>8.2f}  {verdict}")
            print(f"    values: {', '.join(f'{v:.4g}' for v in series)}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
