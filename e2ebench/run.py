"""The benchmark's one command: run a named workload, check, print metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload batch_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the same seed twice, untraced and then with the layer wrappers of
:mod:`tracing` installed, and reports the per-layer ledger, the tracing
overhead and any answer that differs between the two.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the ungated
details (tail latency, warm-up evidence, set-up samples).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run, each in a fresh process; ``setup_s`` is their median.
#: They are spread over the run, so that the median and the measured
#: cycles see the same stretch of host speed: the closed loops measure in
#: ``SEGMENTS`` parts with probes after each, and ``serve_open`` launches
#: half the probes before its measured session and half after.
SETUP_SAMPLES = 7
SEGMENTS = 3

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch_cold", "stream_refresh", "serve_open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_units(section: str) -> dict:
    """``name -> unit`` of one metric section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def probe_setup(args) -> float:
    """Set-up seconds of a fresh process (imports excluded)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


def summarize_cycles(results) -> dict:
    """Throughput, median latency and CPU per answer of timed cycles.

    A failed cycle counts as infinitely slow; with nothing delivered,
    throughput is 0 and CPU per answer infinite.
    """
    from measure import nearest_rank

    good = [r for r in results if r["latency"] is not None]
    answers = sum(len(r["answers"]) for r in good)
    wall = sum(r["window"][1] - r["window"][0] for r in good)
    cpu = sum(r["cpu"] for r in good)
    latencies = [r["latency"] * 1000.0 for r in good]
    latencies += [float("inf")] * (len(results) - len(good))
    return {
        "answers": answers,
        "wall": wall,
        "answers_per_s": answers / wall if wall > 0 else 0.0,
        "latency_p50_ms": nearest_rank(latencies, 50),
        "cpu_ms_per_answer": (
            1000.0 * cpu / answers if answers else float("inf")
        ),
        "latencies_ms": latencies,
    }


def same_answers(left_results, right_results) -> int:
    """Answers that differ between two runs of the same cycles."""
    from repro.stream.standing import answers_equal

    mismatches = abs(len(left_results) - len(right_results))
    for left, right in zip(left_results, right_results):
        mismatches += abs(len(left["answers"]) - len(right["answers"]))
        mismatches += sum(
            not answers_equal(a, b)
            for a, b in zip(left["answers"], right["answers"])
        )
    return mismatches


def run_in_process(args):
    from measure import tail
    from workloads import WORKLOADS, closed_loop

    cls = WORKLOADS[args.workload]
    if args.probe_setup:
        workload = cls(args.seed)
        started = time.perf_counter()
        workload.setup()
        print(time.perf_counter() - started)
        return None

    if not args.trace:
        workload = cls(args.seed)
        started = time.perf_counter()
        workload.setup()
        setups = [time.perf_counter() - started]
        workload.prepare()
        # The workload idles while the probes after a segment run.
        results, failed, peak = [], 0, 0.0
        for _ in range(SEGMENTS):
            part, part_failed, part_peak = closed_loop(
                workload, args.seconds / SEGMENTS)
            results += part
            failed += part_failed
            peak = max(peak, part_peak)
            setups += [probe_setup(args)
                       for _ in range((SETUP_SAMPLES - 1) // SEGMENTS)]
        summary = summarize_cycles(results)
        attempted = sum(r["attempted"] for r in results)
        metrics = {
            "answers_per_s": summary["answers_per_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "cpu_ms_per_answer": summary["cpu_ms_per_answer"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
        }
        info = {
            "cycles": len(results),
            "tail_latency_ms": tail(summary["latencies_ms"]),
            "setup_samples_s": setups,
            "evidence": workload.evidence(results),
        }
        return attempted, failed, metrics, info

    from tracing import Ledger, Tracer, install_layers, layer_metrics

    untraced = cls(args.seed)
    untraced.setup()
    untraced.prepare()
    plain, failed_plain, _ = closed_loop(untraced, args.seconds / 2)
    tracer = install_layers(Tracer())
    try:
        traced = cls(args.seed)
        if hasattr(untraced, "references"):
            traced.references = untraced.references
        traced.setup()
        traced.prepare()
        results, failed, _ = closed_loop(traced, 0, n_cycles=len(plain))
    finally:
        tracer.uninstall()
    ledger = Ledger(tracer.spans, tracer.leaves,
                    [r["window"] for r in results if r["window"]])
    metrics = layer_metrics(ledger)
    wall_plain = summarize_cycles(plain)["wall"]
    metrics.update({
        "driver.late_ms_p50": 0.0,
        "driver.late_ms_max": 0.0,
        "trace.overhead_frac": ledger.wall / wall_plain - 1.0,
        "trace.mismatches": same_answers(plain, results),
    })
    attempted = sum(r["attempted"] for r in plain + results)
    info = {
        "cycles": len(results),
        "solve_share": metrics["solvers.solve_s"] / ledger.wall,
        "evidence": traced.evidence(results),
        "upper_bound_runs_by_quarter": _by_quarter(
            ledger, results, "solvers.upper_bound"),
    }
    return attempted, failed + failed_plain, metrics, info


def _by_quarter(ledger, results, name) -> list[float]:
    """Spans of ``name`` per cycle, in each quarter of the cycles."""
    import bisect

    from measure import quarter_means

    windows = [r["window"] for r in results if r["window"]]
    starts = [start for start, _ in windows]
    per_cycle = [0] * len(windows)
    for span in ledger.named(name):
        index = bisect.bisect_right(starts, span[2]) - 1
        if index >= 0:
            per_cycle[index] += 1
    return quarter_means(per_cycle)


# ----------------------------------------------------------------------
# The server workload
# ----------------------------------------------------------------------


def serve_metrics(measured, expected) -> tuple:
    from measure import nearest_rank
    from serve import response_ok

    records = measured["records"]
    ok = [response_ok(r, expected) for r in records]
    delivered = sum(
        len(r["texts"]) for r, good in zip(records, ok) if good
    )
    span = max(r["done"] for r in records) - min(r["due"] for r in records)
    latencies = [
        (r["done"] - r["due"]) * 1000.0 if good else float("inf")
        for r, good in zip(records, ok)
    ]
    late = [r["late"] * 1000.0 for r in records]
    summary = {
        "answers_per_s": delivered / span,
        "latency_p50_ms": nearest_rank(latencies, 50),
        "cpu_ms_per_answer": 1000.0 * measured["cpu"] / max(delivered, 1),
        "latencies_ms": latencies,
        "late_ms_p50": nearest_rank(late, 50),
        "late_ms_max": max(late),
        "window": (min(r["due"] for r in records),
                   max(r["done"] for r in records)),
    }
    return len(records), ok.count(False), summary


def run_serve(args):
    from measure import tail
    from serve import references, schedule, serve_session

    if args.probe_setup:
        raise SystemExit("serve_open measures set-up from server launches")
    expected = references()
    if not args.trace:
        items = schedule(args.seed, args.seconds)

        def launches(count: int) -> list[float]:
            return [
                serve_session(ROOT, items, traced=False, measure=False)[0]
                for _ in range(count)
            ]

        before = (SETUP_SAMPLES - 1) // 2
        setups = launches(before)
        setup, measured, _ = serve_session(ROOT, items, traced=False)
        setups += [setup] + launches(SETUP_SAMPLES - 1 - before)
        attempted, failed, summary = serve_metrics(measured, expected)
        metrics = {
            "answers_per_s": summary["answers_per_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "cpu_ms_per_answer": summary["cpu_ms_per_answer"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        info = {
            "requests": attempted,
            "tail_latency_ms": tail(summary["latencies_ms"]),
            "generator_late_ms": {"p50": summary["late_ms_p50"],
                                  "max": summary["late_ms_max"]},
            "fresh_solves_in_window": measured["misses"],
            "setup_samples_s": setups,
        }
        if measured["misses"] != 0:
            failed += 1  # steady state not reached, or no evidence of it
        return attempted, failed, metrics, info

    from serve import answer_values
    from tracing import Ledger, layer_metrics, load

    items = schedule(args.seed, args.seconds / 2)
    _, plain, _ = serve_session(ROOT, items, traced=False)
    _, traced, server = serve_session(ROOT, items, traced=True)
    attempted_plain, failed_plain, summary_plain = serve_metrics(
        plain, expected)
    attempted, failed, summary = serve_metrics(traced, expected)
    spans, leaves = load(server.trace_payload())
    ledger = Ledger(spans, leaves, [summary["window"]])
    metrics = layer_metrics(ledger)
    mismatches = sum(
        answer_values(a) != answer_values(b)
        for a, b in zip(plain["records"], traced["records"])
    )
    metrics.update({
        "driver.late_ms_p50": summary["late_ms_p50"],
        "driver.late_ms_max": summary["late_ms_max"],
        "trace.overhead_frac": (
            summary["cpu_ms_per_answer"] / summary_plain["cpu_ms_per_answer"]
            - 1.0
        ),
        "trace.mismatches": mismatches,
    })
    info = {
        "requests": attempted,
        "solve_share": metrics["solvers.solve_s"] / ledger.wall,
        "fresh_solves_in_window": [plain["misses"], traced["misses"]],
    }
    return attempted + attempted_plain, failed + failed_plain, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    runner = run_serve if args.workload == "serve_open" else run_in_process
    outcome = runner(args)
    if outcome is None:
        return 0
    attempted, failed, metrics, info = outcome
    units = declared_units("per_layer" if args.trace else "end_to_end")
    info.update({"workload": args.workload, "seed": args.seed,
                 "trace": args.trace})
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
