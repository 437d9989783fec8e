"""Statistics and process probes shared by every workload.

Timings use ``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC —
the same clock in every process, so spans recorded inside the server line
up with the driver's due times.
"""

from __future__ import annotations

import math
import os
import statistics
from fractions import Fraction

#: Percentiles offered for the tail report, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(sample, percent) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``percent`` % of the sample at or below it.

    Exact rank arithmetic (``ceil(p * n / 100)``, 1-based) so that, say,
    p95 of 20 samples is the 19th value and not the 20th through float
    rounding.
    """
    if not sample:
        raise ValueError("percentile of an empty sample")
    fraction = Fraction(str(percent)) / 100
    if not 0 < fraction <= 1:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(sample)
    rank = math.ceil(fraction * len(ordered))
    return ordered[rank - 1]


def tail(sample) -> "dict | None":
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples above.

    Returns ``{"percentile", "value", "n", "beyond"}``, or ``None`` when the
    sample is too small for even the median to qualify.
    """
    n = len(sample)
    best = None
    for percent in TAIL_LADDER:
        rank = math.ceil(Fraction(str(percent)) / 100 * n)
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            best = {
                "percentile": percent,
                "value": nearest_rank(sample, percent),
                "n": n,
                "beyond": beyond,
            }
    return best


def quarter_means(values) -> list[float]:
    """Means of the four quarters of ``values`` (fewer if too short)."""
    values = list(values)
    size = max(1, len(values) // 4)
    return [
        sum(values[start:start + size]) / len(values[start:start + size])
        for start in range(0, min(len(values), 4 * size), size)
    ]


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size.

    Writing ``5`` to ``/proc/self/clear_refs`` resets VmHWM (Linux 4.0+),
    so a later :func:`peak_rss_mb` covers only what ran in between.
    """
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process since the last reset, MiB."""
    return proc_peak_rss_mb(os.getpid())


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state); utime/stime are fields 14/15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another process, MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
