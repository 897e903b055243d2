"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import resource

import numpy as np


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def fast_quantile(times, q: float = 0.0) -> float:
    """A low quantile of repeated timings of the same work; ``q=0`` is the fastest.

    The repetitions do identical work on identical inputs, so their walls
    differ by what the shared host took from them: interference only adds
    time, in phases from under a second to tens of seconds, and a median
    moves with the share of a run those phases cover. Short repetitions
    that land between phases run at the program's own cost, the reason
    ``timeit`` reports the fastest. Work split over two threads can also
    run faster than its usual self when the scheduler happens to overlap
    them well; a low quantile (``q=0.25``) keeps that luck out. A
    regression that slows every repetition moves either.
    """
    times = sorted(times)
    position = q * (len(times) - 1)
    below = int(position)
    above = min(below + 1, len(times) - 1)
    return float(times[below] + (times[above] - times[below]) * (position - below))


def alarm_f1(verdicts, truth) -> float:
    """F1 of "raised at least one alarm" against ground truth, per execution."""
    tp = sum(1 for v, t in zip(verdicts, truth) if v and t)
    fp = sum(1 for v, t in zip(verdicts, truth) if v and not t)
    fn = sum(1 for v, t in zip(verdicts, truth) if t and not v)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (no workload starts a child)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
