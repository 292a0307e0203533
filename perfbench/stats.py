"""The tail-percentile rule of the benchmark report."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # the tail percentile keeps at least this many tasks above it


def tail_percentile(n_tasks: int) -> int:
    """Highest whole percentile q with at least ``MIN_BEYOND`` tasks beyond it.

    With nearest-rank percentiles, the q-th percentile of n values is the
    value of rank ceil(q n / 100); the tasks beyond it number n minus that
    rank. Returns 50 when even the median leaves fewer than ``MIN_BEYOND``
    tasks beyond it, so that the tail never reads below the median.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    for q in range(99, 49, -1):
        if n_tasks - math.ceil(q * n_tasks / 100) >= MIN_BEYOND:
            return q
    return 50

