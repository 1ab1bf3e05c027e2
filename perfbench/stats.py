"""Order statistics and the add-up gate.

Standard library only, so ``run.py`` can import it before numpy is loaded
(the BLAS thread count must be pinned before that import).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Mapping, Sequence, Tuple

#: Percentiles the report can name, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)`` exactly as ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``n`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(math.ceil(round(q / 100.0 * n, 6)), 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - _rank(n, q)


def highest_reportable(n: int, candidates: Sequence[float] = PERCENTILES
                       ) -> float:
    """The highest percentile in ``candidates`` with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it; 0.0 when none has."""
    best = 0.0
    for q in candidates:
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            best = max(best, q)
    return best


def addup(wall_s: float, parts: Mapping[str, float],
          max_unattributed_share: float) -> Dict[str, float]:
    """Check that layer self times account for a stage's wall time.

    ``unattributed_s`` is the wall time no layer claims.  The check fails
    when layers claim more than the wall time (a span counted twice) or
    leave more than ``max_unattributed_share`` of it unclaimed.
    """
    attributed = sum(parts.values())
    unattributed = wall_s - attributed
    share = unattributed / wall_s if wall_s > 0 else 1.0
    ok = -1e-6 <= share <= max_unattributed_share
    return {"wall_s": wall_s, "attributed_s": attributed,
            "unattributed_s": unattributed, "unattributed_share": share,
            "ok": ok}
