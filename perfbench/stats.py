"""Order statistics used by the benchmark's reports.

Percentiles are nearest-rank: the p-th percentile of n sorted samples is
the sample at rank ceil(p * n / 100), and the samples beyond it are the
n - rank above that rank.  Percentiles are held in tenths (999 = p99.9)
so the rank is exact integer arithmetic.
"""

from __future__ import annotations

TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def rank(p10: int, n: int) -> int:
    """1-based nearest rank of percentile p10/10 among n samples."""
    return max(1, (p10 * n + 999) // 1000)


def percentile(values, p10: int) -> float:
    ordered = sorted(values)
    return ordered[rank(p10, len(ordered)) - 1]


def tail_percentile(n: int) -> tuple[int, int]:
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, and that count.  With fewer than 2*MIN_BEYOND samples no
    percentile qualifies and the median is returned with its count."""
    for p10 in TAIL_LADDER:
        beyond = n - rank(p10, n)
        if beyond >= MIN_BEYOND:
            return p10, beyond
    return 500, n - rank(500, n)

