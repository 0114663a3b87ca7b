"""Latency summaries in which a failed request ranks as a missed limit.

A failed request has no latency. It counts as having missed every
latency limit, so it ranks above every success, and a percentile that
lands on a failure has no value: it reads ``None`` ("limit missed"),
which ranks worse than any number.  Latencies are passed as a list with
``None`` for each failed request.
"""
from __future__ import annotations

from typing import Optional, Sequence

# The tail percentile is the highest one that still has at least this
# many requests ranked beyond it.
MIN_BEYOND = 10


def _ranked(latencies: Sequence[Optional[float]]) -> list[Optional[float]]:
    done = sorted(v for v in latencies if v is not None)
    return done + [None] * (len(latencies) - len(done))


def median(latencies: Sequence[Optional[float]]) -> Optional[float]:
    """Median latency; ``None`` when a middle rank holds a failure or there are no requests."""
    ranked = _ranked(latencies)
    if not ranked:
        return None
    mid = len(ranked) // 2
    middle = ranked[mid - 1 : mid + 1] if len(ranked) % 2 == 0 else ranked[mid : mid + 1]
    if any(v is None for v in middle):
        return None
    return sum(middle) / len(middle)


def tail(latencies: Sequence[Optional[float]]) -> tuple[Optional[float], Optional[float], int]:
    """Latency at the highest percentile with at least ``MIN_BEYOND`` requests ranked above it.

    Returns ``(value, percentile, n)``.  With ``n`` requests the reported
    one has rank ``n - MIN_BEYOND`` (1-based), i.e. percentile
    ``100 * (n - MIN_BEYOND) / n``.  Both value and percentile are ``None``
    when ``n <= MIN_BEYOND``; the value alone is ``None`` when that rank
    holds a failure.
    """
    n = len(latencies)
    if n <= MIN_BEYOND:
        return None, None, n
    rank = n - MIN_BEYOND
    return _ranked(latencies)[rank - 1], 100.0 * rank / n, n
