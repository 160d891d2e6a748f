"""Percentiles that refuse to extrapolate."""

from __future__ import annotations

import math
from fractions import Fraction

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def min_samples(q) -> int:
    """The smallest sample count for which :func:`percentile` answers."""
    count = MIN_BEYOND + 1
    while count - math.ceil(Fraction(str(q)) * count / 100) < MIN_BEYOND:
        count += 1
    return count


def percentile(values, q) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples lie above the reported one, so a p90
    needs 100 samples and a p99 needs 1000.
    """
    fraction = Fraction(str(q))
    if not 0 < fraction < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(values)
    count = len(ordered)
    rank = math.ceil(fraction * count / 100)
    if count - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q} of {count} samples leaves {max(count - rank, 0)} "
            f"beyond it; need {MIN_BEYOND} ({min_samples(q)} samples)")
    return ordered[rank - 1]
