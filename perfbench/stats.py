"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def tail(values: Sequence[float], min_beyond: int = MIN_BEYOND
         ) -> tuple[float, float]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(value, percentile)``.  With ``n`` samples sorted ascending,
    the sample at 0-based rank ``n - min_beyond - 1`` has exactly
    ``min_beyond`` samples after it, so it sits at percentile
    ``100 * (n - min_beyond) / n``.  Raises ``ValueError`` when there are
    too few samples for any such percentile.
    """
    n = len(values)
    if n <= min_beyond:
        raise ValueError(f"need more than {min_beyond} samples for a tail, "
                         f"got {n}")
    rank = n - min_beyond - 1
    return sorted(values)[rank], 100.0 * (n - min_beyond) / n


def windowed_tail(values: Sequence[float], window: int,
                  stride: int | None = None,
                  min_beyond: int = MIN_BEYOND) -> tuple[float, float, int]:
    """Median over ``window``-sized blocks, starting every ``stride``
    samples (default: back to back), of each block's :func:`tail`, so the
    percentile stays fixed however many samples a time-bounded run takes.
    Samples after the last complete block are ignored.

    Returns ``(value, percentile, blocks)``.
    """
    stride = stride or window
    if len(values) < window:
        raise ValueError(f"need at least one block of {window} samples, "
                         f"got {len(values)}")
    starts = range(0, len(values) - window + 1, stride)
    tails = [tail(values[i:i + window], min_beyond) for i in starts]
    blocks = len(tails)
    return (statistics.median(t for t, _ in tails), tails[0][1], blocks)


def qerror(estimate: float, actual: float) -> float:
    """Cardinality q-error, both sides floored at one row."""
    estimate, actual = max(1.0, float(estimate)), max(1.0, float(actual))
    return max(estimate, actual) / min(estimate, actual)


def log_loss(probabilities: Sequence[float], labels: Sequence[float],
             eps: float = 1e-7) -> float:
    """Mean binary cross-entropy of predicted probabilities."""
    if len(probabilities) != len(labels) or not labels:
        raise ValueError("log_loss needs equally many probabilities and "
                         "labels, and at least one")
    total = 0.0
    for p, y in zip(probabilities, labels):
        p = min(1.0 - eps, max(eps, float(p)))
        total -= y * math.log(p) + (1.0 - y) * math.log(1.0 - p)
    return total / len(labels)
