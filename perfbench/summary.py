"""Arithmetic shared by the benchmark and its spread check."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def fail_frac(outcomes) -> float:
    """Share of attempted fits that raised or failed the correctness check.

    `outcomes` holds one entry per attempted fit: None for a fit that passed,
    otherwise a short reason string.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no fit was attempted")
    return sum(o is not None for o in outcomes) / len(outcomes)
