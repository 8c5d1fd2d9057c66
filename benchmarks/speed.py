"""Machine-speed calibration for the benchmark's times.

On a shared host the speed of one core drifts, by more than half over tens of
seconds, with load that has nothing to do with ``opmodel``.  A fixed
pure-Python reference kernel, independent of ``opmodel``, is therefore timed
right before and right after each timed interval.  The interval is scaled by
``REFERENCE_S`` / (mean kernel time before and after): the time it would
have taken on a machine where the kernel takes exactly ``REFERENCE_S``.  On
such a host the ratio of an op's time to the kernel's time stays within a
few per cent while raw times move by half.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001        # the kernel's time on the nominal machine
CALIBRATION_SHARE = 0.1    # kernel time spent per second timed


def reference_kernel() -> int:
    """Exact fractions, tuples, dicts, frozensets and strings, as opmodel uses."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 180):
        f = Fraction(i % 7 + 1, i % 11 + 2)
        acc += f * f
        table[(i % 37, str(i % 13))] = frozenset((i, i + 1))
    return len(table) + acc.denominator


def reference_time(budget: float) -> float:
    """Mean time of the reference kernel over at least two runs and ``budget`` s."""
    runs = 0
    began = perf_counter()
    while True:
        reference_kernel()
        runs += 1
        spent = perf_counter() - began
        if runs >= 2 and spent >= budget:
            return spent / runs


class Scaler:
    """Scales consecutive intervals by the kernel times measured around each."""

    def __init__(self) -> None:
        self._before = reference_time(0.0)

    def scale(self, elapsed: float) -> float:
        """Factor for the interval of ``elapsed`` s that just ended.

        Call it right after the interval.  The kernel runs for a share of
        the interval's length, so that a long interval is scaled by the
        machine's mean speed over a comparable stretch of time.
        """
        after = reference_time(CALIBRATION_SHARE * elapsed)
        factor = 2 * REFERENCE_S / (self._before + after)
        self._before = after
        return factor
