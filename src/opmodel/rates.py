"""Mean times, failure rates and histories, and their conversion to probabilities.

Mean times between failures combine harmonically, rates combine by addition,
and the two views are exchanged by inversion.  Normalizing sibling rates
yields the relative failure probabilities consumed by the rest of the
library.  The harmonic combination assumes independent failure processes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .portgraph import ValidationError, Value, lookup
from .presentation import OperadPresentation, Term, check_term
from .prob import EXACT, Distribution, ProbFunctor, format_exact

INF = math.inf

MeanTime = Fraction | int | float  # positive and exact, or math.inf
Rate = Fraction | int              # finite and non-negative


def _shown(x: object) -> str:
    """``repr(x)``, or an exact value past the interpreter's integer string
    limit as ``format_exact`` writes it."""
    try:
        return repr(x)
    except ValueError:
        return format_exact(x)


def _check_exact(what: str, x: object) -> None:
    if not isinstance(x, EXACT):
        raise ValidationError(f"{what} {_shown(x)} is not an int or Fraction")


def _check_meantime(t: MeanTime) -> None:
    if t == INF:
        return
    _check_exact("mean time", t)
    if t <= 0:
        raise ValidationError(f"mean time must be positive, got {_shown(t)}")


def _check_rate(r: Rate) -> None:
    _check_exact("rate", r)
    if r < 0:
        raise ValidationError(
            f"rate must be a finite non-negative value, got {_shown(r)}")


def invert(x: MeanTime | Rate) -> Rate | MeanTime:
    """Exchange mean times and rates; infinity and zero swap."""
    if x == INF:
        return Fraction(0)
    if x == 0:
        return INF
    return 1 / Fraction(x)


def combine_meantime(ts: Sequence[MeanTime]) -> MeanTime:
    """Harmonic combination; infinite entries contribute nothing."""
    if not ts:
        raise ValidationError("cannot combine an empty list of mean times")
    total = Fraction(0)
    for t in ts:
        _check_meantime(t)
        if t != INF:
            total += 1 / Fraction(t)
    if total == 0:
        return INF
    return 1 / total


def combine_rates(rs: Sequence[Rate]) -> Rate:
    for r in rs:
        _check_rate(r)
    return sum(rs, Fraction(0))


def normalize(rates: Sequence[Rate] | Mapping[str, Rate]) -> Distribution:
    """The relative-probability distribution of sibling rates."""
    if isinstance(rates, Mapping):
        items = list(rates.items())
    else:
        items = [(str(i), r) for i, r in enumerate(rates)]
    for _, r in items:
        _check_rate(r)
    total = sum((r for _, r in items), Fraction(0))
    if total == 0:
        raise ValidationError("zero total rate")
    return Distribution(tuple((label, r / total) for label, r in items))


class FailureHistory(Value):
    """Failure timestamps over a closed interval, each an int or a Fraction."""

    __slots__ = ("t0", "t1", "times")

    def __init__(self, t0: Fraction | int, t1: Fraction | int,
                 times: tuple[Fraction | int, ...]) -> None:
        self.t0, self.t1, self.times = t0, t1, times
        _check_exact("history bound", t0)
        _check_exact("history bound", t1)
        if not t0 < t1:
            raise ValidationError("history interval must satisfy t0 < t1")
        for t in times:
            _check_exact("timestamp", t)
            if not (t0 <= t <= t1):
                raise ValidationError("timestamp {} outside [{}, {}]".format(
                    *map(format_exact, (t, t0, t1))))

    @property
    def count(self) -> int:
        return len(self.times)

    @property
    def span(self) -> Fraction | int:
        return self.t1 - self.t0


def history_stats(h: FailureHistory) -> MeanTime:
    """Observed mean time between failures: span over count (infinite if none)."""
    if h.count == 0:
        return INF
    return Fraction(h.span, h.count)


INDEPENDENCE_NOTE = ("rates aggregated assuming independent failure "
                     "processes with constant rates")


class PipelineResult(NamedTuple):
    functor: ProbFunctor
    rates: Mapping[str, Rate]  # aggregate rate per term root and leaf path
    conflicts: tuple[str, ...]
    note: str = INDEPENDENCE_NOTE

    @property
    def consistent(self) -> bool:
        return not self.conflicts


def pipeline_check(pres: OperadPresentation,
                   assignments: Sequence[tuple[Term, Mapping[str, FailureHistory]]],
                   ) -> PipelineResult:
    """Fold leaf histories into rates, aggregate up each term, and normalize.

    Each term must come with a history for every leaf path.  Every generator
    visited gets the normalized distribution of its children's aggregate
    rates; generators reached through several terms must agree.
    """
    for term, _ in assignments:
        check_term(pres, term)
    dists: dict[str, Distribution] = {}
    all_rates: dict[str, Rate] = {}
    conflicts: list[str] = []

    def visit(t: Term, histories: Mapping[str, FailureHistory],
              prefix: str) -> Rate:
        fills = dict(t.children)
        child_rates: dict[str, Rate] = {}
        for slot, _ in pres.generators[t.generator].inputs:
            sub = fills.get(slot)
            path = prefix + slot
            if sub is None:
                rate = invert(history_stats(lookup(
                    histories, path, "missing history for leaf {}")))
                all_rates[path] = rate
            else:
                rate = visit(sub, histories, path + ".")
            child_rates[slot] = rate
        dist = normalize(child_rates)
        if t.generator in dists and dists[t.generator] != dist:
            conflicts.append(
                f"generator {t.generator}: {dist} conflicts with "
                f"{dists[t.generator]}")
        else:
            dists[t.generator] = dist
        return combine_rates(list(child_rates.values()))

    for term, histories in assignments:
        root_rate = visit(term, histories, "")
        all_rates[str(term)] = root_rate

    return PipelineResult(ProbFunctor(dists), all_rates, tuple(conflicts))
