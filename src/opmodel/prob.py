"""The operad of finite probability distributions and functors into it.

A failure model assigns to each generator a distribution over its input
slots: the relative probability that a failure of the whole lies in each
part.  Composites multiply conditionally, so a coherence equation between
architectures induces equations between products of probabilities.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Collection, Mapping, NamedTuple

from .portgraph import ValidationError, Value, graft, lookup
from .presentation import (
    CheckReport,
    CoherenceEquation,
    OperadPresentation,
    Term,
    _leaf_route,
    aligned_equations,
    equation_correspondence,
    fold_term,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def percent(p: Fraction) -> float:
    """``p`` as a percentage rounded to one decimal, e.g. ``48.0`` for 12/25."""
    return float(round(p * 100, 1))


def format_probability(p: Fraction) -> str:
    """Render as an exact fraction with a one-decimal percentage, e.g. ``12/25 (48%)``."""
    return f"{format_exact(p)} ({percent(p):g}%)"


def format_exact(q: Fraction) -> str:
    """``str(q)``, or ``0x…/0x…`` past ``sys.get_int_max_str_digits()``."""
    try:
        return str(q)
    except ValueError:
        return f"{q.numerator:#x}/{q.denominator:#x}"


EXACT = (Fraction, int)  # the probability types whose sums are checked exactly


def exact_sum(pairs: Collection[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the fractions ``n/d`` of ``(n, d)`` pairs as an unreduced
    ``(numerator, denominator)`` pair, over the lcm of the denominators:
    integer sums, no gcd per addition."""
    d = lcm(*[e for _, e in pairs])
    return sum([n * (d // e) for n, e in pairs]), d


class Distribution(Value):
    """An ordered finite probability distribution with unique labels."""

    __slots__ = ("entries",)

    def __new__(cls, entries: tuple[tuple[str, Fraction], ...]) -> Distribution:
        if len({l for l, _ in entries}) != len(entries):
            raise ValidationError("distribution labels must be unique")
        for l, p in entries:
            if not isinstance(p, EXACT):
                raise ValidationError(
                    f"probability {l}: {p!r} is not an int or Fraction")
        return cls._new(entries)

    @classmethod
    def _new(cls, entries: tuple[tuple[str, Fraction], ...]) -> Distribution:
        """Unique labels and exact probabilities assumed: range and sum are
        checked on the ``(numerator, denominator)`` of each."""
        pairs = [p.as_integer_ratio() for _, p in entries]
        n, d = exact_sum(pairs)
        if n != d or min(pairs)[0] < 0:  # in range if none is negative
            for l, p in entries:
                if not 0 <= p.numerator <= p.denominator:
                    raise ValidationError(
                        f"probability {l}: {format_exact(p)} outside [0, 1]")
            raise ValidationError("distribution does not sum to 1")
        self = object.__new__(cls)
        self.entries = entries
        return self

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.entries)

    def __getitem__(self, label: str) -> Fraction:
        for l, p in self.entries:
            if l == label:
                return p
        raise ValidationError(f"unknown label {label!r}")

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(f"{l}: {format_exact(p)} ({percent(p):g}%)"
                               for l, p in self.entries) + ")"


def distribution(**entries: Fraction | int | str) -> Distribution:
    return Distribution(tuple((l, Fraction(p)) for l, p in entries.items()))


def compose_dist(p: Distribution,
                 qs: Mapping[str, Distribution]) -> Distribution:
    """Operadic composition: entries multiply, labels become dotted paths.

    Labels of ``p`` absent from ``qs`` behave as arity-1 identities and
    keep their label.
    """
    return Distribution(graft(
        p.entries, {label: q.entries for label, q in qs.items()}, mul))


class ProbFunctor(NamedTuple):
    """Generator-wise failure distributions, labeled by the generators' slots."""

    dists: Mapping[str, Distribution]
    name: str = ""

    def __getitem__(self, generator: str) -> Distribution:
        return lookup(self.dists, generator,
                      "probability functor has no value for {!r}")

    def fold(self, t: Term) -> Distribution:
        """The composite distribution of a term, labeled by leaf paths."""
        return fold_term(t, self.__getitem__, compose_dist)


def check_arity(pres: OperadPresentation, F: ProbFunctor) -> list[str]:
    """Mismatches between a functor's labels and its generators' slots."""
    problems = []
    for name, arch in pres.generators.items():
        if name not in F.dists:
            problems.append(f"no distribution for generator {name}")
            continue
        if set(F.dists[name].labels) != set(arch.slots):
            problems.append(
                f"distribution for {name} is labeled "
                f"{F.dists[name].labels}, expected slots {arch.slots}")
    return problems


def leaf_probability(pres: OperadPresentation, F: ProbFunctor, t: Term,
                     leaf: str) -> Fraction:
    """Product of the functor's entries along the root-to-leaf path.

    The empty selector names the root itself and yields 1.
    """
    return leaf_path_probability(pres, F, t, leaf)[1]


def leaf_path_probability(pres: OperadPresentation, F: ProbFunctor, t: Term,
                          leaf: str) -> tuple[str, Fraction]:
    """The dotted path a leaf selector resolves to, ``""`` for the empty
    one, and :func:`leaf_probability` there.

    One walk over ``t`` types it and resolves the path (a term that
    :func:`check_term` refuses gets its error), and ``F``'s entries are
    multiplied along the path alone: a generator with no value raises at
    the first step from the root that reaches it, and a value lacking the
    step's slot raises its unknown label.
    """
    path, _, route = _leaf_route(pres, t, leaf)
    return path, prod((F[g][slot] for g, slot in route), start=ONE)


class ProbCheckRow(NamedTuple):
    equation: CoherenceEquation
    lhs_path: str
    rhs_path: str
    lhs_value: Fraction
    rhs_value: Fraction
    passed: bool

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"{self.lhs_path} ~ {self.rhs_path}: "
                f"{format_probability(self.lhs_value)} vs "
                f"{format_probability(self.rhs_value)} [{verdict}]")

    def to_dict(self) -> dict:
        return {"lhs": self.lhs_path, "rhs": self.rhs_path,
                "lhs_value": format_exact(self.lhs_value),
                "rhs_value": format_exact(self.rhs_value), "passed": self.passed}


def check_prob_functor(pres: OperadPresentation, F: ProbFunctor,
                       tolerance: Fraction = ZERO) -> CheckReport:
    """Compare composed probabilities across every coherence equation.

    Entries aligned via the equation correspondence must agree within the
    absolute tolerance (exactly, when the tolerance is zero).
    """
    errors = check_arity(pres, F)
    rows: list[ProbCheckRow] = []
    if not errors:
        for eq, mapping, lhs, rhs in aligned_equations(pres, F.fold, errors):
            rhs = rhs.as_dict()
            for path, pl in lhs.entries:
                pr = rhs[mapping[path]]
                rows.append(ProbCheckRow(
                    eq, path, mapping[path], pl, pr, abs(pl - pr) <= tolerance))
    return CheckReport("probability coherence", tuple(rows), tuple(errors),
                       "leaf equations")


def symbolic_constraints(pres: OperadPresentation) -> tuple[str, ...]:
    """The product-path identity induced by each matched leaf pair.

    For the standard two-level equation this yields strings such as
    ``phi(ls)·lambda(in) = kappa(sn)·sigma(in)``.
    """
    def factors(t: Term) -> tuple[tuple[str, str], ...]:
        return fold_term(t, lambda gen: tuple(
            (slot, f"{gen}({slot})") for slot in pres.generator(gen).slots),
            lambda outer, inner: graft(outer, inner, "{}·{}".format))

    out: list[str] = []
    for eq in pres.equations:
        corr = equation_correspondence(pres, eq)
        rhs = dict(factors(eq.rhs))
        out += [f"{lhs} = {rhs[corr.mapping[path]]}"
                for path, lhs in factors(eq.lhs)]
    return tuple(out)
