"""The exact sum checks of distributions, priors and kernels.

``Distribution``, ``Point`` and ``Kernel`` sum integer numerators over a
common denominator.  Each must accept exactly what a plain ``Fraction`` sum
accepts, and reject the rest with the same first message.
"""
import random
import sys
from decimal import Decimal
from fractions import Fraction
from time import perf_counter

import pytest

from opmodel.modes import ModeSet
from opmodel.portgraph import ValidationError
from opmodel.prob import Distribution
from opmodel.stoch import Kernel, Point, PtKernel, pt_condition
from randgen import (
    distribution_check_oracle,
    kernel_check_oracle,
    point_check_oracle,
    random_distribution,
    random_kernel,
    random_modeset,
    random_point,
)

F = Fraction
N = 2 ** 61 - 1  # a large prime
M = 2 ** 31 - 1  # another


def variants(rng: random.Random, pairs: list) -> list[list]:
    """``pairs`` (key, probability) as drawn, and perturbed copies: one
    entry moved by 1/N either way, a negative entry, an entry above 1, no
    entries, ints mixed with ``Fraction``s, two entries moved by 1/N and
    -1/N or -1/M, and prime denominators that sum to exactly 1."""
    j = rng.randrange(len(pairs))
    p = pairs[j][1]

    def at(*moves):
        out = list(pairs)
        for index, value in moves:
            out[index] = (out[index][0], value)
        return out

    out = [pairs, at((j, p + F(1, N))), at((j, p - F(1, N))), at((j, -p)),
           at((j, p + 1)), [],
           [(key, 1 if i == j else rng.choice((0, F(0))))
            for i, (key, _) in enumerate(pairs)],
           at((j, 1)), at((j, 2))]
    if len(pairs) > 1:
        a, b = rng.sample(range(len(pairs)), 2)
        pa, pb = pairs[a][1], pairs[b][1]
        out += [at((a, pa + F(1, N)), (b, pb - F(1, N))),
                at((a, pa + F(1, N)), (b, pb - F(1, M))),
                at((a, 2), (b, -1))]
        primes = [0] * len(pairs)
        primes[a], primes[b] = F(1, N), F(N - 1, N)
        if len(pairs) > 2:
            c = next(i for i in range(len(pairs)) if i not in (a, b))
            primes[b] -= F(1, M)
            primes[c] = F(1, M)
        out.append([(key, v) for (key, _), v in zip(pairs, primes)])
    return out


def kind(message: str) -> str:
    """Which check a message comes from, so each test can show that it
    reached every one."""
    return next((w for w in ("outside", "negative", "sum") if w in message),
                message or "accepted")


def outcome(build) -> str:
    """The ``ValidationError`` message ``build()`` raises, or ``""``."""
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return ""


def test_distribution_agrees_with_fraction_sum_oracle():
    rng = random.Random(101)
    checked = set()
    for _ in range(150):
        labels = tuple(f"l{i}" for i in range(rng.randint(1, 5)))
        entries = list(random_distribution(rng, labels).entries)
        for pairs in variants(rng, entries):
            want = distribution_check_oracle(pairs)
            assert outcome(lambda: Distribution(tuple(pairs))) == want, pairs
            if not want:
                assert Distribution(tuple(pairs)).entries == tuple(pairs)
            checked.add(kind(want))
    assert checked == {"accepted", "outside", "sum"}


def test_point_agrees_with_fraction_sum_oracle():
    rng = random.Random(202)
    checked = set()
    for _ in range(150):
        ms = random_modeset(rng, "B", 5)
        probs = random_point(rng, ms).probs
        for pairs in variants(rng, list(probs.items())):
            want = point_check_oracle(ms, dict(pairs))
            assert outcome(lambda: Point(ms, dict(pairs))) == want, pairs
            if not want:
                assert Point(ms, dict(pairs)).probs == {
                    m: p for m, p in pairs if p}
            checked.add(kind(want))
    assert checked == {"accepted", "negative", "sum"}


def test_kernel_agrees_with_fraction_sum_oracle():
    rng = random.Random(303)
    checked = set()
    for _ in range(150):
        source = random_modeset(rng, "X", 3)
        slots = tuple((f"s{i}", random_modeset(rng, f"B{i}", 3))
                      for i in range(rng.randint(1, 3)))
        kernel = random_kernel(rng, source, slots)
        # perturb one row, or two: an entry check in a later row must still
        # come before a row sum check in an earlier one
        rows = rng.sample(source.modes, rng.randint(1, len(source.modes)))[:2]
        choices = []
        for x in rows:
            row = [(key, p) for key, p in kernel.entries.items()
                   if key[0] == x]
            choices.append((x, variants(rng, row)))
        for _ in range(8):
            entries = dict(kernel.entries)
            for x, options in choices:
                for key in [key for key in entries if key[0] == x]:
                    del entries[key]
                entries.update(rng.choice(options))
            want = kernel_check_oracle(source, slots, entries)
            assert outcome(lambda: Kernel(source, slots, entries)) == want, \
                entries
            if not want:
                assert Kernel(source, slots, entries).entries == {
                    key: p for key, p in entries.items() if p}
            checked.add(kind(want))
    assert checked == {"accepted", "negative", "sum"}


class TestInexactValues:
    """A probability that is not an ``int`` or a ``Fraction`` has no exact
    numerator and denominator, so it is refused by name."""

    Y = ModeSet("Y", ("y1", "y2"))

    @pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1/2", None],
                             ids=repr)
    def test_distribution(self, value):
        with pytest.raises(ValidationError) as info:
            Distribution((("a", value), ("b", F(1, 2))))
        assert str(info.value) == \
            f"probability a: {value!r} is not an int or Fraction"

    @pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1/2", None],
                             ids=repr)
    def test_point(self, value):
        with pytest.raises(ValidationError) as info:
            Point(self.Y, {"y1": value, "y2": F(1, 2)})
        assert str(info.value) == \
            f"prior on Y: mass {value!r} on 'y1' is not an int or Fraction"

    @pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1/2", None],
                             ids=repr)
    def test_kernel(self, value):
        with pytest.raises(ValidationError) as info:
            Kernel(ModeSet("X", ("x",)), (("a", self.Y),),
                   {("x", "a", "y1"): value, ("x", "a", "y2"): F(1, 2)})
        assert str(info.value) == \
            f"kernel entry (x -> a.y1): {value!r} is not an int or Fraction"

    def test_ints_are_exact(self):
        assert Distribution((("a", 1), ("b", 0))).entries == \
            (("a", 1), ("b", 0))
        assert Point(self.Y, {"y1": 0, "y2": 1}).probs == {"y2": 1}


def _odd_primes(n: int) -> list[int]:
    limit = 70_000  # the 6000th odd prime is 59,369
    sieve = bytearray([1]) * limit
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    primes = [i for i in range(3, limit) if sieve[i]]
    assert len(primes) >= n
    return primes[:n]


def test_rows_with_distinct_prime_denominators_take_linear_time():
    """Each row is summed over its own lcm.  One lcm for the whole kernel
    would be the product of 6000 primes, and these checks would take
    seconds instead of milliseconds."""
    primes = _odd_primes(6000)
    source = ModeSet("X", tuple(f"x{k}" for k in range(len(primes))))
    target = ModeSet("Y", ("a", "b"))
    entries = {}
    for k, p in enumerate(primes):
        entries[(f"x{k}", "s", "a")] = F(1, p)
        entries[(f"x{k}", "s", "b")] = F(p - 1, p)
    start = perf_counter()
    kernel = Kernel(source, (("s", target),), entries)
    kernel_s = perf_counter() - start
    # a prior of p_k / sum(primes) on row k cancels its denominator
    total = sum(primes)
    pointed = PtKernel(
        kernel, Point(source, {f"x{k}": F(p, total)
                               for k, p in enumerate(primes)}),
        {"s": Point(target, {"a": F(len(primes), total),
                             "b": F(total - len(primes), total)})})
    start = perf_counter()
    report = pt_condition(pointed)
    pt_s = perf_counter() - start
    assert report.holds and report.aggregate == (("s", 1),)
    assert kernel_s < 0.25, f"Kernel check took {kernel_s:.2f} s"
    assert pt_s < 0.25, f"pt_condition took {pt_s:.2f} s"


def _hex(q: Fraction) -> str:
    return f"{q.numerator:#x}/{q.denominator:#x}"


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 7000,
    reason="no integer string conversion limit below 7000 digits")
class TestOverlongValues:
    """A value whose decimal form passes the interpreter's limit on integer
    string conversion is named in hexadecimal: the checks report it instead
    of raising ``ValueError``.  The sums of 1/p over 2000 distinct odd
    primes p have about 7500 digits."""

    PRIMES = _odd_primes(2000)

    def test_pt_condition_names_an_overlong_marginal(self):
        source = ModeSet("X", tuple(f"x{k}" for k in range(len(self.PRIMES))))
        target = ModeSet("Y", ("a", "b"))
        entries = {}
        for k, p in enumerate(self.PRIMES):
            entries[(f"x{k}", "s", "a")] = F(1, p)
            entries[(f"x{k}", "s", "b")] = 1 - F(1, p)
        n = len(self.PRIMES)
        pointed = PtKernel(
            Kernel(source, (("s", target),), entries),
            Point(source, {x: F(1, n) for x in source.modes}),
            {"s": Point(target, {"a": F(1, 2), "b": F(1, 2)})})
        report = pt_condition(pointed)
        marginal = sum(F(1, p) for p in self.PRIMES) / n
        assert not report.holds
        assert report.violations == (
            f"slot s, mode a: marginal {_hex(marginal)} != 1 * 1/2",
            f"slot s, mode b: marginal {_hex(1 - marginal)} != 1 * 1/2")

    def test_kernel_names_an_overlong_row_sum(self):
        target = ModeSet("Y", tuple(f"y{k}" for k in range(len(self.PRIMES))))
        entries = {("x", "s", f"y{k}"): F(1, p)
                   for k, p in enumerate(self.PRIMES)}
        row = sum(F(1, p) for p in self.PRIMES)
        with pytest.raises(ValidationError) as err:
            Kernel(ModeSet("X", ("x",)), (("s", target),), entries)
        assert str(err.value) == f"kernel row for X.x sums to {_hex(row)}"
