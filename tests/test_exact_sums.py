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

from opmodel.dsl import DslError, parse
from opmodel.modes import ModeSet
from opmodel.portgraph import ValidationError
from opmodel.presentation import parse_term
from opmodel.prob import Distribution
from opmodel.rates import FailureHistory, pipeline_check
from opmodel.stoch import Kernel, Point, PtKernel, _kernels_agree, pt_condition
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


class TestParsedSums:
    """The parser checks the signs, ranges and sums of what it reads from
    each number spelling's integers; every spelling of a value parses to the
    value the public constructors take."""

    MODEL = """\
interface heat physical
boundary Bath { heat: heat }
boundary Room { heat: heat }
architecture warm : (a: Bath, b: Bath, c: Bath) -> Room {
  wire a.heat = b.heat = c.heat
  expose a.heat -> heat
}
prob P { warm = (a: %s, b: %s, c: %s) }
stoch S {
  prior Bath = (cold: %s, hot: %s, frozen: %s)
  prior Room = (bad: %s, good: %s)
  kernel warm {
    bad -> a.cold: %s
    bad -> b.hot: %s
    bad -> c.frozen: %s
    bad -> c.cold: %s
    good -> a.hot: %s
  }
}
"""
    # prob, Bath prior, Room prior, kernel row bad, kernel row good
    REDUCED = ("1/2", "1/4", "1/4", "1/2", "1/2", "0", "1", "0",
               "1/2", "1/4", "0", "1/4", "1")
    SPELLED = ("2/4", "0.25", "1/4", "0.5", "2/4", "0/7", "1", "0",
               "2/4", "25/100", "0.0", "0.25", "3/3")

    def test_spellings_parse_to_the_reduced_values(self):
        spelled, reduced = (parse(self.MODEL % v)
                            for v in (self.SPELLED, self.REDUCED))
        assert spelled == reduced
        half, quarter = F(1, 2), F(1, 4)
        bath = ModeSet("Bath", ("cold", "hot", "frozen"))
        room = ModeSet("Room", ("bad", "good"))
        slots = tuple((s, bath) for s in "abc")
        S = spelled.stoch_functors["S"]
        assert spelled.prob_functors["P"].dists["warm"] == Distribution(
            (("a", half), ("b", quarter), ("c", quarter)))
        assert S.priors == {"Bath": Point(bath, {"cold": half, "hot": half,
                                                 "frozen": 0}),
                            "Room": Point(room, {"bad": 1, "good": 0})}
        assert S.kernels["warm"] == Kernel(room, slots, {
            ("bad", "a", "cold"): half, ("bad", "b", "hot"): quarter,
            ("bad", "c", "frozen"): F(0), ("bad", "c", "cold"): quarter,
            ("good", "a", "hot"): 1})
        # a zero entry is dropped, as the public constructors drop it
        assert S.priors["Bath"].probs == {"cold": half, "hot": half}
        assert ("bad", "c", "frozen") not in S.kernels["warm"].entries
        # a repeated spelling is one value
        assert S.priors["Bath"].probs["hot"] \
            is S.kernels["warm"].entries[("bad", "a", "cold")]

    @pytest.mark.parametrize("at, message", [
        (0, "distribution does not sum to 1"),
        (3, "prior on Bath does not sum to 1"),
        (8, f"kernel row for Room.bad sums to {1 - F(1, 10 ** 30)}"),
    ], ids=["distribution", "prior", "kernel-row"])
    def test_a_sum_short_by_a_tiny_amount_fails(self, at, message):
        values = list(self.REDUCED)
        values[at] = f"{5 * 10 ** 29 - 1}/{10 ** 30}"
        with pytest.raises(DslError) as err:
            parse(self.MODEL % tuple(values))
        assert str(err.value).endswith(f": {message}")

    @pytest.mark.parametrize("changes, message", [
        ({1: "-1/4", 2: "3/4"}, "probability b: -1/4 outside [0, 1]"),
        ({4: "4/7", 5: "-1/14"}, "prior on Bath: negative mass on 'frozen'"),
        ({10: "-0.25", 11: "0.5"}, "kernel entry (bad -> c.frozen) negative"),
        ({11: "1/8", 12: "-1"}, "kernel entry (good -> a.hot) negative"),
    ], ids=["distribution", "prior", "kernel", "kernel-later-row"])
    def test_a_negative_entry_fails_before_any_sum(self, changes, message):
        """Each sum but the last case's first row is 1: the negative entry
        is found all the same, and before a row sum that is not 1."""
        values = [changes.get(i, v) for i, v in enumerate(self.SPELLED)]
        with pytest.raises(DslError) as err:
            parse(self.MODEL % tuple(values))
        assert str(err.value).endswith(f": {message}")


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
    primes p have about 7500 digits, and ``BIG`` has 7001."""

    PRIMES = _odd_primes(2000)
    BIG = 10 ** 7000 + 1

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

    def test_distribution_names_an_overlong_entry(self):
        q = F(1, self.BIG)
        d = Distribution((("a", q), ("b", 1 - q)))
        assert str(d) == f"(a: {_hex(q)} (0%), b: {_hex(1 - q)} (100%))"
        with pytest.raises(ValidationError) as err:
            Distribution((("a", 1 + q),))
        assert str(err.value) == f"probability a: {_hex(1 + q)} outside [0, 1]"

    def test_kernels_agree_names_an_overlong_entry(self):
        q = F(1, self.BIG)
        source, target = ModeSet("X", ("x",)), ModeSet("Y", ("a", "b"))
        priors = (Point(source, {"x": 1}),
                  {"s": Point(target, {"a": F(1, 2), "b": F(1, 2)})})
        a, b = (PtKernel(Kernel(source, (("s", target),), {
            ("x", "s", "a"): p, ("x", "s", "b"): 1 - p}), *priors)
            for p in (q, 2 * q))
        assert _kernels_agree(a, b, {"s": "s"}, F(0)) == \
            f"entry (x -> s.a): {_hex(q)} vs {_hex(2 * q)}"

    def test_failure_history_names_an_overlong_timestamp(self):
        t = 1 + F(1, self.BIG)
        with pytest.raises(ValidationError) as err:
            FailureHistory(F(0), F(1), (t,))
        assert str(err.value) == f"timestamp {_hex(t)} outside [0, 1]"

    def test_pipeline_check_names_an_overlong_conflict(self, pres):
        once = FailureHistory(F(0), F(1), (F(1),))  # rate 1
        rare = FailureHistory(F(0), F(self.BIG), (F(1),))  # rate 1/BIG
        beta = parse_term("beta")
        result = pipeline_check(pres, [
            (beta, {"ht": rare, "mx": once, "rs": once}),
            (beta, {"ht": once, "mx": once, "rs": once})])
        ht, mx = F(1, 2 * self.BIG + 1), F(self.BIG, 2 * self.BIG + 1)
        assert result.conflicts == (
            "generator beta: (ht: 1/3 (33.3%), mx: 1/3 (33.3%), "
            f"rs: 1/3 (33.3%)) conflicts with (ht: {_hex(ht)} (0%), "
            f"mx: {_hex(mx)} (50%), rs: {_hex(mx)} (50%))",)
