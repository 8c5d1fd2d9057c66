"""Mean times, rates, failure histories and the rate-to-probability pipeline."""
import random
import sys
from fractions import Fraction

import pytest

from opmodel.portgraph import ValidationError
from opmodel.presentation import Term, leaf_paths, parse_term
from opmodel.rates import (
    INF,
    FailureHistory,
    combine_meantime,
    combine_rates,
    history_stats,
    invert,
    normalize,
    pipeline_check,
)

F = Fraction


class TestCombining:
    def test_two_equal_meantimes_halve(self):
        assert combine_meantime([F(2), F(2)]) == F(1)

    def test_infinite_meantime_is_neutral(self):
        assert combine_meantime([F(5), INF]) == F(5)
        assert combine_meantime([INF, INF]) == INF

    def test_empty_combination_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            combine_meantime([])

    def test_rates_add(self):
        assert combine_rates([F(1, 2), F(1, 3)]) == F(5, 6)

    def test_nonpositive_meantime_rejected(self):
        with pytest.raises(ValidationError):
            combine_meantime([F(0)])
        with pytest.raises(ValidationError):
            combine_meantime([F(-3)])

    @pytest.mark.parametrize("combine, message", [
        (combine_rates, "rate must be a finite non-negative value, got {}"),
        (combine_meantime, "mean time must be positive, got {}")],
        ids=["rates", "meantime"])
    def test_refused_value_is_named(self, combine, message):
        """By ``repr``; past the interpreter's integer string limit, where
        ``repr`` would raise ``ValueError``, in hexadecimal."""
        with pytest.raises(ValidationError) as info:
            combine([F(-1, 10)])
        assert str(info.value) == message.format("Fraction(-1, 10)")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            value = F(-1, 10 ** (limit + 1))
            with pytest.raises(ValidationError) as info:
                combine([value])
            assert str(info.value) == message.format(
                f"{value.numerator:#x}/{value.denominator:#x}")

    def test_ints_are_exact_values(self):
        assert combine_meantime([2, 2]) == F(1)
        assert combine_rates([1, F(1, 2)]) == F(3, 2)
        assert normalize({"a": 1, "b": 3}) == normalize({"a": F(1), "b": F(3)})

    @pytest.mark.parametrize("make, message", [
        (lambda: normalize({"a": 1, "b": 0.5}), "rate 0.5"),
        (lambda: combine_rates([F(1), "1"]), "rate '1'"),
        (lambda: combine_meantime([0.5]), "mean time 0.5"),
        (lambda: combine_meantime([-INF]), "mean time -inf"),
        (lambda: FailureHistory(0, 10.0, ()), "history bound 10.0"),
        (lambda: FailureHistory(F(0), F(10), (F(1), 2.5)), "timestamp 2.5")],
        ids=["normalize", "combine-rates", "meantime", "meantime-minus-inf",
             "history-bound", "timestamp"])
    def test_inexact_value_is_refused_by_type(self, make, message):
        with pytest.raises(ValidationError) as info:
            make()
        assert str(info.value) == message + " is not an int or Fraction"


class TestInversion:
    def test_swaps_zero_and_infinity(self):
        assert invert(INF) == 0
        assert invert(F(0)) == INF

    def test_involution_fixed_cases(self):
        assert invert(invert(F(7, 3))) == F(7, 3)
        assert invert(invert(INF)) == INF

    def test_involution_randomized(self):
        rng = random.Random(501)
        for _ in range(500):
            t = F(rng.randint(1, 999), rng.randint(1, 999))
            assert invert(invert(t)) == t

    def test_harmonic_arithmetic_duality(self):
        rng = random.Random(502)
        for _ in range(500):
            ts = [F(rng.randint(1, 99), rng.randint(1, 99))
                  for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.3:
                ts.append(INF)
            assert invert(combine_meantime(ts)) == \
                combine_rates([invert(t) for t in ts])


class TestNormalize:
    def test_fixed_case(self):
        d = normalize([F(1), F(3)])
        assert d.as_dict() == {"0": F(1, 4), "1": F(3, 4)}

    def test_mapping_input_keeps_labels(self):
        d = normalize({"ht": F(1, 2), "mx": F(1, 2)})
        assert d.labels == ("ht", "mx")

    def test_zero_total_rejected(self):
        with pytest.raises(ValidationError, match="zero total rate"):
            normalize([F(0), F(0)])

    def test_commuting_square_randomized(self):
        """Normalizing rates equals normalizing the inverted mean times,
        and is invariant under common rescaling."""
        rng = random.Random(503)
        for _ in range(500):
            n = rng.randint(1, 5)
            ts = [F(rng.randint(1, 99), rng.randint(1, 99))
                  for _ in range(n)]
            rates = [invert(t) for t in ts]
            scale = F(rng.randint(1, 9))
            assert normalize(rates) == normalize([scale * r for r in rates])
            assert normalize(rates).as_dict() == {
                str(i): (1 / t) / sum(1 / u for u in ts)
                for i, t in enumerate(ts)}


class TestHistories:
    def test_stats_five_failures_over_ten(self):
        h = FailureHistory(F(0), F(10), (F(1), F(3), F(5), F(7), F(9)))
        assert history_stats(h) == F(2)

    def test_empty_history_has_infinite_meantime(self):
        assert history_stats(FailureHistory(F(0), F(10), ())) == INF

    def test_bad_interval_and_out_of_range_times(self):
        with pytest.raises(ValidationError, match="t0 < t1"):
            FailureHistory(F(5), F(5), ())
        with pytest.raises(ValidationError, match="outside"):
            FailureHistory(F(0), F(10), (F(11),))



class TestPipeline:
    def beta_histories(self):
        return {
            "ht": FailureHistory(F(0), F(10), tuple(map(F, (1, 2, 3, 4, 5)))),
            "mx": FailureHistory(F(0), F(12), (F(3), F(6))),
            "rs": FailureHistory(F(0), F(20), (F(7),)),
        }

    def test_beta_rates_and_distribution(self, lsi):
        result = pipeline_check(
            lsi.presentation, [(parse_term("beta"), self.beta_histories())])
        assert result.consistent
        assert result.rates["ht"] == F(1, 2)
        assert result.rates["mx"] == F(1, 6)
        assert result.rates["rs"] == F(1, 20)
        assert result.rates["beta"] == F(43, 60)
        assert result.functor["beta"].as_dict() == {
            "ht": F(30, 43), "mx": F(10, 43), "rs": F(3, 43)}
        assert "independent" in result.note

    def test_int_and_fraction_histories_agree(self, lsi):
        ints = {"ba": FailureHistory(0, 10, (1, 2, 3)),
                "bt": FailureHistory(0, 12, (4,)),
                "rt": FailureHistory(0, 20, (2, 8))}
        fractions = {k: FailureHistory(F(h.t0), F(h.t1), tuple(map(F, h.times)))
                     for k, h in ints.items()}
        got, want = (pipeline_check(lsi.presentation, [(parse_term("tau"), h)])
                     for h in (ints, fractions))
        assert history_stats(ints["ba"]) == F(10, 3)
        assert got.functor == want.functor and got.rates == want.rates
        assert got.functor["tau"]["ba"] == F(18, 29)
        assert all(type(r) is F for r in got.rates.values())

    def test_conflicting_terms_detected(self, lsi):
        doubled = {k: FailureHistory(h.t0, h.t1, h.times + h.times)
                   for k, h in self.beta_histories().items()}
        skewed = dict(self.beta_histories())
        skewed["ht"] = FailureHistory(F(0), F(10), (F(5),))
        result = pipeline_check(
            lsi.presentation,
            [(parse_term("beta"), self.beta_histories()),
             (parse_term("beta"), skewed)])
        assert not result.consistent
        assert any("beta" in c for c in result.conflicts)
        # doubling every history preserves the distribution => no conflict
        ok = pipeline_check(
            lsi.presentation,
            [(parse_term("beta"), self.beta_histories()),
             (parse_term("beta"), doubled)])
        assert ok.consistent

    def test_nested_term_uses_dotted_paths(self, lsi):
        histories = {f"ba.{k}": h for k, h in self.beta_histories().items()}
        histories["bt"] = FailureHistory(F(0), F(10), (F(4),))
        histories["rt"] = FailureHistory(F(0), F(10), (F(2), F(8)))
        result = pipeline_check(
            lsi.presentation,
            [(parse_term("tau(ba->beta)"), histories)])
        assert result.consistent
        assert result.rates["tau(ba->beta)"] == \
            F(43, 60) + F(1, 10) + F(2, 10)
        total = result.rates["tau(ba->beta)"]
        assert result.functor["tau"]["ba"] == F(43, 60) / total

    def test_slot_filled_twice_is_refused(self):
        """A term fills each slot once, so no pipeline has to choose
        between two fillers of one slot: ``Term`` refuses the second."""
        once = parse_term("phi(ts->tau(ba->beta))")
        with pytest.raises(ValidationError) as info:
            Term("phi", (("ts", parse_term("tau")),) + once.children)
        assert str(info.value) == "duplicate slot 'ts'"

    def test_zero_total_rate_names_its_node(self, lsi):
        """With every history empty each rate is 0: the first node whose
        children sum to 0 is named by its dotted path, or as the root."""
        pres = lsi.presentation
        empty = FailureHistory(F(0), F(10), ())
        for text, where in (("phi(ts->tau(ba->beta))", "beta at ts.ba"),
                            ("beta", "beta at the root")):
            t = parse_term(text)
            histories = {path: empty for path, _ in leaf_paths(pres, t)}
            with pytest.raises(ValidationError) as info:
                pipeline_check(pres, [(t, histories)])
            assert str(info.value) == f"generator {where}: zero total rate"

    def test_missing_history_rejected(self, lsi):
        with pytest.raises(ValidationError, match="missing history"):
            pipeline_check(lsi.presentation, [(parse_term("beta"), {})])
