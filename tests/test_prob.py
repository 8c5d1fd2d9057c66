"""Probability functors: exact composition, coherence, symbolic constraints."""
import random
from fractions import Fraction

import pytest

from opmodel.portgraph import ValidationError
from opmodel.presentation import parse_term
from opmodel.prob import (
    Distribution,
    ProbFunctor,
    check_prob_functor,
    compose_dist,
    distribution,
    format_probability,
    leaf_probability,
    symbolic_constraints,
)
from opmodel.dsl import parse
from randgen import random_distribution
from test_cli import identity_model_text

F = Fraction


class TestFormatting:
    def test_exact_percent(self):
        assert format_probability(F(12, 25)) == "12/25 (48%)"

    def test_rounded_percent(self):
        assert format_probability(F(3, 14)) == "3/14 (21.4%)"
        assert format_probability(F(3, 7)) == "3/7 (42.9%)"
        assert format_probability(F(1, 7)) == "1/7 (14.3%)"

    def test_edge_values(self):
        assert format_probability(F(0)) == "0 (0%)"
        assert format_probability(F(1)) == "1 (100%)"


class TestDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            distribution(a=F(1, 2), b=F(1, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            Distribution((("a", F(3, 2)), ("b", F(-1, 2))))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="unique"):
            Distribution((("a", F(1, 2)), ("a", F(1, 2))))

    def test_lookup(self):
        d = distribution(a=F(1, 4), b=F(3, 4))
        assert d["b"] == F(3, 4)
        assert d.labels == ("a", "b")
        with pytest.raises(ValidationError):
            d["zz"]


class TestComposeDist:
    def test_hand_multiplied(self):
        p = distribution(a=F(1, 2), b=F(1, 2))
        qa = distribution(c=F(1, 3), d=F(2, 3))
        qb = distribution(e=F(3, 4), f=F(1, 4))
        composed = compose_dist(p, {"a": qa, "b": qb})
        assert composed.entries == (
            ("a.c", F(1, 6)), ("a.d", F(1, 3)),
            ("b.e", F(3, 8)), ("b.f", F(1, 8)))

    def test_unsubstituted_labels_pass_through(self):
        p = distribution(a=F(1, 2), b=F(1, 2))
        composed = compose_dist(p, {"a": distribution(c=F(1))})
        assert composed.as_dict() == {"a.c": F(1, 2), "b": F(1, 2)}

    def test_unknown_label_rejected(self):
        p = distribution(a=F(1))
        with pytest.raises(ValidationError,
                           match="^unknown slot 'zz' in composition$"):
            compose_dist(p, {"zz": distribution(c=F(1))})

    def test_normalization_and_associativity(self):
        rng = random.Random(201)
        for _ in range(300):
            p = random_distribution(rng, ("a", "b", "c"))
            q = random_distribution(rng, ("d", "e"))
            r = random_distribution(rng, ("f", "g"))
            left = compose_dist(compose_dist(p, {"a": q}), {"a.d": r})
            right = compose_dist(p, {"a": compose_dist(q, {"d": r})})
            assert left == right
            assert sum(v for _, v in left.entries) == 1


class TestCorpusCoherence:
    def test_six_rows_all_pass_with_zero_tolerance(self, lsi):
        report = check_prob_functor(lsi.presentation, lsi.prob_functors["P"])
        assert report.passed
        values = [row.lhs_value for row in report.rows]
        assert values == [F(1, 25), F(3, 25), F(6, 25), F(12, 25),
                          F(3, 50), F(3, 50)]
        assert all(row.lhs_value == row.rhs_value for row in report.rows)

    def test_sigma_mutation_fails_sensor_rows(self, lsi):
        P = lsi.prob_functors["P"]
        mutated = ProbFunctor({
            **P.dists,
            "sigma": distribution(rt=F(1, 4), bt=F(1, 4),
                                  op=F(3, 8), **{"in": F(1, 8)})})
        report = check_prob_functor(lsi.presentation, mutated)
        assert not report.passed
        failures = [row for row in report.rows if not row.passed]
        assert len(failures) == 4
        assert {row.rhs_path.split(".")[0] for row in failures} == {"sn"}

    def test_tolerance_forgives_small_gaps(self, lsi):
        P = lsi.prob_functors["P"]
        mutated = ProbFunctor({
            **P.dists,
            "sigma": distribution(rt=F(3, 14) + F(1, 1000),
                                  bt=F(3, 14) - F(1, 1000),
                                  op=F(3, 7), **{"in": F(1, 7)})})
        strict = check_prob_functor(lsi.presentation, mutated)
        loose = check_prob_functor(lsi.presentation, mutated, F(1, 100))
        assert not strict.passed
        assert loose.passed

    def test_arity_mismatch_reported(self, lsi):
        P = lsi.prob_functors["P"]
        mutated = ProbFunctor({**P.dists, "sigma": distribution(zz=F(1))})
        report = check_prob_functor(lsi.presentation, mutated)
        assert not report.passed
        assert any("sigma" in e for e in report.errors)

    def test_missing_distribution_reported(self, lsi):
        P = lsi.prob_functors["P"]
        dists = {g: d for g, d in P.dists.items() if g != "sigma"}
        report = check_prob_functor(lsi.presentation, ProbFunctor(dists))
        assert report.errors == ("no distribution for generator sigma",)
        assert report.rows == () and not report.passed


class TestQueries:
    def test_ts_ba_is_twelve_twentyfifths(self, lsi):
        t = parse_term("phi(ts->tau)")
        assert leaf_probability(lsi.presentation, lsi.prob_functors["P"],
                                t, "ba") == F(12, 25)

    def test_heater_leaf_along_three_levels(self, lsi):
        t = parse_term("phi(ts->tau(ba->beta))")
        assert leaf_probability(lsi.presentation, lsi.prob_functors["P"],
                                t, "ht") == F(6, 25)

    def test_empty_selector_names_the_root(self, lsi):
        t = parse_term("phi(ts->tau)")
        assert leaf_probability(lsi.presentation, lsi.prob_functors["P"],
                                t, "") == F(1)

    def test_term_distribution_labels(self, lsi):
        t = parse_term("phi(ls->lambda, ts->tau)")
        d = lsi.prob_functors["P"].fold(t)
        assert d.labels == ("ls.in", "ls.op", "ls.ch",
                            "ts.ba", "ts.bt", "ts.rt")


class TestSymbolicConstraints:
    def test_corpus_constraints(self, lsi):
        constraints = symbolic_constraints(lsi.presentation)
        assert len(constraints) == 6
        assert constraints[0] == "phi(ls)·lambda(in) = kappa(sn)·sigma(in)"
        assert "phi(ts)·tau(ba) = kappa(ac)·alpha(ba)" in constraints

    def test_identity_equation_is_a_validation_error(self):
        pres = parse(identity_model_text()).presentation
        with pytest.raises(ValidationError,
                           match="leaf ba.x of tau\\(ba->idb\\) has no "
                                 "derived match"):
            symbolic_constraints(pres)
