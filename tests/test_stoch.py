"""Stochastic kernels, pointed kernels, projections, lifting and diagnosis."""
import random
from fractions import Fraction

import pytest

from opmodel.modes import ModeSet
from opmodel.portgraph import ValidationError
from opmodel.presentation import parse_term
from opmodel.prob import compose_dist
from opmodel.stoch import (
    Kernel,
    Point,
    PtKernel,
    StochFunctor,
    _kernels_agree,
    aggr,
    check_lifting,
    compose_kernel,
    compose_pt,
    diagnose,
    format_posterior,
    pt_condition,
    supp,
)
from randgen import (
    aggr_oracle,
    compose_kernel_oracle,
    compose_rel_oracle,
    consistent_ptkernel,
    identity_kernel,
    kernels_agree_oracle,
    pt_condition_oracle,
    random_modeset,
    random_point,
    random_ptkernel,
)

F = Fraction

X = ModeSet("X", ("x",))
Y = ModeSet("Y", ("y1", "y2"))
Z = ModeSet("Z", ("u", "v"))


class TestKernelBasics:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sums to"):
            Kernel(X, (("a", Y),), {("x", "a", "y1"): F(1, 2)})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            Kernel(X, (("a", Y),), {("x", "a", "zz"): F(1)})

    @pytest.mark.parametrize("slots, entry, message", [
        ((("a", Y),), ("zz", "a", "y1"),
         "kernel: unknown source mode 'zz' on X"),
        ((("a", Y),), ("x", "b", "y1"), "kernel: unknown slot 'b'"),
        ((("a", Y),), ("x", "a", "zz"), "kernel: unknown mode 'zz' on slot a"),
        ((("a", Y), ("a", Z)), ("x", "a", "y1"),
         "duplicate kernel slot labels"),
    ], ids=["source mode", "slot", "mode", "duplicate slots"])
    def test_malformed_entries_rejected(self, slots, entry, message):
        with pytest.raises(ValidationError) as err:
            Kernel(X, slots, {entry: F(1)})
        assert str(err.value) == message

    def test_zero_entries_are_dropped(self):
        k = Kernel(X, (("a", Y),),
                   {("x", "a", "y1"): F(1), ("x", "a", "y2"): F(0)})
        assert ("x", "a", "y2") not in k.entries
        assert k("x", "a", "y2") == 0

    def test_identity_kernel(self):
        k = identity_kernel(Y, "s")
        assert k("y1", "s", "y1") == 1
        assert k("y1", "s", "y2") == 0

    def test_point_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            Point(Y, {"y1": F(1, 3)})


class TestComposeKernel:
    def test_hand_marginalization(self):
        p = Kernel(X, (("a", Y),),
                   {("x", "a", "y1"): F(1, 2), ("x", "a", "y2"): F(1, 2)})
        q = Kernel(Y, (("b", Z),),
                   {("y1", "b", "u"): F(1),
                    ("y2", "b", "u"): F(1, 2), ("y2", "b", "v"): F(1, 2)})
        composed = compose_kernel(p, {"a": q})
        assert composed("x", "a.b", "u") == F(3, 4)
        assert composed("x", "a.b", "v") == F(1, 4)

    def test_rows_stay_normalized_and_match_oracle(self):
        rng = random.Random(401)
        for _ in range(300):
            src = random_modeset(rng, "S", max_modes=3)
            mid = random_modeset(rng, "M", max_modes=3)
            other = random_modeset(rng, "N", max_modes=2)
            leaf = random_modeset(rng, "L", max_modes=3)
            p = consistent_ptkernel(rng, src, (("a", mid), ("b", other))).kernel
            q = consistent_ptkernel(rng, mid, (("c", leaf),)).kernel
            composed = compose_kernel(p, {"a": q})
            assert dict(composed.entries) == compose_kernel_oracle(p, {"a": q})
            for x in src.modes:
                row = sum(v for (x2, _, _), v in composed.entries.items()
                          if x2 == x)
                assert row == 1

    def test_inner_source_modes_must_match_the_slot(self):
        p = Kernel(X, (("a", Y),), {("x", "a", "y1"): F(1)})
        q = Kernel(Z, (("b", Z),),
                   {("u", "b", "u"): F(1), ("v", "b", "v"): F(1)})
        with pytest.raises(ValidationError) as err:
            compose_kernel(p, {"a": q})
        assert str(err.value) == ("slot 'a': inner kernel source modes "
                                  "('u', 'v') do not match ('y1', 'y2')")

    def test_supp_flips_to_cause_convention(self):
        p = Kernel(X, (("a", Y),),
                   {("x", "a", "y1"): F(1, 2), ("x", "a", "y2"): F(1, 2)})
        assert supp(p).slot("a") == frozenset({("y1", "x"), ("y2", "x")})


class TestPointedKernels:
    def test_pt_condition_holds_by_construction(self):
        rng = random.Random(402)
        src = random_modeset(rng, "S")
        k = consistent_ptkernel(rng, src, (("a", Y), ("b", Z)))
        assert pt_condition(k).holds

    def test_perturbed_slot_prior_violates(self):
        rng = random.Random(403)
        k = consistent_ptkernel(rng, Y, (("a", Z),))
        skewed = PtKernel(k.kernel, k.source_prior,
                          {"a": Point(Z, {"u": F(1)})})
        report = pt_condition(skewed)
        assert not report.holds
        assert report.max_residual > 0

    def test_zero_weight_slot_is_a_violation(self):
        kern = Kernel(X, (("a", Y), ("b", Z)),
                      {("x", "a", "y1"): F(1)})
        k = PtKernel(kern, Point(X, {"x": F(1)}),
                     {"a": Point(Y, {"y1": F(1)}),
                      "b": Point(Z, {"u": F(1)})})
        report = pt_condition(k)
        assert not report.holds
        assert any("zero aggregate weight" in v for v in report.violations)

    def test_compose_pt_requires_matching_priors(self):
        rng = random.Random(404)
        outerk = consistent_ptkernel(rng, X, (("a", Y),))
        derived = outerk.slot_priors["a"]
        other = Point(Y, {"y1": F(1)})
        if other.same_as(derived):
            other = Point(Y, {"y2": F(1)})
        mismatched = consistent_ptkernel(rng, Y, (("c", Z),),
                                         source_prior=other)
        with pytest.raises(ValidationError, match="prior"):
            compose_pt(outerk, {"a": mismatched})


class TestProjectionProperties:
    """Randomized functoriality of aggr/supp and closure of the pt condition.

    The acceptance suite runs the same properties at full volume.
    """

    CASES = 150

    def _composed_pair(self, rng):
        src = random_modeset(rng, "S", max_modes=3)
        mid = random_modeset(rng, "M", max_modes=3)
        other = random_modeset(rng, "N", max_modes=2)
        leaf = random_modeset(rng, "L", max_modes=3)
        p = consistent_ptkernel(rng, src, (("a", mid), ("b", other)))
        q = consistent_ptkernel(rng, mid, (("c", leaf),),
                                source_prior=p.slot_priors["a"])
        return p, q, compose_pt(p, {"a": q})

    def test_pt_condition_closed_under_composition(self):
        rng = random.Random(405)
        for _ in range(self.CASES):
            _, _, composed = self._composed_pair(rng)
            assert pt_condition(composed).holds

    def test_aggr_functorial(self):
        rng = random.Random(406)
        for _ in range(self.CASES):
            p, q, composed = self._composed_pair(rng)
            assert aggr(composed).as_dict() == \
                compose_dist(aggr(p), {"a": aggr(q)}).as_dict()

    def test_supp_functorial_vs_witness_search(self):
        rng = random.Random(407)
        for _ in range(self.CASES):
            p, q, composed = self._composed_pair(rng)
            oracle = compose_rel_oracle(supp(p.kernel), {"a": supp(q.kernel)})
            got = supp(composed.kernel)
            assert set(got.pairs) == set(oracle.pairs)
            for slot in got.pairs:
                assert got.slot(slot) == oracle.slot(slot)


class TestMarginalOracle:
    """pt_condition and aggr against brute-force X x Y marginals."""

    TOLERANCES = (F(0), F(1, 100))
    KINDS = ("zero aggregate weight", "has no prior", "marginal")

    def test_pt_condition_and_aggr_match_oracle(self):
        rng = random.Random(408)
        seen = set()
        for _ in range(400):
            src = random_modeset(rng, "S", max_modes=3)
            slots = tuple((label, random_modeset(rng, label.upper(), 3))
                          for label in ("a", "b", "c")[:rng.randint(1, 3)])
            k = random_ptkernel(rng, src, slots)
            assert aggr(k).entries == tuple(aggr_oracle(k).items())
            verdicts = []
            for tolerance in self.TOLERANCES:
                report = pt_condition(k, tolerance)
                want = pt_condition_oracle(k, tolerance)
                assert report.aggregate == tuple(aggr_oracle(k).items())
                assert (report.holds, report.max_residual,
                        list(report.violations)) == want
                verdicts.append(report.holds)
                seen.update(kind for kind in self.KINDS
                            for v in report.violations if kind in v)
            seen.add(tuple(verdicts))
            if len(k.source_prior.probs) < len(src.modes):
                seen.add("zero prior")
        # every branch is exercised: the condition holds at both tolerances,
        # only within 1/100, or at neither; each kind of violation occurs
        assert {(True, True), (False, True), (False, False), "zero prior",
                *self.KINDS} <= seen

    def test_a_negative_tolerance_fails_zero_residuals(self):
        """Only a library caller can pass one; the CLI refuses it."""
        rng = random.Random(409)
        zero = 0
        for _ in range(100):
            src = random_modeset(rng, "S", max_modes=3)
            k = random_ptkernel(rng, src, (("a", random_modeset(rng, "A", 3)),))
            report = pt_condition(k, F(-1, 100))
            assert (report.holds, report.max_residual,
                    list(report.violations)) == pt_condition_oracle(k, F(-1, 100))
            zero += pt_condition(k).holds and not report.holds
        assert zero > 0


class TestKernelsAgree:
    """``_kernels_agree`` compares the relabeled stored entries first; the
    full scan in slot order is its oracle, message for message."""

    KINDS = ("", "source priors differ", "no counterpart", "mode sets differ",
             "slot priors differ", "entry")

    @staticmethod
    def copy(k, relabel, entries=None, slot_priors=None, source_prior=None):
        """``k`` with its slots renamed by ``relabel`` and listed in reverse
        order, and any of its parts replaced."""
        kern = k.kernel
        entries = entries if entries is not None else {
            (x, relabel[i], y): p for (x, i, y), p in kern.entries.items()}
        slots = tuple((relabel[l], ms) for l, ms in reversed(kern.slots))
        priors = slot_priors if slot_priors is not None else {
            relabel[l]: p for l, p in k.slot_priors.items()}
        return PtKernel(Kernel(kern.source, slots, entries),
                        source_prior or k.source_prior, priors)

    @staticmethod
    def nudged(rng, entries):
        """``entries`` with 1/200 or 1/50 of one row's mass moved, where it
        fits, from one entry to another place in the same row."""
        entries = dict(entries)
        (x, i, y), p = rng.choice(sorted(entries.items()))
        j, z = rng.choice(sorted({(j, z) for (_, j, z) in entries}))
        delta = min(p, rng.choice((F(1, 200), F(1, 50))))
        entries[(x, i, y)] = p - delta
        entries[(x, j, z)] = entries.get((x, j, z), F(0)) + delta
        return entries

    def test_matches_the_full_scan(self):
        rng = random.Random(2020)
        seen = set()
        for _ in range(300):
            src = random_modeset(rng, "S", max_modes=3)
            labels = ("a", "b", "c")[:rng.randint(1, 3)]
            slots = tuple((l, random_modeset(rng, "B", 3)) for l in labels)
            a = consistent_ptkernel(rng, src, slots)
            names = [f"r{n}" for n in range(len(labels))]
            rng.shuffle(names)
            relabel = dict(zip(labels, names))
            b = self.copy(a, relabel)
            label = rng.choice(labels)
            kind = rng.choice(("same", "nudged", "prior", "source prior",
                               "other bijection", "no counterpart"))
            if kind == "nudged":
                b = self.copy(a, relabel, self.nudged(rng, b.kernel.entries))
            elif kind == "prior":
                b = self.copy(a, relabel, slot_priors={
                    **b.slot_priors, relabel[label]: random_point(
                        rng, dict(slots)[label], strictly_positive=False)})
            elif kind == "source prior":
                b = self.copy(a, relabel, source_prior=random_point(rng, src))
            elif kind == "other bijection":
                rng.shuffle(names)
                relabel = dict(zip(labels, names))
            elif kind == "no counterpart":
                relabel = {**relabel, label: "zz"}
            for tolerance in (F(0), F(1, 100)):
                want = kernels_agree_oracle(a, b, relabel, tolerance)
                assert _kernels_agree(a, b, relabel, tolerance) == want
                seen.update(k for k in self.KINDS if k and k in want)
                seen.add((kind, tolerance, want == ""))
        assert set(self.KINDS[1:]) <= seen, seen
        # a nudge of 1/200 passes within 1/100 and fails exactly; one of
        # 1/50 fails both
        assert {("same", 0, True), ("nudged", 0, False),
                ("nudged", F(1, 100), True), ("nudged", F(1, 100), False),
                } <= seen, seen

    def test_a_relabeled_copy_agrees(self, lsi):
        S = lsi.stoch_functors["S"]
        k = S.pt_kernel(lsi.presentation, "tau")
        relabel = {l: l.upper() for l, _ in k.kernel.slots}
        assert _kernels_agree(k, self.copy(k, relabel), relabel, F(0)) == ""


class TestCorpusLifting:
    def test_aggr_of_phi(self, lsi):
        k = lsi.stoch_functors["S"].pt_kernel(lsi.presentation, "phi")
        assert aggr(k).as_dict() == {"ls": F(2, 5), "ts": F(3, 5)}

    def test_lifting_passes(self, lsi):
        report = check_lifting(
            lsi.presentation, lsi.stoch_functors["S"],
            lsi.prob_functors["P"], lsi.mode_functors["M"])
        assert report.passed
        # three projection rows per generator plus one per equation
        assert len(report.rows) == 3 * 7 + 1

    def test_incomplete_functor_is_not_checked(self, lsi):
        S = lsi.stoch_functors["S"]
        kernels = {g: k for g, k in S.kernels.items() if g != "beta"}
        report = check_lifting(
            lsi.presentation, StochFunctor(S.priors, kernels),
            lsi.prob_functors["P"], lsi.mode_functors["M"])
        assert report == ("lifting check", (),
                          ("no kernel for generator beta",), "")
        assert not report.passed

    def test_zeroed_entry_fails(self, lsi):
        S = lsi.stoch_functors["S"]
        tau = S.kernels["tau"]
        entries = dict(tau.entries)
        removed = entries.pop(("laser_low", "rt", "too_cold"))
        entries[("laser_low", "ba", "too_cold")] += removed
        mutated = StochFunctor(S.priors, {
            **S.kernels,
            "tau": Kernel(tau.source, tau.slots, entries)})
        report = check_lifting(
            lsi.presentation, mutated,
            lsi.prob_functors["P"], lsi.mode_functors["M"])
        assert not report.passed
        assert any("support" in r.subject and not r.passed
                   for r in report.rows)


class TestDiagnose:
    def test_chain_rule_oracle_two_levels(self, lsi):
        S = lsi.stoch_functors["S"]
        phi, tau = S.kernels["phi"], S.kernels["tau"]
        posterior = diagnose(lsi.presentation, S,
                             parse_term("phi(ts->tau)"), "bad_length")
        expected_ba_cold = (
            phi("bad_length", "ts", "laser_low") * tau("laser_low", "ba", "too_cold")
            + phi("bad_length", "ts", "laser_high") * tau("laser_high", "ba", "too_cold"))
        assert posterior["ts.ba.too_cold"] == expected_ba_cold == F(6, 25)
        assert posterior["ls.no_fringe"] == F(1, 5)

    def test_low_observation_rules_out_hot_lab(self, lsi):
        posterior = diagnose(lsi.presentation, lsi.stoch_functors["S"],
                             parse_term("tau(ba->beta)"), "laser_low")
        assert posterior["rt.too_hot"] == 0
        assert posterior["ba.ht.malfunction"] == F(2, 5)
        text = format_posterior(posterior)
        assert text.splitlines()[1] == "  ba.ht.malfunction: 2/5 (40%)"

    def test_unknown_observation_rejected(self, lsi):
        with pytest.raises(ValidationError, match="unknown mode"):
            diagnose(lsi.presentation, lsi.stoch_functors["S"],
                     parse_term("tau"), "nonsense")

    def test_term_pt_kernel_matches_manual_composition(self, lsi):
        S = lsi.stoch_functors["S"]
        manual = compose_pt(
            S.pt_kernel(lsi.presentation, "tau"),
            {"ba": S.pt_kernel(lsi.presentation, "beta")})
        viaterm = S.fold(lsi.presentation, parse_term("tau(ba->beta)"))
        assert viaterm.kernel == manual.kernel
        assert viaterm.source_prior.same_as(manual.source_prior)
