"""Failure-mode relations: composition, causation queries, coherence."""
import random

import pytest

from opmodel.modes import (
    ModeFunctor,
    ModeRelation,
    ModeSet,
    can_cause,
    check_mode_functor,
    compose_rel,
    relation,
)
from opmodel.portgraph import ValidationError
from opmodel.presentation import parse_term
from randgen import (
    compose_rel_oracle,
    compose_rel_scan_oracle,
    identity_relation,
    random_modeset,
    random_relation,
    total_relation,
)


class TestRelationBasics:
    def test_mode_set_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ModeSet("B", ("a", "a"))

    def test_identity_relation(self):
        ms = ModeSet("B", ("a", "b"))
        rel = identity_relation(ms, "s")
        assert rel.slot("s") == frozenset({("a", "a"), ("b", "b")})

    def test_total_relation(self):
        rel = total_relation({"s": ModeSet("B", ("a", "b"))},
                             ModeSet("O", ("x",)))
        assert rel.slot("s") == frozenset({("a", "x"), ("b", "x")})

    def test_missing_slot_is_empty(self):
        assert relation(s={("a", "x")}).slot("zz") == frozenset()


class TestComposeRel:
    def test_existential_witness(self):
        outer = relation(s={("y1", "x"), ("y2", "x2")})
        inner = relation(t={("z", "y1")})
        composed = compose_rel(outer, {"s": inner})
        assert composed.slot("s.t") == frozenset({("z", "x")})

    def test_no_witness_no_pair(self):
        outer = relation(s={("y1", "x")})
        inner = relation(t={("z", "y2")})
        assert compose_rel(outer, {"s": inner}).slot("s.t") == frozenset()

    def test_unsubstituted_slots_pass_through(self):
        outer = relation(s={("y", "x")}, u={("w", "x")})
        composed = compose_rel(outer, {"s": relation(t={("z", "y")})})
        assert composed.slot("u") == frozenset({("w", "x")})

    def test_matches_witness_search_oracle(self):
        rng = random.Random(301)
        for _ in range(300):
            out_ms = random_modeset(rng, "O")
            slot_ms = {f"s{i}": random_modeset(rng, f"B{i}")
                       for i in range(rng.randint(1, 3))}
            outer = random_relation(rng, slot_ms, out_ms)
            inners = {}
            for slot, ms in slot_ms.items():
                if rng.random() < 0.7:
                    inner_slots = {f"t{j}": random_modeset(rng, f"C{j}")
                                   for j in range(rng.randint(1, 2))}
                    inners[slot] = random_relation(rng, inner_slots, ms)
            composed = compose_rel(outer, inners)
            oracle = compose_rel_oracle(outer, inners)
            assert set(composed.pairs) == set(oracle.pairs)
            for slot in composed.pairs:
                assert composed.slot(slot) == oracle.slot(slot)

    def test_matches_nested_scan_oracle(self):
        """Labels in graft order and pairs as the nested scan finds them,
        on relations with few pairs, and with inner modes the outer
        relation never names."""
        rng = random.Random(303)
        for _ in range(300):
            out_ms = random_modeset(rng, "O")
            slot_ms = {f"s{i}": random_modeset(rng, f"B{i}")
                       for i in range(rng.randint(1, 3))}
            outer = random_relation(rng, slot_ms, out_ms)
            inners = {}
            for slot, ms in slot_ms.items():
                if rng.random() < 0.7:
                    inner_slots = {f"t{j}": random_modeset(rng, f"C{j}")
                                   for j in range(rng.randint(1, 3))}
                    wider = ModeSet(ms.boundary, ms.modes + ("extra",))
                    inners[slot] = random_relation(
                        rng, inner_slots, wider if rng.random() < 0.3 else ms)
            composed = compose_rel(outer, inners)
            oracle = compose_rel_scan_oracle(outer, inners)
            assert list(composed.pairs.items()) == list(oracle.pairs.items())

    def test_monotone_in_the_inner_relation(self):
        rng = random.Random(302)
        for _ in range(300):
            out_ms = random_modeset(rng, "O")
            mid = random_modeset(rng, "B")
            leaf = random_modeset(rng, "C")
            outer = random_relation(rng, {"s": mid}, out_ms)
            small = random_relation(rng, {"t": leaf}, mid)
            extra = random_relation(rng, {"t": leaf}, mid)
            big = ModeRelation(
                {"t": small.slot("t") | extra.slot("t")})
            small_out = compose_rel(outer, {"s": small}).slot("s.t")
            big_out = compose_rel(outer, {"s": big}).slot("s.t")
            assert small_out <= big_out

    def test_associativity(self):
        rng = random.Random(303)
        for _ in range(300):
            a = random_modeset(rng, "A")
            b = random_modeset(rng, "B")
            c = random_modeset(rng, "C")
            d = random_modeset(rng, "D")
            f = random_relation(rng, {"s": b}, a)
            g = random_relation(rng, {"t": c}, b)
            h = random_relation(rng, {"u": d}, c)
            left = compose_rel(compose_rel(f, {"s": g}), {"s.t": h})
            right = compose_rel(f, {"s": compose_rel(g, {"t": h})})
            assert left.pairs == right.pairs

    def test_coinciding_labels_rejected(self):
        """Slot ``a.b`` of ``f`` and slot ``b`` of ``g`` in slot ``a`` both
        compose to ``a.b``; as with distributions, that is refused rather
        than one leaf's relation silently replacing the other's."""
        f = relation(**{"a": {("x", "x")}, "a.b": {("x", "x")}})
        g = relation(b={("y", "x")})
        with pytest.raises(ValidationError,
                           match="^relation labels must be unique$"):
            compose_rel(f, {"a": g})


class TestCorpusCausation:
    def test_heater_can_cause_low_laser_temperature(self, lsi):
        t = parse_term("tau(ba->beta)")
        assert can_cause(lsi.presentation, lsi.mode_functors["M"], t,
                         "heater", "malfunction", "laser_low")

    def test_hot_bath_cannot_cause_low_laser_temperature(self, lsi):
        t = parse_term("tau")
        M = lsi.mode_functors["M"]
        assert not can_cause(lsi.presentation, M, t, "ba", "too_hot",
                             "laser_low")
        assert can_cause(lsi.presentation, M, t, "ba", "too_hot",
                         "laser_high")

    def test_box_leak_causes_both(self, lsi):
        M = lsi.mode_functors["M"]
        t = parse_term("tau")
        assert can_cause(lsi.presentation, M, t, "bt", "leak", "laser_low")
        assert can_cause(lsi.presentation, M, t, "bt", "leak", "laser_high")

    def test_empty_selector_is_mode_identity(self, lsi):
        M = lsi.mode_functors["M"]
        t = parse_term("tau")
        assert can_cause(lsi.presentation, M, t, "", "laser_low", "laser_low")
        assert not can_cause(lsi.presentation, M, t, "", "laser_low",
                             "laser_high")

    def test_unknown_root_mode_rejected(self, lsi):
        M = lsi.mode_functors["M"]
        with pytest.raises(ValidationError, match="unknown mode"):
            can_cause(lsi.presentation, M, parse_term("tau"), "ba",
                      "too_hot", "nonsense")

    def test_unknown_leaf_mode_rejected(self, lsi):
        """A leaf mode is checked against the resolved leaf's boundary, or
        the root's for the empty selector: after the root mode and the
        selector, so their errors come first."""
        pres, M = lsi.presentation, lsi.mode_functors["M"]
        t = parse_term("tau")
        for leaf, leaf_mode, root_mode, message in (
                ("ba", "nonsense", "laser_low",
                 "unknown mode 'nonsense' on Bath"),
                ("", "too_hot", "laser_low",
                 "unknown mode 'too_hot' on TempSys"),
                ("ba", "nonsense", "too_hot",
                 "unknown mode 'too_hot' on TempSys"),
                ("zz", "nonsense", "laser_low", "no leaf 'zz' in tau")):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                can_cause(pres, M, t, leaf, leaf_mode, root_mode)
        assert can_cause(pres, M, t, "ba", "too_hot", "laser_high")
        assert not can_cause(pres, M, t, "ba", "too_hot", "laser_low")


class TestCorpusCoherence:
    def test_corpus_functor_passes(self, lsi):
        report = check_mode_functor(lsi.presentation, lsi.mode_functors["M"])
        assert report.passed
        assert len(report.rows) == 6

    def test_total_relations_pass(self, lsi):
        M = lsi.mode_functors["M"]
        total = ModeFunctor(M.mode_sets, {
            name: total_relation(
                {slot: M.mode_sets[b.name] for slot, b in arch.inputs},
                M.mode_sets[arch.output.name])
            for name, arch in lsi.presentation.generators.items()})
        assert check_mode_functor(lsi.presentation, total).passed

    def test_dropped_pair_fails(self, lsi):
        M = lsi.mode_functors["M"]
        sigma = M.relations["sigma"]
        weakened = ModeRelation(
            {**sigma.pairs,
             "in": sigma.slot("in") - {("no_beam", "reading_low")}})
        mutated = ModeFunctor(M.mode_sets, {**M.relations, "sigma": weakened})
        report = check_mode_functor(lsi.presentation, mutated)
        assert not report.passed
        failing = [r for r in report.rows if not r.passed]
        assert failing
        assert "no_beam" in str(report)

    def test_unknown_mode_reported(self, lsi):
        M = lsi.mode_functors["M"]
        bad = ModeFunctor(M.mode_sets, {
            **M.relations,
            "tau": relation(ba={("nonsense", "laser_low")})})
        report = check_mode_functor(lsi.presentation, bad)
        assert not report.passed
        assert any("nonsense" in e for e in report.errors)
