"""Port-graph architectures: canonical forms, composition, equality."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import opmodel
from opmodel.portgraph import (
    Architecture,
    ComponentCorrespondence,
    CompositionError,
    EqualityReport,
    PortRef,
    TypeTable,
    ValidationError,
    Wire,
    at,
    boundary,
    canonicalize,
    compose,
    derive_correspondence,
    equal,
    identity,
    is_identity,
    outer,
    validate,
    wire,
)
from opmodel.corpus import lsi_text
from opmodel.presentation import elaborate
from randgen import (compose_partition_oracle, random_architecture,
                     random_boundary, random_presentation, random_term)

# f wires s.x to x as physical; the raw inner g wires t.a to x as digital
ILL_TYPED_GLUE = """
from opmodel.portgraph import (Architecture, PortGraphError, at, boundary,
                               canonicalize, compose, outer, wire)
m = boundary("M", x="physical")
f = canonicalize(Architecture(
    (("s", m),), m, (wire([at("s", "x"), outer("x")], "physical"),)))
g = Architecture((("t", boundary("B", a="digital")),), m,
                 (wire([at("t", "a"), outer("x")], "digital"),))
try:
    compose(f, {"s": g})
except PortGraphError as exc:
    print(type(exc).__name__)
"""


def tau(pres):
    return pres.generators["tau"]


class TestCanonicalize:
    def test_idempotent_on_corpus_generators(self, pres):
        for arch in pres.generators.values():
            assert canonicalize(arch) == arch

    def test_tau_contains_bath_box_heat_block(self, pres):
        blocks = {w.ports for w in tau(pres).wires}
        assert frozenset({at("bt", "heat1"), at("ba", "heat")}) in blocks

    def test_sorts_wires_by_least_port(self):
        b = boundary("B", a="physical", b="physical")
        out = boundary("O", x="physical", y="physical")
        arch = Architecture(
            (("s", b),), out,
            (wire([at("s", "b"), outer("y")], "physical"),
             wire([at("s", "a"), outer("x")], "physical")))
        canon = canonicalize(arch)
        assert canon.wires[0].sorted_ports()[0] == outer("x")

    def test_rejects_port_on_two_wires(self):
        b = boundary("B", a="physical")
        out = boundary("O", x="physical", y="physical")
        arch = Architecture(
            (("s", b),), out,
            (wire([at("s", "a"), outer("x")], "physical"),
             wire([at("s", "a"), outer("y")], "physical")))
        with pytest.raises(ValidationError, match="two wires"):
            canonicalize(arch)

    def test_rejects_unknown_port(self):
        out = boundary("O", x="physical")
        arch = Architecture(
            (), out, (wire([outer("x"), outer("zz")], "physical"),))
        with pytest.raises(ValidationError, match="unknown port"):
            canonicalize(arch)

    def test_rejects_mixed_type_wire(self):
        b = boundary("B", a="digital")
        out = boundary("O", x="physical")
        arch = Architecture(
            (("s", b),), out,
            (wire([at("s", "a"), outer("x")], "physical"),))
        with pytest.raises(ValidationError, match="type"):
            canonicalize(arch)

    def test_drops_empty_wires(self):
        out = boundary("O", x="physical")
        arch = Architecture(
            (), out,
            (wire([], "physical"), wire([outer("x")], "physical")))
        assert len(canonicalize(arch).wires) == 1

    def test_validate_requires_total_wiring(self):
        out = boundary("O", x="physical", y="physical")
        arch = Architecture((), out, (wire([outer("x")], "physical"),))
        with pytest.raises(ValidationError, match="unwired ports: y"):
            validate(arch)


class TestNormalForm:
    """An architecture is built in normal form, so wire order is not part
    of it and canonicalize only checks."""

    @staticmethod
    def reversed_wires(arch):
        return Architecture(arch.inputs, arch.output, arch.wires[::-1])

    def test_wire_order_and_empty_wires_do_not_matter(self):
        b = boundary("B", a="physical", b="digital")
        out = boundary("O", x="physical", y="digital")
        ax = wire([at("s", "a"), outer("x")], "physical")
        by = wire([at("s", "b"), outer("y")], "digital")
        one = Architecture((("s", b),), out, (ax, by))
        assert one == Architecture((("s", b),), out, (by, ax))
        assert one == Architecture(
            (("s", b),), out, (wire([], "digital"), by, ax))
        assert one.wires == (ax, by)

    def test_composites_are_canonical(self):
        rng = random.Random(106)
        for _ in range(100):
            out = random_boundary(rng, "Out")
            f = random_architecture(rng, out)
            s = f.slots[rng.randrange(len(f.slots))]
            g = random_architecture(rng, f.slot_boundary(s), n_slots=2)
            t = g.slots[0]
            h = random_architecture(rng, g.slot_boundary(t))
            composed = compose(f, {s: g})
            for x in (f, composed, compose(composed, {f"{s}.{t}": h})):
                assert canonicalize(x) is x
                assert self.reversed_wires(x) == x

    def test_elaborated_terms_are_canonical(self):
        rng = random.Random(107)
        for _ in range(40):
            pres, _ = random_presentation(rng)
            x = elaborate(pres, random_term(rng, pres))
            assert canonicalize(x) is x
            assert self.reversed_wires(x) == x

    def test_wire_order_is_least_port_order(self):
        """Wires sort by plain ``(slot or "", port)`` tuples in the order
        that ``min(w.ports)`` under ``PortRef.__lt__`` gives: in built and
        composed architectures, and in the wires ``equal`` reports."""
        def old_order(wires):
            return tuple(sorted(wires, key=lambda w: min(w.ports)))

        rng = random.Random(108)
        differ = 0
        for _ in range(200):
            out = random_boundary(rng, "Out")
            f = random_architecture(rng, out, n_slots=rng.randint(1, 4))
            s = rng.choice(f.slots)
            g = random_architecture(rng, f.slot_boundary(s))
            shuffled = list(f.wires)
            rng.shuffle(shuffled)
            for x in (Architecture(f.inputs, out, tuple(shuffled)),
                      compose(f, {s: g})):
                assert x.wires == old_order(x.wires)
            corr = ComponentCorrespondence({t: t for t in f.slots})
            other = random_architecture(rng, out, n_slots=0)
            other = Architecture(f.inputs, out, other.wires + tuple(
                Wire(frozenset({PortRef(t, p)}), b.port_type[p])
                for t, b in f.inputs for p in b.ports))
            report = equal(f, other, corr)
            differ += len(report.only_left) > 1 and len(report.only_right) > 1
            assert report.only_left == old_order(report.only_left)
            assert report.only_right == old_order(report.only_right)
        assert differ > 100
        # an outer port and a port of slot "" tie, and keep their order
        b = boundary("B", p="physical")
        ties = (wire([outer("p")], "physical"),
                wire([at("", "p")], "physical"))
        for wires in (ties, ties[::-1]):
            assert Architecture((("", b),), b, wires).wires == wires

    def test_ill_typed_wire_is_named_in_normal_order(self):
        # two ill-typed wires in tau: the error names the one whose least
        # port comes first, whichever was declared first
        text = lsi_text().replace(
            "  wire bt.heat1 = ba.heat\n  wire bt.heat2 = rt.heat\n"
            "  expose rt.temp -> temp1\n",
            "  wire bt.heat2 = rt.temp\n  wire bt.heat1 = ba.setPt\n"
            "  expose rt.heat -> temp1\n")
        first, second = "  wire bt.heat2 = rt.temp\n", \
            "  wire bt.heat1 = ba.setPt\n"
        swapped = text.replace(first + second, second + first)
        assert swapped != text
        errors = set()
        for body in (text, swapped):
            arch = opmodel.parse(body).presentation.generators["tau"]
            with pytest.raises(ValidationError) as exc:
                validate(arch)
            errors.add(str(exc.value))
        assert errors == {
            "wire {temp1, rt.heat}:heat contains port temp1 of type 'temp'"}


class TestIdentity:
    def test_identity_bath_has_three_straight_wires(self, pres):
        bath = pres.boundaries["Bath"]
        ident = identity(bath)
        assert len(ident.wires) == 3
        assert is_identity(ident)
        for w in ident.wires:
            assert len(w.ports) == 2

    def test_non_identity_recognized(self, pres):
        assert not is_identity(tau(pres))


class TestCompose:
    def test_boundary_mismatch_raises(self, pres):
        with pytest.raises(CompositionError, match="expects boundary"):
            compose(pres.generators["phi"], {"ls": pres.generators["beta"]})

    def test_tau_beta_merges_box_resevoir_heat_wire(self, pres):
        composite = compose(pres.generators["tau"],
                            {"ba": pres.generators["beta"]})
        names = {b.name for _, b in composite.inputs}
        assert names == {"Lab", "Box", "Mixer", "Resevoir", "Heater"}
        blocks = {w.ports for w in composite.wires}
        assert frozenset({at("ba.rs", "heat1"), at("bt", "heat1")}) in blocks
        # the Bath boundary's own ports are gone
        for w in composite.wires:
            assert not any(r.slot == "ba" for r in w.ports)

    def test_composite_slot_labels_are_dotted(self, pres):
        composite = compose(pres.generators["tau"],
                            {"ba": pres.generators["beta"]})
        assert set(composite.slots) == {"ba.ht", "ba.mx", "ba.rs", "bt", "rt"}

    def test_type_conflict_among_glued_wires(self):
        b = boundary("B", a="physical", d="digital")
        mid = boundary("M", x="physical", y="digital")
        out = boundary("O", x="physical", y="digital")
        f = canonicalize(Architecture(
            (("s", mid),), out,
            (wire([at("s", "x"), outer("x")], "physical"),
             wire([at("s", "y"), outer("y")], "digital"))))
        # ill-typed raw inner bridging the physical and digital wires of f
        g = Architecture(
            (("t", b),), mid,
            (wire([at("t", "a"), outer("x"), outer("y")], "physical"),
             wire([at("t", "d")], "digital")))
        with pytest.raises(CompositionError, match="type conflict"):
            compose(f, {"s": g})

    def test_refuses_an_outer_port_on_two_wires(self):
        # s.x is on a wire that passes through and on one glued at u, so it
        # ends on two wires of the composite
        m = boundary("M", x="physical")
        f = Architecture(
            (("s", m), ("u", m)), boundary("O", x="physical"),
            (wire([at("s", "x"), outer("x")], "physical"),
             wire([at("s", "x"), at("u", "x")], "physical")))
        g = Architecture((("t", boundary("B", a="physical")),), m,
                         (wire([at("t", "a"), outer("x")], "physical"),))
        with pytest.raises(ValidationError,
                           match=r"^port s\.x attached to two wires$"):
            compose(f, {"u": g})

    def test_refuses_a_deleted_port_on_two_wires(self):
        # u.x, which the composite deletes, is on two wires of f2: each
        # input's own wiring is checked, so the two are not glued silently
        m = boundary("M", x="physical")
        f2 = Architecture(
            (("s", m), ("u", m)), boundary("O", x="physical"),
            (wire([at("s", "x"), outer("x")], "physical"),
             wire([at("u", "x")], "physical"),
             wire([at("u", "x")], "physical")))
        g = Architecture((("t", boundary("B", a="physical")),), m,
                         (wire([at("t", "a"), outer("x")], "physical"),))
        for run in (lambda: canonicalize(f2), lambda: compose(f2, {"u": g})):
            with pytest.raises(ValidationError,
                               match=r"^port u\.x attached to two wires$"):
                run()

    def test_passing_wires_are_kept_or_relabeled_alone(self, pres):
        tau, beta = pres.generators["tau"], pres.generators["beta"]
        composite = compose(tau, {"ba": beta})
        kept = [w for w in tau.wires if all(r.slot != "ba" for r in w.ports)]
        assert kept and all(w in composite.wires for w in kept)
        inside = [w for w in beta.wires if all(r.slot for r in w.ports)]
        assert inside
        for w in inside:
            assert wire([at(f"ba.{r.slot}", r.port) for r in w.ports],
                        w.type) in composite.wires

    def test_type_conflict_is_independent_of_hash_seed(self):
        src = str(Path(opmodel.__file__).resolve().parent.parent)
        for seed in range(8):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", ILL_TYPED_GLUE], env=env,
                capture_output=True, text=True, check=True,
                timeout=60).stdout
            assert out == "CompositionError\n", f"PYTHONHASHSEED={seed}"


    def test_ill_typed_wire_message_is_independent_of_hash_seed(
            self, tmp_path):
        # the wire mixes heat ports with rt.temp, which tau exposes as temp1
        model = tmp_path / "mixed.opm"
        model.write_text(lsi_text().replace(
            "wire bt.heat1 = ba.heat", "wire bt.heat1 = ba.heat = rt.temp"),
            encoding="utf-8")
        src = str(Path(opmodel.__file__).resolve().parent.parent)
        outs = set()
        for seed in range(8):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "opmodel.cli", "validate", str(model)],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 1, f"PYTHONHASHSEED={seed}"
            outs.add(proc.stdout)
        assert len(outs) == 1
        assert ("  error: generator tau: wire {temp1, ba.heat, bt.heat1, "
                "rt.temp}:heat contains port temp1 of type 'temp'"
                in outs.pop().splitlines())


class TestEqual:
    def test_reflexive(self, pres):
        arch = tau(pres)
        corr = ComponentCorrespondence({s: s for s in arch.slots})
        assert equal(arch, arch, corr).equal

    def test_equal_report_reads_equal(self):
        assert str(EqualityReport(True)) == "equal"

    def test_swapped_heat_wiring_gives_two_block_diff(self, pres):
        arch = tau(pres)
        swap = {at("bt", "heat1"): at("bt", "heat2"),
                at("bt", "heat2"): at("bt", "heat1")}
        wires = tuple(
            Wire(frozenset(swap.get(r, r) for r in w.ports), w.type)
            for w in arch.wires)
        variant = canonicalize(Architecture(arch.inputs, arch.output, wires))
        corr = ComponentCorrespondence({s: s for s in arch.slots})
        report = equal(arch, variant, corr)
        assert not report.equal
        assert len(report.only_left) == 2
        assert len(report.only_right) == 2
        assert "only left" in str(report)

    def test_rejects_non_bijective_correspondence(self, pres):
        arch = tau(pres)
        with pytest.raises(ValidationError, match="correspondence"):
            equal(arch, arch, ComponentCorrespondence({"ba": "ba"}))

    @pytest.mark.parametrize("mapping, message", [
        ({"ba": "ba", "bt": "bt", "rt": "bt"},
         "correspondence is not a bijection onto right slots"),
        ({"ba": "bt", "bt": "ba", "rt": "rt"},
         "correspondence ba ~ bt does not preserve boundaries"),
    ], ids=["not a bijection", "boundaries"])
    def test_correspondence_is_a_boundary_preserving_bijection(
            self, pres, mapping, message):
        arch = tau(pres)
        with pytest.raises(ValidationError) as err:
            equal(arch, arch, ComponentCorrespondence(mapping))
        assert str(err.value) == message

    def test_output_boundaries_differ(self, pres):
        arch = tau(pres)
        other = Architecture(arch.inputs, pres.boundaries["LSI"], ())
        report = equal(arch, other,
                       ComponentCorrespondence({s: s for s in arch.slots}))
        reason = "output boundaries differ: TempSys vs LSI"
        assert report == (False, (), (), reason)
        assert str(report) == f"not equal\n  {reason}"

    def test_derive_correspondence_by_boundary_name(self, pres):
        lhs = compose(pres.generators["phi"], {"ls": pres.generators["lambda"],
                                               "ts": pres.generators["tau"]})
        rhs = compose(pres.generators["kappa"], {"sn": pres.generators["sigma"],
                                                 "ac": pres.generators["alpha"]})
        corr = derive_correspondence(lhs, rhs)
        assert corr.mapping["ts.ba"] == "ac.ba"

    def test_derive_correspondence_boundary_sets_differ(self, pres):
        with pytest.raises(ValidationError) as err:
            derive_correspondence(tau(pres), pres.generators["beta"])
        assert str(err.value) == (
            "cannot auto-match components: boundary sets differ "
            "(['Bath', 'Box', 'Lab'] vs ['Heater', 'Mixer', 'Resevoir'])")

    def test_derive_correspondence_ambiguous(self, pres):
        bath = pres.boundaries["Bath"]
        two = Architecture(
            (("a", bath), ("b", bath)),
            boundary("O"),
            (wire([at("a", "heat"), at("b", "heat")], "heat"),
             wire([at("a", "H2O"), at("b", "H2O")], "H2O"),
             wire([at("a", "setPt"), at("b", "setPt")], "setPt")))
        with pytest.raises(ValidationError, match="ambiguous"):
            derive_correspondence(two, two)


class TestOperadLaws:
    """Randomized law checks; the acceptance suite runs them at full volume."""

    CASES = 300

    def test_right_unit(self):
        rng = random.Random(101)
        for _ in range(self.CASES):
            out = random_boundary(rng, "Out")
            f = random_architecture(rng, out)
            slot, b = f.inputs[rng.randrange(len(f.inputs))]
            assert compose(f, {slot: identity(b)}) == f

    def test_left_unit(self):
        rng = random.Random(102)
        for _ in range(self.CASES):
            out = random_boundary(rng, "Out")
            g = random_architecture(rng, out, n_slots=2)
            ident = identity(out)
            label = ident.slots[0]
            composed = compose(ident, {label: g})
            corr = ComponentCorrespondence(
                {f"{label}.{s}": s for s in g.slots})
            assert equal(composed, g, corr).equal

    def test_associativity(self):
        rng = random.Random(103)
        for _ in range(self.CASES):
            out = random_boundary(rng, "Out")
            f = random_architecture(rng, out)
            s = f.slots[rng.randrange(len(f.slots))]
            g = random_architecture(rng, f.slot_boundary(s), n_slots=2)
            t = g.slots[rng.randrange(len(g.slots))]
            h = random_architecture(rng, g.slot_boundary(t))
            left = compose(compose(f, {s: g}), {f"{s}.{t}": h})
            right = compose(f, {s: compose(g, {t: h})})
            assert left == right

    def test_composition_matches_component_oracle(self):
        rng = random.Random(104)
        for _ in range(self.CASES):
            out = random_boundary(rng, "Out")
            f = random_architecture(rng, out)
            s = f.slots[rng.randrange(len(f.slots))]
            g = random_architecture(rng, f.slot_boundary(s), n_slots=2)
            composed = compose(f, {s: g})
            assert {w.ports for w in composed.wires} == \
                compose_partition_oracle(f, {s: g})
            # second level of nesting against the same oracle
            t = g.slots[0]
            h = random_architecture(rng, g.slot_boundary(t))
            nested = compose(composed, {f"{s}.{t}": h})
            assert {w.ports for w in nested.wires} == \
                compose_partition_oracle(composed, {f"{s}.{t}": h})

    def test_typing_and_port_conservation(self):
        rng = random.Random(105)
        for _ in range(self.CASES):
            out = random_boundary(rng, "Out")
            f = random_architecture(rng, out)
            s = f.slots[rng.randrange(len(f.slots))]
            g = random_architecture(rng, f.slot_boundary(s))
            composed = compose(f, {s: g})
            assert composed.output == f.output
            wired = set()
            for w in composed.wires:
                for r in w.ports:
                    assert composed.port_types()[r] == w.type
                    wired.add(r)
            expected = sum(len(b.ports) for _, b in f.inputs if _ != s)
            expected += sum(len(b.ports) for _, b in g.inputs)
            expected += len(f.output.ports)
            assert len(wired) == len(composed.port_types()) == expected
            assert validate(composed) == composed


def test_portref_rendering():
    assert str(at("ba", "heat")) == "ba.heat"
    assert str(outer("heat")) == "heat"
    assert outer("z") < at("a", "a")


def test_wire_rendering():
    w = wire([at("bt", "heat1"), at("ba", "heat")], "heat")
    assert str(w) == "{ba.heat, bt.heat1}:heat"


def test_boundary_rejects_duplicates_and_untyped_ports():
    with pytest.raises(ValidationError):
        from opmodel.portgraph import Boundary
        Boundary("B", ("a", "a"), {"a": "physical"})
    with pytest.raises(ValidationError):
        from opmodel.portgraph import Boundary
        Boundary("B", ("a",), {})


def test_type_table_and_architecture_reject_malformed_input(pres):
    with pytest.raises(ValidationError) as err:
        TypeTable({"heat": "physical", "x": "analog"})
    assert str(err.value) == "interface 'x' has unknown kind 'analog'"
    bath = pres.boundaries["Bath"]
    with pytest.raises(ValidationError) as err:
        Architecture((("a", bath), ("a", bath)), bath, ())
    assert str(err.value) == "duplicate slot labels"
