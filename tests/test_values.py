"""Value and record classes: equality, hashing, construction and import cost.

Values (architectures, terms, distributions, mode sets, kernels, ...) equal
only an instance of their own class with equal fields.  Records (rows,
reports, functors) are NamedTuples, so they index and unpack like tuples.
"""
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opmodel
from opmodel import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    Distribution,
    FailureHistory,
    Kernel,
    Model,
    ModeRelation,
    ModeSet,
    Point,
    PortRef,
    Term,
    TypeTable,
    Wire,
    check_prob_functor,
)
from opmodel.modes import ModeCheckRow, ModeFunctor
from opmodel.portgraph import EqualityReport, ValidationError, compose
from opmodel.presentation import (
    CheckReport,
    CoherenceEquation,
    CompileReport,
    EquationReport,
    OperadPresentation,
)
from opmodel.prob import ProbCheckRow, ProbFunctor
from opmodel.rates import INDEPENDENCE_NOTE, PipelineResult
from opmodel.stoch import LiftingRow, PtConditionReport, PtKernel, StochFunctor

F = Fraction
BATH = Boundary("Bath", ("heat",), {"heat": "heat"})
OK_BAD = ModeSet("Bath", ("ok", "bad"))


def _wire(slot):
    return Wire(frozenset({PortRef(slot, "heat"), PortRef(None, "heat")}), "heat")


# each value class: a builder called twice for two equal, distinct instances,
# and an instance that differs from those in one field
VALUES = {
    TypeTable: (lambda: TypeTable({"heat": "physical"}),
                TypeTable({"heat": "digital"})),
    Boundary: (lambda: Boundary("Bath", ("heat",), {"heat": "heat"}),
               Boundary("Tank", ("heat",), {"heat": "heat"})),
    Wire: (lambda: _wire("a"), _wire("b")),
    Architecture: (lambda: Architecture((("a", BATH),), BATH, (_wire("a"),)),
                   Architecture((("a", BATH),), BATH, ())),
    ComponentCorrespondence: (lambda: ComponentCorrespondence({"a": "b"}),
                              ComponentCorrespondence({"a": "c"})),
    Term: (lambda: Term("g", (("s", Term("h")),)), Term("g")),
    Distribution: (lambda: Distribution((("a", F(1, 2)), ("b", F(1, 2)))),
                   Distribution((("a", F(1)),))),
    ModeSet: (lambda: ModeSet("Bath", ("ok", "bad")),
              ModeSet("Bath", ("ok",))),
    ModeRelation: (lambda: ModeRelation({"a": frozenset({("ok", "bad")})}),
                   ModeRelation({"a": frozenset()})),
    Point: (lambda: Point(OK_BAD, {"ok": F(1, 3), "bad": F(2, 3)}),
            Point(OK_BAD, {"ok": F(1)})),
    Kernel: (lambda: Kernel(OK_BAD, (("s", OK_BAD),), {
                 ("ok", "s", "ok"): F(1), ("bad", "s", "bad"): F(1)}),
             Kernel(OK_BAD, (("s", OK_BAD),), {
                 ("ok", "s", "bad"): F(1), ("bad", "s", "ok"): F(1)})),
    FailureHistory: (lambda: FailureHistory(F(0), F(10), (F(1), F(4))),
                     FailureHistory(F(0), F(10), ())),
    Model: (lambda: Model(OperadPresentation(TypeTable({}), {}, {})),
            Model(OperadPresentation(TypeTable({}), {}, {}),
                  {"P": ProbFunctor({}, "P")})),
}

HASHABLE = (Wire, Term, Distribution, ModeSet, FailureHistory)

RECORDS = (EqualityReport, CoherenceEquation, OperadPresentation,
           EquationReport, CheckReport, CompileReport, ProbFunctor,
           ProbCheckRow, ModeFunctor, ModeCheckRow, PtKernel,
           PtConditionReport, StochFunctor, LiftingRow, PipelineResult)


def _fields(value) -> tuple:
    return tuple(getattr(value, s) for s in type(value).__slots__)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
class TestValueEquality:
    def test_equals_its_own_class_with_equal_fields(self, cls):
        make, other = VALUES[cls]
        a, b = make(), make()
        assert a is not b and type(a) is cls
        assert a == b and not a != b
        assert a != other and not a == other

    def test_never_equals_a_tuple_of_its_fields(self, cls):
        a = VALUES[cls][0]()
        assert not isinstance(a, tuple)
        assert a != _fields(a) and _fields(a) != a

    def test_hashable_values_hash_alike_when_equal(self, cls):
        a, b = VALUES[cls][0](), VALUES[cls][0]()
        if cls in HASHABLE:
            assert hash(a) == hash(b) and len({a, b}) == 1
        else:
            # a mapping field makes the value unhashable, as before
            with pytest.raises(TypeError):
                hash(a)

    def test_copies_and_pickles_equal_the_original(self, cls):
        a = VALUES[cls][0]()
        for other in (copy.copy(a), copy.deepcopy(a),
                      pickle.loads(pickle.dumps(a))):
            assert type(other) is cls and other == a


def _composite() -> Architecture:
    """``f(a->f)``: ``compose`` holds its wiring as a table until its
    ``wires`` are first read."""
    heat = Wire(frozenset({PortRef("a", "heat"), PortRef("b", "heat"),
                           PortRef(None, "heat")}), "heat")
    f = Architecture((("a", BATH), ("b", BATH)), BATH, (heat,))
    return compose(f, {"a": f})


def _wires_unread(arch: Architecture) -> bool:
    return arch._wires is None


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
    ids=["copy", "deepcopy", "pickle"])
def test_a_composite_copies_before_its_wires_are_read(copier):
    c = _composite()
    assert _wires_unread(c)
    other = copier(c)
    assert type(other) is Architecture and other == _composite()
    assert other == Architecture(c.inputs, c.output, c.wires)
    assert other.slots == ("a.a", "a.b", "b") and len(other.wires) == 1


def test_a_composite_compares_and_hashes_alike_before_its_wires_are_read():
    def hashed(a):
        try:
            return hash(a)
        except TypeError as exc:  # a mapping field: unhashable, as before
            return type(exc)

    d = _composite()
    built = Architecture(d.inputs, d.output, d.wires)
    first, second, third = _composite(), _composite(), _composite()
    assert _wires_unread(first) and _wires_unread(second)
    before = (first == built, hashed(second), third == _composite())
    for c in (first, second, third):
        assert not _wires_unread(c)
    after = (first == built, hashed(second), third == _composite())
    assert before == after == (True, hashed(built), True)


@pytest.mark.parametrize("make, message", [
    (lambda: Kernel(OK_BAD, (("s", OK_BAD),), {("ok", "s", "hot"): F(1),
                                                ("bad", "s", "ok"): F(1)}),
     "kernel: unknown mode 'hot' on slot s"),
    (lambda: Kernel(OK_BAD, (("s", OK_BAD),), {("ok", "s", "ok"): F(-1),
                                                ("ok", "s", "hot"): F(2)}),
     "kernel: unknown mode 'hot' on slot s"),
    (lambda: Kernel(OK_BAD, (("s", OK_BAD),), {("hot", "s", "ok"): F(1)}),
     "kernel: unknown source mode 'hot' on Bath"),
    (lambda: Kernel(OK_BAD, (("s", OK_BAD),), {("ok", "t", "ok"): F(1)}),
     "kernel: unknown slot 't'"),
    (lambda: Kernel(OK_BAD, (("s", OK_BAD), ("s", OK_BAD)), {}),
     "duplicate kernel slot labels"),
    (lambda: Point(OK_BAD, {"hot": F(1)}), "prior on Bath: unknown mode 'hot'"),
    (lambda: Distribution((("a", F(1, 2)), ("a", F(1, 2)))),
     "distribution labels must be unique"),
    (lambda: Architecture((("a", BATH), ("a", BATH)), BATH, ()),
     "duplicate slot labels"),
], ids=["kernel-mode", "kernel-mode-before-sign", "kernel-source-mode",
        "kernel-slot", "kernel-duplicate-slot", "point-mode",
        "distribution-labels", "architecture-duplicate-slot"])
def test_public_constructors_make_the_checks_the_parser_makes(make, message):
    """The parser builds values through private constructors that skip the
    checks it has already made; built by hand, a value gets them all."""
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


def test_values_with_the_same_items_differ_across_classes():
    mapping = {"heat": "physical"}
    same_mapping = [TypeTable(mapping), ComponentCorrespondence(mapping),
                    ModeRelation(mapping)]
    same_pair = [ModeSet("Bath", ("ok",)), Term("Bath", ("ok",))]
    for group in (same_mapping, same_pair):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert a != b and b != a


def test_records_are_named_tuples(pres, lsi):
    for cls in RECORDS:
        assert issubclass(cls, tuple) and cls._fields, cls.__name__
    report = check_prob_functor(pres, lsi.prob_functors["P"])
    title, rows, errors, counted = report
    assert (title, errors, counted) == (
        "probability coherence", (), "leaf equations")
    assert report[1] is rows and rows[0].lhs_path == rows[0][1]


def test_positional_construction_and_defaults():
    t = Term("g")
    assert t.children == ()
    assert CoherenceEquation(t, t).corr is None
    assert OperadPresentation(TypeTable({}), {}, {}).equations == ()
    assert ProbFunctor({}).name == ""
    assert ModeFunctor({}, {}).name == ""
    assert StochFunctor({}, {}).name == ""
    assert CheckReport("t", ()) == ("t", (), (), "")
    assert LiftingRow("s", True).detail == ""
    assert EqualityReport(True) == (True, (), (), "")
    assert EquationReport(CoherenceEquation(t, t), True)[2:] == (None, None, "")
    assert PipelineResult(ProbFunctor({}), {}, ()).note == INDEPENDENCE_NOTE
    h = FailureHistory(F(0), F(5), (F(1), F(2)))
    assert (h.t0, h.t1, h.times, h.count, h.span) == (
        F(0), F(5), (F(1), F(2)), 2, F(5))


def test_models_do_not_share_functor_tables():
    pres = OperadPresentation(TypeTable({}), {}, {})
    a, b = Model(pres), Model(pres)
    for name in ("prob_functors", "mode_functors", "stoch_functors"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    a.prob_functors["P"] = ProbFunctor({}, "P")
    assert b.prob_functors == {} and a != b
    given = {"P": ProbFunctor({}, "P")}
    assert Model(pres, prob_functors=given).prob_functors is given


def test_normal_forms_compare_equal():
    a, b = (Wire(frozenset({PortRef(s, "heat")}), "heat") for s in "ab")
    two = (("a", BATH), ("b", BATH))
    shuffled = Architecture(two, BATH, (b, Wire(frozenset(), "heat"), a))
    assert shuffled.wires == (a, b)
    assert shuffled == Architecture(two, BATH, (a, b))
    assert Point(OK_BAD, {"ok": F(1), "bad": F(0)}) == Point(OK_BAD, {"ok": F(1)})
    k = VALUES[Kernel][0]()
    assert Kernel(OK_BAD, k.slots, {**k.entries, ("ok", "s", "bad"): F(0)}) == k


def test_repr_names_the_class_and_fields():
    assert repr(Term("g")) == "Term('g', ())"


def test_cli_import_leaves_out_dataclasses_and_loads_every_layer():
    """A one-shot ``opmodel`` pays for ``dataclasses``, ``inspect``,
    ``importlib.resources`` (which only ``corpus.lsi_text`` uses) and
    ``pathlib`` only if it imports them; the layers listed are those
    benchmarks/tracing.py wraps."""
    src = Path(opmodel.__file__).resolve().parents[1]
    code = "import opmodel.cli, sys; print(*sorted(sys.modules), sep='\\n')"
    loaded = set(subprocess.run(
        [sys.executable, "-S", "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout.split())
    assert not loaded & {"dataclasses", "inspect", "importlib.resources",
                         "pathlib"}
    assert {f"opmodel.{m}" for m in ("dsl", "presentation", "portgraph", "prob",
                                     "modes", "stoch", "rates", "cli")} <= loaded
