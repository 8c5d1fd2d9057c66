"""Presentations: term elaboration, leaf paths, coherence checking."""
import random
from collections import Counter

import pytest

from opmodel.portgraph import (
    Architecture,
    PortGraphError,
    TypeTable,
    ValidationError,
    Wire,
    at,
    boundary,
    outer,
)
from opmodel.presentation import (
    CoherenceEquation,
    OperadPresentation,
    Term,
    TermSyntaxError,
    check_equation,
    check_term,
    compile_presentation,
    elaborate,
    leaf_paths,
    parse_term,
    resolve_leaf,
)
from opmodel.modes import compose_rel
from opmodel.prob import compose_dist
from opmodel.stoch import compose_kernel, compose_pt
from randgen import (FAULTS, elaborate_partition_oracle, leaf_paths_oracle,
                     random_presentation, random_term)


class TestParseTerm:
    def test_bare_generator(self):
        assert parse_term("tau") == Term("tau")

    def test_nested(self, lsi):
        t = parse_term("phi(ls->lambda, ts->tau(ba->beta))")
        assert t.generator == "phi"
        assert t.child("ts").child("ba") == Term("beta")
        assert str(t) == "phi(ls->lambda, ts->tau(ba->beta))"
        eq = lsi.presentation.equations[0]
        for side in (eq.lhs, eq.rhs):
            assert parse_term(str(side)) == side

    @pytest.mark.parametrize("bad", [
        "", "f(", "f(x)", "f(x->)", "f(x->g", "f()", "f(x->g) extra"])
    def test_syntax_errors(self, bad):
        with pytest.raises(TermSyntaxError) as err:
            parse_term(bad)
        # the column of the offending token, or of the end of input
        column = {"": 1, "f(": 3, "f(x)": 4, "f(x->)": 6, "f(x->g": 7,
                  "f()": 3, "f(x->g) extra": 9}[bad]
        assert (err.value.line, err.value.col) == (1, column)


class TestElaborate:
    def test_leaf_slots_are_dotted_paths(self, pres):
        arch = elaborate(pres, parse_term("phi(ls->lambda)"))
        assert set(arch.slots) == {"ls.in", "ls.op", "ls.ch", "ts"}

    def test_compositional(self, pres):
        one_shot = elaborate(pres, parse_term("phi(ts->tau(ba->beta))"))
        staged_pres = OperadPresentation(
            pres.type_table, pres.boundaries,
            {**pres.generators,
             "taubeta": elaborate(pres, parse_term("tau(ba->beta)"))})
        staged = elaborate(staged_pres, parse_term("phi(ts->taubeta)"))
        assert one_shot == staged

    def test_six_components_on_both_equation_sides(self, pres):
        lhs = elaborate(pres, parse_term("phi(ls->lambda, ts->tau)"))
        rhs = elaborate(pres, parse_term("kappa(sn->sigma, ac->alpha)"))
        assert len(lhs.inputs) == len(rhs.inputs) == 6

    def test_unknown_slot_rejected(self, pres):
        with pytest.raises(ValidationError, match="no slot"):
            elaborate(pres, parse_term("phi(nope->tau)"))


class TestLeafResolution:
    def test_leaf_paths_in_slot_order(self, pres):
        t = parse_term("phi(ls->lambda, ts->tau)")
        assert leaf_paths(pres, t) == (
            ("ls.in", "Intfr"), ("ls.op", "Optics"), ("ls.ch", "Chassis"),
            ("ts.ba", "Bath"), ("ts.bt", "Box"), ("ts.rt", "Lab"))

    def test_exact_suffix_and_boundary_selectors(self, pres):
        t = parse_term("phi(ts->tau(ba->beta))")
        assert resolve_leaf(pres, t, "ts.ba.ht") == "ts.ba.ht"
        assert resolve_leaf(pres, t, "ht") == "ts.ba.ht"
        assert resolve_leaf(pres, t, "heater") == "ts.ba.ht"

    def test_unknown_selector(self, pres):
        t = parse_term("phi(ls->lambda, ts->tau)")
        with pytest.raises(ValidationError, match="no leaf"):
            resolve_leaf(pres, t, "zz")

    def test_ambiguous_selector(self):
        b = boundary("B", p="physical")
        a = boundary("A", p="physical")
        arch = Architecture(
            (("x", b), ("y", b)), a,
            (Wire(frozenset({at("x", "p"), at("y", "p"), outer("p")}),
                  "physical"),))
        tiny = OperadPresentation(
            TypeTable({"physical": "physical"}),
            {"A": a, "B": b}, {"f": arch}, ())
        t = parse_term("f")
        with pytest.raises(ValidationError, match="ambiguous"):
            resolve_leaf(tiny, t, "b")
        assert resolve_leaf(tiny, t, "x") == "x"


class TestCheckEquation:
    def test_corpus_equation_passes(self, pres):
        report = check_equation(pres, pres.equations[0])
        assert report.passed
        assert "pass" in str(report)

    def test_wire_deletion_fails_with_diff(self, pres):
        sigma = pres.generators["sigma"]
        mutated = Architecture(sigma.inputs, sigma.output, sigma.wires[1:])
        generators = {**pres.generators, "sigma": mutated}
        mutated_pres = OperadPresentation(
            pres.type_table, pres.boundaries, generators, pres.equations)
        report = check_equation(mutated_pres, pres.equations[0])
        assert not report.passed
        assert report.diff is not None
        assert report.diff.only_left or report.diff.only_right

    def test_error_reported_not_raised(self, pres):
        eq = CoherenceEquation(parse_term("phi(ls->beta)"), parse_term("kappa"))
        report = check_equation(pres, eq)
        assert not report.passed
        assert "expects boundary" in report.error


class TestCompile:
    def test_corpus_counts(self, pres):
        report = compile_presentation(pres)
        assert report.success
        assert (report.boundary_count, report.generator_count,
                report.equation_count) == (14, 7, 1)
        assert str(report).startswith(
            "compile ok: 14 boundaries, 7 generators, 1 equations")

    def test_empty_presentation(self):
        report = compile_presentation(
            OperadPresentation(TypeTable({}), {}, {}, ()))
        assert report.success
        assert report.boundary_count == 0

    def test_undeclared_type_and_partial_wiring_reported(self):
        b = boundary("B", a="mystery")
        out = boundary("O", x="mystery", y="mystery")
        arch = Architecture(
            (("s", b),), out,
            (Wire(frozenset({at("s", "a"), outer("x")}), "mystery"),))
        report = compile_presentation(OperadPresentation(
            TypeTable({}), {"B": b, "O": out}, {"f": arch}, ()))
        assert not report.success
        assert any("undeclared type" in e for e in report.errors)
        assert any("unwired ports" in e for e in report.errors)

    def test_undeclared_boundary_reported(self, pres):
        report = compile_presentation(OperadPresentation(
            pres.type_table, {}, {"tau": pres.generators["tau"]}, ()))
        assert any("undeclared" in e for e in report.errors)


class TestFoldedWalks:
    """``check_term`` and ``leaf_paths`` are folds; plain recursion and
    ``elaborate`` are their oracles, and a brute-force partition of the
    whole term's wires is the oracle of ``elaborate``.  A fill of a missing
    slot has no leaf paths: ``leaf_paths`` refuses it.  A slot filled twice
    never reaches a fold: ``Term`` refuses it, as the parser does."""

    def test_slot_filled_twice_is_refused(self):
        with pytest.raises(ValidationError) as info:
            Term("phi", (("ts", Term("tau")),
                         ("ts", parse_term("tau(ba->beta)"))))
        assert str(info.value) == "duplicate slot 'ts'"
        with pytest.raises(TermSyntaxError) as parsed:
            parse_term("phi(ts->tau, ts->tau(ba->beta))")
        assert str(parsed.value).endswith(": duplicate slot 'ts'")

    def test_random_terms_match_the_oracles(self):
        rng = random.Random(2009)
        seen = Counter()
        for _ in range(400):
            pres, P = random_presentation(rng)
            fault = rng.choice(FAULTS)
            t = random_term(rng, pres, fault)
            if fault == "slot":
                with pytest.raises(ValidationError, match=(
                        "^unknown slot 'nowhere' in composition$")):
                    leaf_paths(pres, t)
            elif fault != "generator":
                assert leaf_paths(pres, t) == leaf_paths_oracle(pres, t)
            try:
                arch = elaborate(pres, t)
            except PortGraphError as exc:
                with pytest.raises(PortGraphError) as got:
                    check_term(pres, t)
                assert (type(got.value), str(got.value)) \
                    == (type(exc), str(exc))
                seen[fault] += 1
                continue
            assert fault in (None, "twice")
            assert check_term(pres, t) == arch.output
            assert [w.ports for w in arch.wires] \
                == elaborate_partition_oracle(pres, t)
            assert P.fold(t).labels == tuple(p for p, _ in leaf_paths(pres, t))
            seen[fault or ("identity" if "->id" in str(t) else "typed")] += 1
        assert set(seen) == {"typed", "identity", *FAULTS[1:]}, seen



class TestStrayFills:
    """``graft`` refuses a fill of a slot the outer value lacks, with one
    message in every semantics: tau has slots ba, bt and rt, not x."""

    STRAY = "^unknown slot 'x' in composition$"

    @pytest.mark.parametrize("kind", ["dist", "rel", "kernel", "pt"])
    @pytest.mark.parametrize("filled", ["x", "ba x"])
    def test_compose_refuses(self, lsi, kind, filled):
        P, M, S = (lsi.prob_functors["P"], lsi.mode_functors["M"],
                   lsi.stoch_functors["S"])
        compose, value = {
            "dist": (compose_dist, P.__getitem__),
            "rel": (compose_rel, M.relation_of),
            "kernel": (compose_kernel, S.kernels.__getitem__),
            "pt": (compose_pt, lambda g: S.pt_kernel(lsi.presentation, g)),
        }[kind]
        with pytest.raises(ValidationError, match=self.STRAY):
            compose(value("tau"), {s: value("beta") for s in filled.split()})

    @pytest.mark.parametrize("fold", ["leaf_paths", "P", "M", "S"])
    def test_folds_refuse(self, lsi, fold):
        pres = lsi.presentation
        t = parse_term("tau(ba->beta, x->beta)")
        run = {"leaf_paths": lambda: leaf_paths(pres, t),
               "P": lambda: lsi.prob_functors["P"].fold(t),
               "M": lambda: lsi.mode_functors["M"].fold(t),
               "S": lambda: lsi.stoch_functors["S"].fold(pres, t)}[fold]
        with pytest.raises(ValidationError, match=self.STRAY):
            run()
