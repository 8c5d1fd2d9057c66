"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""
import random
import time
from fractions import Fraction
from pathlib import Path

from opmodel.dsl import parse, serialize
from opmodel.modes import ModeSet, compose_rel
from opmodel.portgraph import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    TypeTable,
    Wire,
    at,
    boundary,
    compose,
    equal,
    identity,
    outer,
    wire,
)
from opmodel.presentation import (
    OperadPresentation,
    check_equation,
    elaborate,
    parse_term,
)
from opmodel.prob import (
    ProbFunctor,
    check_prob_functor,
    compose_dist,
    distribution,
    leaf_probability,
)
from opmodel.rates import INF, combine_meantime, invert, normalize
from opmodel.stoch import (
    Kernel,
    Point,
    StochFunctor,
    aggr,
    check_lifting,
    compose_kernel,
    compose_pt,
    diagnose,
    pt_condition,
    supp,
)
from randgen import (
    compose_kernel_oracle,
    compose_partition_oracle,
    compose_rel_oracle,
    consistent_ptkernel,
    random_architecture,
    random_boundary,
    random_distribution,
    random_modeset,
    random_relation,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def verdict(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_table3_reproduction(lsi):
    started = time.perf_counter()
    report = check_prob_functor(lsi.presentation, lsi.prob_functors["P"],
                                tolerance=F(0))
    elapsed = time.perf_counter() - started
    percents = [row.lhs_value * 100 for row in report.rows]
    ok = (report.passed
          and len(report.rows) == 6
          and percents == [F(4), F(12), F(24), F(48), F(6), F(6)]
          and all(row.lhs_value == row.rhs_value for row in report.rows)
          and elapsed < 1.0)
    verdict("probability coherence: six rows at exactly 4/12/24/48/6/6 "
            f"percent with tolerance 0 in {elapsed:.3f}s", ok)


def test_composition_fixture(lsi):
    composite = elaborate(lsi.presentation, parse_term("tau(ba->beta)"))
    expected = (FIXTURES / "tau_beta_composite.txt").read_text(
        encoding="utf-8").rstrip("\n")
    components = {b.name for _, b in composite.inputs}
    no_bath_ports = all(r.slot != "ba" for w in composite.wires
                        for r in w.ports)
    merged_heat = Wire(frozenset({at("ba.rs", "heat1"), at("bt", "heat1")}),
                       "heat") in composite.wires
    ok = (composite.describe() == expected
          and components == {"Lab", "Box", "Mixer", "Resevoir", "Heater"}
          and no_bath_ports and merged_heat)
    verdict("composition fixture: tau(ba->beta) matches the committed "
            "canonical partition", ok)


def test_coherence_equation_and_wire_mutations(lsi):
    pres = lsi.presentation
    eq = pres.equations[0]
    ok = check_equation(pres, eq).passed
    mutations = 0
    for gen in ("sigma", "alpha"):
        arch = pres.generators[gen]
        for dropped in range(len(arch.wires)):
            wires = arch.wires[:dropped] + arch.wires[dropped + 1:]
            mutated = OperadPresentation(
                pres.type_table, pres.boundaries,
                {**pres.generators,
                 gen: Architecture(arch.inputs, arch.output, wires)},
                pres.equations)
            report = check_equation(mutated, eq)
            diff_nonempty = (report.diff is not None
                             and bool(report.diff.only_left
                                      or report.diff.only_right))
            ok = ok and not report.passed and diff_nonempty
            mutations += 1
    ok = ok and mutations == 8 + 6
    verdict("coherence equation: corpus equation passes and every "
            f"single-wire deletion ({mutations} mutations) fails with a "
            "nonempty diff", ok)


def test_operad_law_property_suites():
    cases = 1000
    ok = True

    rng = random.Random(1001)
    for _ in range(cases):
        out = random_boundary(rng, "Out")
        f = random_architecture(rng, out)
        slot, b = f.inputs[rng.randrange(len(f.inputs))]
        ok = ok and compose(f, {slot: identity(b)}) == f
        s = f.slots[rng.randrange(len(f.slots))]
        g = random_architecture(rng, f.slot_boundary(s), n_slots=2)
        t = g.slots[rng.randrange(len(g.slots))]
        h = random_architecture(rng, g.slot_boundary(t))
        composed = compose(f, {s: g})
        ok = ok and compose(composed, {f"{s}.{t}": h}) \
            == compose(f, {s: compose(g, {t: h})})
        ok = ok and {w.ports for w in composed.wires} \
            == compose_partition_oracle(f, {s: g})
        ident = identity(g.output)
        left_unit = compose(ident, {ident.slots[0]: g})
        corr = ComponentCorrespondence(
            {f"{ident.slots[0]}.{sl}": sl for sl in g.slots})
        ok = ok and equal(left_unit, g, corr).equal
        if not ok:
            break
    verdict(f"operad laws: port-graph unit/associativity/oracle over "
            f"{cases} randomized cases", ok)

    rng = random.Random(1002)
    for _ in range(cases):
        p = random_distribution(rng, ("a", "b", "c"))
        q = random_distribution(rng, ("d", "e"))
        r = random_distribution(rng, ("f", "g"))
        left = compose_dist(compose_dist(p, {"a": q}), {"a.d": r})
        right = compose_dist(p, {"a": compose_dist(q, {"d": r})})
        ok = ok and left == right \
            and sum(v for _, v in left.entries) == 1
        if not ok:
            break
    verdict(f"operad laws: probability composition normalization and "
            f"associativity over {cases} randomized cases", ok)

    rng = random.Random(1003)
    for _ in range(cases):
        out_ms = random_modeset(rng, "O")
        slot_ms = {f"s{i}": random_modeset(rng, f"B{i}")
                   for i in range(rng.randint(1, 3))}
        outer_rel = random_relation(rng, slot_ms, out_ms)
        inners = {
            slot: random_relation(
                rng, {f"t{j}": random_modeset(rng, f"C{j}")
                      for j in range(rng.randint(1, 2))}, ms)
            for slot, ms in slot_ms.items() if rng.random() < 0.7}
        composed = compose_rel(outer_rel, inners)
        oracle = compose_rel_oracle(outer_rel, inners)
        ok = ok and set(composed.pairs) == set(oracle.pairs) and all(
            composed.slot(s) == oracle.slot(s) for s in composed.pairs)
        if not ok:
            break
    verdict(f"operad laws: relation composition vs brute-force witness "
            f"search over {cases} randomized cases", ok)

    rng = random.Random(1004)
    for _ in range(cases):
        src = random_modeset(rng, "S", max_modes=3)
        mid = random_modeset(rng, "M", max_modes=3)
        leaf = random_modeset(rng, "L", max_modes=3)
        p = consistent_ptkernel(rng, src, (("a", mid),)).kernel
        q = consistent_ptkernel(rng, mid, (("c", leaf),)).kernel
        composed = compose_kernel(p, {"a": q})
        for x in src.modes:
            row = sum(v for (x2, _, _), v in composed.entries.items()
                      if x2 == x)
            ok = ok and row == 1
        ok = ok and dict(composed.entries) == compose_kernel_oracle(
            p, {"a": q})
        if not ok:
            break
    verdict(f"operad laws: kernel composition row-normalization over "
            f"{cases} randomized cases", ok)


def test_functor_projection_properties():
    cases = 500
    ok = True
    rng = random.Random(2001)
    for _ in range(cases):
        src = random_modeset(rng, "S", max_modes=3)
        mid = random_modeset(rng, "M", max_modes=3)
        other = random_modeset(rng, "N", max_modes=2)
        leaf = random_modeset(rng, "L", max_modes=3)
        p = consistent_ptkernel(rng, src, (("a", mid), ("b", other)))
        q = consistent_ptkernel(rng, mid, (("c", leaf),),
                                source_prior=p.slot_priors["a"])
        composed = compose_pt(p, {"a": q})
        ok = ok and pt_condition(composed).holds
        ok = ok and aggr(composed).as_dict() == compose_dist(
            aggr(p), {"a": aggr(q)}).as_dict()
        oracle = compose_rel_oracle(supp(p.kernel), {"a": supp(q.kernel)})
        got = supp(composed.kernel)
        ok = ok and set(got.pairs) == set(oracle.pairs) and all(
            got.slot(s) == oracle.slot(s) for s in got.pairs)
        ok = ok and dict(composed.kernel.entries) == compose_kernel_oracle(
            p.kernel, {"a": q.kernel})
        if not ok:
            break
    verdict(f"functor projections: pt-condition closure, aggregation and "
            f"support functoriality over {cases} randomized pointed kernels",
            ok)


def _singleton_model():
    table = TypeTable({"link": "physical"})
    bnds = {n: boundary(n, p="link") for n in "ABCDE"}
    f = Architecture(
        (("x", bnds["B"]), ("y", bnds["C"])), bnds["A"],
        (wire([at("x", "p"), at("y", "p"), outer("p")], "link"),))
    g = Architecture(
        (("u", bnds["D"]), ("v", bnds["E"])), bnds["C"],
        (wire([at("u", "p"), at("v", "p"), outer("p")], "link"),))
    pres = OperadPresentation(table, bnds, {"f": f, "g": g}, ())
    P = ProbFunctor({"f": distribution(x=F(1, 3), y=F(2, 3)),
                     "g": distribution(u=F(1, 4), v=F(3, 4))})
    mode_sets = {n: ModeSet(n, (f"{n.lower()}_fail",)) for n in bnds}
    priors = {n: Point(ms, {ms.modes[0]: F(1)})
              for n, ms in mode_sets.items()}
    kernels = {
        name: Kernel(
            mode_sets[arch.output.name],
            tuple((slot, mode_sets[b.name]) for slot, b in arch.inputs),
            {(mode_sets[arch.output.name].modes[0], slot,
              mode_sets[b.name].modes[0]): P[name][slot]
             for slot, b in arch.inputs})
        for name, arch in pres.generators.items()}
    S = StochFunctor(priors, kernels)
    return pres, P, S, mode_sets


def test_query_correctness(lsi):
    heater = leaf_probability(
        lsi.presentation, lsi.prob_functors["P"],
        parse_term("phi(ts->tau(ba->beta))"), "ht")
    ok = heater == F(6, 25)

    pres, P, S, mode_sets = _singleton_model()
    t = parse_term("f(y->g)")
    posterior = diagnose(pres, S, t, mode_sets["A"].modes[0])
    stripped = {label.rsplit(".", 1)[0]: v for label, v in posterior.entries}
    ok = ok and stripped == P.fold(t).as_dict()
    verdict("query correctness: heater leaf equals 6/25 and singleton-mode "
            "diagnosis reproduces the probability composite", ok)


def test_lifting_gate(lsi):
    pres = lsi.presentation
    S = lsi.stoch_functors["S"]
    P = lsi.prob_functors["P"]
    M = lsi.mode_functors["M"]
    ok = check_lifting(pres, S, P, M).passed

    zeroed = 0
    for name, kernel in S.kernels.items():
        for entry in list(kernel.entries):
            entries = dict(kernel.entries)
            removed = entries.pop(entry)
            x = entry[0]
            # renormalize the row so the mutation is a valid kernel
            for key in entries:
                if key[0] == x:
                    entries[key] = entries[key] / (1 - removed)
            mutated = StochFunctor(S.priors, {
                **S.kernels,
                name: Kernel(kernel.source, kernel.slots, entries)})
            report = check_lifting(pres, mutated, P, M)
            ok = ok and not report.passed
            zeroed += 1
        if not ok:
            break
    verdict(f"lifting gate: corpus functor passes and zeroing any of the "
            f"{zeroed} kernel entries paired in the mode functor fails", ok)


def test_dsl_round_trip(lsi):
    text = serialize(lsi)
    ok = parse(text) == lsi
    ok = ok and serialize(parse(text)) == text
    ok = ok and serialize(parse(serialize(parse(text)))) == text
    verdict("DSL round trip: parse-serialize structural identity and "
            "byte-exact serialization determinism", ok)


def test_rates_pipeline_properties():
    ok = combine_meantime([F(2), F(2)]) == F(1)
    ok = ok and normalize([F(1), F(3)]).as_dict() == {"0": F(1, 4),
                                                      "1": F(3, 4)}
    rng = random.Random(3001)
    for _ in range(500):
        ts = [F(rng.randint(1, 99), rng.randint(1, 99))
              for _ in range(rng.randint(1, 5))]
        for t in ts:
            ok = ok and invert(invert(t)) == t
        with_inf = ts + ([INF] if rng.random() < 0.3 else [])
        ok = ok and invert(combine_meantime(with_inf)) == sum(
            (invert(t) for t in with_inf), F(0))
        rates = [invert(t) for t in ts]
        scale = F(rng.randint(1, 9))
        ok = ok and normalize(rates) == normalize([scale * r for r in rates])
        if not ok:
            break
    verdict("rates pipeline: inversion involution, harmonic/arithmetic "
            "duality and normalization commuting square over 500 randomized "
            "instances plus fixed cases", ok)
