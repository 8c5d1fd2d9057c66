"""Whole-model oracles: generated balanced models against the references
that ``benchmarks/synth.py`` computes without calling ``opmodel``."""
import functools
import random
import sys
from pathlib import Path

import pytest

import opmodel
import opmodel.cli  # noqa: F401  (run_cli calls cli.run)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from synth import Shape, SynthModel  # noqa: E402
from workloads import check_synth_report, run_cli  # noqa: E402

SEEDS = (1, 2, 3)
DEPTHS = (2, 3)  # 16 and 64 leaves


@functools.cache
def synth_model(depth: int, seed: int) -> SynthModel:
    return SynthModel(Shape(depth=depth), seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("depth", DEPTHS)
class TestWholeModel:
    def test_check_matches_verdict(self, depth, seed, tmp_path):
        m = synth_model(depth, seed)
        for twin, text in ((False, m.text), (True, m.twin_text)):
            path = tmp_path / "model.opm"
            path.write_text(text, encoding="utf-8")
            result = run_cli(["check", str(path), "--functor", "P",
                              "--functor", "M", "--functor", "S"])
            assert check_synth_report(m.check_verdict(twin), result) == ""

    def test_serialize_round_trip(self, depth, seed):
        m = synth_model(depth, seed)
        for text in (m.text, m.twin_text):
            model = opmodel.parse(text)
            assert opmodel.parse(opmodel.serialize(model)) == model


def test_queries_match_references():
    """diagnose, leaf_probability and can_cause on the depth-0 and depth-1
    subterms of a 64-leaf model, on a seeded sample of leaves."""
    m = synth_model(3, 1)
    model = opmodel.parse(m.text)
    pres = model.presentation
    P, M, S = (model.prob_functors["P"], model.mode_functors["M"],
               model.stoch_functors["S"])
    rng = random.Random(1)
    nodes = [node for node in m.nodes.values() if node.depth <= 1]
    assert {node.depth for node in nodes} == {0, 1}
    for node in nodes:
        term = opmodel.parse_term(node.term())
        for x in m.root_modes:
            got = opmodel.diagnose(pres, S, term, x)
            assert dict(got.entries) == m.posterior(node, x)
        for leaf in rng.sample(node.leaves, 6):
            assert opmodel.leaf_probability(pres, P, term, f"l{leaf}") \
                == m.leaf_probability(node, leaf)
            for x in m.root_modes:
                for y in m.leaf_modes:
                    assert opmodel.can_cause(pres, M, term, f"l{leaf}", y, x) \
                        is m.can_cause(leaf, y, x)


@pytest.mark.parametrize("source", ["lsi", *((d, s) for d in DEPTHS
                                             for s in SEEDS)], ids=str)
def test_joint_lifting(source, lsi):
    """The stochastic functor refines P and M along whole terms: on every
    node's term (every generator, on LSI) and on both sides of each
    equation, aggregation of the folded pointed kernel is P's fold, its
    support is M's fold, and the pointed-kernel condition holds."""
    if source == "lsi":
        model = lsi
        terms = [opmodel.Term(g) for g in model.presentation.generators]
    else:
        m = synth_model(*source)
        model = opmodel.parse(m.text)
        terms = [opmodel.parse_term(node.term()) for node in m.nodes.values()]
    pres = model.presentation
    terms += [side for eq in pres.equations for side in (eq.lhs, eq.rhs)]
    P, M, S = (model.prob_functors["P"], model.mode_functors["M"],
               model.stoch_functors["S"])
    for t in terms:
        k = S.fold(pres, t)
        assert opmodel.aggr(k).as_dict() == P.fold(t).as_dict(), str(t)
        assert opmodel.supp(k.kernel) == M.fold(t), str(t)
        assert opmodel.pt_condition(k).holds, str(t)
