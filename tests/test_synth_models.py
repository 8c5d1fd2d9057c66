"""Whole-model oracles: generated balanced models against the references
that ``benchmarks/synth.py`` computes without calling ``opmodel``."""
import functools
import gc
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

import opmodel
import opmodel.cli  # noqa: F401  (run_cli calls cli.run)
from opmodel import stoch
from opmodel.portgraph import ValidationError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from synth import Node, Shape, SynthModel  # noqa: E402
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


@pytest.mark.parametrize("source", ["lsi", "synth-64"])
def test_parsed_values_equal_their_public_construction(source, lsi):
    """The parser builds values through private constructors that skip the
    checks it has already made; the public constructors, which make every
    check, build equal values from the same fields, and put an
    architecture's wires, given in any order, in the order parsed."""
    model = lsi if source == "lsi" else opmodel.parse(synth_model(3, 1).text)
    built = 0
    for arch in model.presentation.generators.values():
        wires = tuple(reversed(arch.wires))
        assert opmodel.Architecture(arch.inputs, arch.output, wires) == arch
        built += 1
    for dist in model.prob_functors["P"].dists.values():
        assert opmodel.Distribution(dist.entries) == dist
        built += 1
    S = model.stoch_functors["S"]
    mode_sets = [*model.mode_functors["M"].mode_sets.values(),
                 *(p.modes for p in S.priors.values())]
    for ms in mode_sets:
        assert opmodel.ModeSet(ms.boundary, ms.modes) == ms
    for p in S.priors.values():
        assert opmodel.Point(p.modes, p.probs) == p
    for k in S.kernels.values():
        assert opmodel.Kernel(k.source, k.slots, k.entries) == k
    built += len(mode_sets) + len(S.priors) + len(S.kernels)
    assert built > (50 if source == "lsi" else 100)


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


def test_diagnose_refuses_an_unknown_mode_before_composing(monkeypatch):
    """On a 256-leaf root term a mistyped observed mode raises before any
    kernel is composed, where a fold would compose one per inner node."""
    m = SynthModel(Shape(), 7)
    model = opmodel.parse(m.text)
    pres, S = model.presentation, model.stoch_functors["S"]
    node = next(iter(m.roots.values()))
    term = opmodel.parse_term(node.term())
    calls = []
    compose_kernel = stoch.compose_kernel

    def counted(*args):
        calls.append(args[0])
        return compose_kernel(*args)

    monkeypatch.setattr(stoch, "compose_kernel", counted)
    with pytest.raises(ValidationError) as info:
        opmodel.diagnose(pres, S, term, "nope")
    assert str(info.value).startswith("unknown mode 'nope' on ")
    assert calls == []
    opmodel.diagnose(pres, S, term, m.root_modes[0])
    assert len(calls) == sum(1 for n in node.walk()
                             if any(isinstance(c, Node) for _, c in n.children))


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


# ------------------------------------------------------ metamorphic relations

KEYWORDS = {"interface", "boundary", "architecture", "wire", "expose",
            "equation", "matching", "prob", "modes", "rel", "stoch", "prior",
            "kernel", "physical", "digital"}
NAME = re.compile(r"[A-Za-z_]\w*")


def renamed(text: str, rng: random.Random) -> tuple[str, dict[str, str]]:
    """``text`` with every generator, slot, boundary and mode renamed to a
    fresh name, fresh names drawn in a shuffled order so that sorting by
    name changes, and the map from fresh names back to the old ones."""
    model = opmodel.parse(text)
    pres = model.presentation
    names = {*pres.generators, *pres.boundaries}
    names |= {s for arch in pres.generators.values() for s in arch.slots}
    names |= {m for M in model.mode_functors.values()
              for ms in M.mode_sets.values() for m in ms.modes}
    assert not names & KEYWORDS
    fresh = [f"q{i:03d}" for i in range(len(names))]
    assert not set(fresh) & set(NAME.findall(text))
    rng.shuffle(fresh)
    forward = dict(zip(sorted(names), fresh))
    return (NAME.sub(lambda m: forward.get(m[0], m[0]), text),
            {new: old for old, new in forward.items()})


def permuted(text: str, rng: random.Random) -> str:
    """``text``, as ``serialize`` writes it, with each run of sibling
    declarations of one kind (and the entries of every block) shuffled."""
    lines = iter(line for line in text.splitlines() if line.strip())

    def kind(line: str) -> str:
        word = line.split()[0]
        return word if word in KEYWORDS else "entry"

    def block() -> list[str]:
        items, close = [], []
        for line in lines:
            if line.strip() == "}":
                close = [line]
                break
            items.append((kind(line),
                          [line, *block()] if line.endswith("{") else [line]))
        out = []
        for _, run in itertools.groupby(items, key=lambda item: item[0]):
            run = list(run)
            rng.shuffle(run)
            out += [line for _, group in run for line in group]
        return out + close

    return "\n".join(block()) + "\n"


def check_report(text: str, tmp_path, back: dict[str, str] | None = None):
    """``check P M S --format json`` of a model, with fresh names mapped back
    and the lists that follow declaration order sorted: compile errors,
    equation results, functor errors, the P and M rows, and the stoch
    per-generator and equation rows, each part on its own."""
    path = tmp_path / "model.opm"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["check", str(path), "--functor", "P",
                              "--functor", "M", "--functor", "S",
                              "--format", "json"])
    assert err == ""
    if back:
        out = NAME.sub(lambda m: back.get(m[0], m[0]), out)
    report = json.loads(out)
    arch = report["architecture"]
    arch["errors"].sort()
    arch["equation_results"].sort(key=json.dumps)
    for f in report["functors"]:
        f["errors"].sort()
        if f["kind"] == "stoch":
            n = sum(not r["subject"].startswith("equation ")
                    for r in f["rows"])
            f["rows"] = (sorted(f["rows"][:n], key=json.dumps)
                         + sorted(f["rows"][n:], key=json.dumps))
        else:
            f["rows"].sort(key=json.dumps)
    return code, report


def with_swapped_equation(text: str, before: bool = False) -> str:
    """``text``, as ``serialize`` writes it, with a second equation: its
    first one with the sides swapped, after it or ``before`` it."""
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("equation "))
    assert " matching " not in lines[i]
    lhs, rhs = lines[i].removeprefix("equation ").split(" = ")
    lines.insert(i if before else i + 1, f"equation {rhs} = {lhs}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["lsi", "synth", "synth twin",
                                    "lsi swapped", "synth swapped"])
def test_renaming_and_permutation_change_only_names(source, tmp_path):
    """Renaming generators, slots, boundaries and modes consistently, or
    permuting the order of declarations, equations included, changes the
    ``check`` report only by that renaming (metamorphic testing)."""
    if source.startswith("lsi"):
        text = opmodel.lsi_text()
    else:
        m = synth_model(2, 1)  # 16 leaves
        text = m.twin_text if source.endswith("twin") else m.text
    if source.endswith("swapped"):
        one = opmodel.serialize(opmodel.parse(text))
        text = with_swapped_equation(one)
    want = check_report(text, tmp_path)
    if source.endswith("swapped"):  # the shuffles below may keep the order
        assert check_report(with_swapped_equation(one, before=True),
                            tmp_path) == want
    canon = opmodel.serialize(opmodel.parse(text))
    rng = random.Random(source)
    name_swap, back = renamed(canon, rng)
    assert check_report(name_swap, tmp_path, back) == want
    assert check_report(permuted(canon, rng), tmp_path) == want
    name_swap, back = renamed(canon, rng)
    assert check_report(permuted(name_swap, rng), tmp_path, back) == want


def saved_garbage(call):
    """``call()``'s result, and the number of objects it leaves as cyclic
    garbage: what ``gc.collect()`` finds after it under
    ``gc.DEBUG_SAVEALL``."""
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = call()
        gc.collect()
        return result, len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_commands_make_no_cyclic_garbage(tmp_path):
    """``cli.run`` pauses the cyclic collector, which is safe because no
    command leaves cyclic garbage behind: every ``lsi-cli`` op of
    ``benchmarks/lsi_expected.json`` (the perturbed and truncated models
    included), ``check P M S`` on a 16-leaf synth model and its twin, and a
    missing model file.

    A text op leaves none.  A JSON op leaves exactly what a bare
    ``json.dumps(payload, indent=2, sort_keys=True)`` leaves: with ``indent``
    CPython 3.10 to 3.12 use the pure-Python encoder, whose nested closures
    form a reference cycle on every call (33 objects), and 3.13 its C
    encoder, which leaves none.  Comparing with that count, not with a
    constant, makes the assertion hold on each of them."""
    expected = json.loads((Path(__file__).resolve().parents[1] / "benchmarks"
                           / "lsi_expected.json").read_text(encoding="utf-8"))
    text = opmodel.lsi_text()
    cut = text.index(expected["truncate_after"]) + \
        len(expected["truncate_after"])
    models = {"clean": text,
              "perturbed": text.replace(expected["perturb_remove"], ""),
              "truncated": text[:cut],
              "synth": synth_model(2, 1).text,  # 16 leaves
              "twin": synth_model(2, 1).twin_text}
    paths = {}
    for key, body in models.items():
        paths[key] = tmp_path / f"{key}.opm"
        paths[key].write_text(body, encoding="utf-8")
    pms = ["--functor", "P", "--functor", "M", "--functor", "S"]
    argvs = [[arg.format(**paths) for arg in op["argv"]]
             for op in expected["ops"]]
    argvs += [["check", str(paths[key]), *pms, *fmt]
              for key in ("synth", "twin")
              for fmt in ([], ["--format", "json"])]
    argvs.append(["validate", str(tmp_path / "missing.opm")])

    _, bare = saved_garbage(lambda: json.dumps(
        {"command": "check", "success": True}, indent=2, sort_keys=True))
    run_cli(argvs[0])  # warm-up
    for argv in argvs:
        (code, out, err), left = saved_garbage(lambda: run_cli(argv))
        assert "Traceback" not in err, argv
        printed_json = "--format" in argv and out != ""
        assert left == (bare if printed_json else 0), (argv, code)
