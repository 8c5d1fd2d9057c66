"""Leaf queries walk one root-to-leaf path: ``leaf_probability`` and
``can_cause`` against reading the folded term, on random presentations,
on functors and presentations that the fold refuses or reads oddly, and on
a 256-leaf model where the folds are not allowed to run."""
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opmodel
from opmodel.modes import ModeFunctor, ModeRelation, ModeSet, can_cause
from opmodel.portgraph import (
    Architecture,
    PortRef,
    TypeTable,
    ValidationError,
    Wire,
    boundary,
)
from opmodel.presentation import (
    OperadPresentation,
    Term,
    check_term,
    leaf_paths,
    resolve_leaf,
)
from opmodel.prob import (
    Distribution,
    ProbFunctor,
    leaf_path_probability,
    leaf_probability,
)
from randgen import (
    FAULTS,
    random_modeset,
    random_presentation,
    random_relation,
    random_term,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from synth import Shape, SynthModel  # noqa: E402


# ------------------------------------------------------------------- oracles

def resolve_oracle(pres, t, leaf):
    """The selector rules over every leaf path string of ``t``."""
    return leaf_oracle(pres, t, leaf)[0]


def leaf_oracle(pres, t, leaf):
    """The (path, boundary name) the selector picks among the leaves of
    ``t``; of leaves sharing the exact path, the last in slot order."""
    paths = leaf_paths(pres, t)
    exact = [(p, bn) for p, bn in paths if p == leaf]
    if exact:
        return exact[-1]
    by_suffix = [(p, bn) for p, bn in paths if p.split(".")[-1] == leaf]
    if len(by_suffix) == 1:
        return by_suffix[0]
    by_boundary = [(p, bn) for p, bn in paths if bn.lower() == leaf.lower()]
    if len(by_boundary) == 1:
        return by_boundary[0]
    if by_suffix or by_boundary:
        raise ValidationError(f"leaf selector {leaf!r} is ambiguous in {t}")
    raise ValidationError(f"no leaf {leaf!r} in {t}")


def leaf_probability_oracle(pres, F, t, leaf):
    """Fold the whole term, then read one label."""
    check_term(pres, t)
    if leaf == "":
        return Fraction(1)
    path = resolve_oracle(pres, t, leaf)
    return F.fold(t)[path]


def can_cause_oracle(pres, M, t, leaf, leaf_mode, root_mode):
    """Check both modes, each against its boundary, then fold the whole
    term and read one pair."""
    def check(modes, mode):
        if mode not in modes:
            raise ValidationError(f"unknown mode {mode!r} on {modes.boundary}")

    root_modes = M.modes_of(check_term(pres, t).name)
    check(root_modes, root_mode)
    if leaf == "":
        check(root_modes, leaf_mode)
        return leaf_mode == root_mode
    path, bn = leaf_oracle(pres, t, leaf)
    check(M.modes_of(bn), leaf_mode)
    return (leaf_mode, root_mode) in M.fold(t).slot(path)


def outcome(call):
    """A value with its type, or an exception's type and message."""
    try:
        value = call()
    except Exception as exc:  # the comparison is the point
        return "raises", type(exc), str(exc)
    return "returns", type(value), value


def selectors(pres, t):
    """Every leaf path, trailing segment and boundary name of ``t`` (the
    term is not trusted to elaborate), some prefixes, and misses."""
    try:
        paths = leaf_paths(pres, t)
    except Exception:
        paths = ()
    out = {"", "zz", "s0", "s0.s1", "S0"}
    for p, bn in paths:
        out |= {p, p.split(".")[-1], bn, bn.lower(), p.rpartition(".")[0],
                p.replace(".", "x", 1)}
    return sorted(out)


def random_modes(rng, pres):
    """A mode functor on a random presentation, relations drawn at random."""
    sets = {name: random_modeset(rng, name) for name in pres.boundaries}
    relations = {
        g: random_relation(rng, {s: sets[b.name] for s, b in arch.inputs},
                           sets[arch.output.name])
        for g, arch in pres.generators.items()}
    return ModeFunctor(sets, relations)


def assert_queries_match(pres, F, M, t, rng):
    for leaf in selectors(pres, t):
        assert outcome(lambda: resolve_leaf(pres, t, leaf)) \
            == outcome(lambda: resolve_oracle(pres, t, leaf)), (str(t), leaf)
        assert outcome(lambda: leaf_probability(pres, F, t, leaf)) \
            == outcome(lambda: leaf_probability_oracle(pres, F, t, leaf)), \
            (str(t), leaf)
        x = rng.choice(("m0", "m1", "m2", "m3", "nope"))
        for y in ("m0", "m1", "m2", "m3"):
            assert outcome(lambda: can_cause(pres, M, t, leaf, y, x)) \
                == outcome(lambda: can_cause_oracle(pres, M, t, leaf, y, x)), \
                (str(t), leaf, y, x)


# ------------------------------------------------------------ random terms

@pytest.mark.parametrize("fault", FAULTS)
def test_queries_match_fold_then_read(fault):
    rng = random.Random(f"leaf queries {fault}")
    for _ in range(25):
        pres, F = random_presentation(rng)
        M = random_modes(rng, pres)
        t = random_term(rng, pres, fault)
        assert_queries_match(pres, F, M, t, rng)


def mutated(rng, pres, F, M, t):
    """F and M with one change the fold refuses or reads oddly."""
    used = []
    todo = [t]
    while todo:
        node = todo.pop()
        used.append(node)
        todo += [c for _, c in node.children]
    node = rng.choice(used)
    g = node.generator
    kind = rng.choice(("no value", "relabelled", "lacks a slot"))
    dists, relations = dict(F.dists), dict(M.relations)
    if kind == "no value":
        dists.pop(g, None)
        relations.pop(g, None)
    else:
        # a filled slot when there is one, so that the fold meets it
        slot = rng.choice([s for s, _ in node.children]
                          or [l for l, _ in dists[g].entries])
        if kind == "relabelled":
            dists[g] = Distribution(tuple(
                ("zz" if l == slot else l, p) for l, p in dists[g].entries))
            relations[g] = ModeRelation({
                ("zz" if l == slot else l): pairs
                for l, pairs in relations[g].pairs.items()})
        else:
            relations[g] = ModeRelation({
                l: pairs for l, pairs in relations[g].pairs.items()
                if l != slot})
    return ProbFunctor(dists), ModeFunctor(M.mode_sets, relations)


def test_mutated_functors_match_fold_then_read():
    """A generator with no value, a distribution or relation relabelled away
    from its slots, a relation lacking a filled slot: each query gives the
    fold's value, or its exception with the same message."""
    rng = random.Random("mutated functors")
    for _ in range(60):
        pres, F = random_presentation(rng)
        M = random_modes(rng, pres)
        t = random_term(rng, pres)
        F2, M2 = mutated(rng, pres, F, M, t)
        assert_queries_match(pres, F2, M2, t, rng)


# ----------------------------------------------------------- dotted labels

def dotted(rng, pres, F, M):
    """The presentation with some slots renamed, from Python, to dotted
    labels such as ``s0.s1``, which can spell another leaf's path, and the
    functors' labels renamed alike or left as they were."""
    gens, dists, relations = {}, {}, {}
    alike = rng.random() < 0.5
    for g, arch in pres.generators.items():
        slots = [s for s, _ in arch.inputs]
        new = {s: (f"{rng.choice(slots)}.{rng.choice(('s0', 's1', 's2'))}"
                   if rng.random() < 0.5 else s) for s in slots}
        if len(set(new.values())) < len(new):
            new = {s: s for s in slots}
        label = new if alike else {s: s for s in slots}
        gens[g] = Architecture(
            tuple((new[s], b) for s, b in arch.inputs), arch.output,
            tuple(Wire(frozenset(PortRef(r.slot and new[r.slot], r.port)
                                 for r in w.ports), w.type)
                  for w in arch.wires))
        dists[g] = Distribution(tuple((label[l], p)
                                      for l, p in F.dists[g].entries))
        relations[g] = ModeRelation({label[l]: pairs for l, pairs
                                     in M.relations[g].pairs.items()})
    return (pres._replace(generators=gens), ProbFunctor(dists),
            ModeFunctor(M.mode_sets, relations))


def test_dotted_labels_match_fold_then_read():
    """Slot labels holding dots: paths may coincide, which the probability
    and mode folds refuse; the route still follows slots."""
    rng = random.Random("dotted labels")
    for _ in range(60):
        pres, F = random_presentation(rng)
        M = random_modes(rng, pres)
        pres, F, M = dotted(rng, pres, F, M)
        t = random_term(rng, pres)
        assert_queries_match(pres, F, M, t, rng)


def test_dotted_slot_is_one_step():
    """``a.b`` is both a slot of ``f`` and the path through slot ``a`` of
    ``f`` to slot ``b`` of ``g``: the exact rule finds it, the trailing
    segment ``b`` is ambiguous, and the probability fold refuses the
    doubled label."""
    b = boundary("B", p="physical")
    def arch(*slots):
        return Architecture(tuple((s, b) for s in slots), b, (Wire(
            frozenset({PortRef(None, "p"), *(PortRef(s, "p") for s in slots)}),
            "physical"),))
    pres = OperadPresentation(TypeTable({"physical": "physical"}), {"B": b},
                              {"f": arch("a", "a.b"), "g": arch("b", "c")})
    half = Fraction(1, 2)
    F = ProbFunctor({"f": Distribution((("a", half), ("a.b", half))),
                     "g": Distribution((("b", half), ("c", half)))})
    t = Term("f", (("a", Term("g")),))
    assert resolve_leaf(pres, t, "a.b") == "a.b"
    assert resolve_leaf(pres, t, "c") == "a.c"
    with pytest.raises(ValidationError, match="ambiguous"):
        resolve_leaf(pres, t, "b")
    with pytest.raises(ValidationError,
                       match="^distribution labels must be unique$"):
        leaf_probability(pres, F, t, "c")
    assert leaf_probability(pres, F, Term("f"), "a.b") == half


@pytest.mark.parametrize("own_first", [False, True])
def test_shared_path_takes_last_leaf(own_first):
    """``f(a->g)`` has two leaves ``a.b``: slot ``a.b`` of ``f``, on
    boundary B, and slot ``b`` of ``g``, on C.  The leaf mode is checked on
    the last of them in slot order, whichever the walk meets first; where
    it passes, the mode fold refuses the doubled label."""
    B, C = boundary("B", p="physical"), boundary("C", p="physical")
    def arch(*inputs):
        return Architecture(inputs, B, (Wire(frozenset(
            {PortRef(None, "p"), *(PortRef(s, "p") for s, _ in inputs)}),
            "physical"),))
    own, through = ("a.b", B), ("a", B)
    f = arch(own, through) if own_first else arch(through, own)
    pres = OperadPresentation(TypeTable({"physical": "physical"}),
                              {"B": B, "C": C},
                              {"f": f, "g": arch(("b", C), ("c", B))})
    step = frozenset({("m0", "m0")})
    M = ModeFunctor({"B": ModeSet("B", ("m0",)),
                     "C": ModeSet("C", ("m0", "m1"))},
                    {"f": ModeRelation({s: step for s in f.slots}),
                     "g": ModeRelation({"b": frozenset({("m1", "m0")}),
                                        "c": step})})
    t = Term("f", (("a", Term("g")),))
    if own_first:  # the leaf through g comes last, and m1 is on C
        with pytest.raises(ValidationError,
                           match="^relation labels must be unique$"):
            can_cause(pres, M, t, "a.b", "m1", "m0")
    else:
        with pytest.raises(ValidationError, match="^unknown mode 'm1' on B$"):
            can_cause(pres, M, t, "a.b", "m1", "m0")
    assert outcome(lambda: can_cause(pres, M, t, "a.b", "m1", "m0")) \
        == outcome(lambda: can_cause_oracle(pres, M, t, "a.b", "m1", "m0"))


def test_slot_filled_twice_keeps_last_filler():
    """A term built from Python may fill a slot twice; like the fold, the
    route follows the last filler, and the first must still be well formed."""
    rng = random.Random("filled twice")
    checked = 0
    while checked < 20:
        pres, F = random_presentation(rng)
        M = random_modes(rng, pres)
        t = random_term(rng, pres)
        if not t.children:
            continue
        slot, child = t.children[0]
        for first in (child, Term("unknown")):
            twice = Term(t.generator, ((slot, first),) + t.children)
            assert_queries_match(pres, F, M, twice, rng)
        checked += 1


def test_first_error_is_the_folds(lsi):
    """With several faults, the error raised is the one a fold meets first:
    here the stray fill under ``ls`` comes before the unknown generator
    under ``ts``, although a walk from the last child meets that first."""
    pres, P, M = (lsi.presentation, lsi.prob_functors["P"],
                  lsi.mode_functors["M"])
    rng = random.Random(0)
    for text in ("phi(ls->lambda(zz->beta), ts->nosuch)",
                 "phi(ls->nosuch, ts->tau(zz->beta))",
                 "phi(ls->lambda, ts->tau(ba->nosuch, zz->beta))"):
        assert_queries_match(pres, P, M, opmodel.parse_term(text), rng)
    with pytest.raises(ValidationError,
                       match="^unknown slot 'zz' in composition$"):
        resolve_leaf(pres, opmodel.parse_term(
            "phi(ls->lambda(zz->beta), ts->nosuch)"), "ba")


# --------------------------------------------------------------- at scale

@pytest.fixture(scope="module")
def synth256():
    m = SynthModel(Shape(), 7)
    return m, opmodel.parse(m.text)


def test_256_leaf_queries_walk_one_path(synth256, monkeypatch):
    """Every leaf of both roots, and a sample below them, against the
    generator's references, with the folds made to raise: the queries never
    fold the term."""
    m, model = synth256
    pres, P, M = (model.presentation, model.prob_functors["P"],
                  model.mode_functors["M"])

    def no_fold(self, t):
        raise AssertionError("folded the whole term")

    monkeypatch.setattr(ProbFunctor, "fold", no_fold)
    monkeypatch.setattr(ModeFunctor, "fold", no_fold)
    rng = random.Random(7)
    nodes = list(m.roots.values())
    nodes += rng.sample([n for n in m.nodes.values() if n.depth in (1, 2)], 6)
    for node in nodes:
        term = opmodel.parse_term(node.term())
        leaves = node.leaves if node.depth == 0 else rng.sample(node.leaves, 4)
        for leaf in leaves:
            assert leaf_probability(pres, P, term, f"l{leaf}") \
                == m.leaf_probability(node, leaf)
            assert leaf_path_probability(pres, P, term, f"l{leaf}")[0] \
                == node.paths[leaf]
        for leaf in rng.sample(node.leaves, 4):
            for x in m.root_modes:
                for y in m.leaf_modes:
                    assert can_cause(pres, M, term, f"l{leaf}", y, x) \
                        is m.can_cause(leaf, y, x)
