"""Leaf queries walk one root-to-leaf path: ``leaf_probability`` and
``can_cause`` against reading the folded term wherever the fold answers,
and against a path oracle where it refuses, on random presentations, on
functors and presentations that the fold refuses or reads oddly, and on a
256-leaf model where the folds are not allowed to run."""
import gc
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import opmodel
from opmodel import presentation
from opmodel.modes import ModeFunctor, ModeRelation, ModeSet, can_cause
from opmodel.portgraph import (
    Architecture,
    CompositionError,
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
from test_cli import identity_model_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from synth import Shape, SynthModel  # noqa: E402


# ------------------------------------------------------------------- oracles

def resolve_oracle(pres, t, leaf):
    """The selector rules over every leaf path string of ``t``, once
    :func:`check_term` accepts it; the empty selector names the root."""
    check_term(pres, t)
    return "" if leaf == "" else leaf_oracle(pres, t, leaf)[0]


def leaves(pres, t, steps=(), path=""):
    """Each leaf of a well-typed ``t``, in slot order, as its dotted path,
    boundary name and ``(generator, slot)`` steps, root first, enumerated
    recursively."""
    found = []
    fills = dict(t.children)
    for slot, b in pres.generators[t.generator].inputs:
        route, at = steps + ((t.generator, slot),), path + slot
        child = fills.get(slot)
        found += [(at, b.name, route)] if child is None \
            else leaves(pres, child, route, at + ".")
    return found


def leaf_oracle(pres, t, leaf):
    """The (path, boundary name, steps) the selector picks among the leaves
    of ``t``; of leaves sharing the exact path, the last in slot order."""
    paths = leaf_paths(pres, t)  # raises for a term that does not fold
    found = leaves(pres, t)
    assert [(p, bn) for p, bn, _ in found] == list(paths)
    exact = [x for x in found if x[0] == leaf]
    if exact:
        return exact[-1]
    by_suffix = [x for x in found if x[0].split(".")[-1] == leaf]
    if len(by_suffix) == 1:
        return by_suffix[0]
    by_boundary = [x for x in found if x[1].lower() == leaf.lower()]
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


def path_probability_oracle(pres, F, t, leaf):
    """Multiply ``F``'s entries along the selected leaf's steps, each
    looked up root first."""
    check_term(pres, t)
    if leaf == "":
        return Fraction(1)
    return math.prod(F[g][slot] for g, slot in leaf_oracle(pres, t, leaf)[2])


def can_cause_oracle(pres, M, t, leaf, leaf_mode, root_mode, fold=True):
    """Check both modes, each against its boundary, then fold the whole
    term and read one pair, or, unless ``fold``, search for a chain of
    modes down the selected leaf's steps, whose relations are each looked
    up root first."""
    def check(modes, mode):
        if mode not in modes:
            raise ValidationError(f"unknown mode {mode!r} on {modes.boundary}")

    def chain(rels, x):
        return leaf_mode == x if not rels else any(
            chain(rels[1:], y) for y, z in rels[0] if z == x)

    root_modes = M.modes_of(check_term(pres, t).name)
    check(root_modes, root_mode)
    if leaf == "":
        check(root_modes, leaf_mode)
        return leaf_mode == root_mode
    path, bn, steps = leaf_oracle(pres, t, leaf)
    check(M.modes_of(bn), leaf_mode)
    if fold:
        return (leaf_mode, root_mode) in M.fold(t).slot(path)
    return chain([M.relation_of(g).slot(slot) for g, slot in steps], root_mode)


def outcome(call):
    """A value with its type, or an exception's type and message."""
    try:
        value = call()
    except Exception as exc:  # the comparison is the point
        return "raises", type(exc), str(exc)
    return "returns", type(value), value


def judged(pres, t, leaf, labels, by_fold, by_path):
    """The outcome of ``by_fold`` where it returns and its entry is the
    selected leaf's own, else of ``by_path``: a leaf query answers as the
    fold wherever the fold reads the leaf, and reads the functor along its
    path alone elsewhere.

    A fold that returns reads every filled slot under its own label, so its
    entry at the path is the leaf's own when ``labels(g)``, the labels of
    the leaf's generator's value, hold the leaf's slot.  Otherwise a fold
    label built from dotted names may spell the path of another leaf."""
    fold = outcome(by_fold)
    if fold[0] == "returns":
        if leaf == "":
            return fold
        g, slot = leaf_oracle(pres, t, leaf)[2][-1]
        if slot in labels(g):
            return fold
    return outcome(by_path)


def leaf_probability_judged(pres, F, t, leaf):
    return judged(pres, t, leaf, lambda g: F[g].labels,
                  lambda: leaf_probability_oracle(pres, F, t, leaf),
                  lambda: path_probability_oracle(pres, F, t, leaf))


def can_cause_judged(pres, M, t, leaf, leaf_mode, root_mode):
    return judged(
        pres, t, leaf, lambda g: M.relation_of(g).pairs,
        lambda: can_cause_oracle(pres, M, t, leaf, leaf_mode, root_mode),
        lambda: can_cause_oracle(pres, M, t, leaf, leaf_mode, root_mode,
                                 fold=False))


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
            == leaf_probability_judged(pres, F, t, leaf), (str(t), leaf)
        x = rng.choice(("m0", "m1", "m2", "m3", "nope"))
        for y in ("m0", "m1", "m2", "m3"):
            assert outcome(lambda: can_cause(pres, M, t, leaf, y, x)) \
                == can_cause_judged(pres, M, t, leaf, y, x), \
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
    fold's value where the fold reads the leaf, and elsewhere the path
    oracle's value, or its exception with the same message, so a change off
    the leaf's path changes nothing."""
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
    and mode folds refuse; the route still follows slots, and the query
    reads the functor along them."""
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
    doubled label, while a query multiplies along its path alone."""
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
        F.fold(t)
    assert leaf_probability(pres, F, t, "c") == half * half
    for term in (t, Term("f")):  # the exact rule takes f's own slot
        assert leaf_probability(pres, F, term, "a.b") == half
    # without a value for that slot, the fold's entry at a.b is the leaf
    # through g: the query reads its own leaf and raises
    G = ProbFunctor({"f": Distribution((("a", Fraction(1)),)),
                     "g": F.dists["g"]})
    assert G.fold(t)["a.b"] == half
    with pytest.raises(ValidationError, match="^unknown label 'a.b'$"):
        leaf_probability(pres, G, t, "a.b")
    assert outcome(lambda: leaf_probability(pres, G, t, "a.b")) \
        == leaf_probability_judged(pres, G, t, "a.b")


@pytest.mark.parametrize("own_first", [False, True])
def test_shared_path_takes_last_leaf(own_first):
    """``f(a->g)`` has two leaves ``a.b``: slot ``a.b`` of ``f``, on
    boundary B, and slot ``b`` of ``g``, on C.  The leaf mode is checked on
    the last of them in slot order, whichever the walk meets first; where
    it passes, the mode fold refuses the doubled label, while the query
    chains the relations along the path through ``g``."""
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
            M.fold(t)
        assert can_cause(pres, M, t, "a.b", "m1", "m0") is True
    else:
        with pytest.raises(ValidationError, match="^unknown mode 'm1' on B$"):
            can_cause(pres, M, t, "a.b", "m1", "m0")
    assert outcome(lambda: can_cause(pres, M, t, "a.b", "m1", "m0")) \
        == can_cause_judged(pres, M, t, "a.b", "m1", "m0")


def test_boundary_rule_lowercases_non_ascii_names():
    """Boundary names built from Python: ``İo`` lowercases to three
    characters, ``i̇o``, and ``Io`` to ``io``.  The boundary rule decides only
    where no exact path and no unique trailing segment does: ``x`` is a
    path although ``y.x`` ends in it, and two leaves are on ``Io``."""
    big_i, plain = boundary("İo", p="physical"), boundary("Io", p="physical")
    def arch(output, *inputs):
        return Architecture(inputs, output, (Wire(frozenset(
            {PortRef(None, "p"), *(PortRef(s, "p") for s, _ in inputs)}),
            "physical"),))
    pres = OperadPresentation(
        TypeTable({"physical": "physical"}), {"İo": big_i, "Io": plain},
        {"f": arch(big_i, ("x", big_i), ("y", plain)),
         "g": arch(plain, ("x", plain), ("z", plain))})
    half = Fraction(1, 2)
    F = ProbFunctor({g: Distribution(((s, half), (l, half)))
                     for g, s, l in (("f", "x", "y"), ("g", "x", "z"))})
    M = ModeFunctor({b: ModeSet(b, ("m0", "m1")) for b in ("İo", "Io")},
                    {"f": ModeRelation({s: frozenset({("m0", "m0")})
                                        for s in ("x", "y")}),
                     "g": ModeRelation({s: frozenset({("m1", "m0")})
                                        for s in ("x", "z")})})
    t = Term("f", (("y", Term("g")),))
    assert len("İo".lower()) == 3
    for leaf, path in (("İo", "x"), ("i̇o", "x"), ("İO", "x"), ("x", "x"),
                       ("z", "y.z"), ("y.x", "y.x")):
        assert resolve_leaf(pres, t, leaf) == path, leaf
    for leaf in ("io", "IO"):
        with pytest.raises(ValidationError, match="ambiguous"):
            resolve_leaf(pres, t, leaf)
    with pytest.raises(ValidationError, match="^no leaf 'io2' in "):
        resolve_leaf(pres, t, "io2")
    for leaf in ("İo", "i̇o", "io", "x", "y.x", "io2", "ı", "I"):
        assert outcome(lambda: resolve_leaf(pres, t, leaf)) \
            == outcome(lambda: resolve_oracle(pres, t, leaf)), leaf
    assert_queries_match(pres, F, M, t, random.Random("non-ASCII names"))


def test_slot_filled_twice_is_refused():
    """A term fills each slot once: built from Python with a slot filled
    twice, well formed or not, it is refused before any query can run."""
    rng = random.Random("filled twice")
    checked = 0
    while checked < 20:
        pres, _ = random_presentation(rng)
        t = random_term(rng, pres)
        if not t.children:
            continue
        slot, child = t.children[0]
        for first in (child, Term("unknown")):
            with pytest.raises(ValidationError) as info:
                Term(t.generator, ((slot, first),) + t.children)
            assert str(info.value) == f"duplicate slot {slot!r}"
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
                       match="^generator lambda has no slot 'zz'$"):
        resolve_leaf(pres, opmodel.parse_term(
            "phi(ls->lambda(zz->beta), ts->nosuch)"), "ba")


def test_resolve_leaf_checks_term_types(lsi):
    """As the other leaf queries do: tau's slot rt takes a Lab, not a Bath."""
    pres, P = lsi.presentation, lsi.prob_functors["P"]
    t = opmodel.parse_term("tau(rt->beta)")
    for query in (lambda: resolve_leaf(pres, t, "rt.ht"),
                  lambda: leaf_probability(pres, P, t, "rt.ht")):
        with pytest.raises(CompositionError,
                           match="^slot 'rt' expects boundary Lab, got Bath$"):
            query()


# --------------------------------------------------------------- at scale

@pytest.fixture(scope="module")
def synth256():
    m = SynthModel(Shape(), 7)
    return m, opmodel.parse(m.text)


def test_256_leaf_queries_walk_one_path(synth256, monkeypatch):
    """Every leaf of both roots, and a sample below them, against the
    generator's references, with the folds made to raise: the queries never
    fold the term.  A P and an M that lack one generator of the term off
    the leaf's path give the same answers."""
    m, model = synth256
    pres, P, M = (model.presentation, model.prob_functors["P"],
                  model.mode_functors["M"])

    def no_fold(self, t):
        raise AssertionError("folded the whole term")

    def without_one_off(node, leaf):
        """P and M without a generator of ``node``'s term off the path to
        ``leaf``."""
        on_path = {n.gen for n in node.walk() if leaf in n.leaves}
        off = off_rng.choice([n.gen for n in node.walk()
                              if n.gen not in on_path])
        return (ProbFunctor({g: d for g, d in P.dists.items() if g != off}),
                ModeFunctor(M.mode_sets, {g: r for g, r in M.relations.items()
                                          if g != off}))

    monkeypatch.setattr(ProbFunctor, "fold", no_fold)
    monkeypatch.setattr(ModeFunctor, "fold", no_fold)
    rng, off_rng = random.Random(7), random.Random("off the path")
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
            P2, M2 = without_one_off(node, leaf)
            assert leaf_probability(pres, P2, term, f"l{leaf}") \
                == m.leaf_probability(node, leaf)
            for x in m.root_modes:
                for y in m.leaf_modes:
                    assert can_cause(pres, M, term, f"l{leaf}", y, x) \
                        is m.can_cause(leaf, y, x)
                    assert can_cause(pres, M2, term, f"l{leaf}", y, x) \
                        is m.can_cause(leaf, y, x)


def test_successful_queries_fold_nothing(synth256, monkeypatch):
    """On a well-typed root term the route walk types the term itself:
    ``check_term``'s fold never runs, so ``fold_term`` is not called, not
    even for the empty selector, which names the root."""
    m, model = synth256
    pres, P, M = (model.presentation, model.prob_functors["P"],
                  model.mode_functors["M"])
    calls = []
    fold_term = presentation.fold_term

    def counted(*args):
        calls.append(args[0])
        return fold_term(*args)

    monkeypatch.setattr(presentation, "fold_term", counted)
    node = next(iter(m.roots.values()))
    term = opmodel.parse_term(node.term())
    for leaf in random.Random(3).sample(node.leaves, 4):
        assert leaf_probability(pres, P, term, f"l{leaf}") \
            == m.leaf_probability(node, leaf)
        assert can_cause(pres, M, term, f"l{leaf}", m.leaf_modes[0],
                         m.root_modes[0]) \
            is m.can_cause(leaf, m.leaf_modes[0], m.root_modes[0])
        assert resolve_leaf(pres, term, f"l{leaf}").endswith(f".l{leaf}")
    assert can_cause(pres, M, term, "", m.root_modes[0], m.root_modes[0])
    assert not can_cause(pres, M, term, "", m.root_modes[1], m.root_modes[0])
    one, root = leaf_probability(pres, P, term, ""), resolve_leaf(pres, term, "")
    assert (type(one), one, type(root), root) == (Fraction, 1, str, "")
    assert calls == []
    check_term(pres, term)  # the fold, which calls itself once per node
    assert len(calls) == sum(1 for _ in node.walk())


def test_deep_chain_queries_are_linear():
    """``tau(ba->idb(x->...idb(x->beta)...))`` at 20,000 and 40,000 levels of
    the identity generator, built from Python: each query answers without a
    recursion limit, and doubling the depth at most about doubles its time."""
    model = opmodel.parse(identity_model_text())
    pres, P, M = (model.presentation, model.prob_functors["P"],
                  model.mode_functors["M"])
    seconds = {}
    for depth in (20_000, 40_000):
        t = Term("beta")
        for _ in range(depth):
            t = Term("idb", (("x", t),))
        t = Term("tau", (("ba", t),))
        best = math.inf
        gc.disable()  # a collection's cost grows with the heap, not the walk
        try:
            for _ in range(3):
                start = time.perf_counter()
                assert leaf_probability(pres, P, t, "ht") == Fraction(2, 5)
                assert can_cause(pres, M, t, "ht", "malfunction",
                                 "laser_low") is True
                assert resolve_leaf(pres, t, "ht") \
                    == "ba" + ".x" * depth + ".ht"
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        seconds[depth] = best
    assert seconds[40_000] <= 2.5 * seconds[20_000], seconds
