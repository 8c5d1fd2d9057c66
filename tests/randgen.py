"""Randomized-case generators and independent brute-force oracles.

The property suites build small random architectures, distributions,
relations and kernels with a seeded RNG, and compare library results
against straightforward reimplementations (BFS components, triple-loop
marginalization, witness search).
"""
from __future__ import annotations

import random
from collections import defaultdict, deque
from fractions import Fraction
from typing import Mapping, Sequence

from opmodel.modes import ModeRelation, ModeSet
from opmodel.portgraph import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    EqualityReport,
    PortRef,
    TypeTable,
    Wire,
    canonicalize,
    check_correspondence,
    identity,
    is_identity,
)
from opmodel.presentation import OperadPresentation, Term
from opmodel.prob import Distribution, ProbFunctor
from opmodel.stoch import Kernel, Point, PtKernel

TYPES = ("physical", "digital")


# ---------------------------------------------------------------- port graphs

def random_boundary(rng: random.Random, name: str,
                    max_ports: int = 3) -> Boundary:
    n = rng.randint(1, max_ports)
    ports = tuple(f"p{i}" for i in range(n))
    return Boundary(name, ports, {p: rng.choice(TYPES) for p in ports})


def _random_partition(rng: random.Random, items: list) -> list[list]:
    blocks: list[list] = []
    for item in items:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(item)
        else:
            blocks.append([item])
    return blocks


def random_architecture(rng: random.Random, output: Boundary,
                        n_slots: int | None = None,
                        pool: Sequence[Boundary] = (),
                        refusable: bool = False) -> Architecture:
    """A random totally wired, canonical architecture into ``output``.

    Slot boundaries are drawn from ``pool``, or made afresh when it is empty,
    and drawn once more if a type's ports, all on one wire, would make a
    wire that :func:`validate` refuses: outer ports alone, or one slot port
    alone.  A block of the random partition that is such a wire is merged
    into the next block of its type, or else into the one before; so such
    a wire is left only where both draws leave a type with no other wiring.
    ``refusable`` keeps the first draw and the plain partition, as the
    models that the parser's judge recorded were drawn.
    """
    if n_slots is None:
        n_slots = rng.randint(1, 3)
    fine = (lambda block: True) if refusable else _validates
    for _ in range(2):
        inputs = tuple(
            (f"s{i}", rng.choice(pool) if pool
             else random_boundary(rng, f"B{rng.randrange(10 ** 6)}"))
            for i in range(n_slots))
        refs_by_type: dict[str, list[PortRef]] = defaultdict(list)
        for slot, b in inputs:
            for p in b.ports:
                refs_by_type[b.port_type[p]].append(PortRef(slot, p))
        for p in output.ports:
            refs_by_type[output.port_type[p]].append(PortRef(None, p))
        if all(map(fine, refs_by_type.values())):
            break
    wires = []
    for t, refs in refs_by_type.items():
        rng.shuffle(refs)
        blocks: list[list[PortRef]] = []
        for block in _random_partition(rng, refs):
            if blocks and not fine(blocks[-1]):
                blocks[-1] += block
            else:
                blocks.append(block)
        if len(blocks) > 1 and not fine(blocks[-1]):
            last = blocks.pop()
            blocks[-1] += last
        wires += [Wire(frozenset(block), t) for block in blocks]
    return canonicalize(Architecture(inputs, output, tuple(wires)))


def _validates(block: list[PortRef]) -> bool:
    """Whether :func:`validate` accepts a wire of ``block``: it holds a slot
    port and at least one other port."""
    return len(block) > 1 and any(r.slot is not None for r in block)


def _components(blocks: list[list]) -> list[set]:
    """The connected components of the nodes of ``blocks``, each block
    joining its nodes, by breadth-first search."""
    adjacency: dict = defaultdict(set)
    for block in blocks:
        adjacency[block[0]].update(block[1:])
        for other in block[1:]:
            adjacency[other].add(block[0])
    seen: set = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        queue, component = deque([start]), set()
        seen.add(start)
        while queue:
            node = queue.popleft()
            component.add(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
    return components


def compose_partition_oracle(
        outer: Architecture,
        inner: Mapping[str, Architecture]) -> set[frozenset[PortRef]]:
    """Composite wire partition by breadth-first connected components."""
    subst = {s: g for s, g in inner.items() if not is_identity(g)}
    blocks: list[list] = []
    for w in outer.wires:
        blocks.append([
            ("mid", r.slot, r.port) if r.slot in subst else ("ref", r)
            for r in w.ports])
    for slot, g in subst.items():
        for w in g.wires:
            blocks.append([
                ("mid", slot, r.port) if r.slot is None
                else ("ref", PortRef(f"{slot}.{r.slot}", r.port))
                for r in w.ports])
    partition: set[frozenset[PortRef]] = set()
    for component in _components(blocks):
        refs = frozenset(r for kind, *rest in component
                         for r in rest[-1:] if kind == "ref")
        if refs:
            partition.add(refs)
    return partition


def equal_oracle(a: Architecture, b: Architecture,
                 corr: ComponentCorrespondence) -> EqualityReport:
    """:func:`portgraph.equal` by comparing wire sets: ``a``'s wires with
    their slots relabeled against ``b``'s, each diff sorted by least port."""
    check_correspondence(dict(a.inputs), dict(b.inputs), corr)
    if a.output != b.output:
        return EqualityReport(False, reason=(
            f"output boundaries differ: {a.output.name} vs {b.output.name}"))

    def relabel(ref: PortRef) -> PortRef:
        if ref.slot is None:
            return ref
        return PortRef(corr.mapping[ref.slot], ref.port)

    left = {(frozenset(relabel(r) for r in w.ports), w.type) for w in a.wires}
    right = {(w.ports, w.type) for w in b.wires}
    if left == right:
        return EqualityReport(True)
    only_l = sorted((Wire(p, t) for p, t in left - right),
                    key=lambda w: min(w.ports))
    only_r = sorted((Wire(p, t) for p, t in right - left),
                    key=lambda w: min(w.ports))
    return EqualityReport(False, tuple(only_l), tuple(only_r))


def validate_oracle(arch: Architecture) -> str | None:
    """What :func:`portgraph.validate` refuses a canonical ``arch`` for, or
    None: its ports on no wire, or a slot port alone on its wire, in
    ``port_types()`` order; else its first wire of outer ports alone."""
    wire_of = {r: w for w in arch.wires for r in w.ports}
    unwired = [str(PortRef(*r)) for r in arch.port_types() if r not in wire_of
               or r[0] is not None and len(wire_of[r].ports) == 1]
    if unwired:
        return f"unwired ports: {', '.join(unwired)}"
    outer_only = [w for w in arch.wires if {r.slot for r in w.ports} == {None}]
    return f"wire {outer_only[0]} has no slot ports" if outer_only else None


# ---------------------------------------------------------------------- terms

FAULTS = (None, "generator", "slot", "boundary", "twice")


def random_presentation(rng: random.Random
                        ) -> tuple[OperadPresentation, ProbFunctor]:
    """Generators over three shared boundaries, one an identity, with a
    probability functor labeled by their slots.  Every boundary is some
    generator's output, so every slot can be filled well or badly."""
    pool = [random_boundary(rng, f"B{i}") for i in range(3)]
    generators = {f"g{k}": random_architecture(rng, pool[k % 3], pool=pool)
                  for k in range(4)}
    generators["id"] = identity(pool[0])
    pres = OperadPresentation(TypeTable({t: t for t in TYPES}),
                              {b.name: b for b in pool}, generators)
    return pres, ProbFunctor({name: random_distribution(rng, arch.slots)
                              for name, arch in generators.items()})


def random_term(rng: random.Random, pres: OperadPresentation,
                fault: str | None = None, depth: int = 3) -> Term:
    """A random well-typed term, or one with a ``fault`` at a random node:
    an unknown generator, an unknown slot, a boundary mismatch, or a slot
    filled twice more, well typed each time, after any fill it had."""
    def grow(name: str, depth: int) -> Term:
        children = []
        for slot, b in pres.generators[name].inputs:
            fits = [g for g, a in pres.generators.items() if a.output == b]
            if depth and rng.random() < 0.7:
                children.append((slot, grow(rng.choice(fits), depth - 1)))
        return Term(name, tuple(children))

    def spoil(t: Term) -> Term:
        if t.children and rng.random() < 0.5:
            i = rng.randrange(len(t.children))
            children = list(t.children)
            children[i] = (children[i][0], spoil(children[i][1]))
            return Term(t.generator, tuple(children))
        if fault == "generator":
            return Term("unknown", t.children)
        if fault == "slot":
            return Term(t.generator,
                        t.children + (("nowhere", Term(t.generator)),))
        slot, b = rng.choice(pres.generators[t.generator].inputs)
        if fault == "twice":
            fits = [g for g, a in pres.generators.items() if a.output == b]
            return Term(t.generator, t.children + tuple(
                (slot, grow(rng.choice(fits), 1)) for _ in range(2)))
        children = dict(t.children)
        children[slot] = Term(rng.choice(
            [g for g, a in pres.generators.items() if a.output != b]))
        return Term(t.generator, tuple(children.items()))

    t = grow(rng.choice(sorted(pres.generators)), depth)
    return t if fault is None else spoil(t)


def leaf_paths_oracle(pres: OperadPresentation,
                      t: Term) -> tuple[tuple[str, str], ...]:
    """(dotted path, boundary name) of every leaf, by plain recursion."""
    out: list[tuple[str, str]] = []
    for slot, b in pres.generators[t.generator].inputs:
        sub = t.child(slot)
        if sub is None:
            out.append((slot, b.name))
        else:
            out += [(f"{slot}.{p}", n) for p, n in leaf_paths_oracle(pres, sub)]
    return tuple(out)


def _elaboration(pres: OperadPresentation, t: Term, path: tuple[str, ...]
                 ) -> tuple[list[tuple[str, Boundary]], list[list]]:
    """The leaves ``(label, boundary)`` and the wires of ``t`` placed at
    ``path`` in a whole term.  A wire is a list of nodes: ``("ref",
    PortRef(label, port))`` for a leaf port, ``("mid", path, port)`` for a
    port of the node at ``path``, which is also a port of its parent's slot.
    A slot keeps its label where its last filler elaborates to a straight
    wiring of one leaf, an identity, which composition leaves alone."""
    arch = pres.generators[t.generator]
    fills = dict(t.children)
    leaves: list[tuple[str, Boundary]] = []
    blocks: list[list] = []
    glued = set()
    for slot, b in arch.inputs:
        at = path + (slot,)
        if slot in fills:
            sub_leaves, sub_blocks = _elaboration(pres, fills[slot], at)
            if not _straight(sub_leaves, sub_blocks, at, b):
                leaves += sub_leaves
                blocks += sub_blocks
                glued.add(slot)
                continue
        leaves.append((".".join(at), b))

    def node(r: PortRef) -> tuple:
        if r.slot is None:
            return ("mid", path, r.port)
        if r.slot in glued:
            return ("mid", path + (r.slot,), r.port)
        return ("ref", PortRef(".".join(path + (r.slot,)), r.port))

    blocks += [[node(r) for r in w.ports] for w in arch.wires]
    return leaves, blocks


def _straight(leaves: list, blocks: list[list], path: tuple[str, ...],
              b: Boundary) -> bool:
    """Whether the wires of a subterm at ``path`` join its one leaf, of
    boundary ``b``, port by port to its own ports and nothing else."""
    if len(leaves) != 1 or leaves[0][1] != b:
        return False
    ends = {frozenset(n for n in c if n[0] == "ref" or n[1] == path)
            for c in _components(blocks)} - {frozenset()}
    return ends == {frozenset({("ref", PortRef(leaves[0][0], p)),
                               ("mid", path, p)}) for p in b.ports}


def elaborate_partition_oracle(pres: OperadPresentation,
                               t: Term) -> list[frozenset[PortRef]]:
    """The port sets of ``elaborate(pres, t).wires``, sorted by least port:
    the wires of every node of the term, labeled by its path and glued at
    each filled slot's ports, split into connected components."""
    _, blocks = _elaboration(pres, t, ())
    wires = set()
    for component in _components(blocks):
        refs = frozenset(n[1] if n[0] == "ref" else PortRef(None, n[2])
                         for n in component if n[0] == "ref" or n[1] == ())
        if refs:
            wires.add(refs)
    return sorted(wires, key=min)


# -------------------------------------------------------------- distributions

def random_fraction_weights(rng: random.Random, n: int,
                            allow_zero: bool = False) -> list[Fraction]:
    low = 0 if allow_zero else 1
    weights = [Fraction(rng.randint(low, 9)) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = Fraction(1)
    return weights


def random_distribution(rng: random.Random,
                        labels: tuple[str, ...]) -> Distribution:
    weights = random_fraction_weights(rng, len(labels))
    total = sum(weights)
    return Distribution(tuple(
        (l, w / total) for l, w in zip(labels, weights)))


def distribution_check_oracle(entries: Sequence[tuple[str, Fraction]]) -> str:
    """The first message ``Distribution(entries)`` raises, or ``""`` if it
    accepts them, from a plain ``Fraction`` sum."""
    labels = [l for l, _ in entries]
    if len(set(labels)) != len(labels):
        return "distribution labels must be unique"
    for l, p in entries:
        if not 0 <= p <= 1:
            return f"probability {l}: {p} outside [0, 1]"
    if sum((p for _, p in entries), Fraction(0)) != 1:
        return "distribution does not sum to 1"
    return ""


# ------------------------------------------------------------------ relations

def random_modeset(rng: random.Random, boundary: str,
                   max_modes: int = 4) -> ModeSet:
    n = rng.randint(1, max_modes)
    return ModeSet(boundary, tuple(f"m{i}" for i in range(n)))


def identity_relation(modes: ModeSet, slot: str) -> ModeRelation:
    """The unit of relation composition on one slot."""
    return ModeRelation({slot: frozenset((m, m) for m in modes.modes)})


def total_relation(slot_modes: Mapping[str, ModeSet],
                   out_modes: ModeSet) -> ModeRelation:
    """Every slot mode can cause every output mode."""
    return ModeRelation({
        s: frozenset((m, x) for m in ms.modes for x in out_modes.modes)
        for s, ms in slot_modes.items()})


def random_relation(rng: random.Random, slot_modes: Mapping[str, ModeSet],
                    out_modes: ModeSet) -> ModeRelation:
    return ModeRelation({
        slot: frozenset(
            (m, x) for m in ms.modes for x in out_modes.modes
            if rng.random() < 0.5)
        for slot, ms in slot_modes.items()})


def compose_rel_oracle(outer: ModeRelation,
                       inners: Mapping[str, ModeRelation]) -> ModeRelation:
    """Witness search over all intermediate modes, slot by slot."""
    out: dict[str, frozenset[tuple[str, str]]] = {}
    for slot, rel in outer.pairs.items():
        inner = inners.get(slot)
        if inner is None:
            out[slot] = rel
            continue
        for sub, sub_rel in inner.pairs.items():
            middles = {y for y, _ in rel} | {y for _, y in sub_rel}
            out[f"{slot}.{sub}"] = frozenset(
                (z, x)
                for z in {z for z, _ in sub_rel}
                for x in {x for _, x in rel}
                if any((z, y) in sub_rel and (y, x) in rel for y in middles))
    return ModeRelation(out)


def compose_rel_scan_oracle(outer: ModeRelation,
                            inners: Mapping[str, ModeRelation]
                            ) -> ModeRelation:
    """For each leaf pair (z, y), a scan of the whole outer relation for the
    pairs (y, x) it chains with, slot by slot."""
    out: dict[str, frozenset[tuple[str, str]]] = {}
    for slot, rel in outer.pairs.items():
        inner = inners.get(slot)
        if inner is None:
            out[slot] = rel
            continue
        for sub, sub_rel in inner.pairs.items():
            out[f"{slot}.{sub}"] = frozenset(
                (z, x) for z, y in sub_rel for y2, x in rel if y == y2)
    return ModeRelation(out)


# -------------------------------------------------------------------- kernels

def identity_kernel(ms: ModeSet, slot: str) -> Kernel:
    """The unit of kernel composition on one slot."""
    return Kernel(ms, ((slot, ms),), {(m, slot, m): Fraction(1)
                                      for m in ms.modes})


def random_kernel(rng: random.Random, source: ModeSet,
                  slots: tuple[tuple[str, ModeSet], ...]) -> Kernel:
    """Every row puts strictly positive mass on every slot."""
    entries: dict = {}
    for x in source.modes:
        weights: dict = {}
        for label, ms in slots:
            forced = rng.choice(ms.modes)
            for y in ms.modes:
                w = rng.randint(1, 9) if y == forced else rng.randint(0, 3)
                if w:
                    weights[(x, label, y)] = Fraction(w)
        total = sum(weights.values())
        for key, w in weights.items():
            entries[key] = w / total
    return Kernel(source, slots, entries)


def kernel_check_oracle(source: ModeSet,
                        slots: tuple[tuple[str, ModeSet], ...],
                        entries: Mapping[tuple[str, str, str], Fraction]
                        ) -> str:
    """The first message ``Kernel(source, slots, entries)`` raises, or
    ``""`` if it accepts them, from plain ``Fraction`` row sums: every
    entry's modes and slot are checked before any entry's sign."""
    slot_modes = dict(slots)
    if len(slot_modes) != len(slots):
        return "duplicate kernel slot labels"
    rows = {x: Fraction(0) for x in source.modes}
    for x, i, y in entries:
        if x not in rows:
            return f"kernel: unknown source mode {x!r} on {source.boundary}"
        if i not in slot_modes:
            return f"kernel: unknown slot {i!r}"
        if y not in slot_modes[i].modes:
            return f"kernel: unknown mode {y!r} on slot {i}"
    for (x, i, y), p in entries.items():
        if p < 0:
            return f"kernel entry ({x} -> {i}.{y}) negative"
        rows[x] += p
    for x, row in rows.items():
        if row != 1:
            return f"kernel row for {source.boundary}.{x} sums to {row}"
    return ""


def compose_kernel_oracle(p: Kernel, qs: Mapping[str, Kernel]) -> dict:
    """Triple-loop marginalization over the intermediate modes."""
    entries: dict = defaultdict(Fraction)
    for x in p.source.modes:
        for i, ms in p.slots:
            q = qs.get(i)
            for y in ms.modes:
                w = p(x, i, y)
                if w == 0:
                    continue
                if q is None:
                    entries[(x, i, y)] += w
                    continue
                for j, jm in q.slots:
                    for z in jm.modes:
                        v = q(y, j, z)
                        if v:
                            entries[(x, f"{i}.{j}", z)] += w * v
    return {k: v for k, v in entries.items() if v != 0}


def random_point(rng: random.Random, ms: ModeSet,
                 strictly_positive: bool = True) -> Point:
    weights = random_fraction_weights(rng, len(ms.modes),
                                      allow_zero=not strictly_positive)
    total = sum(weights)
    return Point(ms, {m: w / total for m, w in zip(ms.modes, weights)})


def point_check_oracle(ms: ModeSet, probs: Mapping[str, Fraction]) -> str:
    """The first message ``Point(ms, probs)`` raises, or ``""`` if it
    accepts them, from a plain ``Fraction`` sum: every mode is checked
    before any mass's sign."""
    for m in probs:
        if m not in ms.modes:
            return f"prior on {ms.boundary}: unknown mode {m!r}"
    for m, p in probs.items():
        if p < 0:
            return f"prior on {ms.boundary}: negative mass on {m!r}"
    if sum(probs.values(), Fraction(0)) != 1:
        return f"prior on {ms.boundary} does not sum to 1"
    return ""


def slot_marginal_oracle(k: PtKernel) -> dict[tuple[str, str], Fraction]:
    """sum_x r(x) p(x -> (i, y)) for every slot i and mode y, over all of
    X x Y, zeros included."""
    r, kern = k.source_prior, k.kernel
    return {(i, y): sum((r[x] * kern(x, i, y) for x in kern.source.modes),
                        Fraction(0))
            for i, ms in kern.slots for y in ms.modes}


def pt_condition_oracle(k: PtKernel, tolerance: Fraction
                        ) -> tuple[bool, Fraction, list[str]]:
    """(holds, max residual, violations) of the pointed-kernel condition,
    from the brute-force marginals."""
    marginal = slot_marginal_oracle(k)
    violations: list[str] = []
    max_res = Fraction(0)
    for i, ms in k.kernel.slots:
        weight = sum(marginal[(i, y)] for y in ms.modes)
        if weight == 0:
            violations.append(f"slot {i} has zero aggregate weight")
        elif i not in k.slot_priors:
            violations.append(f"slot {i} has no prior")
        else:
            s = k.slot_priors[i]
            for y in ms.modes:
                res = abs(marginal[(i, y)] - weight * s[y])
                max_res = max(max_res, res)
                if res > tolerance:
                    violations.append(f"slot {i}, mode {y}: marginal "
                                      f"{marginal[(i, y)]} != {weight} * {s[y]}")
    return not violations, max_res, violations


def aggr_oracle(k: PtKernel) -> dict[str, Fraction]:
    """Each slot's aggregate weight, the sum of its brute-force marginals."""
    marginal = slot_marginal_oracle(k)
    return {i: sum(marginal[(i, y)] for y in ms.modes)
            for i, ms in k.kernel.slots}


def consistent_ptkernel(rng: random.Random, source: ModeSet,
                        slots: tuple[tuple[str, ModeSet], ...],
                        source_prior: Point | None = None) -> PtKernel:
    """A pointed kernel whose slot priors are the prior-weighted conditionals.

    By construction the pointed-kernel condition holds exactly.
    """
    kernel = random_kernel(rng, source, slots)
    prior = source_prior if source_prior is not None \
        else random_point(rng, source)
    marginal = slot_marginal_oracle(PtKernel(kernel, prior, {}))
    slot_priors = {}
    for label, ms in slots:
        weight = sum(marginal[(label, y)] for y in ms.modes)
        slot_priors[label] = Point(ms, {y: marginal[(label, y)] / weight
                                        for y in ms.modes})
    return PtKernel(kernel, prior, slot_priors)


def random_ptkernel(rng: random.Random, source: ModeSet,
                    slots: tuple[tuple[str, ModeSet], ...]) -> PtKernel:
    """A pointed kernel that may break the pointed-kernel condition.

    Rows may skip slots, and one slot may get no mass at all; the source
    prior may put zero mass on some modes.  Each slot prior is the exact
    conditional, that conditional nudged by a small amount, a random
    (skewed) point, or missing.
    """
    dead = rng.choice(slots)[0] if len(slots) > 1 and rng.random() < 0.3 \
        else None
    live = [(l, ms) for l, ms in slots if l != dead]
    entries: dict = {}
    for x in source.modes:
        weights = {(x, l, y): Fraction(rng.randint(0, 3))
                   for l, ms in live for y in ms.modes}
        weights = {key: w for key, w in weights.items() if w}
        if not weights:
            l, ms = rng.choice(live)
            weights[(x, l, rng.choice(ms.modes))] = Fraction(1)
        total = sum(weights.values())
        entries.update({key: w / total for key, w in weights.items()})
    kernel = Kernel(source, slots, entries)
    prior = random_point(rng, source, strictly_positive=rng.random() < 0.5)
    marginal = slot_marginal_oracle(PtKernel(kernel, prior, {}))
    slot_priors = {}
    for label, ms in slots:
        weight = sum(marginal[(label, y)] for y in ms.modes)
        kind = rng.choice(("exact", "exact", "nudged", "skewed", "missing"))
        if kind == "missing":
            continue
        if weight == 0 or kind == "skewed" or len(ms.modes) == 1:
            slot_priors[label] = random_point(rng, ms, strictly_positive=False)
            continue
        probs = {y: marginal[(label, y)] / weight for y in ms.modes}
        if kind == "nudged":
            # move 1/200 or 1/50 of mass between two modes, where it fits
            y1, y2 = rng.sample(ms.modes, 2)
            delta = min(probs[y1], rng.choice((Fraction(1, 200),
                                               Fraction(1, 50))))
            probs[y1] -= delta
            probs[y2] += delta
        slot_priors[label] = Point(ms, probs)
    return PtKernel(kernel, prior, slot_priors)


def kernels_agree_oracle(a: PtKernel, b: PtKernel,
                         relabel: Mapping[str, str],
                         tolerance: Fraction) -> str:
    """The first difference between two pointed kernels after relabeling
    a's slots, or ``""``: the priors, then each slot's counterpart, mode
    set, prior and every (source mode, slot mode) entry, in slot order."""
    if not a.source_prior.same_as(b.source_prior):
        return "source priors differ"
    b_slots = dict(b.kernel.slots)
    for label, ms in a.kernel.slots:
        other = relabel[label]
        if other not in b_slots:
            return f"slot {label} has no counterpart {other}"
        if set(ms.modes) != set(b_slots[other].modes):
            return f"slot {label} ~ {other}: mode sets differ"
        if not a.slot_priors[label].same_as(b.slot_priors[other]):
            return f"slot {label} ~ {other}: slot priors differ"
        for x in a.kernel.source.modes:
            for y in ms.modes:
                pa = a.kernel(x, label, y)
                pb = b.kernel(x, other, y)
                if abs(pa - pb) > tolerance:
                    return (f"entry ({x} -> {label}.{y}): {pa} vs {pb}")
    return ""
