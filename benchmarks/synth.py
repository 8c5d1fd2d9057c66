"""Seeded generator of balanced synthetic ``.opm`` presentations.

The generator first draws a flat system: ``branching ** depth`` leaves, each
with ``ports`` ports paired into wires (a few wires go to the root boundary
instead), and a flat kernel ``K[x][leaf, y]`` from the root modes ``x`` to
(leaf, leaf mode ``y``) pairs, with some zero entries but positive mass on
every leaf for every root mode.

It then derives two balanced hierarchies over two leaf orders (the identity
and a seeded permutation).  Every node gets its own boundary, whose ports are
the wires that cross it, and copy-modes ``x0..``: the node kernel sends
``x -> (child, x)`` with weight child mass / node mass, or ``x -> (leaf, y)``
with weight ``K`` / node mass for a leaf child.  Priors, the probability
functor (aggregate) and the mode functor (support) come from the same
construction, so every coherence check holds exactly.  The broken twin moves
mass between two modes of one leaf slot within one kernel row: rows still sum
to 1, P and M still pass, and only stoch fails.

Every reference answer (posteriors, leaf probabilities, ``can_cause``,
``pipeline_check`` distributions, check verdicts) is computed here from the
flat kernel; nothing calls ``opmodel``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WIRE_TYPES = (("t0", "physical"), ("t1", "digital"), ("t2", "physical"))
MAX_WEIGHT = 9          # flat kernel weights are drawn from 0..MAX_WEIGHT
ZERO_SHARE = 0.25       # share of flat kernel weights forced to 0
ROOT_BOUNDARY = "Root"


@dataclass(frozen=True)
class Shape:
    depth: int = 4
    branching: int = 4
    ports: int = 2      # per leaf
    modes: int = 3      # per boundary

    @property
    def leaves(self) -> int:
        return self.branching ** self.depth


@dataclass
class Node:
    """One internal node of a hierarchy (a generator of the presentation)."""

    gen: str
    boundary: str
    depth: int
    leaves: list[int]                      # leaf ids below, in term order
    children: list[tuple[str, "Node | int"]]  # (slot label, node or leaf id)
    paths: dict[int, str]                  # leaf id -> dotted path from here

    def term(self) -> str:
        inner = [f"{slot}->{child.term()}" for slot, child in self.children
                 if isinstance(child, Node)]
        return f"{self.gen}({', '.join(inner)})" if inner else self.gen

    def walk(self):
        yield self
        for _, child in self.children:
            if isinstance(child, Node):
                yield from child.walk()


class SynthModel:
    """A generated model: the clean and twin ``.opm`` texts plus references."""

    def __init__(self, shape: Shape, seed: int) -> None:
        self.shape = shape
        rng = random.Random(seed)
        n = shape.leaves
        self.leaf_modes = [f"y{i}" for i in range(shape.modes)]
        self.root_modes = [f"x{i}" for i in range(shape.modes)]
        self._draw_wires(rng, n)
        self._draw_kernel(rng, n)
        order_b = list(range(n))
        rng.shuffle(order_b)
        self.roots = {"a": self._build("a", list(range(n))),
                      "b": self._build("b", order_b)}
        self.nodes = {node.gen: node for root in self.roots.values()
                      for node in root.walk()}
        self.equation = f"{self.roots['a'].term()} = {self.roots['b'].term()}"
        self.twin_gen, self.twin_edit = self._pick_twin(rng)
        self.text = self._render(twin=False)
        self.twin_text = self._render(twin=True)

    # flat system ----------------------------------------------------------

    def _draw_wires(self, rng: random.Random, n: int) -> None:
        """Pair leaf ports into wires; a few go to the root boundary instead."""
        ends = [leaf for leaf in range(n) for _ in range(self.shape.ports)]
        rng.shuffle(ends)
        exposed = max(2, len(ends) // 16)
        if (len(ends) - exposed) % 2:
            exposed += 1
        wires: list[tuple[int, ...]] = [(leaf,) for leaf in ends[:exposed]]
        rest = ends[exposed:]
        while True:   # no wire may join a leaf to itself
            rng.shuffle(rest)
            pairs = list(zip(rest[::2], rest[1::2]))
            if all(a != b for a, b in pairs):
                break
        wires += pairs
        self.wires = wires                          # wire id -> leaf ends
        self.wire_type = [rng.randrange(len(WIRE_TYPES)) for _ in wires]
        self.leaf_wires: list[list[int]] = [[] for _ in range(n)]
        for w, leaves in enumerate(wires):
            for leaf in leaves:
                self.leaf_wires[leaf].append(w)

    def _draw_kernel(self, rng: random.Random, n: int) -> None:
        m = self.shape.modes
        weight: list[list[list[int]]] = []
        for _ in range(m):
            rows = []
            for _ in range(n):
                row = [0 if rng.random() < ZERO_SHARE
                       else rng.randint(1, MAX_WEIGHT) for _ in range(m)]
                if not any(row):
                    row[rng.randrange(m)] = rng.randint(1, MAX_WEIGHT)
                rows.append(row)
            weight.append(rows)
        if m > 1 and all(all(row) for rows in weight for row in rows):
            weight[0][0][0] = 0        # so that can_cause has both answers
        self.weight = weight                       # [x][leaf][y] -> int
        self.total = [sum(map(sum, rows)) for rows in weight]
        raw = [rng.randint(1, 5) for _ in range(m)]
        self.root_prior = [Fraction(r, sum(raw)) for r in raw]

    def mass(self, leaves: list[int], x: int) -> int:
        return sum(sum(self.weight[x][leaf]) for leaf in leaves)

    def share(self, leaves: list[int]) -> Fraction:
        """W(S): prior-weighted probability that the failure lies in S."""
        return sum((self.root_prior[x] * Fraction(self.mass(leaves, x),
                                                   self.total[x])
                    for x in range(self.shape.modes)), Fraction(0))

    # hierarchies ------------------------------------------------------------

    def _build(self, h: str, order: list[int], path: tuple[int, ...] = ()
               ) -> Node:
        suffix = "".join(f"_{i}" for i in path)
        depth = len(path)
        leaves = order
        children: list[tuple[str, Node | int]] = []
        paths: dict[int, str] = {}
        if depth == self.shape.depth - 1:
            for leaf in leaves:
                children.append((f"l{leaf}", leaf))
                paths[leaf] = f"l{leaf}"
        else:
            size = len(order) // self.shape.branching
            for k in range(self.shape.branching):
                child = self._build(h, order[k * size:(k + 1) * size],
                                    path + (k,))
                children.append((f"c{k}", child))
                paths.update((leaf, f"c{k}.{p}")
                             for leaf, p in child.paths.items())
        boundary = ROOT_BOUNDARY if not path else f"B{h}{suffix}"
        return Node(f"g{h}{suffix}", boundary, depth, list(leaves), children,
                    paths)

    def _crossing(self, leaves: list[int]) -> list[int]:
        """Wires with an end inside the leaf set and an end outside it."""
        inside = set(leaves)
        out = set()
        for leaf in leaves:
            for w in self.leaf_wires[leaf]:
                ends = self.wires[w]
                if len(ends) == 1 or not all(e in inside for e in ends):
                    out.add(w)
        return sorted(out)

    def node_kernel(self, node: Node) -> dict[tuple[str, str, str], Fraction]:
        entries = {}
        for x, xm in enumerate(self.root_modes):
            node_mass = self.mass(node.leaves, x)
            for slot, child in node.children:
                if isinstance(child, Node):
                    entries[(xm, slot, xm)] = Fraction(
                        self.mass(child.leaves, x), node_mass)
                else:
                    for y, ym in enumerate(self.leaf_modes):
                        w = self.weight[x][child][y]
                        if w:
                            entries[(xm, slot, ym)] = Fraction(w, node_mass)
        return entries

    def _pick_twin(self, rng: random.Random):
        """A kernel row of the last bottom node of hierarchy a with two positive leaf modes.

        The check compares the composed kernels slot by slot and stops at the
        first difference; an edit under the last leaves keeps the twin's
        check about as long as the clean one, so op times stay unimodal.
        """
        node = [n for n in self.roots["a"].walk()
                if n.depth == self.shape.depth - 1][-1]
        entries = self.node_kernel(node)
        candidates = []
        for slot, _ in node.children:
            for xm in self.root_modes:
                ys = [ym for ym in self.leaf_modes if (xm, slot, ym) in entries]
                if len(ys) >= 2:
                    candidates.append((xm, slot, ys[0], ys[1]))
        xm, slot, y1, y2 = rng.choice(candidates)
        delta = min(entries[(xm, slot, y1)], entries[(xm, slot, y2)]) / 2
        return node.gen, {(xm, slot, y1): entries[(xm, slot, y1)] - delta,
                     (xm, slot, y2): entries[(xm, slot, y2)] + delta}

    # rendering ------------------------------------------------------------

    def _boundary_ports(self, node_or_leaf) -> list[int]:
        if isinstance(node_or_leaf, Node):
            return self._crossing(node_or_leaf.leaves)
        return sorted(self.leaf_wires[node_or_leaf])

    def _boundary_name(self, child) -> str:
        return child.boundary if isinstance(child, Node) else f"L{child}"

    def _render(self, twin: bool) -> str:
        out = [f"# synthetic balanced presentation {self.shape}"]
        out += [f"interface {name} {kind}" for name, kind in WIRE_TYPES]

        def boundary_line(name: str, wires: list[int]) -> str:
            ports = ", ".join(f"w{w}: {WIRE_TYPES[self.wire_type[w]][0]}"
                              for w in wires)
            return f"boundary {name} {{ {ports} }}"

        n = self.shape.leaves
        out += [boundary_line(f"L{leaf}", self._boundary_ports(leaf))
                for leaf in range(n)]
        out.append(boundary_line(ROOT_BOUNDARY,
                                 self._boundary_ports(self.roots["a"])))
        nodes = list(self.nodes.values())
        out += [boundary_line(node.boundary, self._boundary_ports(node))
                for node in nodes if node.depth > 0]

        for node in nodes:
            slots = ", ".join(f"{slot}: {self._boundary_name(child)}"
                              for slot, child in node.children)
            out.append(f"architecture {node.gen} : ({slots}) -> {node.boundary} {{")
            where = {}
            for slot, child in node.children:
                for w in self._boundary_ports(child):
                    where.setdefault(w, []).append(slot)
            outer = set(self._boundary_ports(node))
            for w in sorted(where):
                slots_w = where[w]
                if w in outer:
                    out.append(f"  expose {slots_w[0]}.w{w} -> w{w}")
                elif len(slots_w) == 2:
                    out.append(f"  wire {slots_w[0]}.w{w} = {slots_w[1]}.w{w}")
            out.append("}")

        out.append(f"equation {self.equation}")

        out.append("prob P {")
        for node in nodes:
            whole = self.share(node.leaves)
            parts = ", ".join(
                f"{slot}: {str(self.share(self._leaves_of(child)) / whole)}"
                for slot, child in node.children)
            out.append(f"  {node.gen} = ({parts})")
        out.append("}")

        out.append("modes M {")
        root_modes = " ".join(self.root_modes)
        out.append(f"  modes {ROOT_BOUNDARY} = {{ {root_modes} }}")
        out += [f"  modes {node.boundary} = {{ {root_modes} }}"
                for node in nodes if node.depth > 0]
        leaf_modes = " ".join(self.leaf_modes)
        out += [f"  modes L{leaf} = {{ {leaf_modes} }}" for leaf in range(n)]
        for node in nodes:
            out.append(f"  rel {node.gen} {{")
            out += [f"    {slot}.{y} -> {x}"
                    for (x, slot, y) in self.node_kernel(node)]
            out.append("  }")
        out.append("}")

        out.append("stoch S {")
        for name, prior in self._priors(nodes):
            parts = ", ".join(f"{m}: {str(p)}" for m, p in prior)
            out.append(f"  prior {name} = ({parts})")
        for node in nodes:
            entries = self.node_kernel(node)
            if twin and node.gen == self.twin_gen:
                entries.update(self.twin_edit)
            out.append(f"  kernel {node.gen} {{")
            out += [f"    {x} -> {slot}.{y}: {str(p)}"
                    for (x, slot, y), p in entries.items()]
            out.append("  }")
        out.append("}")
        return "\n".join(out) + "\n"

    def _leaves_of(self, child) -> list[int]:
        return child.leaves if isinstance(child, Node) else [child]

    def _priors(self, nodes: list[Node]):
        m = range(self.shape.modes)
        yield ROOT_BOUNDARY, list(zip(self.root_modes, self.root_prior))
        for node in nodes:
            if node.depth == 0:
                continue
            whole = self.share(node.leaves)
            yield node.boundary, [
                (self.root_modes[x], self.root_prior[x]
                 * Fraction(self.mass(node.leaves, x), self.total[x]) / whole)
                for x in m]
        for leaf in range(self.shape.leaves):
            whole = self.share([leaf])
            yield f"L{leaf}", [
                (self.leaf_modes[y], sum(
                    (self.root_prior[x] * Fraction(self.weight[x][leaf][y],
                                                   self.total[x]) for x in m),
                    Fraction(0)) / whole)
                for y in m]

    # references -----------------------------------------------------------

    def check_verdict(self, twin: bool) -> dict:
        """Expected outcome of ``check --functor P --functor M --functor S``."""
        failing = set()
        if twin:
            failing = {f"{self.twin_gen}: pointed-kernel condition",
                       f"equation {self.equation}: composed kernels agree"}
        return {"exit": 1 if twin else 0, "leaf_rows": self.shape.leaves,
                "lifting_failures": failing}

    def posterior(self, node: Node, x: str) -> dict[str, Fraction]:
        xi = self.root_modes.index(x)
        node_mass = self.mass(node.leaves, xi)
        return {f"{node.paths[leaf]}.{ym}":
                Fraction(self.weight[xi][leaf][y], node_mass)
                for leaf in node.leaves
                for y, ym in enumerate(self.leaf_modes)}

    def leaf_probability(self, node: Node, leaf: int) -> Fraction:
        return self.share([leaf]) / self.share(node.leaves)

    def can_cause(self, leaf: int, y: str, x: str) -> bool:
        return self.weight[self.root_modes.index(x)][leaf][
            self.leaf_modes.index(y)] > 0

    def pipeline_dists(self, node: Node, counts: dict[int, int]
                       ) -> dict[str, dict[str, Fraction]]:
        """Per generator: children's failure counts normalised (equal spans)."""
        out = {}
        for sub in node.walk():
            whole = sum(counts[leaf] for leaf in sub.leaves)
            out[sub.gen] = {
                slot: Fraction(sum(counts[leaf]
                                   for leaf in self._leaves_of(child)), whole)
                for slot, child in sub.children}
        return out
