"""Finite presentations of sub-operads: named generators plus coherence equations.

A presentation lists the boundaries and generator architectures of a modeled
system; its coherence equations assert that two composite hierarchies
elaborate to the same architecture (up to a component correspondence).
"""
from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple, TypeVar

from .portgraph import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    EqualityReport,
    PortGraphError,
    TypeTable,
    ValidationError,
    Value,
    check_correspondence,
    compose,
    derive_correspondence,
    equal,
    graft,
    lookup,
    validate,
)

V = TypeVar("V")


class Term(Value):
    """A composite of generators: children substitute into the parent's slots.

    Unfilled slots are the leaves of the term; a slot is filled at most once.
    """

    __slots__ = ("generator", "children")

    def __init__(self, generator: str,
                 children: tuple[tuple[str, Term], ...] = ()) -> None:
        self.generator, self.children = generator, children
        seen = set()
        for slot, _ in children:
            if slot in seen:
                raise ValidationError(f"duplicate slot {slot!r}")
            seen.add(slot)

    def child(self, slot: str) -> "Term | None":
        """The filler of ``slot``, or None."""
        return dict(self.children).get(slot)

    def __str__(self) -> str:
        # an explicit stack of terms and text pieces, so depth is unbounded
        parts: list[str] = []
        todo: list[Term | str] = [self]
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                parts.append(t)
                continue
            parts.append(t.generator)
            if t.children:
                todo.append(")")
                for i in range(len(t.children) - 1, -1, -1):
                    slot, child = t.children[i]
                    todo += child, f"{', ' if i else '('}{slot}->"
        return "".join(parts)


class TermSyntaxError(ValueError):
    """Raised for malformed term expressions."""


def parse_term(text: str) -> Term:
    """Parse the ``gen(slot->gen, ...)`` micro-syntax.

    This is the term grammar of ``.opm`` files, so errors carry a line and
    column; generator and slot names are not resolved.
    """
    from .dsl import parse_free_term  # dsl imports this module
    return parse_free_term(text)


class CoherenceEquation(NamedTuple):
    """An asserted identity between two composite terms.

    ``corr`` pairs the leaf slots of the two sides; when None it is derived
    by matching leaf boundary names.
    """

    lhs: Term
    rhs: Term
    corr: ComponentCorrespondence | None = None

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


class OperadPresentation(NamedTuple):
    """Boundaries, generator architectures and coherence equations of a model."""

    type_table: TypeTable
    boundaries: Mapping[str, Boundary]
    generators: Mapping[str, Architecture]
    equations: tuple[CoherenceEquation, ...] = ()

    def generator(self, name: str) -> Architecture:
        return lookup(self.generators, name, "unknown generator {!r}")


def _check_slots(name: str, arch: Architecture, filled) -> None:
    slots = arch.slots
    for slot in filled:
        if slot not in slots:
            raise ValidationError(f"generator {name} has no slot {slot!r}")


def elaborate(pres: OperadPresentation, t: Term) -> Architecture:
    """Fold operadic composition over a term tree.

    Leaves of the term become the input slots of the result; a leaf reached
    through slots ``a`` then ``b`` is labeled ``a.b``.
    """
    arch = pres.generator(t.generator)
    if not t.children:
        return arch
    inner = {slot: elaborate(pres, sub) for slot, sub in t.children}
    _check_slots(t.generator, arch, inner)
    return compose(arch, inner)


def check_term(pres: OperadPresentation, t: Term) -> Boundary:
    """The output boundary of a well-typed term.

    Raises what :func:`elaborate` would for an unknown generator or slot, or
    for a generator whose output is not its slot's boundary, without
    composing anything.
    """
    return fold_term(t, lambda g: (g, pres.generator(g)), _typed)[1].output


def _typed(outer: tuple[str, Architecture],
           inner: dict[str, tuple[str, Architecture]]
           ) -> tuple[str, Architecture]:
    """The outer (name, architecture), once every filled slot exists and
    gets a generator whose output is the slot's boundary."""
    name, arch = outer
    _check_slots(name, arch, inner)
    for slot, (_, sub) in inner.items():
        arch.check_fill(slot, sub.output)
    return outer


def fold_term(t: Term, value_of: Callable[[str], V],
              compose: Callable[[V, dict[str, V]], V]) -> V:
    """The value of a term under a functor: ``value_of`` each generator, then
    ``compose(outer, {slot: inner})`` along the substitutions."""
    top = value_of(t.generator)
    if not t.children:
        return top
    return compose(top, {slot: fold_term(sub, value_of, compose)
                         for slot, sub in t.children})


def leaf_paths(pres: OperadPresentation, t: Term) -> tuple[tuple[str, str], ...]:
    """The (dotted path, boundary name) of every leaf slot, in slot order."""
    return fold_term(t, lambda g: tuple(
        (slot, b.name) for slot, b in pres.generator(g).inputs), graft)


def resolve_leaf(pres: OperadPresentation, t: Term, leaf: str) -> str:
    """Resolve a leaf selector to a full dotted path.

    Accepts an exact path, a unique trailing segment of one, or a unique
    boundary name (case-insensitive); the empty selector names the root,
    whose path is ``""``.  A term that :func:`check_term` refuses gets its
    error, although the walk that resolves the selector types the term
    itself and so folds nothing when the term is well typed.
    """
    return _leaf_route(pres, t, leaf)[0]


def _leaf_route(pres: OperadPresentation, t: Term, leaf: str
                ) -> tuple[str, Boundary, tuple[tuple[str, str], ...]]:
    """The dotted path :func:`resolve_leaf` gives, the boundary of its leaf
    slot, and the ``(generator, slot)`` steps of the path, root first: for
    the empty selector, ``""``, the root's output and no steps.

    An iterative walk follows the term's slots.  It types every node it
    reaches, as :func:`check_term` does: the generator is known, every
    filled slot exists, and every filler's output is its slot's boundary.
    Where one is not, :func:`check_term` runs, so a refused term raises the
    error the fold meets first.  The walk never splits a path, since a slot
    label built from Python may hold a dot; where leaves then share a path,
    the exact rule takes the last of them in slot order.  Each node reached
    records its parent's index and its slot there, so the walk is linear in
    the term's size, and only the routes of the leaves that match are
    rebuilt.
    """
    gens = pres.generators
    # a second walk applies the boundary rule, if the first leaves it open
    for want in (None, leaf.lower()):
        exact, by_suffix, by_boundary = [], [], []  # (node index, leaf slot)
        # each node reached, the boundary its output must be (None at the
        # root), its parent's index and its slot there, and where the rest of
        # ``leaf`` starts after its path, or -1 if that path does not begin
        # ``leaf``
        nodes, outs, ups, ats = [t], [None], [None], [0]
        for i, node in enumerate(nodes):  # nodes grows as the walk goes
            arch, out, at = gens.get(node.generator), outs[i], ats[i]
            if arch is None or out is not None \
                    and arch.output is not out and arch.output != out:
                _refuse(pres, t)
            unfilled = arch.inputs
            if node.children:
                fills = dict(node.children)
                unfilled = []
                for slot, b in arch.inputs:
                    child = fills.pop(slot, None)
                    if child is None:
                        unfilled.append((slot, b))
                        continue
                    end = at + len(slot)
                    nodes.append(child)
                    outs.append(b)
                    ups.append((i, slot))
                    ats.append(end + 1 if at >= 0 and leaf.startswith(slot, at)
                               and leaf.startswith(".", end) else -1)
                if fills:  # a fill of a missing slot
                    _refuse(pres, t)
            for slot, b in unfilled:
                if at >= 0 and leaf.startswith(slot, at) \
                        and at + len(slot) == len(leaf):
                    exact.append((i, slot))
                    continue
                if leaf in slot and slot.rpartition(".")[2] == leaf:
                    by_suffix.append((i, slot))
                if want is not None and b.name.lower() == want:
                    by_boundary.append((i, slot))
        if exact or len(by_suffix) == 1 or not leaf:
            break
    if not leaf:
        return "", gens[t.generator].output, ()
    if exact:
        route = max((_route(nodes, ups, *m) for m in exact),
                    key=lambda route: [gens[g].slots.index(slot)
                                       for g, slot in route])
    elif len(by_suffix) == 1:
        route = _route(nodes, ups, *by_suffix[0])
    elif len(by_boundary) == 1:
        route = _route(nodes, ups, *by_boundary[0])
    elif by_suffix or by_boundary:
        raise ValidationError(f"leaf selector {leaf!r} is ambiguous in {t}")
    else:
        raise ValidationError(f"no leaf {leaf!r} in {t}")
    g, slot = route[-1]
    path = ".".join(slot for _, slot in route)
    return path, gens[g].slot_boundary(slot), route


def _refuse(pres: OperadPresentation, t: Term) -> None:
    """Raise the error :func:`check_term` gives a term the walk found ill
    typed."""
    check_term(pres, t)
    raise AssertionError(f"check_term accepts {t}")


def _route(nodes: list[Term], ups: list, i: int, slot: str
           ) -> tuple[tuple[str, str], ...]:
    """The ``(generator, slot)`` steps from the root to ``slot`` of
    ``nodes[i]``, ``ups`` holding each node's parent index and slot there."""
    route = [(nodes[i].generator, slot)]
    while i:
        i, slot = ups[i]
        route.append((nodes[i].generator, slot))
    return tuple(reversed(route))


class EquationReport(NamedTuple):
    """Verdict of checking one coherence equation."""

    equation: CoherenceEquation
    passed: bool
    corr: ComponentCorrespondence | None = None
    diff: EqualityReport | None = None
    error: str = ""

    def __str__(self) -> str:
        head = f"{self.equation}: {'pass' if self.passed else 'FAIL'}"
        if self.error:
            return f"{head}\n  error: {self.error}"
        if self.diff is not None and not self.diff.equal:
            return head + "\n" + str(self.diff)
        return head

    def to_dict(self) -> dict:
        diff = self.diff or EqualityReport(True)
        return {"equation": str(self.equation), "passed": self.passed,
                "error": self.error, "reason": diff.reason,
                "only_left": [w.to_dict() for w in diff.only_left],
                "only_right": [w.to_dict() for w in diff.only_right]}


def equation_correspondence(pres: OperadPresentation,
                            eq: CoherenceEquation) -> ComponentCorrespondence:
    """The explicit correspondence, or one derived by leaf boundary names.

    Either must be a boundary-preserving bijection of the leaf paths of two
    well-typed sides.  A derived one comes from the elaborated sides, whose
    labels differ from the leaf paths where a side substitutes an identity,
    so every leaf path must also have a derived match.
    """
    if eq.corr is not None:  # elaborate types the sides of a derived one
        check_term(pres, eq.lhs)
        check_term(pres, eq.rhs)
    corr = eq.corr or derive_correspondence(elaborate(pres, eq.lhs),
                                            elaborate(pres, eq.rhs))
    left = dict(leaf_paths(pres, eq.lhs))
    right = dict(leaf_paths(pres, eq.rhs))
    if eq.corr is None:
        for t, paths, matched in ((eq.lhs, left, corr.mapping.keys()),
                                  (eq.rhs, right, set(corr.mapping.values()))):
            unmatched = sorted(paths.keys() - matched)
            if unmatched:
                raise ValidationError(
                    f"leaf {unmatched[0]} of {t} has no derived match")
    check_correspondence(left, right, corr)
    return corr


def aligned_equations(pres: OperadPresentation, fold: Callable[[Term], V],
                      errors: list[str]
                      ) -> Iterator[tuple[CoherenceEquation, Mapping[str, str], V, V]]:
    """Each equation with its leaf correspondence and both sides folded.

    An equation whose correspondence fails is skipped and its failure is
    appended to ``errors``.
    """
    for eq in pres.equations:
        try:
            corr = equation_correspondence(pres, eq)
        except PortGraphError as exc:
            errors.append(f"equation {eq}: {exc}")
            continue
        yield eq, corr.mapping, fold(eq.lhs), fold(eq.rhs)


class CheckReport(NamedTuple):
    """Rows of one functor check; ``counted`` names the rows in the header."""

    title: str
    rows: tuple
    errors: tuple[str, ...] = ()
    counted: str = ""

    @property
    def passed(self) -> bool:
        return not self.errors and all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "errors": list(self.errors),
                "rows": [r.to_dict() for r in self.rows]}

    def __str__(self) -> str:
        head = f"{self.title}: {'pass' if self.passed else 'FAIL'}"
        if self.counted:
            head += f" ({len(self.rows)} {self.counted})"
        lines = [head] + [f"  error: {e}" for e in self.errors]
        lines += ["  " + str(r) for r in self.rows]
        return "\n".join(lines)


def check_equation(pres: OperadPresentation,
                   eq: CoherenceEquation) -> EquationReport:
    """Elaborate both sides and compare them under the equation's correspondence."""
    try:
        lhs = elaborate(pres, eq.lhs)
        rhs = elaborate(pres, eq.rhs)
        corr = equation_correspondence(pres, eq)
        diff = equal(lhs, rhs, corr)
    except PortGraphError as exc:
        return EquationReport(eq, False, error=str(exc))
    return EquationReport(eq, diff.equal, corr, diff)


class CompileReport(NamedTuple):
    """Outcome of validating a whole presentation."""

    boundary_count: int
    generator_count: int
    equation_count: int
    errors: tuple[str, ...]
    equation_reports: tuple[EquationReport, ...]

    @property
    def success(self) -> bool:
        return not self.errors and all(r.passed for r in self.equation_reports)

    def to_dict(self) -> dict:
        return {"success": self.success,
                "boundaries": self.boundary_count,
                "generators": self.generator_count,
                "equations": self.equation_count,
                "errors": list(self.errors),
                "equation_results": [r.to_dict()
                                     for r in self.equation_reports]}

    def __str__(self) -> str:
        status = "ok" if self.success else "FAILED"
        lines = [f"compile {status}: {self.boundary_count} boundaries, "
                 f"{self.generator_count} generators, "
                 f"{self.equation_count} equations"]
        lines += [f"  error: {e}" for e in self.errors]
        lines += ["  " + line for r in self.equation_reports
                  for line in str(r).splitlines()]
        return "\n".join(lines)


def compile_presentation(pres: OperadPresentation) -> CompileReport:
    """Validate boundaries and generators, then check every equation."""
    errors: list[str] = []
    for name, b in pres.boundaries.items():
        for p in b.ports:
            t = b.port_type[p]
            if t not in pres.type_table:
                errors.append(
                    f"boundary {name}: port {p} has undeclared type {t!r}")
    for name, arch in pres.generators.items():
        for slot, b in arch.inputs:
            declared = pres.boundaries.get(b.name)
            if declared is None or declared != b:
                errors.append(
                    f"generator {name}: slot {slot} uses undeclared "
                    f"boundary {b.name}")
        if pres.boundaries.get(arch.output.name) != arch.output:
            errors.append(
                f"generator {name}: undeclared output boundary "
                f"{arch.output.name}")
        try:
            validate(arch)
        except ValidationError as exc:
            errors.append(f"generator {name}: {exc}")
    eq_reports = tuple(check_equation(pres, eq) for eq in pres.equations)
    return CompileReport(
        boundary_count=len(pres.boundaries),
        generator_count=len(pres.generators),
        equation_count=len(pres.equations),
        errors=tuple(errors),
        equation_reports=eq_reports,
    )
