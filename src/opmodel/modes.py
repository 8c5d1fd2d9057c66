"""Failure-mode sets and the "can cause" relation between them.

Each boundary carries a finite set of failure modes.  A generator maps to a
family of relations, one per input slot, pairing a mode of the slot's
boundary with a mode of the output boundary it can cause.  Relations compose
by existential chaining, so functoriality is the transitivity of causation.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple

from .portgraph import ValidationError, Value, graft, lookup
from .presentation import (
    CheckReport,
    CoherenceEquation,
    OperadPresentation,
    Term,
    _leaf_route,
    aligned_equations,
    check_term,
    fold_term,
)


class ModeSet(Value):
    """The failure modes of one boundary."""

    __slots__ = ("boundary", "modes")

    def __init__(self, boundary: str, modes: tuple[str, ...]) -> None:
        self.boundary, self.modes = boundary, modes
        if len(set(modes)) != len(modes):
            raise ValidationError(f"duplicate failure modes on {boundary}")

    def __contains__(self, mode: str) -> bool:
        return mode in self.modes


class ModeRelation(Value):
    """Per-slot sets of (input mode, output mode) causation pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Mapping[str, frozenset[tuple[str, str]]]) -> None:
        self.pairs = pairs

    def slot(self, label: str) -> frozenset[tuple[str, str]]:
        return self.pairs.get(label, frozenset())


def relation(**pairs) -> ModeRelation:
    return ModeRelation({s: frozenset(v) for s, v in pairs.items()})


def compose_rel(outer: ModeRelation,
                inners: Mapping[str, ModeRelation]) -> ModeRelation:
    """Relation composition along a substitution.

    A pair (leaf mode, root mode) survives iff some intermediate mode
    witnesses both legs.  Composite slots are labeled ``outerslot.innerslot``,
    and must be unique.
    """
    caused: dict = {s: {} for s in inners}  # slot -> slot mode -> root modes
    for s, index in caused.items():
        for y, x in outer.pairs.get(s, ()):
            index.setdefault(y, []).append(x)
    items = graft(
        ((s, caused.get(s, rel)) for s, rel in outer.pairs.items()),
        {s: r.pairs.items() for s, r in inners.items()},
        lambda index, sub: frozenset([(z, x) for z, y in sub
                                      for x in index.get(y, ())]))
    pairs = dict(items)
    if len(pairs) != len(items):
        raise ValidationError("relation labels must be unique")
    return ModeRelation(pairs)


class ModeFunctor(NamedTuple):
    """Mode sets per boundary and a causation relation per generator."""

    mode_sets: Mapping[str, ModeSet]
    relations: Mapping[str, ModeRelation]
    name: str = ""

    def modes_of(self, boundary: str) -> ModeSet:
        return lookup(self.mode_sets, boundary,
                      "no failure modes declared for boundary {!r}")

    def relation_of(self, generator: str) -> ModeRelation:
        return lookup(self.relations, generator,
                      "no causation relation for generator {!r}")

    def fold(self, t: Term) -> ModeRelation:
        """Compose the relations along a term; slots become leaf paths."""
        return fold_term(t, self.relation_of, compose_rel)


def check_totality(pres: OperadPresentation, M: ModeFunctor) -> list[str]:
    problems = []
    for name in pres.boundaries:
        if name not in M.mode_sets:
            problems.append(f"no mode set for boundary {name}")
    for name, arch in pres.generators.items():
        if name not in M.relations:
            problems.append(f"no relation for generator {name}")
            continue
        rel = M.relations[name]
        out_modes = M.mode_sets.get(arch.output.name)
        for slot, b in arch.inputs:
            slot_modes = M.mode_sets.get(b.name)
            for m_in, m_out in sorted(rel.slot(slot)):
                if slot_modes is not None and m_in not in slot_modes:
                    problems.append(
                        f"relation {name}: unknown mode {m_in!r} on {b.name}")
                if out_modes is not None and m_out not in out_modes:
                    problems.append(
                        f"relation {name}: unknown mode {m_out!r} "
                        f"on {arch.output.name}")
        slots = arch.slots
        for slot in rel.pairs:
            if slot not in slots:
                problems.append(
                    f"relation {name}: unknown slot {slot!r}")
    return problems


def can_cause(pres: OperadPresentation, M: ModeFunctor, t: Term,
              leaf: str, leaf_mode: str, root_mode: str) -> bool:
    """Whether a leaf mode can cause the root mode along the term.

    The empty leaf selector names the root itself (depth-0 query), where a
    mode trivially causes itself.  A root mode unknown on the root's
    boundary raises, and so, once the selector has resolved, does a leaf
    mode unknown on the leaf's boundary (the root's, for the empty
    selector).  A term that :func:`check_term` refuses raises its error
    before any of these.  One walk over ``t`` types it and resolves the
    leaf, and the modes that can cause ``root_mode`` are carried down its
    path alone: a generator with no relation raises at the first step from
    the root that reaches it, and a relation lacking the step's slot has no
    pairs there.
    """
    try:
        root_modes = M.modes_of(pres.generator(t.generator).output.name)
        _check_mode(root_modes, root_mode)
    except ValidationError:
        check_term(pres, t)  # the term's own fault comes first
        raise
    _, b, route = _leaf_route(pres, t, leaf)
    _check_mode(M.modes_of(b.name), leaf_mode)
    causes = {root_mode}
    for g, slot in route:
        causes = {y for y, x in M.relation_of(g).slot(slot) if x in causes}
    return leaf_mode in causes


def _check_mode(modes: ModeSet, mode: str) -> None:
    if mode not in modes:
        raise ValidationError(f"unknown mode {mode!r} on {modes.boundary}")


class ModeCheckRow(NamedTuple):
    equation: CoherenceEquation
    lhs_path: str
    rhs_path: str
    missing_rhs: frozenset[tuple[str, str]]
    missing_lhs: frozenset[tuple[str, str]]

    @property
    def passed(self) -> bool:
        return not self.missing_rhs and not self.missing_lhs

    def __str__(self) -> str:
        if self.passed:
            return f"{self.lhs_path} ~ {self.rhs_path}: pass"
        parts = [f"{self.lhs_path} ~ {self.rhs_path}: FAIL"]
        for m, x in sorted(self.missing_rhs):
            parts.append(f"    only lhs: ({m} -> {x})")
        for m, x in sorted(self.missing_lhs):
            parts.append(f"    only rhs: ({m} -> {x})")
        return "\n".join(parts)

    def to_dict(self) -> dict:
        return {"lhs": self.lhs_path, "rhs": self.rhs_path,
                "passed": self.passed,
                "only_lhs": [list(pair) for pair in sorted(self.missing_rhs)],
                "only_rhs": [list(pair) for pair in sorted(self.missing_lhs)]}


def check_mode_functor(pres: OperadPresentation,
                       M: ModeFunctor) -> CheckReport:
    """Composed relations on both sides of every equation must agree."""
    errors = check_totality(pres, M)
    rows: list[ModeCheckRow] = []
    if not errors:
        for eq, mapping, lhs, rhs in aligned_equations(pres, M.fold, errors):
            for path in lhs.pairs:
                l, r = lhs.slot(path), rhs.slot(mapping[path])
                rows.append(ModeCheckRow(eq, path, mapping[path], l - r, r - l))
    return CheckReport("mode coherence", tuple(rows), tuple(errors),
                       "leaf relations")
