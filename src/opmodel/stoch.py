"""Stochastic kernels with priors: the joint refinement of probabilities and modes.

A kernel maps each output-boundary mode to a distribution over (slot, mode)
pairs of the inputs, read in the diagnosis direction.  Pairing kernels with
priors yields pointed kernels, which project onto plain slot probabilities
(aggregation) and onto causation relations (support).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .modes import ModeFunctor, ModeRelation, ModeSet, check_totality
from .portgraph import ValidationError, Value, graft, lookup
from .presentation import (
    CheckReport,
    OperadPresentation,
    Term,
    aligned_equations,
    check_term,
    fold_term,
)
from .prob import Distribution, ProbFunctor, check_arity, format_probability

ZERO = Fraction(0)
ONE = Fraction(1)

Entry = tuple[str, str, str]  # (source mode, slot label, slot mode)


class Point(Value):
    """A prior: a single distribution over a mode set."""

    __slots__ = ("modes", "probs")

    def __init__(self, modes: ModeSet, probs: Mapping[str, Fraction]) -> None:
        for m, p in probs.items():
            if m not in modes:
                raise ValidationError(
                    f"prior on {modes.boundary}: unknown mode {m!r}")
            if p < ZERO:
                raise ValidationError(
                    f"prior on {modes.boundary}: negative mass on {m!r}")
        if sum(probs.values(), ZERO) != ONE:
            raise ValidationError(
                f"prior on {modes.boundary} does not sum to 1")
        self.modes = modes
        # store only positive entries, so equal priors compare equal
        self.probs = {m: p for m, p in probs.items() if p > ZERO}

    def __getitem__(self, mode: str) -> Fraction:
        return self.probs.get(mode, ZERO)

    def same_as(self, other: "Point") -> bool:
        return (set(self.modes.modes) == set(other.modes.modes)
                and self.probs == other.probs)


class Kernel(Value):
    """A stochastic kernel from a mode set to a slot-indexed union of mode sets."""

    __slots__ = ("source", "slots", "entries")

    def __init__(self, source: ModeSet, slots: tuple[tuple[str, ModeSet], ...],
                 entries: Mapping[Entry, Fraction]) -> None:
        slot_modes = dict(slots)
        if len(slot_modes) != len(slots):
            raise ValidationError("duplicate kernel slot labels")
        rows = dict.fromkeys(source.modes, ZERO)
        for (x, i, y), p in entries.items():
            if x not in rows:
                raise ValidationError(
                    f"kernel: unknown source mode {x!r} on {source.boundary}")
            if i not in slot_modes:
                raise ValidationError(f"kernel: unknown slot {i!r}")
            if y not in slot_modes[i]:
                raise ValidationError(
                    f"kernel: unknown mode {y!r} on slot {i}")
            if p < ZERO:
                raise ValidationError(f"kernel entry ({x} -> {i}.{y}) negative")
            rows[x] += p
        for x, row in rows.items():
            if row != ONE:
                raise ValidationError(
                    f"kernel row for {source.boundary}.{x} sums to {row}")
        self.source, self.slots = source, slots
        # store only positive entries, so equal kernels compare equal
        self.entries = {k: p for k, p in entries.items() if p}

    def __call__(self, x: str, slot: str, y: str) -> Fraction:
        return self.entries.get((x, slot, y), ZERO)


def identity_kernel(ms: ModeSet, slot: str) -> Kernel:
    return Kernel(ms, ((slot, ms),),
                  {(m, slot, m): ONE for m in ms.modes})


def compose_kernel(p: Kernel, qs: Mapping[str, Kernel]) -> Kernel:
    """Compose by marginalization over the intermediate modes.

    Slots absent from ``qs`` pass through unchanged; substituted slots are
    relabeled ``outerslot.innerslot``.
    """
    slot_modes = dict(p.slots)
    for label, q in qs.items():
        if label not in slot_modes:
            raise ValidationError(f"unknown slot {label!r} in composition")
        expected = slot_modes[label]
        if set(q.source.modes) != set(expected.modes):
            raise ValidationError(
                f"slot {label!r}: inner kernel source modes "
                f"{q.source.modes} do not match {expected.modes}")

    entries: dict[Entry, Fraction] = {}
    for (x, i, y), w in p.entries.items():
        q = qs.get(i)
        if q is None:
            entries[(x, i, y)] = entries.get((x, i, y), ZERO) + w
            continue
        for (y2, j, z), v in q.entries.items():
            if y2 != y:
                continue
            key = (x, f"{i}.{j}", z)
            entries[key] = entries.get(key, ZERO) + w * v
    return Kernel(p.source, graft(p.slots, {l: q.slots for l, q in qs.items()}),
                  entries)


def supp(k: Kernel) -> ModeRelation:
    """The causation relation of strictly positive entries.

    Pairs are (slot mode, source mode), matching the input-causes-output
    convention of mode relations.
    """
    pairs: dict[str, set[tuple[str, str]]] = {label: set() for label, _ in k.slots}
    for x, i, y in k.entries:
        pairs[i].add((y, x))
    return ModeRelation({i: frozenset(v) for i, v in pairs.items()})


class PtKernel(NamedTuple):
    """A kernel weighted by a source prior and per-slot priors."""

    kernel: Kernel
    source_prior: Point
    slot_priors: Mapping[str, Point]


def _marginals(k: PtKernel) -> dict[str, dict[str, Fraction]]:
    """``{slot i: {mode y: sum_x r(x) p(x -> (i, y))}}``, the prior-weighted
    slot marginals, from one pass over the stored entries."""
    r = k.source_prior
    out: dict[str, dict[str, Fraction]] = {l: {} for l, _ in k.kernel.slots}
    for (x, i, y), p in k.kernel.entries.items():
        out[i][y] = out[i].get(y, ZERO) + r[x] * p
    return out


def aggr(k: PtKernel) -> Distribution:
    """The aggregate slot distribution of a pointed kernel."""
    return Distribution(tuple(
        (label, sum(masses.values(), ZERO))
        for label, masses in _marginals(k).items()))


class PtConditionReport(NamedTuple):
    holds: bool
    max_residual: Fraction
    violations: tuple[str, ...]


def pt_condition(k: PtKernel, tolerance: Fraction = ZERO) -> PtConditionReport:
    """Verify that the slot priors equal the prior-weighted slot marginals.

    For each slot i and mode y:  sum_x r(x) p(x -> (i, y)) = |p|(i) * s_i(y).
    Slots of zero aggregate weight are reported as violations, since their
    priors would be unconstrained.
    """
    marginals = _marginals(k)
    violations: list[str] = []
    max_res = ZERO
    for label, ms in k.kernel.slots:
        masses = marginals[label]
        weight = sum(masses.values(), ZERO)
        if weight == ZERO:
            violations.append(f"slot {label} has zero aggregate weight")
            continue
        s = k.slot_priors.get(label)
        if s is None:
            violations.append(f"slot {label} has no prior")
            continue
        for y in ms.modes:
            lhs = masses.get(y, ZERO)
            rhs = weight * s[y]
            res = abs(lhs - rhs)
            max_res = max(max_res, res)
            if res > tolerance:
                violations.append(
                    f"slot {label}, mode {y}: marginal {lhs} != "
                    f"{weight} * {s[y]}")
    return PtConditionReport(not violations, max_res, tuple(violations))


def compose_pt(p: PtKernel, qs: Mapping[str, PtKernel]) -> PtKernel:
    """Compose pointed kernels; inner source priors must match the slot priors."""
    for label, q in qs.items():
        s = p.slot_priors.get(label)
        if s is None or not q.source_prior.same_as(s):
            raise ValidationError(
                f"slot {label!r}: inner source prior does not match slot prior")
    kernel = compose_kernel(p.kernel, {l: q.kernel for l, q in qs.items()})
    priors = graft(p.slot_priors.items(),
                   {l: q.slot_priors.items() for l, q in qs.items()})
    return PtKernel(kernel, p.source_prior, dict(priors))


class StochFunctor(NamedTuple):
    """Per-boundary priors and per-generator kernels realizing the joint lifting."""

    priors: Mapping[str, Point]
    kernels: Mapping[str, Kernel]
    name: str = ""

    def prior_of(self, boundary: str) -> Point:
        return lookup(self.priors, boundary, "no prior for boundary {!r}")

    def pt_kernel(self, pres: OperadPresentation, generator: str) -> PtKernel:
        kernel = lookup(self.kernels, generator, "no kernel for generator {!r}")
        arch = pres.generator(generator)
        return PtKernel(
            kernel,
            self.prior_of(arch.output.name),
            {slot: self.prior_of(b.name) for slot, b in arch.inputs})

    def fold(self, pres: OperadPresentation, t: Term) -> PtKernel:
        """Compose the pointed kernels along a term."""
        return fold_term(t, lambda g: self.pt_kernel(pres, g), compose_pt)


class LiftingRow(NamedTuple):
    subject: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        line = f"{self.subject}: {'pass' if self.passed else 'FAIL'}"
        if self.detail and not self.passed:
            line += f" ({self.detail})"
        return line

    def to_dict(self) -> dict:
        return {"subject": self.subject, "passed": self.passed,
                "detail": self.detail}


def _kernels_agree(a: PtKernel, b: PtKernel,
                   relabel: Mapping[str, str],
                   tolerance: Fraction) -> str:
    """Empty string when equal after relabeling a's slots, else a description."""
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


def check_lifting(pres: OperadPresentation, S: StochFunctor, P: ProbFunctor,
                  M: ModeFunctor,
                  tolerance: Fraction = ZERO) -> CheckReport:
    """Verify the joint lifting: per-generator projections and equation coherence.

    Per generator: the pointed-kernel condition holds, aggregation equals the
    probability functor, and support equals the mode functor.  Per equation:
    the composed pointed kernels of both sides agree after leaf alignment.
    """
    errors = check_arity(pres, P)
    errors += check_totality(pres, M)
    for name in pres.boundaries:
        if name not in S.priors:
            errors.append(f"no prior for boundary {name}")
    for name in pres.generators:
        if name not in S.kernels:
            errors.append(f"no kernel for generator {name}")
    if errors:
        return CheckReport("lifting check", (), tuple(errors))

    rows: list[LiftingRow] = []
    for name in pres.generators:
        k = S.pt_kernel(pres, name)
        cond = pt_condition(k, tolerance)
        rows.append(LiftingRow(
            f"{name}: pointed-kernel condition", cond.holds,
            "; ".join(cond.violations)))
        got = aggr(k).as_dict()
        want = P[name].as_dict()
        ok = set(got) == set(want) and all(
            abs(got[l] - want[l]) <= tolerance for l in want)
        rows.append(LiftingRow(
            f"{name}: aggregate matches probability functor", ok,
            "" if ok else f"aggr {got} vs {want}"))
        got_rel = supp(k.kernel)
        want_rel = M.relation_of(name)
        diffs = []
        for slot in dict.fromkeys([*got_rel.pairs, *want_rel.pairs]):
            g, w = got_rel.slot(slot), want_rel.slot(slot)
            for pair in sorted(g - w):
                diffs.append(f"{slot}: extra pair {pair}")
            for pair in sorted(w - g):
                diffs.append(f"{slot}: missing pair {pair}")
        rows.append(LiftingRow(
            f"{name}: support matches mode functor", not diffs,
            "; ".join(diffs)))

    for eq, mapping, lhs, rhs in aligned_equations(
            pres, lambda t: S.fold(pres, t), errors):
        problem = _kernels_agree(lhs, rhs, mapping, tolerance)
        rows.append(LiftingRow(
            f"equation {eq}: composed kernels agree", not problem, problem))
    return CheckReport("lifting check", tuple(rows), tuple(errors))


def diagnose(pres: OperadPresentation, S: StochFunctor, t: Term,
             observed_root_mode: str) -> Distribution:
    """Posterior over (leaf path, leaf mode) given an observed root mode.

    This is the composed kernel's row at the observation: the chain product
    of conditional entries down the term.  Labels are ``leafpath.mode``.
    """
    check_term(pres, t)
    k = S.fold(pres, t)
    if observed_root_mode not in k.kernel.source:
        raise ValidationError(
            f"unknown mode {observed_root_mode!r} on "
            f"{k.kernel.source.boundary}")
    return Distribution(tuple(
        (f"{label}.{y}", k.kernel(observed_root_mode, label, y))
        for label, ms in k.kernel.slots for y in ms.modes))


def format_posterior(d: Distribution) -> str:
    lines = ["posterior:"]
    for label, p in sorted(d.entries, key=lambda e: (-e[1], e[0])):
        lines.append(f"  {label}: {format_probability(p)}")
    return "\n".join(lines)
