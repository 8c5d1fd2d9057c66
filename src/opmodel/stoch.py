"""Stochastic kernels with priors: the joint refinement of probabilities and modes.

A kernel maps each output-boundary mode to a distribution over (slot, mode)
pairs of the inputs, read in the diagnosis direction.  Pairing kernels with
priors yields pointed kernels, which project onto plain slot probabilities
(aggregation) and onto causation relations (support).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, NamedTuple

from .modes import ModeFunctor, ModeRelation, ModeSet, _check_mode, check_totality
from .portgraph import ValidationError, Value, graft, lookup
from .presentation import (
    CheckReport,
    OperadPresentation,
    Term,
    aligned_equations,
    check_term,
    fold_term,
)
from .prob import (
    EXACT,
    Distribution,
    ProbFunctor,
    check_arity,
    exact_sum,
    format_exact,
    format_probability,
)

ZERO = Fraction(0)

Entry = tuple[str, str, str]  # (source mode, slot label, slot mode)


class Point(Value):
    """A prior: a single distribution over a mode set."""

    __slots__ = ("modes", "probs")

    def __new__(cls, modes: ModeSet, probs: Mapping[str, Fraction]) -> Point:
        for m, p in probs.items():
            if m not in modes:
                raise ValidationError(
                    f"prior on {modes.boundary}: unknown mode {m!r}")
            if not isinstance(p, EXACT):
                raise ValidationError(
                    f"prior on {modes.boundary}: mass {p!r} on {m!r} is not "
                    f"an int or Fraction")
        return cls._new(modes, probs)

    @classmethod
    def _new(cls, modes: ModeSet, probs: Mapping[str, Fraction]) -> Point:
        """Exact masses on modes of ``modes`` assumed: signs and sum are
        checked on the ``(numerator, denominator)`` of each."""
        pairs = [p.as_integer_ratio() for p in probs.values()]
        n, d = exact_sum(pairs)
        if n != d or min(pairs)[0] < 0:
            for m, p in probs.items():
                if p.numerator < 0:
                    raise ValidationError(
                        f"prior on {modes.boundary}: negative mass on {m!r}")
            raise ValidationError(
                f"prior on {modes.boundary} does not sum to 1")
        self = object.__new__(cls)
        self.modes = modes
        # store only positive entries, so equal priors compare equal
        self.probs = ({m: p for m, p in probs.items() if p}
                      if (0, 1) in pairs else dict(probs))
        return self

    def __getitem__(self, mode: str) -> Fraction:
        return self.probs.get(mode, ZERO)

    def same_as(self, other: "Point") -> bool:
        return (set(self.modes.modes) == set(other.modes.modes)
                and self.probs == other.probs)


class Kernel(Value):
    """A stochastic kernel from a mode set to a slot-indexed union of mode sets."""

    __slots__ = ("source", "slots", "entries")

    def __new__(cls, source: ModeSet, slots: tuple[tuple[str, ModeSet], ...],
                entries: Mapping[Entry, Fraction]) -> Kernel:
        slot_modes = {i: ms.modes for i, ms in slots}
        if len(slot_modes) != len(slots):
            raise ValidationError("duplicate kernel slot labels")
        source_modes = set(source.modes)
        for (x, i, y), p in entries.items():
            if x not in source_modes:
                raise ValidationError(
                    f"kernel: unknown source mode {x!r} on {source.boundary}")
            if i not in slot_modes:
                raise ValidationError(f"kernel: unknown slot {i!r}")
            if y not in slot_modes[i]:
                raise ValidationError(
                    f"kernel: unknown mode {y!r} on slot {i}")
            if not isinstance(p, EXACT):
                raise ValidationError(
                    f"kernel entry ({x} -> {i}.{y}): {p!r} is not an int or "
                    f"Fraction")
        return cls._new(source, slots, entries)

    @classmethod
    def _new(cls, source: ModeSet, slots: tuple[tuple[str, ModeSet], ...],
             entries: Mapping[Entry, Fraction]) -> Kernel:
        """Distinct slots and exact entries on its modes assumed: signs and
        row sums are checked on each row's integer ratios."""
        rows = {x: [] for x in source.modes}
        for (x, _, _), p in entries.items():
            rows[x].append(p.as_integer_ratio())
        if any(row and min(row)[0] < 0 for row in rows.values()):
            for (x, i, y), p in entries.items():
                if p.numerator < 0:
                    raise ValidationError(f"kernel entry ({x} -> {i}.{y}) negative")
        # each row is summed over the lcm of its own denominators: one lcm
        # for the whole kernel grows with the number of distinct ones
        for x, row in rows.items():
            n, d = exact_sum(row)
            if n != d:
                raise ValidationError(
                    f"kernel row for {source.boundary}.{x} sums to "
                    f"{format_exact(Fraction(n, d))}")
        self = object.__new__(cls)
        self.source, self.slots = source, slots
        # store only positive entries, so equal kernels compare equal
        self.entries = ({k: p for k, p in entries.items() if p}
                        if any((0, 1) in row for row in rows.values())
                        else dict(entries))
        return self

    def __call__(self, x: str, slot: str, y: str) -> Fraction:
        return self.entries.get((x, slot, y), ZERO)


def compose_kernel(p: Kernel, qs: Mapping[str, Kernel]) -> Kernel:
    """Compose by marginalization over the intermediate modes.

    Slots absent from ``qs`` pass through unchanged; substituted slots are
    relabeled ``outerslot.innerslot``.
    """
    slots = graft(p.slots, {label: q.slots for label, q in qs.items()})
    slot_modes = dict(p.slots)
    for label, q in qs.items():
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
    return Kernel(p.source, slots, entries)


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


class PtConditionReport(NamedTuple):
    holds: bool
    max_residual: Fraction
    violations: tuple[str, ...]
    aggregate: tuple[tuple[str, Fraction], ...]  # (slot, weight), slot order


def pt_condition(k: PtKernel, tolerance: Fraction = ZERO) -> PtConditionReport:
    """Verify that the slot priors equal the prior-weighted slot marginals.

    For each slot i and mode y:  sum_x r(x) p(x -> (i, y)) = |p|(i) * s_i(y).
    Slots of zero aggregate weight are reported as violations, since their
    priors would be unconstrained.  The report carries each slot's aggregate
    weight |p|(i), from the same single pass over the stored entries.

    The marginals are integer numerators over one denominator ``c``.  Row x
    of lcm ``d`` adds r(x)/d, reduced, times its integer entries p * d, so
    a prior that cancels a row's denominators keeps ``c`` small; each
    marginal is compared with |p|(i) s_i(y) by cross-multiplying.
    """
    probs = k.source_prior.probs
    rows: dict[str, list[tuple[str, str, int, int]]] = {}
    for (x, i, y), p in k.kernel.entries.items():
        if x in probs:
            rows.setdefault(x, []).append((i, y, p.numerator, p.denominator))
    weighted: list[tuple[int, int, int, list]] = []
    for x, row in rows.items():
        q, d = probs[x], lcm(*[e for _, _, _, e in row])
        g = gcd(q.numerator, d)
        weighted.append((q.numerator // g, q.denominator * (d // g), d, row))
    c = lcm(*[qd for _, qd, _, _ in weighted])
    marginals: dict[str, dict[str, int]] = {l: {} for l, _ in k.kernel.slots}
    for qn, qd, d, row in weighted:
        f = qn * (c // qd)
        for i, y, n, e in row:
            masses = marginals[i]
            masses[y] = masses.get(y, 0) + f * n * (d // e)
    aggregate: list[tuple[str, Fraction]] = []
    violations: list[str] = []
    max_res = ZERO
    zero_fails = tolerance < 0  # a zero residual exceeds only such a one
    for label, ms in k.kernel.slots:
        masses = marginals[label]
        w = sum(masses.values())
        weight = Fraction(w, c)
        aggregate.append((label, weight))
        if not w:
            violations.append(f"slot {label} has zero aggregate weight")
            continue
        s = k.slot_priors.get(label)
        if s is None:
            violations.append(f"slot {label} has no prior")
            continue
        for y in ms.modes:
            sy = s[y]
            lhs = masses.get(y, 0)
            # |lhs/c - (w/c) sy| over the denominator c * sy.denominator
            diff = abs(lhs * sy.denominator - w * sy.numerator)
            failed = zero_fails
            if diff:
                res = Fraction(diff, c * sy.denominator)
                if res > max_res:
                    max_res = res
                failed = res > tolerance
            if failed:
                violations.append(
                    f"slot {label}, mode {y}: marginal "
                    f"{format_exact(Fraction(lhs, c))} != "
                    f"{format_exact(weight)} * {format_exact(sy)}")
    return PtConditionReport(not violations, max_res, tuple(violations),
                             tuple(aggregate))


def aggr(k: PtKernel) -> Distribution:
    """The aggregate slot distribution of a pointed kernel."""
    return Distribution(pt_condition(k).aggregate)


def compose_pt(p: PtKernel, qs: Mapping[str, PtKernel]) -> PtKernel:
    """Compose pointed kernels; inner source priors must match the slot priors."""
    priors = graft(p.slot_priors.items(),
                   {l: q.slot_priors.items() for l, q in qs.items()})
    for label, q in qs.items():
        if not q.source_prior.same_as(p.slot_priors[label]):
            raise ValidationError(
                f"slot {label!r}: inner source prior does not match slot prior")
    kernel = compose_kernel(p.kernel, {l: q.kernel for l, q in qs.items()})
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
    """Empty string when equal after relabeling a's slots, else a description.
    ``relabel`` is one-to-one; entries are scanned only if stored ones differ."""
    if not a.source_prior.same_as(b.source_prior):
        return "source priors differ"
    same = b.kernel.entries == {(x, relabel[i], y): p for (x, i, y), p
                                in a.kernel.entries.items()}
    b_slots = dict(b.kernel.slots)
    for label, ms in a.kernel.slots:
        other = relabel[label]
        if other not in b_slots:
            return f"slot {label} has no counterpart {other}"
        if set(ms.modes) != set(b_slots[other].modes):
            return f"slot {label} ~ {other}: mode sets differ"
        if not a.slot_priors[label].same_as(b.slot_priors[other]):
            return f"slot {label} ~ {other}: slot priors differ"
        for x in () if same else a.kernel.source.modes:
            for y in ms.modes:
                pa, pb = a.kernel(x, label, y), b.kernel(x, other, y)
                if abs(pa - pb) > tolerance:
                    return (f"entry ({x} -> {label}.{y}): "
                            f"{format_exact(pa)} vs {format_exact(pb)}")
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
    errors += [f"no prior for boundary {name}" for name in pres.boundaries
               if name not in S.priors]
    errors += [f"no kernel for generator {name}" for name in pres.generators
               if name not in S.kernels]
    if errors:
        return CheckReport("lifting check", (), tuple(errors))

    rows: list[LiftingRow] = []
    for name in pres.generators:
        k = S.pt_kernel(pres, name)
        cond = pt_condition(k, tolerance)
        rows.append(LiftingRow(
            f"{name}: pointed-kernel condition", cond.holds,
            "; ".join(cond.violations)))
        got, want = dict(cond.aggregate), P[name]
        ok = set(got) == set(want.labels) and all(
            abs(got[l] - p) <= tolerance for l, p in want.entries)
        rows.append(LiftingRow(
            f"{name}: aggregate matches probability functor", ok,
            "" if ok else f"aggr {Distribution(cond.aggregate)} vs {want}"))
        got_rel = supp(k.kernel)
        want_rel = M.relation_of(name)
        diffs = []
        for slot in dict.fromkeys([*got_rel.pairs, *want_rel.pairs]):
            g, w = got_rel.slot(slot), want_rel.slot(slot)
            diffs += [f"{slot}: extra pair {pair}" for pair in sorted(g - w)]
            diffs += [f"{slot}: missing pair {pair}" for pair in sorted(w - g)]
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
    An observed mode unknown to the root's kernel raises before any fold.
    """
    check_term(pres, t)
    root = lookup(S.kernels, t.generator, "no kernel for generator {!r}")
    _check_mode(root.source, observed_root_mode)
    k = S.fold(pres, t)
    return Distribution(tuple(
        (f"{label}.{y}", k.kernel(observed_root_mode, label, y))
        for label, ms in k.kernel.slots for y in ms.modes))


def format_posterior(d: Distribution) -> str:
    lines = ["posterior:"]
    for label, p in sorted(d.entries, key=lambda e: (-e[1], e[0])):
        lines.append(f"  {label}: {format_probability(p)}")
    return "\n".join(lines)
