"""Typed port-graph architectures and their operadic composition.

An architecture is a box with named input slots (each carrying a boundary,
i.e. a typed port list), an output boundary, and a set of typed hyperwires
partitioning the ports.  Substituting architectures into slots glues wires
along the shared intermediate ports; the result is again an architecture.
"""
from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar

PHYSICAL = "physical"
DIGITAL = "digital"

K = TypeVar("K")
V = TypeVar("V")


class PortGraphError(Exception):
    """Raised for malformed port-graph data."""


class ValidationError(PortGraphError):
    """Raised when a value violates a structural invariant."""


class CompositionError(PortGraphError):
    """Raised when a substitution is ill-typed."""


class Value:
    """Base of the value classes: an instance equals one of its own class
    with equal slots, never a tuple or another class, and hashes as the
    tuple of its slots."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other is self or all(
            getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, s) for s in self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(repr(getattr(self, s)) for s in self.__slots__)
        return f"{type(self).__name__}({fields})"


class TypeTable(Value):
    """Interface types together with their physical/digital kind."""

    __slots__ = ("kinds",)

    def __init__(self, kinds: Mapping[str, str]) -> None:
        self.kinds = kinds
        for name, kind in kinds.items():
            if kind not in (PHYSICAL, DIGITAL):
                raise ValidationError(
                    f"interface {name!r} has unknown kind {kind!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.kinds


class PortRef(NamedTuple):
    """A reference to a slot port (``slot.port``) or an outer port.

    Outer ports have ``slot is None`` and sort before all slot ports.
    """

    slot: str | None
    port: str

    def __str__(self) -> str:
        return self.port if self.slot is None else f"{self.slot}.{self.port}"

    def __lt__(self, other: "PortRef") -> bool:  # type: ignore[override]
        return (self.slot or "", self.port) < (other.slot or "", other.port)


def outer(port: str) -> PortRef:
    return PortRef(None, port)


def at(slot: str, port: str) -> PortRef:
    return PortRef(slot, port)


class Boundary(Value):
    """A named, ordered set of typed ports."""

    __slots__ = ("name", "ports", "port_type")

    def __init__(self, name: str, ports: tuple[str, ...],
                 port_type: Mapping[str, str]) -> None:
        self.name, self.ports, self.port_type = name, ports, port_type
        if len(set(ports)) != len(ports):
            raise ValidationError(f"boundary {name}: duplicate ports")
        for p in ports:
            if p not in port_type:
                raise ValidationError(
                    f"boundary {name}: port {p!r} has no type")


def boundary(name: str, **ports: str) -> Boundary:
    """Shorthand constructor: ``boundary("Bath", heat="heat", setPt="setPt")``."""
    return Boundary(name, tuple(ports), dict(ports))


class Wire(Value):
    """A typed hyperwire: a set of port references sharing one type."""

    __slots__ = ("ports", "type")

    def __init__(self, ports: frozenset[PortRef], type: str) -> None:
        self.ports, self.type = ports, type

    def sorted_ports(self) -> tuple[PortRef, ...]:
        return tuple(sorted(self.ports))

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.sorted_ports()) + "}:" + self.type

    def to_dict(self) -> dict:
        return {"ports": [str(p) for p in self.sorted_ports()],
                "type": self.type}


def wire(refs: Iterable[PortRef], type: str) -> Wire:
    return Wire(frozenset(refs), type)


def _least_port(w: Wire) -> tuple[str, str]:
    """A wire's least port as a plain ``(slot or "", port)`` tuple: the
    sort key of wires, ordering them as ``min(w.ports)`` does, but compared
    in C rather than by :meth:`PortRef.__lt__`."""
    return min([(slot or "", port) for slot, port in w.ports])


def lookup(table: Mapping[K, V], key: K, message: str) -> V:
    """``table[key]``, or a :class:`ValidationError` saying
    ``message.format(key)``, formatted only on a miss."""
    try:
        return table[key]
    except KeyError:
        raise ValidationError(message.format(key)) from None


class Architecture(Value):
    """A port-graph operation: input slots, output boundary, hyperwires.

    Built in normal form, empty wires dropped and the rest sorted by least
    port reference, so equality ignores the order the wires were given in."""

    __slots__ = ("inputs", "output", "wires", "_boundary_of")

    def __init__(self, inputs: tuple[tuple[str, Boundary], ...],
                 output: Boundary, wires: tuple[Wire, ...]) -> None:
        self.inputs, self.output = inputs, output
        # derived from ``inputs``, so that equality comparing it changes nothing
        self._boundary_of = dict(inputs)
        if len(self._boundary_of) != len(inputs):
            raise ValidationError("duplicate slot labels")
        self.wires = tuple(sorted((w for w in wires if w.ports),
                                  key=_least_port))

    @property
    def slots(self) -> tuple[str, ...]:
        return tuple(self._boundary_of)

    def slot_boundary(self, slot: str) -> Boundary:
        return lookup(self._boundary_of, slot, "unknown slot {!r}")

    def check_fill(self, slot: str, output: Boundary) -> None:
        """Require a filler of ``slot`` to have the slot's boundary as output."""
        b = self.slot_boundary(slot)
        if output != b:
            raise CompositionError(
                f"slot {slot!r} expects boundary {b.name}, got {output.name}")

    def port_types(self) -> dict[tuple[str | None, str], str]:
        """The type of every port: slot ports in slot order, then the outer
        ports, keyed by plain ``(slot, port)`` tuples, which a
        :class:`PortRef` hashes and equals."""
        types = {(s, p): b.port_type[p]
                 for s, b in self.inputs for p in b.ports}
        types.update(((None, p), self.output.port_type[p])
                     for p in self.output.ports)
        return types

    def describe(self) -> str:
        """Deterministic textual rendering of the architecture."""
        ins = ", ".join(f"{s}: {b.name}" for s, b in self.inputs)
        lines = [f"({ins}) -> {self.output.name}"]
        for w in self.wires:
            lines.append("  " + str(w))
        return "\n".join(lines)


def canonicalize(arch: Architecture) -> Architecture:
    """Check that the wires form a typed partial partition, and return ``arch``.

    Raises if a port is attached to two wires, a wire mentions an unknown
    port, or a wire mixes interface types.  Ports attached to no wire are
    permitted here; use :func:`validate` to insist on total wiring.
    """
    # a wire pops its ports, so a port on an earlier wire is missing too
    pop = arch.port_types().pop
    for i, w in enumerate(arch.wires):
        for ref in w.ports:
            if pop(ref, None) != w.type:
                raise _wire_error(w, arch.port_types(), {
                    r for v in arch.wires[:i] for r in v.ports})
    return arch


def _wire_error(w: Wire, port_type: Mapping, seen: set) -> ValidationError:
    """The error for an ill-formed wire, named by its least offending port
    so that it does not depend on set iteration order."""
    ref = min(r for r in w.ports if port_type.get(r) != w.type or r in seen)
    t = port_type.get(ref)
    if t is None:
        return ValidationError(f"unknown port reference {ref}")
    if ref in seen:
        return ValidationError(f"port {ref} attached to two wires")
    return ValidationError(f"wire {w} contains port {ref} of type {t!r}")


def validate(arch: Architecture) -> Architecture:
    """Canonicalize and additionally require every port to be wired: a count,
    since canonical wires hold distinct known ports."""
    canon = canonicalize(arch)
    ports = len(canon.output.ports) + sum(len(b.ports) for _, b in canon.inputs)
    if sum(len(w.ports) for w in canon.wires) != ports:
        wired = {ref for w in canon.wires for ref in w.ports}
        missing = [PortRef(*ref) for ref in canon.port_types()
                   if ref not in wired]
        names = ", ".join(str(r) for r in missing)
        raise ValidationError(f"unwired ports: {names}")
    return canon


def identity(b: Boundary) -> Architecture:
    """The identity architecture on a boundary: inner ports wired straight through."""
    slot = b.name.lower()
    wires = tuple(
        Wire(frozenset({PortRef(slot, p), PortRef(None, p)}), b.port_type[p])
        for p in b.ports)
    return Architecture(((slot, b),), b, wires)


def is_identity(arch: Architecture) -> bool:
    if len(arch.inputs) != 1 or arch.inputs[0][1] != arch.output:
        return False
    slot, b = arch.inputs[0]
    expected = {frozenset({PortRef(slot, p), PortRef(None, p)}) for p in b.ports}
    return {w.ports for w in arch.wires} == expected


def graft(outer: Iterable[tuple[str, V]],
          inner: Mapping[str, Iterable[tuple[str, V]]],
          combine: Callable[[V, V], V] | None = None
          ) -> tuple[tuple[str, V], ...]:
    """The slot list of a substitution, the one rule every semantics shares.

    Each outer ``(slot, value)`` is kept, or, where ``inner`` fills the slot,
    replaced by the inner ``(sub, v)`` pairs labeled ``slot.sub``, each
    valued ``combine(value, v)`` when ``combine`` is given.  A key of
    ``inner`` naming no outer slot is an error.
    """
    out: list[tuple[str, V]] = []
    filled: list[str] = []
    for slot, value in outer:
        sub = inner.get(slot)
        if sub is None:
            out.append((slot, value))
        else:
            filled.append(slot)
            out.extend((f"{slot}.{s}", v if combine is None
                        else combine(value, v)) for s, v in sub)
    if len(filled) != len(inner):
        stray = next(s for s in inner if s not in filled)
        raise ValidationError(f"unknown slot {stray!r} in composition")
    return tuple(out)


def compose(outer_arch: Architecture,
            inner: Mapping[str, Architecture]) -> Architecture:
    """Substitute inner architectures into slots of the outer one.

    Slots absent from ``inner`` (or filled with an identity) are left alone.
    Wires of the result are the connected components of inner and outer
    wires glued along the shared intermediate ports, which are deleted.
    Composite slots are labeled ``outerslot.innerslot``.  A port that an
    input puts on two wires is refused."""
    subst: dict[str, Architecture] = {}
    for slot, g in inner.items():
        outer_arch.check_fill(slot, g.output)
        if not is_identity(g):
            subst[slot] = g

    # Only deleted ports, ``(slot, port)`` of a substituted slot, glue wires;
    # other wires pass, relabeled.  A deleted port remembers the first wire
    # carrying it, and a union-find over ``glued`` joins a later one to it.
    # (Plain loops: on wires of two or three ports they beat comprehensions.)
    wires: list[Wire] = []
    glued: list[tuple[str, list[PortRef], list[tuple[str, str]]]] = []
    for w in outer_arch.wires:
        refs, mids = [], []
        for r in w.ports:
            (mids if r.slot in subst else refs).append(r)
        if mids:
            glued.append((w.type, refs, mids))
        else:
            wires.append(w)
    for slot, g in subst.items():
        prefix = slot + "."
        for w in g.wires:
            refs, mids = [], []
            for s, p in w.ports:
                if s is None:
                    mids.append((slot, p))
                else:
                    refs.append(PortRef(prefix + s, p))
            if mids:
                glued.append((w.type, refs, mids))
            else:
                wires.append(Wire(frozenset(refs), w.type))

    parent = list(range(len(glued)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    first: dict[tuple[str, str], int] = {}
    for i, (_, _, mids) in enumerate(glued):
        for node in mids:
            j = first.setdefault(node, i)
            if j != i:
                parent[root(i)] = root(j)

    # every wire's type must be the type of its glued component
    members: dict[int, tuple[str, list[PortRef]]] = {}
    for i, (wtype, refs, _) in enumerate(glued):
        t, component = members.setdefault(root(i), (wtype, []))
        if t != wtype:
            raise CompositionError(
                f"type conflict among glued wires: {t!r} vs {wtype!r}")
        component += refs
    wires += [Wire(frozenset(refs), t) for t, refs in members.values() if refs]

    inputs = graft(outer_arch.inputs, {s: g.inputs for s, g in subst.items()})
    return canonicalize(Architecture(inputs, outer_arch.output, tuple(wires)))


class ComponentCorrespondence(Value):
    """A boundary-preserving bijection between the slots of two architectures."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[str, str]) -> None:
        self.mapping = mapping


class EqualityReport(NamedTuple):
    """Outcome of comparing two canonical architectures."""

    equal: bool
    only_left: tuple[Wire, ...] = ()
    only_right: tuple[Wire, ...] = ()
    reason: str = ""

    def __str__(self) -> str:
        if self.equal:
            return "equal"
        lines = ["not equal"]
        if self.reason:
            lines.append("  " + self.reason)
        for w in self.only_left:
            lines.append(f"  only left:  {w}")
        for w in self.only_right:
            lines.append(f"  only right: {w}")
        return "\n".join(lines)


def check_correspondence(left: Mapping[str, object],
                         right: Mapping[str, object],
                         corr: ComponentCorrespondence) -> None:
    """Require a bijection from the left slots onto the right slots that
    preserves their boundaries (slot -> boundary in ``left`` and ``right``)."""
    if set(corr.mapping) != set(left):
        raise ValidationError("correspondence is not total on left slots")
    if set(corr.mapping.values()) != set(right) or \
            len(set(corr.mapping.values())) != len(corr.mapping):
        raise ValidationError("correspondence is not a bijection onto right slots")
    for sa, sb in corr.mapping.items():
        if left[sa] != right[sb]:
            raise ValidationError(
                f"correspondence {sa} ~ {sb} does not preserve boundaries")


def equal(a: Architecture, b: Architecture,
          corr: ComponentCorrespondence) -> EqualityReport:
    """Compare canonical architectures up to the given slot relabeling."""
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
    only_l = tuple(sorted((Wire(p, t) for p, t in left - right),
                          key=_least_port))
    only_r = tuple(sorted((Wire(p, t) for p, t in right - left),
                          key=_least_port))
    return EqualityReport(False, only_l, only_r)


def derive_correspondence(a: Architecture,
                          b: Architecture) -> ComponentCorrespondence:
    """Match slots by boundary name, when each boundary occurs at most once per side."""
    by_name_a: dict[str, list[str]] = {}
    by_name_b: dict[str, list[str]] = {}
    for arch, by_name in ((a, by_name_a), (b, by_name_b)):
        for s, bd in arch.inputs:
            by_name.setdefault(bd.name, []).append(s)
    if set(by_name_a) != set(by_name_b):
        raise ValidationError(
            "cannot auto-match components: boundary sets differ "
            f"({sorted(by_name_a)} vs {sorted(by_name_b)})")
    mapping = {}
    for name, slots_a in by_name_a.items():
        slots_b = by_name_b[name]
        if len(slots_a) != 1 or len(slots_b) != 1:
            raise ValidationError(
                f"cannot auto-match components: boundary {name} is ambiguous")
        mapping[slots_a[0]] = slots_b[0]
    return ComponentCorrespondence(mapping)
