"""Typed port-graph architectures and their operadic composition.

An architecture is a box with named input slots (each carrying a boundary,
i.e. a typed port list), an output boundary, and a set of typed hyperwires
partitioning the ports.  Substituting architectures into slots glues wires
along the shared intermediate ports; the result is again an architecture.
"""
from __future__ import annotations

from collections import Counter
from itertools import count, repeat
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
    """Raised when a filler's output is not its slot's boundary."""


class Value:
    """Base of the value classes: an instance equals one of its own class
    with equal slots, never a tuple or another class, and hashes as the
    tuple of its slots."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the fields a class names, or else its slots but those whose name
        # starts with ``_``, which are derived from the others
        cls._fields = vars(cls).get("_fields") or tuple(
            s for s in cls.__slots__ if s[0] != "_")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other is self or all(
            getattr(self, s) == getattr(other, s) for s in self._fields)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, s) for s in self._fields))

    def __getnewargs__(self) -> tuple:
        # copy and pickle pass these to ``__new__``, which checks them in
        # the classes that give their constructors a private path
        return tuple(getattr(self, s) for s in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(repr(getattr(self, s)) for s in self._fields)
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

    def least(self) -> PortRef:
        """The least port, by which wires sort."""
        return min(self.ports)

    def sorted_ports(self) -> tuple[PortRef, ...]:
        return tuple(sorted(self.ports))

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.sorted_ports()) + "}:" + self.type

    def to_dict(self) -> dict:
        return {"ports": [str(p) for p in self.sorted_ports()],
                "type": self.type}


def wire(refs: Iterable[PortRef], type: str) -> Wire:
    return Wire(frozenset(refs), type)


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
    port reference, so equality ignores the order the wires were given in.
    ``_table`` holds them as a wire id per port in :meth:`port_types` order
    (-1: unwired, ids numbered by first occurrence) and each id's type; it
    is built as the architecture is, which refuses a port on two wires or
    an unknown port.  ``wires`` is built from it on first read, and
    ``_checked`` is set once the wiring is known canonical."""

    __slots__ = ("inputs", "output", "_wires", "_boundary_of", "_table",
                 "_checked")
    _fields = ("inputs", "output", "wires")

    def __new__(cls, inputs: tuple[tuple[str, Boundary], ...],
                output: Boundary, wires: tuple[Wire, ...]) -> Architecture:
        wires = tuple(sorted((w for w in wires if w.ports), key=Wire.least))
        self = cls._new(inputs, output, wires)
        wire_of = {r: i for i, w in enumerate(wires) for r in w.ports}
        if len(wire_of) < sum(len(w.ports) for w in wires):
            raise _wire_error(self)  # a port on two wires
        return set_table(self, wire_of, [w.type for w in wires])

    @classmethod
    def _new(cls, inputs: tuple[tuple[str, Boundary], ...], output: Boundary,
             wires: tuple[Wire, ...] | None = None, table: tuple | None = None,
             checked: bool = False) -> Architecture:
        """From the labels and a table, or with it left to :func:`set_table`
        (``wires``, if given, in normal form): checks only the labels."""
        self = object.__new__(cls)
        self.inputs, self.output = inputs, output
        self._wires, self._table, self._checked = wires, table, checked
        # derived from the labels, which equality compares already
        self._boundary_of = dict(inputs)
        if len(self._boundary_of) != len(inputs):
            raise ValidationError("duplicate slot labels")
        return self

    @property
    def wires(self) -> tuple[Wire, ...]:
        if self._wires is None:
            self._wires = _wires_of(self.port_types(), self._table)
        return self._wires

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
        :class:`PortRef` hashes and equals; built anew on each read."""
        return {(s, p): b.port_type[p] for s, b in (
            *self.inputs, (None, self.output)) for p in b.ports}

    def describe(self) -> str:
        """Deterministic textual rendering of the architecture."""
        ins = ", ".join(f"{s}: {b.name}" for s, b in self.inputs)
        lines = [f"({ins}) -> {self.output.name}"]
        for w in self.wires:
            lines.append("  " + str(w))
        return "\n".join(lines)


def set_table(arch: Architecture, wire_of: dict, types: list) -> Architecture:
    """Give ``arch`` the table of ``wire_of``, each wired port's wire id (it
    is emptied), and ``types``, each id's type; an unknown port raises."""
    ports = list(map(wire_of.pop, arch.port_types(), repeat(-1)))
    if wire_of:
        raise _wire_error(arch)
    arch._table = _renumbered(ports, types)
    return arch


def _renumbered(ports: list[int], types: list[str]) -> tuple:
    """The table, ids renumbered by first occurrence and unused ids dropped."""
    order = [*dict.fromkeys([-1, *ports])]  # -1 first, to stay -1
    new = dict(zip(order, count(-1)))
    return list(map(new.__getitem__, ports)), [types[i] for i in order[1:]]


def _wires_of(refs: Iterable[tuple], table: tuple) -> tuple[Wire, ...]:
    """The wires of a table over the ports ``refs``, in normal form."""
    ports, types = table
    members: list[list[tuple]] = [[] for _ in range(len(types) + 1)]
    for ref, i in zip(refs, ports):
        members[i].append(ref)  # an unwired port to the last, left out
    return tuple(sorted((Wire(frozenset(map(PortRef._make, m)), t)
                         for m, t in zip(members, types)), key=Wire.least))


def canonicalize(arch: Architecture) -> Architecture:
    """Check that the wires form a typed partial partition, and return ``arch``.

    Raises if a wire mixes interface types; the constructor refused a port
    on two wires or an unknown port already.  Ports attached to no wire are
    permitted here; use :func:`validate` to insist on total wiring.  A
    success marks ``arch`` checked, and a checked one is not checked again."""
    if not arch._checked:
        ports, types = arch._table
        want = list(arch.port_types().values())
        # in C first, where an unwired port reads as ``None`` and differs too
        if list(map([*types, None].__getitem__, ports)) != want and any(
                i >= 0 and types[i] != t for i, t in zip(ports, want)):
            raise _wire_error(arch)
        arch._checked = True
    return arch


def _wire_error(arch: Architecture) -> ValidationError:
    """The error for the first ill-formed wire in normal order, named by its
    least offending port so that it does not depend on set iteration order."""
    port_type, seen = arch.port_types(), set()
    for w in arch.wires:
        bad = [r for r in w.ports if r in seen or port_type.get(r) != w.type]
        if bad:
            ref = min(bad)
            t = port_type.get(ref)
            return ValidationError(
                f"unknown port reference {ref}" if t is None else
                f"port {ref} attached to two wires" if ref in seen else
                f"wire {w} contains port {ref} of type {t!r}")
        seen.update(w.ports)
    raise AssertionError("no ill-formed wire")


def validate(arch: Architecture) -> Architecture:
    """Canonicalize; also require every port wired, a slot port alone on its
    wire counting as unwired, and every wire to hold a slot port."""
    ports, types = canonicalize(arch)._table
    size = Counter(ports)  # each wire id's number of ports
    if -1 in size or 1 in size.values():
        names = ", ".join(str(PortRef(*r)) for r, i in zip(arch.port_types(),
                          ports) if i < 0 or size[i] == 1 and r[0] is not None)
        if names:
            raise ValidationError(f"unwired ports: {names}")
    if len(set(ports[:len(ports) - len(arch.output.ports)])) < len(types):
        w = next(w for w in arch.wires if {r.slot for r in w.ports} == {None})
        raise ValidationError(f"wire {w} has no slot ports")
    return arch


def identity(b: Boundary) -> Architecture:
    """The identity architecture on a boundary: inner ports wired straight through."""
    table = ([*range(len(b.ports))] * 2, [b.port_type[p] for p in b.ports])
    return Architecture._new(((b.name.lower(), b),), b, table=table)


def is_identity(arch: Architecture) -> bool:
    if len(arch.inputs) != 1 or arch.inputs[0][1] != arch.output:
        return False
    # slot port j and outer port j alone on wire j
    return arch._table[0] == [*range(len(arch.output.ports))] * 2


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
    Composite slots are labeled ``outerslot.innerslot``.  The outer
    architecture and each filler composed are canonicalized first, unless
    checked already, so an ill-formed wire is named in its own input's
    labels; the result, whose glued wires then share a type, is checked."""
    subst: dict[str, Architecture] = {}
    for slot, g in inner.items():
        outer_arch.check_fill(slot, g.output)
        if not is_identity(g):
            subst[slot] = g
    for arch in (outer_arch, *subst.values()):
        if not arch._checked:
            canonicalize(arch)

    # One union-find over wire ids: the outer table's, then each filler's
    # shifted past those and past an id standing for its -1.  Port j of a
    # filled slot meets port j of its filler's output, of its type (``check_fill``).
    ports, types = outer_arch._table
    types, parent = [*types], [*range(len(types))]
    joined, kept = [], []  # ids given a parent; a wire id per result port
    start = 0
    for slot, b in outer_arch.inputs:
        end = start + len(b.ports)
        g = subst.get(slot)
        if g is None:
            kept += ports[start:end]
        else:
            inner_ports, inner_types = g._table
            shift = len(types) + 1
            types += ["", *inner_types]
            parent += [-1, *range(shift, len(types))]
            cut = len(inner_ports) - (end - start)
            kept += map(shift.__add__, inner_ports[:cut])
            for i, j in zip(ports[start:end], inner_ports[cut:]):
                if i < 0 or j < 0:
                    continue
                j += shift
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]  # path halving
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if i != j:
                    parent[j] = i
                    joined.append(j)
        start = end
    kept += ports[start:]
    for i in reversed(joined):  # each root was joined after its children
        parent[i] = parent[parent[i]]
    parent.append(-1)  # the outer table's unwired ports

    inputs = graft(outer_arch.inputs, {s: g.inputs for s, g in subst.items()})
    return Architecture._new(inputs, outer_arch.output, table=_renumbered(
        list(map(parent.__getitem__, kept)), types), checked=True)


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
    """Compare canonical architectures up to the given slot relabeling: on
    tables, ``a``'s permuted into ``b``'s port order; wires only for a diff."""
    check_correspondence(dict(a.inputs), dict(b.inputs), corr)
    if a.output != b.output:
        return EqualityReport(False, reason=(
            f"output boundaries differ: {a.output.name} vs {b.output.name}"))
    ports, types = a._table
    spans, start = {}, 0
    for slot, bd in a.inputs:
        spans[corr.mapping[slot]] = ports[start:start + len(bd.ports)]
        start += len(bd.ports)
    left, right = _renumbered([i for s, _ in b.inputs for i in spans[s]]
                              + ports[start:], types), b._table
    if left == right:
        return EqualityReport(True)
    lw, rw = (set(_wires_of(b.port_types(), t)) for t in (left, right))
    return EqualityReport(False, tuple(sorted(lw - rw, key=Wire.least)),
                          tuple(sorted(rw - lw, key=Wire.least)))


def derive_correspondence(a: Architecture,
                          b: Architecture) -> ComponentCorrespondence:
    """Match slots by boundary name, when each boundary occurs at most once per side."""
    by_name_a, by_name_b = {}, {}  # boundary name -> slots
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
