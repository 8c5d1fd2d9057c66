"""Textual model format (``.opm``): parsing and canonical serialization.

Grammar (line-oriented only by convention; whitespace and newlines are
interchangeable, ``#`` starts a comment):

    interface <name> (physical|digital)
    boundary <Name> { <port>: <type>, ... }
    architecture <name> : (<slot>: <Boundary>, ...) -> <Boundary> {
        wire <slot>.<port> = <slot>.<port> [= ...]
        expose <slot>.<port> -> <outerPort>
    }
    equation <term> = <term> [matching { <slotPath> ~ <slotPath>, ... }]
    prob <Name> { <generator> = (<slot>: <rational>, ...) ... }
    modes <Name> {
        modes <Boundary> = { <mode> ... }
        rel <generator> { <slot>.<mode> -> <mode> ... }
    }
    stoch <Name> {
        prior <Boundary> = (<mode>: <rational>, ...)
        kernel <generator> { <mode> -> <slot>.<mode>: <rational> ... }
    }

Rationals are ``a/b``, integers, or finite decimals (converted exactly).
A free-standing ``<term>`` (as given on the command line) uses the same
grammar, without resolving generator or slot names.
Internal ports not mentioned by any wire or expose are automatically exposed
to an identically named external port when that match is unique.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Container, NamedTuple, TypeVar

from .modes import ModeFunctor, ModeRelation, ModeSet
from .portgraph import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    PortRef,
    TypeTable,
    ValidationError,
    Wire,
    canonicalize,
)
from .presentation import (
    CoherenceEquation,
    OperadPresentation,
    Term,
    TermSyntaxError,
)
from .prob import Distribution, ProbFunctor
from .stoch import Kernel, Point, StochFunctor

T = TypeVar("T")


class DslError(TermSyntaxError):
    """A parse or resolution error with a source location."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Model:
    """A fully resolved model document."""

    presentation: OperadPresentation
    prob_functors: dict[str, ProbFunctor] = field(default_factory=dict)
    mode_functors: dict[str, ModeFunctor] = field(default_factory=dict)
    stoch_functors: dict[str, StochFunctor] = field(default_factory=dict)


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}()\[\]:,=~./])
  | (?P<bad>.)
""", re.VERBOSE)


class _Token(NamedTuple):
    kind: str  # "ident" | "number" | "punct" | "arrow" | "eof"
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: offset of the current line
    for m in _TOKEN_RE.finditer(text):
        kind, start = m.lastgroup, m.start()
        if kind == "ws":
            newlines = text.count("\n", start, m.end())
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, m.end()) + 1
        elif kind == "bad":
            raise DslError(f"unexpected character {m.group()!r}",
                           line, start - line_start + 1)
        elif kind != "comment":
            tokens.append(_Token(kind, m.group(), line, start - line_start + 1))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.type_table: dict[str, str] = {}
        self.boundaries: dict[str, Boundary] = {}
        self.generators: dict[str, Architecture] = {}
        self.equations: list[CoherenceEquation] = []
        self.prob_functors: dict[str, ProbFunctor] = {}
        self.mode_functors: dict[str, ModeFunctor] = {}
        self.stoch_functors: dict[str, StochFunctor] = {}

    # token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> DslError:
        tok = tok or self.peek()
        return DslError(message, tok.line, tok.col)

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            raise self.error(f"expected {value!r}, got {tok.value!r}", tok)
        return tok

    def ident(self, what: str = "identifier") -> _Token:
        tok = self.next()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, got {tok.value!r}", tok)
        return tok

    def at(self, value: str) -> bool:
        return self.peek().value == value

    def accept(self, value: str) -> bool:
        """Consume the next token if it is ``value``."""
        if self.at(value):
            self.pos += 1
            return True
        return False

    def rational(self) -> Fraction:
        tok = self.next()
        if tok.kind != "number":
            raise self.error(f"expected a number, got {tok.value!r}", tok)
        value = Fraction(tok.value)  # exact, also for decimal literals
        if self.accept("/"):
            den = self.next()
            if den.kind != "number" or "." in den.value:
                raise self.error("expected an integer denominator", den)
            if int(den.value) == 0:
                raise self.error("zero denominator", den)
            value = value / Fraction(den.value)
        return value

    # resolving helpers: read a name and check it, located at its token ----

    def boundary(self) -> Boundary:
        tok = self.ident("boundary name")
        b = self.boundaries.get(tok.value)
        if b is None:
            raise self.error(f"unknown boundary {tok.value!r}", tok)
        return b

    def generator(self) -> tuple[_Token, Architecture]:
        tok = self.ident("generator name")
        arch = self.generators.get(tok.value)
        if arch is None:
            raise self.error(f"unknown generator {tok.value!r}", tok)
        return tok, arch

    def slot(self, gen: str, slots: Container[str] | None) -> str:
        """A slot label of generator ``gen``; ``slots=None`` skips the check."""
        tok = self.ident("slot label")
        if slots is not None and tok.value not in slots:
            raise self.error(
                f"generator {gen} has no slot {tok.value!r}", tok)
        return tok.value

    def mode(self, modes: ModeSet | None) -> str:
        """A mode name, checked against ``modes`` unless it is None."""
        tok = self.ident("mode name")
        if modes is not None and tok.value not in modes:
            raise self.error(
                f"unknown mode {tok.value!r} on {modes.boundary}", tok)
        return tok.value

    def build(self, close: _Token, make: Callable[..., T], *args) -> T:
        """``make(*args)``, its validation error located at ``close``."""
        try:
            return make(*args)
        except ValidationError as exc:
            raise self.error(str(exc), close) from exc

    # top-level ----------------------------------------------------------

    def parse(self) -> Model:
        handlers = {
            "interface": self.parse_interface,
            "boundary": self.parse_boundary,
            "architecture": self.parse_architecture,
            "equation": self.parse_equation,
            "prob": self.parse_prob,
            "modes": self.parse_modes,
            "stoch": self.parse_stoch,
        }
        while (tok := self.peek()).kind != "eof":
            handler = handlers.get(tok.value)
            if handler is None:
                raise self.error(f"unexpected {tok.value!r}", tok)
            handler()
        pres = OperadPresentation(
            TypeTable(self.type_table), self.boundaries, self.generators,
            tuple(self.equations))
        return Model(pres, self.prob_functors, self.mode_functors,
                     self.stoch_functors)

    def parse_interface(self) -> None:
        self.expect("interface")
        name = self.ident("interface name")
        kind = self.ident("interface kind")
        if kind.value not in ("physical", "digital"):
            raise self.error("interface kind must be physical or digital", kind)
        if name.value in self.type_table:
            raise self.error(f"duplicate interface {name.value!r}", name)
        self.type_table[name.value] = kind.value

    def parse_boundary(self) -> None:
        self.expect("boundary")
        name = self.ident("boundary name")
        if name.value in self.boundaries:
            raise self.error(f"duplicate boundary {name.value!r}", name)
        self.expect("{")
        ports: list[str] = []
        port_type: dict[str, str] = {}
        while not self.at("}"):
            port = self.ident("port name")
            self.expect(":")
            ptype = self.ident("interface type")
            if ptype.value not in self.type_table:
                raise self.error(f"unknown interface {ptype.value!r}", ptype)
            if port.value in port_type:
                raise self.error(f"duplicate port {port.value!r}", port)
            ports.append(port.value)
            port_type[port.value] = ptype.value
            self.accept(",")
        self.expect("}")
        self.boundaries[name.value] = Boundary(
            name.value, tuple(ports), port_type)

    def parse_architecture(self) -> None:
        self.expect("architecture")
        name = self.ident("architecture name")
        if name.value in self.generators:
            raise self.error(f"duplicate architecture {name.value!r}", name)
        self.expect(":")
        self.expect("(")
        slots: dict[str, Boundary] = {}
        while not self.at(")"):
            slot = self.ident("slot label")
            self.expect(":")
            b = self.boundary()
            if slot.value in slots:
                raise self.error(f"duplicate slot {slot.value!r}", slot)
            slots[slot.value] = b
            self.accept(",")
        self.expect(")")
        self.expect("->")
        output = self.boundary()
        self.expect("{")

        # each wire is the list of its ports, first-named (typing) port first
        wires: list[list[PortRef]] = []
        wire_of: dict[PortRef, list[PortRef]] = {}

        def slot_ref(unwired: bool = False) -> PortRef:
            slot_tok = self.ident("slot label")
            b = slots.get(slot_tok.value)
            if b is None:
                raise self.error(f"unknown slot {slot_tok.value!r}", slot_tok)
            self.expect(".")
            port_tok = self.ident("port name")
            if port_tok.value not in b.port_type:
                raise self.error(
                    f"unknown port {port_tok.value} on {b.name}", port_tok)
            ref = PortRef(slot_tok.value, port_tok.value)
            if unwired and ref in wire_of:
                raise self.error(f"port {ref} attached to two wires", port_tok)
            return ref

        def join(refs: list[PortRef], w: list[PortRef] | None = None) -> None:
            """Add ``refs`` to wire ``w``, or to a new wire when it is None."""
            if w is None:
                w = []
                wires.append(w)
            w.extend(refs)
            wire_of.update(dict.fromkeys(refs, w))

        while not self.at("}"):
            kw = self.next()
            if kw.value == "wire":
                refs = [slot_ref(unwired=True)]
                self.expect("=")
                refs.append(slot_ref(unwired=True))
                while self.accept("="):
                    refs.append(slot_ref(unwired=True))
                join(refs)
            elif kw.value == "expose":
                ref = slot_ref()
                self.expect("->")
                port_tok = self.ident("outer port name")
                if port_tok.value not in output.port_type:
                    raise self.error(
                        f"unknown port {port_tok.value} on {output.name}",
                        port_tok)
                out_ref = PortRef(None, port_tok.value)
                if out_ref in wire_of:
                    raise self.error(
                        f"port {port_tok.value} exposed twice", port_tok)
                join([ref, out_ref], wire_of.get(ref))
            else:
                raise self.error(
                    f"expected 'wire' or 'expose', got {kw.value!r}", kw)
        close = self.expect("}")

        # unique-match auto-exposure of the remaining ports
        for port in output.ports:
            if PortRef(None, port) in wire_of:
                continue
            candidates = [PortRef(s, port) for s, b in slots.items()
                          if port in b.port_type
                          and PortRef(s, port) not in wire_of]
            if len(candidates) > 1:
                raise self.error(
                    f"architecture {name.value}: ambiguous auto-exposure of "
                    f"port {port} (candidates {', '.join(map(str, candidates))})",
                    close)
            if candidates:
                join([candidates[0], PortRef(None, port)])

        self.generators[name.value] = _build_architecture(slots, output, wires)

    # terms and equations --------------------------------------------------

    def parse_term(self, resolve: bool = True) -> Term:
        """A term; ``resolve`` checks its generator and slot names."""
        if resolve:
            gen, arch = self.generator()
            slots = arch.slots
        else:
            gen, slots = self.ident("generator name"), None
        children: dict[str, Term] = {}
        if self.accept("("):
            while True:
                tok = self.peek()
                slot = self.slot(gen.value, slots)
                if slot in children:
                    raise self.error(f"duplicate slot {slot!r}", tok)
                self.expect("->")
                children[slot] = self.parse_term(resolve)
                if not self.accept(","):
                    break
            self.expect(")")
        return Term(gen.value, tuple(children.items()))

    def parse_path(self) -> str:
        parts = [self.ident("path segment").value]
        while self.accept("."):
            parts.append(self.ident("path segment").value)
        return ".".join(parts)

    def parse_equation(self) -> None:
        self.expect("equation")
        lhs = self.parse_term()
        self.expect("=")
        rhs = self.parse_term()
        corr = None
        if self.accept("matching"):
            self.expect("{")
            mapping: dict[str, str] = {}
            while not self.at("}"):
                left = self.parse_path()
                self.expect("~")
                mapping[left] = self.parse_path()
                self.accept(",")
            self.expect("}")
            corr = ComponentCorrespondence(mapping)
        self.equations.append(CoherenceEquation(lhs, rhs, corr))

    # functor blocks -------------------------------------------------------

    def parse_prob(self) -> None:
        self.expect("prob")
        name = self.ident("functor name")
        self.expect("{")
        dists: dict[str, Distribution] = {}
        while not self.at("}"):
            gen, arch = self.generator()
            self.expect("=")
            self.expect("(")
            values: dict[str, Fraction] = {}
            while not self.at(")"):
                slot = self.slot(gen.value, arch.slots)
                self.expect(":")
                values[slot] = self.rational()
                self.accept(",")
            close = self.expect(")")
            dists[gen.value] = self.build(close, Distribution, tuple(
                (s, values[s]) for s in arch.slots if s in values))
            if set(values) != set(arch.slots):
                raise self.error(
                    f"distribution for {gen.value} does not cover all "
                    "slots", close)
        self.expect("}")
        self.prob_functors[name.value] = ProbFunctor(dists, name.value)

    def parse_modes(self) -> None:
        self.expect("modes")
        name = self.ident("functor name")
        self.expect("{")
        mode_sets: dict[str, ModeSet] = {}
        relations: dict[str, ModeRelation] = {}
        while not self.at("}"):
            kw = self.next()
            if kw.value == "modes":
                b = self.boundary()
                self.expect("=")
                self.expect("{")
                modes: list[str] = []
                while not self.at("}"):
                    modes.append(self.mode(None))
                    self.accept(",")
                close = self.expect("}")
                mode_sets[b.name] = self.build(
                    close, ModeSet, b.name, tuple(modes))
            elif kw.value == "rel":
                gen, arch = self.generator()
                out_modes = mode_sets.get(arch.output.name)
                self.expect("{")
                pairs: dict[str, set[tuple[str, str]]] = {
                    s: set() for s in arch.slots}
                while not self.at("}"):
                    slot = self.slot(gen.value, arch.slots)
                    self.expect(".")
                    mode_in = self.mode(
                        mode_sets.get(arch.slot_boundary(slot).name))
                    self.expect("->")
                    pairs[slot].add((mode_in, self.mode(out_modes)))
                    self.accept(",")
                self.expect("}")
                relations[gen.value] = ModeRelation(
                    {s: frozenset(v) for s, v in pairs.items()})
            else:
                raise self.error(
                    f"expected 'modes' or 'rel', got {kw.value!r}", kw)
        self.expect("}")
        self.mode_functors[name.value] = ModeFunctor(
            mode_sets, relations, name.value)

    def parse_stoch(self) -> None:
        self.expect("stoch")
        name = self.ident("functor name")
        self.expect("{")
        priors: dict[str, Point] = {}
        kernels: dict[str, Kernel] = {}
        while not self.at("}"):
            kw = self.next()
            if kw.value == "prior":
                b = self.boundary()
                self.expect("=")
                self.expect("(")
                modes: list[str] = []
                probs: dict[str, Fraction] = {}
                while not self.at(")"):
                    modes.append(self.mode(None))
                    self.expect(":")
                    probs[modes[-1]] = self.rational()
                    self.accept(",")
                close = self.expect(")")
                priors[b.name] = self.build(close, lambda: Point(
                    ModeSet(b.name, tuple(modes)), probs))
            elif kw.value == "kernel":
                gen, arch = self.generator()

                def prior_modes(bname: str) -> ModeSet:
                    p = priors.get(bname)
                    if p is None:
                        raise self.error(
                            f"kernel {gen.value}: no prior declared for "
                            f"{bname}", gen)
                    return p.modes

                source = prior_modes(arch.output.name)
                slots = tuple((s, prior_modes(b.name)) for s, b in arch.inputs)
                slot_modes = dict(slots)
                self.expect("{")
                entries: dict[tuple[str, str, str], Fraction] = {}
                while not self.at("}"):
                    x = self.mode(source)
                    self.expect("->")
                    slot = self.slot(gen.value, slot_modes)
                    self.expect(".")
                    y = self.mode(slot_modes[slot])
                    self.expect(":")
                    entries[(x, slot, y)] = self.rational()
                    self.accept(",")
                close = self.expect("}")
                kernels[gen.value] = self.build(
                    close, Kernel, source, slots, entries)
            else:
                raise self.error(
                    f"expected 'prior' or 'kernel', got {kw.value!r}", kw)
        self.expect("}")
        self.stoch_functors[name.value] = StochFunctor(
            priors, kernels, name.value)


def _build_architecture(slots: dict[str, Boundary], output: Boundary,
                        wires: list[list[PortRef]]) -> Architecture:
    """The architecture with these wires, each typed by its first port."""
    arch = Architecture(tuple(slots.items()), output, ())
    port_type = arch.port_types()
    arch = Architecture(arch.inputs, output, tuple(
        Wire(frozenset(refs), port_type[refs[0]]) for refs in wires))
    try:
        return canonicalize(arch)
    except ValidationError:
        # ill-typed wires are reported by compile, with more context
        return arch


def parse(text: str) -> Model:
    """Parse ``.opm`` text into a resolved model."""
    return _Parser(text).parse()


def parse_free_term(text: str) -> Term:
    """Parse a ``gen(slot->gen, ...)`` term on its own; names are not resolved."""
    parser = _Parser(text)
    term = parser.parse_term(resolve=False)
    if parser.peek().kind != "eof":
        raise parser.error(f"trailing input {parser.peek().value!r}")
    return term


def serialize(model: Model) -> str:
    """Deterministic canonical rendering; ``parse(serialize(m))`` equals ``m``."""
    pres = model.presentation
    out: list[str] = []

    for name in sorted(pres.type_table.kinds):
        out.append(f"interface {name} {pres.type_table.kinds[name]}")
    out.append("")

    for name in sorted(pres.boundaries):
        b = pres.boundaries[name]
        ports = ", ".join(f"{p}: {b.port_type[p]}" for p in b.ports)
        out.append(f"boundary {name} {{ {ports} }}")
    out.append("")

    for name in sorted(pres.generators):
        arch = pres.generators[name]
        ins = ", ".join(f"{s}: {b.name}" for s, b in arch.inputs)
        out.append(f"architecture {name} : ({ins}) -> {arch.output.name} {{")
        for w in canonicalize(arch).wires:
            internal = [r for r in w.sorted_ports() if r.slot is not None]
            external = [r for r in w.sorted_ports() if r.slot is None]
            if not internal:
                raise ValidationError(
                    f"architecture {name}: wire {w} has no slot ports")
            if len(internal) > 1:
                out.append("  wire " + " = ".join(map(str, internal)))
            for ref in external:
                out.append(f"  expose {internal[0]} -> {ref.port}")
        out.append("}")
        out.append("")

    for eq in pres.equations:
        line = f"equation {eq.lhs} = {eq.rhs}"
        if eq.corr is not None:
            pairs = ", ".join(f"{l} ~ {r}"
                              for l, r in sorted(eq.corr.mapping.items()))
            line += f" matching {{ {pairs} }}"
        out.append(line)
    if pres.equations:
        out.append("")

    for fname in sorted(model.prob_functors):
        F = model.prob_functors[fname]
        out.append(f"prob {fname} {{")
        for gen in sorted(F.dists):
            entries = ", ".join(f"{l}: {p}"
                                for l, p in F.dists[gen].entries)
            out.append(f"  {gen} = ({entries})")
        out.append("}")
        out.append("")

    for fname in sorted(model.mode_functors):
        M = model.mode_functors[fname]
        out.append(f"modes {fname} {{")
        for bname in sorted(M.mode_sets):
            ms = M.mode_sets[bname]
            out.append(f"  modes {bname} = {{ " + ", ".join(ms.modes) + " }")
        for gen in sorted(M.relations):
            out.append(f"  rel {gen} {{")
            rel = M.relations[gen]
            for slot in sorted(rel.pairs):
                for m_in, m_out in sorted(rel.pairs[slot]):
                    out.append(f"    {slot}.{m_in} -> {m_out}")
            out.append("  }")
        out.append("}")
        out.append("")

    for fname in sorted(model.stoch_functors):
        S = model.stoch_functors[fname]
        out.append(f"stoch {fname} {{")
        for bname in sorted(S.priors):
            p = S.priors[bname]
            entries = ", ".join(f"{m}: {p[m]}"
                                for m in p.modes.modes)
            out.append(f"  prior {bname} = ({entries})")
        for gen in sorted(S.kernels):
            k = S.kernels[gen]
            out.append(f"  kernel {gen} {{")
            for x in k.source.modes:
                for slot, ms in k.slots:
                    for y in ms.modes:
                        v = k(x, slot, y)
                        if v > 0:
                            out.append(
                                f"    {x} -> {slot}.{y}: {v}")
            out.append("  }")
        out.append("}")
        out.append("")

    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"
