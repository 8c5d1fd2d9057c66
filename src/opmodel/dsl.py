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

from .modes import ModeFunctor, ModeRelation, ModeSet
from .portgraph import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    PortRef,
    TypeTable,
    UnionFind,
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
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "punct" | "arrow" | "eof"
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
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

    def skip_comma(self) -> None:
        if self.at(","):
            self.next()

    def rational(self) -> Fraction:
        tok = self.next()
        if tok.kind != "number":
            raise self.error(f"expected a number, got {tok.value!r}", tok)
        value = Fraction(tok.value)  # exact, also for decimal literals
        if self.at("/"):
            self.next()
            den = self.next()
            if den.kind != "number" or "." in den.value:
                raise self.error("expected an integer denominator", den)
            value = value / Fraction(den.value)
        return value

    # resolution helpers -------------------------------------------------

    def lookup_boundary(self, tok: _Token) -> Boundary:
        b = self.boundaries.get(tok.value)
        if b is None:
            raise self.error(f"unknown boundary {tok.value!r}", tok)
        return b

    def lookup_generator(self, tok: _Token) -> Architecture:
        g = self.generators.get(tok.value)
        if g is None:
            raise self.error(f"unknown generator {tok.value!r}", tok)
        return g

    # top-level ----------------------------------------------------------

    def parse(self) -> Model:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            handler = {
                "interface": self.parse_interface,
                "boundary": self.parse_boundary,
                "architecture": self.parse_architecture,
                "equation": self.parse_equation,
                "prob": self.parse_prob,
                "modes": self.parse_modes,
                "stoch": self.parse_stoch,
            }.get(tok.value)
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
            self.skip_comma()
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
        inputs: list[tuple[str, Boundary]] = []
        while not self.at(")"):
            slot = self.ident("slot label")
            self.expect(":")
            b = self.lookup_boundary(self.ident("boundary name"))
            if any(s == slot.value for s, _ in inputs):
                raise self.error(f"duplicate slot {slot.value!r}", slot)
            inputs.append((slot.value, b))
            self.skip_comma()
        self.expect(")")
        tok = self.next()
        if tok.kind != "arrow":
            raise self.error(f"expected '->', got {tok.value!r}", tok)
        output = self.lookup_boundary(self.ident("boundary name"))
        self.expect("{")

        slots = dict(inputs)
        uf = UnionFind()
        wired: set[PortRef] = set()

        def slot_ref(require_unwired_in: set[PortRef] | None = None) -> PortRef:
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
            if require_unwired_in is not None and ref in require_unwired_in:
                raise self.error(f"port {ref} attached to two wires", port_tok)
            return ref

        while not self.at("}"):
            kw = self.next()
            if kw.value == "wire":
                refs = [slot_ref(wired)]
                self.expect("=")
                refs.append(slot_ref(wired))
                while self.at("="):
                    self.next()
                    refs.append(slot_ref(wired))
                wired.update(refs)
                for a, b2 in zip(refs, refs[1:]):
                    uf.union(a, b2)
            elif kw.value == "expose":
                ref = slot_ref()
                tok = self.next()
                if tok.kind != "arrow":
                    raise self.error(f"expected '->', got {tok.value!r}", tok)
                port_tok = self.ident("outer port name")
                if port_tok.value not in output.port_type:
                    raise self.error(
                        f"unknown port {port_tok.value} on {output.name}",
                        port_tok)
                out_ref = PortRef(None, port_tok.value)
                if out_ref in wired:
                    raise self.error(
                        f"port {port_tok.value} exposed twice", port_tok)
                wired.update((ref, out_ref))
                uf.union(ref, out_ref)
            else:
                raise self.error(
                    f"expected 'wire' or 'expose', got {kw.value!r}", kw)
        close = self.expect("}")

        # unique-match auto-exposure of the remaining ports
        for port in output.ports:
            if PortRef(None, port) in wired:
                continue
            candidates = [PortRef(s, port) for s, b in inputs
                          if port in b.port_type and PortRef(s, port) not in wired]
            if len(candidates) > 1:
                raise DslError(
                    f"architecture {name.value}: ambiguous auto-exposure of "
                    f"port {port} (candidates {', '.join(map(str, candidates))})",
                    close.line, close.col)
            if candidates:
                uf.union(candidates[0], PortRef(None, port))
                wired.update((candidates[0], PortRef(None, port)))

        arch = self.build_architecture(name, inputs, output, uf)
        self.generators[name.value] = arch

    def build_architecture(self, name: _Token,
                           inputs: list[tuple[str, Boundary]],
                           output: Boundary, uf: UnionFind) -> Architecture:
        def ref_type(ref: PortRef) -> str:
            if ref.slot is None:
                return output.port_type[ref.port]
            return dict(inputs)[ref.slot].port_type[ref.port]

        wires = []
        for members in uf.groups().values():
            wtype = ref_type(members[0])
            wires.append(Wire(frozenset(members), wtype))
        arch = Architecture(tuple(inputs), output, tuple(wires))
        try:
            return canonicalize(arch)
        except ValidationError:
            # ill-typed wires are reported by compile, with more context
            return arch

    # terms and equations --------------------------------------------------

    def parse_term(self, resolve: bool = True) -> Term:
        """A term; ``resolve`` checks its generator and slot names."""
        gen_tok = self.ident("generator name")
        arch = self.lookup_generator(gen_tok) if resolve else None
        children: list[tuple[str, Term]] = []
        if self.at("("):
            self.next()
            while True:
                slot = self.ident("slot label")
                if arch is not None and slot.value not in arch.slots:
                    raise self.error(
                        f"generator {gen_tok.value} has no slot "
                        f"{slot.value!r}", slot)
                tok = self.next()
                if tok.kind != "arrow":
                    raise self.error(f"expected '->', got {tok.value!r}", tok)
                children.append((slot.value, self.parse_term(resolve)))
                if self.at(","):
                    self.next()
                    continue
                self.expect(")")
                break
        return Term(gen_tok.value, tuple(children))

    def parse_path(self) -> str:
        parts = [self.ident("path segment").value]
        while self.at("."):
            self.next()
            parts.append(self.ident("path segment").value)
        return ".".join(parts)

    def parse_equation(self) -> None:
        self.expect("equation")
        lhs = self.parse_term()
        self.expect("=")
        rhs = self.parse_term()
        corr = None
        if self.at("matching"):
            self.next()
            self.expect("{")
            mapping: dict[str, str] = {}
            while not self.at("}"):
                left = self.parse_path()
                self.expect("~")
                right = self.parse_path()
                mapping[left] = right
                self.skip_comma()
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
            gen_tok = self.ident("generator name")
            arch = self.lookup_generator(gen_tok)
            self.expect("=")
            self.expect("(")
            values: dict[str, Fraction] = {}
            while not self.at(")"):
                slot = self.ident("slot label")
                if slot.value not in arch.slots:
                    raise self.error(
                        f"generator {gen_tok.value} has no slot "
                        f"{slot.value!r}", slot)
                self.expect(":")
                values[slot.value] = self.rational()
                self.skip_comma()
            close = self.expect(")")
            try:
                dists[gen_tok.value] = Distribution(
                    tuple((s, values[s]) for s in arch.slots if s in values))
            except ValidationError as exc:
                raise DslError(str(exc), close.line, close.col) from exc
            if set(values) != set(arch.slots):
                raise self.error(
                    f"distribution for {gen_tok.value} does not cover all "
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
                b = self.lookup_boundary(self.ident("boundary name"))
                self.expect("=")
                self.expect("{")
                modes: list[str] = []
                while not self.at("}"):
                    modes.append(self.ident("mode name").value)
                    self.skip_comma()
                self.expect("}")
                mode_sets[b.name] = ModeSet(b.name, tuple(modes))
            elif kw.value == "rel":
                gen_tok = self.ident("generator name")
                arch = self.lookup_generator(gen_tok)
                out_modes = mode_sets.get(arch.output.name)
                self.expect("{")
                pairs: dict[str, set[tuple[str, str]]] = {
                    s: set() for s in arch.slots}
                while not self.at("}"):
                    slot = self.ident("slot label")
                    if slot.value not in arch.slots:
                        raise self.error(
                            f"generator {gen_tok.value} has no slot "
                            f"{slot.value!r}", slot)
                    self.expect(".")
                    mode_in = self.ident("mode name")
                    slot_modes = mode_sets.get(
                        arch.slot_boundary(slot.value).name)
                    if slot_modes is not None and mode_in.value not in slot_modes:
                        raise self.error(
                            f"unknown mode {mode_in.value!r} on "
                            f"{slot_modes.boundary}", mode_in)
                    tok = self.next()
                    if tok.kind != "arrow":
                        raise self.error(
                            f"expected '->', got {tok.value!r}", tok)
                    mode_out = self.ident("mode name")
                    if out_modes is not None and mode_out.value not in out_modes:
                        raise self.error(
                            f"unknown mode {mode_out.value!r} on "
                            f"{out_modes.boundary}", mode_out)
                    pairs[slot.value].add((mode_in.value, mode_out.value))
                    self.skip_comma()
                self.expect("}")
                relations[gen_tok.value] = ModeRelation(
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
                b = self.lookup_boundary(self.ident("boundary name"))
                self.expect("=")
                self.expect("(")
                modes: list[str] = []
                probs: dict[str, Fraction] = {}
                while not self.at(")"):
                    mode = self.ident("mode name")
                    self.expect(":")
                    modes.append(mode.value)
                    probs[mode.value] = self.rational()
                    self.skip_comma()
                close = self.expect(")")
                try:
                    priors[b.name] = Point(
                        ModeSet(b.name, tuple(modes)), probs)
                except ValidationError as exc:
                    raise DslError(str(exc), close.line, close.col) from exc
            elif kw.value == "kernel":
                gen_tok = self.ident("generator name")
                arch = self.lookup_generator(gen_tok)

                def prior_modes(bname: str, tok: _Token) -> ModeSet:
                    p = priors.get(bname)
                    if p is None:
                        raise self.error(
                            f"kernel {gen_tok.value}: no prior declared for "
                            f"{bname}", tok)
                    return p.modes

                source = prior_modes(arch.output.name, gen_tok)
                slots = tuple(
                    (s, prior_modes(b.name, gen_tok)) for s, b in arch.inputs)
                slot_modes = dict(slots)
                self.expect("{")
                entries: dict[tuple[str, str, str], Fraction] = {}
                while not self.at("}"):
                    x = self.ident("mode name")
                    if x.value not in source:
                        raise self.error(
                            f"unknown mode {x.value!r} on {source.boundary}", x)
                    tok = self.next()
                    if tok.kind != "arrow":
                        raise self.error(
                            f"expected '->', got {tok.value!r}", tok)
                    slot = self.ident("slot label")
                    if slot.value not in slot_modes:
                        raise self.error(
                            f"generator {gen_tok.value} has no slot "
                            f"{slot.value!r}", slot)
                    self.expect(".")
                    y = self.ident("mode name")
                    if y.value not in slot_modes[slot.value]:
                        raise self.error(
                            f"unknown mode {y.value!r} on "
                            f"{slot_modes[slot.value].boundary}", y)
                    self.expect(":")
                    entries[(x.value, slot.value, y.value)] = self.rational()
                    self.skip_comma()
                close = self.expect("}")
                try:
                    kernels[gen_tok.value] = Kernel(source, slots, entries)
                except ValidationError as exc:
                    raise DslError(str(exc), close.line, close.col) from exc
            else:
                raise self.error(
                    f"expected 'prior' or 'kernel', got {kw.value!r}", kw)
        self.expect("}")
        self.stoch_functors[name.value] = StochFunctor(
            priors, kernels, name.value)


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
