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
from fractions import Fraction
from itertools import islice
from typing import Callable, Container, Iterator, TypeVar

from .modes import ModeFunctor, ModeRelation, ModeSet
from .portgraph import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    PortRef,
    TypeTable,
    ValidationError,
    Value,
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


class Model(Value):
    """A fully resolved model document: a presentation and its functors by
    name, one new dict per table left out."""

    __slots__ = ("presentation", "prob_functors", "mode_functors",
                 "stoch_functors")

    def __init__(self, presentation: OperadPresentation,
                 prob_functors: dict[str, ProbFunctor] | None = None,
                 mode_functors: dict[str, ModeFunctor] | None = None,
                 stoch_functors: dict[str, StochFunctor] | None = None) -> None:
        self.presentation = presentation
        self.prob_functors = {} if prob_functors is None else prob_functors
        self.mode_functors = {} if mode_functors is None else mode_functors
        self.stoch_functors = {} if stoch_functors is None else stoch_functors


# one token of the grammar; ``-`` starts only ``->`` and negative numbers
_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*|->|[{}()\[\]:,=~./]|-?\d+(?:\.\d+)?"
_TOKEN_RE = re.compile(_TOKEN)
_COMMENT_RE = re.compile(r"#[^\n]*")
_LOCATED_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<token>{_TOKEN})|(?P<bad>.)")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text`` as plain strings, then ``""`` for end of input.

    Tokens carry no position: ``_located`` recomputes positions when an
    error needs one.
    """
    code = _COMMENT_RE.sub("", text) if "#" in text else text
    tokens = _TOKEN_RE.findall(code)
    # the tokens cover all of ``code`` but its whitespace (str.split and \s
    # agree on what that is), unless findall skipped a character outside the
    # grammar; then the located scan raises at the first one
    if "".join(tokens) != "".join(code.split()):
        for _ in _located(text):
            pass
    tokens.append("")
    return tokens


def _located(text: str) -> Iterator[tuple[str, int, int]]:
    """Each token of ``text`` with its line and column, then ``""`` at the
    end of input; raises at the first character outside the grammar."""
    line, line_start = 1, 0  # line_start: offset of the current line
    for m in _LOCATED_RE.finditer(text):
        kind, start = m.lastgroup, m.start()
        if kind == "ws":
            newlines = text.count("\n", start, m.end())
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, m.end()) + 1
        elif kind == "bad":
            raise DslError(f"unexpected character {m.group()!r}",
                           line, start - line_start + 1)
        elif kind == "token":
            yield m.group(), line, start - line_start + 1
    yield "", line, len(text) - line_start + 1


def _is_number(tok: str) -> bool:
    """Number tokens start with a digit, or with ``-`` and a digit."""
    return tok[:1].isdecimal() or tok[:1] == "-" and tok[1:2].isdecimal()


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.type_table: dict[str, str] = {}
        self.boundaries: dict[str, Boundary] = {}
        self.generators: dict[str, Architecture] = {}
        self.equations: list[CoherenceEquation] = []
        self.prob_functors: dict[str, ProbFunctor] = {}
        self.mode_functors: dict[str, ModeFunctor] = {}
        self.stoch_functors: dict[str, StochFunctor] = {}

    # token helpers: a token is its text; errors name it by its index ----

    def peek(self) -> str:
        return self.tokens[self.pos]

    def error(self, message: str, index: int | None = None) -> DslError:
        """A ``DslError`` at token ``index``, by default the next token."""
        if index is None:
            index = self.pos
        _, line, col = next(islice(_located(self.text), index, None))
        return DslError(message, line, col)

    def expect(self, value: str) -> int:
        """Consume ``value`` and return its index."""
        tok = self.tokens[self.pos]
        if tok != value:
            raise self.error(f"expected {value!r}, got {tok!r}")
        self.pos += 1
        return self.pos - 1

    def ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier():
            raise self.error(f"expected {what}, got {tok!r}")
        self.pos += 1
        return tok

    def keyword(self, *words: str) -> str:
        """Consume the next token, which must be one of ``words``."""
        tok = self.tokens[self.pos]
        if tok not in words:
            raise self.error(
                f"expected {' or '.join(map(repr, words))}, got {tok!r}")
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        return self.tokens[self.pos] == value

    def accept(self, value: str) -> bool:
        """Consume the next token if it is ``value``."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def rational(self) -> Fraction:
        tok = self.peek()
        if not _is_number(tok):
            raise self.error(f"expected a number, got {tok!r}")
        value = self.number(tok)
        self.pos += 1
        if not self.accept("/"):
            return Fraction(value)
        den = self.peek()
        if not _is_number(den) or "." in den:
            raise self.error("expected an integer denominator")
        denominator = self.number(den)
        if denominator == 0:
            raise self.error("zero denominator")
        self.pos += 1
        return Fraction(value, denominator)

    def number(self, tok: str) -> Fraction | int:
        """The exact value of number token ``tok``, the next token: a
        decimal literal through its string, an integer as is."""
        try:
            return Fraction(tok) if "." in tok else int(tok)
        except ValueError:  # over the interpreter's int string digit limit
            raise self.error("number has too many digits") from None

    # resolving helpers: read a name and check it, located at its token;
    # a name already in ``seen`` is a duplicate ----------------------------

    def fresh(self, tok: str, seen: Container[str], what: str) -> str:
        """``tok``, the token just read, unless ``seen`` holds it."""
        if tok in seen:
            raise self.error(f"duplicate {what} {tok!r}", self.pos - 1)
        return tok

    def boundary(self, seen: Container[str] = ()) -> Boundary:
        tok = self.ident("boundary name")
        b = self.boundaries.get(tok)
        if b is None:
            raise self.error(f"unknown boundary {tok!r}", self.pos - 1)
        self.fresh(tok, seen, "boundary")
        return b

    def generator(self, seen: Container[str] = ()) -> tuple[str, Architecture]:
        tok = self.ident("generator name")
        arch = self.generators.get(tok)
        if arch is None:
            raise self.error(f"unknown generator {tok!r}", self.pos - 1)
        return self.fresh(tok, seen, "generator"), arch

    def slot(self, gen: str, slots: Container[str] | None,
             seen: Container[str] = ()) -> str:
        """A slot label of generator ``gen``; ``slots=None`` skips the check."""
        tok = self.ident("slot label")
        if slots is not None and tok not in slots:
            raise self.error(
                f"generator {gen} has no slot {tok!r}", self.pos - 1)
        return self.fresh(tok, seen, "slot")

    def functor_name(self) -> str:
        """A functor name not yet taken by a functor of any kind."""
        return self.fresh(self.ident("functor name"), (
            *self.prob_functors, *self.mode_functors, *self.stoch_functors),
            "functor")

    def mode(self, modes: ModeSet | None) -> str:
        """A mode name, checked against ``modes`` unless it is None."""
        tok = self.ident("mode name")
        if modes is not None and tok not in modes:
            raise self.error(
                f"unknown mode {tok!r} on {modes.boundary}", self.pos - 1)
        return tok

    def build(self, close: int, make: Callable[..., T], *args) -> T:
        """``make(*args)``, its validation error located at token ``close``."""
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
        while tok := self.peek():
            handler = handlers.get(tok)
            if handler is None:
                raise self.error(f"unexpected {tok!r}")
            handler()
        pres = OperadPresentation(
            TypeTable(self.type_table), self.boundaries, self.generators,
            tuple(self.equations))
        return Model(pres, self.prob_functors, self.mode_functors,
                     self.stoch_functors)

    def parse_interface(self) -> None:
        self.expect("interface")
        index = self.pos
        name = self.ident("interface name")
        kind = self.ident("interface kind")
        if kind not in ("physical", "digital"):
            raise self.error("interface kind must be physical or digital",
                             index + 1)
        if name in self.type_table:
            raise self.error(f"duplicate interface {name!r}", index)
        self.type_table[name] = kind

    def parse_boundary(self) -> None:
        self.expect("boundary")
        name = self.fresh(self.ident("boundary name"), self.boundaries,
                          "boundary")
        self.expect("{")
        ports: list[str] = []
        port_type: dict[str, str] = {}
        while not self.at("}"):
            index = self.pos
            port = self.ident("port name")
            self.expect(":")
            ptype = self.ident("interface type")
            if ptype not in self.type_table:
                raise self.error(f"unknown interface {ptype!r}", index + 2)
            if port in port_type:
                raise self.error(f"duplicate port {port!r}", index)
            ports.append(port)
            port_type[port] = ptype
            self.accept(",")
        self.expect("}")
        self.boundaries[name] = Boundary(name, tuple(ports), port_type)

    def parse_architecture(self) -> None:
        self.expect("architecture")
        name = self.fresh(self.ident("architecture name"), self.generators,
                          "architecture")
        self.expect(":")
        self.expect("(")
        slots: dict[str, Boundary] = {}
        while not self.at(")"):
            index = self.pos
            slot = self.ident("slot label")
            self.expect(":")
            b = self.boundary()
            if slot in slots:
                raise self.error(f"duplicate slot {slot!r}", index)
            slots[slot] = b
            self.accept(",")
        self.expect(")")
        self.expect("->")
        output = self.boundary()
        self.expect("{")

        # each wire is the list of its ports, first-named slot port first
        wires: list[list[PortRef]] = []
        wire_of: dict[PortRef, list[PortRef]] = {}

        def slot_ref(unwired: bool = False) -> PortRef:
            slot = self.ident("slot label")
            b = slots.get(slot)
            if b is None:
                raise self.error(f"unknown slot {slot!r}", self.pos - 1)
            self.expect(".")
            port = self.ident("port name")
            if port not in b.port_type:
                raise self.error(f"unknown port {port} on {b.name}",
                                 self.pos - 1)
            ref = PortRef(slot, port)
            if unwired and ref in wire_of:
                raise self.error(f"port {ref} attached to two wires",
                                 self.pos - 1)
            return ref

        def join(refs: list[PortRef], w: list[PortRef] | None = None) -> None:
            """Add ``refs`` to wire ``w``, or to a new wire when it is None."""
            if w is None:
                w = []
                wires.append(w)
            w.extend(refs)
            wire_of.update(dict.fromkeys(refs, w))

        while not self.at("}"):
            if self.keyword("wire", "expose") == "wire":
                refs = [slot_ref(unwired=True)]
                self.expect("=")
                refs.append(slot_ref(unwired=True))
                while self.accept("="):
                    refs.append(slot_ref(unwired=True))
                join(refs)
            else:
                ref = slot_ref()
                self.expect("->")
                port = self.ident("outer port name")
                if port not in output.port_type:
                    raise self.error(f"unknown port {port} on {output.name}",
                                     self.pos - 1)
                out_ref = PortRef(None, port)
                if out_ref in wire_of:
                    raise self.error(f"port {port} exposed twice",
                                     self.pos - 1)
                join([ref, out_ref], wire_of.get(ref))
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
                    f"architecture {name}: ambiguous auto-exposure of "
                    f"port {port} (candidates {', '.join(map(str, candidates))})",
                    close)
            if candidates:
                join([candidates[0], PortRef(None, port)])

        # each wire is typed by its first port; an ill-typed one is reported
        # by compile, with more context
        self.generators[name] = Architecture(
            tuple(slots.items()), output,
            tuple(Wire(frozenset(w), slots[w[0].slot].port_type[w[0].port])
                  for w in wires))

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
                slot = self.slot(gen, slots, children)
                self.expect("->")
                children[slot] = self.parse_term(resolve)
                if not self.accept(","):
                    break
            self.expect(")")
        return Term(gen, tuple(children.items()))

    def parse_path(self) -> str:
        parts = [self.ident("path segment")]
        while self.accept("."):
            parts.append(self.ident("path segment"))
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
        name = self.functor_name()
        self.expect("{")
        dists: dict[str, Distribution] = {}
        while not self.at("}"):
            gen, arch = self.generator(dists)
            self.expect("=")
            self.expect("(")
            values: dict[str, Fraction] = {}
            while not self.at(")"):
                slot = self.slot(gen, arch.slots, values)
                self.expect(":")
                values[slot] = self.rational()
                self.accept(",")
            close = self.expect(")")
            dists[gen] = self.build(close, Distribution, tuple(
                (s, values[s]) for s in arch.slots if s in values))
            if set(values) != set(arch.slots):
                raise self.error(
                    f"distribution for {gen} does not cover all slots", close)
        self.expect("}")
        self.prob_functors[name] = ProbFunctor(dists, name)

    def parse_modes(self) -> None:
        self.expect("modes")
        name = self.functor_name()
        self.expect("{")
        mode_sets: dict[str, ModeSet] = {}
        relations: dict[str, ModeRelation] = {}
        while not self.at("}"):
            if self.keyword("modes", "rel") == "modes":
                b = self.boundary(mode_sets)
                self.expect("=")
                self.expect("{")
                modes: list[str] = []
                while not self.at("}"):
                    modes.append(self.mode(None))
                    self.accept(",")
                close = self.expect("}")
                mode_sets[b.name] = self.build(
                    close, ModeSet, b.name, tuple(modes))
            else:
                gen, arch = self.generator(relations)
                out_modes = mode_sets.get(arch.output.name)
                self.expect("{")
                pairs: dict[str, set[tuple[str, str]]] = {
                    s: set() for s in arch.slots}
                while not self.at("}"):
                    slot = self.slot(gen, arch.slots)
                    self.expect(".")
                    mode_in = self.mode(
                        mode_sets.get(arch.slot_boundary(slot).name))
                    self.expect("->")
                    pairs[slot].add((mode_in, self.mode(out_modes)))
                    self.accept(",")
                self.expect("}")
                relations[gen] = ModeRelation(
                    {s: frozenset(v) for s, v in pairs.items()})
        self.expect("}")
        self.mode_functors[name] = ModeFunctor(mode_sets, relations, name)

    def parse_stoch(self) -> None:
        self.expect("stoch")
        name = self.functor_name()
        self.expect("{")
        priors: dict[str, Point] = {}
        kernels: dict[str, Kernel] = {}
        while not self.at("}"):
            if self.keyword("prior", "kernel") == "prior":
                b = self.boundary(priors)
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
            else:
                index = self.pos
                gen, arch = self.generator(kernels)

                def prior_modes(bname: str) -> ModeSet:
                    p = priors.get(bname)
                    if p is None:
                        raise self.error(
                            f"kernel {gen}: no prior declared for {bname}",
                            index)
                    return p.modes

                source = prior_modes(arch.output.name)
                slots = tuple((s, prior_modes(b.name)) for s, b in arch.inputs)
                slot_modes = dict(slots)
                self.expect("{")
                entries: dict[tuple[str, str, str], Fraction] = {}
                while not self.at("}"):
                    start = self.pos
                    x = self.mode(source)
                    self.expect("->")
                    slot = self.slot(gen, slot_modes)
                    self.expect(".")
                    y = self.mode(slot_modes[slot])
                    if (x, slot, y) in entries:
                        raise self.error(
                            f"duplicate kernel entry {x} -> {slot}.{y}", start)
                    self.expect(":")
                    entries[(x, slot, y)] = self.rational()
                    self.accept(",")
                close = self.expect("}")
                kernels[gen] = self.build(
                    close, Kernel, source, slots, entries)
        self.expect("}")
        self.stoch_functors[name] = StochFunctor(priors, kernels, name)


def parse(text: str) -> Model:
    """Parse ``.opm`` text into a resolved model."""
    return _Parser(text).parse()


def parse_free_term(text: str) -> Term:
    """Parse a ``gen(slot->gen, ...)`` term on its own; names are not resolved."""
    parser = _Parser(text)
    term = parser.parse_term(resolve=False)
    if parser.peek():
        raise parser.error(f"trailing input {parser.peek()!r}")
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
