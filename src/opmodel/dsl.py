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
In a comma list (boundary ports, an architecture's slot list, ``matching``,
a distribution, a mode set, ``rel`` entries, a prior, ``kernel`` entries)
each entry may be followed by one comma, the last entry too, or by none.
A term's fills need a comma between them and take no trailing one.
A free-standing ``<term>`` (as given on the command line) uses the same
grammar, without resolving generator or slot names.
Internal ports not mentioned by any wire or expose are automatically exposed
to an identically named external port when that match is unique.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Callable, Container, Iterator, Mapping, TypeVar

from .modes import ModeFunctor, ModeRelation, ModeSet
from .portgraph import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    TypeTable,
    ValidationError,
    Value,
    canonicalize,
    set_table,
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
_Number = tuple[Fraction, tuple[int, int]]  # value, (numerator, denominator)


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
# the lone tokens, in no longer token (but a decimal's ``.``), spaced out:
# ``-`` before, ``>`` after, so a ``-`` or ``>`` off ``->`` stays in a word
_ALONE = frozenset(("->", *"{}()[]:,=~./"))
_PAD = {"-": " -", ">": "> ", **{c: f" {c} " for c in "{}()[]:,=~./"}}
_DOT_DIGIT_RE = re.compile(r"\.\d")  # a literal first, so a fast search
_CHUNK = 1 << 15  # characters of code tokenized at a time, to a newline


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text`` as plain strings, then ``""`` for end of input.

    Tokens carry no position: ``_located`` recomputes positions when an
    error needs one.  The code is read in chunks of about ``_CHUNK``
    characters, each ending at a newline, which no token spans; a chunk's
    words give way to shared strings, one per distinct token, before the
    next chunk is read, so one chunk's words at most are alive at once.
    """
    code = _COMMENT_RE.sub("", text) if "#" in text else text
    shared, tokens, start = {"": ""}, [""], 0
    while start < len(code):
        end = code.find("\n", start + _CHUNK) + 1 or len(code)
        tokens[-1:] = _chunk_tokens(code[start:end], shared, text)
        start = end
    return tokens


def _chunk_tokens(code: str, shared: dict[str, str],
                  text: str) -> tuple[str, ...]:
    """The tokens of chunk ``code`` of ``text``, then ``""``, as strings of
    ``shared``, which gains the new ones.  Where the code is ASCII and no
    ``.`` precedes a digit (none is a decimal's), the code with its lone
    tokens spaced out splits into the tokens, if each word is one such
    token, identifier or integer; else one scan of the code finds them."""
    new = None
    if code.isascii() and not _DOT_DIGIT_RE.search(code):
        for char, padded in _PAD.items():
            code = code.replace(char, padded)
        words = code.split()
        new = set(words).difference(shared)
        if not all(w.isidentifier() or w in _ALONE or w.isdecimal()
                   for w in new):
            new = None
    if new is None:
        words = _TOKEN_RE.findall(code)
        # findall skips a character outside the grammar: the located scan
        # raises at the first one (str.split and \s agree on whitespace)
        if "".join(words) != "".join(code.split()):
            for _ in _located(text):
                pass
        new = set(words).difference(shared)
    shared.update(zip(new, new))
    return itemgetter(*words, "")(shared) if words else ("",)


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
        self.tokens += [""] * 8  # so that no entry's slice runs short
        self.pos = 0
        # each number spelling read so far, ``a`` or ``(a, b)`` for ``a/b``
        self.numbers: dict[str | tuple[str, str], _Number] = {}
        self.type_table: dict[str, str] = {}
        self.boundaries: dict[str, Boundary] = {}
        self.generators: dict[str, Architecture] = {}
        self.equations: list[CoherenceEquation] = []
        self.prob_functors: dict[str, ProbFunctor] = {}
        self.mode_functors: dict[str, ModeFunctor] = {}
        self.stoch_functors: dict[str, StochFunctor] = {}

    # token helpers: a token is its text; errors name it by its index ----

    def error(self, message: str, index: int | None = None) -> DslError:
        """A ``DslError`` at token ``index``, by default the next token."""
        if index is None:
            index = self.pos
        _, line, col = next(islice(_located(self.text), index, None))
        return DslError(message, line, col)

    def expect(self, *words: str) -> str:
        """Consume the next token, which must be one of ``words``."""
        tok = self.tokens[self.pos]
        if tok not in words:
            raise self.error(
                f"expected {' or '.join(map(repr, words))}, got {tok!r}")
        self.pos += 1
        return tok

    def ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier():
            raise self.error(f"expected {what}, got {tok!r}")
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        """Consume the next token if it is ``value``."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def items(self, close: str, commas: bool = True) -> Iterator[int]:
        """The index of each entry's first token up to ``close``, which is
        then consumed, as is a comma after an entry when ``commas``."""
        tokens = self.tokens
        while tokens[self.pos] != close:
            yield self.pos
            if commas and tokens[self.pos] == ",":
                self.pos += 1
        self.pos += 1

    def rational(self) -> _Number:
        """A number, ``a`` or ``a/b``, and its ``(numerator, denominator)``:
        each spelling is checked and built once per parse, and its repeats
        share one ``Fraction``."""
        tokens, i = self.tokens, self.pos
        slash = tokens[i + 1] == "/"
        key = (tokens[i], tokens[i + 2]) if slash else tokens[i]
        value = self.numbers.get(key)
        if value is None:
            if not _is_number(tokens[i]):
                raise self.error(f"expected a number, got {tokens[i]!r}")
            value, denominator = self.number(tokens[i]), 1
            if slash:
                self.pos = i + 2
                if not _is_number(tokens[i + 2]) or "." in tokens[i + 2]:
                    raise self.error("expected an integer denominator")
                denominator = self.number(tokens[i + 2])
                if denominator == 0:
                    raise self.error("zero denominator")
            value = Fraction(value, denominator)
            value = self.numbers[key] = value, value.as_integer_ratio()
        self.pos = i + 3 if slash else i + 1
        return value

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

    def known(self, table: Mapping[str, T] | None, what: str,
              seen: Container[str] = (), *after: str) -> tuple[str, T]:
        """A name that ``table`` holds (any name, if it is None) and ``seen``
        lacks, with its value, then the tokens ``after``: one slice of the
        token list, else the located error of the first token that fails."""
        i, end = self.pos, self.pos + 1 + len(after)
        tok = self.tokens[i]
        value = tok.isidentifier() if table is None else table.get(tok)
        if not value or tok in seen or self.tokens[i + 1:end] != [*after]:
            if not value:
                self.ident(f"{what} name")  # raises unless ``tok`` is a name
                raise self.error(f"unknown {what} {tok!r}", i)
            self.pos += 1
            self.fresh(tok, seen, what)
            for word in after:  # a fresh name: one of these raises
                self.expect(word)
        self.pos = end
        return tok, value

    def typed(self, close: str, what: str, table: Container[str],
              kind: str) -> dict[str, str]:
        """New ``what`` names up to ``close``, each typed ``: kind`` by a name
        in ``table``: one token slice per entry, read token by token only to
        raise the located error, named by the first word of what or kind."""
        types: dict[str, str] = {}
        for i in self.items(close):
            name, colon, t = self.tokens[i:i + 3]
            if not (colon == ":" and t in table and name.isidentifier()
                    and name not in types):
                name = self.ident(what)
                self.expect(":")
                if self.ident(kind) not in table:
                    raise self.error(f"unknown {kind.split()[0]} {t!r}", i + 2)
                if name in types:
                    raise self.error(f"duplicate {what.split()[0]} {name!r}", i)
            self.pos = i + 3
            types[name] = t
        return types

    def slot(self, gen: str, slots: Container[str] | None,
             seen: Container[str] = ()) -> str:
        """A slot label of generator ``gen``; ``slots=None`` skips the check."""
        tok = self.ident("slot label")
        if slots is not None and tok not in slots:
            raise self.error(
                f"generator {gen} has no slot {tok!r}", self.pos - 1)
        return self.fresh(tok, seen, "slot")

    def functor_name(self) -> str:
        """A functor name not taken by a functor of any kind, then ``{``."""
        return self.known(None, "functor", (
            *self.prob_functors, *self.mode_functors, *self.stoch_functors),
            "{")[0]

    def mode(self, modes: ModeSet | None) -> str:
        """A mode name, checked against ``modes`` unless it is None."""
        tok = self.ident("mode name")
        if modes is not None and tok not in modes:
            raise self.error(
                f"unknown mode {tok!r} on {modes.boundary}", self.pos - 1)
        return tok

    def build(self, make: Callable[..., T], *args) -> T:
        """``make(*args)``, its validation error located at the token just
        read, the bracket that closes the value's text."""
        try:
            return make(*args)
        except ValidationError as exc:
            raise self.error(str(exc), self.pos - 1) from exc

    # top-level ----------------------------------------------------------

    def parse(self) -> Model:
        handlers = {kw: getattr(self, "parse_" + kw) for kw in (
            "interface", "boundary", "architecture", "equation", "prob",
            "modes", "stoch")}
        while tok := self.tokens[self.pos]:
            handler = handlers.get(tok)
            if handler is None:
                raise self.error(f"unexpected {tok!r}")
            self.pos += 1  # each handler reads what follows its keyword
            handler()
        pres = OperadPresentation(
            TypeTable(self.type_table), self.boundaries, self.generators,
            tuple(self.equations))
        return Model(pres, self.prob_functors, self.mode_functors,
                     self.stoch_functors)

    def parse_interface(self) -> None:
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
        name, _ = self.known(None, "boundary", self.boundaries, "{")
        port_type = self.typed("}", "port name", self.type_table,
                               "interface type")
        self.boundaries[name] = Boundary(name, tuple(port_type), port_type)

    def parse_architecture(self) -> None:
        name, _ = self.known(None, "architecture", self.generators, ":", "(")
        slots = {s: self.boundaries[b] for s, b in self.typed(
            ")", "slot label", self.boundaries, "boundary name").items()}
        self.expect("->")
        _, output = self.known(self.boundaries, "boundary", (), "{")
        arch = Architecture._new(tuple(slots.items()), output)
        types = arch.port_types()

        # each port's wire id, and each id's type: that of its first port
        wire_of: dict[tuple[str | None, str], int] = {}
        wire_types: list[str] = []

        def slot_ref(unwired: bool = False) -> tuple[str, str]:
            """A ``slot.port`` reference, on no wire yet when ``unwired``."""
            slot = self.ident("slot label")
            b = slots.get(slot)
            if b is None:
                raise self.error(f"unknown slot {slot!r}", self.pos - 1)
            self.expect(".")
            port = self.ident("port name")
            if port not in b.port_type:
                raise self.error(f"unknown port {port} on {b.name}",
                                 self.pos - 1)
            if unwired and (slot, port) in wire_of:
                raise self.error(f"port {slot}.{port} attached to two wires",
                                 self.pos - 1)
            return slot, port

        for i in self.items("}", commas=False):
            # a two-port wire or an expose line, read as one slice
            kw, s, dot, p, sep, s2, dot2, p2, more = self.tokens[i:i + 9]
            a, b = (s, p), (s2, p2)
            if (kw == "wire" and dot == dot2 == "." and sep == "=" != more
                    and a in types and b in types and a not in wire_of
                    and b not in wire_of):
                self.pos = i + 8
                wire_of[a] = wire_of[b] = len(wire_types)
                wire_types.append(types[a])
                continue
            if (kw == "expose" and dot == "." and sep == "->" and a in types
                    and s2 in output.port_type and (None, s2) not in wire_of):
                self.pos = i + 6
                inner, port = a, s2
            elif self.expect("wire", "expose") == "wire":
                refs = [slot_ref(unwired=True)]
                self.expect("=")
                refs.append(slot_ref(unwired=True))
                while self.accept("="):
                    refs.append(slot_ref(unwired=True))
                wire_of.update(dict.fromkeys(refs, len(wire_types)))
                wire_types.append(types[refs[0]])
                continue
            else:
                inner = slot_ref()
                self.expect("->")
                port = self.ident("outer port name")
                if port not in output.port_type:
                    raise self.error(f"unknown port {port} on {output.name}",
                                     self.pos - 1)
                if (None, port) in wire_of:
                    raise self.error(f"port {port} exposed twice",
                                     self.pos - 1)
            # an outer port joins the wire of ``inner``, or a new one
            if inner not in wire_of:
                wire_of[inner] = len(wire_types)
                wire_types.append(types[inner])
            wire_of[None, port] = wire_of[inner]

        # unique-match auto-exposure of the remaining ports
        for port in output.ports:
            if (None, port) in wire_of:
                continue
            candidates = [(s, port) for s, b in slots.items()
                          if port in b.port_type and (s, port) not in wire_of]
            if len(candidates) > 1:
                raise self.error(
                    f"architecture {name}: ambiguous auto-exposure of port "
                    f"{port} (candidates {', '.join(map('.'.join, candidates))})",
                    self.pos - 1)
            if candidates:
                wire_of[candidates[0]] = wire_of[None, port] = len(wire_types)
                wire_types.append(types[candidates[0]])

        # compile reports a wire of mixed types
        self.generators[name] = set_table(arch, wire_of, wire_types)

    # terms and equations --------------------------------------------------

    def parse_term(self, resolve: bool = True) -> Term:
        """A term; ``resolve`` checks its generator and slot names."""
        if resolve:
            gen, arch = self.known(self.generators, "generator")
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
        lhs = self.parse_term()
        self.expect("=")
        rhs = self.parse_term()
        corr = None
        if self.accept("matching"):
            self.expect("{")
            mapping: dict[str, str] = {}
            for _ in self.items("}"):
                left = self.parse_path()
                self.expect("~")
                mapping[left] = self.parse_path()
            corr = ComponentCorrespondence(mapping)
        self.equations.append(CoherenceEquation(lhs, rhs, corr))

    # functor blocks -------------------------------------------------------

    def parse_prob(self) -> None:
        name = self.functor_name()
        dists: dict[str, Distribution] = {}
        for _ in self.items("}", commas=False):
            gen, arch = self.known(self.generators, "generator", dists, "=", "(")
            slots = arch.slots
            values: dict[str, Fraction] = {}
            pairs: list[tuple[int, int]] = []
            for i in self.items(")"):
                slot, colon = self.tokens[i:i + 2]
                if not (colon == ":" and slot in slots and slot not in values):
                    slot = self.slot(gen, slots, values)
                    self.expect(":")
                self.pos = i + 2
                values[slot], pair = self.rational()
                pairs.append(pair)
            dists[gen] = self.build(Distribution._new, tuple(
                (s, values[s]) for s in slots if s in values), pairs)
            if len(values) != len(slots):
                raise self.error(
                    f"distribution for {gen} does not cover all slots",
                    self.pos - 1)
        self.prob_functors[name] = ProbFunctor(dists, name)

    def parse_modes(self) -> None:
        name = self.functor_name()
        mode_sets: dict[str, ModeSet] = {}
        relations: dict[str, ModeRelation] = {}
        for _ in self.items("}", commas=False):
            if self.expect("modes", "rel") == "modes":
                bname, _ = self.known(self.boundaries, "boundary", mode_sets,
                                      "=", "{")
                modes = [self.ident("mode name") for _ in self.items("}")]
                mode_sets[bname] = self.build(ModeSet, bname, tuple(modes))
                continue
            gen, arch = self.known(self.generators, "generator", relations,
                                   "{")
            slots = arch.slots
            out_modes = mode_sets.get(arch.output.name)
            outs = () if out_modes is None else out_modes.modes
            in_modes = {s: mode_sets.get(b.name) for s, b in arch.inputs}
            pairs: dict[str, set[tuple[str, str]]] = {s: set() for s in slots}
            for i in self.items("}"):
                slot, dot, mode_in, arrow, mode_out = self.tokens[i:i + 5]
                ms = in_modes.get(slot)
                if not (dot == "." and arrow == "->" and ms is not None
                        and mode_in in ms.modes and mode_out in outs):
                    slot = self.slot(gen, slots)
                    self.expect(".")
                    mode_in = self.mode(in_modes[slot])
                    self.expect("->")
                    mode_out = self.mode(out_modes)
                self.pos = i + 5
                pairs[slot].add((mode_in, mode_out))
            relations[gen] = ModeRelation(
                {s: frozenset(v) for s, v in pairs.items()})
        self.mode_functors[name] = ModeFunctor(mode_sets, relations, name)

    def parse_stoch(self) -> None:
        name = self.functor_name()
        priors: dict[str, Point] = {}
        kernels: dict[str, Kernel] = {}
        for index in self.items("}", commas=False):
            if self.expect("prior", "kernel") == "prior":
                bname, _ = self.known(self.boundaries, "boundary", priors,
                                      "=", "(")
                modes, probs, pairs = [], {}, []
                for i in self.items(")"):
                    mode, colon = self.tokens[i:i + 2]
                    if not (colon == ":" and mode.isidentifier()):
                        mode = self.mode(None)
                        self.expect(":")
                    self.pos = i + 2
                    modes.append(mode)
                    probs[mode], pair = self.rational()
                    pairs.append(pair)
                priors[bname] = self.build(lambda: Point._new(
                    ModeSet(bname, tuple(modes)), probs, pairs))
                continue
            gen, arch = self.known(self.generators, "generator", kernels)
            for b in (arch.output, *(b for _, b in arch.inputs)):
                if b.name not in priors:
                    raise self.error(
                        f"kernel {gen}: no prior declared for {b.name}",
                        index + 1)
            source = priors[arch.output.name].modes
            slots = tuple((s, priors[b.name].modes) for s, b in arch.inputs)
            slot_modes = dict(slots)
            slot_names = {s: ms.modes for s, ms in slots}
            self.expect("{")
            entries, rows = {}, {x: [] for x in source.modes}
            for i in self.items("}"):
                x, arrow, slot, dot, y, colon = self.tokens[i:i + 6]
                if not (arrow == "->" and dot == "." and colon == ":"
                        and x in source.modes and y in slot_names.get(slot, ())
                        and (x, slot, y) not in entries):
                    x = self.mode(source)
                    self.expect("->")
                    slot = self.slot(gen, slot_modes)
                    self.expect(".")
                    y = self.mode(slot_modes[slot])
                    if (x, slot, y) in entries:
                        raise self.error(
                            f"duplicate kernel entry {x} -> {slot}.{y}", i)
                    self.expect(":")
                self.pos = i + 6
                entries[(x, slot, y)], pair = self.rational()
                rows[x].append(pair)
            kernels[gen] = self.build(Kernel._new, source, slots, entries, rows)
        self.stoch_functors[name] = StochFunctor(priors, kernels, name)


def parse(text: str) -> Model:
    """Parse ``.opm`` text into a resolved model."""
    return _Parser(text).parse()


def _parse_whole(text: str, read: Callable[[_Parser], T]) -> T:
    """``read`` from a parser over ``text``, which must hold nothing more."""
    parser = _Parser(text)
    value = read(parser)
    if parser.tokens[parser.pos]:
        raise parser.error(f"trailing input {parser.tokens[parser.pos]!r}")
    return value


def parse_free_term(text: str) -> Term:
    """Parse a ``gen(slot->gen, ...)`` term on its own; names are not resolved."""
    return _parse_whole(text, lambda parser: parser.parse_term(resolve=False))


def parse_rational(text: str) -> Fraction:
    """Parse a number on its own, as ``.opm`` writes one: an integer, a
    finite decimal, or either over an integer denominator (``a/b``)."""
    return _parse_whole(text, lambda parser: parser.rational()[0])


def serialize(model: Model) -> str:
    """Deterministic canonical rendering; ``parse(serialize(m))`` equals ``m``."""
    pres = model.presentation
    out = [f"interface {name} {kind}"
           for name, kind in sorted(pres.type_table.kinds.items())]
    out.append("")
    for name, b in sorted(pres.boundaries.items()):
        ports = ", ".join(f"{p}: {b.port_type[p]}" for p in b.ports)
        out.append(f"boundary {name} {{ {ports} }}")
    out.append("")

    for name, arch in sorted(pres.generators.items()):
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
            out += [f"  expose {internal[0]} -> {r.port}" for r in external]
        out += ["}", ""]

    for eq in pres.equations:
        line = f"equation {eq.lhs} = {eq.rhs}"
        if eq.corr is not None:
            pairs = ", ".join(f"{l} ~ {r}"
                              for l, r in sorted(eq.corr.mapping.items()))
            line += f" matching {{ {pairs} }}"
        out.append(line)
    if pres.equations:
        out.append("")

    for fname, F in sorted(model.prob_functors.items()):
        out.append(f"prob {fname} {{")
        for gen, dist in sorted(F.dists.items()):
            entries = ", ".join(f"{l}: {p}" for l, p in dist.entries)
            out.append(f"  {gen} = ({entries})")
        out += ["}", ""]

    for fname, M in sorted(model.mode_functors.items()):
        out.append(f"modes {fname} {{")
        for bname, ms in sorted(M.mode_sets.items()):
            out.append(f"  modes {bname} = {{ " + ", ".join(ms.modes) + " }")
        for gen, rel in sorted(M.relations.items()):
            out.append(f"  rel {gen} {{")
            out += [f"    {slot}.{m_in} -> {m_out}" for slot in sorted(rel.pairs)
                    for m_in, m_out in sorted(rel.pairs[slot])]
            out.append("  }")
        out += ["}", ""]

    for fname, S in sorted(model.stoch_functors.items()):
        out.append(f"stoch {fname} {{")
        for bname, p in sorted(S.priors.items()):
            entries = ", ".join(f"{m}: {p[m]}" for m in p.modes.modes)
            out.append(f"  prior {bname} = ({entries})")
        for gen, k in sorted(S.kernels.items()):
            out.append(f"  kernel {gen} {{")
            out += [f"    {x} -> {slot}.{y}: {k(x, slot, y)}"
                    for x in k.source.modes for slot, ms in k.slots
                    for y in ms.modes if k(x, slot, y) > 0]
            out.append("  }")
        out += ["}", ""]

    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"
