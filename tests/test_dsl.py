"""The model text format: parsing, errors with locations, serialization."""
import functools
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from opmodel import dsl
from opmodel.dsl import (
    DslError, Model, _located, _tokenize, parse, serialize)
from opmodel.corpus import load_lsi, lsi_text
from opmodel.portgraph import (
    Architecture, PortRef, TypeTable, ValidationError, Wire, canonicalize,
    validate)
from opmodel.presentation import OperadPresentation, compile_presentation
from opmodel.prob import ProbFunctor
from randgen import (
    TYPES, random_architecture, random_boundary, random_distribution,
    validate_oracle)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from synth import Shape, SynthModel  # noqa: E402

F = Fraction

MINI = """\
interface heat physical
interface temp digital

boundary Bath { heat: heat, temp: temp }
boundary Room { heat: heat, temp: temp }

architecture warm : (ba: Bath) -> Room {
}
"""


class TestParsing:
    def test_corpus_counts(self, lsi):
        assert len(lsi.presentation.boundaries) == 14
        assert len(lsi.presentation.generators) == 7
        assert len(lsi.presentation.equations) == 1
        assert set(lsi.prob_functors) == {"P"}
        assert set(lsi.mode_functors) == {"M"}
        assert set(lsi.stoch_functors) == {"S"}

    def test_empty_document(self):
        model = parse("")
        assert not model.presentation.boundaries
        assert not model.presentation.generators

    def test_comments_and_whitespace_ignored(self):
        model = parse("# nothing but a comment\n\n  \n")
        assert not model.presentation.boundaries

    def test_auto_exposure_wires_matching_ports(self):
        model = parse(MINI)
        arch = model.presentation.generators["warm"]
        blocks = {frozenset(str(r) for r in w.ports) for w in arch.wires}
        assert blocks == {frozenset({"ba.heat", "heat"}),
                          frozenset({"ba.temp", "temp"})}

    def test_fractions_parse_exactly(self, lsi):
        sigma = lsi.prob_functors["P"]["sigma"]
        assert sigma["rt"] == F(3, 14)
        assert sigma["op"] == F(3, 7)

    def test_equal_number_spellings_share_one_fraction(self):
        model = parse(MINI + "\nstoch S {\n"
                      "  prior Bath = (cold: 1/2, hot: 1/2)\n"
                      "  prior Room = (hot: 1/2, ok: 2/4)\n}\n")
        bath, room = model.stoch_functors["S"].priors.values()
        assert bath["cold"] is bath["hot"] is room["hot"]
        assert room["ok"] == F(1, 2) and room["ok"] is not room["hot"]


class TestErrors:
    def test_unknown_port_with_location(self):
        bad = MINI + "\narchitecture f : (ba: Bath) -> Room {\n" \
                     "  wire ba.het = heat\n}\n"
        with pytest.raises(DslError) as err:
            parse(bad)
        assert "unknown port het on Bath" in str(err.value)
        assert err.value.line == 11
        assert err.value.col > 0

    def test_ambiguous_auto_exposure(self):
        text = """\
interface t physical
boundary A { p: t }
boundary B { p: t }
boundary C { p: t, q: t }
architecture f : (x: A, y: B) -> C {
}
"""
        with pytest.raises(DslError, match="ambiguous auto-exposure"):
            parse(text)

    def test_rewired_port_rejected(self):
        text = MINI + "\narchitecture f : (a: Bath, b: Bath) -> Room {\n" \
                      "  wire a.heat = b.heat\n  wire a.heat = b.temp\n}\n"
        with pytest.raises(DslError, match="two wires"):
            parse(text)

    def test_unexpected_character_reports_position(self):
        with pytest.raises(DslError) as err:
            parse("interface heat physical\n boundary !")
        assert err.value.line == 2

    def test_bad_distribution_sum(self):
        text = MINI + "\nprob P {\n  warm = (ba: 1/2)\n}\n"
        with pytest.raises(DslError, match="sum"):
            parse(text)

    _MODES = ("\nmodes M {\n  modes Bath = { cold }\n  modes Room = { bad }\n"
              "  rel warm {\n    %s\n  }\n}\n")
    _STOCH = ("\nstoch S {\n  prior Bath = (cold: 1)\n  prior Room = (bad: 1)\n"
              "  kernel warm {\n    %s\n  }\n}\n")
    _ARCH = ("\narchitecture f : (a: Bath, b: Bath, c: Bath) -> Room {\n"
             "  %s\n}\n")

    @pytest.mark.parametrize("tail, message, line, col", [
        ("\nequation nope = warm\n", "unknown generator 'nope'", 10, 10),
        ("\nequation warm(xx->warm) = warm\n",
         "generator warm has no slot 'xx'", 10, 15),
        ("\nequation warm(ba=warm) = warm\n", "expected '->', got '='", 10, 17),
        ("\nequation warm(ba->warm, ba->warm) = warm\n",
         "duplicate slot 'ba'", 10, 25),
        ("\nprob P {\n  warm = (xx: 1)\n}\n",
         "generator warm has no slot 'xx'", 11, 11),
        ("\nprob P {\n  warm = (ba: 1/2)\n}\n",
         "distribution does not sum to 1", 11, 18),
        (_MODES % "xx.cold -> bad", "generator warm has no slot 'xx'", 14, 5),
        (_MODES % "ba.hot -> bad", "unknown mode 'hot' on Bath", 14, 8),
        (_MODES % "ba.cold -> good", "unknown mode 'good' on Room", 14, 16),
        (_MODES % "ba.cold = bad", "expected '->', got '='", 14, 13),
        (_STOCH % "bad -> xx.cold: 1", "generator warm has no slot 'xx'",
         14, 12),
        (_STOCH % "hot -> ba.cold: 1", "unknown mode 'hot' on Room", 14, 5),
        (_STOCH % "bad -> ba.hot: 1", "unknown mode 'hot' on Bath", 14, 15),
        (_STOCH % "bad = ba.cold: 1", "expected '->', got '='", 14, 9),
        (_STOCH % "bad -> ba.cold: 1/2", "kernel row for Room.bad sums to 1/2",
         15, 3),
        ("\nstoch S {\n  prior Bath = (cold: 1)\n  kernel warm {\n  }\n}\n",
         "kernel warm: no prior declared for Room", 12, 10),
        ("\nstoch S {\n  prior Bath = (cold: 1/2)\n}\n",
         "prior on Bath does not sum to 1", 11, 26),
        ("\narchitecture f : (ba: Nope) -> Room {\n}\n",
         "unknown boundary 'Nope'", 10, 23),
        ("\narchitecture f : (ba: Bath) = Room {\n}\n",
         "expected '->', got '='", 10, 29),
        ("\narchitecture f : (ba: Bath) -> Room {\n  expose ba.heat = heat\n}\n",
         "expected '->', got '='", 11, 18),
        ("\nstoch S {\n  prior Bath = (cold: 1/0)\n}\n",
         "zero denominator", 11, 25),
        ("\nmodes M {\n  modes Bath = { cold, cold }\n}\n",
         "duplicate failure modes on Bath", 11, 29),
        ("\ninterface x @ physical\n", "unexpected character '@'", 10, 13),
        ("\nboundary Caf\u00e9 { heat: heat }\n",
         "unexpected character '\u00e9'", 10, 13),
        ("\nprob P {\n  warm = (ba: - 1)\n}\n", "unexpected character '-'",
         11, 15),
        ("\nequation warm(ba > warm) = warm\n", "unexpected character '>'",
         10, 18),
        ("\r\nprob P {\r\n  warm = (ba: 1/2)\r\n}\r\n",
         "distribution does not sum to 1", 11, 18),
        ("\n# ok: @ \u00e9 > - !\nequation nope = warm\n",
         "unknown generator 'nope'", 11, 10),
        ("\nprob P {\n}\nprob P {\n}\n", "duplicate functor 'P'", 12, 6),
        ("\nprob P {\n}\nmodes P {\n}\n", "duplicate functor 'P'", 12, 7),
        ("\nmodes M {\n}\nstoch M {\n}\n", "duplicate functor 'M'", 12, 7),
        ("\nprob P {\n  warm = (ba: 1)\n  warm = (ba: 1)\n}\n",
         "duplicate generator 'warm'", 12, 3),
        (_MODES % "}\n  rel warm {", "duplicate generator 'warm'", 15, 7),
        (_STOCH % "bad -> ba.cold: 1\n  }\n  kernel warm {",
         "duplicate generator 'warm'", 16, 10),
        ("\nmodes M {\n  modes Bath = { cold }\n  modes Bath = { hot }\n}\n",
         "duplicate boundary 'Bath'", 12, 9),
        ("\nstoch S {\n  prior Bath = (cold: 1)\n  prior Bath = (cold: 1)\n}\n",
         "duplicate boundary 'Bath'", 12, 9),
        ("\nprob P {\n  warm = (ba: 4/5, ba: 1/5)\n}\n",
         "duplicate slot 'ba'", 11, 20),
        (_STOCH % "bad -> ba.cold: 1/2\n    bad -> ba.cold: 1/2",
         "duplicate kernel entry bad -> ba.cold", 15, 5),
        pytest.param(
            "\nprob P {\n  warm = (ba: 1/" + "5" * 5000 + ")\n}\n",
            "number has too many digits", 11, 17,
            marks=pytest.mark.skipif(
                not 0 < getattr(sys, "get_int_max_str_digits",
                                lambda: 0)() < 5000,
                reason="no int string conversion limit below 5000 digits")),
        ("\nboundary X { p: nope }\n", "unknown interface 'nope'", 10, 17),
        ("\nboundary X { p: heat, p: temp }\n", "duplicate port 'p'", 10, 23),
        (_ARCH % "wire xx.heat = b.heat", "unknown slot 'xx'", 11, 8),
        (_ARCH % "wire a.heat = b.het", "unknown port het on Bath", 11, 19),
        (_ARCH % "wire a.heat = b.heat\n  wire a.heat = c.heat",
         "port a.heat attached to two wires", 12, 10),
        (_ARCH % "wire a.heat = b.heat = c.het", "unknown port het on Bath",
         11, 28),
        (_ARCH % "expose a.heat -> nope", "unknown port nope on Room", 11, 20),
        (_ARCH % "expose a.heat -> heat\n  expose b.heat -> heat",
         "port heat exposed twice", 12, 20),
        ("\nstoch S {\n  prior Bath = (cold 1)\n}\n", "expected ':', got '1'",
         11, 22),
        (_STOCH % "bad -> ba.cold: 1/0", "zero denominator", 14, 23),
        (_STOCH % "bad -> ba.cold: 1/2.5", "expected an integer denominator",
         14, 23),
        (_MODES % "ba cold -> bad", "expected '.', got 'cold'", 14, 8),
        (_MODES % "ba:cold -> bad", "expected '.', got ':'", 14, 7),
        ("\nboundary X { p = heat }\n", "expected ':', got '='", 10, 16),
        (_ARCH % "wire a:heat = b.heat", "expected '.', got ':'", 11, 9),
        (_ARCH % "wire a.heat = b.heat,",
         "expected 'wire' or 'expose', got ','", 11, 23),
        (_STOCH % "bad -> ba.cold = 1", "expected ':', got '='", 14, 20),
        ("\nprob P {\n  warm = (ba = 1)\n}\n", "expected ':', got '='",
         11, 14),
        ("\ninterface heat digital\n", "duplicate interface 'heat'", 10, 11),
        ("\narchitecture f : (a: Bath, a: Bath) -> Room {\n}\n",
         "duplicate slot 'a'", 10, 28),
        ("\narchitecture f : (a: Bath, b: Bath) -> Room {\n"
         "  expose a.heat -> heat\n  expose a.temp -> temp\n}\n"
         "prob P {\n  f = (a: 1)\n}\n",
         "distribution for f does not cover all slots", 15, 12),
        (_STOCH % "bad -> ba.cold: -1",
         "kernel entry (bad -> ba.cold) negative", 15, 3),
        ("\nstoch S {\n  prior Bath = (cold: -1, hot: 2)\n}\n",
         "prior on Bath: negative mass on 'cold'", 11, 33),
        ("\nstoch S {\n  prior Bath = (cold: 1/2, cold: 1/2)\n}\n",
         "duplicate failure modes on Bath", 11, 37),
        ("\nprob P {\n  warm = (ba: 3/2)\n}\n",
         "probability ba: 3/2 outside [0, 1]", 11, 18),
        ("\narchitecture f : (a Bath) -> Room {\n}\n",
         "expected ':', got 'Bath'", 10, 21),
        ("\narchitecture f : (1: Bath) -> Room {\n}\n",
         "expected slot label, got '1'", 10, 19),
        ("\narchitecture f : (a: Bath, -> Room {\n}\n",
         "expected slot label, got '->'", 10, 28),
        ("\narchitecture f : (a: Bath,", "expected slot label, got ''",
         10, 27),
        ("\narchitecture f : (a: Bath, b: Nope) -> Room {\n}\n",
         "unknown boundary 'Nope'", 10, 31),
        ("\narchitecture f : (a: Bath, b: 3) -> Room {\n}\n",
         "expected boundary name, got '3'", 10, 31),
    ], ids=["equation-generator", "equation-slot", "equation-arrow",
            "equation-duplicate-slot",
            "prob-slot", "prob-sum", "rel-slot", "rel-mode-in", "rel-mode-out",
            "rel-arrow", "kernel-slot", "kernel-mode-source",
            "kernel-mode-target", "kernel-arrow", "kernel-row-sum",
            "kernel-prior", "prior-sum", "architecture-boundary",
            "architecture-arrow", "expose-arrow", "zero-denominator",
            "duplicate-modes", "bad-character", "non-ascii-letter",
            "lone-minus", "lone-greater", "crlf", "bad-character-in-comment",
            "duplicate-prob", "prob-then-modes", "modes-then-stoch",
            "prob-generator", "rel-generator", "kernel-generator",
            "modes-boundary", "prior-boundary", "distribution-slot",
            "kernel-entry", "long-rational", "port-interface",
            "duplicate-port", "wire-slot", "wire-port", "wire-twice",
            "wire-three-ports", "expose-port", "expose-twice", "prior-colon",
            "kernel-zero-denominator", "kernel-decimal-denominator",
            "rel-dot", "rel-separator", "port-colon", "wire-dot",
            "wire-comma", "kernel-colon", "prob-colon", "duplicate-interface",
            "architecture-duplicate-slot", "prob-cover", "kernel-negative",
            "prior-negative", "prior-duplicate-modes", "prob-range",
            "slots-colon", "slots-label", "slots-trailing-comma",
            "slots-end-of-input", "slots-boundary", "slots-boundary-name"])
    def test_located_messages(self, tail, message, line, col):
        with pytest.raises(DslError) as err:
            parse(MINI + tail)
        assert str(err.value) == f"line {line}, column {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("slots, inputs", [
        ("()", ()), ("(a: Bath,)", ("a",)), ("(a: Bath b: Room)", ("a", "b")),
    ], ids=["empty", "trailing-comma", "no-comma"])
    def test_slot_lists_that_parse(self, slots, inputs):
        """A comma after a slot may be left out, or end the list."""
        wires = "wire a.heat = b.heat\nwire a.temp = b.temp" * (len(inputs) > 1)
        arch = parse(MINI + f"\narchitecture f : {slots} -> Room {{\n"
                     f"{wires}\n}}\n").presentation.generators["f"]
        assert arch.slots == inputs

    def test_truncated_model_fails_at_end_of_input(self):
        """LSI cut inside tau's block, after its first wire."""
        text, last = lsi_text(), "  wire bt.heat1 = ba.heat\n"
        with pytest.raises(DslError) as err:
            parse(text[:text.index(last) + len(last)])
        assert str(err.value) == (
            "line 48, column 1: expected 'wire' or 'expose', got ''")
        assert (err.value.line, err.value.col) == (48, 1)

    def test_history_block_is_not_part_of_the_grammar(self):
        text = MINI + "\nhistory ba interval [0, 10] { 1 2 }\n"
        with pytest.raises(DslError, match="unexpected 'history'"):
            parse(text)


class TestTokenizer:
    """Plain-string tokens, and the located re-scan that errors use."""

    WEIRD = ("@", "\u00e9", "-", ">", "#", "\r\n", "\u00b2", "\u0663", "\t",
             "--", "->>", "-1", "1.", ".5", "1/0", "_")

    @staticmethod
    def random_model_text(seed):
        rng = random.Random(seed)
        boundaries, generators, dists = {}, {}, {}
        while len(generators) < 6:
            name = f"g{len(generators)}"
            arch = random_architecture(
                rng, random_boundary(rng, f"Out{name}"), refusable=True)
            if any(all(r.slot is None for r in w.ports) for w in arch.wires):
                continue  # a wire of outer ports alone has no text form
            generators[name] = arch
            dists[name] = random_distribution(rng, arch.slots)
            for b in (arch.output, *(b for _, b in arch.inputs)):
                boundaries[b.name] = b
        pres = OperadPresentation(TypeTable({t: t for t in TYPES}),
                                  boundaries, generators)
        return serialize(Model(pres, {"P": ProbFunctor(dists, "P")}))

    def mutants(self, text, rng, n):
        """``n`` copies of ``text``, each with one word replaced or preceded
        by a word of the text or by characters the grammar may reject."""
        spans = [m.span() for m in re.finditer(r"\S+", text)]
        words = text.split()
        for _ in range(n):
            start, end = rng.choice(spans)
            new = rng.choice(self.WEIRD + tuple(words[:40]))
            if rng.random() < 0.5:
                end = start  # insert
            yield text[:start] + new + text[end:]

    @staticmethod
    def chunked(text, chunk, monkeypatch):
        """``_tokenize(text)`` read in chunks of ``chunk`` characters (None:
        the module's size), or the message of its ``DslError``."""
        with monkeypatch.context() as patch:
            if chunk is not None:
                patch.setattr(dsl, "_CHUNK", chunk)
            try:
                return _tokenize(text)
            except DslError as exc:
                return str(exc)

    def test_located_scan_agrees_with_tokenize(self, monkeypatch):
        """At the module's chunk size, where each text is one chunk, and at
        sizes that put many chunk seams into every text."""
        rng = random.Random(7)
        texts = [lsi_text(), lsi_text().replace("\n", "\r\n"),
                 self.random_model_text(11)]
        texts += list(self.mutants(texts[0], rng, 200))
        texts += list(self.mutants(texts[2], rng, 100))
        # the only decimal, or character outside the grammar, in the last chunk
        texts += [texts[2] + "\nx = 0.25\n", texts[2] + "\nx = @\n"]
        rejected = 0
        for text in texts:
            whole = self.chunked(text, None, monkeypatch)
            for chunk in (1, 7, 64):
                assert self.chunked(text, chunk, monkeypatch) == whole
            try:
                tokens = _tokenize(text)
            except DslError as exc:
                rejected += 1
                with pytest.raises(DslError) as again:
                    list(_located(text))
                assert str(again.value) == str(exc)
                continue
            located = list(_located(text))
            assert [tok for tok, _, _ in located] == tokens
            lines = text.split("\n")
            for tok, line, col in located:
                assert lines[line - 1][col - 1:].startswith(tok)
        assert 0 < rejected < len(texts)
        assert _tokenize(texts[-2])[-2] == "0.25"
        assert str(self.chunked(texts[-1], 7, monkeypatch)).endswith(
            "unexpected character '@'")

    @pytest.mark.parametrize("text, message", [
        (" " * 200_000 + "@", "line 1, column 200001: unexpected character '@'"),
        ("#" * 100_000 + "\n", None),
        ("a" * 100_000 + "@", "line 1, column 100001: unexpected character '@'"),
        ("5" * 50_000, "line 1, column 1: unexpected '" + "5" * 50_000 + "'"),
    ], ids=["spaces", "comment", "identifier", "number"])
    def test_long_runs_take_linear_time(self, text, message):
        """A backtracking token pattern would take minutes on these."""
        start = time.perf_counter()
        if message is None:
            parse(text)
        else:
            with pytest.raises(DslError) as err:
                parse(text)
            assert str(err.value) == message
        assert time.perf_counter() - start < 2.0


class TestBoundedMemory:
    """A parse holds one chunk of words at a time, and a generator keeps
    no dict of its port types."""

    @staticmethod
    @functools.cache
    def synth_text():
        return SynthModel(Shape(), 37).text  # 256 leaves, 380 KB

    def test_tokenize_holds_one_chunk_of_words(self):
        text = self.synth_text()
        tracemalloc.start()
        try:
            tokens = _tokenize(text)
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tokens) > 100_000
        # read in one piece, its 115k words took about 6 MB over the result
        assert peak - returned <= 1_500_000

    @pytest.mark.parametrize("which", ["lsi", "synth"])
    def test_checked_generators_drop_their_port_types(self, which):
        text = lsi_text() if which == "lsi" else self.synth_text()
        fresh, model = parse(text), parse(text)
        assert compile_presentation(model.presentation).success
        gens = model.presentation.generators
        assert all(g._checked for g in gens.values())
        for name, g in fresh.presentation.generators.items():
            assert not g._checked
            assert gens[name].describe() == g.describe()
        assert serialize(model) == serialize(fresh)

    def test_unwired_message_of_a_checked_generator(self):
        text = ("interface t physical\nboundary B { x: t, y: t }\n"
                "boundary C { x: t, z: t }\n"
                "architecture f : (a: B) -> C { expose a.x -> x }\n")
        fresh, model = parse(text), parse(text)
        f = canonicalize(model.presentation.generators["f"])
        assert f._checked
        for g in (fresh.presentation.generators["f"], f):
            with pytest.raises(ValidationError,
                               match=r"^unwired ports: a\.y, z$"):
                validate(g)


class TestSerialization:
    def test_round_trip_is_structural_identity(self, lsi):
        assert parse(serialize(lsi)) == lsi

    def test_serialize_is_deterministic_byte_exact(self, lsi):
        once = serialize(lsi)
        again = serialize(parse(once))
        assert once == again
        fresh = serialize(load_lsi())
        assert fresh == once

    def test_rationals_render_as_fractions(self, lsi):
        text = serialize(lsi)
        assert "3/14" in text
        assert "0.21" not in text

    def test_wire_order_is_not_part_of_the_model(self, lsi):
        """Wire lines, the ports of each and expose lines, shuffled within
        each architecture block, parse to the same model; an expose stays
        after the wires, since it joins its slot port's wire."""
        rng = random.Random(5)

        def shuffle(block):
            head, body, close = block.groups()
            lines = body.splitlines(keepends=True)
            wires = [line.split()[1::2] for line in lines
                     if line.split()[0] == "wire"]
            exposes = [line for line in lines if line.split()[0] == "expose"]
            assert len(wires) + len(exposes) == len(lines)
            rng.shuffle(wires)
            rng.shuffle(exposes)
            return head + "".join(
                "  wire " + " = ".join(rng.sample(ports, len(ports))) + "\n"
                for ports in wires) + "".join(exposes) + close

        texts = {re.sub(r"(architecture [^{]*\{\n)(.*?)(\})", shuffle,
                        lsi_text(), flags=re.S) for _ in range(5)}
        assert lsi_text() not in texts
        for text in texts:
            assert parse(text) == lsi

    def test_matching_round_trip(self):
        """An equation's explicit correspondence is written back as its
        ``matching`` block, pairs sorted."""
        text = lsi_text().replace(
            "= kappa(sn->sigma, ac->alpha)\n",
            "= kappa(sn->sigma, ac->alpha) matching { ts.rt ~ sn.rt, "
            "ts.bt ~ sn.bt, ts.ba ~ ac.ba, ls.ch ~ ac.ch, ls.op ~ sn.op, "
            "ls.in ~ sn.in }\n")
        model = parse(text)
        out = serialize(model)
        assert ("equation phi(ls->lambda, ts->tau) = kappa(sn->sigma, "
                "ac->alpha) matching { ls.ch ~ ac.ch, ls.in ~ sn.in, "
                "ls.op ~ sn.op, ts.ba ~ ac.ba, ts.bt ~ sn.bt, ts.rt ~ sn.rt }"
                ) in out.splitlines()
        assert parse(out) == model

    def test_mini_round_trip(self):
        model = parse(MINI)
        assert parse(serialize(model)) == model

    def test_wire_of_outer_ports_only_is_refused(self):
        """No line of the format writes a wire without a slot port, so a
        hand-built one does not serialize."""
        pres = parse(MINI).presentation
        warm = pres.generators["warm"]
        f = Architecture(warm.inputs, warm.output,
                         (Wire(frozenset({PortRef(None, "heat")}), "heat"),))
        with pytest.raises(ValidationError) as err:
            serialize(Model(pres._replace(generators={"f": f})))
        assert str(err.value) == \
            "architecture f: wire {heat}:heat has no slot ports"

    def test_compile_refuses_a_wire_of_outer_ports_only(self):
        """Such a wire is invalid, so a model that compiles serializes."""
        pres = parse(MINI).presentation
        bath = pres.boundaries["Bath"]
        f = Architecture((("ba", bath), ("bb", bath)), pres.boundaries["Room"], (
            Wire(frozenset({PortRef("ba", "temp"), PortRef("bb", "temp"),
                            PortRef(None, "temp")}), "temp"),
            Wire(frozenset({PortRef("ba", "heat"), PortRef("bb", "heat")}),
                 "heat"),
            Wire(frozenset({PortRef(None, "heat")}), "heat")))
        with pytest.raises(ValidationError,
                           match=r"^wire \{heat\}:heat has no slot ports$"):
            validate(f)
        report = compile_presentation(pres._replace(generators={"f": f}))
        assert report.errors == (
            "generator f: wire {heat}:heat has no slot ports",)

    def test_every_model_that_compiles_round_trips(self):
        """Compile refuses a wire of one slot port, which has no line in the
        format, as it refuses a wire of outer ports alone."""
        rng = random.Random(31)
        refused = Counter()
        for _ in range(200):
            arch = random_architecture(rng, random_boundary(rng, "Out"))
            boundaries = {b.name: b for b in (
                arch.output, *(b for _, b in arch.inputs))}
            model = Model(OperadPresentation(
                TypeTable({t: t for t in TYPES}), boundaries, {"f": arch}))
            errors = compile_presentation(model.presentation).errors
            refusal = validate_oracle(arch)
            refused[refusal and refusal.split()[0]] += 1
            if refusal:
                assert errors == (f"generator f: {refusal}",)
                if refusal.startswith("wire"):
                    with pytest.raises(ValidationError, match=refusal):
                        serialize(model)
                continue
            assert errors == ()
            assert parse(serialize(model)) == model
        assert min(refused[k] for k in (None, "unwired", "wire")) > 0
        assert refused[None] >= 150

    def test_compile_refuses_a_slot_port_alone_on_its_wire(self):
        model = parse("interface t physical\nboundary B { x: t }\n"
                      "architecture f : (a: B) -> B { wire a.x = a.x }\n")
        assert compile_presentation(model.presentation).errors == (
            "generator f: unwired ports: a.x, x",)


class TestCorpusFile:
    def test_text_accessible_and_parseable(self):
        text = lsi_text()
        assert "architecture phi" in text
        assert load_lsi().presentation.generators.keys() == {
            "phi", "lambda", "tau", "kappa", "sigma", "alpha", "beta"}
