"""A committed judge for the parser: seeded ``.opm`` texts and free terms,
each with the outcome recorded in ``fixtures/parse_judge.json.gz``.

A model case's outcome is the exact error that ``dsl.parse`` raises, or a
digest of ``serialize`` of the parsed model (or the error that ``serialize``
raises); a term case's is the error that ``parse_free_term`` raises, or the
term as it prints.  A refactor of the parser must leave every outcome as it
was.  Regenerating the fixture is a deliberate act:

    PYTHONPATH=src python tests/test_parse_judge.py --write

and the change that does it says which cases changed and why.
"""
import gzip
import hashlib
import json
import random
import sys
from pathlib import Path

from opmodel.corpus import lsi_text
from opmodel.dsl import DslError, parse, parse_free_term, serialize
from opmodel.portgraph import Architecture

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from synth import Shape, SynthModel  # noqa: E402
import test_cli  # noqa: E402
import test_dsl  # noqa: E402

# the mutant makers of two test classes, under names that pytest does not
# collect a second time
Mutants, Tokenizer = test_cli.TestMutants, test_dsl.TestTokenizer

FIXTURE = Path(__file__).parent / "fixtures" / "parse_judge.json.gz"

TERMS = ("phi(ls->lambda, ts->tau)", "kappa(sn->sigma, ac->alpha)",
         "tau(ba->beta)", "phi(ls->lambda, ts->tau(ba->beta))",
         "lambda", "tau(ba->beta, ba->beta)")


def token_mutants(text, rng, n, vocab=None):
    """``n`` copies of ``text``, each with one token anywhere deleted,
    replaced or preceded by a token of the text."""
    spans = [m.span() for m in Mutants.TOKEN.finditer(text)]
    vocab = vocab or sorted(set(Mutants.TOKEN.findall(text)))
    for _ in range(n):
        start, end = rng.choice(spans)
        op = rng.choice(("delete", "replace", "insert"))
        new = "" if op == "delete" else rng.choice(vocab) + " "
        yield text[:start] + new + text[start if op == "insert" else end:]


def line_mutants(text, rng, n):
    """``n`` copies of ``text``, each with one line deleted or repeated."""
    lines = text.splitlines(keepends=True)
    for _ in range(n):
        k = rng.randrange(len(lines))
        copies = 2 if rng.random() < 0.5 else 0
        yield "".join(lines[:k] + lines[k:k + 1] * copies + lines[k + 1:])


def cases():
    """Each case as ``(label, kind, text)``, ``kind`` "model" or "term"."""
    rng = random.Random(23)
    synth = SynthModel(Shape(depth=2), 1)  # 16 leaves
    bases = {"lsi": lsi_text(), "lsi-crlf": lsi_text().replace("\n", "\r\n"),
             "random": Tokenizer.random_model_text(11),
             "synth": synth.text, "synth-twin": synth.twin_text}
    models = list(bases.items())
    for name, n in (("lsi", 100), ("random", 40), ("synth", 20)):
        text = bases[name]
        models += [(f"{name}/weird-{k}", mutant) for k, mutant in enumerate(
            Tokenizer().mutants(text, rng, n))]
        models += [(f"{name}/token-{k}", mutant) for k, mutant in enumerate(
            token_mutants(text, rng, 2 * n))]
    models += [(f"lsi/first-half-{k}", Mutants().token_mutant(
        bases["lsi"], rng)) for k in range(100)]
    for name, n in (("lsi", 80), ("random", 20), ("synth", 20)):
        models += [(f"{name}/line-{k}", mutant) for k, mutant in enumerate(
            line_mutants(bases[name], rng, n))]
    terms = [*TERMS, synth.roots["a"].term(), Mutants.DEEP_TERM]
    vocab = sorted({tok for t in terms for tok in Mutants.TOKEN.findall(t)}
                   | set(Tokenizer.WEIRD))
    free = [(f"term-{k}", t) for k, t in enumerate(terms)]
    for k, t in enumerate(terms[:-1]):
        free += [(f"term-{k}/token-{j}", mutant) for j, mutant in enumerate(
            token_mutants(t, rng, 40, vocab))]
    return ([(label, "model", text) for label, text in models]
            + [(label, "term", text) for label, text in free])


def outcome(kind, text):
    """What parsing ``text`` gives, as one line."""
    try:
        value = parse(text) if kind == "model" else parse_free_term(text)
    except Exception as exc:  # noqa: BLE001  (every error is an outcome)
        return f"{type(exc).__name__}: {exc}"
    if kind == "term":
        return f"term {value}"
    try:
        out = serialize(value)
    except Exception as exc:  # noqa: BLE001
        return f"serialize {type(exc).__name__}: {exc}"
    return "serialize sha256:" + hashlib.sha256(out.encode()).hexdigest()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def judged():
    """``[label, input digest, outcome]`` for every case."""
    return [[label, digest(text), outcome(kind, text)]
            for label, kind, text in cases()]


def test_every_case_keeps_its_outcome():
    with gzip.open(FIXTURE, "rt", encoding="utf-8") as f:
        expected = json.load(f)
    got = judged()
    assert len(got) == len(expected), "the generator's case count changed"
    for (label, text_digest, want), (_, text_digest_now, have) in zip(
            expected, got):
        assert text_digest_now == text_digest, (
            f"case {label}: the generator made a different input")
        assert have == want, (
            f"case {label}:\n  fixture: {want}\n  now:     {have}")
    assert {"DslError:", "serialize", "term"} <= {
        have.split()[0] for _, _, have in got}


def test_parser_tables_equal_tables_built_from_wires():
    """The parser writes each generator's wiring table and no wires; the
    table equals the one the wires it stands for give (same ids, numbered
    by first occurrence, each wire typed by its first port)."""
    texts = [lsi_text()] + [
        model.text for depth in (2, 3) for seed in (1, 2, 3)  # 16, 64 leaves
        for model in (SynthModel(Shape(depth=depth), seed),)]
    texts += [text for _, kind, text in cases() if kind == "model"]
    accepted = 0
    for text in texts:
        try:
            generators = parse(text).presentation.generators.values()
        except DslError:
            continue
        accepted += 1
        for arch in generators:
            assert arch._wires is None
            table = arch._table
            built = Architecture(arch.inputs, arch.output, arch.wires)
            assert table == built._table
    assert accepted > 100


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    data = json.dumps(judged(), indent=0, ensure_ascii=True)
    with open(FIXTURE, "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", mtime=0, filename="") as f:
        f.write(data.encode("ascii"))
