"""A committed judge for the command line: seeded ``opmodel`` invocations,
each with the exit status, standard output and standard error it gave
recorded in ``fixtures/cli_judge.json.gz``.

The models are the bundled LSI model, LSI without one of lambda's wires,
LSI cut short, LSI with an identity generator, the semantic mutants of
``test_cli.TestMutants``, a generator with a wire of one slot port, and a
16-leaf synthetic model with its broken twin.  Each is run through
``validate``, ``compose``, ``check``, ``query`` and ``diagnose``, in text
and in JSON.  The model's path reads ``{model}`` in the fixture.  A change
to the library must leave every case as it was.  Regenerating the fixture
is a deliberate act:

    PYTHONPATH=src python tests/test_cli_judge.py --write

and the change that does it says which cases changed and why.
"""
import difflib
import gzip
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from opmodel.cli import run
from opmodel.corpus import lsi_text
from opmodel.dsl import DslError, parse, serialize
from opmodel.presentation import compile_presentation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from synth import Shape, SynthModel  # noqa: E402
import test_cli  # noqa: E402

FIXTURE = Path(__file__).parent / "fixtures" / "cli_judge.json.gz"
PLACEHOLDER = "{model}"

# a generator whose only wire holds one slot port and nothing else
LONE_PORT = """interface t physical
boundary B { x: t } boundary E { }
architecture f : (a: B) -> E { wire a.x = a.x }
"""

LSI_TERMS = ("phi(ls->lambda, ts->tau)", "kappa(sn->sigma, ac->alpha)",
             "tau(ba->beta)", "phi(ls->lambda, ts->tau(ba->beta))",
             "tau(rt->beta)", "tau(ba->idb(x->beta))")
LSI_QUERIES = (("phi(ls->lambda, ts->tau(ba->beta))", "ht"),
               ("tau(ba->beta)", "heater"), ("tau(rt->beta)", "rt.ht"),
               ("phi(ls->lambda, ts->tau)", "ts.ba"))
LSI_DIAGNOSES = (("tau(ba->beta)", "laser_low"),
                 ("phi(ls->lambda, ts->tau)", "bad_length"),
                 ("tau(rt->beta)", "laser_high"))


def models():
    """Each model as ``(name, text, commands)``, a command an argv whose
    ``{model}`` stands for the model's path."""
    lsi = lsi_text()
    wired, cut = "  wire ch.focus = op.focus\n", "  wire bt.heat1 = ba.heat\n"
    lsi_models = {"lsi": lsi, "lsi-perturbed": lsi.replace(wired, ""),
                  "lsi-truncated": lsi[:lsi.index(cut) + len(cut)],
                  "identity": test_cli.identity_model_text()}
    # the first mutant is the identity model
    for k, text in enumerate(test_cli.TestMutants.semantic_mutants(lsi)[1:]):
        lsi_models[f"mutant-{k}"] = text
    lsi_commands = command_list(LSI_TERMS, LSI_QUERIES, LSI_DIAGNOSES)
    out = [(name, text, lsi_commands) for name, text in lsi_models.items()]
    out.append(("lone-port", LONE_PORT, command_list(("f",), (), ())))
    synth = SynthModel(Shape(depth=2), 1)  # 16 leaves
    a, b = synth.roots["a"].term(), synth.roots["b"].term()
    synth_commands = command_list(
        (a, b), ((a, "c0.l0"), (b, "c1.l7"), (a, "l15")),
        ((a, synth.root_modes[0]), (b, synth.root_modes[-1])))
    out += [("synth", synth.text, synth_commands),
            ("synth-twin", synth.twin_text, synth_commands)]
    return out


def command_list(terms, queries, diagnoses):
    """Every command over the model, in text and in JSON."""
    commands = [["validate"]]
    commands += [["compose", "--term", t] for t in terms]
    commands += [["check", *f] for f in (
        ["--functor", "P"], ["--functor", "M"], ["--functor", "S"],
        ["--functor", "P", "--functor", "M", "--functor", "S"])]
    commands += [["query", "--functor", "P", "--term", t, "--leaf", leaf]
                 for t, leaf in queries]
    commands += [["diagnose", "--functor", "S", "--term", t, "--mode", x]
                 for t, x in diagnoses]
    return [[c[0], PLACEHOLDER, *c[1:], "--format", fmt]
            for c in commands for fmt in ("text", "json")]


def run_case(argv, path):
    """``cli.run`` of ``argv`` with ``path`` for ``{model}``, as
    ``[exit status, stdout, stderr]`` with ``{model}`` for ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([path if a == PLACEHOLDER else a for a in argv])
    return [code, *(s.getvalue().replace(path, PLACEHOLDER)
                    for s in (out, err))]


def judged(workdir):
    """``[argv, exit status, stdout, stderr]`` for every case, the model
    written under ``workdir`` and named in ``argv`` as ``<name>.opm``."""
    cases = []
    for name, text, commands in models():
        path = Path(workdir) / f"{name}.opm"
        path.write_text(text, encoding="utf-8")
        for argv in commands:
            cases.append([[path.name if a == PLACEHOLDER else a for a in argv],
                          *run_case(argv, str(path))])
    return cases


def mismatch(want, have):
    """A readable account of how case ``have`` differs from ``want``."""
    lines = [f"case {' '.join(want[0])}:"]
    if have[1] != want[1]:
        lines.append(f"  exit status: fixture {want[1]}, now {have[1]}")
    for k, stream in ((2, "stdout"), (3, "stderr")):
        if have[k] != want[k]:
            lines += difflib.unified_diff(
                want[k].splitlines(), have[k].splitlines(),
                f"{stream} (fixture)", f"{stream} (now)", lineterm="")
    return "\n".join(lines)


def test_every_case_keeps_its_output(tmp_path):
    with gzip.open(FIXTURE, "rt", encoding="utf-8") as f:
        expected = json.load(f)
    got = judged(tmp_path)
    assert [c[0] for c in got] == [c[0] for c in expected], (
        "the generator's cases changed")
    for want, have in zip(expected, got):
        assert have == want, mismatch(want, have)
    assert {0, 1, 2} == {c[1] for c in got}


def test_every_model_that_compiles_round_trips():
    compiled = 0
    for _, text, _ in models():
        try:
            model = parse(text)
        except DslError:
            continue
        if compile_presentation(model.presentation).success:
            compiled += 1
            assert parse(serialize(model)) == model
    assert compiled == 5  # lsi, two mutants, synth and its twin


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as workdir:
        data = json.dumps(judged(workdir), indent=0, ensure_ascii=True)
    with open(FIXTURE, "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", mtime=0, filename="") as f:
        f.write(data.encode("ascii"))
