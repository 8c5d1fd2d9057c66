"""The benchmark's workloads: inputs, set-up, a seeded op stream and checks.

Each workload builds its inputs from the seed (the benchmark's own cost),
then :meth:`setup` does the work ``opmodel`` needs before the first op, and
:meth:`ops` yields an endless, seeded stream of ops.  An op is a call into
``opmodel`` plus a check of its result against a reference that does not
come from ``opmodel``.  Library functions are looked up on the ``opmodel``
modules at call time, so a tracer installed later sees every call.
"""
from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from synth import Shape, SynthModel

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str]   # "" when the result is right


def _mix(seed: int, block: list) -> Iterator:
    """Endless seeded shuffles of a fixed block, so shares are exact per block."""
    rng = random.Random(seed)
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from ((rng, item) for item in order)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``opmodel.cli.run`` in-process with standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sys.modules["opmodel.cli"].run(argv)
    return code, out.getvalue(), err.getvalue()


def _json_path(doc, path: str):
    for part in path.split("."):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def _exit_problem(result: tuple[int, str, str], exit_code: int) -> str:
    code, out, err = result
    if "Traceback" in out or "Traceback" in err:
        return "printed a traceback"
    if code != exit_code:
        return f"exit {code}, expected {exit_code}"
    return ""


def check_cli(spec: dict, result: tuple[int, str, str]) -> str:
    """Compare one captured CLI run with its hand-written expectation."""
    problem = _exit_problem(result, spec["exit"])
    if problem:
        return problem
    _, out, err = result
    lines = set(out.splitlines())
    for line in spec.get("stdout_lines", ()):
        if line not in lines:
            return f"missing output line {line!r}"
    for text in spec.get("stderr_has", ()):
        if text not in err:
            return f"missing {text!r} in standard error"
    if "json" in spec:
        try:
            doc = json.loads(out)
        except ValueError:
            return "output is not JSON"
        for path, want in spec["json"].items():
            try:
                got = _json_path(doc, path)
            except (KeyError, IndexError, TypeError):
                return f"no {path} in the JSON report"
            if got != want:
                return f"{path} = {got!r}, expected {want!r}"
    return ""


class LsiCli:
    """A seeded mix of ``cli.run`` calls on the bundled LSI model."""

    name = "lsi-cli"
    setup_reps = 15

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        self.seed = seed
        expected = json.loads((HERE / "lsi_expected.json").read_text())
        text = (src / "opmodel" / "data" / "lsi.opm").read_text(encoding="utf-8")
        cut = text.index(expected["truncate_after"]) + len(expected["truncate_after"])
        if expected["perturb_remove"] not in text:
            raise ValueError("the LSI model no longer has the perturbed wire")
        models = {"clean": text,
                  "perturbed": text.replace(expected["perturb_remove"], ""),
                  "truncated": text[:cut]}
        paths = {}
        for key, body in models.items():
            paths[key] = workdir / f"lsi-{key}.opm"
            paths[key].write_text(body, encoding="utf-8")
        self.block = []
        for spec in expected["ops"]:
            argv = [a.format(**{k: str(p) for k, p in paths.items()})
                    for a in spec["argv"]]
            self.block += [(spec, argv)] * spec["count"]

    def setup(self, opmodel) -> None:
        """Nothing beyond the import: every op parses its model anew."""

    def ops(self) -> Iterator[Op]:
        for _, (spec, argv) in _mix(self.seed, self.block):
            yield Op(spec["name"], lambda argv=argv: run_cli(argv),
                     lambda result, spec=spec: check_cli(spec, result))


def check_synth_report(expect: dict, result: tuple[int, str, str]) -> str:
    """Check the text report of ``check --functor P --functor M --functor S``."""
    problem = _exit_problem(result, expect["exit"])
    if problem:
        return problem
    lines = result[1].splitlines()
    n = expect["leaf_rows"]
    for line in ("[prob P]", f"probability coherence: pass ({n} leaf equations)",
                 "[modes M]", f"mode coherence: pass ({n} leaf relations)",
                 "[stoch S]"):
        if line not in lines:
            return f"missing output line {line!r}"
    if not lines[0].startswith("compile ok:"):
        return f"compile failed: {lines[0]!r}"
    stoch = lines.index("[stoch S]")
    if any("FAIL" in line for line in lines[:stoch]):
        return "a prob or modes row failed"
    failing = {line.strip().split(": FAIL")[0] for line in lines[stoch + 2:]
               if ": FAIL" in line}
    verdict = "FAIL" if expect["lifting_failures"] else "pass"
    if lines[stoch + 1] != f"lifting check: {verdict}":
        return f"lifting verdict {lines[stoch + 1]!r}, expected {verdict}"
    if failing != expect["lifting_failures"]:
        return f"failing lifting rows {sorted(failing)}"
    return ""


class SynthCheck:
    """``opmodel check`` through ``cli.run`` on a generated model, alternating with its twin."""

    name = "synth-check"
    setup_reps = 15

    def __init__(self, seed: int, workdir: Path, src: Path,
                 shape: Shape = Shape()) -> None:
        self.model = SynthModel(shape, seed)
        self.cases = []
        for twin, text in ((False, self.model.text), (True, self.model.twin_text)):
            path = workdir / f"synth-{'twin' if twin else 'clean'}-{seed}.opm"
            path.write_text(text, encoding="utf-8")
            argv = ["check", str(path), "--functor", "P", "--functor", "M",
                    "--functor", "S"]
            self.cases.append((twin, argv, self.model.check_verdict(twin)))

    def setup(self, opmodel) -> None:
        """Nothing beyond the import: every op parses its model anew."""

    def ops(self) -> Iterator[Op]:
        while True:
            for twin, argv, expect in self.cases:
                yield Op("check-twin" if twin else "check",
                         lambda argv=argv: run_cli(argv),
                         lambda result, expect=expect: check_synth_report(
                             expect, result))


# (op kind, subterm depth) -> how often it appears in a block of 20 ops.
# Sorted by time, the block puts the median among the root leaf_probability
# ops and the 90th percentile among the root diagnose ops.
QUERY_BLOCK = {
    ("diagnose", 0): 4, ("diagnose", 1): 3, ("diagnose", 2): 1,
    ("leaf_probability", 0): 4, ("leaf_probability", 1): 1,
    ("leaf_probability", 2): 1,
    ("can_cause", 0): 2, ("can_cause", 1): 1, ("can_cause", 2): 1,
    ("pipeline_check", 0): 1, ("pipeline_check", 1): 1,
}
HISTORY_SPAN = 100


class SynthQuery:
    """A library session: the model is parsed once, then queried on subterms."""

    name = "synth-query"
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path, src: Path,
                 shape: Shape = Shape()) -> None:
        self.seed = seed
        self.model = SynthModel(shape, seed)
        self.by_depth = {}
        for node in self.model.nodes.values():
            if node.depth <= 2:
                self.by_depth.setdefault(node.depth, []).append(node)
        self.block = [key for key, count in QUERY_BLOCK.items()
                      for _ in range(count)]

    def setup(self, opmodel) -> None:
        """Parse the model and the subterms the session queries."""
        self.api = opmodel
        model = opmodel.parse(self.model.text)
        self.pres = model.presentation
        self.P = model.prob_functors["P"]
        self.M = model.mode_functors["M"]
        self.S = model.stoch_functors["S"]
        self.terms = {node.gen: opmodel.parse_term(node.term())
                      for nodes in self.by_depth.values() for node in nodes}

    def ops(self) -> Iterator[Op]:
        m, api = self.model, self.api
        for rng, (kind, depth) in _mix(self.seed, self.block):
            node = rng.choice(self.by_depth[depth])
            term = self.terms[node.gen]
            leaf = rng.choice(node.leaves)
            x = rng.choice(m.root_modes)
            y = rng.choice(m.leaf_modes)
            if kind == "diagnose":
                yield Op(kind, lambda t=term, x=x: api.diagnose(
                    self.pres, self.S, t, x),
                    lambda got, node=node, x=x: "" if dict(got.entries)
                    == m.posterior(node, x) else "posterior differs")
            elif kind == "leaf_probability":
                want = m.leaf_probability(node, leaf)
                yield Op(kind, lambda t=term, leaf=leaf: api.leaf_probability(
                    self.pres, self.P, t, f"l{leaf}"),
                    lambda got, want=want: "" if got == want
                    else f"{got} != {want}")
            elif kind == "can_cause":
                want = m.can_cause(leaf, y, x)
                yield Op(kind, lambda t=term, leaf=leaf, y=y, x=x: api.can_cause(
                    self.pres, self.M, t, f"l{leaf}", y, x),
                    lambda got, want=want: "" if got is want
                    else f"{got} != {want}")
            else:
                counts = {leaf: rng.randint(1, 6) for leaf in node.leaves}
                histories = {
                    node.paths[leaf]: api.FailureHistory(
                        Fraction(0), Fraction(HISTORY_SPAN), tuple(sorted(
                            Fraction(rng.randint(0, HISTORY_SPAN))
                            for _ in range(c))))
                    for leaf, c in counts.items()}
                want = m.pipeline_dists(node, counts)
                yield Op(kind, lambda t=term, h=histories: api.pipeline_check(
                    self.pres, [(t, h)]),
                    lambda got, want=want: "" if got.consistent and {
                        g: dict(d.entries) for g, d in got.functor.dists.items()
                    } == want else "pipeline distributions differ")


WORKLOADS = {w.name: w for w in (LsiCli, SynthCheck, SynthQuery)}
