"""Command-line front end over ``.opm`` model files.

Exit status: 0 when all requested checks pass, 1 when a semantic check
fails, 2 for usage, parse or model errors.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from fractions import Fraction
from typing import Callable

from .dsl import DslError, Model, parse, parse_rational
from .modes import check_mode_functor
from .portgraph import PortGraphError, lookup
from .presentation import TermSyntaxError, compile_presentation, elaborate, parse_term
from .prob import (check_prob_functor, format_exact, format_probability,
                   leaf_path_probability, percent)
from .stoch import check_lifting, diagnose, format_posterior

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


class CliError(Exception):
    """A usage or model error (exit status 2)."""


def _load_model(path: str) -> Model:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise CliError(f"model file not found: {path}") from None
    except OSError as exc:
        raise CliError(f"cannot read model file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    try:
        return parse(text)
    except DslError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _tolerance(args: argparse.Namespace) -> Fraction:
    try:
        tolerance = parse_rational(args.tolerance)
    except DslError:
        pass
    else:
        if tolerance >= 0:
            return tolerance
    raise CliError(f"bad tolerance {args.tolerance!r}")


def _emit(args: argparse.Namespace, text: Callable[[], str],
          payload: Callable[[], dict], code: int = EXIT_OK) -> int:
    """Print ``text()``, or ``payload()`` as JSON under the command's name,
    building only the one printed, and return ``code``, the command's exit
    status."""
    try:
        print(json.dumps({"command": args.command, **payload()}, indent=2,
                         sort_keys=True)
              if args.format == "json" else text(), flush=True)
    except BrokenPipeError:
        # the reader has gone: drop the output, and point stdout at devnull
        # so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    report = compile_presentation(model.presentation)
    return _emit(args, report.__str__, report.to_dict,
                 EXIT_OK if report.success else EXIT_CHECK_FAILED)


def cmd_compose(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    term = parse_term(args.term)
    arch = elaborate(model.presentation, term)
    return _emit(args, arch.describe, lambda: {
        "term": str(term),
        "inputs": [{"slot": s, "boundary": b.name} for s, b in arch.inputs],
        "output": arch.output.name,
        "wires": [w.to_dict() for w in arch.wires],
    })


def _functor_checks(model: Model, names: list[str], tolerance: Fraction):
    """Dispatch named functors by kind: one ``(name, kind, report)`` per check."""
    reports = []
    prob_name = modes_name = None
    stoch_names = []
    for name in names:
        if name in model.prob_functors:
            prob_name = name
            reports.append((name, "prob", check_prob_functor(
                model.presentation, model.prob_functors[name], tolerance)))
        elif name in model.mode_functors:
            modes_name = name
            reports.append((name, "modes", check_mode_functor(
                model.presentation, model.mode_functors[name])))
        elif name in model.stoch_functors:
            stoch_names.append(name)
        else:
            raise CliError(f"no functor named {name!r} in the model")
    if stoch_names and (prob_name is None or modes_name is None):
        raise CliError(
            "checking a stochastic functor requires naming a "
            "probability functor and a mode functor as well")
    # each stochastic functor against the last probability and mode functor
    for name in stoch_names:
        reports.append((name, "stoch", check_lifting(
            model.presentation, model.stoch_functors[name],
            model.prob_functors[prob_name], model.mode_functors[modes_name],
            tolerance)))
    return reports


def cmd_check(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    tolerance = _tolerance(args)
    arch_report = compile_presentation(model.presentation)
    functor_reports = _functor_checks(model, args.functor or [], tolerance)

    passed = arch_report.success and all(r.passed for _, _, r in functor_reports)

    def text() -> str:
        return "\n".join([str(arch_report), *(
            f"[{kind} {name}]\n{report}"
            for name, kind, report in functor_reports)])

    def payload() -> dict:
        return {
            "passed": passed,
            "tolerance": format_exact(tolerance),
            "architecture": arch_report.to_dict(),
            "functors": [{"name": name, "kind": kind, **report.to_dict()}
                         for name, kind, report in functor_reports],
        }
    return _emit(args, text, payload,
                 EXIT_OK if passed else EXIT_CHECK_FAILED)


def cmd_query(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    F = lookup(model.prob_functors, args.functor,
               "no probability functor named {!r}")
    term = parse_term(args.term)
    path, value = leaf_path_probability(model.presentation, F, term,
                                        args.leaf)
    return _emit(args, lambda: format_probability(value), lambda: {
        "term": str(term),
        "leaf": args.leaf,
        "path": path,
        "value": format_exact(value),
        "percent": percent(value),
    })


def cmd_diagnose(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    S = lookup(model.stoch_functors, args.functor,
               "no stochastic functor named {!r}")
    term = parse_term(args.term)
    posterior = diagnose(model.presentation, S, term, args.mode)
    return _emit(args, lambda: format_posterior(posterior), lambda: {
        "term": str(term),
        "mode": args.mode,
        "posterior": [
            {"leaf": label, "value": format_exact(p), "percent": percent(p)}
            for label, p in posterior.entries],
    })


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call and shared by
    every later ``run``: parsing leaves it unchanged. Only a caller that runs
    several commands in one process gains; ``opmodel`` runs one."""
    parser = argparse.ArgumentParser(
        prog="opmodel",
        description="Validate, compose and check compositional system models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("model", help="path to a .opm model file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, help="compile and validate a model")

    p = add("compose", cmd_compose, help="print the canonical composite of a term")
    p.add_argument("--term", required=True, help='e.g. "tau(ba->beta)"')

    p = add("check", cmd_check,
            help="check architecture equations and functor coherence")
    p.add_argument("--functor", action="append",
                   help="functor name; repeatable (stoch requires prob+modes)")
    p.add_argument("--tolerance", default="0",
                   help="absolute tolerance (default 0)")

    p = add("query", cmd_query, help="leaf failure probability along a term")
    p.add_argument("--functor", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--leaf", required=True)

    p = add("diagnose", cmd_diagnose,
            help="posterior over leaf modes given an observed root mode")
    p.add_argument("--functor", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--mode", required=True)

    return parser


def run(argv: list[str] | None = None) -> int:
    # no command makes cyclic garbage, so the collector's scans of the live
    # model would free nothing: pause it, and leave it as the caller had it
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (CliError, PortGraphError, TermSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
