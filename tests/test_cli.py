"""Command-line interface: subcommands, exit codes, text and JSON output."""
import gc
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opmodel
import opmodel.cli as cli
from opmodel.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK, run
from opmodel.corpus import lsi_text


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "lsi.opm"
    path.write_text(lsi_text(), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def failing_model_path(tmp_path_factory):
    # skew phi's distribution so the probability coherence check fails
    text = lsi_text().replace("phi = (ls: 2/5, ts: 3/5)",
                              "phi = (ls: 1/2, ts: 1/2)")
    path = tmp_path_factory.mktemp("models") / "bad.opm"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def incomplete_matching_path(tmp_path_factory):
    text = lsi_text().replace(
        "= kappa(sn->sigma, ac->alpha)\n",
        "= kappa(sn->sigma, ac->alpha) matching { ls.in ~ sn.in }\n")
    path = tmp_path_factory.mktemp("models") / "matching.opm"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def ill_typed_matching_path(tmp_path_factory):
    # the sides swap LengthSys and TempSys, and the matching pairs their
    # leaves as if that were well typed
    text = lsi_text().replace(
        "equation phi(ls->lambda, ts->tau) = kappa(sn->sigma, ac->alpha)\n",
        "equation phi(ls->tau, ts->lambda) = kappa(sn->sigma, ac->alpha) "
        "matching { ls.ba ~ ac.ba, ls.bt ~ sn.bt, ls.rt ~ sn.rt, "
        "ts.in ~ sn.in, ts.op ~ sn.op, ts.ch ~ ac.ch }\n")
    path = tmp_path_factory.mktemp("models") / "ill_typed.opm"
    path.write_text(text, encoding="utf-8")
    return str(path)


def identity_model_text():
    """LSI plus an identity generator on Bath, used in an equation."""
    return (lsi_text()
            .replace("# Both decompositions",
                     "architecture idb : (x: Bath) -> Bath {}\n\n"
                     "# Both decompositions")
            .replace("= kappa(sn->sigma, ac->alpha)\n",
                     "= kappa(sn->sigma, ac->alpha)\n"
                     "equation tau(ba->idb) = tau\n")
            .replace("  beta = (ht: 1/2", "  idb = (x: 1)\n  beta = (ht: 1/2")
            .replace("  rel beta {", "  rel idb {\n    x.too_cold -> too_cold\n"
                     "    x.too_hot -> too_hot\n  }\n  rel beta {")
            .replace("  kernel beta {",
                     "  kernel idb {\n    too_cold -> x.too_cold: 1\n"
                     "    too_hot -> x.too_hot: 1\n  }\n  kernel beta {"))


@pytest.fixture(scope="module")
def identity_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "identity.opm"
    path.write_text(identity_model_text(), encoding="utf-8")
    return str(path)


def overlong_query_text():
    """LSI with phi's and lambda's weights over 4001-digit denominators: the
    leaf ls.in of phi(ls->lambda, ts->tau) has a probability of 8001
    digits, past the default limit on integer string conversion."""
    n, m = 10 ** 4000 + 7, 10 ** 4000 + 9
    return lsi_text().replace(
        "phi = (ls: 2/5, ts: 3/5)",
        f"phi = (ls: 1/{n}, ts: {n - 1}/{n})").replace(
        "lambda = (in: 1/10, op: 3/10, ch: 3/5)",
        f"lambda = (in: 1/{m}, op: 1/{m}, ch: {m - 2}/{m})")


class TestValidate:
    def test_corpus_validates(self, model_path, capsys):
        assert run(["validate", model_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "compile ok: 14 boundaries, 7 generators, 1 equations" in out

    def test_json_mirrors_text(self, model_path, capsys):
        run(["validate", model_path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is True
        assert payload["boundaries"] == 14
        assert payload["generators"] == 7
        assert payload["equation_results"][0]["passed"] is True


    def test_json_carries_the_wire_diff(self, tmp_path, capsys):
        """A failing equation's JSON result lists the wires its text prints,
        as ``compose`` lists wires."""
        model = tmp_path / "perturbed.opm"
        model.write_text(lsi_text().replace("  wire ch.focus = op.focus\n", ""),
                         encoding="utf-8")
        assert run(["validate", str(model)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "  not equal", "    only right: {ac.ch.focus, sn.op.focus}:focus"]
        assert run(["validate", str(model), "--format", "json"]) \
            == EXIT_CHECK_FAILED
        result, = json.loads(capsys.readouterr().out)["equation_results"]
        assert result == {
            "equation": "phi(ls->lambda, ts->tau) = kappa(sn->sigma, "
                        "ac->alpha)",
            "passed": False, "error": "", "reason": "", "only_left": [],
            "only_right": [{"ports": ["ac.ch.focus", "sn.op.focus"],
                            "type": "focus"}]}

    def test_identity_generator_in_equation_fails(
            self, identity_model_path, capsys):
        assert run(["validate", identity_model_path]) == EXIT_CHECK_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("compile FAILED: 14 boundaries, 8 generators, "
                            "2 equations")
        assert lines[-2:] == [
            "  tau(ba->idb) = tau: FAIL",
            "    error: leaf ba.x of tau(ba->idb) has no derived match"]


class TestCheck:
    def test_prob_check_prints_six_rows(self, model_path, capsys):
        assert run(["check", model_path, "--functor", "P"]) == EXIT_OK
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if "[pass]" in l]
        assert len(rows) == 6
        assert any("12/25 (48%)" in r for r in rows)

    def test_all_three_functors(self, model_path, capsys):
        code = run(["check", model_path, "--functor", "P",
                    "--functor", "M", "--functor", "S"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "lifting check: pass" in out

    def test_stoch_requires_companions(self, model_path, capsys):
        assert run(["check", model_path, "--functor", "S"]) == EXIT_ERROR
        assert "requires" in capsys.readouterr().err

    def test_failing_check_exits_one(self, failing_model_path, capsys):
        code = run(["check", failing_model_path, "--functor", "P"])
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_stoch_alone_message(self, model_path, capsys):
        assert run(["check", model_path, "--functor", "S"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: checking a stochastic functor requires naming a "
            "probability functor and a mode functor as well\n")

    def test_every_stochastic_functor_is_checked(self, tmp_path, capsys):
        """LSI plus T, a copy of S, with S's TempSys prior changed to 1/3,
        2/3, so that S fails and T passes: each stochastic functor named is
        checked, in the order named, after the probability and mode ones."""
        text = lsi_text()
        start = text.index("stoch S {")
        block = text[start:text.index("\n}\n", start) + 3]
        text = text.replace(block, block.replace(
            "prior TempSys = (laser_low: 1/2, laser_high: 1/2)",
            "prior TempSys = (laser_low: 1/3, laser_high: 2/3)")
            + "\n" + block.replace("stoch S {", "stoch T {"))
        model = tmp_path / "two_stoch.opm"
        model.write_text(text, encoding="utf-8")
        check = ["check", str(model), "--functor", "P", "--functor", "M"]
        verdicts = {}
        for names in (["S"], ["T"], ["S", "T"], ["T", "S"]):
            argv = check + [arg for n in names for arg in ("--functor", n)]
            code = run(argv)
            lines = capsys.readouterr().out.splitlines()
            heads = [(l, lines[i + 1].split(":")[1].split()[0])
                     for i, l in enumerate(lines) if l.startswith("[")]
            verdicts[" ".join(names)] = code, heads
            assert run(argv + ["--format", "json"]) == code
            functors = json.loads(capsys.readouterr().out)["functors"]
            assert [(f"[{f['kind']} {f['name']}]",
                     "pass" if f["passed"] else "FAIL")
                    for f in functors] == heads
        prefix = [("[prob P]", "pass"), ("[modes M]", "pass")]
        assert verdicts == {
            "S": (EXIT_CHECK_FAILED, prefix + [("[stoch S]", "FAIL")]),
            "T": (EXIT_OK, prefix + [("[stoch T]", "pass")]),
            "S T": (EXIT_CHECK_FAILED,
                    prefix + [("[stoch S]", "FAIL"), ("[stoch T]", "pass")]),
            "T S": (EXIT_CHECK_FAILED,
                    prefix + [("[stoch T]", "pass"), ("[stoch S]", "FAIL")]),
        }

    def test_unknown_functor_message(self, model_path, capsys):
        assert run(["check", model_path, "--functor", "nope"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no functor named 'nope' in the model\n"

    def test_failing_aggregate_row_shows_both_distributions(
            self, failing_model_path, capsys):
        argv = ["check", failing_model_path, "--functor", "P",
                "--functor", "M", "--functor", "S"]
        detail = ("aggr (ls: 2/5 (40%), ts: 3/5 (60%)) vs "
                  "(ls: 1/2 (50%), ts: 1/2 (50%))")
        assert run(argv) == EXIT_CHECK_FAILED
        assert (f"  phi: aggregate matches probability functor: FAIL "
                f"({detail})") in capsys.readouterr().out.splitlines()
        assert run(argv + ["--format", "json"]) == EXIT_CHECK_FAILED
        rows = json.loads(capsys.readouterr().out)["functors"][2]["rows"]
        assert {"subject": "phi: aggregate matches probability functor",
                "passed": False, "detail": detail} in rows

    @pytest.mark.parametrize("functors", [["P"], ["M"], ["P", "M", "S"]],
                             ids=" ".join)
    def test_incomplete_matching_is_a_failed_check(
            self, incomplete_matching_path, functors, capsys):
        argv = ["check", incomplete_matching_path]
        argv += [arg for f in functors for arg in ("--functor", f)]
        assert run(argv) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert ("  error: equation phi(ls->lambda, ts->tau) = "
                "kappa(sn->sigma, ac->alpha): correspondence is not total "
                "on left slots") in captured.out.splitlines()
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("functors", [["P"], ["M"], ["P", "M", "S"]],
                             ids=" ".join)
    def test_ill_typed_side_with_matching_is_not_folded(
            self, ill_typed_matching_path, functors, capsys):
        argv = ["check", ill_typed_matching_path]
        argv += [arg for f in functors for arg in ("--functor", f)]
        assert run(argv) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        error = ("  error: equation phi(ls->tau, ts->lambda) = "
                 "kappa(sn->sigma, ac->alpha): slot 'ls' expects boundary "
                 "LengthSys, got TempSys")
        lines = captured.out.splitlines()
        assert lines.count(error) == len(functors)
        assert not [l for l in lines if " ~ " in l or "composed kernels" in l]
        assert "    error: slot 'ls' expects boundary LengthSys, got TempSys" \
            in lines

    @pytest.mark.parametrize("functors", [["P"], ["M"], ["P", "M", "S"]],
                             ids=" ".join)
    def test_identity_generator_in_equation_is_a_failed_check(
            self, identity_model_path, functors, capsys):
        argv = ["check", identity_model_path]
        argv += [arg for f in functors for arg in ("--functor", f)]
        assert run(argv) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert ("  error: equation tau(ba->idb) = tau: leaf ba.x of "
                "tau(ba->idb) has no derived match") in captured.out.splitlines()
        assert "Traceback" not in captured.out + captured.err

    def test_identity_generator_fails_the_architecture_section(
            self, identity_model_path, capsys):
        assert run(["check", identity_model_path, "--functor", "P"]) \
            == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert out.startswith("compile FAILED: ")

    def test_tolerance_flag(self, failing_model_path, capsys):
        loose = run(["check", failing_model_path, "--functor", "P",
                     "--tolerance", "1/2"])
        assert loose == EXIT_OK
        capsys.readouterr()
        assert run(["check", failing_model_path, "--functor", "P",
                    "--tolerance", "not-a-number"]) == EXIT_ERROR

    def test_json_report(self, model_path, capsys):
        run(["check", model_path, "--functor", "P", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["functors"][0]["name"] == "P"
        assert len(payload["functors"][0]["rows"]) == 6
        assert payload["functors"][0]["rows"][3]["lhs_value"] == "12/25"
        assert payload["architecture"]["boundaries"] == 14

    # one support row with two failing slots; one relation with two unknown
    # modes, unchecked by the parser because Bath's modes come after it
    SUPPORT_EDIT = ("    ba.too_hot -> laser_high\n    bt.leak -> laser_low\n",
                    "")
    TAU_END = "    rt.too_hot -> laser_high\n  }\n"
    BATH = "  modes Bath = { too_cold, too_hot }\n"
    HASH_SEED_RUN = """\
import sys
from opmodel.cli import run
for path in sys.argv[1:]:
    print(run(["check", path, "--functor", "P", "--functor", "M",
               "--functor", "S"]))
"""

    def test_reports_are_independent_of_hash_seed(self, tmp_path):
        support, unknown = tmp_path / "support.opm", tmp_path / "unknown.opm"
        support.write_text(lsi_text().replace(*self.SUPPORT_EDIT),
                           encoding="utf-8")
        unknown.write_text(lsi_text().replace(self.BATH, "").replace(
            self.TAU_END, "    ba.frozen -> laser_low\n    ba.boiling -> "
            "laser_high\n" + self.TAU_END + self.BATH), encoding="utf-8")
        src = str(Path(opmodel.__file__).resolve().parent.parent)
        outs = set()
        for seed in range(8):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": src}
            outs.add(subprocess.run(
                [sys.executable, "-c", self.HASH_SEED_RUN, str(support),
                 str(unknown)], env=env, capture_output=True, text=True,
                check=True, timeout=60).stdout)
        assert len(outs) == 1
        lines = outs.pop().splitlines()
        assert ("  tau: support matches mode functor: FAIL (ba: extra pair "
                "('too_hot', 'laser_high'); bt: extra pair "
                "('leak', 'laser_low'))") in lines
        assert lines.index("  error: relation tau: unknown mode 'boiling' "
                           "on Bath") + 1 == lines.index(
            "  error: relation tau: unknown mode 'frozen' on Bath")


class TestCompose:
    def test_deterministic_output(self, model_path, capsys):
        assert run(["compose", model_path, "--term", "tau(ba->beta)"]) \
            == EXIT_OK
        first = capsys.readouterr().out
        run(["compose", model_path, "--term", "tau(ba->beta)"])
        assert capsys.readouterr().out == first
        assert "{ba.rs.heat1, bt.heat1}:heat" in first

    def test_json_wires_in_normal_order(self, model_path, capsys):
        # the sixth wire glues beta's heater and reservoir
        assert run(["compose", model_path, "--term", "tau(ba->beta)",
                    "--format", "json"]) == EXIT_OK
        wires = json.loads(capsys.readouterr().out)["wires"]
        assert wires[5] == {"ports": ["ba.ht.heat", "ba.rs.heat2"],
                            "type": "heat"}

    def test_bad_term_exits_two(self, model_path, capsys):
        assert run(["compose", model_path, "--term", "tau(ba->"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_duplicate_slot_exits_two(self, model_path, capsys):
        assert run(["compose", model_path, "--term",
                    "tau(ba->beta, ba->beta)"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: line 1, column 15: duplicate slot 'ba'\n"

    def test_deeply_nested_term_exits_two(self, model_path, capsys):
        term = "phi(ls->" * 1200 + "lambda" + ")" * 1200
        assert run(["compose", model_path, "--term", term]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: input nested too deeply\n"
        assert "Traceback" not in err

    def test_ill_typed_generator(self, tmp_path, capsys):
        """A lone ill-typed generator composes nothing, so compose lists its
        wires, in normal order; validate reports the wire, and composing the
        generator with another reports the same wire, in the same words."""
        path = tmp_path / "ill_typed.opm"
        path.write_text(lsi_text().replace(
            "wire bt.heat1 = ba.heat", "wire bt.heat1 = ba.heat = rt.temp"),
            encoding="utf-8")
        assert run(["compose", str(path), "--term", "tau"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "(ba: Bath, bt: Box, rt: Lab) -> TempSys\n"
            "  {H2O, ba.H2O}:H2O\n"
            "  {laser, bt.laser}:laser\n"
            "  {setPt, ba.setPt}:setPt\n"
            "  {temp1, ba.heat, bt.heat1, rt.temp}:heat\n"
            "  {temp2, bt.temp}:temp\n"
            "  {bt.heat2, rt.heat}:heat\n")
        assert run(["validate", str(path)]) == EXIT_CHECK_FAILED
        assert ("  error: generator tau: wire {temp1, ba.heat, bt.heat1, "
                "rt.temp}:heat contains port temp1 of type 'temp'"
                in capsys.readouterr().out.splitlines())
        assert run(["compose", str(path), "--term", "tau(ba->beta)"]) \
            == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: wire {temp1, ba.heat, bt.heat1, rt.temp}:heat "
            "contains port temp1 of type 'temp'\n")

    def test_three_hundred_deep_term(self, identity_model_path, capsys):
        term = TestMutants.DEEP_TERM
        assert run(["compose", identity_model_path, "--format", "json",
                    "--term", term]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["term"] == term
        assert run(["query", identity_model_path, "--functor", "P",
                    "--term", term, "--leaf", "ht"]) == EXIT_OK
        assert capsys.readouterr().out == "2/5 (40%)\n"


class TestQuery:
    def test_bath_probability(self, model_path, capsys):
        code = run(["query", model_path, "--functor", "P",
                    "--term", "phi(ts->tau)", "--leaf", "ba"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "12/25 (48%)"

    def test_json_payload(self, model_path, capsys):
        run(["query", model_path, "--functor", "P",
             "--term", "phi(ts->tau)", "--leaf", "ba", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "12/25"
        assert payload["percent"] == 48.0
        assert payload["path"] == "ts.ba"

    def test_boundary_name_selector_ignores_case(self, model_path, capsys):
        assert run(["query", model_path, "--functor", "P", "--term",
                    "phi(ts->tau)", "--leaf", "BATH", "--format", "json"]) \
            == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["path"], payload["value"]) == ("ts.ba", "12/25")

    def test_unknown_leaf_message(self, model_path, capsys):
        assert run(["query", model_path, "--functor", "P", "--term",
                    "phi(ts->tau)", "--leaf", "zz"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no leaf 'zz' in phi(ts->tau)\n"

    def test_unknown_functor_exits_two(self, model_path, capsys):
        assert run(["query", model_path, "--functor", "ZZ",
                    "--term", "phi", "--leaf", "ls"]) == EXIT_ERROR

    def test_unknown_functor_message(self, model_path, capsys):
        assert run(["query", model_path, "--functor", "nope",
                    "--term", "phi(ts->tau)", "--leaf", "ba"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no probability functor named 'nope'\n"

    def test_functor_read_along_the_path_only(self, tmp_path, capsys):
        # P without lambda: a leaf under tau still has a value, one under
        # lambda gets the functor's lookup error
        text = lsi_text().replace("  lambda = (in: 1/10, op: 3/10, ch: 3/5)\n",
                                  "")
        assert text != lsi_text()
        model = tmp_path / "no_lambda.opm"
        model.write_text(text, encoding="utf-8")
        term = "phi(ls->lambda, ts->tau)"
        assert run(["query", str(model), "--functor", "P",
                    "--term", term, "--leaf", "ba"]) == EXIT_OK
        assert capsys.readouterr().out == "12/25 (48%)\n"
        assert run(["query", str(model), "--functor", "P",
                    "--term", term, "--leaf", "ls.in"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: probability functor has no value for 'lambda'\n"

    def test_ill_typed_term_exits_two(self, model_path, capsys):
        # beta outputs Bath, but slot rt of tau is a Lab
        assert run(["query", model_path, "--functor", "P",
                    "--term", "tau(rt->beta)", "--leaf", "rt.ht"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: slot 'rt' expects boundary Lab, got Bath\n"


class TestDiagnose:
    def test_posterior_table(self, model_path, capsys):
        code = run(["diagnose", model_path, "--functor", "S",
                    "--term", "tau(ba->beta)", "--mode", "laser_low"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "ba.ht.malfunction: 2/5 (40%)" in out
        assert "rt.too_hot: 0 (0%)" in out

    def test_unknown_mode_exits_two(self, model_path, capsys):
        assert run(["diagnose", model_path, "--functor", "S",
                    "--term", "tau", "--mode", "zz"]) == EXIT_ERROR

    def test_unknown_functor_message(self, model_path, capsys):
        assert run(["diagnose", model_path, "--functor", "nope",
                    "--term", "tau", "--mode", "laser_low"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no stochastic functor named 'nope'\n"

    def test_ill_typed_term_exits_two(self, model_path, capsys):
        assert run(["diagnose", model_path, "--functor", "S",
                    "--term", "tau(rt->beta)", "--mode", "laser_low"]) \
            == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: slot 'rt' expects boundary Lab, got Bath\n"


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["check", "--functor", "P", "--functor", "M", "--functor", "S"],
    ["compose", "--term", "tau(ba->beta)"],
    ["query", "--functor", "P", "--term", "phi(ts->tau)", "--leaf", "ba"],
    ["diagnose", "--functor", "S", "--term", "tau", "--mode", "laser_low"],
], ids=lambda argv: argv[0])
def test_json_payload_names_its_command(model_path, argv, capsys):
    assert run([argv[0], model_path, *argv[1:], "--format", "json"]) \
        == EXIT_OK
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]


class TestUsageErrors:
    def test_missing_file(self, capsys):
        assert run(["validate", "/nonexistent/x.opm"]) == EXIT_ERROR
        assert "not found" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_ERROR

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.opm"
        bad.write_text("boundary ! {}", encoding="utf-8")
        assert run(["validate", str(bad)]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_directory_exits_two(self, tmp_path, capsys):
        assert run(["validate", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            f"error: cannot read model file {tmp_path}: Is a directory\n"

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.opm"
        bad.write_bytes("# Temperaturfühler\n".encode("latin-1"))
        assert run(["validate", str(bad)]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            f"error: {bad}: not UTF-8 text (byte 13)\n"

    def test_negative_tolerance_exits_two(self, model_path, capsys):
        assert run(["check", model_path, "--functor", "P",
                    "--tolerance", "-1"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad tolerance '-1'\n"

    @pytest.mark.parametrize("text, value", [
        ("0", "0"), ("-0", "0"), ("1/2", "1/2"), ("0.25", "1/4"),
        ("0.5/2", "1/4"), (" 3 / 4 ", "3/4")])
    def test_tolerance_is_an_opm_number(self, model_path, capsys, text,
                                        value):
        assert run(["check", model_path, "--functor", "P", "--format",
                    "json", "--tolerance", text]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tolerance"] == value

    @pytest.mark.parametrize("text", [
        "1e5", "1E-3", "1_0", ".5", "5.", "+1", "1/-2", "1/0", "1/2.0",
        "nan", "inf", "", "1 2", "@"])
    def test_tolerance_outside_the_opm_grammar_exits_two(
            self, model_path, capsys, text):
        assert run(["check", model_path, "--functor", "P",
                    "--tolerance", text]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad tolerance {text!r}\n"

    def test_huge_exponent_tolerance_exits_promptly(self, model_path):
        # an exponent is refused by the grammar, before any arithmetic
        src = str(Path(opmodel.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "opmodel.cli", "check", model_path,
             "--functor", "P", "--tolerance", "1e-100000000"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=10)
        assert proc.returncode == EXIT_ERROR
        assert proc.stderr == "error: bad tolerance '1e-100000000'\n"


class TestMutants:
    """Seeded mutants of the bundled model: every ``cli.run`` ends in exit
    0, 1 or 2 with a message, never in an exception or a traceback."""

    TOKEN = re.compile(r"->|[A-Za-z_]\w*|\d+(?:\.\d+)?|[^\s\w]")
    COMMANDS = (
        ["check", "--functor", "P", "--functor", "M", "--functor", "S"],
        ["query", "--functor", "P", "--term", "phi(ts->tau(ba->beta))",
         "--leaf", "ht"],
        ["diagnose", "--functor", "S", "--term", "tau(ba->beta)",
         "--mode", "laser_low"],
    )
    # 300 identities between tau and beta: well typed only with idb declared
    DEEP_TERM = "tau(ba->" + "idb(x->" * 300 + "beta" + ")" * 301

    def token_mutant(self, text, rng):
        """Delete, replace or insert one or two tokens in the first half."""
        vocab = sorted(set(self.TOKEN.findall(text)))
        for _ in range(rng.choice((1, 2))):
            start, end = rng.choice(
                [m.span() for m in self.TOKEN.finditer(text, 0, len(text) // 2)])
            op = rng.choice(("delete", "replace", "insert"))
            new = "" if op == "delete" else rng.choice(vocab) + " "
            text = text[:start] + new + text[start if op == "insert" else end:]
        return text

    @staticmethod
    def semantic_mutants(text):
        return [
            identity_model_text(),
            text.replace("equation phi(ls->lambda, ts->tau)",
                         "equation phi(ls->lambda, ls->lambda, ts->tau)"),
            text.replace("= kappa(sn->sigma, ac->alpha)\n",
                         "= kappa(sn->sigma, ac->alpha) "
                         "matching { ls.in ~ sn.in }\n"),
            text.replace("phi = (ls: 2/5, ts: 3/5)", "phi = (ls: 1/2, ts: 1/2)"),
            text.replace("bad_length -> ls.no_fringe: 1/5",
                         "bad_length -> ls.no_fringe: 1/10"),
            text.replace("laser_low", "laser_dim"),
            text.replace("modes TempSys = { laser_low,",
                         "modes TempSys = { laser_dim,"),
        ]

    @staticmethod
    def swap_mutants(text):
        """Per kernel row and per distribution, the model with each pair of
        its differing values swapped."""
        lines, groups = text.split("\n"), {}
        kernel = None
        for n, line in enumerate(lines):
            head = re.match(r"\s*kernel (\w+) \{$", line)
            kernel = head[1] if head else None if line.strip() == "}" else kernel
            row = re.match(r"\s+(\w+) -> \w+\.\w+: ", line)
            if kernel and row:
                key = kernel, row[1]
            elif re.match(r"\s+(prior )?\w+ = \(", line):
                key = n
            else:
                continue
            groups.setdefault(key, []).extend(
                (n, *m.span(1)) for m in re.finditer(r": ([^,)]+)", line))
        mutants = []
        for spans in groups.values():
            for a, b in itertools.combinations(spans, 2):
                (na, sa, ea), (nb, sb, eb) = a, b
                va, vb = lines[na][sa:ea], lines[nb][sb:eb]
                if Fraction(va) == Fraction(vb):
                    continue
                new = list(lines)
                # the later span first, so that the earlier keeps its place
                new[nb] = new[nb][:sb] + va + new[nb][eb:]
                new[na] = new[na][:sa] + vb + new[na][ea:]
                mutants.append("\n".join(new))
        return mutants

    def test_swapped_values_fail_the_check(self, tmp_path, capsys):
        """A kernel row or a distribution with two of its differing values
        swapped fails ``check P M S`` (exit 1, no error), and the text and
        JSON reports agree that it did not pass."""
        mutants = self.swap_mutants(lsi_text())
        assert len(mutants) == 36 + 16
        path = tmp_path / "swapped.opm"
        argv = ["check", str(path), *self.COMMANDS[0][1:]]
        for model in mutants:
            path.write_text(model, encoding="utf-8")
            assert run(argv) == EXIT_CHECK_FAILED
            text = capsys.readouterr()
            assert run(argv + ["--format", "json"]) == EXIT_CHECK_FAILED
            out = capsys.readouterr()
            assert text.err == out.err == ""
            assert "Traceback" not in text.out + out.out
            assert ("FAIL" not in text.out) is json.loads(out.out)["passed"]

    def test_mutants_exit_cleanly(self, tmp_path, capsys):
        rng = random.Random(2020)
        text = lsi_text()
        models = self.semantic_mutants(text) + [
            self.token_mutant(text, rng) for _ in range(250)]
        path = tmp_path / "mutant.opm"
        codes = []

        def run_clean(argv):
            codes.append(run(argv))
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            return captured.err

        for model in models:
            path.write_text(model, encoding="utf-8")
            for command in self.COMMANDS:
                err = run_clean([command[0], str(path), *command[1:]])
                if err.startswith(f"error: {path}:"):
                    break  # the model does not load, whatever the command
        path.write_text(models[0], encoding="utf-8")
        run_clean(["compose", str(path), "--term", "tau(ba->beta, ba->beta)"])
        run_clean(["query", str(path), "--functor", "P",
                   "--term", self.DEEP_TERM, "--leaf", "ht"])
        run_clean(["diagnose", str(path), "--functor", "S",
                   "--term", self.DEEP_TERM, "--mode", "laser_low"])
        assert set(codes) == {EXIT_OK, EXIT_CHECK_FAILED, EXIT_ERROR}


class TestOutputLimits:
    """Output that cannot be written or printed ends in a clean exit."""

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["diagnose", "--functor", "S", "--term", "tau(ba->beta)",
         "--mode", "laser_low"]])
    def test_closed_stdout_exits_quietly(self, model_path, argv):
        src = str(Path(opmodel.__file__).resolve().parent.parent)
        read, write = os.pipe()
        os.close(read)  # every write to stdout fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "opmodel.cli", argv[0], model_path,
                 *argv[1:]], stdout=write, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == b""

    # the model's numbers have 4001 digits, which must parse, and its
    # result has 8001, past the limit of ``str``: the value is written in
    # hexadecimal, which has no such limit
    @pytest.mark.skipif(
        not 4001 <= getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8000,
        reason="no integer string conversion limit in [4001, 8000) digits")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overlong_result_is_written_in_hex(self, tmp_path, capsys, fmt):
        model = tmp_path / "long.opm"
        model.write_text(overlong_query_text(), encoding="utf-8")
        assert run(["query", str(model), "--functor", "P", "--term",
                    "phi(ls->lambda, ts->tau)", "--leaf", "ls.in",
                    "--format", fmt]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        n, m = 10 ** 4000 + 7, 10 ** 4000 + 9
        value = f"0x1/{n * m:#x}"
        if fmt == "text":
            assert captured.out == f"{value} (0%)\n"
        else:
            assert json.loads(captured.out) == {
                "command": "query", "term": "phi(ls->lambda, ts->tau)",
                "leaf": "ls.in", "path": "ls.in", "value": value,
                "percent": 0.0}

    # N and M have 4001 digits, within the default limit of 4300, but tau's
    # row sum, formatted into the kernel's error message, has 8001: the
    # message names it in hexadecimal, which has no such limit
    @pytest.mark.skipif(
        not 4001 <= getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8001,
        reason="no integer string conversion limit in [4001, 8001) digits")
    def test_overlong_value_in_a_parse_error_exits_two(self, tmp_path, capsys):
        n, m = 10 ** 4000 + 7, 10 ** 4000 + 9
        model = tmp_path / "long_row.opm"
        model.write_text(lsi_text().replace(
            "laser_low -> bt.leak: 1/10", f"laser_low -> bt.leak: 1/{n}").replace(
            "laser_low -> rt.too_cold: 1/10",
            f"laser_low -> rt.too_cold: 1/{m}"), encoding="utf-8")
        assert run(["validate", str(model)]) == EXIT_ERROR
        captured = capsys.readouterr()
        row = Fraction(4, 5) + Fraction(1, n) + Fraction(1, m)
        assert captured.out == ""
        assert captured.err == (
            f"error: {model}: line 202, column 3: kernel row for "
            f"TempSys.laser_low sums to {row.numerator:#x}/"
            f"{row.denominator:#x}\n")

    # tau's row still sums to 1, but the lifting rows weigh it by TempSys's
    # prior, and their values have up to 6001 digits: the failing rows name
    # those in hexadecimal, so the check reports them and exits 1
    @pytest.mark.skipif(
        not 3001 <= getattr(sys, "get_int_max_str_digits", lambda: 0)() < 6000,
        reason="no integer string conversion limit in [3001, 6000) digits")
    def test_overlong_value_in_a_lifting_row_is_reported(self, tmp_path,
                                                         capsys):
        a, b = 10 ** 3000 + 7, 10 ** 3000 + 9
        text = lsi_text().replace(
            "laser_low -> bt.leak: 1/10", f"laser_low -> bt.leak: 1/{a}").replace(
            "laser_low -> rt.too_cold: 1/10",
            f"laser_low -> rt.too_cold: {a - 5}/{5 * a}").replace(
            "prior TempSys = (laser_low: 1/2, laser_high: 1/2)",
            f"prior TempSys = (laser_low: 1/{b}, laser_high: {b - 1}/{b})")
        model = tmp_path / "long_lifting.opm"
        model.write_text(text, encoding="utf-8")
        m = opmodel.parse(text)
        report = opmodel.check_lifting(
            m.presentation, m.stoch_functors["S"], m.prob_functors["P"],
            m.mode_functors["M"])
        assert not report.passed and report.errors == ()
        assert [r.subject for r in report.rows if not r.passed] == [
            "phi: pointed-kernel condition", "tau: pointed-kernel condition",
            "tau: aggregate matches probability functor",
            "equation phi(ls->lambda, ts->tau) = kappa(sn->sigma, "
            "ac->alpha): composed kernels agree"]
        tau = report.rows[7].detail
        assert tau.startswith("aggr (ba: 4/5 (80%), bt: 0x")
        assert tau.endswith(
            " (10%)) vs (ba: 4/5 (80%), bt: 1/10 (10%), rt: 1/10 (10%))")

        argv = ["check", str(model), "--functor", "P", "--functor", "M",
                "--functor", "S"]
        assert run(argv) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith(f"[stoch S]\n{report}\n")
        assert run([*argv, "--format", "json"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["functors"][2] == {
            "name": "S", "kind": "stoch", **report.to_dict()}


class TestRepeatedRuns:
    """``run`` shares one parser across calls: a sequence of calls in one
    process prints what each call prints in a fresh process."""

    EXPECTED = Path(__file__).resolve().parents[1] / "benchmarks" / \
        "lsi_expected.json"

    def test_sequence_matches_fresh_processes(self, tmp_path, capsys,
                                              monkeypatch):
        expected = json.loads(self.EXPECTED.read_text(encoding="utf-8"))
        text = lsi_text()
        cut = text.index(expected["truncate_after"]) + \
            len(expected["truncate_after"])
        paths = {}
        for key, body in (("clean", text),
                          ("perturbed",
                           text.replace(expected["perturb_remove"], "")),
                          ("truncated", text[:cut])):
            paths[key] = tmp_path / f"{key}.opm"
            paths[key].write_text(body, encoding="utf-8")
        specs = [[arg.format(**paths) for arg in op["argv"]]
                 for op in expected["ops"]]
        assert len(specs) == 16
        random.Random(10).shuffle(specs)
        pms = ["check", str(paths["clean"]), "--functor", "P",
               "--functor", "M", "--functor", "S"]
        # (argv, COLUMNS): help text is wrapped to the width at print time
        calls = [(argv, "80") for argv in specs[:8]]
        calls += [(pms, "80"), (pms[:4], "80"), (["check"], "80"),
                  (["validate", "--help"], "50")]
        calls += [(argv, "80") for argv in specs[8:]]
        calls += [(["validate", "--help"], "120"), (["check"], "40")]

        src = str(Path(opmodel.__file__).resolve().parent.parent)
        fresh = {}
        for argv, columns in calls:
            key = (tuple(argv), columns)
            if key not in fresh:
                proc = subprocess.run(
                    [sys.executable, "-m", "opmodel.cli", *argv],
                    capture_output=True, text=True, timeout=60,
                    env={**os.environ, "PYTHONPATH": src, "COLUMNS": columns})
                fresh[key] = (proc.returncode, proc.stdout, proc.stderr)
        assert {code for code, _, _ in fresh.values()} == {
            EXIT_OK, EXIT_CHECK_FAILED, EXIT_ERROR}

        for argv, columns in calls * 2:
            monkeypatch.setenv("COLUMNS", columns)
            code = run(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == \
                fresh[(tuple(argv), columns)], argv


class TestCollector:
    """``run`` runs each command with the cyclic collector disabled, and on
    every way out of ``run`` leaves the collector as the caller had it."""

    @staticmethod
    def record(monkeypatch) -> list[bool]:
        """Record ``gc.isenabled()`` at every model load and every write to
        standard output or error, the points every exit path passes."""
        states: list[bool] = []

        class Stream(io.StringIO):
            def write(self, text):
                states.append(gc.isenabled())
                return super().write(text)

        load = cli._load_model

        def recording_load(path):
            states.append(gc.isenabled())
            return load(path)

        monkeypatch.setattr(sys, "stdout", Stream())
        monkeypatch.setattr(sys, "stderr", Stream())
        monkeypatch.setattr(cli, "_load_model", recording_load)
        return states

    @pytest.mark.parametrize("case, code", [
        ("validate", EXIT_OK),
        ("perturbed", EXIT_CHECK_FAILED),
        ("missing file", EXIT_ERROR),
        ("usage error", EXIT_ERROR),
        ("help", EXIT_OK),
        ("deep term", EXIT_ERROR),
        pytest.param("digit limit", EXIT_OK, marks=pytest.mark.skipif(
            not 4001 <= getattr(sys, "get_int_max_str_digits",
                                lambda: 0)() < 8000,
            reason="no integer string conversion limit in [4001, 8000) "
            "digits")),
        ("re-raised", None)])
    def test_paused_during_the_command_and_restored(
            self, case, code, tmp_path, monkeypatch):
        text = lsi_text()
        if case == "perturbed":
            text = text.replace("  wire ch.focus = op.focus\n", "")
        elif case == "digit limit":
            text = overlong_query_text()
        model = tmp_path / "model.opm"
        if case != "missing file":
            model.write_text(text, encoding="utf-8")
        argv = {
            "usage error": ["check"],
            "help": ["validate", "--help"],
            "deep term": ["compose", str(model), "--term",
                          "phi(ls->" * 1200 + "lambda" + ")" * 1200],
            "digit limit": ["query", str(model), "--functor", "P", "--term",
                            "phi(ls->lambda, ts->tau)", "--leaf", "ls.in"],
        }.get(case, ["validate", str(model)])
        states = self.record(monkeypatch)
        if case == "re-raised":  # a ValueError that run does not handle
            def broken_load(path):
                states.append(gc.isenabled())
                raise ValueError("not a digit limit")
            monkeypatch.setattr(cli, "_load_model", broken_load)

        was = gc.isenabled()
        try:
            for caller_enabled in (True, False):
                (gc.enable if caller_enabled else gc.disable)()
                states.clear()
                if code is None:
                    with pytest.raises(ValueError, match="not a digit limit"):
                        run(argv)
                else:
                    assert run(argv) == code
                assert states and not any(states), states
                assert gc.isenabled() is caller_enabled
        finally:
            (gc.enable if was else gc.disable)()
