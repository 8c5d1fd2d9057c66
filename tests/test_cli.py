"""Command-line interface: subcommands, exit codes, text and JSON output."""
import json

import pytest

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


class TestCompose:
    def test_deterministic_output(self, model_path, capsys):
        assert run(["compose", model_path, "--term", "tau(ba->beta)"]) \
            == EXIT_OK
        first = capsys.readouterr().out
        run(["compose", model_path, "--term", "tau(ba->beta)"])
        assert capsys.readouterr().out == first
        assert "{ba.rs.heat1, bt.heat1}:heat" in first

    def test_bad_term_exits_two(self, model_path, capsys):
        assert run(["compose", model_path, "--term", "tau(ba->"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_deeply_nested_term_exits_two(self, model_path, capsys):
        term = "phi(ls->" * 1200 + "lambda" + ")" * 1200
        assert run(["compose", model_path, "--term", term]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: input nested too deeply\n"
        assert "Traceback" not in err


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

    def test_unknown_functor_exits_two(self, model_path, capsys):
        assert run(["query", model_path, "--functor", "ZZ",
                    "--term", "phi", "--leaf", "ls"]) == EXIT_ERROR

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

    def test_ill_typed_term_exits_two(self, model_path, capsys):
        assert run(["diagnose", model_path, "--functor", "S",
                    "--term", "tau(rt->beta)", "--mode", "laser_low"]) \
            == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: slot 'rt' expects boundary Lab, got Bath\n"


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
