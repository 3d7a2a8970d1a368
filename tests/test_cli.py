"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import dataclasses
import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import golden_reports
import pytest
from faults import CorruptingFamilies
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delannoy_jacobi import cli, families, identities, paths
from delannoy_jacobi.cli import main
from delannoy_jacobi.polynomial import Poly
from delannoy_jacobi.render import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code_and_stderr(capsys, *argv):
    """main's exit code, argparse's usage errors included, and its stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exited:
        code = exited.code
    return code, capsys.readouterr().err


class TestComputeSequence:
    def test_central_delannoy(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "sequence", "--name", "central-delannoy", "--count", "7"
        )
        assert code == 0
        assert out.strip() == "1, 3, 13, 63, 321, 1683, 8989"

    def test_schroder(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "sequence", "--name", "schroder", "--count", "5"
        )
        assert code == 0
        assert out.strip() == "1, 2, 6, 22, 90"

    def test_delannoy_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "sequence", "--name", "delannoy-row",
            "--m", "2", "--count", "4",
        )
        assert code == 0
        assert out.strip() == "1, 5, 13, 25"

    def test_delannoy_row_requires_m(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "sequence", "--name", "delannoy-row", "--count", "4"
        )
        assert code == 1
        assert "--m" in err

    @pytest.mark.parametrize("name,expected", [
        ("central-delannoy", ["", "1", "1, 3"]),
        ("schroder", ["", "1", "1, 2"]),
    ])
    def test_small_counts(self, capsys, name, expected):
        for count, values in enumerate(expected):
            code, out, _ = run_cli(
                capsys, "compute", "sequence", "--name", name, "--count", str(count)
            )
            assert code == 0
            assert out == values + "\n"

    def test_delannoy_row_small_counts(self, capsys):
        for count, values in enumerate(["", "1", "1, 7"]):
            code, out, _ = run_cli(
                capsys, "compute", "sequence", "--name", "delannoy-row",
                "--m", "3", "--count", str(count),
            )
            assert code == 0
            assert out == values + "\n"

    def test_delannoy_row_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "sequence", "--name", "delannoy-row",
            "--m", "0", "--count", "4",
        )
        assert code == 0
        assert out.strip() == "1, 1, 1, 1"

    @pytest.mark.parametrize("count", ["0", "3"])
    def test_delannoy_row_negative_m(self, capsys, count):
        code, out, err = run_cli(
            capsys, "compute", "sequence", "--name", "delannoy-row",
            "--m", "-1", "--count", count,
        )
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_negative_count(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "sequence", "--name", "schroder", "--count", "-1"
        )
        assert code == 1
        assert "--count" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "sequence", "--name", "schroder", "--count", "3",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"name": "schroder", "values": ["1", "2", "6"]}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "sequence", "--name", "central-delannoy",
            "--count", "3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["index", "value"], ["0", "1"], ["1", "3"], ["2", "13"]]


class TestComputePoly:
    def test_table_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "poly", "--family", "shifted-jacobi",
            "--n", "2", "--alpha", "0", "--beta", "-6",
        )
        assert code == 0
        assert out.strip() == "3x^2 - 12x + 10"

    def test_text_output_parses_back(self, capsys):
        for family in ["legendre", "shifted-legendre", "laguerre", "schroder"]:
            code, out, _ = run_cli(
                capsys, "compute", "poly", "--family", family, "--n", "4"
            )
            assert code == 0
            assert parse_poly(out.strip()).degree == 4

    def test_json_has_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "poly", "--family", "narayana", "--n", "3",
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["coefficients"] == ["0", "1", "3", "1"]
        assert record["text"] == "x^3 + 3x^2 + x"

    def test_invalid_index_is_compute_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "poly", "--family", "narayana", "--n", "0")
        assert code == 1
        assert "error" in err

    def test_csv_does_not_render_the_polynomial(self, capsys, monkeypatch):
        def no_render(poly):
            raise AssertionError("format_poly called for csv output")

        monkeypatch.setattr(cli, "format_poly", no_render)
        code, out, _ = run_cli(
            capsys, "compute", "poly", "--family", "narayana", "--n", "3", "--format", "csv"
        )
        assert code == 0
        assert out == "power,coefficient\r\n0,0\r\n1,1\r\n2,3\r\n3,1\r\n"


class TestComputeCounts:
    def test_weighted_delannoy(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "delannoy", "--m", "1", "--n", "1",
            "--u", "2", "--v", "3", "--w", "5",
        )
        assert code == 0
        assert out.strip() == "17"

    def test_rational_weights(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "delannoy", "--m", "2", "--n", "2", "--u", "1/2"
        )
        assert code == 0
        assert out.strip() == "11/2"

    @pytest.mark.parametrize("weight", [["--v", "-1/3"], ["--v=-1/3"]])
    def test_negative_rational_weight(self, capsys, weight):
        code, out, _ = run_cli(
            capsys, "compute", "delannoy", "--m", "2", "--n", "2", *weight,
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["v"] == "-1/3"
        assert record["value"] == "-1/3"

    def test_negative_weights_as_separate_tokens(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "schroder", "--n", "2",
            "--u", "-2/5", "--v", "-3", "--w", "-7/4",
        )
        assert code == 0
        # 2 u^2 v^2 + 3 u v w + w^2 with u = -2/5, v = -3, w = -7/4
        assert out.strip() == "-143/400"

    def test_flag_after_weight_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compute", "delannoy", "--m", "1", "--n", "1", "--u", "--format", "json"])
        assert info.value.code == 2

    def test_decimal_weight_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compute", "delannoy", "--m", "1", "--n", "1", "--u", "1.5"])
        assert info.value.code == 2

    def test_zero_denominator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compute", "delannoy", "--m", "1", "--n", "1", "--u", "1/0"])
        assert info.value.code == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_non_ascii_digit_weight_is_usage_error(self, capsys):
        # "\u0663" is ARABIC-INDIC DIGIT THREE, which int() and Fraction() accept.
        with pytest.raises(SystemExit) as info:
            main(["compute", "delannoy", "--m", "2", "--n", "2", "--u", "\u0663"])
        assert info.value.code == 2
        assert "not a rational literal" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compute", "delannoy", "--m", "\u0662", "--n", "2"],
        ["compute", "delannoy", "--m", "2", "--n", "\u0662"],
        ["compute", "schroder", "--n", "\u0662"],
        ["compute", "poly", "--family", "jacobi", "--n", "2", "--alpha", "-\u0661"],
        ["compute", "poly", "--family", "jacobi", "--n", "2", "--beta", "\u0661"],
        ["compute", "sequence", "--name", "schroder", "--count", "\u0663"],
        ["compute", "sequence", "--name", "delannoy-row", "--m", "\u0661", "--count", "3"],
        ["verify", "--id", "dp1", "--max-n", "\u0662"],
        ["compute", "delannoy", "--m", "+2", "--n", "2"],
        ["compute", "delannoy", "--m", "1_0", "--n", "2"],
    ])
    def test_non_ascii_digit_integer_is_usage_error(self, capsys, argv):
        # "\u0662" is ARABIC-INDIC DIGIT TWO, which int() accepts; integer
        # flags take ASCII digits with an optional leading "-" only.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_schroder_count(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "schroder", "--n", "3")
        assert code == 0
        assert out.strip() == "22"

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "delannoy", "--m", "1", "--n", "1", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "n", "u", "v", "w", "value"]
        assert rows[1] == ["1", "1", "1", "1", "1", "3"]

    @pytest.mark.parametrize("what, index, weights", [
        ("delannoy", {"m": 7, "n": 4}, (Fraction(1, 2), Fraction(-1, 3), 7)),
        ("delannoy", {"m": 3, "n": 9}, (0, 1, Fraction(-5, 2))),
        ("schroder", {"n": 6}, (Fraction(-2, 5), 3, Fraction(-7, 4))),
        ("schroder", {"n": 5}, (1, 2, 0)),
    ])
    def test_scalar_totals_do_not_run_the_dps(self, capsys, monkeypatch, what, index, weights):
        # compute delannoy and compute schroder add up the binomial sums; the
        # DPs, called here before they are disabled, only check the value.
        dp = paths.delannoy_weighted if what == "delannoy" else paths.schroder_weighted
        expected = f"{dp(*index.values(), paths.WeightTriple.of(*weights)).constant_value()}\n"

        def refuse(*args, **kwargs):
            raise AssertionError("the CLI ran a path DP")

        monkeypatch.setattr(paths, "delannoy_weighted", refuse)
        monkeypatch.setattr(paths, "schroder_weighted", refuse)
        flags = [f"--{k}={v}" for k, v in (*index.items(), *zip("uvw", weights))]
        assert run_cli(capsys, "compute", what, *flags) == (0, expected, "")


def _weight_flags(draw) -> list[str]:
    # Signed p/q literals, each as a separate token, which cli joins to its flag.
    flags = []
    for flag in ("--u", "--v", "--w"):
        weight = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
        flags += [flag, str(weight)]
    return flags


@st.composite
def compute_argv(draw) -> list[str]:
    """A small compute request of any kind, without --format."""
    what = draw(st.sampled_from(("delannoy", "schroder", "poly", "sequence")))
    size = st.integers(0, 6)
    if what == "delannoy":
        return [what, "--m", str(draw(size)), "--n", str(draw(size)), *_weight_flags(draw)]
    if what == "schroder":
        return [what, "--n", str(draw(size)), *_weight_flags(draw)]
    if what == "poly":
        family = draw(st.sampled_from(sorted(cli.POLY_FAMILIES)))
        return [what, "--family", family, "--n", str(draw(size)),
                "--alpha", str(draw(st.integers(-8, 4))), "--beta", str(draw(st.integers(-8, 4)))]
    name = draw(st.sampled_from(cli.SEQUENCES))
    row = ["--m", str(draw(size))] if name == "delannoy-row" else []
    return [what, "--name", name, "--count", str(draw(st.integers(0, 8))), *row]


class TestCrossFormat:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(compute_argv())
    def test_formats_carry_the_same_values(self, capsys, argv):
        results = {
            fmt: run_cli(capsys, "compute", *argv, "--format", fmt)
            for fmt in ("text", "json", "csv")
        }
        codes = {code for code, _, _ in results.values()}
        assert len(codes) == 1
        if codes != {0}:  # a computation error reads the same in every format
            assert {(out, err) for _, out, err in results.values()} == {("", results["text"][2])}
            return
        text = results["text"][1].removesuffix("\n")
        record = json.loads(results["json"][1])
        rows = list(csv.reader(io.StringIO(results["csv"][1])))
        if argv[0] in ("delannoy", "schroder"):
            assert text == record["value"]
            assert rows == [list(record), [str(v) for v in record.values()]]
        elif argv[0] == "poly":
            coefficients = record["coefficients"]
            assert text == record["text"]
            assert parse_poly(text) == Poly(map(Fraction, coefficients))
            numbered = ([str(k), c] for k, c in enumerate(coefficients))
            assert rows == [["power", "coefficient"], *numbered]
        else:
            values = record["values"]
            assert text == ", ".join(values)
            numbered = ([str(k), v] for k, v in enumerate(values))
            assert rows == [["index", "value"], *numbered]



class TestDigitLimit:
    """A value past the interpreter's limit on int-to-text digits ends
    with exit 1 and an error line in the CLI's terms, in every format."""

    @pytest.fixture
    def limit(self):
        """The limit, lowered to its minimum for the test so that values
        past it stay cheap to compute, and restored afterwards."""
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield 640
        sys.set_int_max_str_digits(before)

    # D(n, n) and S(n) have about 0.77 n digits, so n = 900 passes 640.
    @pytest.mark.parametrize("argv", [
        ["delannoy", "--m", "900", "--n", "900"],
        ["schroder", "--n", "900"],
        ["poly", "--family", "shifted-legendre", "--n", "900"],
        ["sequence", "--name", "central-delannoy", "--count", "900"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_error_names_the_limit(self, capsys, limit, argv, fmt):
        code, out, err = run_cli(capsys, "compute", *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("error: the value has more digits than the interpreter "
                       f"converts to text (limit: {limit} digits)\n")

    # The input side: a literal in the grammar but past the limit.
    LONG = "7" * 5000

    @staticmethod
    def too_long(limit):
        return ("the literal has more digits than the interpreter converts "
                f"from text (limit: {limit} digits)")

    @pytest.mark.parametrize("flags", [["--m", "1", "--u", LONG], ["--m", LONG]],
                             ids=["rational", "integer"])
    def test_long_flag_literal_is_usage_error(self, capsys, limit, flags):
        with pytest.raises(SystemExit) as info:
            main(["compute", "delannoy", "--n", "1", *flags])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert f"argument {flags[-2]}: {self.too_long(limit)}\n" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("key,value", [("weight_grid", f"1, {LONG}"), ("max_n", LONG)])
    def test_long_config_literal_names_file_and_line(
        self, capsys, tmp_path, monkeypatch, limit, key, value
    ):
        config = tmp_path / "custom.conf"
        config.write_text(f"# settings\n{key} = {value}\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert (code, out) == (1, "")
        assert err == f"error: {config}:2: {key}: {self.too_long(limit)}\n"
        assert "set_int_max_str_digits" not in err

    @pytest.fixture
    def no_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        yield
        sys.set_int_max_str_digits(before)

    def test_no_limit_reads_long_literals(self, capsys, tmp_path, monkeypatch, no_limit):
        code, out, _ = run_cli(
            capsys, "compute", "delannoy", "--m", "1", "--n", "1", "--u", self.LONG, "--w", "0"
        )
        assert (code, out) == (0, f"{2 * int(self.LONG)}\n")  # uv + vu + w
        config = tmp_path / "custom.conf"
        config.write_text(f"max_n = {self.LONG}\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        assert run_cli(capsys, "verify", "--id", "dp1")[0] == 0


class TestLongLiterals:
    """An error message quotes a rejected literal cut to its first 40
    characters and its length, so a long one gives one short stderr line."""

    # A decimal, outside the grammar, 5 000 characters long.
    LONG = "0." + "5" * 4998

    @pytest.mark.parametrize("flag", ["--u", "--m"])
    def test_flag(self, capsys, flag):
        code, err = exit_code_and_stderr(capsys, "compute", "delannoy", "--m", "1", "--n", "1",
                                         flag, self.LONG)
        line = err.splitlines()[-1]
        assert code == 2
        assert len(line) < 200
        assert line.endswith(f"{self.LONG[:40]!r}... (5000 characters)")

    @pytest.mark.parametrize("line", [f"weight_grid = 1, {LONG}", f"max_n = {LONG}",
                                      LONG, f"{LONG} = 1"],
                             ids=["weight_grid", "max_n", "no-equals", "unknown-key"])
    def test_config_line(self, capsys, tmp_path, monkeypatch, line):
        (tmp_path / "delannoy-jacobi.conf").write_text(line + "\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DJ_CONFIG", raising=False)
        code, err = exit_code_and_stderr(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert len(err) < 200
        assert re.fullmatch(r"error: delannoy-jacobi\.conf:1: .*\.\.\. \(500[01] characters\)\n", err)

    def test_unknown_id_is_cut_and_lists_every_known_id(self, capsys):
        code, err = exit_code_and_stderr(capsys, "verify", "--id", "z" * 5000, "--max-n", "1")
        known = ", ".join(sorted(identities.REGISTRY))
        assert code == 2
        assert err == f"error: unknown identity {'z' * 40!r}... (5000 characters); known ids: {known}\n"

    # In the grammar and in the digit limit, but out of range.
    NINES = "9" * 4000

    @pytest.mark.parametrize("argv, line, code", [
        (["--max-n", f"-{NINES}"], None, 2),
        ([], f"max_n = -{NINES}", 1),
        ([], f"weight_grid = 0, {NINES}", 1),
    ], ids=["flag", "max_n", "weight_grid"])
    def test_rejected_integer_setting(self, capsys, tmp_path, monkeypatch, argv, line, code):
        if line is not None:
            (tmp_path / "delannoy-jacobi.conf").write_text(line + "\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DJ_CONFIG", raising=False)
        got, err = exit_code_and_stderr(capsys, "verify", "--all", *argv)
        last = err.splitlines()[-1]
        assert got == code
        assert len(last) < 200
        assert re.search(r"got '[-09, ]{40}'\.\.\. \(400[13] characters\)$", last)


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 0
        assert "PASS dp1" in out

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--id", "no-such")
        assert code == 2
        assert "unknown identity" in err

    def test_usage_error_without_selector(self):
        with pytest.raises(SystemExit) as info:
            main(["verify"])
        assert info.value.code == 2

    def test_all_with_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--all", "--max-n", "1", "--out", str(out_file)
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload) >= 25
        assert all(item["status"] == "pass" for item in payload)
        assert [item["id"] for item in payload] == sorted(item["id"] for item in payload)
        assert "passed" in out

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_file_is_compute_error(self, capsys, tmp_path, target):
        out_file = tmp_path / target
        code, out, err = run_cli(
            capsys, "verify", "--id", "bneg-table1", "--out", str(out_file)
        )
        assert code == 1
        assert out == ""
        reason = "No such file or directory" if target != "." else "Is a directory"
        assert err == f"error: {out_file}: {reason}\n"

    def test_unwritable_output_file_fails_before_any_entry_runs(self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("an entry ran before the report was opened")

        monkeypatch.setattr(identities, "run_identity", must_not_run)
        out_file = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify", "--all", "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert err == f"error: {out_file}: No such file or directory\n"

    def test_unknown_id_leaves_output_file_untouched(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        out_file.write_text("kept\n")
        code, _, err = run_cli(capsys, "verify", "--id", "no-such", "--out", str(out_file))
        assert code == 2
        assert "unknown identity" in err
        assert out_file.read_text() == "kept\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--id", "bneg-table1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["id"] == "bneg-table1"
        assert set(payload[0]) == {
            "id", "status", "cases_run", "counterexample", "millis", "notes",
        }

    def test_max_n_flag_reduces_cases(self, capsys):
        _, full, _ = run_cli(capsys, "verify", "--id", "swap-rules", "--format", "json")
        _, small, _ = run_cli(
            capsys, "verify", "--id", "swap-rules", "--max-n", "1", "--format", "json"
        )
        assert json.loads(small)[0]["cases_run"] < json.loads(full)[0]["cases_run"]

    def test_negative_max_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--all", "--max-n", "-1"])
        assert info.value.code == 2
        assert "--max-n" in capsys.readouterr().err

    def test_failure_exits_three(self, capsys, monkeypatch):
        from delannoy_jacobi.identities import IdentityReport

        failing = IdentityReport(
            id="dp1", status="fail", cases_run=3,
            counterexample={"params": {"n": 2}, "lhs": "1", "rhs": "2"},
            millis=1,
        )
        monkeypatch.setattr(
            "delannoy_jacobi.cli.identities.run_identity", lambda *a, **k: failing
        )
        code, out, _ = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 3
        assert "FAIL dp1" in out
        assert "counterexample" in out

    @pytest.mark.parametrize("argv", [["--id", "cdrec"], ["--all", "--max-n", "1"]])
    def test_repeated_runs_add_no_cache_entry(self, capsys, tmp_path, monkeypatch, argv):
        # Each run builds its own SuiteConfig; the caches are keyed by the
        # settings' values, so a long-lived process that verifies again at
        # the same settings adds nothing after its first run.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DJ_CONFIG", raising=False)
        caches = [value for module in (families, paths, identities)
                  for value in vars(module).values() if hasattr(value, "cache_info")]
        sizes = []
        for _ in range(3):
            assert run_cli(capsys, "verify", *argv)[0] == 0
            sizes.append([cache.cache_info().currsize for cache in caches])
        assert sizes[0] == sizes[1] == sizes[2]


class TestReadmeExamples:
    """The README's CLI examples: each command is followed by its output as
    a `# ` line (or the start of one, before a `;`), and main prints it."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    @pytest.mark.parametrize("args, output", [
        ("compute sequence --name central-delannoy --count 7", "1, 3, 13, 63, 321, 1683, 8989"),
        ("compute poly --family shifted-jacobi --n 2 --alpha 0 --beta -6", "3x^2 - 12x + 10"),
        ("compute delannoy --m 1 --n 1 --u 2 --v 3 --w 5", "17"),
        ("compute delannoy --m 2 --n 2 --v -1/3", "-1/3"),
    ])
    def test_example_prints_its_output(self, capsys, args, output):
        lines = self.README.read_text(encoding="utf-8").splitlines()
        shown = lines[lines.index(f"delannoy-jacobi {args}") + 1]
        assert shown == f"# {output}" or shown.startswith(f"# {output};")
        assert run_cli(capsys, *shlex.split(args)) == (0, output + "\n", "")


class TestConfigFile:
    def test_config_file_caps_grid(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "delannoy-jacobi.conf").write_text("max_n = 1\n# comment\n")
        monkeypatch.chdir(tmp_path)
        _, out, _ = run_cli(capsys, "verify", "--id", "swap-rules", "--format", "json")
        capped = json.loads(out)[0]["cases_run"]
        monkeypatch.chdir("/")
        _, out, _ = run_cli(capsys, "verify", "--id", "swap-rules", "--format", "json")
        assert capped < json.loads(out)[0]["cases_run"]

    def test_flag_overrides_file(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "delannoy-jacobi.conf").write_text("max_n=8\n")
        monkeypatch.chdir(tmp_path)
        _, out, _ = run_cli(
            capsys, "verify", "--id", "swap-rules", "--max-n", "0", "--format", "json"
        )
        # n = 0 only: one Legendre-shift case plus 49 parameter pairs, two rules each
        assert json.loads(out)[0]["cases_run"] == 99

    def test_env_var_points_at_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "custom.conf"
        config.write_text("max_n = 1\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        _, out, _ = run_cli(capsys, "verify", "--id", "dual-routes", "--format", "json")
        assert json.loads(out)[0]["cases_run"] == 2 * (1 + 49)

    def test_unknown_key_is_compute_error(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "delannoy-jacobi.conf").write_text("bogus = 3\n")
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert "unknown config key" in err

    def test_zero_denominator_in_weight_grid_is_compute_error(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "delannoy-jacobi.conf").write_text("weight_grid = 1, 2/0\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "zero denominator" in err

    def test_negative_max_n_is_compute_error(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "delannoy-jacobi.conf").write_text("max_n = -1\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "verify", "--all")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "max_n must be nonnegative" in err

    @pytest.mark.parametrize("key", ["enumeration_cap", "pair_cap"])
    def test_removed_cap_key_is_unknown(self, capsys, tmp_path, monkeypatch, key):
        # The registry's oracle bounds are fixed; a cap in the file is an
        # unknown key (exit 1), never a smaller oracle or a failing entry.
        config = tmp_path / "custom.conf"
        config.write_text(f"# settings\n{key} = 16\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--all")
        assert code == 1
        assert out == ""
        assert err == f"error: {config}:2: unknown config key {key!r}\n"

    @pytest.mark.parametrize("grid", ["0", "1, 0, 3", "2, 0/5", "", " , "])
    def test_zero_or_empty_weight_grid_is_compute_error(self, capsys, tmp_path, monkeypatch, grid):
        # wcd-legendre evaluates at uv/w, so a zero w is invalid input, and an
        # empty grid would leave four entries without a case.
        config = tmp_path / "custom.conf"
        config.write_text(f"weight_grid = {grid}\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--all")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "weight_grid must list nonzero rationals" in err

    @pytest.mark.parametrize("key", ["max_n"])
    def test_non_integer_setting_names_file_and_line(self, capsys, tmp_path, monkeypatch, key):
        config = tmp_path / "custom.conf"
        config.write_text(f"# settings\n{key} = abc\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--all")
        assert code == 1
        assert out == ""
        assert err == f"error: {config}:2: {key} must be an integer, got 'abc'\n"

    def test_malformed_weight_grid_names_file_and_line(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "custom.conf"
        config.write_text("max_n = 2\nweight_grid = 1, x\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--all")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {config}:2: weight_grid: not a rational literal")

    def test_non_ascii_digit_in_weight_grid_names_file_and_line(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "custom.conf"
        config.write_text("weight_grid = \u0661, 2\n", encoding="utf-8")  # ARABIC-INDIC ONE
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {config}:1: weight_grid: not a rational literal")

    @pytest.mark.parametrize("value", ["\u0663", "+3", "3_0"])
    def test_non_ascii_digit_max_n_names_file_and_line(self, capsys, tmp_path, monkeypatch, value):
        config = tmp_path / "custom.conf"
        config.write_text(f"# settings\nmax_n = {value}\n", encoding="utf-8")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err == f"error: {config}:2: max_n must be an integer, got {value!r}\n"

    def test_directory_is_compute_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DJ_CONFIG", str(tmp_path))
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path}: Is a directory\n"

    def test_unreadable_file_is_compute_error(self, capsys, tmp_path, monkeypatch):
        # File permissions do not bind a superuser, so the refusal is made by
        # the open() that the config reader calls.
        config = tmp_path / "custom.conf"
        config.write_text("max_n = 1\n")

        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setenv("DJ_CONFIG", str(config))
        monkeypatch.setattr(cli, "open", refuse, raising=False)
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err == f"error: {config}: Permission denied\n"

    def test_non_utf8_file_names_the_file(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "custom.conf"
        config.write_bytes(b"# r\xe9glages\nmax_n = 1\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {config}: not UTF-8 text")

    def test_oversize_file_is_compute_error(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "custom.conf"
        config.write_text("# pad\n" * (cli.CONFIG_MAX_BYTES // 6 + 1) + "max_n = 1\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err == f"error: {config}: larger than {cli.CONFIG_MAX_BYTES} bytes\n"

    def test_file_at_the_size_limit_is_read(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "custom.conf"
        setting = "max_n = 1\n"
        config.write_text("#" * (cli.CONFIG_MAX_BYTES - len(setting) - 1) + "\n" + setting)
        assert config.stat().st_size == cli.CONFIG_MAX_BYTES
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, _ = run_cli(capsys, "verify", "--id", "dp1", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["status"] == "pass"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_is_compute_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DJ_CONFIG", "/dev/zero")
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err == f"error: /dev/zero: larger than {cli.CONFIG_MAX_BYTES} bytes\n"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_numbers_follow_every_newline_style(self, capsys, tmp_path, monkeypatch, newline):
        config = tmp_path / "custom.conf"
        config.write_bytes(newline.join(["max_n = 1", "", "bogus = 3", ""]).encode())
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, err = run_cli(capsys, "verify", "--id", "dp1")
        assert code == 1
        assert out == ""
        assert err == f"error: {config}:3: unknown config key 'bogus'\n"

    def test_negative_rational_weight_grid_is_accepted(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "custom.conf"
        config.write_text("weight_grid = -1, 1/2\n")
        monkeypatch.setenv("DJ_CONFIG", str(config))
        code, out, _ = run_cli(capsys, "verify", "--id", "wcd-legendre", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["status"] == "pass"


class TestCounterexampleLabels:
    """A failing case reports its weights as "p/q" strings, whether the grid
    came from a config file or as ints from Python, and the --out report
    keeps its exact layout."""

    @pytest.mark.parametrize("config_text,python_grid,weight,rhs", [
        ("weight_grid = 1/2, 3\n", None, "1/2", "1/2"),
        ("", (1, 2), "1", "0"),
    ])
    def test_weights_are_strings_in_the_report(
        self, capsys, tmp_path, monkeypatch, config_text, python_grid, weight, rhs
    ):
        config = tmp_path / "custom.conf"
        config.write_text(config_text)
        monkeypatch.setenv("DJ_CONFIG", str(config))
        build = cli.make_suite_config

        def corrupted_config(args):
            cfg = build(args)
            if python_grid is not None:
                cfg = dataclasses.replace(cfg, weight_grid=python_grid)
            return dataclasses.replace(cfg, families=CorruptingFamilies("shifted_jacobi", 1))

        monkeypatch.setattr(cli, "make_suite_config", corrupted_config)
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--id", "wd-jacobi", "--out", str(out_file))
        assert code == 3
        params = {"n": 0, "beta": 0, "u": weight, "v": weight, "w": weight}
        assert f"counterexample: {{'params': {params}" in out
        expected = [{
            "id": "wd-jacobi",
            "status": "fail",
            "cases_run": 1,
            "counterexample": {"params": params, "lhs": "1", "rhs": rhs},
            "millis": 0,
            "notes": None,
        }]
        report = re.sub(r'"millis": [0-9]+', '"millis": 0', out_file.read_text())
        assert report == json.dumps(expected, indent=2) + "\n"


# Tokens that break the grammar: non-ASCII digits, a zero denominator,
# decimals, 5 000-digit literals past the interpreter's digit limit,
# 5 000-character text, a negative p/q as its own token, and no value.
MUTANT_VALUES = ("\u0663", "1/0", "-4/0", "0.5", "-1.5", "1e3", "7" * 5000,
                 "1/" + "3" * 5000, "x" * 5000, "-1/3", "")


@st.composite
def fuzzed_argv(draw) -> list[str]:
    """An argv from the CLI's grammar with small valid sizes (|int| <= 40,
    verify always with --max-n <= 2), then mutated: values swapped for
    MUTANT_VALUES, flags dropped or repeated, unknown flags added."""
    small = st.integers(-40, 40).map(str)
    weight = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)).map(str)
    what = draw(st.sampled_from(("delannoy", "schroder", "poly", "sequence", "verify")))
    fmt = ("--format", st.sampled_from(("text", "json", "csv")))
    weights = [("--u", weight), ("--v", weight), ("--w", weight)]
    if what == "delannoy":
        flags = [("--m", small), ("--n", small), *weights, fmt]
    elif what == "schroder":
        flags = [("--n", small), *weights, fmt]
    elif what == "poly":
        family = st.sampled_from((*cli.POLY_FAMILIES, "hermite"))
        flags = [("--family", family), ("--n", small), ("--alpha", small),
                 ("--beta", small), fmt]
    elif what == "sequence":
        flags = [("--name", st.sampled_from((*cli.SEQUENCES, "catalan"))),
                 ("--count", small), ("--m", small), fmt]
    else:
        selector = draw(st.sampled_from((("--id", st.sampled_from((*identities.REGISTRY, "nope"))),
                                         ("--all", None))))
        flags = [selector, ("--format", st.sampled_from(("text", "json")))]
    argv = ["verify"] if what == "verify" else ["compute", what]
    for flag, values in flags:
        # Missing, once or repeated.
        for _ in range(draw(st.sampled_from((0, *[1] * 8, 2)))):
            argv.append(flag)
            if values is not None:
                mutate = draw(st.integers(0, 9)) == 0
                argv.append(draw(st.sampled_from(MUTANT_VALUES) if mutate else values))
    if what == "verify":
        # Always given once, as a small value or a mutant: the registry's
        # full grids take seconds.
        max_n = st.one_of(st.sampled_from(("0", "1", "2")), st.sampled_from((*MUTANT_VALUES, "-1")))
        argv += ["--max-n", draw(max_n)]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("--bogus", "-x", "--n"))))
    return argv


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed_argv())
    def test_every_argv_ends_with_a_documented_exit_code(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # no config file applies
        monkeypatch.delenv("DJ_CONFIG", raising=False)
        assert exit_code_and_stderr(capsys, *argv)[0] in (0, 1, 2), argv


class TestModuleEntry:
    def test_python_dash_m(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "delannoy_jacobi.cli",
             "compute", "sequence", "--name", "schroder", "--count", "5"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "1, 2, 6, 22, 90\n"

    @pytest.mark.parametrize("argv, last_line", [
        (["compute", "sequence", "--name", "schroder", "--count", "5"], "1, 2, 6, 22, 90"),
        (["verify", "--all", "--max-n", "2"], "28 identities: 28 passed, 0 failed"),
    ])
    def test_console_script_entrypoint(self, capsys, monkeypatch, tmp_path, argv, last_line):
        # The installed delannoy-jacobi command calls cli.entrypoint with no
        # arguments; it exits with main's status.  Run from an empty
        # directory, as the installed command would be, so no config applies.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        assert 'delannoy-jacobi = "delannoy_jacobi.cli:entrypoint"' in scripts
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DJ_CONFIG", raising=False)
        monkeypatch.setattr(sys, "argv", ["delannoy-jacobi", *argv])
        with pytest.raises(SystemExit) as exited:
            cli.entrypoint()
        assert exited.value.code == 0
        assert capsys.readouterr().out.splitlines()[-1] == last_line


OUTPUTS = json.loads(golden_reports.OUTPUTS.read_text())


@pytest.mark.parametrize("golden", OUTPUTS, ids=lambda record: " ".join(record["argv"][1:]))
def test_output_matches_the_golden_file(golden):
    # Exit code, stdout digest and error line of each recorded compute
    # request; tests/golden_reports.py regenerates the file.
    assert golden_reports.cli_output(golden["argv"]) == golden
