"""Spec-file parsing, report serialisation, exit codes, and CLI pipelines."""

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waldrates import cli, verify
from waldrates.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VALIDATION,
    MAX_G_DEGREE,
    MAX_SHIFT_TERMS,
    SpecFileError,
    main,
    parse_spec,
    scalar_to_json,
    spec_to_text,
)
from waldrates.polycore import (MAX_LITERAL_DIGITS, MAX_RADICAND, Scalar, _zsqrt,
                                parse_polynomial)
from waldrates.rates import Covariance, NonSpdError, _parts, _ray_coeffs_at
from waldrates.restriction import RestrictionSystem
from waldrates.systems import product_pairs_system, surd_covariance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent
     / "src" / "waldrates" / "schema" / "report.schema.json").read_text()
)


def coordinate_spec(n):
    """Spec text of the n coordinate restrictions x1 = ... = xn = 0."""
    names = [f"x{i + 1}" for i in range(n)]
    lines = ["vars " + " ".join(names), "theta_bar " + " ".join("0" * n)]
    lines += [f"g {name}" for name in names]
    lines.append("V identity")
    return "\n".join(lines) + "\n"


def write_spec(tmp_path, text, name="case.spec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseSpec:
    def test_product_pairs_fixture(self):
        spec = parse_spec(FIXTURES / "product_pairs.spec")
        assert spec.var_names == ("x", "y", "z", "w")
        assert spec.theta_bar == (Scalar(0), Scalar(0), Scalar(1), Scalar(1))
        assert spec.v_identity
        assert tuple(spec.g) == tuple(product_pairs_system().g)

    def test_surd_fixture(self):
        spec = parse_spec(FIXTURES / "product_pairs_cov98.spec")
        assert spec.d == 2
        U = spec.to_covariance()
        assert not U.is_definite
        assert float(U.entry(0, 1)) == pytest.approx(0.98**0.5)

    def test_theta_bar_dimension_mismatch(self, tmp_path):
        path = write_spec(tmp_path, "vars x y z w\ntheta_bar 0 0 1\ng x*y\nV identity\n")
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert "theta_bar" in str(err.value)

    def test_non_psd_v_rejected(self, tmp_path):
        path = write_spec(
            tmp_path, "vars x y\ntheta_bar 0 0\ng x*y\nV 0 1\nV 1 1\n"
        )
        with pytest.raises(NonSpdError):
            parse_spec(path)

    def test_parse_error_carries_line(self, tmp_path):
        path = write_spec(tmp_path, "vars x y\ntheta_bar 0 0\ng x*$\nV identity\n")
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert err.value.line == 3

    def test_unknown_directive(self, tmp_path):
        path = write_spec(tmp_path, "vars x\nfoo 1\n")
        with pytest.raises(SpecFileError):
            parse_spec(path)

    def test_radicand_consistency(self, tmp_path):
        path = write_spec(
            tmp_path,
            "vars x y\ntheta_bar 0 0\ng x*y\nd 3\nV 1 1/2*sqrt(2)\nV 1/2*sqrt(2) 1\n",
        )
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert "sqrt" in str(err.value)

    @pytest.mark.parametrize("value", ["2.5", "sqrt(2)", "two"])
    def test_non_integer_d_reports_line(self, tmp_path, value):
        path = write_spec(tmp_path, f"vars x\ntheta_bar 0\ng x\nd {value}\nV identity\n")
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert err.value.line == 4
        assert main(["analyze", path]) == EXIT_VALIDATION

    def test_restriction_degree_limit(self, tmp_path, capsys):
        # one degree over the limit is rejected at parse time, before any
        # recentring; the limit itself still parses and analyzes
        names = " ".join(f"x{i}" for i in range(MAX_G_DEGREE + 1))
        ones = " ".join("1" for _ in range(MAX_G_DEGREE + 1))
        over = "*".join(f"x{i}" for i in range(MAX_G_DEGREE + 1))
        path = write_spec(tmp_path, f"vars {names}\ntheta_bar {ones}\ng x0\n"
                                    f"g {over} - 1\nV identity\n")
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert err.value.line == 4
        assert str(MAX_G_DEGREE) in str(err.value)
        assert main(["analyze", path]) == EXIT_VALIDATION
        at_limit = write_spec(tmp_path, f"vars x y\ntheta_bar 1 1\n"
                                        f"g x^{MAX_G_DEGREE} - 1\nV identity\n",
                              name="limit.spec")
        assert main(["analyze", at_limit]) == EXIT_OK

    def test_recentring_guard(self, tmp_path):
        # 13 moving variables give 2^13 > MAX_SHIFT_TERMS terms; the count is
        # read off the exponents, so the spec fails fast without expanding
        names = " ".join(f"x{i}" for i in range(13))
        monomial = "*".join(f"x{i}" for i in range(13))
        path = write_spec(tmp_path, f"vars {names}\ntheta_bar {'1 ' * 13}\n"
                                    f"g {monomial} - 1\nV identity\n")
        start = time.perf_counter()
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert err.value.line == 3
        assert str(MAX_SHIFT_TERMS) in str(err.value)
        assert main(["analyze", path]) == EXIT_VALIDATION
        assert time.perf_counter() - start < 1.0
        # a variable with theta_i = 0 does not move, so 2^12 terms remain
        at_limit = write_spec(tmp_path, f"vars {names}\ntheta_bar {'1 ' * 12}0\n"
                                        f"g {monomial}\nV identity\n", name="limit.spec")
        assert 2 ** 12 == MAX_SHIFT_TERMS
        assert parse_spec(at_limit).g[0].total_degree() == 13

    @pytest.mark.parametrize("line, text", [
        (2, "vars x y\ntheta_bar {big} 0\ng x*y\nV identity\n"),
        (3, "vars x y\ntheta_bar 0 0\ng {big}*x*y\nV identity\n"),
        (4, "vars x y\ntheta_bar 0 0\ng x*y\nV {big} 0\nV 0 1\n"),
    ])
    def test_literal_size_guard(self, tmp_path, capsys, line, text):
        big = "1" * (MAX_LITERAL_DIGITS + 1)
        path = write_spec(tmp_path, text.format(big=big))
        start = time.perf_counter()
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert err.value.line == line
        assert str(MAX_LITERAL_DIGITS) in str(err.value)
        assert main(["analyze", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")
        assert time.perf_counter() - start < 1.0
        ok = write_spec(tmp_path, text.format(big=big[1:]), name="ok.spec")
        assert main(["analyze", ok]) == EXIT_OK

    @pytest.mark.parametrize("line, text", [
        (4, "vars x y\ntheta_bar 0 0\ng x*y\nV 1 {surd}\nV {surd} 1\n"),
        (3, "vars x y\ntheta_bar 0 0\ng x*y + {surd}*x\nV identity\n"),
    ])
    def test_radicand_size_guard(self, tmp_path, capsys, line, text):
        # a 31-digit radicand is rejected before the square-free test runs
        path = write_spec(tmp_path, text.format(surd="sqrt(1000000000000000000000000000057)"))
        start = time.perf_counter()
        assert main(["analyze", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ")
        assert f"exceeds the limit of {MAX_RADICAND}" in err
        assert time.perf_counter() - start < 1.0

    def test_longest_literals_keep_the_null_residual_printable(self, tmp_path, capsys):
        # degree 16 at a surd null point, every literal at the digit limit
        big = "9" * MAX_LITERAL_DIGITS
        path = write_spec(tmp_path, f"vars x y\ntheta_bar {big}/7*sqrt(2) {big}/3\n"
                                    f"g {big}/11*x^8*y^8 + 1\nV identity\n")
        assert main(["analyze", path]) == EXIT_PRECONDITION
        assert "nonzero at the null point" in capsys.readouterr().err

    def test_too_many_restrictions(self, tmp_path):
        path = write_spec(tmp_path, "vars x\ntheta_bar 0\ng x\ng x^2\nV identity\n")
        with pytest.raises(SpecFileError):
            parse_spec(path)


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "product_pairs.spec",
        "product_pairs_cov98.spec",
        "linear_q1.spec",
        "linear_q2.spec",
    ])
    def test_fixture_round_trips(self, tmp_path, name):
        spec = parse_spec(FIXTURES / name)
        rendered = spec_to_text(spec)
        again = parse_spec(write_spec(tmp_path, rendered))
        assert again == spec

    def test_scalar_json_shapes(self):
        assert scalar_to_json(Scalar(3)) == "3"
        assert scalar_to_json(Scalar(-1, 0, 0)) == "-1"
        from fractions import Fraction

        assert scalar_to_json(Scalar(Fraction(1, 10))) == "1/10"
        assert scalar_to_json(Scalar(0, Fraction(7, 10), 2)) == \
            {"a": "0", "b": "7/10", "d": 2}


class TestCommands:
    def test_parser_built_once_and_dispatch_at_call_time(self, monkeypatch, capsys):
        built = []
        real_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
        cli._parser.cache_clear()
        spec = str(FIXTURES / "product_pairs.spec")
        assert main(["rates", spec]) == EXIT_OK
        assert "predicted divergence exponent β̄ = 1" in capsys.readouterr().out
        seen = []
        monkeypatch.setattr(cli, "cmd_rates", lambda args: seen.append(args) or 7)
        assert main(["rates", spec, "--seed", "3"]) == 7
        assert [(a.command, a.seed, a.samples) for a in seen] == [("rates", 3, 0)]
        assert capsys.readouterr().out == ""
        assert built == [1]

    def test_analyze_product_pairs(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = main(["analyze", str(FIXTURES / "product_pairs.spec"),
                     "--json", str(out_json)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "FRALD-T: FAILS, r = 2, blocks (2 rows deg 0)(1 row deg 1)" in text
        report = json.loads(out_json.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["frald"]["rank"] == 2
        assert not report["frald"]["frald_t_holds"]
        assert report["frald"]["blocks"] == [
            {"rows": 2, "degree": 0}, {"rows": 1, "degree": 1}
        ]

    def test_analyze_linear_holds(self, capsys):
        code = main(["analyze", str(FIXTURES / "linear_q2.spec")])
        assert code == EXIT_OK
        assert "FRALD-T: HOLDS" in capsys.readouterr().out

    def test_analyze_null_violated_exit_code(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            "vars x y z w\ntheta_bar 1 1 1 1\ng x*y\ng x*w\ng y*z\nV identity\n",
        )
        assert main(["analyze", path]) == EXIT_PRECONDITION

    def test_rates_surd_covariance(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = main(["rates", str(FIXTURES / "product_pairs_cov98.spec"),
                     "--samples", "5", "--json", str(out_json)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "m_3 = 6" in text
        assert "β̄ = 2" in text
        report = json.loads(out_json.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["rates"]["m_at_v"] == [0, 0, 6]
        assert report["rates"]["m_generic"] == [0, 0, 4]
        assert report["rates"]["beta_bar"] == "2"

    def test_rates_identity_covariance(self, capsys):
        code = main(["rates", str(FIXTURES / "product_pairs.spec")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "m_3 = 4" in out
        assert "β̄ = 1" in out

    def test_rates_linear_no_divergence(self, capsys):
        code = main(["rates", str(FIXTURES / "linear_q1.spec")])
        assert code == EXIT_OK
        assert "no divergence predicted" in capsys.readouterr().out

    def test_simulate_small_run(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = main(["simulate", str(FIXTURES / "product_pairs.spec"),
                     "--grid", "10,100,1000,10000", "--reps", "200",
                     "--seed", "7", "--json", str(out_json)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "MATCHES prediction" in text
        report = json.loads(out_json.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["sim"]["bound_violations"] == 0

    def test_simulate_row_rewrite_spec(self, tmp_path, capsys):
        # g2 = 2 g1 + y^2 + x z: the echelon transform rewrites row 2, so the
        # kernel simulates S g with S = [[1, 0], [-2, 1]]
        path = write_spec(tmp_path, "vars x y z\ntheta_bar 0 0 0\ng x + y + z\n"
                          "g 2*x + 2*y + 2*z + y^2 + x*z\nV identity\n")
        out_json = tmp_path / "report.json"
        code = main(["simulate", path, "--grid", "100,1000,10000,100000", "--reps", "200",
                     "--seed", "7", "--json", str(out_json)])
        assert code == EXIT_OK
        # s = (0, 1): W's limit is not chi2(2), so no chi-square deviation is printed
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("chi-square sanity")]
        assert lines == ["chi-square sanity: not applicable, the chi2(2) reference does "
                         "not apply because an echelon degree s_i > 0 (s = [0, 1])"]
        report = json.loads(out_json.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["frald"]["S"] == [["1", "0"], ["-2", "1"]]
        assert report["sim"]["bound_violations"] == 0
        assert report["sim"]["singular_fraction"] == 0.0

    def test_simulate_chi_square_line_for_linear(self, capsys):
        code = main(["simulate", str(FIXTURES / "linear_q1.spec"),
                     "--grid", "10,100,1000,10000", "--reps", "200"])
        assert code == EXIT_OK
        assert "chi-square sanity" in capsys.readouterr().out

    def test_simulate_repeat_seed_identical_json_bytes(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["simulate", str(FIXTURES / "product_pairs.spec"),
                         "--grid", "10,100,1000,10000", "--reps", "200",
                         "--seed", "42", "--json", str(out)])
            assert code == EXIT_OK
            paths.append(out)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verify_product_pairs(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = main(["verify", str(FIXTURES / "product_pairs.spec"),
                     "--json", str(out_json)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert text.count("[PASS]") == 3
        report = json.loads(out_json.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["all_passed"]

    def test_verify_single_restriction(self, capsys):
        assert main(["verify", str(FIXTURES / "linear_q1.spec")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "[PASS] symmetric-polynomial identity" in text
        assert "skipped" in text  # closed form only applies to product pairs

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        path = write_spec(tmp_path, "vars x\ntheta_bar 0 0\ng x\nV identity\n")
        assert main(["analyze", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize("body, line, col", [
        ("theta_bar 1/0 0\ng x*y\nV identity\n", 2, 13),
        ("theta_bar 0 0\ng x*y + 1/0\nV identity\n", 3, 11),
        ("theta_bar 0 0\ng x*y\nV 1 1/0\nV 0 1\n", 4, 7),
    ])
    def test_zero_denominator_exit_code_and_line(self, tmp_path, capsys, body, line, col):
        path = write_spec(tmp_path, "vars x y\n" + body)
        assert main(["analyze", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ")
        assert f"column {col}: denominator must be nonzero" in err

    @pytest.mark.parametrize("body, message", [
        ("theta_bar 0 1/0\ng x*y\nV identity\n",
         "line 2: column 15: denominator must be nonzero"),
        ("theta_bar 0 0\ng x*y + 1/0\nV identity\n",
         "line 3: column 11: denominator must be nonzero"),
        ("theta_bar 0 0\ng x*y\nV 0 2/0\nV 0 1\n",
         "line 4: column 7: denominator must be nonzero"),
    ])
    def test_error_location_reported_once(self, tmp_path, capsys, body, message):
        # the line is named once, and the column counts from the start of the line
        path = write_spec(tmp_path, "vars x y\n" + body)
        assert main(["analyze", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_rates_certifies_v_rows_once(self, tmp_path, monkeypatch, capsys):
        from waldrates import rates

        certify = rates._assert_positive_semidefinite
        calls = []
        monkeypatch.setattr(rates, "_assert_positive_semidefinite",
                            lambda grid: calls.append(grid) or certify(grid))
        path = write_spec(tmp_path, "vars x y\ntheta_bar 0 0\ng x*y\nV 2 1\nV 1 2\n")
        assert main(["rates", path]) == EXIT_OK
        assert len(calls) == 1

    def test_non_psd_exit_code(self, tmp_path, capsys):
        path = write_spec(tmp_path,
                          "vars x y\ntheta_bar 0 0\ng x*y\nV 0 1\nV 1 1\n")
        assert main(["analyze", path]) == EXIT_PRECONDITION

    def test_missing_file_exit_code(self, capsys):
        assert main(["analyze", "/nonexistent/path.spec"]) == EXIT_VALIDATION

    def test_simulate_perturbed_vhat(self, capsys):
        code = main(["simulate", str(FIXTURES / "linear_q2.spec"),
                     "--grid", "10,100,1000,10000", "--reps", "200",
                     "--vhat", "perturbed:0.3"])
        assert code == EXIT_OK
        assert "vhat perturbed:0.3" in capsys.readouterr().out

    def test_excess_singular_draws_exit_code(self, monkeypatch, capsys):
        from waldrates import cli
        from waldrates.simulate import ExcessiveSingularDrawsError

        def boom(*args, **kwargs):
            raise ExcessiveSingularDrawsError("singular inner matrix on 8.0% of draws")

        monkeypatch.setattr(cli, "divergence_experiment", boom)
        code = main(["simulate", str(FIXTURES / "linear_q1.spec"),
                     "--grid", "10,100,1000,10000", "--reps", "200"])
        assert code == EXIT_NUMERICAL

    def test_schema_ships_with_package(self):
        from importlib import resources

        text = (resources.files("waldrates") / "schema" / "report.schema.json").read_text()
        assert json.loads(text)["title"] == "waldrates report"

    def test_rates_rejects_more_than_eight_restrictions(self, tmp_path, capsys):
        path = write_spec(tmp_path, coordinate_spec(9))
        assert main(["rates", path]) == EXIT_VALIDATION
        assert "8" in capsys.readouterr().err

    def test_analyze_builds_no_charpoly_so_q9_passes(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        path = write_spec(tmp_path, coordinate_spec(9))
        assert main(["analyze", path, "--json", str(out_json)]) == EXIT_OK
        assert "FRALD-T: HOLDS, r = 9" in capsys.readouterr().out
        assert json.loads(out_json.read_text())["frald"]["rank"] == 9

    def test_non_square_free_radicand_reports_location(self, tmp_path):
        path = write_spec(tmp_path,
                          "vars x y\ntheta_bar 0 0\ng sqrt(4)*x*y\nV identity\n")
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("command, option, value", [
        ("analyze", "--seed", "-1"),
        ("rates", "--seed", "-1"),
        ("rates", "--samples", "-2"),
        ("simulate", "--seed", "-1"),
        ("verify", "--seed", "-1"),
    ])
    def test_negative_number_rejected_before_any_work(self, command, option,
                                                       value, capsys):
        # random.Random(-1) would silently act as seed 1, and default_rng
        # rejects it only after the symbolic work has run
        with pytest.raises(SystemExit) as exc:
            main([command, str(FIXTURES / "product_pairs.spec"), option, value])
        assert exc.value.code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: expected a non-negative integer" in captured.err

    @pytest.mark.parametrize("command, options", [
        ("simulate", ["--vhat", "perturbed:nan"]),
        ("simulate", ["--vhat", "perturbed:inf"]),
        ("simulate", ["--reps", "10"]),
        ("simulate", ["--grid", "100,10"]),
        ("simulate", ["--grid", "1,x,3,4"]),
        ("simulate", ["--trials", "0"]),
        ("analyze", ["--trials", "0"]),
        ("rates", ["--trials", "-3"]),
    ])
    def test_bad_option_rejected_before_any_work(self, command, options,
                                                 monkeypatch, capsys):
        # perturbed:nan used to run the whole experiment and fail in eigvalsh,
        # perturbed:inf to exhaust ten V-hat retries per draw
        def no_work(*args, **kwargs):
            raise AssertionError("the symbolic pipeline ran")

        monkeypatch.setattr(cli, "rate_report", no_work)
        monkeypatch.setattr(cli, "frald_check", no_work)
        try:
            code = main([command, str(FIXTURES / "product_pairs.spec"), *options])
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().out == ""


class TestSurdRank:
    """``analyze`` on low matrices with surd entries, which rank in Z[sqrt(d)];
    stdout and the --json digest are those the Fraction-point rank printed,
    but for the unit surd coefficients, written `sqrt(d)` without `1*`."""

    SPECS = {
        "rank_deficient_sqrt2": (
            "vars x y z w\ntheta_bar 0 0 1 1\ng sqrt(2)*x*y\ng x*w\ng y*z\nV identity\n",
            "system: 3 restrictions in 4 parameters (seed 42, rank trials 3)\n"
            "echelon transformation S (rows):\n"
            "  [0, 1, 0]\n  [0, 0, 1]\n  [1, 0, 0]\n"
            "lowest-degree rows of S*G (deviation coordinates):\n"
            "  deg 0: [1, 0, 0, 0]\n"
            "  deg 0: [0, 1, 0, 0]\n"
            "  deg 1: [sqrt(2)*y, sqrt(2)*x, 0, 0]\n"
            "rank of the lowest-degree matrix: r = 2 (q = 3)\n"
            "FRALD-T: FAILS, r = 2, blocks (2 rows deg 0)(1 row deg 1)\n",
            "8e0e255148bdfe435732ac748dc673468fdc457018130278198ba87abe14b4b6"),
        "sqrt_9999999967": (
            "vars x y z w\ntheta_bar 0 0 0 0\ng sqrt(9999999967)*x*y + z^2\n"
            "g x*w - 1/3*y^2\ng y*z + 2*w^3 + x\nV identity\n",
            "system: 3 restrictions in 4 parameters (seed 42, rank trials 3)\n"
            "echelon transformation S (rows):\n"
            "  [0, 0, 1]\n  [1, 0, 0]\n  [0, 1, 0]\n"
            "lowest-degree rows of S*G (deviation coordinates):\n"
            "  deg 0: [1, 0, 0, 0]\n"
            "  deg 1: [sqrt(9999999967)*y, sqrt(9999999967)*x, 2*z, 0]\n"
            "  deg 1: [w, -2/3*y, 0, x]\n"
            "rank of the lowest-degree matrix: r = 3 (q = 3)\n"
            "FRALD-T: HOLDS, r = 3, blocks (1 row deg 0)(2 rows deg 1)\n",
            "7fa2edefe2b6d51c03234b8c761165ff8d9a780a5108962042a90dffdfe507a0"),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_analyze_output_is_pinned(self, name, tmp_path, monkeypatch, capsys):
        text, stdout, digest = self.SPECS[name]
        monkeypatch.chdir(tmp_path)  # the report records the spec path as given
        write_spec(tmp_path, text)
        assert main(["analyze", "case.spec", "--json", "report.json"]) == EXIT_OK
        assert capsys.readouterr().out == stdout
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


#: SHA-256 of the --json report of (fixture, seed, command) run from the
#: repository root on ``fixtures/<name>.spec``; ``rates`` runs with --samples 2.
REPORT_DIGESTS = {
    ("linear_q1", 7, "analyze"): "4b54032453ae6a01666aadcf9c07cd79a6783e94333cecf0764e43e36f306f93",
    ("linear_q1", 7, "rates"): "4d30ac5459833d0435a51d5add7600ca4f49ebe973da0b84c5757a179853220f",
    ("linear_q1", 11, "analyze"): "6cd256852b81407b28b03991245d06812cf23cecf48b022bf8c1927dd4e166c8",
    ("linear_q1", 11, "rates"): "72a83aa6bd3813944386a4672e7fdf72049776653d79c712b47a0323f9b50bc9",
    ("linear_q2", 7, "analyze"): "3b57c1d8d5306302f9c67dad6280228a32c8848ea88bf6ae9bddb2e8c163d895",
    ("linear_q2", 7, "rates"): "55deef13090772ad36b920493d551b61d0d4bd31f7c6b6dca09080f1fa148e78",
    ("linear_q2", 11, "analyze"): "481b689d9fa8b58c3eb7e862c16bb2524238ec2047730fe15947f48326c1b8b0",
    ("linear_q2", 11, "rates"): "e45b4168c727d1888200759d37d95b92b5ba358abcf03fa60deaa06efd25d872",
    ("product_pairs", 7, "analyze"):
        "edc5a8dbdf6ba013b815ea06fdb4911abdeefe639be246d36296a98e7fdf32cf",
    ("product_pairs", 7, "rates"):
        "af4fe9b55a1be4817817f81aeab1bc3104342a1b5593f9f99b2a076f0e3d1d4a",
    ("product_pairs", 11, "analyze"):
        "f4f26dba801cfb00d95c8dd32485857b057d98e1d8be4792fed372b5031cdd80",
    ("product_pairs", 11, "rates"):
        "70e257249586a83358fe571f78c0bb4f2f40077eb13a269654b6f575e453e2c1",
    ("product_pairs_cov98", 7, "analyze"):
        "09f7fe7bc5419daa9c0814712771ee79b64b873cff7f18097d414b770e849c98",
    ("product_pairs_cov98", 7, "rates"):
        "7f7e85da7ace240036f464fde0d2bca34ee4e6a0af39887e7305f92f0c92a2c0",
    ("product_pairs_cov98", 11, "analyze"):
        "ca077068d4dc504171f1e0217b62183dae0a46cf529c2d0d47c61daeaff8389b",
    ("product_pairs_cov98", 11, "rates"):
        "84e61870997ae0d75828a2861e1b14eb74c5bdb0ba925bf3964e8c4212fbefb3",
}


@pytest.mark.parametrize("name, seed, command", sorted(REPORT_DIGESTS))
def test_fixture_report_bytes_are_pinned(name, seed, command, tmp_path, monkeypatch, capsys):
    # a change to any report byte, wanted or not, has to update this pin
    monkeypatch.chdir(FIXTURES.parent)  # spec_path reads fixtures/<name>.spec
    out = tmp_path / "report.json"
    extra = ["--samples", "2"] if command == "rates" else []
    assert main([command, f"fixtures/{name}.spec", *extra, "--seed", str(seed),
                 "--json", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == REPORT_DIGESTS[name, seed, command]


class TestNegativeControl:
    """A corrupted coefficient from the ray kernel must fail the symmetric check."""

    @staticmethod
    def _shift_a_k(monkeypatch, k):
        # a_k = c_k(t0) / c^k, so adding c^k to c_k's constant term, the lowest
        # digit of its value packed at t = 2^K, shifts a_k by exactly +1
        kernel = verify._ray_charpoly

        def corrupted(*args):
            (K, packed), c = kernel(*args)
            shifted = packed[:]
            shifted[k - 1] = packed[k - 1] + _zsqrt(c**k, 0, _parts(packed[k - 1])[2])
            t0 = Fraction(1, 100)
            want = _ray_coeffs_at((K, packed), c, t0)
            want[k - 1] += 1
            assert _ray_coeffs_at((K, shifted), c, t0) == want
            return (K, shifted), c

        monkeypatch.setattr(verify, "_ray_charpoly", corrupted)

    def test_corrupted_coefficients_fail_symmetric_check(self, monkeypatch):
        self._shift_a_k(monkeypatch, 1)
        result = verify.symmetric_polynomial_check(product_pairs_system())
        assert not result.passed, result.detail

    def test_corrupted_surd_determinant_fails_symmetric_check(self, monkeypatch):
        names = ("x", "y", "z", "w")
        g = tuple(parse_polynomial(text, names) for text in
                  ("sqrt(2)*x*y + z^2", "x*w - 1/3*sqrt(2)*y^2", "y*z + 2*w^3 + sqrt(2)*x"))
        system = RestrictionSystem(names, (0, 0, 0, 0), g)
        assert verify.symmetric_polynomial_check(system).passed
        self._shift_a_k(monkeypatch, system.q)
        result = verify.symmetric_polynomial_check(system)
        assert not result.passed, result.detail


_box = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.data())
def test_integer_b_rounds_like_scalar_products(q, surd, data):
    # verify's B(x) from integer pairs over one denominator, against the
    # Scalar product it replaced, bit for bit
    if surd:
        U = surd_covariance()
        entry = st.builds(lambda a, b: Scalar(a, b, 2), _box, _box)
    else:
        U = Covariance.random_spd(4, random.Random(data.draw(st.integers(0, 2**32))))
        entry = _box.map(Scalar)
    G_x = [[data.draw(entry) for _ in range(4)] for _ in range(q)]
    GU = [[sum(gk * U.entry(k, j) for k, gk in enumerate(g) if gk) for j in range(4)]
          for g in G_x]
    want = np.array([[float(sum(u * v for u, v in zip(gu, g))) for g in G_x] for gu in GU])
    assert np.array_equal(verify._float_gug(G_x, U), want)
