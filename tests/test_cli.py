"""Spec-file parsing, report serialisation, exit codes, and CLI pipelines."""

import hashlib
import inspect
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waldrates import cli, simulate, verify
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
)
from waldrates.polycore import (MAX_LITERAL_DIGITS, MAX_RADICAND, MultiPoly, PolyParseError,
                                Scalar, _zsqrt, parse_polynomial)
from waldrates.rates import Covariance, NonSpdError, _parts, _ray_coeffs_at, rate_report
from waldrates.restriction import (RANK_POINTS, PolyMatrix, RestrictionSystem, frald_check,
                                   jacobian, recenter)
from waldrates.simulate import vanishing_rate_experiment
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
        U = spec.covariance
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

    @pytest.mark.parametrize("value, message", [pytest.param(*case, id=case[0]) for case in [
        ("2.5", "must be an integer"), ("sqrt(2)", "must be an integer"),
        ("two", "must be an integer"),
        # the radicands sqrt(d) rejects, with its messages
        ("-3", "radicand must be a nonnegative integer, got -3"),
        ("4", "radicand must be square-free, got 4"),
        ("99999999999999999999",
         f"radicand 99999999999999999999 exceeds the limit of {MAX_RADICAND}"),
    ]] + [pytest.param("2\nd 3", "duplicate 'd' line", id="duplicate")])
    def test_non_integer_d_reports_line(self, tmp_path, capsys, value, message):
        path = write_spec(tmp_path, f"vars x\ntheta_bar 0\ng x\nd {value}\nV identity\n")
        with pytest.raises(SpecFileError) as err:
            parse_spec(path)
        line = 4 + value.count("\n")
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ") and message in str(err.value)
        if value.isdigit():
            with pytest.raises(PolyParseError, match=f": {message}$"):
                parse_polynomial(f"sqrt({value})", [])
        assert main(["analyze", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {err.value}\n"

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
        # the largest shift a spec may ask for runs through both symbolic commands
        assert main(["analyze", at_limit]) == EXIT_OK
        assert main(["rates", at_limit]) == EXIT_OK

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


def spec_to_text(spec) -> str:
    """Canonical spec-file text; parse_spec(spec_to_text(s)) == s."""
    lines = ["vars " + " ".join(spec.var_names)]
    lines.append("theta_bar " + " ".join(t.to_text() for t in spec.theta_bar))
    for poly in spec.g:
        lines.append("g " + poly.to_text(spec.var_names))
    if spec.d is not None:
        lines.append(f"d {spec.d}")
    if spec.v_identity:
        lines.append("V identity")
    else:
        for row in spec.v_rows:
            lines.append("V " + " ".join(v.to_text() for v in row))
    return "\n".join(lines) + "\n"


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
        assert ("no divergence predicted (full rank at lowest degrees)"
                in capsys.readouterr().out)

    def test_rates_states_the_rank_when_it_is_below_q(self, tmp_path, capsys):
        # G has generic rank 1 < q = 2 and beta_bar = 0: not "full rank"
        path = write_spec(tmp_path, "vars x y\ntheta_bar 0 0\ng x\ng x^2\nV identity\n")
        assert main(["analyze", path]) == EXIT_OK
        assert "FRALD-T: FAILS, r = 1" in capsys.readouterr().out
        assert main(["rates", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "no divergence predicted (r = 1 of q = 2 at lowest degrees)" in out
        assert "full rank" not in out

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

    def test_verify_repeat_seed_identical_json_bytes(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["verify", str(FIXTURES / "product_pairs.spec"),
                         "--seed", "42", "--json", str(out)])
            assert code == EXIT_OK
            paths.append(out)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verify_reports_singular_draws_as_a_failed_check(self, tmp_path, capsys):
        # g2 = 2 g1: every inner matrix is singular, W is undefined and nothing
        # is regularised, so the check fails and verify still reports all three
        path = write_spec(tmp_path, "vars x y\ntheta_bar 0 0\ng x\ng 2*x\nV identity\n")
        out_json = tmp_path / "report.json"
        assert main(["verify", path, "--json", str(out_json)]) == EXIT_NUMERICAL
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("[FAIL] transformation invariance: plain system: "
                                   "inner Wald matrix singular on ")
        report = json.loads(out_json.read_text())
        jsonschema.validate(report, SCHEMA)
        assert not report["all_passed"]
        assert "[FAIL] transformation invariance: " + report["checks"][2]["detail"] == lines[2]

    def test_verify_singular_b_passes_symmetric_check(self, tmp_path, capsys):
        # B(x) is singular at every point, so a_2 = 0 exactly and P_2 is
        # rounding noise: within the rounding floor, not a relative deviation of 1
        path = write_spec(tmp_path, "vars x y\ntheta_bar 0 0\ng x\ng 2*x\nV identity\n")
        assert main(["verify", path]) == EXIT_NUMERICAL
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[PASS] symmetric-polynomial identity: ")
        assert lines[2] == ("[FAIL] transformation invariance: plain system: "
                            "inner Wald matrix singular on 200 of 200 draws")

    @pytest.mark.parametrize("vhat", ["perturbed:", "perturbed:x", "perturbed:0.5:1", "wobbly"])
    def test_bad_vhat_value_names_the_value(self, vhat, capsys):
        assert main(["simulate", str(FIXTURES / "product_pairs.spec"),
                     "--vhat", vhat]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: invalid --vhat value {vhat!r}\n"

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        path = write_spec(tmp_path, "vars x\ntheta_bar 0 0\ng x\nV identity\n")
        assert main(["analyze", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize("text, name", [
        ("vars x-1 x\ntheta_bar 0 1\ng x-1\nV identity\n", "x-1"),
        ("vars sqrt y\ntheta_bar 0 0\ng y\nV identity\n", "sqrt"),
    ])
    def test_vars_rejects_names_the_grammar_cannot_read(self, tmp_path, capsys, text, name):
        # x-1 would read as the difference x - 1, and sqrt only as the function
        path = write_spec(tmp_path, text)
        assert main(["analyze", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: line 1: invalid variable name {name!r}: a name is "
            "[A-Za-z_][A-Za-z_0-9]* and not 'sqrt'\n")

    def test_perturbed_vhat_never_spd_exits_3(self, capsys):
        # CholeskyFailureError is a precondition failure, like a non-PSD V
        code = main(["simulate", str(FIXTURES / "product_pairs.spec"), "--grid", "1,2,3,4",
                     "--reps", "200", "--vhat", "perturbed:1000000", "--seed", "7"])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "error: perturbed V_hat stayed non-SPD after 10 retries\n")

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
        def boom(*args, **kwargs):
            raise simulate.ExcessiveSingularDrawsError("singular inner matrix on 8.0% of draws")

        monkeypatch.setattr(simulate, "divergence_experiment", boom)
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

    def test_more_than_eight_restrictions_pass_only_analyze(self, tmp_path, capsys):
        # MAX_Q is the specification limit: every command that builds a rate
        # report or the ray kernel rejects q = 9; analyze builds neither
        path = write_spec(tmp_path, coordinate_spec(9))
        for command in ("rates", "simulate", "verify"):
            assert main([command, path]) == EXIT_VALIDATION
            assert "9 restrictions exceed the specification limit of 8" in capsys.readouterr().err
        assert main(["analyze", path]) == EXIT_OK

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
        ("simulate", ["--grid", "0,1,2,3"]),
        ("verify", ["--trials", "3"]),
        ("analyze", ["--trials", "3"]),
        ("rates", ["--trials", "3"]),
        ("simulate", ["--trials", "3"]),
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

    def test_rank_point_count_is_a_constant(self, capsys):
        # the rank test draws at most RANK_POINTS points, and no option or
        # parameter of the pipeline sets it (--trials exits 2 above)
        assert RANK_POINTS == 3
        assert main(["analyze", str(FIXTURES / "product_pairs.spec")]) == EXIT_OK
        assert capsys.readouterr().out.startswith(
            "system: 3 restrictions in 4 parameters (seed 42, rank trials 3)\n")
        assert list(inspect.signature(frald_check).parameters) == ["sys", "rng"]
        assert list(inspect.signature(rate_report).parameters) == ["sys", "U", "rng"]
        with pytest.raises(TypeError):
            frald_check(product_pairs_system(), trials=3)
        with pytest.raises(TypeError):
            rate_report(product_pairs_system(), Covariance.identity(4), trials=3)


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


#: SHA-256 of ``simulate``'s --json report followed by its stdout, for
#: (fixture, seed, --vhat), run from the repository root with the default grid
#: and --reps 300: every bit the Monte Carlo kernel writes.
SIMULATE_DIGESTS = {
    ("linear_q2", 7, "exact"): "c52ae68d37d4efd2f6f575986f771c381dd98e0edd6d3440f2cf457d3a738076",
    ("linear_q2", 7, "perturbed:0.5"):
        "5c372ee47affbf1cea568f629a250d11140eecef08aba028d0e47866a9686036",
    ("linear_q2", 42, "exact"): "75072d172857702d9ef0b0c4fe3a5edaad5e15252d454c1d0199e7505a8f1949",
    ("linear_q2", 42, "perturbed:0.5"):
        "e3c81e4b0ff4e356064d0c6a73517c9423ba114247415670dd8dec0c90c95285",
    ("product_pairs", 7, "exact"):
        "0df78c2789c265c2645a9284267cb105f2f9ecb8fe2b8ad61942275f33b34987",
    ("product_pairs", 7, "perturbed:0.5"):
        "66572044443fc430fff97a3e0045c408e1f3edd622e680fde382f721c60cd54b",
    ("product_pairs", 42, "exact"):
        "48e4df76ca32c07a5381eb7f1a3927342e416c41f9371318cf0b805cd970465e",
    ("product_pairs", 42, "perturbed:0.5"):
        "103d666ecab0ad3e14dca6b3a9932b5c0acb938005e9de8f74361bc13f4ae951",
}


@pytest.mark.parametrize("name, seed, vhat", sorted(SIMULATE_DIGESTS))
def test_simulate_output_bytes_are_pinned(name, seed, vhat, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    out = tmp_path / "report.json"
    assert main(["simulate", f"fixtures/{name}.spec", "--reps", "300", "--seed", str(seed),
                 "--vhat", vhat, "--json", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes() + capsys.readouterr().out.encode()).hexdigest()
    assert digest == SIMULATE_DIGESTS[name, seed, vhat]


#: SHA-256 of ``raw_medians.tobytes()`` of the vanishing experiment on product
#: pairs with the surd covariance, grid 1e3, 1e4, 1e5, 300 reps, seed 5.
VANISHING_DIGESTS = {
    "exact": "1c7fd667524a6d26ca6a7d80a354c2844e891962b3f8bcade8ac3f99b4aaa0fd",
    "perturbed": "9b6296da7cb27048cb053a2c2dfe5164d2862284c6871b9e6ad0c34b0a552cd6",
}


@pytest.mark.parametrize("mode", sorted(VANISHING_DIGESTS))
def test_vanishing_medians_are_pinned(mode):
    res = vanishing_rate_experiment(product_pairs_system(), surd_covariance(), mode,
                                    [1000, 10000, 100000], 300, 5)
    assert hashlib.sha256(res.raw_medians.tobytes()).hexdigest() == VANISHING_DIGESTS[mode]


#: SHA-256 of ``verify``'s --json report followed by its stdout, for (spec,
#: seed), run from the repository root on ``fixtures/<name>.spec``; "singular"
#: is ``case.spec`` holding g x, g 2*x, whose invariance check fails (exit 4).
VERIFY_DIGESTS = {
    ("linear_q1", 7): "960a39db05e55b3c0bc8867636bff0d9e93d90280385b1e977c8d85d50b49029",
    ("linear_q1", 42): "3c5f5b5ea3c846ad9d76eb0c868d77aacfb7006410573f75cda4ee6b7f32d417",
    ("linear_q2", 7): "88822a3706ba09c0fdac8f66ba31f369bb9490fd28bafbad8a9c8cce99e49bf0",
    ("linear_q2", 42): "9dbae34e4580f09d77f2a760ce671095211a73769c085456460d97bfba12fa2e",
    ("product_pairs", 7): "f4587b459c4e43a1a983b2e13f7db49e1020ff37587adfb9daa41e08c1e7058f",
    ("product_pairs", 42): "494205371c460b0899af2fe9ac311572a5411377fb073607547f8a9c62ab6fc0",
    ("product_pairs_cov98", 7):
        "03e8d9fc1e6b195c944891b7b974d1bec5dac2ea61547a0bb8c8c4e41391a10a",
    ("product_pairs_cov98", 42):
        "f41584784c4f510f07a2647938d090a3589f09d68795da169367c29e1795d32d",
    ("singular", 7): "fcd3de470de4f259f9e2e3b767dba10bb3e24be8d3792d2d59a516e9eae2e313",
    ("singular", 42): "6eae029c7d359b790405ed5f35bb7f63a17b9e5798fb8ec82df0325752d57f61",
}
SINGULAR_SPEC = "vars x y\ntheta_bar 0 0\ng x\ng 2*x\nV identity\n"


@pytest.mark.parametrize("name, seed", sorted(VERIFY_DIGESTS))
def test_verify_output_bytes_are_pinned(name, seed, tmp_path, monkeypatch, capsys):
    if name == "singular":
        monkeypatch.chdir(tmp_path)  # the report records the spec path as given
        write_spec(tmp_path, SINGULAR_SPEC)
        spec, want = "case.spec", EXIT_NUMERICAL
    else:
        monkeypatch.chdir(FIXTURES.parent)
        spec, want = f"fixtures/{name}.spec", EXIT_OK
    out = tmp_path / "report.json"
    assert main(["verify", spec, "--seed", str(seed), "--json", str(out)]) == want
    digest = hashlib.sha256(out.read_bytes() + capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[name, seed]


#: System 11 of the benchmark's seed-7 symbolic stream (q = 4): at seed 7 its
#: symmetric-polynomial check hands the scalar Jacobi B(x) matrices whose
#: off-diagonal norm a cancelling stopping test could never see fall.
SYS011_SPEC = """vars x1 x2 x3 x4
theta_bar -2 2 -2 -2
g x1*x3 + 2*x1 + x2 + 2*x3 + 2
g -3*x1^2 - 12*x1 + x4 - 10
g -1/2*x1^2 - 2*x1 + 2*x3 + 2
g x2*x4 + 2*x2 - 2*x4 - 4
V 3 3/2 1 -3/4
V 3/2 11/4 1 -25/24
V 1 1 35/24 1/12
V -3/4 -25/24 1/12 383/144
"""


def test_verify_q4_spec_passes(tmp_path, capsys):
    spec = write_spec(tmp_path, SYS011_SPEC)
    assert main(["verify", spec, "--seed", "7"]) == EXIT_OK
    assert capsys.readouterr().out.count("[PASS]") == 3


def test_verify_runs_one_kernel_pass_per_check(monkeypatch, capsys):
    # invariance: one Jacobi for all eleven systems; closed form: one for the
    # general path and one array call of the oracle
    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(simulate, "_spectra", counted("closed form", simulate._spectra))
    monkeypatch.setattr(verify, "_spectra", counted("invariance", verify._spectra))
    monkeypatch.setattr(verify, "wald_closed_form_product_pairs",
                        counted("oracle", verify.wald_closed_form_product_pairs))
    assert main(["verify", str(FIXTURES / "product_pairs.spec")]) == EXIT_OK
    assert calls == ["closed form", "oracle", "invariance"]
    assert capsys.readouterr().out.count("[PASS]") == 3


@pytest.mark.parametrize("forced, detail", [
    ([240], "transform 3 of 10: inner Wald matrix singular on 1 of 20 draws"),
    ([240, 259], "transform 3 of 10: inner Wald matrix singular on 2 of 20 draws"),
    ([0, 199, 259], "plain system: inner Wald matrix singular on 2 of 200 draws"),
])
def test_invariance_names_the_first_singular_segment(forced, detail, monkeypatch):
    # the joined stack holds the plain system's 200 draws, then each
    # transform's 20: draws 240 and 259 open and close transform 3's segment
    real = verify._spectra

    def forcing(*args):
        W, singular, eigs = real(*args)
        assert singular.size == 400 and not singular.any()
        singular[forced] = True
        W[forced] = np.nan
        return W, singular, eigs

    monkeypatch.setattr(verify, "_spectra", forcing)
    result = verify.s_invariance_check(product_pairs_system())
    assert (result.passed, result.detail) == (False, detail)


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
    constants = PolyMatrix([[MultiPoly.constant(v, 0) for v in row] for row in G_x])
    assert np.array_equal(verify._float_gug(constants.evaluate_ints([]), U), want)


def _scalar_path_gug(G_x, U):
    """verify's B(x) as formed from the Scalars of ``PolyMatrix.evaluate``:
    each grid re-read into ints over the lcm of its own denominators."""
    def int_parts(grid):
        c = math.lcm(*(f.denominator for row in grid for v in row for f in (v.a, v.b)))
        return *(np.array([[getattr(v, part).numerator * (c // getattr(v, part).denominator)
                            for v in row] for row in grid], dtype=object) for part in "ab"), c

    d = next((v.d for row in (*G_x, *U.entries) for v in row if v.d), 0)
    (ga, gb, c_x), (ua, ub, c_u) = int_parts(G_x), int_parts(U.entries)
    gua, gub = ga @ ua + d * gb @ ub, ga @ ub + gb @ ua
    A, B = gua @ ga.T + d * gub @ gb.T, gua @ gb.T + gub @ ga.T
    den = c_x * c_x * c_u
    return (A / den + B / den * math.sqrt(d)).astype(float)


@pytest.mark.parametrize("surd_g", [False, True])
@pytest.mark.parametrize("surd_u", [False, True])
def test_integer_b_matches_scalar_path_bits(surd_g, surd_u):
    # G(x) straight from the evaluator's numerators, against the Scalars of
    # PolyMatrix.evaluate, at the points and covariances verify draws
    system = product_pairs_system()
    if surd_g:
        names = ("x", "y", "z", "w")
        g = tuple(parse_polynomial(text, names) for text in
                  ("sqrt(2)*x*y + z^2", "x*w - 1/3*sqrt(2)*y^2", "y*z + 2*w^3 + sqrt(2)*x"))
        system = RestrictionSystem(names, (0, 0, 0, 0), g)
    G = jacobian(recenter(system))
    rng = random.Random(2718)
    for _ in range(40):
        U = surd_covariance() if surd_u else Covariance.random_spd(system.p, rng)
        point = [verify._random_box_fraction(rng) for _ in range(system.p)]
        got = verify._float_gug(G.evaluate_ints(point), U)
        assert got.tobytes() == _scalar_path_gug(G.evaluate(point), U).tobytes()
