"""The names, signatures, options and files that the waldbench harness uses.

waldbench drives waldrates from outside: it calls the CLI, the vanishing
experiment and the demo systems, and it traces public functions by name.  A
rename here would surface only as a failed benchmark run, so these tests pin
the contract at tier 1.  ``verify`` and the tests read exact a_k through the
private ray-kernel calls, whose signatures are pinned here too.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

import waldrates
from waldrates import cli, polycore, rates, restriction, simulate, verify

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {"cli": cli, "polycore": polycore, "restriction": restriction,
          "rates": rates, "simulate": simulate, "verify": verify}
TRACED_STATS = ("calls", "s", "self_s")


def _traced_functions():
    """(layer, name) of every module-level function a per_layer metric names."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = []
    for metric in bench["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in LAYERS and parts[2] in TRACED_STATS:
            names.append((parts[0], parts[1]))
    return names


def test_per_layer_metrics_name_functions():
    assert ("rates", "min_degree_generic") in _traced_functions()
    assert ("rates", "principal_minor_sum") in _traced_functions()


@pytest.mark.parametrize("layer, name", _traced_functions())
def test_traced_function_is_defined_in_its_layer(layer, name):
    # the tracer wraps only public functions whose __module__ is the layer
    fn = getattr(LAYERS[layer], name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == f"waldrates.{layer}"


def test_traced_and_counted_methods():
    assert inspect.isfunction(simulate.CompiledSystem.g_at)
    assert inspect.isfunction(simulate.CompiledSystem.jacobian_at)
    assert inspect.isfunction(polycore.MultiPoly.__mul__)


@pytest.mark.parametrize("name, params", [
    ("_ray_ring", ["G", "U", "drops"]),
    ("_ray_charpoly", ["ring", "y"]),
    ("_ray_coeffs_at", ["sums", "c", "t0"]),
    ("_ray_g_half", ["G", "drops"]),
    ("_ray_u_half", ["g_half", "U"]),
])
def test_ray_kernel_entry_points(name, params):
    # verify and the tests read exact a_k through these calls; verify and
    # min_degree_generic read G once through the G half and add each U
    assert list(inspect.signature(getattr(rates, name)).parameters) == params


def test_cli_entry_points():
    assert list(inspect.signature(cli.main).parameters) == ["argv"]
    assert list(inspect.signature(cli.parse_spec).parameters) == ["path"]


@pytest.mark.parametrize("argv", [
    ["analyze", "s.spec", "--seed", "7"],
    ["rates", "s.spec", "--samples", "2", "--seed", "7"],
    ["simulate", "s.spec", "--grid", "100,1000,10000,100000", "--reps", "2000",
     "--vhat", "exact", "--seed", "7"],
    ["simulate", "s.spec", "--vhat", "perturbed:0.5", "--seed", "7"],
    ["verify", "s.spec", "--seed", "7", "--json", "out.json"],
])
def test_cli_accepts_benchmark_argv(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_vanishing_experiment_signature_and_result():
    params = list(inspect.signature(waldrates.vanishing_rate_experiment).parameters.values())
    assert [p.name for p in params[:6]] == \
        ["sys", "U", "u_t_mode", "t_grid", "reps", "seed"]
    assert all(p.default is not inspect.Parameter.empty for p in params[6:])
    fields = {f.name for f in dataclasses.fields(waldrates.VanishingResult)}
    assert {"t_grid", "raw_medians", "beta", "m_generic", "m_at_u",
            "k_star"} <= fields


# every public name; a change here is a change of the public API
PUBLIC_NAMES = [
    "CharPolyCoeffs", "CholeskyFailureError", "CompiledSystem", "Covariance",
    "EchelonForm", "EstimatorModel", "ExcessiveSingularDrawsError",
    "FieldMismatchError", "FraldVerdict", "GenericCovarianceError", "INF_DEGREE",
    "JacobiConvergenceError", "MultiPoly", "NegativeTDegreeError", "NonSpdError",
    "NullViolatedError", "PolyMatrix", "PolyParseError", "QTooLargeError",
    "RankDeficientError", "RateReport", "RestrictionSystem", "Scalar", "SimResult",
    "SingularMetricError", "VanishingResult", "build_B", "charpoly_coeffs",
    "chi_square_median", "divergence_experiment", "draw_estimate",
    "echelonize", "fit_loglog_slope", "frald_check", "jacobian", "linear_system",
    "min_degree_generic", "parse_polynomial", "parse_scalar", "poly_rank", "polycore",
    "principal_minor_sum", "product_pairs_system", "rate_report", "rates", "recenter",
    "restriction", "simulate", "surd_covariance",
    "symmetric_eigenvalues", "systems", "t_graded_coeffs", "transform",
    "vanishing_rate_experiment", "wald_closed_form_product_pairs", "wald_statistic",
]


def test_public_exports_are_pinned():
    assert sorted(waldrates.__all__) == PUBLIC_NAMES


def test_demo_systems_and_fixtures():
    assert waldrates.product_pairs_system().q == 3
    assert waldrates.surd_covariance().p == 4
    for name in ("product_pairs.spec", "linear_q2.spec"):
        assert (ROOT / "fixtures" / name).is_file()
