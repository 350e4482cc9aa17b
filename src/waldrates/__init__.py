"""Symbolic-numeric toolkit for Wald tests of polynomial restrictions.

Given a vector of polynomial restrictions and a null parameter point, the
package decides the FRALD / FRALD-T property of the Jacobian, predicts the
divergence exponent of the Wald statistic from exact characteristic-polynomial
degree analysis, and verifies the prediction by seeded Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .polycore import (
    INF_DEGREE,
    FieldMismatchError,
    MultiPoly,
    PolyParseError,
    Scalar,
    parse_polynomial,
    parse_scalar,
)
from .restriction import (
    EchelonForm,
    FraldVerdict,
    NullViolatedError,
    PolyMatrix,
    RankDeficientError,
    RestrictionSystem,
    echelonize,
    frald_check,
    jacobian,
    poly_rank,
    recenter,
    transform,
)
from .rates import (
    CharPolyCoeffs,
    Covariance,
    NegativeTDegreeError,
    NonSpdError,
    QTooLargeError,
    RateReport,
    build_B,
    charpoly_coeffs,
    min_degree_generic,
    principal_minor_sum,
    rate_report,
    t_graded_coeffs,
)
from .systems import linear_system, product_pairs_system, surd_covariance

#: simulate's public names.  simulate loads numpy, and the symbolic layers
#: never need it, so it is imported on the first read of one of these names or
#: of ``waldrates.simulate`` (PEP 562).
_SIMULATE_NAMES = (
    "CholeskyFailureError", "CompiledSystem", "EstimatorModel", "ExcessiveSingularDrawsError",
    "GenericCovarianceError", "JacobiConvergenceError", "SimResult", "SingularMetricError",
    "VanishingResult", "chi_square_median", "divergence_experiment", "draw_estimate",
    "fit_loglog_slope", "symmetric_eigenvalues", "vanishing_rate_experiment",
    "wald_closed_form_product_pairs", "wald_statistic",
)

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["simulate", *_SIMULATE_NAMES])


def __getattr__(name: str):
    if name == "simulate" or name in _SIMULATE_NAMES:
        import importlib

        simulate = importlib.import_module(".simulate", __name__)
        return simulate if name == "simulate" else getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
