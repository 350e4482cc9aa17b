"""Argument validation of the library: each check raises its exception, with
its message, before any work."""

import numpy as np
import pytest

from waldrates.polycore import MultiPoly
from waldrates.rates import (
    Covariance,
    _ray_g_half,
    _ray_u_half,
    charpoly_coeffs,
    min_degree_generic,
    principal_minor_sum,
    t_graded_coeffs,
)
from waldrates.restriction import (
    PolyMatrix,
    RestrictionSystem,
    echelonize,
    jacobian,
    poly_rank,
    recenter,
)
from waldrates.simulate import (
    EstimatorModel,
    chi_square_median,
    draw_estimate,
    symmetric_eigenvalues,
    vanishing_rate_experiment,
)
from waldrates.systems import product_pairs_system, surd_covariance

X = MultiPoly.variable(0, 1)


def _pp_jacobian():
    return jacobian(recenter(product_pairs_system()))


CASES = [
    # restriction
    ("theta length", lambda: RestrictionSystem(["x"], [0, 0], [X]),
     ValueError, "theta_bar length must equal the number of variables"),
    ("q > p", lambda: RestrictionSystem(["x"], [0], [X, X]),
     ValueError, "more restrictions (2) than parameters (1)"),
    ("nvars", lambda: RestrictionSystem(["x", "y"], [0, 0], [X]),
     ValueError, "every restriction must use all declared variables"),
    ("ragged rows", lambda: PolyMatrix([[X, X], [X]]), ValueError, "ragged rows in PolyMatrix"),
    ("non-MultiPoly entry", lambda: PolyMatrix([[X, 1]]),
     TypeError, "PolyMatrix entries must be MultiPoly"),
    ("mixed nvars", lambda: PolyMatrix([[X, MultiPoly.variable(0, 2)]]),
     ValueError, "PolyMatrix entries must share nvars"),
    ("matmul dimensions", lambda: PolyMatrix([[X]]) @ PolyMatrix([[X], [X]]),
     ValueError, "dimension mismatch in matrix product"),
    ("evaluate point length", lambda: PolyMatrix([[X]]).evaluate([1, 2]),
     ValueError, "point has 2 entries, expected 1"),
    ("poly_rank trials", lambda: poly_rank(PolyMatrix([[X]]), trials=0),
     ValueError, "trials must be >= 1"),
    # polycore
    ("nvars < 0", lambda: MultiPoly(-1), ValueError, "nvars must be nonnegative"),
    ("bad monomial", lambda: MultiPoly(2, {(1,): 1}),
     ValueError, "bad monomial (1,) for 2 variables"),
    ("variable index", lambda: MultiPoly.variable(2, 2),
     IndexError, "variable index 2 out of range for 2 variables"),
    ("negative power", lambda: X ** -1,
     ValueError, "polynomial powers must be nonnegative integers"),
    ("to_text names", lambda: X.to_text(["x", "y"]),
     ValueError, "var_names length must equal nvars"),
    # rates
    ("covariance not square", lambda: Covariance([[1, 0]]),
     ValueError, "covariance matrix must be square"),
    ("minor sum of a non-square B", lambda: principal_minor_sum(PolyMatrix([[X, X]]), 1),
     ValueError, "B must be square"),
    ("minor size", lambda: principal_minor_sum(PolyMatrix([[X]]), 2),
     ValueError, "minor size out of range"),
    ("charpoly of a non-square B", lambda: charpoly_coeffs(PolyMatrix([[X, X]])),
     ValueError, "B must be square"),
    ("ray columns", lambda: _ray_u_half(_ray_g_half(_pp_jacobian(), (0, 0, 0)),
                                        Covariance.identity(3)),
     ValueError, "G has 4 columns but U is 3 x 3"),
    ("graded rows", lambda: t_graded_coeffs(PolyMatrix(_pp_jacobian().entries[:2]),
                                            Covariance.identity(4),
                                            echelonize(_pp_jacobian())),
     ValueError, "G and echelon form disagree on the number of rows"),
    ("generic samples", lambda: min_degree_generic(_pp_jacobian(), samples=0),
     ValueError, "samples must be >= 1"),
    # simulate
    ("model V shape", lambda: EstimatorModel(np.zeros(2), np.eye(3)),
     ValueError, "V must be p x p for a p-dimensional theta_bar"),
    ("vhat mode", lambda: EstimatorModel(np.zeros(2), np.eye(2), "wobbly"),
     ValueError, "unknown vhat_mode 'wobbly'"),
    ("draw T", lambda: draw_estimate(EstimatorModel(np.zeros(2), np.eye(2)), 0,
                                     np.random.default_rng(0)),
     ValueError, "T must be >= 1"),
    ("vanishing grid", lambda: vanishing_rate_experiment(
        product_pairs_system(), surd_covariance(), "exact", [0, 10, 100, 1000], 200, 1),
     ValueError, "T must be >= 1"),
    ("vanishing mode", lambda: vanishing_rate_experiment(
        product_pairs_system(), surd_covariance(), "wobbly", [1, 10, 100, 1000], 200, 1),
     ValueError, "unknown u_t_mode 'wobbly'"),
    ("eigenvalues of a non-square matrix", lambda: symmetric_eigenvalues(np.ones((2, 3))),
     ValueError, "matrix must be square"),
    ("chi-square dof", lambda: chi_square_median(0),
     ValueError, "degrees of freedom must be >= 1"),
]


@pytest.mark.parametrize("call, exc, message", [pytest.param(*case[1:], id=case[0])
                                                 for case in CASES])
def test_invalid_arguments_raise(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert message in str(err.value)
