"""Cross-module consistency checks runnable against any restriction system.

Each check pits two independently computed quantities against each other:
numeric eigenvalues against the exact characteristic coefficients of the
integer ray kernel that writes every report, the general Wald path against a
closed form, and the statistic before and after a linear transformation of
the restrictions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rates import Covariance, _ray_charpoly, _ray_coeffs_at, _ray_g_half, _ray_u_half, _scaled
from .restriction import RestrictionSystem, jacobian, recenter, transform
from .simulate import (
    compile_system,
    symmetric_eigenvalues,
    wald_closed_form_product_pairs,
    wald_statistic,
)
from .systems import is_product_pairs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False


def _elementary_symmetric(values: np.ndarray, k: int) -> float:
    # e_k via the Newton-free product expansion: coefficients of prod (1 + v t)
    coeffs = np.zeros(values.size + 1)
    coeffs[0] = 1.0
    for v in values:
        coeffs[1:] = coeffs[1:] + v * coeffs[:-1]
    return float(coeffs[k])


def _random_box_fraction(rng: random.Random) -> Fraction:
    # magnitude in [1/2, 2], random sign: keeps all matrices O(1)-conditioned
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.randint(50, 200), 100)


def _float_gug(G_x, U: Covariance) -> np.ndarray:
    """G_x U G_x' for an exact G_x, summed in Python ints as A + B*sqrt(d)
    over one denominator and rounded as ``float(Scalar)`` rounds
    A/den + (B/den)*sqrt(d): an int / int quotient is correctly rounded."""
    d = next((v.d for row in (*G_x, *U.entries) for v in row if v.d), 0)
    (ga, gb, c_x), (ua, ub, c_u) = _int_parts(G_x), _int_parts(U.entries)
    gua, gub = ga @ ua + d * gb @ ub, ga @ ub + gb @ ua
    A, B = gua @ ga.T + d * gub @ gb.T, gua @ gb.T + gub @ ga.T
    den = c_x * c_x * c_u
    return (A / den + B / den * math.sqrt(d)).astype(float)


def _int_parts(grid) -> tuple:
    """(c * the a parts, c * the b parts, c) for c the lcm of grid's denominators."""
    c = math.lcm(*(f.denominator for row in grid for v in row for f in (v.a, v.b)))
    return *(np.array([[_scaled(getattr(v, part), c) for v in row] for row in grid],
                      dtype=object) for part in "ab"), c


def symmetric_polynomial_check(system: RestrictionSystem, npoints: int = 20,
                               seed: int = 42, rtol: float = 1e-8) -> CheckResult:
    """P_k(eigenvalues of B) must equal (-1)^k a_k at random points/covariances.

    a_k comes from the integer ray kernel that writes every report: the
    point x is t0*y with y = 100*x an integer ray and t0 = 1/100, and
    ``rates._ray_charpoly`` gives a_k(x) exactly.  B(x) is formed apart from
    it, from G evaluated exactly at x, and the Jacobi solver gives its
    eigenvalues.
    """
    rng = random.Random(seed)
    G = jacobian(recenter(system))
    g_half = _ray_g_half(G, (0,) * system.q)
    t0 = Fraction(1, 100)
    worst = 0.0
    for _ in range(npoints):
        U = Covariance.random_spd(system.p, rng)
        point = [_random_box_fraction(rng) for _ in range(system.p)]
        y = [int(x / t0) for x in point]
        a = _ray_coeffs_at(*_ray_charpoly(_ray_u_half(g_half, U), y), t0)
        lam = symmetric_eigenvalues(_float_gug(G.evaluate(point), U))
        for k in range(1, system.q + 1):
            pk = _elementary_symmetric(lam, k)
            ak = (-1) ** k * float(a[k - 1])
            rel = abs(pk - ak) / max(abs(pk), abs(ak), 1e-300)
            worst = max(worst, rel)
    passed = worst <= rtol
    return CheckResult(
        name="symmetric-polynomial identity",
        passed=passed,
        detail=f"worst relative deviation {worst:.3e} over {npoints} points (tol {rtol:g})",
    )


def closed_form_check(system: RestrictionSystem, ndraws: int = 1000,
                      seed: int = 42, rtol: float = 1e-10) -> CheckResult:
    """General Wald path against the product-pairs closed form (identity V)."""
    if not is_product_pairs(system):
        return CheckResult(
            name="closed-form oracle",
            passed=True,
            detail="skipped: restrictions are not the product-pairs triple",
            skipped=True,
        )
    rng = np.random.default_rng([seed, 2718])
    thetas = np.empty((ndraws, 4))
    Ts = np.empty(ndraws, dtype=np.int64)
    for i in range(ndraws):
        thetas[i] = rng.uniform(0.5, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        Ts[i] = rng.integers(1, 10_000)
    # one stack through the kernel: W/T per draw, times that draw's T
    w_general = wald_statistic(thetas, np.eye(4), compile_system(system), 1) * Ts
    w_closed = np.array([wald_closed_form_product_pairs(theta, int(T))
                         for theta, T in zip(thetas, Ts)])
    worst = float(np.max(np.abs(w_general - w_closed)
                         / np.maximum(np.abs(w_closed), 1e-300)))
    return CheckResult(
        name="closed-form oracle",
        passed=worst <= rtol,
        detail=f"worst relative deviation {worst:.3e} over {ndraws} draws (tol {rtol:g})",
    )


def s_invariance_check(system: RestrictionSystem, n_transforms: int = 10,
                       ndraws: int = 20, seed: int = 42,
                       rtol: float = 1e-8) -> CheckResult:
    """W computed from S @ g must equal W from g pathwise at fixed draws.

    The plain W of every transform's draws comes from one stack: the kernel
    gives a draw the same bits alone as inside any stack.
    """
    rng = random.Random(seed)
    nprng = np.random.default_rng([seed, 31415])
    q, p = system.q, system.p
    thetas = np.empty((n_transforms, ndraws, p))
    covs = np.empty((n_transforms, ndraws, p, p))
    w_trans = []
    for k in range(n_transforms):
        while True:
            S = [[_random_box_fraction(rng) for _ in range(q)] for _ in range(q)]
            if abs(np.linalg.det(np.array(S, dtype=float))) > 1e-3:
                break
        comp_s = compile_system(transform(system, S))
        for i in range(ndraws):
            thetas[k, i] = nprng.uniform(0.5, 2.0, size=p) * nprng.choice([-1.0, 1.0], size=p)
            A = nprng.standard_normal((p, p))
            covs[k, i] = A @ A.T + 0.5 * np.eye(p)
        w_trans.append(wald_statistic(thetas[k], covs[k], comp_s, 100))
    w_plain = wald_statistic(thetas.reshape(-1, p), covs.reshape(-1, p, p),
                             compile_system(system), 100)
    worst = float(np.max(np.abs(w_plain - np.concatenate(w_trans))
                         / np.maximum(np.abs(w_plain), 1e-300)))
    passed = worst <= rtol
    return CheckResult(
        name="transformation invariance",
        passed=passed,
        detail=f"worst relative deviation {worst:.3e} over "
               f"{n_transforms}x{ndraws} draws (tol {rtol:g})",
    )


def run_all(system: RestrictionSystem, seed: int = 42) -> list[CheckResult]:
    return [
        symmetric_polynomial_check(system, seed=seed),
        closed_form_check(system, seed=seed),
        s_invariance_check(system, seed=seed),
    ]
