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

from .rates import Covariance, _ray_charpoly, _ray_coeffs_at, _ray_g_half, _ray_u_half
from .restriction import RestrictionSystem, jacobian, recenter, transform
from .simulate import (
    CompiledSystem,
    SingularMetricError,
    _EPS,
    _inner,
    _singular_text,
    _spectra,
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


def _elementary_symmetric(values) -> list[float]:
    # e_0..e_n via the Newton-free product expansion: coefficients of prod (1 + v t)
    coeffs = [1.0] + [0.0] * len(values)
    for m, v in enumerate(values, 1):
        for k in range(m, 0, -1):
            coeffs[k] += v * coeffs[k - 1]
    return coeffs


def _random_box_fraction(rng: random.Random) -> Fraction:
    # magnitude in [1/2, 2], random sign: keeps all matrices O(1)-conditioned
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.randint(50, 200), 100)


def _float_gug(G_x: tuple, U: Covariance) -> np.ndarray:
    """G_x U G_x' for G_x the (rows of (A, B, d), den) of
    ``PolyMatrix.evaluate_ints``, summed in Python ints as A + B*sqrt(d) over
    one denominator and rounded as ``float(Scalar)`` rounds A/den +
    (B/den)*sqrt(d): an int / int quotient is correctly rounded, so the bits
    do not depend on which common denominator the numerators are over."""
    rows, c_x = G_x
    d = next((e[2] for row in rows for e in row if e[1]),
             next((v.d for row in U.entries for v in row if v.d), 0))
    ga, gb = (np.array([[e[part] for e in row] for row in rows], dtype=object) for part in (0, 1))
    u_a, u_b, c_u = U.int_parts()
    ua, ub = np.array(u_a, dtype=object), np.array(u_b, dtype=object)
    gua, gub = ga @ ua + d * gb @ ub, ga @ ub + gb @ ua
    A, B = gua @ ga.T + d * gub @ gb.T, gua @ gb.T + gub @ ga.T
    den = c_x * c_x * c_u
    return (A / den + B / den * math.sqrt(d)).astype(float)


def symmetric_polynomial_check(system: RestrictionSystem, seed: int = 42) -> CheckResult:
    """P_k(eigenvalues of B) must equal (-1)^k a_k at random points/covariances.

    a_k comes from the integer ray kernel that writes every report: the
    point x is t0*y with y = 100*x an integer ray and t0 = 1/100, and
    ``rates._ray_charpoly`` gives a_k(x) exactly.  B(x) is formed apart from
    it, from G evaluated exactly at x into integer numerators over one
    denominator, and the scalar Jacobi solver gives its eigenvalues.

    The deviation |P_k - (-1)^k a_k| is relative to max(|P_k|, |a_k|), and
    passes at rtol = 1e-8.  Where that exceeds rtol but the deviation is
    within the rounding floor floor_k = k C(q, k) q eps max|lambda|^k, it is
    taken relative to floor_k / rtol instead, so it reads at most rtol: each
    eigenvalue carries an absolute error of about q eps max|lambda|, and P_k
    sums C(q, k) products of k of them.  So an exact a_k = 0 at a singular
    B(x), against a P_k of rounding noise, passes, and a deviation within
    rtol reads as before.
    """
    n_points, rtol = 20, 1e-8
    rng = random.Random(seed)
    G = jacobian(recenter(system))
    g_half = _ray_g_half(G, (0,) * system.q)
    t0 = Fraction(1, 100)
    worst = 0.0
    for _ in range(n_points):
        U = Covariance.random_spd(system.p, rng)
        point = [_random_box_fraction(rng) for _ in range(system.p)]
        y = [int(x / t0) for x in point]
        a = _ray_coeffs_at(*_ray_charpoly(_ray_u_half(g_half, U), y), t0)
        lam = symmetric_eigenvalues(_float_gug(G.evaluate_ints(point), U)).tolist()
        size = max(map(abs, lam))
        for k, pk in enumerate(_elementary_symmetric(lam)[1:], 1):
            ak = (-1) ** k * float(a[k - 1])
            dev = abs(pk - ak)
            rel = dev / max(abs(pk), abs(ak), 1e-300)
            floor = k * math.comb(system.q, k) * system.q * _EPS * size**k
            if rel > rtol and dev <= floor:
                rel = rtol * dev / floor
            worst = max(worst, rel)
    passed = worst <= rtol
    return CheckResult(
        name="symmetric-polynomial identity",
        passed=passed,
        detail=f"worst relative deviation {worst:.3e} over {n_points} points (tol {rtol:g})",
    )


def closed_form_check(system: RestrictionSystem, seed: int = 42) -> CheckResult:
    """General Wald path against the product-pairs closed form (identity V),
    at 1000 draws, to a relative deviation of 1e-10."""
    if not is_product_pairs(system):
        return CheckResult(
            name="closed-form oracle",
            passed=True,
            detail="skipped: restrictions are not the product-pairs triple",
            skipped=True,
        )
    ndraws, rtol = 1000, 1e-10
    rng = np.random.default_rng([seed, 2718])
    thetas = rng.uniform(0.5, 2.0, size=(ndraws, 4)) * rng.choice([-1.0, 1.0], size=(ndraws, 4))
    Ts = rng.integers(1, 10_000, size=ndraws)
    try:
        # one stack through the kernel: W/T per draw, times that draw's T
        w_general = wald_statistic(thetas, np.eye(4), CompiledSystem(system), 1) * Ts
    except SingularMetricError as exc:
        return CheckResult(name="closed-form oracle", passed=False, detail=str(exc))
    w_closed = wald_closed_form_product_pairs(thetas, Ts)
    worst = float(np.max(np.abs(w_general - w_closed)
                         / np.maximum(np.abs(w_closed), 1e-300)))
    return CheckResult(
        name="closed-form oracle",
        passed=worst <= rtol,
        detail=f"worst relative deviation {worst:.3e} over {ndraws} draws (tol {rtol:g})",
    )


def s_invariance_check(system: RestrictionSystem, seed: int = 42) -> CheckResult:
    """W computed from S @ g must equal W from g pathwise at fixed draws, to a
    relative deviation of 1e-8, for 10 random transforms S of 20 draws each.

    Each system forms (A, g) at its own draws: the plain system at every
    transform's draws in one stack, then each transform at its ndraws.  One
    Jacobi runs on the joined stacks; the kernel gives a draw the same bits
    inside any stack, so each W is the one its system alone would give.  A
    singular inner matrix fails the check, naming the first system that has
    one and the count of its draws.
    """
    n_transforms, ndraws, rtol = 10, 20, 1e-8
    rng = random.Random(seed)
    nprng = np.random.default_rng([seed, 31415])
    q, p = system.q, system.p
    shape = (n_transforms, ndraws, p)
    thetas = nprng.uniform(0.5, 2.0, size=shape) * nprng.choice([-1.0, 1.0], size=shape)
    A = nprng.standard_normal(shape + (p,))
    covs = A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(p)
    transforms = []
    while len(transforms) < n_transforms:
        S = [[_random_box_fraction(rng) for _ in range(q)] for _ in range(q)]
        if abs(np.linalg.det(np.array(S, dtype=float))) > 1e-3:
            transforms.append(CompiledSystem(transform(system, S)))
    labels = ["plain system"] + [f"transform {k} of {n_transforms}"
                                 for k in range(1, n_transforms + 1)]
    draws = [(thetas.reshape(-1, p), covs.reshape(-1, p, p)), *zip(thetas, covs)]
    inner, g = zip(*(_inner(comp, th, cv, True) for comp, (th, cv)
                     in zip([CompiledSystem(system), *transforms], draws)))
    W, singular, _ = _spectra(np.concatenate(inner), (np.ones(q),), 100, np.concatenate(g))
    bounds = np.cumsum([0, *map(len, g)])
    for label, lo, hi in zip(labels, bounds, bounds[1:]):
        if singular[lo:hi].any():
            return CheckResult(name="transformation invariance", passed=False,
                               detail=f"{label}: {_singular_text(singular[lo:hi])}")
    w_plain, w_trans = np.split(W, [n_transforms * ndraws])
    worst = float(np.max(np.abs(w_plain - w_trans) / np.maximum(np.abs(w_plain), 1e-300)))
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
