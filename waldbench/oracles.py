"""Independent answer checks for the benchmark's reports.

Nothing here imports waldrates.  The Monte Carlo checks redraw every estimate
from the documented estimator model -- a numpy substream per (seed, T, rep),
theta_hat = theta_bar + L z / sqrt(T) -- and recompute the Wald statistic from
closed forms or plain numpy linear algebra.  The symbolic checks use the
planted verdicts of ``specgen`` and sympy's characteristic polynomial.

Every check returns a list of problems; an empty list means the answer agrees.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

MEDIAN_RTOL = 1e-9
EPS = float(np.finfo(float).eps)
SLOPE_TOLERANCE = 0.15
CHI2_SIGMAS = 5.0
CHECK_NAMES = {"symmetric-polynomial identity", "closed-form oracle",
               "transformation invariance"}
# rank r, q and beta_bar of the fixture specs, from the paper's worked examples
FIXTURES = {
    "product_pairs": (2, 3, "1"),
    "product_pairs_cov98": (2, 3, "2"),
    "linear_q2": (2, 2, "0"),
}


def _substream(seed: int, T: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, T, rep])


def _theta_bar(report: dict) -> np.ndarray:
    return np.array([float(Fraction(t)) for t in report["spec"]["theta_bar"]])


def _identity_covariance(report: dict) -> list[str]:
    if report["spec"]["V"] != "identity":
        return ["oracle needs the identity covariance"]
    return []


def _median_problems(T: int, got: float, W: np.ndarray, inner: np.ndarray) -> list[str]:
    """The report's median W against the oracle's draws.

    Each oracle value W_i stands for the interval W_i (1 +- r_i) with
    r_i = max(1e-9, eps * cond(G V G')_i): waldrates solves through a Cholesky
    factor and documents that its float accuracy degrades in proportion to the
    condition number, which near the null variety grows like a power of T.
    The median is monotone in every value, so the report's median must lie
    between the medians of the interval ends.  One badly conditioned draw can
    swap sides of the median, which is why a single tolerance on the median
    would not do.  A draw singular to working precision may be skipped, so it
    stands for the whole line.
    """
    error = EPS * np.linalg.cond(inner)
    r = np.maximum(MEDIAN_RTOL, error)
    singular = error >= 1.0
    lo = float(np.median(np.where(singular, -np.inf, W * (1.0 - r))))
    hi = float(np.median(np.where(singular, np.inf, W * (1.0 + r))))
    if not lo <= got <= hi:
        return [f"T={T}: median W {got!r} outside the oracle's [{lo!r}, {hi!r}]"]
    return []


def _divergence_problems(sim: dict, medians: list[float], singular_limit: int) -> list[str]:
    """Slope, bound violations, and singular draws.

    A draw may be reported singular only where the inner matrix is singular to
    working precision (eps * cond >= 1), so the count must not exceed the
    number of such draws the oracle finds; waldrates reports these draws
    rather than regularising them, by design.
    """
    problems = []
    slope = float(np.polyfit(np.log(sim["grid"]), np.log(medians), 1)[0])
    if abs(slope - 1.0) > SLOPE_TOLERANCE:
        problems.append(f"slope {slope:.4f} not within {SLOPE_TOLERANCE} of 1")
    if sim["bound_violations"]:
        problems.append(f"{sim['bound_violations']} bound violations")
    singular = round(sim["singular_fraction"] * len(sim["grid"]) * sim["reps"])
    if singular > singular_limit:
        problems.append(f"{singular} singular draws, but only {singular_limit} inner "
                        "matrices are singular to working precision")
    return problems


def _numerically_singular(inner: np.ndarray) -> int:
    """Draws whose inner matrix is singular to working precision."""
    return int((EPS * np.linalg.cond(inner) >= 1.0).sum())


def _product_pairs(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = (xy, xw, yz) and its Jacobian for rows of theta = (x, y, z, w)."""
    x, y, z, w = theta.T
    zero = np.zeros_like(x)
    g = np.stack([x * y, x * w, y * z], axis=-1)
    G = np.stack([np.stack([y, x, zero, zero], axis=-1),
                  np.stack([w, zero, zero, x], axis=-1),
                  np.stack([zero, z, y, zero], axis=-1)], axis=-2)
    return g, G


def pinned(report: dict, seed: int) -> list[str]:
    """Closed-form W on the same draws; slope, violations and singular draws."""
    problems = _identity_covariance(report)
    sim = report["sim"]
    theta_bar = _theta_bar(report)
    medians, singular_limit = [], 0
    for T, got in zip(sim["grid"], sim["median_w"]):
        z = np.array([_substream(seed, T, rep).standard_normal(theta_bar.size)
                      for rep in range(sim["reps"])])
        theta = theta_bar + z / math.sqrt(T)
        x, y, zz, w = theta.T
        W = T * (w * w + y * y) * (x * x + zz * zz) / (w * w + x * x + y * y + zz * zz)
        _, G = _product_pairs(theta)
        inner = G @ G.transpose(0, 2, 1)
        problems += _median_problems(T, got, W, inner)
        medians.append(float(np.median(W)))
        singular_limit += _numerically_singular(inner)
    return problems + _divergence_problems(sim, medians, singular_limit)


def perturbed(report: dict, seed: int, scale: float = 0.5) -> list[str]:
    """Product pairs with V-hat = I + scale T^{-1/2} W, redrawn until SPD."""
    problems = _identity_covariance(report)
    sim = report["sim"]
    theta_bar = _theta_bar(report)
    p = theta_bar.size
    medians, singular_limit = [], 0
    for T, got in zip(sim["grid"], sim["median_w"]):
        values, inner = [], []
        for rep in range(sim["reps"]):
            rng = _substream(seed, T, rep)
            theta = theta_bar + rng.standard_normal(p) / math.sqrt(T)
            for _ in range(10):
                W = rng.standard_normal((p, p))
                W = (W + W.T) / 2.0
                V_hat = np.eye(p) + scale / math.sqrt(T) * W
                try:
                    np.linalg.cholesky(V_hat)
                    break
                except np.linalg.LinAlgError:
                    continue
            else:
                problems.append(f"T={T} rep={rep}: no SPD V-hat in 10 draws")
                continue
            g, G = _product_pairs(theta[None, :])
            A = G[0] @ V_hat @ G[0].T
            values.append(T * g[0] @ np.linalg.solve(A, g[0]))
            inner.append(A)
        inner = np.array(inner)
        problems += _median_problems(T, got, np.array(values), inner)
        medians.append(float(np.median(values)))
        singular_limit += _numerically_singular(inner)
    return problems + _divergence_problems(sim, medians, singular_limit)


def linear_q2(report: dict, seed: int) -> list[str]:
    """W = T ||theta_hat||^2 per draw, and the pooled median against chi2(2)."""
    problems = _identity_covariance(report)
    sim = report["sim"]
    theta_bar = _theta_bar(report)
    pooled = []
    for T, got in zip(sim["grid"], sim["median_w"]):
        theta = np.array([theta_bar + _substream(seed, T, rep).standard_normal(2)
                          / math.sqrt(T) for rep in range(sim["reps"])])
        W = T * (theta * theta).sum(axis=1)
        problems += _median_problems(T, got, W, np.broadcast_to(np.eye(2), (W.size, 2, 2)))
        pooled.append(W)
    values = np.concatenate(pooled)
    # chi2(2) is exponential with mean 2: median 2 ln 2, density 1/4 there,
    # so the sample median has standard error 1 / (2 * 1/4 * sqrt(n))
    target = 2.0 * math.log(2.0)
    stderr = 2.0 / math.sqrt(values.size)
    got = float(np.median(values))
    if abs(got - target) > CHI2_SIGMAS * stderr:
        problems.append(f"pooled median {got:.4f} vs chi2(2) median {target:.4f} "
                        f"(> {CHI2_SIGMAS:g} standard errors {stderr:.4f})")
    return problems


def vanishing(record: dict) -> list[str]:
    """beta_3 = 2, and T^2 lambda_3 decreases along the grid."""
    problems = []
    if record["beta"][2] != "2":
        problems.append(f"beta = {record['beta']}, want beta[2] = 2")
    scaled = [T * T * row[2] for T, row in zip(record["t_grid"], record["raw_medians"])]
    if any(b >= a for a, b in zip(scaled, scaled[1:])):
        problems.append(f"T^2 lambda_3 = {scaled} is not decreasing")
    return problems


def verify(report: dict) -> list[str]:
    checks = {c["name"]: c for c in report["checks"]}
    problems = []
    if set(checks) != CHECK_NAMES:
        problems.append(f"checks {sorted(checks)} != {sorted(CHECK_NAMES)}")
    problems += [f"check {name!r} skipped or failed" for name, c in checks.items()
                 if c["skipped"] or not c["passed"]]
    if report["all_passed"] is not True:
        problems.append("all_passed is not true")
    return problems


def frald(report: dict, expected_rank: int, q: int) -> list[str]:
    """The FRALD-T verdict and rank against the planted or known ones."""
    got = report["frald"]
    problems = []
    if got["rank"] != expected_rank or got["q"] != q:
        problems.append(f"rank {got['rank']} of q {got['q']}, want {expected_rank} of {q}")
    if got["frald_t_holds"] != (expected_rank == q):
        problems.append(f"frald_t_holds {got['frald_t_holds']}, want {expected_rank == q}")
    return problems


# -- sympy charpoly on a random ray ---------------------------------------------


def read_spec(text: str) -> dict:
    """Minimal independent reader for the spec-file directives."""
    spec = {"g": [], "V": []}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key in ("g", "V"):
            spec[key].append(rest.strip())
        else:
            spec[key] = rest.strip()
    return spec


def ray_min_degrees(spec_text: str, ray_seed: str) -> list:
    """Minimal degrees m_k of det(lambda I - G V G') on a random ray.

    G is the Jacobian at theta_bar + t*y for a random rational y.  The lowest
    t-degree of each coefficient is m_k unless y is a root of the coefficient's
    lowest homogeneous part, which a random y from a large range avoids.
    """
    import sympy
    from sympy.polys.matrices import DomainMatrix

    spec = read_spec(spec_text)
    names = spec["vars"].split()
    syms = sympy.symbols(names)
    local = dict(zip(names, syms))
    theta_bar = [sympy.sympify(x) for x in spec["theta_bar"].split()]
    g = sympy.Matrix([sympy.sympify(e.replace("^", "**"), locals=local)
                      for e in spec["g"]])
    if spec["V"] == ["identity"]:
        V = sympy.eye(len(names))
    else:
        V = sympy.Matrix([[sympy.sympify(x) for x in row.split()] for row in spec["V"]])
    t = sympy.Symbol("t")
    rng = random.Random(ray_seed)
    y = [sympy.Rational(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))
         for _ in names]
    ray = {s: b + t * c for s, b, c in zip(syms, theta_bar, y)}
    J = g.jacobian(syms).subs(ray, simultaneous=True)
    B = DomainMatrix.from_Matrix((J * V * J.T).expand())
    degrees = []
    for coeff in B.charpoly()[1:]:
        poly = sympy.Poly(B.domain.to_sympy(coeff), t)
        degrees.append("inf" if poly.is_zero else min(m[0] for m in poly.monoms()))
    return degrees


def rates(report: dict, spec_text: str, expected_rank: int, q: int,
          ray_seed: str, beta_bar: str | None = None) -> list[str]:
    problems = frald(report, expected_rank, q)
    want = ray_min_degrees(spec_text, ray_seed)
    if report["rates"]["m_at_v"] != want:
        problems.append(f"m_at_v {report['rates']['m_at_v']} != sympy ray degrees {want}")
    if beta_bar is not None and report["rates"]["beta_bar"] != beta_bar:
        problems.append(f"beta_bar {report['rates']['beta_bar']} != {beta_bar}")
    return problems


def band_3b(report: dict) -> str:
    """Criterion 3b: median W/T in [0.5, 2] for every T >= 1000.  Recorded only."""
    sim = report["sim"]
    ratios = {T: r for T, r in zip(sim["grid"], sim["median_w_over_t"]) if T >= 1000}
    inside = all(0.5 <= r <= 2.0 for r in ratios.values())
    return ("inside" if inside else "outside") + " band [0.5, 2]: " + ", ".join(
        f"T={T} {r:.5f}" for T, r in ratios.items())
