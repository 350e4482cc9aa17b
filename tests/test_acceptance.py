"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 3 is split: the fitted slope (3a) and the W/T median band (3b).
The band rides a knife edge: the true asymptotic median of W/T for the
product-pairs system is 1/2 - 1/(4T), marginally *below* the band's closed
left edge of 0.5, so 3b fails at the pinned seed; the analysis lives in the
decisions ledger.  It is asserted as stated rather than loosened.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammainc

from waldrates.cli import main
from waldrates.polycore import MultiPoly, parse_polynomial
from waldrates.rates import Covariance, build_B, charpoly_coeffs, rate_report
from waldrates.restriction import (
    RestrictionSystem,
    frald_check,
    jacobian,
    recenter,
    transform,
)
from waldrates.simulate import (
    CompiledSystem,
    EstimatorModel,
    divergence_experiment,
    symmetric_eigenvalues,
    vanishing_rate_experiment,
    wald_statistic,
)
from waldrates.systems import linear_system, product_pairs_system, surd_covariance

from oracle import scalar_mat_rank

from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
V4 = ["x", "y", "z", "w"]

GRID = [100, 1000, 10000, 100000]
REPS = 2000
SEED = 42


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")


@pytest.fixture(scope="module")
def pp_system():
    return product_pairs_system()


@pytest.fixture(scope="module")
def pp_experiment(pp_system):
    """The pinned divergence experiment shared by criteria 3 and 7."""
    report = rate_report(pp_system, Covariance.identity(4), rng=random.Random(SEED))
    model = EstimatorModel(np.array([0.0, 0.0, 1.0, 1.0]), np.eye(4))
    start = time.monotonic()
    result = divergence_experiment(pp_system, model, GRID, REPS, SEED, report=report)
    return result, time.monotonic() - start


def chi2_median_oracle(q: int) -> float:
    """Chi-square median by bisection on the regularized lower gamma (scipy)."""
    lo, hi = 0.0, 100.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if gammainc(q / 2.0, mid / 2.0) < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_criterion_1_echelon_golden(capsys):
    start = time.monotonic()
    out_json = Path("/tmp/waldrates_accept_analyze.json")
    code = main(["analyze", str(FIXTURES / "product_pairs.spec"),
                 "--json", str(out_json)])
    elapsed = time.monotonic() - start
    text = capsys.readouterr().out
    report = json.loads(out_json.read_text())
    ok = (
        code == 0
        and "FRALD-T: FAILS, r = 2, blocks (2 rows deg 0)(1 row deg 1)" in text
        and report["frald"]["rank"] == 2
        and report["frald"]["frald_t_holds"] is False
        and report["frald"]["blocks"] == [{"rows": 2, "degree": 0},
                                          {"rows": 1, "degree": 1}]
        and elapsed < 1.0
    )
    with capsys.disabled():
        report_line(1, ok, f"echelon blocks {report['frald']['blocks']}, "
                           f"r = {report['frald']['rank']}, {elapsed:.2f} s")
    assert ok


def test_criterion_2_degree_golden(pp_system):
    start = time.monotonic()
    G = jacobian(recenter(pp_system))

    cc_identity = charpoly_coeffs(build_B(G, Covariance.identity(4)))
    det_identity = -cc_identity.a[2]  # det(B) = (-1)^q a_q for q = 3
    printed_identity = parse_polynomial(
        "w^2*x^2*y^2 + 2*w*x^2*y^2 + x^4*y^2 + x^2*y^4"
        " + x^2*y^2*z^2 + 2*x^2*y^2*z + 2*x^2*y^2", V4
    )
    exact_match = det_identity == printed_identity and len(printed_identity.terms) == 7
    m3_match = cc_identity.m[2] == 4

    cc_surd = charpoly_coeffs(build_B(G, surd_covariance()))
    det_surd = -cc_surd.a[2]
    printed_surd = {
        (2, 2, 0, 2): 0.01, (3, 2, 0, 1): -0.19799, (2, 3, 0, 1): -0.2,
        (2, 2, 1, 1): -0.02, (4, 2, 0, 0): 0.98, (3, 3, 0, 0): 1.9799,
        (3, 2, 1, 0): 0.19799, (2, 4, 0, 0): 1.0, (2, 3, 1, 0): 0.2,
        (2, 2, 2, 0): 0.01,
    }
    surd_terms_match = set(det_surd.terms) == set(printed_surd)
    surd_coeffs_match = all(
        abs(float(det_surd.terms[mono]) - val) <= 1e-4
        for mono, val in printed_surd.items()
    )
    m3_surd_match = cc_surd.m[2] == 6
    elapsed = time.monotonic() - start

    ok = (exact_match and m3_match and surd_terms_match and surd_coeffs_match
          and m3_surd_match and elapsed < 5.0)
    report_line(2, ok, f"identity det exact ({len(det_identity.terms)} terms, "
                       f"m3 = {cc_identity.m[2]}); surd m3 = {cc_surd.m[2]}, "
                       f"coefficients within 1e-4; {elapsed:.2f} s")
    assert ok


def test_criterion_3a_divergence_slope(pp_experiment):
    result, elapsed = pp_experiment
    slope = result.median_log_slope
    ok = abs(slope - 1.0) <= 0.15 and elapsed < 120.0
    report_line("3a", ok, f"log-log slope {slope:.4f} (target 1 +- 0.15), "
                          f"{elapsed:.1f} s single-threaded")
    assert ok


def test_criterion_3b_median_band(pp_experiment):
    result, _ = pp_experiment
    ratios = {T: float(m) / T
              for T, m in zip(result.t_grid, result.median_wald) if T >= 1000}
    ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    report_line("3b", ok, "median W/T per T: "
                + ", ".join(f"{T}: {r:.5f}" for T, r in ratios.items())
                + " (band [0.5, 2])")
    assert ok, (
        f"median W/T = {ratios}: the true asymptotic median is 1/2 - 1/(4T), "
        "marginally below the band's left edge; see the decisions ledger"
    )


def test_criterion_4_chi_square_sanity():
    start = time.monotonic()
    details = []
    ok = True
    for q in (1, 2):
        system = linear_system(q)
        model = EstimatorModel(np.zeros(q), np.eye(q))
        report = rate_report(system, Covariance.identity(q), rng=random.Random(SEED))
        result = divergence_experiment(system, model, GRID, REPS, SEED, report=report)
        pooled = float(np.median(np.concatenate(
            [w[np.isfinite(w)] for w in result.wald_samples])))
        oracle = chi2_median_oracle(q)
        slope_ok = abs(result.median_log_slope) <= 0.1
        median_ok = abs(pooled - oracle) <= 0.15 * oracle
        ok = ok and slope_ok and median_ok
        details.append(f"q={q}: slope {result.median_log_slope:+.4f}, "
                       f"median {pooled:.4f} vs chi2 {oracle:.4f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report_line(4, ok, "; ".join(details) + f"; {elapsed:.1f} s")
    assert ok


def _random_quadratic_system(seed: int) -> RestrictionSystem:
    """Random degree-2 system with q=2, p=3, zero constant terms, full rank."""
    rng = random.Random(seed)
    names = ["x", "y", "z"]
    while True:
        g = []
        for _ in range(2):
            terms = {}
            for mono in [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                         (2, 0, 0), (0, 2, 0), (0, 0, 2),
                         (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
                coeff = Fraction(rng.randint(-3, 3))
                if coeff:
                    terms[mono] = coeff
            g.append(MultiPoly(3, terms))
        system = RestrictionSystem(names, [0, 0, 0], g)
        try:
            verdict = frald_check(system, rng=random.Random(seed + 1))
        except Exception:
            continue
        if verdict.rank_r == 2:
            return system


def test_criterion_5_symmetric_polynomial_identity(pp_system):
    start = time.monotonic()
    worst = 0.0
    rng = random.Random(SEED)
    for system in (pp_system, _random_quadratic_system(SEED)):
        G = jacobian(recenter(system))
        q = system.q
        for _ in range(20):
            U = Covariance.random_spd(system.p, rng)
            B = build_B(G, U)
            cc = charpoly_coeffs(B)
            point = [Fraction(rng.choice([-1, 1]) * rng.randint(50, 200), 100)
                     for _ in range(system.p)]
            B_num = np.array([[float(B.entry(i, j).evaluate(point))
                               for j in range(q)] for i in range(q)])
            lam = symmetric_eigenvalues(B_num)
            coeffs = np.zeros(q + 1)
            coeffs[0] = 1.0
            for v in lam:
                coeffs[1:] = coeffs[1:] + v * coeffs[:-1]
            for k in range(1, q + 1):
                pk = float(coeffs[k])
                ak = (-1) ** k * float(cc.a[k - 1].evaluate(point))
                worst = max(worst, abs(pk - ak) / max(abs(pk), abs(ak), 1e-300))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report_line(5, ok, f"worst relative deviation {worst:.3e} over 2x20 "
                       f"points (tol 1e-8); {elapsed:.1f} s")
    assert ok


def test_criterion_6_transformation_invariance(pp_system):
    comp = CompiledSystem(pp_system)
    rng = random.Random(SEED)
    nprng = np.random.default_rng(SEED)
    worst = 0.0
    transforms = 0
    while transforms < 10:
        S = [[Fraction(rng.randint(-300, 300), 100) for _ in range(3)]
             for _ in range(3)]
        if scalar_mat_rank(S) < 3:
            continue
        transforms += 1
        comp_s = CompiledSystem(transform(pp_system, S))
        for _ in range(100):
            theta = nprng.uniform(0.5, 2.0, 4) * nprng.choice([-1.0, 1.0], 4)
            A = nprng.standard_normal((4, 4))
            V_hat = A @ A.T + 0.5 * np.eye(4)
            T = int(nprng.integers(1, 100_000))
            w_plain = wald_statistic(theta, V_hat, comp, T)
            w_trans = wald_statistic(theta, V_hat, comp_s, T)
            worst = max(worst, abs(w_plain - w_trans) / max(abs(w_plain), 1e-300))
    ok = worst <= 1e-8
    report_line(6, ok, f"worst relative deviation {worst:.3e} over 10 "
                       f"transformations x 100 draws (tol 1e-8)")
    assert ok


def test_criterion_7_pathwise_lower_bound(pp_experiment):
    result, _ = pp_experiment
    total = len(result.t_grid) * REPS
    ok = result.bound_violations == 0 and result.singular_fraction == 0.0
    report_line(7, ok, f"W >= T^beta_bar * mu - 1e-9 on all {total} draws "
                       f"({result.bound_violations} violations)")
    assert ok


def test_criterion_8_vanishing_rates(pp_system):
    special = vanishing_rate_experiment(
        pp_system, surd_covariance(), "exact", [1000, 10000, 100000], 500, SEED
    )
    scaled = special.scaled_medians[:, 2]
    decreasing = scaled[0] > scaled[1] > scaled[2]

    generic_u = Covariance.random_spd(4, random.Random(SEED))
    generic = vanishing_rate_experiment(
        pp_system, generic_u, "exact", [1000, 10000, 100000], 500, SEED,
        check_degenerate=False,
    )
    g3 = generic.scaled_medians[:, 2]
    stable = 0.5 <= g3[-1] / g3[-2] <= 2.0

    ok = decreasing and stable and special.beta[2] == 2
    report_line(8, ok, "special covariance T^2*lam3 medians "
                + " > ".join(f"{v:.3e}" for v in scaled)
                + f"; generic ratio {g3[-1] / g3[-2]:.3f} in [0.5, 2]")
    assert ok


def test_readme_example_prints_what_it_says(capsys):
    # the Python example in README.md, run as written; each print line ends
    # in a comment that gives its output
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    code = text.split("### Example\n\n```python\n", 1)[1].split("```", 1)[0]
    comments = [line.split("# ")[-1] for line in code.splitlines() if line.startswith("print(")]
    assert comments == ["False 2", "1", "1.0"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == comments
