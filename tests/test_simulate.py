"""Monte Carlo engine: draws, Wald evaluation, eigensolver, experiments."""

import itertools
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from waldrates import simulate
from waldrates.polycore import MultiPoly, Scalar, parse_polynomial
from waldrates.rates import Covariance, rate_report
from waldrates.restriction import RestrictionSystem, jacobian, transform
from waldrates.simulate import (
    CholeskyFailureError,
    CompiledSystem,
    EstimatorModel,
    GenericCovarianceError,
    JacobiConvergenceError,
    SingularMetricError,
    _batch,
    _cholesky_stack,
    _draw_stack,
    _jacobi_stack,
    _pcg64_seed,
    _pcg64_words,
    _perturbed_vhat,
    _spectra,
    _stream,
    _substream_seeds,
    _ziggurat_fast_path,
    chi_square_median,
    compile_system,
    divergence_experiment,
    draw_estimate,
    fit_loglog_slope,
    scaled_eigen_trajectory,
    symmetric_eigenvalues,
    vanishing_rate_experiment,
    wald_closed_form_product_pairs,
    wald_statistic,
)
from waldrates.systems import linear_system, product_pairs_system, surd_covariance

from oracle import DenseSystem

PP_THETA = np.array([0.0, 0.0, 1.0, 1.0])
EPS = np.finfo(float).eps


class _ForcedRng:
    """Stub stream returning preset normal variates."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def standard_normal(self, size=None):
        if size is None:
            return float(self._values[0])
        return self._values[:size].copy()


class TestEstimatorModel:
    def test_requires_spd(self):
        with pytest.raises(CholeskyFailureError):
            EstimatorModel(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_requires_symmetry(self):
        with pytest.raises(CholeskyFailureError):
            EstimatorModel(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_pivot_tolerance(self):
        with pytest.raises(CholeskyFailureError):
            EstimatorModel(np.zeros(2), np.diag([1.0, 1e-13]))


class TestDrawEstimate:
    def test_zero_noise_returns_null_point(self):
        model = EstimatorModel(PP_THETA, np.eye(4))
        theta, V = draw_estimate(model, 100, _ForcedRng(np.zeros(4)))
        assert np.array_equal(theta, PP_THETA)
        assert np.array_equal(V, np.eye(4))

    def test_scaling_formula(self):
        model = EstimatorModel(PP_THETA, np.eye(4))
        theta, _ = draw_estimate(model, 10**4, _ForcedRng([1.0, 1.0, 0.0, 0.0]))
        assert theta == pytest.approx([0.01, 0.01, 1.0, 1.0])

    def test_cholesky_of_diagonal(self):
        model = EstimatorModel(np.zeros(2), np.diag([4.0, 1.0]))
        theta, _ = draw_estimate(model, 1, _ForcedRng([1.0, 1.0]))
        assert theta == pytest.approx([2.0, 1.0])

    def test_perturbed_mode_stays_spd(self):
        model = EstimatorModel(PP_THETA, np.eye(4), "perturbed", 0.5)
        rng = np.random.default_rng(0)
        for T in (10, 1000):
            _, V_hat = draw_estimate(model, T, rng)
            np.linalg.cholesky(V_hat)
            dev = np.abs(V_hat - np.eye(4)).max()
            assert 0 < dev < 10 * 0.5 / math.sqrt(T)


class TestWaldStatistic:
    def test_unit_point_value(self):
        comp = compile_system(product_pairs_system())
        assert wald_statistic([1, 1, 1, 1], np.eye(4), comp, 1) == pytest.approx(1.0)

    def test_zero_when_restrictions_vanish(self):
        # at an exact zero of g with a nonsingular inner matrix, W = 0;
        # the product-pairs system has a singular inner matrix on its whole
        # null variety, so the clean statement lives on the linear system
        assert wald_statistic([0.0, 0.0], np.eye(2), linear_system(2), 50) == 0.0

    def test_scalar_linear_case(self):
        sys1 = linear_system(1)
        a = 0.37
        assert wald_statistic([a], np.eye(1), sys1, 25) == pytest.approx(25 * a * a)

    def test_singular_metric_reported(self):
        # two identical restrictions: inner matrix exactly rank deficient
        names = ["x", "y"]
        sys2 = RestrictionSystem(
            names, [0, 0],
            [parse_polynomial("x", names), parse_polynomial("x", names)],
        )
        with pytest.raises(SingularMetricError):
            wald_statistic([0.5, 0.5], np.eye(2), sys2, 10)

    def test_closed_form_oracle_agreement(self):
        # 1e4 seeded estimator draws; both paths must agree to 1e-10 relative
        # on draws whose inner matrix is well conditioned (cond <= 1e6); the
        # remainder sit near the singular variety, where float error grows
        # with the condition number but stays far below statistical noise
        comp = compile_system(product_pairs_system())
        model = EstimatorModel(PP_THETA, np.eye(4))
        checked = 0
        for rep in range(10_000):
            rng = np.random.default_rng([314, 100, rep])
            theta, V = draw_estimate(model, 100, rng)
            w_general = wald_statistic(theta, V, comp, 100)
            w_closed = wald_closed_form_product_pairs(theta, 100)
            rel = abs(w_general - w_closed) / abs(w_closed)
            assert rel < 1e-4
            G = comp.jacobian_at(theta)
            if np.linalg.cond(G @ G.T) <= 1e6:
                assert rel < 1e-10
                checked += 1
        assert checked > 8000

    def test_transformation_invariance_pathwise(self):
        base = product_pairs_system()
        comp = compile_system(base)
        rng = random.Random(5)
        nprng = np.random.default_rng(6)
        for _ in range(10):
            S = [[rng.randint(-3, 3) or 1 for _ in range(3)] for _ in range(3)]
            if abs(np.linalg.det(np.array(S, dtype=float))) < 0.5:
                continue
            comp_s = compile_system(transform(base, S))
            for _ in range(5):
                theta = nprng.uniform(0.5, 2.0, 4)
                A = nprng.standard_normal((4, 4))
                V_hat = A @ A.T + 0.5 * np.eye(4)
                w0 = wald_statistic(theta, V_hat, comp, 64)
                w1 = wald_statistic(theta, V_hat, comp_s, 64)
                assert w1 == pytest.approx(w0, rel=1e-8)


class TestClosedForm:
    def test_unit_point(self):
        assert wald_closed_form_product_pairs([1, 1, 1, 1], 1) == pytest.approx(1.0)

    def test_value_at_the_null_point(self):
        # the formula is the continuous extension of W off the null variety;
        # its value at (0, 0, 1, 1) is T * 1 * 1 / 2, not the statistic's
        # exact-zero value there (W jumps to 0 where g vanishes exactly)
        assert wald_closed_form_product_pairs([0, 0, 1, 1], 12345) == \
            pytest.approx(12345 / 2)

    def test_zero_where_a_numerator_factor_vanishes(self):
        assert wald_closed_form_product_pairs([0, 1, 0, 1], 77) == 0.0

    def test_scaling_in_t(self):
        w1 = wald_closed_form_product_pairs([0.3, 0.4, 1.1, 0.9], 1)
        w9 = wald_closed_form_product_pairs([0.3, 0.4, 1.1, 0.9], 9)
        assert w9 == pytest.approx(9 * w1)


class TestSymmetricEigenvalues:
    def test_diagonal(self):
        assert symmetric_eigenvalues(np.diag([2.0, 1.0])) == pytest.approx([2.0, 1.0])

    def test_known_indefinite_spectrum(self):
        lam = symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx([1.0, -1.0])

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            M = A @ A.T + 0.1 * np.eye(3)
            lam = symmetric_eigenvalues(M)
            assert lam.sum() == pytest.approx(np.trace(M), rel=1e-9)
            assert np.prod(lam) == pytest.approx(np.linalg.det(M), rel=1e-9)
            assert all(a >= b for a, b in zip(lam, lam[1:]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestChiSquareMedian:
    def test_known_values(self):
        assert chi_square_median(1) == pytest.approx(0.454936, abs=1e-5)
        assert chi_square_median(2) == pytest.approx(2 * math.log(2), rel=1e-10)
        for q in range(1, 61):
            assert chi_square_median(q) == pytest.approx(chi2.median(q), rel=1e-14)


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        grid = [10, 100, 1000, 10000]
        slope, stderr = fit_loglog_slope(grid, [2.0 * t**1.5 for t in grid])
        assert slope == pytest.approx(1.5, rel=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module")
def pp_report():
    return rate_report(product_pairs_system(), Covariance.identity(4),
                       rng=random.Random(5))


class TestDivergenceExperiment:
    def test_grid_validation(self, pp_report):
        model = EstimatorModel(PP_THETA, np.eye(4))
        with pytest.raises(ValueError):
            divergence_experiment(product_pairs_system(), model, [100, 100, 200, 300],
                                  200, 1, report=pp_report)
        with pytest.raises(ValueError):
            divergence_experiment(product_pairs_system(), model,
                                  [10, 100, 1000, 10000], 100, 1, report=pp_report)

    def test_divergent_slope_and_bound(self, pp_report):
        model = EstimatorModel(PP_THETA, np.eye(4))
        res = divergence_experiment(product_pairs_system(), model,
                                    [100, 1000, 10000, 100000], 200, 7,
                                    report=pp_report)
        assert res.median_log_slope == pytest.approx(1.0, abs=0.15)
        assert res.bound_violations == 0
        assert res.singular_fraction == 0.0
        assert all((w[np.isfinite(w)] >= 0).all() for w in res.wald_samples)

    @pytest.mark.parametrize("grid, reps, seed, singular", [
        pytest.param([10, 100, 1000, 10000], 200, 99, False, id="seed99"),
        # one singular inner matrix at T = 1e5, marked NaN in W
        pytest.param([100, 1000, 10000, 100000], 2000, 310, True,
                     id="seed310_singular"),
    ])
    def test_determinism_bit_identical(self, pp_report, grid, reps, seed, singular):
        model = EstimatorModel(PP_THETA, np.eye(4))
        args = (product_pairs_system(), model, grid, reps, seed)
        first = divergence_experiment(*args, report=pp_report)
        assert first == divergence_experiment(*args, report=pp_report)
        assert (first.singular_fraction > 0) == singular

    def test_linear_q2_exact_report_flat_slope(self):
        model = EstimatorModel(np.zeros(2), np.eye(2))
        report = rate_report(linear_system(2), Covariance.identity(2))
        res = divergence_experiment(linear_system(2), model,
                                    [10, 100, 1000, 10000], 200, 3, report=report)
        assert res.rank_r == 2
        assert res.beta_bar == 0.0
        assert abs(res.median_log_slope) < 0.2

    def test_linear_case_matches_chi_square(self):
        model = EstimatorModel(np.zeros(1), np.eye(1))
        report = rate_report(linear_system(1), Covariance.identity(1))
        res = divergence_experiment(linear_system(1), model,
                                    [100, 1000, 10000, 100000], 500, 11,
                                    report=report)
        pooled = float(np.median(np.concatenate(res.wald_samples)))
        assert pooled == pytest.approx(chi_square_median(1), rel=0.15)


class TestScaledEigenTrajectory:
    def test_divergent_rescaled_eigenvalue_stabilises(self, pp_report):
        model = EstimatorModel(PP_THETA, np.eye(4))
        traj = scaled_eigen_trajectory(product_pairs_system(), model, pp_report,
                                       [1000, 10000, 100000], 300, 21)
        third = traj.scaled_medians[:, 2]
        assert 0.5 <= third[-1] / third[0] <= 2.0
        # top eigenvalues need no rescaling at all
        assert traj.beta[0] == 0 and traj.beta[1] == 0

    def test_full_rank_flat_in_t(self):
        sysl = linear_system(2)
        rep = rate_report(sysl, Covariance.identity(2), rng=random.Random(5))
        model = EstimatorModel(np.zeros(2), np.eye(2))
        traj = scaled_eigen_trajectory(sysl, model, rep, [100, 1000, 10000], 300, 2)
        for col in range(2):
            vals = traj.scaled_medians[:, col]
            assert 0.8 <= vals[-1] / vals[0] <= 1.25

    def test_boundary_covariance_plugin_stabilises_at_its_own_rate(self):
        # with the degenerate covariance plugged in exactly, the fixed-U
        # report gives beta_3 = 2 and T^2 * lambda_3 of the block-scaled
        # matrix settles to a nonzero level
        sysd = product_pairs_system()
        U = surd_covariance()
        rep = rate_report(sysd, U, rng=random.Random(5))
        assert rep.beta[2] == 2
        model = EstimatorModel(PP_THETA, np.eye(4))
        traj = scaled_eigen_trajectory(sysd, model, rep, [1000, 10000, 100000],
                                       300, 13, vhat=U.to_float())
        third = traj.scaled_medians[:, 2]
        assert 0.5 <= third[-1] / third[0] <= 2.0


class TestVanishingRateExperiment:
    def test_special_covariance_vanishes(self):
        res = vanishing_rate_experiment(product_pairs_system(), surd_covariance(),
                                        "exact", [1000, 10000, 100000], 300, 5)
        assert res.k_star == 3
        assert res.m_generic == (0, 0, 4)
        assert res.m_at_u == (0, 0, 6)
        assert res.beta[2] == 2
        scaled = res.scaled_medians[:, 2]
        assert scaled[0] > scaled[1] > scaled[2]
        # at the exactly-degenerate covariance the rate is one power higher
        boosted = res.raw_medians[:, 2] * np.array(res.t_grid, dtype=float) ** 3
        assert 0.5 <= boosted[-1] / boosted[0] <= 2.0

    def test_perturbed_sequence_also_vanishes(self):
        res = vanishing_rate_experiment(product_pairs_system(), surd_covariance(),
                                        "perturbed", [1000, 10000, 100000], 300, 5)
        scaled = res.scaled_medians[:, 2]
        assert scaled[0] > scaled[1] > scaled[2]

    def test_generic_covariance_rejected_by_default(self):
        U = Covariance.random_spd(4, random.Random(1))
        with pytest.raises(GenericCovarianceError):
            vanishing_rate_experiment(product_pairs_system(), U, "exact",
                                      [1000, 10000], 200, 5)

    def test_generic_covariance_stabilises_when_allowed(self):
        U = Covariance.random_spd(4, random.Random(1))
        res = vanishing_rate_experiment(product_pairs_system(), U, "exact",
                                        [1000, 10000, 100000], 300, 5,
                                        check_degenerate=False)
        assert res.k_star is None
        scaled = res.scaled_medians[:, 2]
        assert 0.5 <= scaled[-1] / scaled[-2] <= 2.0


def _cubic_system():
    names = ["x", "y", "z"]
    return RestrictionSystem(names, [0, 0, 0], [parse_polynomial(text, names) for text in (
        "x^2*y + 3*x*y*z - y^3 + 2*z - 1/3",
        "x*z^2 - 5*y^2*z + x^3 - z + 7/5*x*y",
        "x^2*y^2*z - 2*x*y + 4*z^3 - y",
    )])


def _echelonized(system, report):
    """The compiled S g the experiments simulate, and S as floats for the oracles."""
    S = report.echelon.S
    return (compile_system(transform(system, S)),
            np.array([[float(v) for v in row] for row in S]))


def _delta(report, T):
    return T ** (simulate._block_scaling(report)[0] / 2.0)


def _inner(G, V):
    return G @ V @ np.swapaxes(G, -1, -2)


@st.composite
def _float_systems(draw):
    """p <= 6 variables and q <= p restrictions of up to six terms, exponents
    0-5, with rational coefficients or, in some systems, coefficients in Q(sqrt(2))."""
    p = draw(st.integers(1, 6))
    surd = draw(st.booleans())
    ratio = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    coeff = (st.builds(lambda a, b: Scalar(a, b, 2), ratio, ratio) if surd
             else ratio.filter(bool))
    mono = st.tuples(*[st.integers(0, 5)] * p)
    terms = st.dictionaries(mono, coeff, min_size=1, max_size=6)
    return p, draw(st.lists(terms, min_size=1, max_size=p))


class TestKernel:
    """The batched kernel against the per-draw oracles it replaced."""

    @pytest.mark.parametrize("T", [100, 100_000])
    def test_eigenvalues_match_jacobi(self, pp_report, T):
        comp = compile_system(product_pairs_system())
        comp_s, S = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4))
        delta = _delta(pp_report, T)
        thetas, covs, _ = _draw_stack(model, T, 200, 8)
        batch = _batch(comp_s, thetas, covs, T, (delta,))
        for rep in range(200):
            theta, V = draw_estimate(model, T, np.random.default_rng([8, T, rep]))
            SG = S @ comp.jacobian_at(theta)
            sigma = (delta[:, None] * (SG @ V @ SG.T)) * delta[None, :]
            lam = symmetric_eigenvalues(sigma)
            bound = 64 * EPS * np.abs(lam).max()  # ||sigma||_2
            assert np.abs(batch.eigs[0][rep] - lam).max() <= bound

    @pytest.mark.parametrize("T", [100, 100_000])
    def test_wald_matches_closed_form(self, pp_report, T):
        comp = compile_system(product_pairs_system())
        comp_s, _ = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4))
        thetas, covs, _ = _draw_stack(model, T, 500, 9)
        batch = _batch(comp_s, thetas, covs, T, (_delta(pp_report, T),), wald=True)
        assert not batch.singular.any()
        G = comp.jacobian_at(thetas)
        cond = np.linalg.cond(G @ np.swapaxes(G, 1, 2))
        closed = np.array([wald_closed_form_product_pairs(t, T) for t in thetas])
        rel = np.abs(batch.wald - closed) / np.abs(closed)
        assert (rel <= np.maximum(1e-9, 64 * EPS * cond)).all()

    def test_singular_draw_counted_not_regularised(self):
        comp = compile_system(product_pairs_system())
        rng = np.random.default_rng(10)
        others = PP_THETA + rng.standard_normal((40, 4)) / 10.0
        stack = np.insert(others, 17, PP_THETA, axis=0)
        # G's first row (y, x, 0, 0) vanishes at the null point: zero pivot
        assert not comp.jacobian_at(PP_THETA)[0].any()
        ones = (np.ones(3),)
        W, singular, _ = _spectra(_inner(comp.jacobian_at(stack), np.eye(4)), ones, 1000,
                                  comp.g_at(stack))
        assert singular.sum() == 1 and singular[17]
        assert np.isnan(W[17])
        W_clean, singular_clean, _ = _spectra(_inner(comp.jacobian_at(others), np.eye(4)),
                                              ones, 1000, comp.g_at(others))
        assert not singular_clean.any()
        assert np.array_equal(np.delete(W, 17), W_clean)
        with pytest.raises(SingularMetricError):
            wald_statistic(PP_THETA, np.eye(4), comp, 1000)
        with pytest.raises(SingularMetricError):
            wald_statistic(stack, np.eye(4), comp, 1000)

    def test_stacked_evaluation_matches_per_draw(self):
        comp = compile_system(_cubic_system())
        thetas = np.random.default_rng(11).uniform(-2.0, 2.0, size=(50, 3))
        g_stack, G_stack = comp.g_at(thetas), comp.jacobian_at(thetas)
        assert g_stack.shape == (50, 3) and G_stack.shape == (50, 3, 3)
        for theta, g_row, G_row in zip(thetas, g_stack, G_stack):
            assert np.array_equal(g_row, comp.g_at(theta))
            assert np.array_equal(G_row, comp.jacobian_at(theta))

    def test_batch_builds_one_power_table_for_g_and_G(self, monkeypatch):
        comp = compile_system(_cubic_system())
        thetas = np.random.default_rng(11).uniform(-2.0, 2.0, size=(50, 3))
        builds = []
        power_tables = CompiledSystem.power_tables

        def counting_power_tables(self, *args):
            builds.append(args)
            return power_tables(self, *args)

        monkeypatch.setattr(CompiledSystem, "power_tables", counting_power_tables)
        g, G = comp.g_at(thetas), comp.jacobian_at(thetas)
        assert len(builds) == 2
        V, d = np.diag([1.0, 2.0, 3.0]), np.array([1.0, 10.0, 100.0])
        batch = _batch(comp, thetas, V, 1000, (d,), wald=True)
        assert len(builds) == 3
        W, singular, (lam,) = _spectra(_inner(G, V), (d,), 1000, g)
        lam[singular] = np.nan
        assert np.array_equal(batch.g, g)
        assert np.array_equal(batch.wald, W, equal_nan=True)
        assert np.array_equal(batch.singular, singular)
        assert np.array_equal(batch.eigs[0], lam, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(_float_systems(), st.integers(1, 400), st.integers(0, 2**32 - 1))
    @example((2, [{(2, 1): Scalar(1, 1, 2), (0, 1): Scalar(Fraction(-1, 3), 0, 2),
                   (1, 0): Scalar(0, Fraction(5, 7), 2), (0, 0): Scalar(2, -1, 2)},
                  {(3, 0): Scalar(Fraction(1, 9), 1, 2), (1, 2): Scalar(-4, 0, 2)}]), 5, 0)
    def test_plan_matches_dense_oracle(self, spec, n, seed):
        p, terms = spec
        system = RestrictionSystem([f"x{j}" for j in range(p)], [0] * p,
                                   [MultiPoly(p, t) for t in terms])
        comp, dense = compile_system(system), DenseSystem(system)
        rng = np.random.default_rng(seed)
        stack = rng.uniform(-4.0, 4.0, size=(n, p))
        pick = rng.random((n, p))
        stack[pick < 0.1] = 0.0
        stack[(pick >= 0.1) & (pick < 0.15)] = -0.0
        stack[(pick >= 0.15) & (pick < 0.2)] = 1.0
        for theta in (stack, stack[0]):
            for got, want in ((comp.g_at(theta), dense.g_at(theta)),
                              (comp.jacobian_at(theta), dense.jacobian_at(theta))):
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_overflowing_monomial_stays_in_its_entries(self):
        names = ["x", "y"]
        system = RestrictionSystem(names, [0, 0], [parse_polynomial(text, names)
                                                   for text in ("x^5*y + y", "x + 2*y")])
        comp = compile_system(system)
        theta = np.array([1e70, 1.0])  # x^5 overflows; x^4*y = 1e280 does not
        with np.errstate(over="ignore", invalid="ignore"):
            g, G = comp.g_at(theta), comp.jacobian_at(theta)
            # the dense sum multiplies the inf monomial by every zero coefficient too
            assert np.isnan(DenseSystem(system).g_at(theta)[1])
        assert g[0] == np.inf and g[1] == 1e70 + 2.0
        assert G[0, 0] == pytest.approx(5e280, rel=1e-12) and G[0, 1] == np.inf
        assert np.array_equal(G[1], [1.0, 2.0])

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_draws_match_draw_estimate(self, mode):
        model = EstimatorModel(PP_THETA, np.eye(4), mode, 0.5)
        thetas, covs, _ = _draw_stack(model, 1000, 100, 12)
        covs = np.broadcast_to(covs, (100, 4, 4))
        for rep in range(100):
            theta, V = draw_estimate(model, 1000, np.random.default_rng([12, 1000, rep]))
            assert np.array_equal(thetas[rep], theta)
            assert np.array_equal(covs[rep], V)

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    def test_unstacked_covariance_same_bits_as_stacked(self, pp_report, mode):
        comp, _ = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4), mode, 0.5)
        delta = _delta(pp_report, 1000)
        thetas, covs, _ = _draw_stack(model, 1000, 300, 14)
        assert (covs is model.V) == (mode == "exact")
        V = model.V if mode == "exact" else covs[7]
        args = (1000, (delta, 2 * delta))
        unstacked = _batch(comp, thetas, V, *args, wald=True)
        stacked = _batch(comp, thetas, np.broadcast_to(V, (300, 4, 4)).copy(), *args,
                         wald=True)
        for a, b in zip(unstacked, stacked):
            if isinstance(a, tuple):
                assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))
            else:
                assert np.array_equal(a, b, equal_nan=True)

    def test_cholesky_stack_factors_match_per_matrix(self):
        comp = compile_system(product_pairs_system())
        rng = np.random.default_rng(15)
        others = PP_THETA + rng.standard_normal((40, 4)) / 10.0
        G = comp.jacobian_at(np.insert(others, 17, PP_THETA, axis=0))
        inner = G @ np.swapaxes(G, 1, 2)
        for stack in (np.delete(inner, 17, axis=0), inner):  # batched, then fallback
            factors, failed = _cholesky_stack(stack)
            assert list(np.flatnonzero(failed)) == ([17] if len(stack) == 41 else [])
            for i, matrix in enumerate(stack):
                if failed[i]:
                    assert np.isnan(factors[i]).all()
                    with pytest.raises(np.linalg.LinAlgError):
                        np.linalg.cholesky(matrix)
                else:
                    assert np.array_equal(factors[i], np.linalg.cholesky(matrix))


def _spd_stack(q, M, seed):
    """M random SPD q x q matrices, entry-major (q, q, M) as the Jacobi kernel reads them."""
    X = np.random.default_rng(seed).standard_normal((M, q, q + 2))
    return np.ascontiguousarray((X @ np.swapaxes(X, 1, 2)).transpose(1, 2, 0))


class TestJacobiKernel:
    """The batched Jacobi of ``_spectra``: masking, closed forms, cap, accuracy."""

    def test_draw_alone_same_bits_as_in_two_scaling_stack(self, pp_report):
        comp, _ = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4))
        T = 10_000
        delta = _delta(pp_report, T)
        scalings = (delta, delta * T ** (simulate._block_scaling(pp_report)[1] / 2.0))
        thetas, covs, _ = _draw_stack(model, T, 2000, 21)
        full = _batch(comp, thetas, covs, T, scalings, wald=True)
        for k in range(0, 2000, 97):
            for scales in (scalings, scalings[:1]):
                alone = _batch(comp, thetas[k:k + 1], covs, T, scales, wald=True)
                assert alone.wald.tobytes() == full.wald[k:k + 1].tobytes()
                assert alone.singular[0] == full.singular[k]
                for got, want in zip(alone.eigs, full.eigs):
                    assert got.tobytes() == want[k:k + 1].tobytes()
        # on those draws an unmasked rotation of a converged pair mostly stays
        # below rounding, so also stack a pair below the threshold whose
        # equal diagonals an unmasked rotation would turn by 45 degrees
        inner = np.array([[[1.0, EPS / 2], [EPS / 2, 1.0]], [[2.0, 1.0], [1.0, 3.0]]])
        g = np.array([[1.0, 2.0], [0.5, -1.0]])
        alone = _spectra(inner[:1], (np.ones(2),), 1.0, g[:1])
        stacked = _spectra(inner, (np.ones(2),), 1.0, g)
        assert alone[0].tobytes() == stacked[0][:1].tobytes()
        assert alone[2][0].tobytes() == stacked[2][0][:1].tobytes()
        assert np.array_equal(alone[2][0], [[1.0, 1.0]])

    def test_one_restriction_needs_no_rotation(self):
        A, v = _spd_stack(1, 300, 22), np.random.default_rng(23).standard_normal((1, 300))
        lam, v_out, sweeps = _jacobi_stack(A, v)
        assert sweeps == 0
        assert np.array_equal(lam, A[0]) and np.array_equal(v_out, v)
        W, singular, _ = _spectra(A.transpose(2, 0, 1), (np.ones(1),), 25.0, v.T)
        assert not singular.any()
        assert np.array_equal(W, 25.0 * (v[0] * v[0] / A[0, 0]))

    def test_two_restrictions_one_rotation_diagonalises(self):
        A, g = _spd_stack(2, 500, 24), np.random.default_rng(25).standard_normal((500, 2))
        _, _, sweeps = _jacobi_stack(A, g.T)
        assert sweeps == 1
        W, singular, (lam,) = _spectra(A.transpose(2, 0, 1), (np.ones(2),), 7.0, g)
        assert not singular.any()
        a, b, c = A[0, 0], A[0, 1], A[1, 1]
        mean, radius = (a + c) / 2, np.sqrt(((a - c) / 2) ** 2 + b * b)
        closed = np.stack([mean + radius, mean - radius], axis=1)
        assert (np.abs(lam - closed) <= 64 * EPS * closed[:, :1]).all()  # ||A||_2
        wald = 7.0 * (c * g[:, 0] ** 2 - 2 * b * g[:, 0] * g[:, 1] + a * g[:, 1] ** 2) \
            / (a * c - b * b)
        cond = (mean + radius) / (mean - radius)
        assert (np.abs(W - wald) <= 64 * EPS * cond * np.abs(wald)).all()

    def test_sweep_cap_raises(self, monkeypatch):
        A = _spd_stack(3, 50, 26)
        assert _jacobi_stack(A, np.zeros((3, 0)))[2] > 1
        monkeypatch.setattr(simulate, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(JacobiConvergenceError):
            _jacobi_stack(A, np.zeros((3, 0)))

    def test_null_point_zero_row_is_exactly_singular(self):
        comp = compile_system(product_pairs_system())
        G = comp.jacobian_at(PP_THETA[None])
        assert not G[0, 0].any()
        lam, _, _ = _jacobi_stack(_inner(G, np.eye(4)).transpose(1, 2, 0), np.zeros((3, 0)))
        assert (lam[:, 0] == 0.0).sum() == 1
        batch = _batch(comp, PP_THETA[None], np.eye(4), 1000,
                       (np.ones(3), np.full(3, 10.0)), wald=True)
        assert batch.singular[0] and np.isnan(batch.wald[0])
        assert all(np.isnan(e).all() for e in batch.eigs)

    @pytest.mark.parametrize("T", [1000, 100_000])
    def test_block_scaled_eigenvalues_against_50_digits(self, pp_report, T):
        mpmath = pytest.importorskip("mpmath")
        comp, _ = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4))
        thetas, _, _ = _draw_stack(model, T, 200, 42)
        d = _delta(pp_report, T)
        G = comp.jacobian_at(thetas)
        kernel = _batch(comp, thetas, np.eye(4), T, (d,)).eigs[0]
        lapack = np.linalg.eigvalsh(d[:, None] * _inner(G, np.eye(4)) * d)[:, ::-1]
        with mpmath.workdps(50):
            exact = []
            for Gx in G:
                rows = [[mpmath.mpf(float(x)) for x in row] for row in Gx]
                M = mpmath.matrix([[mpmath.mpf(d[i]) * mpmath.mpf(d[j]) * mpmath.fsum(
                    x * y for x, y in zip(rows[i], rows[j])) for j in range(3)]
                    for i in range(3)])
                exact.append(sorted(mpmath.eigsy(M, eigvals_only=True), reverse=True))

            def rel(lam):
                return np.array([[float(abs((mpmath.mpf(float(x)) - e) / e))
                                  for x, e in zip(row, want)]
                                 for row, want in zip(lam, exact)])
            kernel_err, lapack_err = rel(kernel), rel(lapack)
        assert kernel_err.max() <= lapack_err.max()
        assert kernel_err[:, -1].max() <= 1e-6


#: g2 = 2 g1 + y^2 + x z: the rows' lowest parts are dependent, so the echelon
#: transform rewrites row 2, S = [[1, 0], [-2, 1]], and G(0) has rank 1
REWRITE = ("x + y + z", "2*x + 2*y + 2*z + y^2 + x*z")
#: the same rewrite over Q(sqrt(2)): S = [[1, 0], [-sqrt(2), 1]]
SURD_REWRITE = ("sqrt(2)*x + y + z", "2*x + sqrt(2)*y + sqrt(2)*z + y^2 + x*z")


def _rewrite_system(texts):
    names = ["x", "y", "z"]
    return RestrictionSystem(names, [0, 0, 0], [parse_polynomial(t, names) for t in texts])


def _exact_wald_q2(system, G, theta, T):
    """T g' (G G')^{-1} g (V = I) of a two-restriction rational system, at a
    float point taken as exact rationals."""
    point = [Fraction(t) for t in theta]
    g = [poly.evaluate(point).a for poly in system.g]
    rows = [[v.a for v in row] for row in G.evaluate(point)]
    (a, b), (_, c) = [[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows]
    return T * (c * g[0] ** 2 - 2 * b * g[0] * g[1] + a * g[1] ** 2) / (a * c - b * b)


def _decimal(v):
    """A Scalar a + b sqrt(d) in the current decimal context."""
    def frac(x):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return frac(v.a) + frac(v.b) * Decimal(v.d).sqrt()


class TestEchelonizedKernel:
    """The experiments simulate the echelonized S g, compiled with S exact."""

    def test_permutation_compiles_to_permuted_rows(self, pp_report):
        # product pairs' own S is a permutation, so its eigenvalue and mu
        # outputs carry the bits of the plain system's rows
        assert sorted(map(tuple, pp_report.echelon.S)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        comp = compile_system(product_pairs_system())
        thetas = PP_THETA + np.random.default_rng(16).standard_normal((100, 4))
        g, G = comp.g_at(thetas), comp.jacobian_at(thetas)
        for perm in itertools.permutations(range(3)):
            P = [[int(j == k) for j in range(3)] for k in perm]
            comp_p = compile_system(transform(product_pairs_system(), P))
            assert np.array_equal(comp_p.g_at(thetas), g[:, perm])
            assert np.array_equal(comp_p.jacobian_at(thetas), G[:, perm])

    def test_wald_on_row_rewrite_matches_exact_reference(self):
        system = _rewrite_system(REWRITE)
        report = rate_report(system, Covariance.identity(3), rng=random.Random(5))
        assert report.echelon.S == ((1, 0), (-2, 1))
        model = EstimatorModel(np.zeros(3), np.eye(3))
        grid = [1000, 10**5, 10**6, 10**7]
        res = divergence_experiment(system, model, grid, 200, 5, report=report)
        G = jacobian(system)
        for T, W in zip(grid, res.wald_samples):
            thetas, _, _ = _draw_stack(model, T, 200, 5)
            for w, theta in zip(W, thetas):
                exact = _exact_wald_q2(system, G, theta, T)
                assert abs(Fraction(w) - exact) <= Fraction(1e-10) * exact

    @pytest.mark.parametrize("T", [10**5, 10**7])
    def test_block_scaled_eigenvalues_on_surd_rewrite(self, T):
        system = _rewrite_system(SURD_REWRITE)
        report = rate_report(system, Covariance.identity(3), rng=random.Random(5))
        assert report.echelon.S == ((1, 0), (Scalar(0, -1, 2), 1))
        model = EstimatorModel(np.zeros(3), np.eye(3))
        comp_s, _ = _echelonized(system, report)
        thetas, covs, _ = _draw_stack(model, T, 50, 5)
        batch = _batch(comp_s, thetas, covs, T, (_delta(report, T),))
        traj = scaled_eigen_trajectory(system, model, report, [T], 50, 5)
        assert np.array_equal(traj.raw_medians[0], np.nanmedian(batch.eigs[0], axis=0))
        G = jacobian(system)
        with localcontext() as ctx:
            ctx.prec = 50
            S = [[_decimal(v) for v in row] for row in report.echelon.S]
            d = [Decimal(T).sqrt() ** s for s in report.echelon.row_degrees]
            for lam, theta in zip(batch.eigs[0], thetas):
                Gx = [[_decimal(v) for v in row] for row in G.evaluate(list(map(Fraction, theta)))]
                SG = [[S[i][0] * Gx[0][j] + S[i][1] * Gx[1][j] for j in range(3)]
                      for i in range(2)]
                (a, b), (_, c) = [[d[i] * d[k] * sum(x * y for x, y in zip(SG[i], SG[k]))
                                   for k in range(2)] for i in range(2)]
                # the closed form of a symmetric 2 x 2: mean +- radius
                mean, radius = (a + c) / 2, (((a - c) / 2) ** 2 + b * b).sqrt()
                for got, want in zip(lam, (mean + radius, mean - radius)):
                    assert abs(Decimal(float(got)) - want) <= Decimal("1e-13") * want


def _oracle_draws(model, T, reps, seed, tail=(0,)):
    """Per-rep draw_estimate (then the tail normals) on default_rng([seed, T, rep])."""
    thetas, covs, tails = [], [], []
    for rep in range(reps):
        rng = np.random.default_rng([seed, T, rep])
        theta, V = draw_estimate(model, T, rng)
        thetas.append(theta)
        covs.append(V)
        tails.append(rng.standard_normal(tail))
    return np.array(thetas), np.array(covs), np.array(tails)


@pytest.fixture
def streams(monkeypatch):
    """The seed words of every NumPy generator that ``_draw_stack`` builds."""
    calls = []

    def counting_stream(words):
        calls.append(words)
        return _stream(words)

    monkeypatch.setattr(simulate, "_stream", counting_stream)
    return calls


class TestSubstreams:
    """The vectorised seeding and the one-pass draw stage against default_rng."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**70 - 1), T=st.integers(1, 2**70 - 1),
           reps=st.integers(1, 4))
    def test_states_match_default_rng(self, seed, T, reps):
        # fails if NumPy's SeedSequence hash or its seeding of PCG64 ever changes
        seeds = _substream_seeds(seed, T, reps)
        generators = [np.random.default_rng([seed, T, rep]).bit_generator
                      for rep in range(reps)]
        assert [_stream(words).bit_generator.state for words in seeds] == [
            bg.state for bg in generators]
        # the array PCG64: state and inc after srandom, then 70 raw words, in
        # which the rotation by 0 (1 word in 64) occurs
        state = _pcg64_seed(seeds)
        hi, lo, inc_hi, inc_lo = (limb.tolist() for limb in state)
        assert [{"state": h << 64 | l, "inc": ih << 64 | il}
                for h, l, ih, il in zip(hi, lo, inc_hi, inc_lo)] == [
            bg.state["state"] for bg in generators]
        assert _pcg64_words(state, 70).tolist() == [bg.random_raw(70).tolist()
                                                     for bg in generators]

    def test_ziggurat_tables_pinned_by_numpy_sampler(self):
        # Feed NumPy's standard_normal chosen words through PCG64's public
        # state setter: a state whose high half is 0 outputs its low half
        # unrotated, so the state before it is (word - inc) / MULT.
        bit_generator = np.random.PCG64()
        rng = np.random.Generator(bit_generator)
        inverse = pow(simulate._PCG_MULT, -1, 2**128)

        def numpy_sample(word):
            bit_generator.state = {
                "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": (word - 1) * inverse % 2**128, "inc": 1}}
            value = rng.standard_normal()
            return value, bit_generator.state["state"]["state"] == word

        ki, wi = simulate._ZIGGURAT_KI.tolist(), simulate._ZIGGURAT_WI
        for idx in range(256):
            for rabs in {1, ki[idx] - 1, ki[idx]} - {-1}:
                for sign in (0, 1):
                    word = rabs << 9 | sign << 8 | idx
                    value, one_word = numpy_sample(word)
                    x, accepted = _ziggurat_fast_path(np.array([word], dtype=np.uint64))
                    assert accepted[0] == one_word == (rabs < ki[idx]), (idx, rabs)
                    if one_word:
                        assert x[0] == value and np.signbit(x[0]) == bool(sign)
                    if rabs == 1:
                        assert value == (-wi[idx] if sign else wi[idx])

    def test_import_does_not_load_numpy_random(self):
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import waldrates; print(before or 'numpy.random' not in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(simulate.__file__).parents[1])] + sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "True"

    def test_negative_seed_rejected(self):
        model = EstimatorModel(PP_THETA, np.eye(4))
        with pytest.raises(ValueError, match="non-negative"):
            _draw_stack(model, 100, 10, -1)

    @pytest.mark.parametrize("mode", ["exact", "perturbed"])
    @pytest.mark.parametrize("T", [1, 10**5, 2**32 + 3])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    def test_stack_matches_draw_estimate(self, seed, T, mode):
        model = EstimatorModel(PP_THETA, np.eye(4), mode, 0.5)
        thetas, covs, _ = _draw_stack(model, T, 200, seed)
        oracle_thetas, oracle_covs, _ = _oracle_draws(model, T, 200, seed)
        # every rep, rep 0 and the last included
        assert np.array_equal(thetas, oracle_thetas)
        assert np.array_equal(np.broadcast_to(covs, oracle_covs.shape), oracle_covs)

    @pytest.mark.parametrize("with_tail", [False, True])
    def test_only_failing_reps_replay_their_stream(self, monkeypatch, with_tail):
        model = EstimatorModel(PP_THETA, np.eye(4), "perturbed", 4.0)
        T, reps, seed = 100, 200, 3
        tail = (4, 4) if with_tail else (0,)
        first_failures = 0
        for rep in range(reps):
            rng = np.random.default_rng([seed, T, rep])
            rng.standard_normal(4)
            W = rng.standard_normal((4, 4))
            first_failures += int(_cholesky_stack(_perturbed_vhat(model, T, W)[None])[1][0])
        assert first_failures > 0
        replays = []

        def counting_draw_estimate(*args):
            replays.append(args)
            return draw_estimate(*args)

        monkeypatch.setattr(simulate, "draw_estimate", counting_draw_estimate)
        thetas, covs, tails = _draw_stack(model, T, reps, seed, tail)
        assert len(replays) == first_failures
        oracle_thetas, oracle_covs, oracle_tails = _oracle_draws(model, T, reps, seed, tail)
        assert np.array_equal(thetas, oracle_thetas)
        assert np.array_equal(covs, oracle_covs)
        assert np.array_equal(tails, oracle_tails)

    @pytest.mark.parametrize("tail", [(0,), (4, 4)])
    def test_only_off_path_reps_refill(self, streams, tail):
        model = EstimatorModel(PP_THETA, np.eye(4))
        T, reps, seed = 1000, 400, 21
        n = 4 + math.prod(tail)
        off_path = 0
        for rep in range(reps):
            # a sample off the fast path takes more than its one word
            rng, raw = (np.random.default_rng([seed, T, rep]) for _ in range(2))
            rng.standard_normal(n)
            raw.bit_generator.random_raw(n)
            off_path += rng.bit_generator.state != raw.bit_generator.state
        assert 0 < off_path < reps
        thetas, _, tails = _draw_stack(model, T, reps, seed, tail)
        assert len(streams) == off_path + 1  # and the certificate's rep
        oracle_thetas, _, oracle_tails = _oracle_draws(model, T, reps, seed, tail)
        assert np.array_equal(thetas, oracle_thetas)
        assert np.array_equal(tails, oracle_tails)

    @pytest.mark.parametrize("table", ["wi", "ki"])
    def test_certificate_sends_every_rep_to_numpy(self, monkeypatch, streams, table):
        model = EstimatorModel(PP_THETA, np.eye(4))
        T, reps = 1000, 300
        for seed in range(1000):
            words = _pcg64_words(_pcg64_seed(_substream_seeds(seed, T, reps)), 4)
            accepted = _ziggurat_fast_path(words)[1]
            # ki: rep 0 with one word off the fast path, not its last
            if table == "wi" or (~accepted[0]).sum() == 1 and accepted[0, -1]:
                break
        if table == "wi":
            # the first word of the first fast-path rep, which the certificate draws
            word = words[np.flatnonzero(accepted.all(axis=1))[0], 0]
            corrupt = simulate._ZIGGURAT_WI.copy()
            corrupt[word & 0xFF] = np.nextafter(corrupt[word & 0xFF], 1.0)
        else:
            # accept the word NumPy rejects, making rep 0 the certified rep
            word = words[0, np.flatnonzero(~accepted[0])[0]]
            corrupt = simulate._ZIGGURAT_KI.copy()
            corrupt[word & 0xFF] = (word >> 9 & 0xFFFFFFFFFFFFF) + 1
        monkeypatch.setattr(simulate, f"_ZIGGURAT_{table.upper()}", corrupt)
        thetas, _, _ = _draw_stack(model, T, reps, seed)
        assert len(streams) == reps + 1
        assert np.array_equal(thetas, _oracle_draws(model, T, reps, seed)[0])

    def test_ten_failed_retries_raise(self):
        model = EstimatorModel(PP_THETA, np.eye(4), "perturbed", 1e6)
        with pytest.raises(CholeskyFailureError, match="10 retries"):
            draw_estimate(model, 100, np.random.default_rng([1, 100, 0]))
        with pytest.raises(CholeskyFailureError, match="10 retries"):
            _draw_stack(model, 100, 20, 1)

    def test_vanishing_perturbed_plugin_matches_default_rng(self, monkeypatch):
        calls, covs = [], []

        def recording_draw_stack(model, T, reps, seed, tail=(0,)):
            out = _draw_stack(model, T, reps, seed, tail)
            calls.append((model, T, reps, seed, tail, out))
            return out

        def recording_batch(comp, thetas, cov, *args, **kwargs):
            covs.append(cov)
            return _batch(comp, thetas, cov, *args, **kwargs)

        monkeypatch.setattr(simulate, "_draw_stack", recording_draw_stack)
        monkeypatch.setattr(simulate, "_batch", recording_batch)
        vanishing_rate_experiment(product_pairs_system(), surd_covariance(),
                                  "perturbed", [1000, 10**5], 200, 2**32 + 1)
        assert [call[1] for call in calls] == [1000, 10**5]
        U = surd_covariance().to_float()
        for (model, T, reps, seed, tail, (thetas, _, tails)), U_T in zip(calls, covs):
            assert tail == (4, 4)
            oracle_thetas, _, oracle_tails = _oracle_draws(model, T, reps, seed, tail)
            assert np.array_equal(thetas, oracle_thetas)
            assert np.array_equal(tails, oracle_tails)
            # U_T = U + 0.5 T^{-1/2} A A' / p, formed rep by rep from the oracle's A
            assert np.array_equal(U_T, [U + 0.5 / math.sqrt(T) * (A @ A.T) / 4
                                        for A in oracle_tails])
