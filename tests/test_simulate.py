"""Monte Carlo engine: draws, Wald evaluation, eigensolver, experiments."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
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
from waldrates.rates import MAX_Q, Covariance, rate_report
from waldrates.restriction import RestrictionSystem, jacobian, transform
from waldrates.simulate import (
    CholeskyFailureError,
    CompiledSystem,
    EstimatorModel,
    GenericCovarianceError,
    JacobiConvergenceError,
    SingularMetricError,
    _cholesky_fails,
    _draw_stack,
    _inner,
    _jacobi_stack,
    _pcg64_seed,
    _pcg64_words,
    _perturbed_vhat,
    _spectra,
    _stream,
    _substream_seeds,
    _ziggurat_fast_path,
    chi_square_median,
    divergence_experiment,
    draw_estimate,
    fit_loglog_slope,
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
        comp = CompiledSystem(product_pairs_system())
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
        comp = CompiledSystem(product_pairs_system())
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
        comp = CompiledSystem(base)
        rng = random.Random(5)
        nprng = np.random.default_rng(6)
        for _ in range(10):
            S = [[rng.randint(-3, 3) or 1 for _ in range(3)] for _ in range(3)]
            if abs(np.linalg.det(np.array(S, dtype=float))) < 0.5:
                continue
            comp_s = CompiledSystem(transform(base, S))
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

    def test_stack_is_the_per_point_formula_bit_for_bit(self):
        # the scalar formula in Python floats, point by point, as the oracle
        # computed it before it took arrays
        def one(theta, T):
            x, y, z, w = (float(v) for v in theta)
            denom = w * w + x * x + y * y + z * z
            return 0.0 if denom == 0.0 else T * (w * w + y * y) * (x * x + z * z) / denom

        rng = np.random.default_rng(2718)
        thetas = rng.uniform(-3.0, 3.0, size=(500, 4))
        thetas[0] = 0.0
        thetas[1] = [0.0, 1.5, 0.0, -0.25]  # numerator factor zero, denominator not
        thetas[2, ::2] = 1e-170             # squares underflow
        Ts = rng.integers(1, 10_000, size=500)
        want = np.array([one(theta, int(T)) for theta, T in zip(thetas, Ts)])
        got = wald_closed_form_product_pairs(thetas, Ts)
        assert got.tobytes() == want.tobytes()
        assert wald_closed_form_product_pairs(thetas, 77).tobytes() == \
            np.array([one(theta, 77) for theta in thetas]).tobytes()
        for theta, T, w in zip(thetas[:20], Ts[:20], want[:20]):
            single = wald_closed_form_product_pairs(theta, int(T))
            assert type(single) is float and single == w


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

    def test_q4_verify_matrix_converges(self):
        # B(x) at the ninth point of verify's symmetric-polynomial check on
        # the benchmark's seed-7 system 11 at seed 7: an off-diagonal norm
        # taken as sqrt(||A||^2 - ||diag A||^2) can cancel to a positive
        # residue near sqrt(eps) ||A||, far above the 1e-12 ||A|| target
        M = np.array([[6.020484375, 13.446075, 3.2822625, -5.581453125],
                      [13.446075, 32.7534, 10.5489, -9.170325],
                      [3.2822625, 10.5489, 8.89815, 2.6341125],
                      [-5.581453125, -9.170325, 2.6341125, 12.442509375]])
        lam = symmetric_eigenvalues(M)
        assert np.abs(lam - np.linalg.eigvalsh(M)[::-1]).max() <= 1e-12 * np.linalg.norm(M)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, MAX_Q), st.integers(0, 2**32 - 1), st.integers(-60, 60))
    def test_matches_eigvalsh_for_every_q(self, n, seed, scale_exp):
        A = np.random.default_rng(seed).standard_normal((n, n)) * 2.0**scale_exp
        M = A + A.T
        lam = symmetric_eigenvalues(M)
        norm = np.linalg.norm(M)
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert np.abs(lam - np.linalg.eigvalsh(M)[::-1]).max() <= 1e-12 * norm
        assert abs(lam.sum() - np.trace(M)) <= 1e-12 * norm


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

    def test_median_wald_computed_once(self, pp_report, monkeypatch):
        model = EstimatorModel(PP_THETA, np.eye(4))
        args = (product_pairs_system(), model, [100, 1000, 10000, 100000], 200, 7)
        res, again = (divergence_experiment(*args, report=pp_report) for _ in range(2))
        medians = []
        median = np.median

        def counting_median(*args, **kwargs):
            medians.append(args)
            return median(*args, **kwargs)

        monkeypatch.setattr(np, "median", counting_median)
        assert res.median_wald is res.median_wald
        assert len(medians) == 4  # one per T, on the first read only
        # the kept medians are no field: equality still compares fields alone
        assert res == again

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


def _eig_medians(system, model, report, t_grid, reps, seed, vhat=None):
    """Per-T medians of the block-scaled eigenvalues of the echelonized
    system, descending, from one ``_draw_stack``, ``_inner`` and ``_spectra``
    per T; ``vhat`` replaces every draw's covariance estimate with a fixed
    plug-in.  Returns the (len(t_grid), q) medians and the same times
    T^beta."""
    comp, _ = _echelonized(system, report)
    raw = np.empty((len(t_grid), system.q))
    for ti, T in enumerate(t_grid):
        thetas, covs, _ = _draw_stack(model, T, reps, seed)
        inner, _ = _inner(comp, thetas, covs if vhat is None else vhat, False)
        _, _, eigs = _spectra(inner, (_delta(report, T),), T)
        raw[ti] = np.nanmedian(eigs[0], axis=0)
    beta = np.array([float(b) for b in report.beta])
    return raw, raw * np.array(t_grid, dtype=float)[:, None] ** beta[None, :]


class TestScaledEigenTrajectory:
    """T^beta_l times the median of eigenvalue l of the block-scaled inner matrix."""

    def test_divergent_rescaled_eigenvalue_stabilises(self, pp_report):
        model = EstimatorModel(PP_THETA, np.eye(4))
        _, scaled = _eig_medians(product_pairs_system(), model, pp_report,
                                 [1000, 10000, 100000], 300, 21)
        third = scaled[:, 2]
        assert 0.5 <= third[-1] / third[0] <= 2.0
        # top eigenvalues need no rescaling at all
        assert pp_report.beta[0] == 0 and pp_report.beta[1] == 0

    def test_full_rank_flat_in_t(self):
        sysl = linear_system(2)
        rep = rate_report(sysl, Covariance.identity(2), rng=random.Random(5))
        model = EstimatorModel(np.zeros(2), np.eye(2))
        _, scaled = _eig_medians(sysl, model, rep, [100, 1000, 10000], 300, 2)
        for col in range(2):
            vals = scaled[:, col]
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
        _, scaled = _eig_medians(sysd, model, rep, [1000, 10000, 100000],
                                 300, 13, vhat=U.to_float())
        third = scaled[:, 2]
        assert 0.5 <= third[-1] / third[0] <= 2.0

    @pytest.mark.parametrize("name", ["product_pairs", "linear_q2"])
    @pytest.mark.parametrize("vhat_mode, scale", [("exact", 0.0), ("perturbed", 0.5)])
    def test_divergence_experiment_medians_are_the_batch_medians(self, name, vhat_mode,
                                                                 scale):
        # the experiment stacks a second scaling and rotates D g alongside;
        # its eigenvalue medians keep the bits of the first scaling alone
        system = product_pairs_system() if name == "product_pairs" else linear_system(2)
        theta = PP_THETA if name == "product_pairs" else np.zeros(2)
        report = rate_report(system, Covariance.identity(system.p), rng=random.Random(5))
        model = EstimatorModel(theta, np.eye(system.p), vhat_mode, scale)
        grid = [100, 1000, 10000, 100000]
        res = divergence_experiment(system, model, grid, 300, 7, report=report)
        raw, _ = _eig_medians(system, model, report, grid, 300, 7)
        assert np.array(res.eig_trajectories).tobytes() == raw.tobytes()


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
    return (CompiledSystem(transform(system, S)),
            np.array([[float(v) for v in row] for row in S]))


def _delta(report, T):
    return T ** (simulate._block_scaling(report)[0] / 2.0)


def _gvg(G, V):
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
        comp = CompiledSystem(product_pairs_system())
        comp_s, S = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4))
        delta = _delta(pp_report, T)
        thetas, covs, _ = _draw_stack(model, T, 200, 8)
        _, _, (eigs,) = _spectra(_inner(comp_s, thetas, covs, False)[0], (delta,), T)
        for rep in range(200):
            theta, V = draw_estimate(model, T, np.random.default_rng([8, T, rep]))
            SG = S @ comp.jacobian_at(theta)
            sigma = (delta[:, None] * (SG @ V @ SG.T)) * delta[None, :]
            lam = symmetric_eigenvalues(sigma)
            bound = 64 * EPS * np.abs(lam).max()  # ||sigma||_2
            assert np.abs(eigs[rep] - lam).max() <= bound

    @pytest.mark.parametrize("T", [100, 100_000])
    def test_wald_matches_closed_form(self, pp_report, T):
        comp = CompiledSystem(product_pairs_system())
        comp_s, _ = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4))
        thetas, covs, _ = _draw_stack(model, T, 500, 9)
        inner, g = _inner(comp_s, thetas, covs, True)
        W, singular, _ = _spectra(inner, (_delta(pp_report, T),), T, g)
        assert not singular.any()
        G = comp.jacobian_at(thetas)
        cond = np.linalg.cond(G @ np.swapaxes(G, 1, 2))
        closed = np.array([wald_closed_form_product_pairs(t, T) for t in thetas])
        rel = np.abs(W - closed) / np.abs(closed)
        assert (rel <= np.maximum(1e-9, 64 * EPS * cond)).all()

    def test_singular_draw_counted_not_regularised(self):
        comp = CompiledSystem(product_pairs_system())
        rng = np.random.default_rng(10)
        others = PP_THETA + rng.standard_normal((40, 4)) / 10.0
        stack = np.insert(others, 17, PP_THETA, axis=0)
        # G's first row (y, x, 0, 0) vanishes at the null point: zero pivot
        assert not comp.jacobian_at(PP_THETA)[0].any()
        ones = (np.ones(3),)
        W, singular, _ = _spectra(_gvg(comp.jacobian_at(stack), np.eye(4)), ones, 1000,
                                  comp.g_at(stack))
        assert singular.sum() == 1 and singular[17]
        assert np.isnan(W[17])
        W_clean, singular_clean, _ = _spectra(_gvg(comp.jacobian_at(others), np.eye(4)),
                                              ones, 1000, comp.g_at(others))
        assert not singular_clean.any()
        assert np.array_equal(np.delete(W, 17), W_clean)
        with pytest.raises(SingularMetricError):
            wald_statistic(PP_THETA, np.eye(4), comp, 1000)
        with pytest.raises(SingularMetricError):
            wald_statistic(stack, np.eye(4), comp, 1000)

    def test_stacked_evaluation_matches_per_draw(self):
        comp = CompiledSystem(_cubic_system())
        thetas = np.random.default_rng(11).uniform(-2.0, 2.0, size=(50, 3))
        g_stack, G_stack = comp.g_at(thetas), comp.jacobian_at(thetas)
        assert g_stack.shape == (50, 3) and G_stack.shape == (50, 3, 3)
        for theta, g_row, G_row in zip(thetas, g_stack, G_stack):
            assert np.array_equal(g_row, comp.g_at(theta))
            assert np.array_equal(G_row, comp.jacobian_at(theta))

    def test_batch_builds_one_power_table_for_g_and_G(self, monkeypatch):
        comp = CompiledSystem(_cubic_system())
        thetas = np.random.default_rng(11).uniform(-2.0, 2.0, size=(50, 3))
        builds = []
        power_tables = CompiledSystem.power_tables

        def counting_power_tables(self, *args):
            builds.append(args)
            return power_tables(self, *args)

        monkeypatch.setattr(CompiledSystem, "power_tables", counting_power_tables)
        g, G = comp.g_at(thetas), comp.jacobian_at(thetas)
        assert len(builds) == 2
        V = np.diag([1.0, 2.0, 3.0])
        inner, g_kernel = _inner(comp, thetas, V, True)
        assert len(builds) == 3
        assert np.array_equal(g_kernel, g)
        assert np.array_equal(inner, _gvg(G, V))

    @settings(max_examples=200, deadline=None)
    @given(_float_systems(), st.integers(1, 400), st.integers(0, 2**32 - 1))
    @example((2, [{(2, 1): Scalar(1, 1, 2), (0, 1): Scalar(Fraction(-1, 3), 0, 2),
                   (1, 0): Scalar(0, Fraction(5, 7), 2), (0, 0): Scalar(2, -1, 2)},
                  {(3, 0): Scalar(Fraction(1, 9), 1, 2), (1, 2): Scalar(-4, 0, 2)}]), 5, 0)
    def test_plan_matches_dense_oracle(self, spec, n, seed):
        p, terms = spec
        system = RestrictionSystem([f"x{j}" for j in range(p)], [0] * p,
                                   [MultiPoly(p, t) for t in terms])
        comp, dense = CompiledSystem(system), DenseSystem(system)
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
        comp = CompiledSystem(system)
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

        def kernel(cov):
            inner, g = _inner(comp, thetas, cov, True)
            return (g, *_spectra(inner, (delta, 2 * delta), 1000, g))

        unstacked, stacked = kernel(V), kernel(np.broadcast_to(V, (300, 4, 4)).copy())
        for a, b in zip(unstacked, stacked):
            if isinstance(a, tuple):
                assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))
            else:
                assert np.array_equal(a, b, equal_nan=True)

    def test_cholesky_fails_matches_per_matrix(self):
        comp = CompiledSystem(product_pairs_system())
        rng = np.random.default_rng(15)
        others = PP_THETA + rng.standard_normal((40, 4)) / 10.0
        G = comp.jacobian_at(np.insert(others, 17, PP_THETA, axis=0))
        inner = G @ np.swapaxes(G, 1, 2)
        for stack in (np.delete(inner, 17, axis=0), inner):  # batched, then fallback
            failed = _cholesky_fails(stack)
            assert list(np.flatnonzero(failed)) == ([17] if len(stack) == 41 else [])
            for fails, matrix in zip(failed, stack):
                if fails:
                    with pytest.raises(np.linalg.LinAlgError):
                        np.linalg.cholesky(matrix)
                else:
                    np.linalg.cholesky(matrix)


def _spd_stack(q, M, seed):
    """M random SPD q x q matrices, entry-major (q, q, M) as the Jacobi kernel reads them."""
    X = np.random.default_rng(seed).standard_normal((M, q, q + 2))
    return np.ascontiguousarray((X @ np.swapaxes(X, 1, 2)).transpose(1, 2, 0))


def _pinned_two_scaling_draws(pp_report, bad=True):
    """The pinned product-pairs draws at T = 1e3 (2000 reps, seed 42) with
    both block scalings, draw 7 made non-finite when ``bad``: (inner, g,
    scalings, T).  Without it, their stack rotates every matrix at five
    pairs and some but not all at six; a non-finite draw never rotates."""
    comp, _ = _echelonized(product_pairs_system(), pp_report)
    T = 1000
    delta = _delta(pp_report, T)
    scalings = (delta, delta * T ** (simulate._block_scaling(pp_report)[1] / 2.0))
    thetas, covs, _ = _draw_stack(EstimatorModel(PP_THETA, np.eye(4)), T, 2000, 42)
    if bad:
        thetas[7] = np.nan
    inner, g = _inner(comp, thetas, covs, True)
    return inner, g, scalings, T


def _stack_by_full_products(inner, scalings):
    """The Jacobi stack as all q^2 products (d_i a_ij) d_j of each scaling, joined."""
    entries = inner.transpose(1, 2, 0)
    return np.concatenate([d[:, None, None] * entries * d[None, :, None] for d in scalings],
                          axis=2)


def _spectra_by_full_products(inner, scalings, T, g):
    """``_spectra`` on ``_stack_by_full_products``, sorted by np.sort into copies."""
    N = inner.shape[0]
    v = np.zeros((inner.shape[1], 0)) if g is None else scalings[0][:, None] * g.T
    lam, v, _ = _jacobi_stack(_stack_by_full_products(inner, scalings), v)
    ordered = np.sort(lam.T, axis=1)[:, ::-1]
    eigs = tuple(ordered[k * N:(k + 1) * N].copy() for k in range(len(scalings)))
    if g is None:
        return None, None, eigs
    first = lam[:, :N]
    singular = ~(first.min(axis=0) > 0.0)
    W = T * (v * v / np.where(singular, 1.0, first)).sum(axis=0)
    W[singular] = np.nan
    for e in eigs:
        e[singular] = np.nan
    return W, singular, eigs


class TestJacobiKernel:
    """The batched Jacobi of ``_spectra``: masking, closed forms, cap, accuracy."""

    def test_draw_alone_same_bits_as_in_two_scaling_stack(self, pp_report):
        comp, _ = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4))
        T = 10_000
        delta = _delta(pp_report, T)
        scalings = (delta, delta * T ** (simulate._block_scaling(pp_report)[1] / 2.0))
        thetas, covs, _ = _draw_stack(model, T, 2000, 21)
        inner, g = _inner(comp, thetas, covs, True)
        W, singular, eigs = _spectra(inner, scalings, T, g)
        for k in range(0, 2000, 97):
            inner_k, g_k = _inner(comp, thetas[k:k + 1], covs, True)
            for scales in (scalings, scalings[:1]):
                W_k, singular_k, eigs_k = _spectra(inner_k, scales, T, g_k)
                assert W_k.tobytes() == W[k:k + 1].tobytes()
                assert singular_k[0] == singular[k]
                for got, want in zip(eigs_k, eigs):
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

    def test_masked_rotation_same_bits_as_alone(self):
        # most draws are diagonal, so some of the stack does not rotate at a
        # pair and the kernel gives those matrices t = 0
        rng = np.random.default_rng(27)
        M, q = 60, 4
        X = rng.standard_normal((M, q, q + 2))
        inner = X @ np.swapaxes(X, 1, 2)
        diagonal = rng.random(M) < 0.75
        inner[diagonal] = np.eye(q) * rng.uniform(0.5, 2.0, size=(diagonal.sum(), 1, q))
        inner[3] = [[1.0, EPS / 2, 0, 0], [EPS / 2, 1.0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
        inner[5, 1, :] = inner[5, :, 1] = 0.0  # a zero row: singular
        g = rng.standard_normal((M, q))
        # the unit scaling keeps the sub-threshold pair's diagonal equal, so a
        # rotation that ignored the mask would turn it by 45 degrees
        scalings = (np.array([1.0, 10.0, 100.0, 0.5]), np.array([3.0, 1.0, 0.1, 2.0]),
                    np.ones(q))
        # the first pair, (0, 1) of the first sweep, reads the scaled input
        stack = np.concatenate([d[:, None] * inner * d for d in scalings])
        rot = np.abs(stack[:, 0, 1]) > EPS * np.sqrt(np.abs(stack[:, 0, 0] * stack[:, 1, 1]))
        assert 0 < rot.sum() < rot.size and not rot[3::M].any()
        W, singular, eigs = _spectra(inner, scalings, 1000.0, g)
        assert singular[5] and singular.sum() == 1
        for k in range(M):
            alone = _spectra(inner[k:k + 1], scalings, 1000.0, g[k:k + 1])
            assert alone[0].tobytes() == W[k:k + 1].tobytes()
            assert alone[1][0] == singular[k]
            for got, want in zip(alone[2], eigs):
                assert got.tobytes() == want[k:k + 1].tobytes()

    @pytest.mark.parametrize("bad", [False, True])
    def test_kernel_writes_neither_input(self, pp_report, bad):
        inner, g, scalings, T = _pinned_two_scaling_draws(pp_report, bad)
        A = _stack_by_full_products(inner, scalings)
        v = scalings[0][:, None] * g.T
        A_bytes, v_bytes = A.tobytes(), v.tobytes()
        lam, _, sweeps = _jacobi_stack(A, v)
        assert A.tobytes() == A_bytes and v.tobytes() == v_bytes
        nan = np.zeros(lam.shape[1], dtype=bool)
        nan[[7, 2007]] = bad  # draw 7 under both scalings
        assert sweeps >= 4 and np.isnan(lam[:, nan]).all() and np.isfinite(lam[:, ~nan]).all()

    @pytest.mark.parametrize("with_g, bad", [(True, False), (True, True), (False, True)])
    def test_spectra_matches_stack_of_full_products(self, pp_report, monkeypatch, with_g, bad):
        inner, g, scalings, T = _pinned_two_scaling_draws(pp_report, bad)
        g = g if with_g else None
        want = _spectra_by_full_products(inner, scalings, T, g)
        # every float buffer starts as NaN, so an entry read before it is written shows
        empty = np.empty

        def nan_empty(shape, dtype=float):
            return np.full(shape, np.nan) if np.dtype(dtype) == float else empty(shape, dtype)
        monkeypatch.setattr(np, "empty", nan_empty)
        got = _spectra(inner, scalings, T, g)
        for got_x, want_x in zip(got[:2], want[:2]):
            assert (got_x is None) == (want_x is None)
            assert got_x is None or got_x.tobytes() == want_x.tobytes()
        assert len(got[2]) == len(want[2]) == 2
        for got_e, want_e in zip(got[2], want[2]):
            assert got_e.shape == want_e.shape == inner.shape[:2]
            assert got_e.tobytes() == want_e.tobytes()
        assert np.isnan(got[2][0][7]).all() == bad

    def test_mu_along_rows_is_min_over_columns(self, pp_report):
        _, g, _, T = _pinned_two_scaling_draws(pp_report)
        s_deg = simulate._block_scaling(pp_report)[0]
        g[11, 1] = np.nan  # one NaN entry; row 7 is NaN throughout
        g[12] = [0.0, -0.0, 1.0]
        want = np.min((T ** ((s_deg + 1.0) / 2.0) * g) ** 2, axis=1)
        got = simulate._min_scaled_square(T, s_deg, g)
        assert np.isnan(got[[7, 11]]).all() and got[12] == 0.0
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", range(1, 9))
    def test_network_order_is_np_sort(self, q):
        rng = np.random.default_rng(28 + q)
        # few distinct values, so columns hold ties, and some infinities
        lam = rng.integers(-3, 4, size=(q, 500)) * 0.5
        lam[rng.random((q, 500)) < 0.05] = np.inf
        lam[rng.random((q, 500)) < 0.05] = -np.inf
        lam[:, :3] = [np.inf, -np.inf, 1.0]  # columns of one value
        for columns in (lam, np.concatenate([lam, rng.standard_normal((q, 100))], axis=1)):
            want = np.sort(columns.T, axis=1)[:, ::-1]
            assert simulate._descending(columns).tobytes() == want.tobytes()
        nan = lam.copy()
        nan[:, 10] = np.nan  # a column of NaN, as a non-finite draw gives
        nan[0, 20] = np.nan  # and one NaN among numbers
        want = np.sort(nan.T, axis=1)[:, ::-1]
        assert simulate._descending(nan).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 599, 600, 1001])
    def test_median_without_nan_is_nanmedian(self, n):
        x = np.random.default_rng(n).standard_normal((n, 3))
        for axis in (0, None):
            assert simulate._median(x, axis).tobytes() == np.nanmedian(x, axis).tobytes()
        x[n // 2, 1] = np.nan
        if n > 1:  # else the column is all NaN, which nanmedian warns about
            assert simulate._median(x, 0).tobytes() == np.nanmedian(x, 0).tobytes()

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
        comp = CompiledSystem(product_pairs_system())
        G = comp.jacobian_at(PP_THETA[None])
        assert not G[0, 0].any()
        lam, _, _ = _jacobi_stack(_gvg(G, np.eye(4)).transpose(1, 2, 0), np.zeros((3, 0)))
        assert (lam[:, 0] == 0.0).sum() == 1
        inner, g = _inner(comp, PP_THETA[None], np.eye(4), True)
        W, singular, eigs = _spectra(inner, (np.ones(3), np.full(3, 10.0)), 1000, g)
        assert singular[0] and np.isnan(W[0])
        assert all(np.isnan(e).all() for e in eigs)

    @pytest.mark.parametrize("T", [1000, 100_000])
    def test_block_scaled_eigenvalues_against_50_digits(self, pp_report, T):
        mpmath = pytest.importorskip("mpmath")
        comp, _ = _echelonized(product_pairs_system(), pp_report)
        model = EstimatorModel(PP_THETA, np.eye(4))
        thetas, _, _ = _draw_stack(model, T, 200, 42)
        d = _delta(pp_report, T)
        G = comp.jacobian_at(thetas)
        _, _, (kernel,) = _spectra(_inner(comp, thetas, np.eye(4), False)[0], (d,), T)
        lapack = np.linalg.eigvalsh(d[:, None] * _gvg(G, np.eye(4)) * d)[:, ::-1]
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
        comp = CompiledSystem(product_pairs_system())
        thetas = PP_THETA + np.random.default_rng(16).standard_normal((100, 4))
        g, G = comp.g_at(thetas), comp.jacobian_at(thetas)
        for perm in itertools.permutations(range(3)):
            P = [[int(j == k) for j in range(3)] for k in perm]
            comp_p = CompiledSystem(transform(product_pairs_system(), P))
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
        _, _, (eigs,) = _spectra(_inner(comp_s, thetas, covs, False)[0], (_delta(report, T),), T)
        G = jacobian(system)
        with localcontext() as ctx:
            ctx.prec = 50
            S = [[_decimal(v) for v in row] for row in report.echelon.S]
            d = [Decimal(T).sqrt() ** s for s in report.echelon.row_degrees]
            for lam, theta in zip(eigs, thetas):
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

    def test_symbolic_commands_load_no_numpy(self):
        # analyze and rates import only the symbolic layers; simulate's names
        # still resolve through the package, to the simulate module's objects
        spec = Path(__file__).resolve().parents[1] / "fixtures" / "product_pairs.spec"
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            import waldrates
            from waldrates import cli
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["analyze", {str(spec)!r}]),
                         cli.main(["rates", "--samples", "2", {str(spec)!r}])]
            print(codes, [m for m in ("numpy", "waldrates.simulate", "waldrates.verify", "json")
                          if m in sys.modules])
            from waldrates import simulate
            names = [n for n in waldrates.__all__
                     if getattr(getattr(simulate, n, None), "__module__", "") == simulate.__name__]
            print(len(names), all(getattr(waldrates, n) is getattr(simulate, n) for n in names),
                  waldrates.simulate is simulate)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(simulate.__file__).parents[1])] + sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines() == ["[0, 0] []", "17 True True"]

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
            first_failures += int(_cholesky_fails(_perturbed_vhat(model, T, W)[None])[0])
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

        def recording_inner(comp, thetas, cov, wald):
            covs.append(cov)
            return _inner(comp, thetas, cov, wald)

        monkeypatch.setattr(simulate, "_draw_stack", recording_draw_stack)
        monkeypatch.setattr(simulate, "_inner", recording_inner)
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
