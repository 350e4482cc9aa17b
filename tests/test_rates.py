"""Characteristic-polynomial degrees and divergence exponents.

The two golden fixtures pin the determinant coefficient of the product-pairs
system: with the identity covariance it is an exact 7-term polynomial of
minimal degree 4; with the surd covariance every printed coefficient matches
to 1e-4 and the minimal degree jumps to 6.
"""

import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from waldrates import polycore, rates
from waldrates.cli import parse_spec

from waldrates.polycore import (
    INF_DEGREE,
    FieldMismatchError,
    MultiPoly,
    Scalar,
    _ZSqrt,
    parse_polynomial,
)
from waldrates.rates import (
    _RAY_SEED,
    RAY_RANGE,
    Covariance,
    _digits,
    _low_degree,
    _lowest_on_rays,
    _pack,
    _ray_charpoly,
    _ray_coeffs_at,
    _ray_degrees,
    _ray_ring,
    NegativeTDegreeError,
    NonSpdError,
    QTooLargeError,
    build_B,
    charpoly_coeffs,
    min_degree_generic,
    principal_minor_sum,
    rate_report,
    t_graded_coeffs,
)
from waldrates.restriction import (
    PolyMatrix,
    RankDeficientError,
    RestrictionSystem,
    echelonize,
    jacobian,
    recenter,
    transform,
)
from waldrates.simulate import symmetric_eigenvalues
from waldrates.systems import linear_system, product_pairs_system, surd_covariance

from oracle import RayPoly, ray_charpoly, ray_coeffs_at, scalar_ldl_is_definite, scalar_mat_rank

V4 = ["x", "y", "z", "w"]


def poly(text, names=V4):
    return parse_polynomial(text, names)


def _lift(p, drop, y):
    """t^{-drop} p(t*y) as a MultiPoly in t, from public MultiPoly operations
    only, so that it shares no code with the ray kernel."""
    ray = [MultiPoly.variable(0, 1) * yi for yi in y]
    out = MultiPoly.zero(1)
    for mono, coeff in p.terms.items():
        term = MultiPoly.constant(coeff, 1)
        for x, e in zip(ray, mono):
            term = term * x**e
        out = out + term
    return MultiPoly(1, {(j - drop,): c for (j,), c in out.terms.items()})


@pytest.fixture(scope="module")
def centered_jacobian():
    return jacobian(recenter(product_pairs_system()))


class TestCovariance:
    def test_identity(self):
        U = Covariance.identity(3)
        assert U.is_definite
        assert U.entry(0, 0) == Scalar(1)
        assert U.entry(0, 1) == Scalar(0)

    def test_asymmetric_rejected(self):
        with pytest.raises(NonSpdError):
            Covariance([[1, 2], [3, 1]])

    def test_indefinite_rejected(self):
        with pytest.raises(NonSpdError):
            Covariance([[1, 2], [2, 1]])

    def test_zero_pivot_with_nonzero_column_rejected(self):
        with pytest.raises(NonSpdError):
            Covariance([[0, 1], [1, 1]])

    def test_boundary_psd_accepted_but_not_definite(self):
        U = surd_covariance()
        assert not U.is_definite

    def test_random_spd_is_definite(self):
        rng = random.Random(0)
        for _ in range(20):
            assert Covariance.random_spd(3, rng).is_definite

    @pytest.mark.parametrize("p", range(2, 7))
    def test_random_spd_equals_full_ldl_sum(self, p, monkeypatch):
        # L[i][k] = 0 for k > i, so summing k <= min(i, j) drops only zeros;
        # the drawn factor certifies the result, so the LDL' check never runs
        draws = [random.Random(seed) for seed in range(50)]
        fulls = [_full_ldl_rows(p, rng) for rng in draws]
        checked = [Covariance(full) for full in fulls]
        monkeypatch.setattr(rates, "_assert_positive_semidefinite", _forbidden)
        for seed, U in enumerate(checked):
            rng = random.Random(seed)
            got = Covariance.random_spd(p, rng)
            assert rng.getstate() == draws[seed].getstate()
            assert got.entries == U.entries
            assert got.is_definite == U.is_definite
            entries = got.entries
            assert all(entries[i][j] is entries[j][i] or entries[i][j] == entries[j][i]
                       for i in range(p) for j in range(i))


def _forbidden(*args, **kwargs):
    raise AssertionError("called")


def _full_ldl_rows(p, rng):
    """L D L' summed over every k in Fractions, from the L and D that
    ``Covariance.random_spd`` draws from ``rng``, in its order."""
    L = [[Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    for i in range(p):
        for j in range(i):
            L[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    D = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(p)]
    return [[sum(L[i][k] * D[k] * L[j][k] for k in range(p)) for j in range(p)]
            for i in range(p)]


_SURDS = {d: Scalar(0, 1, d) for d in (2, 3)}
_LDL_PARTS = [Fraction(n, k) for n in range(-3, 4) for k in (1, 2) if n or k == 1]
_LDL_ENTRIES = {0: [Scalar(a) for a in _LDL_PARTS]}
_LDL_ENTRIES.update({d: [Scalar(a) + Scalar(b) * root for a in _LDL_PARTS for b in _LDL_PARTS[::2]]
                     for d, root in _SURDS.items()})
_LDL_PIVOTS = [Scalar(Fraction(n, k)) for n in range(1, 9) for k in (1, 2, 4)]


def _certified(certify, grid):
    """is_definite, or the NonSpdError text."""
    try:
        return certify(grid)
    except NonSpdError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((0, 2, 3)), st.integers(1, 5),
       st.sampled_from(("psd", "singular", "indefinite", "zero_pivot", "symmetric")),
       st.integers(0, 4), st.integers(0, 2**32))
def test_integer_ldl_matches_the_field_oracle(d, p, kind, k, seed):
    # V = L D L' with L unit lower-triangular over Q(sqrt(d)): pivots D > 0
    # (psd), D_k = 0 (singular), D_k < 0 (indefinite), D_k = 0 under a
    # column made nonzero (zero_pivot); or any symmetric grid
    rng, k = random.Random(seed), k % p
    L = [[rng.choice(_LDL_ENTRIES[d]) if j < i else Scalar(int(i == j)) for j in range(p)]
         for i in range(p)]
    D = [rng.choice(_LDL_PIVOTS) for _ in range(p)]
    if kind in ("singular", "zero_pivot"):
        D[k] = Scalar(0)
    elif kind == "indefinite":
        D[k] = -D[k]
    V = [[sum((L[i][m] * D[m] * L[j][m] for m in range(p)), Scalar(0)) for j in range(p)]
         for i in range(p)]
    if kind == "zero_pivot" and k + 1 < p:
        i = rng.randrange(k + 1, p)
        V[i][k] = V[k][i] = V[i][k] + rng.choice(_LDL_PIVOTS)
    elif kind == "symmetric":
        V = [[rng.choice(_LDL_ENTRIES[d]) for _ in range(p)] for _ in range(p)]
        V = [[V[max(i, j)][min(i, j)] for j in range(p)] for i in range(p)]
    want = _certified(scalar_ldl_is_definite, V)
    assert _certified(lambda grid: Covariance(grid).is_definite, V) == want
    if kind == "zero_pivot" and k + 1 < p:
        assert want == f"zero pivot {k} with a nonzero column entry: not PSD"
    elif kind in ("psd", "singular", "zero_pivot"):
        assert want is (kind == "psd")
    elif kind == "indefinite":
        assert want == f"pivot {k} of the LDL' factorisation is negative"


class TestBuildB:
    def test_product_pairs_entries(self, centered_jacobian):
        B = build_B(centered_jacobian, Covariance.identity(4))
        assert B.entry(0, 0) == poly("x^2 + y^2")
        assert B.entry(2, 2) == poly("1 + 2*z + z^2 + y^2")
        assert B.entry(1, 2).is_zero()

    def test_symmetry(self, centered_jacobian):
        B = build_B(centered_jacobian, surd_covariance())
        for i, j in itertools.product(range(3), range(3)):
            assert B.entry(i, j) == B.entry(j, i)

    def test_single_row(self):
        G = PolyMatrix([[poly("y"), poly("x"), poly("0"), poly("0")]])
        B = build_B(G, Covariance.identity(4))
        assert B.entry(0, 0) == poly("x^2 + y^2")

    def test_dimension_mismatch(self, centered_jacobian):
        with pytest.raises(ValueError):
            build_B(centered_jacobian, Covariance.identity(3))


class TestCharpolyCoeffs:
    def test_diagonal_constants(self):
        names = ["x"]
        B = PolyMatrix([
            [parse_polynomial("3", names), parse_polynomial("0", names)],
            [parse_polynomial("0", names), parse_polynomial("5", names)],
        ])
        cc = charpoly_coeffs(B)
        assert cc.a[0] == parse_polynomial("-8", names)   # -(3 + 5)
        assert cc.a[1] == parse_polynomial("15", names)   # 3 * 5

    def test_golden_identity_covariance(self, centered_jacobian):
        cc = charpoly_coeffs(build_B(centered_jacobian, Covariance.identity(4)))
        printed = poly(
            "w^2*x^2*y^2 + 2*w*x^2*y^2 + x^4*y^2 + x^2*y^4"
            " + x^2*y^2*z^2 + 2*x^2*y^2*z + 2*x^2*y^2"
        )
        # det(B) = (-1)^q a_q; the 7-term determinant polynomial is exact
        assert -cc.a[2] == printed
        assert len(printed.terms) == 7
        assert cc.m == (0, 0, 4)

    def test_golden_surd_covariance(self, centered_jacobian):
        cc = charpoly_coeffs(build_B(centered_jacobian, surd_covariance()))
        assert cc.m[2] == 6
        det = -cc.a[2]
        # printed decimal coefficients, variable order (x, y, z, w)
        printed = {
            (2, 2, 0, 2): 0.01,      # w^2 x^2 y^2
            (3, 2, 0, 1): -0.19799,  # w x^3 y^2
            (2, 3, 0, 1): -0.2,      # w x^2 y^3
            (2, 2, 1, 1): -0.02,     # w x^2 y^2 z
            (4, 2, 0, 0): 0.98,      # x^4 y^2
            (3, 3, 0, 0): 1.9799,    # x^3 y^3
            (3, 2, 1, 0): 0.19799,   # x^3 y^2 z
            (2, 4, 0, 0): 1.0,       # x^2 y^4
            (2, 3, 1, 0): 0.2,       # x^2 y^3 z
            (2, 2, 2, 0): 0.01,      # x^2 y^2 z^2
        }
        assert set(det.terms) == set(printed)
        for mono, value in printed.items():
            assert float(det.terms[mono]) == pytest.approx(value, abs=1e-4)

    def test_det_consistency_direct_expansion(self, centered_jacobian):
        # independent oracle: Leibniz expansion over all 3! permutations
        B = build_B(centered_jacobian, Covariance.identity(4))
        det = MultiPoly.zero(4)
        for perm in itertools.permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = MultiPoly.constant(sign, 4)
            for i in range(3):
                term = term * B.entry(i, perm[i])
            det = det + term
        assert principal_minor_sum(B, 3) == det
        assert charpoly_coeffs(B).a[2] == -det

    def test_zero_coefficient_degree_is_infinite(self):
        names = ["x"]
        B = PolyMatrix([
            [parse_polynomial("x", names), parse_polynomial("x", names)],
            [parse_polynomial("x", names), parse_polynomial("x", names)],
        ])
        cc = charpoly_coeffs(B)
        assert cc.a[1].is_zero()
        assert cc.m[1] == INF_DEGREE

    def test_q_cap(self):
        names = ["x"]
        one = parse_polynomial("1", names)
        zero = parse_polynomial("0", names)
        B = PolyMatrix([[one if i == j else zero for j in range(9)] for i in range(9)])
        with pytest.raises(QTooLargeError):
            charpoly_coeffs(B)


class TestSymmetricPolynomialIdentity:
    def test_numeric_eigenvalues_match_coefficients(self, centered_jacobian):
        rng = random.Random(11)
        for _ in range(20):
            U = Covariance.random_spd(4, rng)
            B = build_B(centered_jacobian, U)
            cc = charpoly_coeffs(B)
            point = [Fraction(rng.choice([-1, 1]) * rng.randint(50, 200), 100)
                     for _ in range(4)]
            B_num = np.array([[float(B.entry(i, j).evaluate(point))
                               for j in range(3)] for i in range(3)])
            lam = symmetric_eigenvalues(B_num)
            for k in range(1, 4):
                pk = sum(
                    float(np.prod([lam[i] for i in combo]))
                    for combo in itertools.combinations(range(3), k)
                )
                ak = (-1) ** k * float(cc.a[k - 1].evaluate(point))
                assert pk == pytest.approx(ak, rel=1e-8, abs=1e-10)


class TestTGradedCoeffs:
    def test_identity_covariance_grading(self, centered_jacobian):
        ech = echelonize(centered_jacobian)
        gammas = t_graded_coeffs(ech.full_matrix, Covariance.identity(4), ech)
        assert gammas == [Fraction(0), Fraction(0), Fraction(1)]

    def test_full_rank_constant_all_zero(self):
        G = jacobian(linear_system(3))
        ech = echelonize(G)
        gammas = t_graded_coeffs(ech.full_matrix, Covariance.identity(3), ech)
        assert gammas == [Fraction(0)] * 3

    def test_surd_covariance_grading(self, centered_jacobian):
        ech = echelonize(centered_jacobian)
        gammas = t_graded_coeffs(ech.full_matrix, surd_covariance(), ech)
        assert gammas == [Fraction(0), Fraction(0), Fraction(2)]

    def test_wrong_block_degrees_rejected(self, centered_jacobian):
        ech = echelonize(centered_jacobian)
        inflated = ech.__class__(
            S=ech.S,
            blocks=ech.blocks,
            low_matrix=ech.low_matrix,
            full_matrix=ech.full_matrix,
            row_degrees=(1, 1, 2),  # claims degrees above the true lows
        )
        with pytest.raises(NegativeTDegreeError):
            t_graded_coeffs(ech.full_matrix, Covariance.identity(4), inflated)

    def test_trivial_blocks_reproduce_plain_coefficients(self):
        # all block degrees zero: the ray lift at t = 1 is G(y), and its
        # charpoly at t = 1 is the unscaled a_k at y
        names = ["x", "y", "z"]
        sysd = RestrictionSystem(names, (0, 0, 0),
                                 (parse_polynomial("x + y^2", names),
                                  parse_polynomial("y + x*z - z^3", names)))
        G = jacobian(recenter(sysd))
        ech = echelonize(G)
        assert all(s == 0 for _, s in ech.blocks)
        U = Covariance.random_spd(3, random.Random(5))
        y = [3, -7, 11]
        lifted = PolyMatrix([[_lift(p, 0, y) for p in ech.full_matrix.row(i)]
                             for i in range(2)])
        assert lifted.nvars == 1
        assert lifted.evaluate([1]) == ech.full_matrix.evaluate(y)
        on_ray = charpoly_coeffs(build_B(lifted, U))
        plain = charpoly_coeffs(build_B(ech.full_matrix, U))
        for a_ray, a_plain in zip(on_ray.a, plain.a):
            assert a_ray.evaluate([1]) == a_plain.evaluate(y)


class TestRateReport:
    def test_identity_covariance(self):
        rep = rate_report(product_pairs_system(), Covariance.identity(4),
                          rng=random.Random(5))
        assert rep.rank_r == 2
        assert rep.beta == (Fraction(0), Fraction(0), Fraction(1))
        assert rep.beta_bar == 1
        assert rep.divergence_predicted
        assert rep.echelon.blocks == ((2, 0), (1, 1))
        assert rep.char_m == (0, 0, 4)

    def test_surd_covariance(self):
        rep = rate_report(product_pairs_system(), surd_covariance(),
                          rng=random.Random(5))
        assert rep.beta[2] == 2
        assert rep.beta_bar == 2
        assert rep.char_m == (0, 0, 6)

    def test_linear_no_divergence(self):
        rep = rate_report(linear_system(2), Covariance.identity(2),
                          rng=random.Random(5))
        assert rep.beta_bar == 0
        assert not rep.divergence_predicted

    def test_gamma_monotone_and_zero_up_to_rank(self):
        for U in (Covariance.identity(4), surd_covariance()):
            rep = rate_report(product_pairs_system(), U, rng=random.Random(6))
            assert all(g2 >= g1 for g1, g2 in zip(rep.gamma, rep.gamma[1:]))
            assert all(rep.gamma[k] == 0 for k in range(rep.rank_r))

    def test_v_singular_along_the_low_rows_is_a_precondition(self):
        # G = [1, 2y] has low row [1, 0], rank 1, but V = diag(0, 1) leaves
        # only B = 4y^2, so gamma_1 = 1 at rank 1
        sys = RestrictionSystem(["x", "y"], [0, 0], [parse_polynomial("x + y^2", ["x", "y"])])
        with pytest.raises(NonSpdError) as err:
            rate_report(sys, Covariance([[0, 0], [0, 1]]))
        assert str(err.value) == ("grading exponent gamma_1 = 1 nonzero at or below rank "
                                  "r = 1: V is singular along the lowest-degree rows")

    def test_definite_v_is_not_blamed_when_every_ray_misses(self, monkeypatch):
        # only rays that all meet a root of a_1's lowest part give a definite V
        # a nonzero gamma_1 at rank 2
        monkeypatch.setattr(rates, "t_graded_coeffs",
                            lambda G, U, ech: [Fraction(1), Fraction(1), Fraction(2)])
        with pytest.raises(NonSpdError) as err:
            rate_report(product_pairs_system(), Covariance.identity(4))
        assert str(err.value) == ("grading exponent gamma_1 = 1 nonzero at or below rank "
                                  "r = 2: every ray met a root of its lowest-degree part")


class TestMinDegreeGeneric:
    def test_product_pairs_detects_generic_four(self, centered_jacobian):
        assert min_degree_generic(centered_jacobian, samples=5,
                                  rng_seed=3)[2] == 4

    def test_trace_has_constant_term(self, centered_jacobian):
        assert min_degree_generic(centered_jacobian, samples=3,
                                  rng_seed=3)[0] == 0

    def test_k2_matches_exhaustive_sampling(self):
        sysd = product_pairs_system()
        G = jacobian(recenter(sysd))
        rng = random.Random(21)
        best = charpoly_coeffs(build_B(G, Covariance.identity(4))).m[1]
        for _ in range(5):
            U = Covariance.random_spd(4, rng)
            best = min(best, charpoly_coeffs(build_B(G, U)).m[1])
        assert min_degree_generic(G, samples=5, rng_seed=21)[1] == best

    def test_reads_g_once_per_call(self, centered_jacobian, monkeypatch):
        calls = []
        g_half = rates._ray_g_half
        monkeypatch.setattr(rates, "_ray_g_half",
                            lambda *args: calls.append(args) or g_half(*args))
        min_degree_generic(centered_jacobian, samples=5, rng_seed=3)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 3, 24])
    def test_equals_one_ray_per_fully_checked_covariance(self, seed):
        # the same draws, each U through the public constructor's LDL' check
        g = tuple(poly(text) for text in ("sqrt(2)*x*y + z^2", "x*w - 1/3*sqrt(2)*y^2",
                                          "y*z + 2/5*w^3 + sqrt(2)*x"))
        G = jacobian(recenter(RestrictionSystem(V4, (0, 0, 0, 0), g)))
        rng, rays = random.Random(seed), random.Random(_RAY_SEED + seed)
        best = [INF_DEGREE] * G.rows
        for _ in range(5):
            U = Covariance(_full_ldl_rows(G.cols, rng))
            best = list(map(min, best, _lowest_on_rays(G, [_ray_ring(G, U, (0,) * G.rows)],
                                                       rays)))
        assert min_degree_generic(G, samples=5, rng_seed=seed) == tuple(best)

    def test_generic_degree_is_lower_bound(self):
        # m_k(U) >= generic m_k, with equality for >= 90% of random draws
        sysd = product_pairs_system()
        G = jacobian(recenter(sysd))
        generic = min_degree_generic(G, samples=10, rng_seed=1)[2]
        rng = random.Random(77)
        hits = 0
        for _ in range(50):
            U = Covariance.random_spd(4, rng)
            m3 = charpoly_coeffs(build_B(G, U)).m[2]
            assert m3 >= generic
            hits += m3 == generic
        assert hits >= 45


# -- ray-restricted degrees against the multivariate oracle -------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _graded_oracle(G, U, echelon):
    """gamma_k from the multivariate t-lift: row i becomes t^{-s_i} G_i(t*x)
    over (t, x), and gamma_k is half the lowest t-exponent of a_k."""
    lifted = PolyMatrix([
        [MultiPoly(G.nvars + 1, {(sum(m) - s, *m): c for m, c in p.terms.items()})
         for p in row]
        for row, s in zip(G.entries, echelon.row_degrees)
    ])
    return [None if a.is_zero() else Fraction(min(m[0] for m in a.terms), 2)
            for a in charpoly_coeffs(build_B(lifted, U)).a]


@st.composite
def small_systems(draw):
    """Systems with p <= 4, q <= 3, degree <= 3, null point 0, and a random
    exact SPD covariance or (p = 4) the boundary-PSD surd covariance."""
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, min(p, 3)))
    monos = [m for m in itertools.product(range(4), repeat=p) if 1 <= sum(m) <= 3]
    g = tuple(
        MultiPoly(p, draw(st.dictionaries(st.sampled_from(monos),
                                          st.sampled_from((-3, -2, -1, 1, 2, 3)),
                                          min_size=1, max_size=4)))
        for _ in range(q)
    )
    names = [f"x{i}" for i in range(p)]
    if p == 4 and draw(st.booleans()):
        U = surd_covariance()
    else:
        U = Covariance.random_spd(p, random.Random(draw(st.integers(0, 2**32))))
    return RestrictionSystem(names, (0,) * p, g), U


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_systems())
def test_ray_degrees_match_multivariate_oracle(case):
    sysd, U = case
    G = jacobian(sysd)
    try:
        ech = echelonize(G)
    except RankDeficientError:
        assume(False)
    assert _ray_degrees(G, U) == charpoly_coeffs(build_B(G, U)).m
    assert t_graded_coeffs(ech.full_matrix, U, ech) == \
        _graded_oracle(ech.full_matrix, U, ech)


# -- metamorphic: relabelling the parameters or the restrictions --------------


@st.composite
def shifted_systems(draw):
    """small_systems moved to an integer null point: g(theta) = h(theta - theta_bar)."""
    sysd, U = draw(small_systems())
    theta_bar = [draw(st.integers(-2, 2)) for _ in range(sysd.p)]
    g = tuple(h.shift_origin([-t for t in theta_bar]) for h in sysd.g)
    return RestrictionSystem(sysd.var_names, theta_bar, g), U


def _invariants(sysd, U):
    try:
        report = rate_report(sysd, U, rng=random.Random(0))
    except RankDeficientError:
        return "rank deficient"
    return report.rank_r, report.echelon.blocks, report.beta_bar


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shifted_systems(), st.randoms(use_true_random=False))
@example((product_pairs_system(), surd_covariance()), random.Random(3))
def test_invariants_under_variable_permutation(case, rnd):
    # variable k of the permuted system is variable perm[k] of the original
    sysd, U = case
    perm = list(range(sysd.p))
    rnd.shuffle(perm)
    permuted = RestrictionSystem(
        [sysd.var_names[i] for i in perm],
        [sysd.theta_bar[i] for i in perm],
        tuple(MultiPoly(sysd.p, {tuple(m[i] for i in perm): c for m, c in h.terms.items()})
              for h in sysd.g),
    )
    U_perm = Covariance([[U.entry(i, j) for j in perm] for i in perm])
    assert _invariants(permuted, U_perm) == _invariants(sysd, U)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shifted_systems(),
       st.lists(st.fractions(-3, 3, max_denominator=3), min_size=9, max_size=9))
@example((product_pairs_system(), surd_covariance()), [1, 1, 0, 0, 1, 2, 1, 0, 1])
def test_invariants_under_invertible_constant_transform(case, entries):
    sysd, U = case
    q = sysd.q
    S = [entries[i * q:(i + 1) * q] for i in range(q)]
    assume(scalar_mat_rank(S) == q)
    assert _invariants(transform(sysd, S), U) == _invariants(sysd, U)


class _FixedRay:
    """A ray stream that hands out the given coordinates in order."""

    def __init__(self, y):
        self._y = iter(y)

    def randint(self, lo, hi):
        return next(self._y)


class _CountingRays:
    """A ray stream of ones that counts the coordinates it hands out."""

    def __init__(self):
        self.draws = 0

    def randint(self, lo, hi):
        self.draws += 1
        return 1


def test_wrong_block_degree_raises_before_any_ray(centered_jacobian):
    # the ray set-up reads G once, so a block degree above a row's lowest
    # degree fails before the first ray coordinate is drawn
    ech = echelonize(centered_jacobian)
    rays = _CountingRays()
    with pytest.raises(NegativeTDegreeError,
                       match="^monomial of degree 0 under block scaling 1$"):
        _lowest_on_rays(ech.full_matrix, [_ray_ring(ech.full_matrix, Covariance.identity(4),
                                                    (1, 1, 2))], rays)
    assert rays.draws == 0


@pytest.mark.parametrize("coeff, surd", [("3/2", False), ("3/2*sqrt(2)", True)])
def test_ray_kernel_does_no_scalar_arithmetic(monkeypatch, coeff, surd):
    # G's coefficients are read into ints once; every ray then runs on ints,
    # and the exact a_k are built without testing the radicand again
    G = PolyMatrix([[poly(f"{coeff}*x*y + 1/3*z^2"), poly("y - 5/7"), poly("x*w"), poly("0")],
                    [poly("x^2"), poly(f"{coeff}*z"), poly("2/5*y*z"), poly("w - 1/2")]])
    U = surd_covariance() if surd else Covariance.random_spd(4, random.Random(1))
    oracle = charpoly_coeffs(build_B(G, U))
    y, t0 = [3, -1, 2, 5], Fraction(1, 100)
    want_at = [a_k.evaluate([t0 * yi for yi in y]) for a_k in oracle.a]

    def forbidden(*args):
        raise AssertionError("Scalar arithmetic in the ray kernel")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, forbidden)
    monkeypatch.setattr(polycore, "_is_square_free", forbidden)
    assert _ray_degrees(G, U) == oracle.m
    assert _ray_coeffs_at(*_ray_charpoly(_ray_ring(G, U, (0, 0)), y), t0) == want_at


@st.composite
def ray_cases(draw):
    """A q x p matrix G (p <= 4, q <= 3) of polynomials of degree <= 3 with
    coefficients in Q(sqrt(2)), a random exact SPD U or (p = 4) the sqrt(2)
    surd covariance, a ray y with small entries (zeros included, so entries
    cancel on it) and row drops up to each row's lowest degree."""
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, min(p, 3)))
    monos = [m for m in itertools.product(range(4), repeat=p) if sum(m) <= 3]
    coeffs = st.sampled_from((-3, -1, 1, 2, Fraction(2, 3), Fraction(-5, 4),
                              Scalar(0, 1, 2), Scalar(1, Fraction(-1, 2), 2)))
    G = PolyMatrix([[MultiPoly(p, draw(st.dictionaries(st.sampled_from(monos), coeffs,
                                                       max_size=3)))
                     for _ in range(p)] for _ in range(q)])
    drops = [draw(st.integers(0, min(min(e.lowest_degree() for e in row), 2)))
             for row in G.entries]
    if p == 4 and draw(st.booleans()):
        U = surd_covariance()
    else:
        U = Covariance.random_spd(p, random.Random(draw(st.integers(0, 2**32))))
    y = draw(st.lists(st.integers(-2, 2), min_size=p, max_size=p))
    return G, U, y, drops


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ray_cases())
def test_integer_ray_degrees_match_charpoly_on_the_same_ray(case):
    G, U, y, drops = case
    lifted = PolyMatrix([[_lift(e, drop, y) for e in row]
                         for row, drop in zip(G.entries, drops)])
    want = charpoly_coeffs(build_B(lifted, U)).m
    assert _lowest_on_rays(G, [_ray_ring(G, U, drops)], _FixedRay(y)) == want


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ray_cases(), st.sampled_from((Fraction(1), Fraction(1, 100))))
def test_ray_coefficients_at_a_point_match_multivariate_oracle(case, t0):
    # what verify reads: a_k(t0*y) from the scaled integer ray charpoly
    G, U, y, _ = case
    got = _ray_coeffs_at(*_ray_charpoly(_ray_ring(G, U, (0,) * G.rows), y), t0)
    want = [a_k.evaluate([t0 * yi for yi in y]) for a_k in charpoly_coeffs(build_B(G, U)).a]
    assert got == want


def _ray_poly(terms):
    """{t-degree: Scalar} with integer parts, as a Z[sqrt(2)][t] list entry."""
    size = max(terms, default=-1) + 1
    parts = [[int(getattr(terms.get(j, Scalar(0)), part)) for j in range(size)]
             for part in "ab"]
    for c in parts:
        while c and not c[-1]:
            c.pop()
    return RayPoly(*parts, 2)


def _ray_terms(r):
    return {(j,): Scalar(a, b, 2)
            for j, (a, b) in enumerate(itertools.zip_longest(r.a, r.b, fillvalue=0))
            if a or b}


_small = st.integers(-3, 3)
_univariate = st.dictionaries(st.integers(0, 4),
                              st.builds(Scalar, _small, _small, st.just(2)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(_univariate, _univariate)
def test_ray_ring_matches_scalar_polynomials(f, g):
    # the oracle's list entries against MultiPoly over Q(sqrt(2)), including
    # pure-surd lowest coefficients and exact cancellation
    x, y = _ray_poly(f), _ray_poly(g)
    mf = MultiPoly(1, {(j,): c for j, c in f.items()})
    mg = MultiPoly(1, {(j,): c for j, c in g.items()})
    for got, want in ((x, mf), (x + y, mf + mg), (x - y, mf - mg), (x * y, mf * mg),
                      (x - x, mf - mf)):
        assert _ray_terms(got) == want.terms
        assert got.lowest_degree() == want.lowest_degree()
        assert got.is_zero() == want.is_zero()
        assert all(not c or c[-1] for c in (got.a, got.b))  # no trailing zeros


#: Slot width for _univariate products: each coefficient of f * g is at most
#: 4 * (9 + 2 * 9) = 108 < 2^8 in magnitude, so 9 bits hold it in balanced digits.
_K = 9


def _packed(terms):
    """{t-degree: Scalar} with integer parts, packed at t = 2^_K in Z[sqrt(2)]."""
    size = max(terms, default=-1) + 1
    return _ZSqrt(*(_pack([int(getattr(terms.get(j, Scalar(0)), part)) for j in range(size)],
                          _K) for part in "ab"), 2)


def _packed_terms(v):
    return {(j,): Scalar(a, b, 2)
            for j, (a, b) in enumerate(itertools.zip_longest(_digits(v.a, _K), _digits(v.b, _K),
                                                             fillvalue=0))
            if a or b}


@settings(max_examples=300, deadline=None)
@given(_univariate, _univariate)
def test_packed_ring_matches_scalar_polynomials(f, g):
    # the kernel's packed values against MultiPoly over Q(sqrt(2)): +, - and *
    # at t = 2^K, read back by digits and by the valuation, negative digits,
    # pure-surd lowest coefficients and exact cancellation included
    x, y = _packed(f), _packed(g)
    mf = MultiPoly(1, {(j,): c for j, c in f.items()})
    mg = MultiPoly(1, {(j,): c for j, c in g.items()})
    for got, want in ((x, mf), (x + y, mf + mg), (x - y, mf - mg), (x * y, mf * mg),
                      (x - x, mf - mf)):
        assert _packed_terms(got) == want.terms
        assert _low_degree(got, _K) == want.lowest_degree()
        assert (not got) == want.is_zero()


def _scalars(d):
    """Coefficients over Q, or over Q(sqrt(d)) for d > 0, small and large."""
    rational = [-3, -1, 1, 2, Fraction(2, 3), Fraction(-5, 4), Fraction(999_983, 7)]
    if not d:
        return rational
    return rational + [Scalar(0, 1, d), Scalar(1, Fraction(-1, 2), d), Scalar(-7, 3, d)]


def _surd_u(p, d):
    """The identity with a surd pair b*sqrt(d) at (0, 1), |b sqrt(d)| < 1/2."""
    s = Scalar(0, Fraction(1, 2 * (math.isqrt(d) + 1)), d)
    return Covariance([[1 if i == j else s if {i, j} == {0, 1} else 0 for j in range(p)]
                       for i in range(p)])


@functools.cache
def _monos(p):
    """Monomials of total degree <= 3 in p variables."""
    return [m for m in itertools.product(range(4), repeat=p) if sum(m) <= 3]


@st.composite
def full_size_rays(draw):
    """A q x p matrix G (q <= 6, p = q or q + 1) of polynomials of degree <= 3
    over Q, Q(sqrt(2)) or Q(sqrt(9999999967)), a random exact SPD U or a surd
    one, a ray with |y_i| <= RAY_RANGE and row drops up to each row's lowest
    degree, so every ray entry has t-degree <= 3."""
    q = draw(st.integers(1, 6))
    p = draw(st.integers(q, q + 1))
    d = draw(st.sampled_from((0, 2, 9999999967)))
    coeffs = st.sampled_from(_scalars(d))
    G = PolyMatrix([[MultiPoly(p, draw(st.dictionaries(st.sampled_from(_monos(p)), coeffs,
                                                       max_size=3)))
                     for _ in range(p)] for _ in range(q)])
    drops = [draw(st.integers(0, min(min(e.lowest_degree() for e in row), 2)))
             for row in G.entries]
    if d and p >= 2 and draw(st.booleans()):
        U = _surd_u(p, d)
    else:
        U = Covariance.random_spd(p, random.Random(draw(st.integers(0, 2**32))))
    y = draw(st.lists(st.integers(-RAY_RANGE, RAY_RANGE), min_size=p, max_size=p))
    return G, U, y, drops


def _dense_case(q, d, seed):
    """A q x (q + 1) G with three terms of degree <= 3 in every entry over
    Q(sqrt(d)), a random exact SPD U and a ray at full range."""
    rng = random.Random(seed)
    p = q + 1
    monos, scalars = _monos(p), _scalars(d)
    G = PolyMatrix([[MultiPoly(p, {rng.choice(monos): rng.choice(scalars) for _ in range(3)})
                     for _ in range(p)] for _ in range(q)])
    y = [rng.randint(-RAY_RANGE, RAY_RANGE) for _ in range(p)]
    return G, Covariance.random_spd(p, rng), y, [0] * q


def _pure_surd_case():
    """B = x^2 sqrt(2)/2 + ... + y^4 on G = [x + y^2, -x], U = [[1, u], [u, 1]]
    with u = 1 - sqrt(2)/4: the rational part cancels below t^4, the surd part
    starts at t^2."""
    u = Scalar(1, Fraction(-1, 4), 2)
    G = PolyMatrix([[MultiPoly(2, {(1, 0): 1, (0, 2): 1}), MultiPoly(2, {(1, 0): -1})]])
    return G, Covariance([[1, u], [u, 1]]), [3, -2], [0]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(full_size_rays())
@example(_dense_case(8, 9999999967, 8))
@example(_pure_surd_case())
def test_packed_kernel_matches_the_list_kernel_on_the_same_ray(case):
    # the packed Berkowitz kernel against the list ring's Laplace expansion on
    # the same ray: the bound on K, the Toeplitz steps and the valuation
    G, U, y, drops = case
    (K, packed), c = _ray_charpoly(_ray_ring(G, U, drops), y)
    sums, c_want = ray_charpoly(G, U, drops, y)
    assert c == c_want
    assert _lowest_on_rays(G, [_ray_ring(G, U, drops)], _FixedRay(y)) == \
        tuple(s.lowest_degree() for s in sums)
    for t0 in (Fraction(1), Fraction(1, 100)):
        assert _ray_coeffs_at((K, packed), c, t0) == ray_coeffs_at(sums, c_want, t0)


def test_ray_degrees_reject_two_radicands():
    G = PolyMatrix([[poly("sqrt(2)*x"), poly("y"), poly("z"), poly("w")]])
    s = Scalar(0, Fraction(1, 10), 3)
    U = Covariance([[1, s, 0, 0], [s, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(FieldMismatchError):
        _ray_degrees(G, U)
    with pytest.raises(FieldMismatchError):
        build_B(G, U)


def _sympy_scalar(value):
    return sympy.Rational(value.a) + sympy.Rational(value.b) * sympy.sqrt(value.d)


@pytest.mark.parametrize("name", [
    "product_pairs.spec",
    "product_pairs_cov98.spec",
    "linear_q1.spec",
    "linear_q2.spec",
])
def test_ray_coefficients_match_sympy_charpoly(name):
    # sympy differentiates, recentres, restricts to the ray and expands the
    # charpoly on its own, from the spec file's text
    text = (FIXTURES / name).read_text()
    lines = [line.split("#", 1)[0].split(None, 1) for line in text.splitlines()]
    lines = [(key, rest.strip()) for key, rest in (ln for ln in lines if ln)]
    names = next(rest for key, rest in lines if key == "vars").split()
    syms = sympy.symbols(names)
    local = dict(zip(names, syms))
    g = sympy.Matrix([sympy.sympify(rest.replace("^", "**"), locals=local, rational=True)
                      for key, rest in lines if key == "g"])
    v_rows = [rest.split() for key, rest in lines if key == "V"]
    V = sympy.eye(len(names)) if v_rows == [["identity"]] else sympy.Matrix(
        [[sympy.sympify(e, rational=True) for e in row] for row in v_rows])
    theta_bar = [sympy.sympify(e, rational=True)
                 for e in next(rest for key, rest in lines if key == "theta_bar").split()]

    t, lam = sympy.symbols("t lambda")
    y = [random.Random(name).randint(-RAY_RANGE, RAY_RANGE) for _ in names]
    J = g.jacobian(syms).subs({s: b + t * c for s, b, c in zip(syms, theta_bar, y)},
                              simultaneous=True)
    want = (J * V * J.T).expand().charpoly(lam).all_coeffs()[1:]

    spec = parse_spec(FIXTURES / name)
    G = jacobian(recenter(spec.to_restriction_system()))
    on_ray = PolyMatrix([[_lift(p, 0, y) for p in row] for row in G.entries])
    got = charpoly_coeffs(build_B(on_ray, spec.covariance)).a
    assert len(got) == len(want)
    for a_k, w_k in zip(got, want):
        mine = sum((_sympy_scalar(c) * t**m[0] for m, c in a_k.terms.items()),
                   sympy.Integer(0))
        assert sympy.expand(mine - w_k) == 0
