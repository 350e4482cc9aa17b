"""Restriction systems: recentring, Jacobians, echelon forms, rank, FRALD."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waldrates.polycore import MultiPoly, Scalar, parse_polynomial
from waldrates.restriction import (
    NullViolatedError,
    PolyMatrix,
    RankDeficientError,
    RestrictionSystem,
    _bareiss_rank,
    echelonize,
    frald_check,
    jacobian,
    RANK_POINT_RANGE,
    poly_rank,
    recenter,
    transform,
)
from waldrates.systems import linear_system, product_pairs_system

from oracle import scalar_mat_rank

V4 = ["x", "y", "z", "w"]


def poly(text, names=V4):
    return parse_polynomial(text, names)


def constant_matrix(S, nvars):
    """The scalar matrix S as a PolyMatrix of constants, so that S @ G is the
    PolyMatrix product."""
    return PolyMatrix([[MultiPoly.constant(v, nvars) for v in row] for row in S])


def poly_matrix(rows, names=V4):
    return PolyMatrix([[poly(t, names) for t in row] for row in rows])


class TestRecenter:
    def test_product_pairs(self):
        centered = recenter(product_pairs_system())
        assert list(centered.g) == [poly("x*y"), poly("x + x*w"), poly("y + y*z")]
        assert all(t.is_zero() for t in centered.theta_bar)

    def test_zero_null_point_unchanged(self):
        sys0 = RestrictionSystem(["x", "y"], [0, 0], [poly("x*y", ["x", "y"])])
        assert recenter(sys0) is sys0

    def test_linear_shift(self):
        sys1 = RestrictionSystem(["x"], [1], [parse_polynomial("x - 1", ["x"])])
        assert recenter(sys1).g[0] == parse_polynomial("x", ["x"])

    def test_null_violated(self):
        bad = RestrictionSystem(V4, [1, 1, 1, 1],
                                [poly("x*y"), poly("x*w"), poly("y*z")])
        with pytest.raises(NullViolatedError):
            recenter(bad)

    def test_null_violated_at_zero_point(self):
        # at theta_bar = 0 nothing is shifted; the residual is g's constant term
        bad = RestrictionSystem(["x", "y"], [0, 0], [poly("x*y - 3/2", ["x", "y"])])
        with pytest.raises(NullViolatedError, match=r"restrictions \[0\] .*: -3/2$"):
            recenter(bad)

    def test_null_violated_text_at_surd_point(self):
        # residuals g_i(theta_bar), read off the shifted constant terms
        names = ["x", "y", "z"]
        bad = RestrictionSystem(names, [Scalar(0, 1, 2), 1, 0],
                                [poly(t, names) for t in ("x^2 - 2", "x*y + y^2", "x^3 - 3*x*y")])
        with pytest.raises(NullViolatedError) as err:
            recenter(bad)
        assert str(err.value) == \
            "restrictions [1, 2] are nonzero at the null point: 1+sqrt(2), -sqrt(2)"


class TestJacobian:
    def test_product_pairs_rows(self):
        G = jacobian(recenter(product_pairs_system()))
        assert list(G.row(0)) == [poly("y"), poly("x"), poly("0"), poly("0")]
        assert list(G.row(1)) == [poly("1 + w"), poly("0"), poly("0"), poly("x")]
        assert list(G.row(2)) == [poly("0"), poly("1 + z"), poly("y"), poly("0")]

    def test_linear_system_constant(self):
        G = jacobian(linear_system(2))
        assert G.entry(0, 0) == MultiPoly.constant(1, 2)
        assert G.entry(0, 1).is_zero()

    def test_squares(self):
        sys2 = RestrictionSystem(["x", "y"], [0, 0],
                                 [poly("x^2", ["x", "y"]), poly("y^2", ["x", "y"])])
        G = jacobian(sys2)
        assert G.entry(0, 0) == poly("2*x", ["x", "y"])
        assert G.entry(0, 1).is_zero()
        assert G.entry(1, 1) == poly("2*y", ["x", "y"])


class TestLowestMatrix:
    """The echelon form's low matrix: each row's lowest-degree homogeneous part."""

    def test_constant_entry_drops_higher_terms(self):
        ech = echelonize(poly_matrix([["1 + w", "0", "0", "x"]]))
        assert list(ech.low_matrix.row(0)) == [poly("1"), poly("0"), poly("0"), poly("0")]
        assert ech.row_degrees == (0,)
        rest = [p - low for p, low in zip(ech.full_matrix.row(0), ech.low_matrix.row(0))]
        assert rest == [poly("w"), poly("0"), poly("0"), poly("x")]

    def test_homogeneous_row_kept_whole(self):
        ech = echelonize(poly_matrix([["y", "x", "0", "0"]]))
        assert list(ech.low_matrix.row(0)) == [poly("y"), poly("x"), poly("0"), poly("0")]
        assert ech.row_degrees == (1,)
        assert ech.low_matrix == ech.full_matrix

    def test_constant_matrix(self):
        M = poly_matrix([["1", "2"], ["3", "4"]], ["x", "y"])
        ech = echelonize(M)
        assert ech.low_matrix == M
        assert ech.row_degrees == (0, 0)
        assert ech.full_matrix == M

    def test_zero_row_rejected(self):
        with pytest.raises(RankDeficientError):
            echelonize(poly_matrix([["0", "0", "0", "0"]]))


class TestEchelonize:
    def test_product_pairs_structure(self):
        ech = echelonize(jacobian(recenter(product_pairs_system())))
        assert ech.blocks == ((2, 0), (1, 1))
        assert ech.row_degrees == (0, 0, 1)
        assert list(ech.low_matrix.row(0)) == [poly("1"), poly("0"), poly("0"), poly("0")]
        assert list(ech.low_matrix.row(1)) == [poly("0"), poly("1"), poly("0"), poly("0")]
        assert list(ech.low_matrix.row(2)) == [poly("y"), poly("x"), poly("0"), poly("0")]
        # permutation only: original degree-1 row moved to the bottom
        S = [[int(v.a) for v in row] for row in ech.S]
        assert S == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_full_rank_constant_matrix(self):
        ech = echelonize(jacobian(linear_system(3)))
        assert ech.blocks == ((3, 0),)
        assert [[v for v in row] for row in ech.S] == \
            [[Scalar(1 if i == j else 0) for j in range(3)] for i in range(3)]

    def test_dependent_lows_are_eliminated(self):
        # g = (x, x + x^2): both lowest rows are (1, 0); one rewrite needed
        names = ["x", "y"]
        sys2 = RestrictionSystem(names, [0, 0],
                                 [poly("x", names), poly("x + x^2", names)])
        ech = echelonize(jacobian(sys2))
        assert ech.blocks == ((1, 0), (1, 1))
        assert list(ech.low_matrix.row(0)) == [poly("1", names), poly("0", names)]
        assert list(ech.low_matrix.row(1)) == [poly("2*x", names), poly("0", names)]
        assert ech.S == ((Scalar(1), Scalar(0)), (Scalar(-1), Scalar(1)))

    def test_row_rewritten_twice_then_a_later_row_uses_it(self):
        # row 2's lowest part cancels against row 0 (degree 0), then against
        # row 1 (degree 1), leaving degree 2; row 3's degree-2 part is the
        # rewritten row 2's, so row 3 cancels it and rises to degree 3
        g = [poly(t) for t in ("x", "x*y", "x + x*y + x*y^2", "x*y^2 + z^4")]
        G = jacobian(RestrictionSystem(V4, [0, 0, 0, 0], g))
        ech = echelonize(G)
        assert ech.blocks == ((1, 0), (1, 1), (1, 2), (1, 3))
        assert ech.row_degrees == (0, 1, 2, 3)
        assert [[int(v.a) for v in row] for row in ech.S] == \
            [[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 1, 0], [1, 1, -1, 1]]
        assert [list(ech.low_matrix.row(i)) for i in range(4)] == [
            [poly("1"), poly("0"), poly("0"), poly("0")],
            [poly("y"), poly("x"), poly("0"), poly("0")],
            [poly("y^2"), poly("2*x*y"), poly("0"), poly("0")],
            [poly("0"), poly("0"), poly("4*z^3"), poly("0")],
        ]
        assert constant_matrix(ech.S, G.nvars) @ G == ech.full_matrix

    def test_rank_deficient_input(self):
        names = ["x", "y"]
        sys2 = RestrictionSystem(names, [0, 0], [poly("x", names), poly("x", names)])
        with pytest.raises(RankDeficientError):
            echelonize(jacobian(sys2))

    def test_det_s_nonzero_and_sg_identity(self):
        G = jacobian(recenter(product_pairs_system()))
        ech = echelonize(G)
        assert scalar_mat_rank(ech.S) == len(ech.S)
        assert constant_matrix(ech.S, G.nvars) @ G == ech.full_matrix
        for i, deg in enumerate(ech.row_degrees):
            for p, low in zip(ech.full_matrix.row(i), ech.low_matrix.row(i)):
                assert low == p.homogeneous_component(deg)
                assert (p - low).lowest_degree() > deg

    def test_low_rows_homogeneous(self):
        ech = echelonize(jacobian(recenter(product_pairs_system())))
        for i in range(3):
            deg = ech.row_degrees[i]
            for p in ech.low_matrix.row(i):
                assert p.is_zero() or set(sum(m) for m in p.terms) == {deg}

    def test_idempotent_block_structure(self):
        G = jacobian(recenter(product_pairs_system()))
        first = echelonize(G)
        second = echelonize(first.full_matrix)
        assert second.blocks == first.blocks

    def test_block_structure_invariant_under_row_shuffles(self):
        G = jacobian(recenter(product_pairs_system()))
        reference = echelonize(G).blocks
        rng = random.Random(3)
        for _ in range(10):
            order = list(range(3))
            rng.shuffle(order)
            shuffled = PolyMatrix([G.row(i) for i in order])
            assert echelonize(shuffled).blocks == reference


class _CountingRandom(random.Random):
    """A seeded stream that counts the integers drawn from it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


class TestPolyRank:
    def test_dependent_polynomial_rows(self):
        M = poly_matrix([["y", "0"], ["y^2", "0"]], ["x", "y"])
        assert poly_rank(M, trials=3, rng=random.Random(0)) == 1

    def test_identity(self):
        M = poly_matrix([["1", "0"], ["0", "1"]], ["x", "y"])
        assert poly_rank(M, trials=1, rng=random.Random(0)) == 2

    def test_product_pairs_low_matrix(self):
        ech = echelonize(jacobian(recenter(product_pairs_system())))
        assert poly_rank(ech.low_matrix, trials=3, rng=random.Random(1)) == 2

    def test_full_rank_stops_after_one_point(self):
        # rank 2 of a 2 x 3 matrix is the largest there is: no later point can raise it
        M = poly_matrix([["1", "x", "y"], ["y", "1", "0"]], ["x", "y"])
        rng = _CountingRandom(0)
        assert poly_rank(M, trials=3, rng=rng) == 2
        assert rng.draws / M.nvars == 1  # points drawn

    def test_rank_deficient_uses_every_point(self):
        M = poly_matrix([["y", "0"], ["y^2", "0"]], ["x", "y"])
        rng = _CountingRandom(0)
        assert poly_rank(M, trials=3, rng=rng) == 1
        assert rng.draws / M.nvars == 3  # points drawn

    def test_invariant_under_nondegenerate_transform(self):
        ech = echelonize(jacobian(recenter(product_pairs_system())))
        rng = random.Random(9)
        base = poly_rank(ech.low_matrix, trials=3, rng=random.Random(2))
        for _ in range(10):
            while True:
                S = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(3)] for _ in range(3)]
                if scalar_mat_rank(S) == 3:
                    break
            transformed = constant_matrix(S, ech.low_matrix.nvars) @ ech.low_matrix
            assert poly_rank(transformed, trials=3, rng=random.Random(2)) == base


class TestFraldCheck:
    def test_product_pairs_fails(self):
        verdict = frald_check(product_pairs_system(), rng=random.Random(4))
        assert not verdict.frald_t_holds
        assert verdict.rank_r == 2
        assert verdict.echelon.blocks == ((2, 0), (1, 1))

    def test_linear_full_rank_holds(self):
        verdict = frald_check(linear_system(2, p=3), rng=random.Random(4))
        assert verdict.frald_t_holds
        assert verdict.rank_r == 2

    def test_null_violation_propagates(self):
        bad = RestrictionSystem(V4, [1, 1, 1, 1],
                                [poly("x*y"), poly("x*w"), poly("y*z")])
        with pytest.raises(NullViolatedError):
            frald_check(bad)

    def test_nondegenerate_numeric_jacobian_implies_frald_t(self):
        # quadratic restrictions with full-rank constant part at the null
        names = ["x", "y", "z"]
        sys3 = RestrictionSystem(
            names, [0, 0, 0],
            [poly("x + y^2", names), poly("y + x*z", names)],
        )
        verdict = frald_check(sys3, rng=random.Random(8))
        assert verdict.frald_t_holds

    def test_holds_with_positive_degree_block(self):
        # g = (x^2): the single lowest row (2x) is nonzero, so the property
        # holds even though the numeric Jacobian vanishes at the null
        sys1 = RestrictionSystem(["x", "y"], [0, 0], [poly("x^2", ["x", "y"])])
        verdict = frald_check(sys1, rng=random.Random(8))
        assert verdict.frald_t_holds
        assert verdict.echelon.blocks == ((1, 1),)


class TestTransform:
    def test_scalar_rows_combine(self):
        sys0 = product_pairs_system()
        S = [[1, 0, 0], [1, 1, 0], [0, 0, 2]]
        out = transform(sys0, S)
        assert out.g[0] == sys0.g[0]
        assert out.g[1] == sys0.g[0] + sys0.g[1]
        assert out.g[2] == sys0.g[2].scale(2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            transform(product_pairs_system(), [[1, 0], [0, 1]])


_entries = st.sampled_from(["0", "1", "x", "y", "x*y", "x^2 - y", "2*x + 3*y", "x - x"])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data(), st.integers(1, 4),
       st.integers(0, 2**32))
def test_poly_rank_is_the_maximum_over_its_draws(rows, cols, data, trials, seed):
    # the integer points poly_rank draws, in its order; stopping at full rank
    # leaves the maximum of the oracle's ranks there
    M = poly_matrix([[data.draw(_entries) for _ in range(cols)] for _ in range(rows)],
                    ["x", "y"])
    draws = random.Random(seed)
    best = 0
    for _ in range(trials):
        point = [draws.randint(-RANK_POINT_RANGE, RANK_POINT_RANGE) for _ in range(2)]
        best = max(best, scalar_mat_rank(M.evaluate(point)))
    assert poly_rank(M, trials=trials, rng=random.Random(seed)) == best


# -- the integer rank against the Q(sqrt(d)) oracle ---------------------------

_RADICANDS = (0, 2, 3, 9999999967)
_ROOTS = {d: Scalar(0, 1, d) for d in _RADICANDS[1:]}  # built once: 9999999967 is slow to check


def _field(d):
    """Scalars a + b*sqrt(d) for small a, b, about one in four of them zero."""
    parts = [Fraction(n, k) for n in range(-3, 4) for k in (1, 2, 3) if n or k == 1]
    pool = [Scalar(a) + (Scalar(b) * _ROOTS[d] if d else Scalar(b))
            for a in parts for b in parts[::3]]
    return st.sampled_from(pool + [Scalar(0)] * (len(pool) // 3))


_FIELDS = {d: _field(d) for d in _RADICANDS}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RADICANDS), st.integers(1, 6), st.integers(1, 6), st.integers(1, 5),
       st.data())
def test_rank_of_planted_constant_matrices_matches_oracle(d, rows, cols, r, data):
    # (rows x r) @ (r x cols) has rank at most r; a constant matrix takes the
    # same value at every point, so poly_rank ranks exactly this grid.  Up to
    # six rows: a wrong divisor at pivot k shows only through pivot k + 1
    flat = data.draw(st.lists(_FIELDS[d], min_size=r * (rows + cols), max_size=r * (rows + cols)))
    A = [flat[i * r:(i + 1) * r] for i in range(rows)]
    B = [flat[r * rows + i * cols:r * rows + (i + 1) * cols] for i in range(r)]
    grid = [[sum((a * b for a, b in zip(row, col)), Scalar(0)) for col in zip(*B)] for row in A]
    M = PolyMatrix([[MultiPoly.constant(v, 1) for v in row] for row in grid])
    want = scalar_mat_rank(grid)
    assert want <= r
    assert poly_rank(M, trials=1, rng=random.Random(0)) == want


_SURD_ENTRIES = {d: [MultiPoly.zero(2), poly("1", ["x", "y"]), poly("x", ["x", "y"]),
                     poly("y", ["x", "y"])]
                 + [poly(text, ["x", "y"]) + poly("x*y", ["x", "y"]).scale(_ROOTS[d])
                    for text in ("0", "x", "1/2*y^2 - x")]
                 + [poly("x - y", ["x", "y"]).scale(_ROOTS[d] + Scalar(2, 0))]
                 for d in _RADICANDS[1:]}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_RADICANDS[1:]), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 2**32), st.data())
def test_poly_rank_matches_oracle_at_its_surd_points(d, rows, cols, r, trials, seed, data):
    # a planted rank in Q(sqrt(d))[x, y], ranked at the integer points
    # poly_rank draws, in its order, by the field elimination
    entry = st.sampled_from(_SURD_ENTRIES[d])
    A = PolyMatrix([[data.draw(entry) for _ in range(r)] for _ in range(rows)])
    B = PolyMatrix([[data.draw(entry) for _ in range(cols)] for _ in range(r)])
    M = A @ B
    draws = random.Random(seed)
    best = 0
    for _ in range(trials):
        point = [draws.randint(-RANK_POINT_RANGE, RANK_POINT_RANGE) for _ in range(2)]
        best = max(best, scalar_mat_rank(M.evaluate(point)))
    assert best <= r
    assert poly_rank(M, trials=trials, rng=random.Random(seed)) == best


class _Logged:
    """An int under fraction-free elimination: each quotient must be exact,
    and is logged."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __bool__(self):
        return bool(self.value)

    def __mul__(self, other):
        return _Logged(self.value * other.value, self.log)

    def __sub__(self, other):
        return _Logged(self.value - other.value, self.log)

    def __floordiv__(self, other):
        quotient, rest = divmod(self.value, other.value)
        assert rest == 0, "inexact division"
        self.log.append(quotient)
        return _Logged(quotient, self.log)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_bareiss_divides_exactly_down_to_the_determinant(rows):
    # Bareiss's last entry of a nonsingular square grid is its determinant up
    # to the sign of the row swaps; dividing by any other pivot breaks that
    det = sympy.Matrix(rows).det()
    assume(det != 0)
    log = []
    grid = [[_Logged(x, log) for x in row] for row in rows]
    assert _bareiss_rank(grid, _Logged(1, log)) == len(rows)
    assert abs(log[-1]) == abs(det)
