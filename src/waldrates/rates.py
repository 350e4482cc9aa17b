"""Characteristic-polynomial degree analysis and divergence exponents.

Builds B(x, U) = G(x) U G(x)', extracts the characteristic-polynomial
coefficients a_k exactly by Berkowitz's algorithm on packed rays (below),
reads off the minimal degrees m_k(U), and derives the eigenvalue scaling
exponents gamma_k / beta_k and the predicted divergence exponent beta_bar
from a grading of the block-rescaled matrix.

Every degree the pipeline reports (m_k at U, the grading exponents gamma_k and
the generic m_k) is read on random rays: x = t*y with y a random integer
vector, |y_i| <= RAY_RANGE, so that each entry of G is a polynomial in t
alone and the exact charpoly is univariate.  The degree on a ray is never
below the true one, and is above it only when y is a root of the
coefficient's lowest homogeneous part (Schwartz-Zippel: probability at most
deg / (2 * RAY_RANGE + 1) per ray); the reported degree is the minimum over
RAYS independent rays.  On a ray the charpoly is taken with plain integers.
G's coefficients are read once and scaled by their common denominator, and U
by its own, which moves no degree; each ray entry is then an integer sum of
A*y^e in Z[sqrt(d)][t].  Each entry is packed into one value by setting
t = 2^K, with K large enough that every coefficient of the result reads back
from its base-2^K digits, and Berkowitz's division-free algorithm takes the
charpoly of the packed matrix.  ``verify`` checks that integer kernel
against Jacobi eigenvalues; ``charpoly_coeffs`` on G(x) is the tests' oracle.

Sign convention: the coefficients are those of det(lambda I - B), i.e.
a_k = (-1)^k * (sum of all k x k principal minors), so that the elementary
symmetric polynomials of the eigenvalues satisfy P_k = (-1)^k a_k exactly.
In particular det(B) = (-1)^q a_q.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polycore import (INF_DEGREE, MultiPoly, Scalar, _integer_terms, _one_radicand, _rational,
                       _scaled, _surd, _ZSqrt, _zsqrt)
from .restriction import EchelonForm, PolyMatrix, RestrictionSystem, frald_check

#: The specification limit on the number of restrictions.  ``_ray_g_half``
#: enforces it on every report path; ``charpoly_coeffs``, the tests'
#: principal-minor oracle, whose enumeration is exponential in q, checks it too.
MAX_Q = 8

#: Ray coordinates are uniform integers in [-RAY_RANGE, RAY_RANGE].
RAY_RANGE = 10**6

#: Independent rays per degree read-out; the minimum over them is reported.
RAYS = 2

#: Seed of the ray stream, kept apart from the streams that choose
#: poly_rank's points and min_degree_generic's covariances.
_RAY_SEED = 1_000_003


class NonSpdError(ValueError):
    """Matrix is not exactly symmetric positive definite."""


class QTooLargeError(ValueError):
    """More restrictions than the specification limit ``MAX_Q``."""


class NegativeTDegreeError(ValueError):
    """Block scaling produced a negative grading power (wrong echelon input)."""


class Covariance:
    """Exact symmetric positive-semidefinite p x p matrix of scalars.

    Certification is an exact LDL' factorisation: all pivots must be
    nonnegative, and a zero pivot must clear its whole column (otherwise the
    matrix is indefinite).  ``is_definite`` records whether every pivot was
    strictly positive; singular-but-semidefinite matrices are accepted because
    the degree analysis is meaningful on the boundary of the cone.
    """

    __slots__ = ("entries", "p", "is_definite", "_int_parts")

    def __init__(self, rows: Sequence[Sequence]):
        p = len(rows)
        grid = tuple(tuple(Scalar.coerce(v) for v in row) for row in rows)
        if any(len(row) != p for row in grid):
            raise ValueError("covariance matrix must be square")
        for i in range(p):
            for j in range(i):  # parse_spec reads equal entries into one object
                if grid[i][j] is not grid[j][i] and grid[i][j] != grid[j][i]:
                    raise NonSpdError(f"entries ({i},{j}) and ({j},{i}) differ")
        definite = _assert_positive_semidefinite(grid)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "is_definite", definite)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Covariance is immutable")

    @classmethod
    def identity(cls, p: int) -> "Covariance":
        return cls([[1 if i == j else 0 for j in range(p)] for i in range(p)])

    @classmethod
    def random_spd(cls, p: int, rng: random.Random) -> "Covariance":
        """Random exact SPD L D L' (unit lower-triangular L, D > 0), certified by L, D.

        Every entry of L is n/k and every D_k is m/k with k in 1..4, so 12 L
        and 12 D are drawn straight into ints and L D L' is their sum over
        12^3; the draws are n then k, row by row, then m then k.  The draws
        make L's diagonal 12 (unit after the scaling) and its upper triangle
        zero, and every D_k at least 3, which is what ``_from_ints`` needs.
        """
        L = [[rng.randint(-4, 4) * (12 // rng.randint(1, 4)) if j < i else 12 * (i == j)
              for j in range(p)] for i in range(p)]
        D = [rng.randint(1, 9) * (12 // rng.randint(1, 4)) for _ in range(p)]
        return cls._from_ints(L, D, 12**3)

    @classmethod
    def _from_ints(cls, L: Sequence[Sequence[int]], D: Sequence[int], den: int) -> "Covariance":
        """L D L' / den, one Fraction per lower-triangle entry, certified SPD
        without an LDL' pass by the caller's factor: for a lower-triangular L
        with a nonzero diagonal and every D_k > 0, x' L D L' x = sum_k D_k
        (L'x)_k^2 > 0 for x != 0.  L[j][k] = 0 for k > j, so row j of L stops
        at its diagonal."""
        p = len(D)
        low = [[_rational(Fraction(sum(a * b * c for a, b, c in zip(L[i], D, L[j][:j + 1])), den))
                for j in range(i + 1)] for i in range(p)]
        out = object.__new__(cls)
        entries = tuple(tuple(low[max(i, j)][min(i, j)] for j in range(p)) for i in range(p))
        for name, value in (("entries", entries), ("p", p), ("is_definite", True)):
            object.__setattr__(out, name, value)
        return out

    def int_parts(self) -> tuple:
        """(c * the a parts, c * the b parts, c), the parts as p x p tuples of
        ints and c the lcm of the entries' reduced denominators; computed on
        first use and kept, as the entries never change."""
        parts = getattr(self, "_int_parts", None)
        if parts is None:
            grid = self.entries
            c = math.lcm(*[x.denominator for row in grid for v in row for x in (v.a, v.b)])
            parts = (tuple([tuple([_scaled(v.a, c) for v in row]) for row in grid]),
                     tuple([tuple([_scaled(v.b, c) for v in row]) for row in grid]), c)
            object.__setattr__(self, "_int_parts", parts)
        return parts

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i][j]

    def to_float(self):
        import numpy as np

        return np.array([[float(v) for v in row] for row in self.entries])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Covariance):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"Covariance(p={self.p})"


def _assert_positive_semidefinite(grid) -> bool:
    """Exact LDL' certification; returns True when strictly definite.

    Raises NonSpdError on a negative pivot or on a zero pivot whose column is
    not identically zero (both mean the matrix is not PSD).  Fraction-free:
    the grid is scaled by the lcm of its denominators and eliminated
    symmetrically in Z or Z[sqrt(d)].  After the nonzero pivots P so far,
    entry (i, j) is det(V_PP) > 0 times the Schur complement entry that the
    LDL' over Q(sqrt(d)) would hold, so it has that entry's sign and zeros,
    and every division by the previous pivot det(V_PP) is exact (Bareiss).
    """
    low = [row[:i + 1] for i, row in enumerate(grid)]  # V is symmetric
    d = _one_radicand({v.d for row in low for v in row if v.d})
    c = math.lcm(*(x.denominator for row in low for v in row for x in (v.a, v.b)))
    work = [[_zsqrt(_scaled(v.a, c), _scaled(v.b, c), d) for v in row] for row in low]
    prev = _zsqrt(1, 0, d)
    definite = True
    for j, row_j in enumerate(work):
        pivot = row_j[j]
        sign = pivot.sign() if d else (pivot > 0) - (pivot < 0)
        if sign < 0:
            raise NonSpdError(f"pivot {j} of the LDL' factorisation is negative")
        below = work[j + 1:]
        if sign == 0:
            if any(row[j] for row in below):
                raise NonSpdError(
                    f"zero pivot {j} with a nonzero column entry: not PSD"
                )
            definite = False
            continue
        for row in below:
            f = row[j]
            row[j + 1:] = [(pivot * x - f * work[k][j]) // prev
                           for k, x in enumerate(row[j + 1:], j + 1)]
        prev = pivot
    return definite


def build_B(G: PolyMatrix, U: Covariance) -> PolyMatrix:
    """Exact symmetric q x q matrix G U G'."""
    if G.cols != U.p:
        raise ValueError(f"G has {G.cols} columns but U is {U.p} x {U.p}")
    GU = PolyMatrix([
        [
            _dot_scale(G.row(i), [U.entry(k, j) for k in range(U.p)])
            for j in range(U.p)
        ]
        for i in range(G.rows)
    ])
    return GU @ G.transpose()


def _dot_scale(row: Sequence[MultiPoly], weights: Sequence[Scalar]) -> MultiPoly:
    acc = MultiPoly.zero(row[0].nvars)
    for poly, w in zip(row, weights):
        acc = acc + poly.scale(w)
    return acc


def _minor_det(B: Sequence[Sequence], rows: tuple, cols: tuple, memo: dict, one):
    """Determinant of the (rows, cols) submatrix of the grid B by memoised
    Laplace expansion.  Generic over the entry ring: entries need +, -, * and
    is_zero(), and ``one`` is the ring's unit."""
    if not rows:
        return one
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    row = B[rows[0]]
    rest_rows = rows[1:]
    acc = one - one
    for idx, c in enumerate(cols):
        entry = row[c]
        if entry.is_zero():
            continue
        term = entry * _minor_det(B, rest_rows, cols[:idx] + cols[idx + 1 :], memo, one)
        acc = acc + term if idx % 2 == 0 else acc - term
    memo[key] = acc
    return acc


def _minor_sum(B: Sequence[Sequence], k: int, memo: dict, one):
    """Sum of the determinants of all k x k principal minors of the grid B."""
    acc = one - one
    for subset in itertools.combinations(range(len(B)), k):
        acc = acc + _minor_det(B, subset, subset, memo, one)
    return acc


def principal_minor_sum(B: PolyMatrix, k: int, memo: dict | None = None) -> MultiPoly:
    """Sum of the determinants of all k x k principal minors of B."""
    if B.rows != B.cols:
        raise ValueError("B must be square")
    if not 0 <= k <= B.rows:
        raise ValueError("minor size out of range")
    memo = {} if memo is None else memo
    return _minor_sum(B.entries, k, memo, MultiPoly.constant(1, B.nvars))


def _check_q(q: int) -> None:
    if q > MAX_Q:
        raise QTooLargeError(
            f"{q} restrictions exceed the specification limit of {MAX_Q}"
        )


@dataclass(frozen=True)
class CharPolyCoeffs:
    """Coefficients a_1..a_q of det(lambda I - B) and their minimal degrees."""

    a: tuple[MultiPoly, ...]
    m: tuple  # int or INF_DEGREE per coefficient


def charpoly_coeffs(B: PolyMatrix) -> CharPolyCoeffs:
    """Exact characteristic-polynomial coefficients via principal minors."""
    q = B.rows
    if B.rows != B.cols:
        raise ValueError("B must be square")
    _check_q(q)
    memo: dict = {}
    a = []
    for k in range(1, q + 1):
        ek = principal_minor_sum(B, k, memo)
        a.append(ek if k % 2 == 0 else -ek)
    return CharPolyCoeffs(a=tuple(a), m=tuple(p.lowest_degree() for p in a))


# -- the ray charpoly on packed integers --------------------------------------
#
# A ray entry is a polynomial in t over Z[sqrt(d)].  Setting t = 2^K is a ring
# homomorphism onto Z[sqrt(d)], so B and its charpoly are formed exactly on
# single values: ints, or _ZSqrt pairs of them when d > 0.  When every t^j
# coefficient c_j is below 2^(K-1) in magnitude, the c_j are the balanced
# base-2^K digits of the value; ``_ray_charpoly`` takes K from a bound that
# ensures it.  a_j + b_j sqrt(d) is zero only when a_j = b_j = 0, because
# sqrt(d) is irrational for the square-free d > 1 that Scalar admits.


def _pack(coeffs: Sequence[int], K: int) -> int:
    """sum_j coeffs[j] * 2^(K j): the polynomial's value at t = 2^K."""
    return sum(x << K * j for j, x in enumerate(coeffs))


def _digits(x: int, K: int) -> list[int]:
    """The balanced base-2^K digits of x, lowest first."""
    out, half = [], 1 << (K - 1)
    while x:
        out.append((x + half) % (2 * half) - half)
        x = (x - out[-1]) >> K
    return out


def _parts(v) -> tuple:
    """(a, b, d) of a packed value a + b*sqrt(d): an int (d = 0) or a _ZSqrt."""
    return (v.a, v.b, v.d) if isinstance(v, _ZSqrt) else (v, 0, 0)


def _low_degree(v, K: int) -> int | float:
    """Lowest t-degree of a packed value, INF_DEGREE for zero: its lowest
    nonzero digit is below 2^(K-1), so the lowest set bit of a | b is in its slot."""
    a, b, _ = _parts(v)
    low = a | b
    return ((low & -low).bit_length() - 1) // K if low else INF_DEGREE


def _berkowitz(B: Sequence[Sequence], zero, one) -> list:
    """c_1..c_q of det(lambda I - B) = lambda^q + c_1 lambda^(q-1) + ... + c_q
    for a symmetric B, division-free, so it runs in Z and Z[sqrt(d)]
    (S. J. Berkowitz, Inf. Process. Lett. 18(3), 1984).

    The charpoly of the leading (r+1) x (r+1) block is T_r times that of the
    leading r x r block A_r, with T_r lower-triangular Toeplitz of first column
    (1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C), where a = B[r][r] and R and
    C are row r and column r of B left of and above the diagonal.  B is
    symmetric, so R = C' and R A_r^m C = w_i . w_j for w_i = A_r^i C and any
    i + j = m: half the matrix-vector products suffice.
    """
    cs = [one]
    for r, row in enumerate(B):
        ws = [row[:r]]  # w_0 = C
        col = [row[r]]  # a, R C, R A_r C, ...: T_r's first column, negated
        for m in range(r):
            i, j = m // 2, (m + 1) // 2
            if j == len(ws):
                ws.append([sum(map(mul, B[k], ws[-1]), zero) for k in range(r)])
            col.append(sum(map(mul, ws[i], ws[j]), zero))
        cs = [one] + [x - sum(map(mul, col[i::-1], cs), zero)
                      for i, x in enumerate(cs[1:] + [zero])]
    return cs[1:]


def _ray_g_half(G: PolyMatrix, drops: Sequence[int]) -> tuple:
    """What every ray of G shares whatever U: (G's columns, d_G, c_G, each term
    a + b*sqrt(d) at x^e of row i of G as (|e| - drops[i], e, c_G*a, c_G*b)),
    with d_G and c_G G's radicand (0 for none) and lcm of denominators."""
    _check_q(G.rows)
    d_g, c_g, int_terms = _integer_terms(G.entries)
    g_terms = []
    for row, drop in zip(int_terms, drops):
        low = next((sum(m) for terms in row for m, _, _ in terms if sum(m) < drop), None)
        if low is not None:
            raise NegativeTDegreeError(f"monomial of degree {low} under block scaling {drop}")
        g_terms.append([[(sum(mono) - drop, mono, a, b) for mono, a, b in terms]
                        for terms in row])
    return G.cols, d_g, c_g, g_terms


def _ray_u_half(g_half: tuple, U: Covariance) -> tuple:
    """The ring of one (G, U, drops) set-up from its G half: (d, s, G's integer
    terms, the columns of c_U * U as ints or _ZSqrt, mu, c = c_G^2 c_U), with
    d the one radicand, c_U the lcm of U's denominators, s = isqrt(d) + 1 and
    mu the largest N(a + b sqrt(d)) = |a| + s|b| over the entries of c_U * U."""
    cols, d_g, c_g, g_terms = g_half
    if cols != U.p:
        raise ValueError(f"G has {cols} columns but U is {U.p} x {U.p}")
    d = _one_radicand({d_g} - {0} | {v.d for row in U.entries for v in row if v.d})
    s = math.isqrt(d) + 1
    u_a, u_b, c_u = U.int_parts()
    # U is symmetric, so its rows are its columns
    u_cols = [[_zsqrt(a, b, d) for a, b in zip(row_a, row_b)] for row_a, row_b in zip(u_a, u_b)]
    mu = max(abs(a) + s * abs(b) for col in u_cols for a, b, _ in map(_parts, col))
    return d, s, g_terms, u_cols, mu, c_g * c_g * c_u


def _ray_ring(G: PolyMatrix, U: Covariance, drops: Sequence[int]) -> tuple:
    """What every ray of one (G, U, drops) set-up shares (``_ray_u_half``)."""
    return _ray_u_half(_ray_g_half(G, drops), U)


def _on_ray(terms: list, y: Sequence[int]) -> tuple[list, list]:
    """The ray entry's t-coefficients, sum A y^e and sum B y^e at each t^j over
    the terms (j, e, A, B), as two dense lists."""
    a = [0] * (max((j for j, *_ in terms), default=-1) + 1)
    b = a[:]
    for j, mono, ca, cb in terms:
        v = math.prod(map(pow, y, mono))
        a[j] += ca * v
        b[j] += cb * v
    return a, b


def _ray_charpoly(ring: tuple, y: Sequence[int]) -> tuple[tuple[int, list], int]:
    """The charpoly coefficients c_1..c_q of the scaled ray matrix packed at
    t = 2^K, as (K, [c_1(2^K), ..., c_q(2^K)]), and the scale c.

    Row i of G is restricted to x = t*y and divided by t^{drops[i]}.  The
    matrix formed is c * B(t) for B = G U G' on the ray and the c of
    ``_ray_ring``, so a_k(B(t)) = c_k(t) / c^k.

    K comes from a bound on every t-coefficient of every c_k.  Size a ray
    entry by the sum of N (``_ray_u_half``) over its t-coefficients; N is
    submultiplicative because s^2 > d, so the sum is too.  With gamma the
    largest size of a ray entry of G, an entry of c B, a sum of p^2 products
    G c_U U G', has size at most p^2 gamma^2 mu; c_k sums C(q, k) k! <= q^k
    products of k entries, so its coefficients are at most (q p^2 gamma^2
    mu)^k <= (q p^2 gamma^2 mu)^q < 2^(K-1) in magnitude.
    """
    d, s, g_terms, u_cols, mu, c = ring
    coeffs = [[_on_ray(terms, y) for terms in row] for row in g_terms]
    gamma = max(sum(map(abs, a)) + s * sum(map(abs, b)) for row in coeffs for a, b in row)
    q, p = len(coeffs), len(u_cols)
    K = ((q * p * p * gamma * gamma * mu) ** q).bit_length() + 1
    zero, one = _zsqrt(0, 0, d), _zsqrt(1, 0, d)
    g_rows = [[_zsqrt(_pack(a, K), _pack(b, K), d) for a, b in row] for row in coeffs]
    gu_rows = [[sum(map(mul, g_row, u_col), zero) for u_col in u_cols] for g_row in g_rows]
    B = [[zero] * q for _ in range(q)]
    for i, gu_row in enumerate(gu_rows):
        for j in range(i, q):
            B[i][j] = B[j][i] = sum(map(mul, gu_row, g_rows[j]), zero)
    return (K, _berkowitz(B, zero, one)), c


def _ray_coeffs_at(sums: tuple[int, list], c: int, t0: Fraction) -> list[Scalar]:
    """a_1..a_q of B(t0) exactly: c_k(t0) / c^k from the packed charpoly
    (K, [c_k(2^K)]) and the scale c that ``_ray_charpoly`` returns."""
    K, packed = sums
    out = []
    for k, v in enumerate(packed, 1):
        a, b, d = _parts(v)
        parts = []
        for x in (a, b):
            num, den = 0, 1  # Horner in ints over the digits: c_k(t0) = num / den
            for digit in reversed(_digits(x, K)):
                num, den = num * t0.numerator + digit * den * t0.denominator, den * t0.denominator
            parts.append(Fraction(num, den * c**k))
        out.append(_surd(*parts, d))
    return out


def _ray_degrees(G: PolyMatrix, U: Covariance, drops: Sequence[int] | None = None) -> tuple:
    """Lowest t-degree of each charpoly coefficient of B = G U G' on rays.

    Row i of G is restricted to x = t*y and divided by t^{drops[i]} (zero by
    default); the exact univariate charpoly of the result gives one degree
    per coefficient, INF_DEGREE when it vanishes on the ray.  Returns the
    minimum over RAYS rays drawn from a fresh stream seeded with _RAY_SEED.
    One-sided: never below the degree of the multivariate coefficient, and
    above it only if every ray is a root of that coefficient's lowest part.

    The charpoly is taken in Z[sqrt(d)][t] by ``_ray_charpoly``: the scale
    c^k it leaves on a_k is a nonzero constant, so the t-degrees are those
    of B's coefficients.
    """
    drops = (0,) * G.rows if drops is None else drops
    return _lowest_on_rays(G, [_ray_ring(G, U, drops)] * RAYS, random.Random(_RAY_SEED))


def _lowest_on_rays(G: PolyMatrix, rings, rays: random.Random) -> tuple:
    """The lowest t-degree of each e_k over one ray of G per ring."""
    best = [INF_DEGREE] * G.rows
    for ring in rings:
        y = [rays.randint(-RAY_RANGE, RAY_RANGE) for _ in range(G.nvars)]
        (K, packed), _ = _ray_charpoly(ring, y)
        best = list(map(min, best, (_low_degree(v, K) for v in packed)))
    return tuple(best)


def t_graded_coeffs(G: PolyMatrix, U: Covariance,
                    echelon: EchelonForm) -> list[Fraction | None]:
    """Grading exponents gamma_k of the block-rescaled characteristic polynomial.

    The grading variable t stands for T^{-1/2}: row i of the (already
    echelonized) matrix G is mapped to t^{-s_i} G_i(t*y) with s_i its block
    degree, so every entry has nonnegative t-degree.  gamma_k is half the
    minimal t-degree of the k-th coefficient, read on RAYS random rays y;
    None marks a coefficient that vanishes on every ray (identically zero
    but for the Schwartz-Zippel failure set; exponent indeterminate from
    symmetric functions alone).
    """
    if G.rows != echelon.q:
        raise ValueError("G and echelon form disagree on the number of rows")
    return [None if m == INF_DEGREE else Fraction(m, 2)
            for m in _ray_degrees(G, U, drops=echelon.row_degrees)]


@dataclass(frozen=True)
class RateReport:
    """Scaling exponents behind the Wald-statistic divergence prediction.

    beta_bar is the predicted divergence exponent: the statistic grows at
    least like T^beta_bar when the echelon low matrix has rank below q.
    """

    rank_r: int
    gamma: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    beta_bar: Fraction
    indeterminate: tuple[int, ...]  # 1-based k where a_k vanished on every ray
    char_m: tuple                   # minimal degrees m_k(U) of the unscaled a_k
    echelon: EchelonForm
    jacobian: PolyMatrix            # G of the recentered system, before echelonization

    @property
    def divergence_predicted(self) -> bool:
        return self.beta_bar > 0


def rate_report(sys: RestrictionSystem, U: Covariance,
                rng: random.Random | None = None) -> RateReport:
    """Full pipeline: FRALD check, grading exponents, beta recursion."""
    verdict = frald_check(sys, rng=rng)
    ech = verdict.echelon
    r, q = verdict.rank_r, sys.q

    char_m = _ray_degrees(verdict.jacobian, U)
    gammas_raw = t_graded_coeffs(ech.full_matrix, U, ech)

    gamma: list[Fraction] = []
    indeterminate = []
    prev = Fraction(0)
    for k, value in enumerate(gammas_raw, start=1):
        if value is None:
            indeterminate.append(k)
            value = prev  # conservative: inherit the previous exponent
        gamma.append(value)
        prev = value
    for k in range(r):
        if gamma[k] != 0:
            # a definite V keeps e_k of the rank-r low matrix nonzero
            cause = ("every ray met a root of its lowest-degree part" if U.is_definite
                     else "V is singular along the lowest-degree rows")
            raise NonSpdError(
                f"grading exponent gamma_{k + 1} = {gamma[k]} nonzero at or below "
                f"rank r = {r}: {cause}"
            )

    beta = [Fraction(0)] * q
    for k in range(r, q):
        beta[k] = gamma[k] - (gamma[k - 1] if k > 0 else Fraction(0))
    beta_bar = max(beta[r:], default=Fraction(0)) if r < q else Fraction(0)

    return RateReport(
        rank_r=r,
        gamma=tuple(gamma),
        beta=tuple(beta),
        beta_bar=beta_bar,
        indeterminate=tuple(indeterminate),
        char_m=char_m,
        echelon=ech,
        jacobian=verdict.jacobian,
    )


def min_degree_generic(G: PolyMatrix, samples: int = 5,
                       rng_seed: int = 0) -> tuple:
    """Estimate the generic minimal degrees m_1..m_q over SPD covariances.

    ``G`` is the Jacobian of the recentered system.  Draws ``samples`` random
    exact SPD matrices (L D L' construction) from ``random.Random(rng_seed)``,
    builds one characteristic polynomial per draw on one random ray (from a
    separate ray stream; G is read into ints once, then each U is added),
    and returns, for every k, the smallest degree observed.  The estimate is
    one-sided: it is never below the true generic minimum, and almost every
    (U, ray) pair attains that minimum, so a handful of draws suffices.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(rng_seed)
    rays = random.Random(_RAY_SEED + rng_seed)
    g_half = _ray_g_half(G, (0,) * G.rows)
    rings = (_ray_u_half(g_half, Covariance.random_spd(G.cols, rng)) for _ in range(samples))
    return _lowest_on_rays(G, rings, rays)
