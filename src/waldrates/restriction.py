"""Polynomial restriction systems: Jacobians, echelon forms, FRALD verdicts.

All functions are pure over immutable inputs.  Randomised rank testing takes
an explicit ``random.Random`` so callers control reproducibility.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .polycore import (INF_DEGREE, ONE, ZERO, MultiPoly, Scalar, _evaluate_ints, _grlex_key,
                       _one_radicand, _over, _scaled, _zsqrt)


class NullViolatedError(ValueError):
    """The supplied point does not satisfy the restrictions exactly."""


class RankDeficientError(ValueError):
    """Row operations drove a row of the transformed Jacobian to zero."""


ScalarMatrix = tuple  # tuple[tuple[Scalar, ...], ...]

#: poly_rank's point coordinates are integers y_i with |y_i| <= RANK_POINT_RANGE;
#: a point misses the rank with probability at most deg / (2 * RANK_POINT_RANGE + 1).
RANK_POINT_RANGE = 10**6


def _bareiss_rank(grid: list, one) -> int:
    """Exact rank of a grid over Z or Z[sqrt(d)] (``one`` the ring's unit) by
    fraction-free elimination with row pivoting (Bareiss, Math. Comp. 22,
    1968).  After k pivots every entry below them is a (k+1)-minor of the
    grid, so the division by the previous pivot is exact.  Consumes grid."""
    nrows, rank, prev = len(grid), 0, one
    for col in range(len(grid[0]) if grid else 0):
        pivot = next((r for r in range(rank, nrows) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        top = grid[rank]
        p = top[col]
        for row in grid[rank + 1:]:
            f = row[col]
            row[col + 1:] = [(p * x - f * t) // prev for x, t in zip(row[col + 1:], top[col + 1:])]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


class PolyMatrix:
    """Immutable rectangular matrix of MultiPoly entries sharing nvars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        grid = []
        nvars = None
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows in PolyMatrix")
            for p in row:
                if not isinstance(p, MultiPoly):
                    raise TypeError("PolyMatrix entries must be MultiPoly")
                if nvars is None:
                    nvars = p.nvars
                elif p.nvars != nvars:
                    raise ValueError("PolyMatrix entries must share nvars")
            grid.append(tuple(row))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(grid))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PolyMatrix is immutable")

    @property
    def nvars(self) -> int:
        return self.entries[0][0].nvars

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[MultiPoly, ...]:
        return self.entries[i]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        nv = self.nvars
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = MultiPoly.zero(nv)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def evaluate(self, point) -> list[list[Scalar]]:
        rows, den = self.evaluate_ints(point)
        return [[_over(a, b, d, den) for a, b, d in row] for row in rows]

    def evaluate_ints(self, point) -> tuple[list[list[tuple[int, int, int]]], int]:
        """Exact values at a rational point as integer numerators over one
        denominator: rows of (A, B, d) and den, entry (i, j) being
        (A + B*sqrt(d)) / den.  One set of power tables and one lcm serve
        every entry (``polycore._evaluate_ints``)."""
        flat, den = _evaluate_ints([p for row in self.entries for p in row], point)
        return [flat[i * self.cols:(i + 1) * self.cols] for i in range(self.rows)], den

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class RestrictionSystem:
    """q polynomial restrictions on a p-dimensional parameter with a null point."""

    var_names: tuple[str, ...]
    theta_bar: tuple[Scalar, ...]
    g: tuple[MultiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        object.__setattr__(self, "theta_bar", tuple(Scalar.coerce(t) for t in self.theta_bar))
        object.__setattr__(self, "g", tuple(self.g))
        p, q = len(self.var_names), len(self.g)
        if len(self.theta_bar) != p:
            raise ValueError("theta_bar length must equal the number of variables")
        if q > p:
            raise ValueError(f"more restrictions ({q}) than parameters ({p})")
        for poly in self.g:
            if poly.nvars != p:
                raise ValueError("every restriction must use all declared variables")

    @property
    def p(self) -> int:
        return len(self.var_names)

    @property
    def q(self) -> int:
        return len(self.g)


def recenter(sys: RestrictionSystem) -> RestrictionSystem:
    """Rewrite the system in deviation coordinates u = theta - theta_bar; the
    null residual g_i(theta_bar) is read off as the shifted g_i's constant term."""
    at_origin = all(t.is_zero() for t in sys.theta_bar)
    shifted = sys.g if at_origin else tuple(poly.shift_origin(sys.theta_bar) for poly in sys.g)
    residuals = [poly.terms.get((0,) * sys.p, ZERO) for poly in shifted]
    bad = [i for i, r in enumerate(residuals) if not r.is_zero()]
    if bad:
        raise NullViolatedError(
            f"restrictions {bad} are nonzero at the null point: "
            + ", ".join(str(residuals[i]) for i in bad)
        )
    if at_origin:
        return sys
    return RestrictionSystem(sys.var_names, (ZERO,) * sys.p, shifted)


def jacobian(sys: RestrictionSystem) -> PolyMatrix:
    """q x p matrix of exact partial derivatives of the restrictions."""
    return PolyMatrix(
        [[poly.partial_derivative(k) for k in range(sys.p)] for poly in sys.g]
    )


@dataclass(frozen=True)
class EchelonForm:
    """Constant transformation S and the degree-sorted low-part structure of S@G."""

    S: ScalarMatrix                     # q x q, det != 0
    blocks: tuple[tuple[int, int], ...]  # (n_i, degree s_i), degrees strictly increasing
    low_matrix: PolyMatrix
    full_matrix: PolyMatrix             # S @ G
    row_degrees: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.full_matrix.rows


def _row_low_vector(row: Sequence[MultiPoly]) -> tuple[int, dict]:
    """Lowest degree of a matrix row and its coefficient vector.

    The vector maps (column, monomial) to the exact coefficient of the row's
    minimal-degree homogeneous part, giving coordinates in a common monomial
    basis for dependence testing.
    """
    deg = min(p.lowest_degree() for p in row)
    if deg == INF_DEGREE:
        raise RankDeficientError("a transformed row vanished identically")
    deg = int(deg)
    vec = {}
    for j, p in enumerate(row):
        for mono, coeff in p.terms.items():
            if sum(mono) == deg:
                vec[(j, mono)] = coeff
    return deg, vec


def echelonize(G: PolyMatrix) -> EchelonForm:
    """Find constant S with det(S) != 0 so the rows' lowest homogeneous parts
    are linearly independent and sorted by degree.

    One pass over the rows: reduce row i's lowest part, by exact Gaussian
    elimination over the monomial basis, against the fixed basis of the
    lowest parts of rows < i.  While it is dependent, cancel it with that
    combination of the earlier rows, which strictly raises row i's degree.
    Degrees are bounded by the largest entry degree, so the rewrites end; a
    row reaching zero means the input Jacobian was rank deficient.
    """
    q = G.rows
    sg = [list(G.row(i)) for i in range(q)]
    S = [[ONE if i == j else ZERO for j in range(q)] for i in range(q)]
    degrees: list[int] = []
    basis: list[tuple[tuple, dict, dict]] = []  # (pivot key, vector, expression)
    for i in range(q):
        deg, vec = _row_low_vector(sg[i])
        while True:
            expr = {i: ONE}
            for pivot_key, bvec, bexpr in basis:
                f = vec.get(pivot_key)
                if f is None or f.is_zero():
                    continue
                f = f / bvec[pivot_key]
                for key, val in bvec.items():
                    new = vec.get(key, ZERO) - f * val
                    if new.is_zero():
                        vec.pop(key, None)
                    else:
                        vec[key] = new
                for j, val in bexpr.items():
                    new = expr.get(j, ZERO) - f * val
                    if new.is_zero():
                        expr.pop(j, None)
                    else:
                        expr[j] = new
            if vec:
                break
            # dependency: low_i = -sum_j expr[j] * low_j (j < i), so adding
            # expr[j] * row_j cancels row i's lowest part
            for j, cj in expr.items():
                if j == i:
                    continue
                sg[i] = [a + b.scale(cj) for a, b in zip(sg[i], sg[j])]
                S[i] = [a + cj * b for a, b in zip(S[i], S[j])]
            new_deg, vec = _row_low_vector(sg[i])
            if new_deg <= deg:  # pragma: no cover - elimination guarantee
                raise RuntimeError("row rewrite did not raise the degree")
            deg = new_deg
        pivot_key = min(vec, key=lambda k: (k[0], _grlex_key(k[1])))
        basis.append((pivot_key, vec, expr))
        degrees.append(deg)

    order = sorted(range(q), key=lambda i: (degrees[i], i))
    sg = [sg[i] for i in order]
    S = [S[i] for i in order]
    degrees = [degrees[i] for i in order]

    blocks = [(len(list(run)), deg) for deg, run in itertools.groupby(degrees)]
    low = PolyMatrix([[p.homogeneous_component(deg) for p in row]
                      for row, deg in zip(sg, degrees)])
    return EchelonForm(
        S=tuple(tuple(row) for row in S),
        blocks=tuple(blocks),
        low_matrix=low,
        full_matrix=PolyMatrix(sg),
        row_degrees=tuple(degrees),
    )


def _integer_terms(M: PolyMatrix) -> tuple[set, int, list]:
    """M's coefficients read into ints once: (M's radicands, c the lcm of its
    denominators, each entry's terms a + b*sqrt(d) at x^e as (e, c*a, c*b),
    row by row)."""
    coeffs = [[p.terms.items() for p in row] for row in M.entries]
    radicands = {v.d for row in coeffs for terms in row for _, v in terms if v.d}
    c = math.lcm(*(x.denominator for row in coeffs for terms in row
                   for _, v in terms for x in (v.a, v.b)))
    return radicands, c, [[[(mono, _scaled(v.a, c), _scaled(v.b, c)) for mono, v in terms]
                           for terms in row] for row in coeffs]


def _at_point(terms: list, y: Sequence[int], d: int):
    """The entry sum (A + sqrt(d) B) y^e over its integer terms (e, A, B)."""
    a = b = 0
    for mono, ca, cb in terms:
        v = math.prod(map(pow, y, mono))
        a += ca * v
        b += cb * v
    return _zsqrt(a, b, d)


def poly_rank(M: PolyMatrix, trials: int = 3, rng: random.Random | None = None) -> int:
    """Probabilistic rank of a polynomial matrix.

    Evaluates at up to ``trials`` random integer points (coordinates uniform
    in [-RANK_POINT_RANGE, RANK_POINT_RANGE]) and takes the maximum exact
    rank, stopping once it reaches min(rows, cols).  A point never gives more
    than the true rank r, and gives less only at a root of a nonzero r x r
    minor: by Schwartz-Zippel, with probability at most
    deg / (2 * RANK_POINT_RANGE + 1) per point, deg that minor's total degree.
    M's coefficients are read into ints once, scaled by the lcm of their
    denominators (which moves no rank), and each point is ranked by
    fraction-free elimination in Z or Z[sqrt(d)].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(0) if rng is None else rng
    radicands, _, terms = _integer_terms(M)
    d = _one_radicand(radicands)
    best = 0
    for _ in range(trials):
        y = [rng.randint(-RANK_POINT_RANGE, RANK_POINT_RANGE) for _ in range(M.nvars)]
        grid = [[_at_point(entry, y, d) for entry in row] for row in terms]
        best = max(best, _bareiss_rank(grid, _zsqrt(1, 0, d)))
        if best == min(M.rows, M.cols):
            break
    return best


@dataclass(frozen=True)
class FraldVerdict:
    """Polynomial-matrix rank of the echelon low part and the FRALD-T flag."""

    rank_r: int
    frald_t_holds: bool
    echelon: EchelonForm
    jacobian: PolyMatrix  # G of the recentered system, before echelonization


def frald_check(sys: RestrictionSystem, trials: int = 3,
                rng: random.Random | None = None) -> FraldVerdict:
    """Recenter, differentiate, echelonize, and rank the lowest-degree matrix."""
    centered = recenter(sys)
    G = jacobian(centered)
    ech = echelonize(G)
    r = poly_rank(ech.low_matrix, trials=trials, rng=rng)
    return FraldVerdict(rank_r=r, frald_t_holds=(r == sys.q), echelon=ech,
                        jacobian=G)


def transform(sys: RestrictionSystem, S: Sequence[Sequence]) -> RestrictionSystem:
    """Replace the restrictions g by S @ g for a constant q x q matrix S."""
    q = sys.q
    if len(S) != q or any(len(row) != q for row in S):
        raise ValueError("S must be q x q")
    new_g = []
    for row in S:
        acc = MultiPoly.zero(sys.p)
        for coeff, poly in zip(row, sys.g):
            acc = acc + poly.scale(Scalar.coerce(coeff))
        new_g.append(acc)
    return RestrictionSystem(sys.var_names, sys.theta_bar, tuple(new_g))
