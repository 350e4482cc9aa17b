"""Test-only oracles: exact elimination over Q(sqrt(d)) on Fractions and Scalars.

The program ranks and certifies with fraction-free elimination on ints; these
are the field versions it replaced, one Fraction or Scalar operation at a time.
"""

from waldrates.polycore import Scalar
from waldrates.rates import NonSpdError


def scalar_mat_rank(rows):
    """Exact rank by Gaussian elimination over Q(sqrt(d))."""
    work = [[Scalar.coerce(v) for v in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        piv = work[row]
        for r in range(row + 1, nrows):
            if work[r][col].is_zero():
                continue
            f = work[r][col] / piv[col]
            work[r] = [a - f * b for a, b in zip(work[r], piv)]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def scalar_ldl_is_definite(grid):
    """LDL' certification of a symmetric grid of Scalars over Q(sqrt(d)):
    True when every pivot is positive, False when some pivot is zero and
    clears its column; NonSpdError otherwise.  A rational grid runs on plain
    Fractions, a surd one on Scalars."""
    if not any(v.b for row in grid for v in row):
        grid = [[v.a for v in row] for row in grid]
    p = len(grid)
    L = [[0] * p for _ in range(p)]
    D = []
    definite = True
    for j in range(p):
        pivot = grid[j][j]
        for k in range(j):
            pivot = pivot - L[j][k] * L[j][k] * D[k]
        sign = (pivot > 0) - (pivot < 0)
        if sign < 0:
            raise NonSpdError(f"pivot {j} of the LDL' factorisation is negative")
        D.append(pivot)
        for i in range(j + 1, p):
            acc = grid[i][j]
            for k in range(j):
                acc = acc - L[i][k] * L[j][k] * D[k]
            if sign == 0:
                if acc:
                    raise NonSpdError(
                        f"zero pivot {j} with a nonzero column entry: not PSD"
                    )
            else:
                L[i][j] = acc / pivot
        if sign == 0:
            definite = False
    return definite
