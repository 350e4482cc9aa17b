"""Test-only oracles: exact elimination over Q(sqrt(d)) on Fractions and Scalars,
the ray charpoly on coefficient lists, and the dense float evaluation of g and G.

The program ranks and certifies with fraction-free elimination on ints; these
are the field versions it replaced, one Fraction or Scalar operation at a time.
It takes the ray charpoly by Berkowitz on values packed at t = 2^K; the list
ring below is the one it replaced, with the memoised Laplace expansion of the
principal minors, one coefficient at a time.  It evaluates g and G by a plan
of their nonzero terms; ``DenseSystem`` is the loop it replaced, every
coefficient over every monomial.  It parses the polynomial grammar in one
pass over the text; ``reference_parse_polynomial`` is the parser it replaced,
which tokenizes the whole text first and then descends a token list.  It
renders a polynomial's rational parts straight from their Fractions;
``reference_to_text`` is the renderer it replaced, a Scalar per part.
"""

import itertools
import math
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

from waldrates.polycore import (INF_DEGREE, MAX_LITERAL_DIGITS, ONE, FieldMismatchError, Monomial,
                                MultiPoly, PolyParseError, Scalar, _one_radicand, _rational, _scaled,
                                _surd, _trusted_poly)
from waldrates.rates import NonSpdError, _minor_sum, _ray_g_half
from waldrates.restriction import jacobian


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


# -- Z[sqrt(d)][t] on dense coefficient lists ----------------------------------
#
# A ray entry is A(t) + sqrt(d) * B(t) with A, B dense lists of ints indexed by
# t-degree and trimmed of trailing zeros.  A t^j coefficient is zero only when
# both of its ints are, because sqrt(d) is irrational for the square-free d > 1
# that Scalar admits; d = 0 keeps every B empty.


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _add(f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    out = f[:]
    for i, x in enumerate(g):
        out[i] += x
    return _trim(out) if len(f) == len(g) else out


def _sub(f: list, g: list) -> list:
    out = f + [0] * (len(g) - len(f))
    for i, x in enumerate(g):
        out[i] -= x
    return _trim(out)


def _mul_into(out: list, f: list, g: list, scale: int = 1) -> None:
    """out += scale * f * g, growing out as needed (it may end in zeros)."""
    if not f or not g:
        return
    if len(out) < len(f) + len(g) - 1:
        out.extend([0] * (len(f) + len(g) - 1 - len(out)))
    for j, gj in enumerate(g):
        if gj:
            gj *= scale
            for i, fi in enumerate(f, j):
                out[i] += fi * gj


class RayPoly:
    """An entry A(t) + sqrt(d) * B(t) of Z[sqrt(d)][t]; see above."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: list, b: list, d: int):
        self.a, self.b, self.d = a, b, d

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __add__(self, other):
        b = _add(self.b, other.b) if self.b or other.b else []
        return RayPoly(_add(self.a, other.a), b, self.d)

    def __sub__(self, other):
        b = _sub(self.b, other.b) if self.b or other.b else []
        return RayPoly(_sub(self.a, other.a), b, self.d)

    def __mul__(self, other):
        return _dot((self,), (other,), self.d)

    def lowest_degree(self):
        for j, (x, y) in enumerate(itertools.zip_longest(self.a, self.b, fillvalue=0)):
            if x or y:
                return j
        return INF_DEGREE


def _dot(xs, ys, d: int) -> RayPoly:
    """sum_k xs[k] * ys[k], accumulated in one pair of lists."""
    a: list = []
    b: list = []
    for x, y in zip(xs, ys):
        _mul_into(a, x.a, y.a)
        if x.b or y.b:
            _mul_into(a, x.b, y.b, d)
            _mul_into(b, x.a, y.b)
            _mul_into(b, x.b, y.a)
    return RayPoly(_trim(a), _trim(b), d)


def _on_ray(terms: list, y, d: int) -> RayPoly:
    """The ray entry sum (A + sqrt(d) B) y^e t^j over the terms (j, e, A, B)."""
    a = [0] * (max((j for j, *_ in terms), default=-1) + 1)
    b = a[:]
    for j, mono, ca, cb in terms:
        v = math.prod(map(pow, y, mono))
        a[j] += ca * v
        b[j] += cb * v
    return RayPoly(_trim(a), _trim(b), d)


def ray_charpoly(G, U, drops, y) -> tuple[list, int]:
    """Principal-minor sums e_1..e_q of c * B(t) on the ray x = t*y, row i of
    G divided by t^{drops[i]}, as RayPoly entries, and the scale c = c_G^2 c_U,
    so that a_k(B(t)) = (-1)^k e_k(t) / c^k."""
    _, d_g, c_g, g_terms = _ray_g_half(G, drops)
    d = _one_radicand({d_g} - {0} | {v.d for row in U.entries for v in row if v.d})
    c_u = math.lcm(*(x.denominator for row in U.entries for v in row for x in (v.a, v.b)))
    u_cols = [[RayPoly(_trim([_scaled(v.a, c_u)]), _trim([_scaled(v.b, c_u)]), d)
               for v in col] for col in zip(*U.entries)]
    g_rows = [[_on_ray(terms, y, d) for terms in row] for row in g_terms]
    gu_rows = [[_dot(g_row, u_col, d) for u_col in u_cols] for g_row in g_rows]
    B = [[None] * len(g_rows) for _ in g_rows]
    for i, gu_row in enumerate(gu_rows):
        for j in range(i, len(B)):
            B[i][j] = B[j][i] = _dot(gu_row, g_rows[j], d)
    memo: dict = {}
    one = RayPoly([1], [], d)
    return [_minor_sum(B, k, memo, one) for k in range(1, len(B) + 1)], c_g * c_g * c_u


def ray_coeffs_at(sums, c: int, t0: Fraction) -> list:
    """a_1..a_q of B(t0) exactly: (-1)^k e_k(t0) / c^k from ``ray_charpoly``."""
    out = []
    for k, s in enumerate(sums, 1):
        parts = []
        for coeffs in (s.a, s.b):
            num, den = 0, 1  # Horner in ints: e(t0) = num / den
            for x in reversed(coeffs):
                num, den = num * t0.numerator + x * den * t0.denominator, den * t0.denominator
            parts.append(Fraction((-1) ** k * num, den * c**k))
        out.append(_surd(*parts, s.d))
    return out


class DenseSystem:
    """g and G at one point or a stack: one table of every monomial of g and G,
    and every entry summed over every column of it in monomial order."""

    def __init__(self, system):
        self.p = system.p
        self.q = system.q
        G = jacobian(system)
        polys = list(system.g) + [G.entry(i, j)
                                  for i in range(self.q) for j in range(self.p)]
        monos = sorted({mono for poly in polys for mono in poly.terms})
        column = {mono: k for k, mono in enumerate(monos)}
        self._exps = np.array(monos, dtype=np.int64).reshape(len(monos), self.p)
        self._coeffs = np.zeros((len(polys), len(monos)))
        for row, poly in enumerate(polys):
            for mono, coeff in poly.terms.items():
                self._coeffs[row, column[mono]] = float(coeff)

    def _evaluate(self, theta, rows: slice) -> np.ndarray:
        points = np.asarray(theta, dtype=float)
        stack = points.reshape(-1, self.p)
        monos = np.ones((stack.shape[0], self._exps.shape[0]))
        for j in range(self.p):
            monos *= stack[:, j:j + 1] ** self._exps[:, j]
        coeffs = self._coeffs[rows]
        out = np.zeros((stack.shape[0], coeffs.shape[0]))
        for k in range(coeffs.shape[1]):
            out += monos[:, k:k + 1] * coeffs[:, k]
        return out if points.ndim == 2 else out[0]

    def g_at(self, theta):
        return self._evaluate(theta, slice(0, self.q))

    def jacobian_at(self, theta):
        values = self._evaluate(theta, slice(self.q, None))
        return values.reshape(values.shape[:-1] + (self.q, self.p))


# -- the token-list polynomial grammar ------------------------------------------


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()−])
    """,
    re.VERBOSE,
)


def _tokenize(text: str, line: int, col: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected character {text[pos]!r}", line, pos + col)
        if m.lastgroup != "ws":
            value = m.group()
            if m.lastgroup == "number" and len(value) - ("." in value) > MAX_LITERAL_DIGITS:
                raise PolyParseError(
                    f"numeric literal longer than {MAX_LITERAL_DIGITS} digits", line, pos + col)
            if m.lastgroup == "op" and value == "−":
                value = "-"
            tokens.append((m.lastgroup, value, pos + col))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, line: int, end: int):
        self.tokens = tokens
        self.line = line
        self.end = end  # the column just past the text
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input", self.line, self.end)
        self.i += 1
        return tok

    def expect(self, value: str):
        tok = self.next()
        if tok[1] != value:
            raise PolyParseError(f"expected {value!r}, got {tok[1]!r}", self.line, tok[2])
        return tok

    def error(self, message: str):
        tok = self.peek()
        raise PolyParseError(message, self.line, tok[2] if tok else self.end)


def _parse_number(parser: _Parser) -> Fraction:
    kind, value, col = parser.next()
    if kind != "number":
        raise PolyParseError(f"expected a number, got {value!r}", parser.line, col)
    num = Fraction(value)
    tok = parser.peek()
    if tok is not None and tok[1] == "/":
        parser.next()
        kind2, value2, col2 = parser.next()
        if kind2 != "number" or "." in value2:
            raise PolyParseError("denominator must be an integer", parser.line, col2)
        den = Fraction(value2)
        if not den:
            raise PolyParseError("denominator must be nonzero", parser.line, col2)
        num /= den
    return num


def _parse_term(parser: _Parser, var_names: Sequence[str]) -> tuple[Scalar, Monomial]:
    coeff = ONE
    exponents = [0] * len(var_names)
    while True:
        tok = parser.peek()
        if tok is None:
            parser.error("empty term")
        kind, value, col = tok
        if kind == "number":
            coeff = coeff * _rational(_parse_number(parser))
        elif kind == "ident" and value == "sqrt":
            parser.next()
            parser.expect("(")
            kind2, value2, col2 = parser.next()
            if kind2 != "number" or "." in value2:
                raise PolyParseError("sqrt radicand must be an integer", parser.line, col2)
            parser.expect(")")
            try:
                surd = Scalar(0, 1, int(value2))
            except ValueError as exc:
                raise PolyParseError(str(exc), parser.line, col2) from exc
            coeff = coeff * surd
        elif kind == "ident":
            parser.next()
            if value not in var_names:
                raise PolyParseError(f"unknown variable {value!r}", parser.line, col)
            power = 1
            nxt = parser.peek()
            if nxt is not None and nxt[1] == "^":
                parser.next()
                kind2, value2, col2 = parser.next()
                if kind2 != "number" or "." in value2:
                    raise PolyParseError("exponent must be an integer", parser.line, col2)
                power = int(value2)
            exponents[var_names.index(value)] += power
        else:
            parser.error(f"unexpected token {value!r} in term")
        nxt = parser.peek()
        if nxt is not None and nxt[1] == "*":
            parser.next()
            continue
        break
    return coeff, tuple(exponents)


def reference_parse_polynomial(text: str, var_names: Sequence[str], line: int = 1,
                               col: int = 1) -> MultiPoly:
    """The grammar as a token list and a recursive-descent parser over it;
    errors put text's first character at (line, col)."""
    tokens = _tokenize(text, line, col)
    if not tokens:
        raise PolyParseError("empty polynomial", line, col)
    parser = _Parser(tokens, line, len(text) + col)
    terms: dict[Monomial, Scalar] = {}
    sign = 1
    tok = parser.peek()
    if tok is not None and tok[1] in "+-":
        parser.next()
        sign = -1 if tok[1] == "-" else 1
    while True:
        coeff, mono = _parse_term(parser, var_names)
        coeff = -coeff if sign < 0 else coeff
        other = coeff.d and next((c.d for c in terms.values() if c.d not in (0, coeff.d)), 0)
        if other:
            raise FieldMismatchError(f"cannot mix sqrt({other}) and sqrt({coeff.d}) polynomials")
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
        tok = parser.peek()
        if tok is None:
            return _trusted_poly(len(var_names), terms)
        if tok[1] not in "+-":
            raise PolyParseError(f"expected '+' or '-', got {tok[1]!r}", line, tok[2])
        parser.next()
        sign = -1 if tok[1] == "-" else 1


def reference_to_text(p: MultiPoly, var_names: Sequence[str]) -> str:
    """The polynomial grammar's text of p, each part of a coefficient built as
    a Scalar, compared with 1 and -1 and rendered by ``Scalar.to_text``."""
    if len(var_names) != p.nvars:
        raise ValueError("var_names length must equal nvars")
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.sorted_terms():
        # a + b*sqrt(d) splits into a rational term and a surd term
        parts = [_rational(coeff.a)] if coeff.a else []
        if coeff.b:
            parts.append(_surd(Fraction(0), coeff.b, coeff.d))
        for part in parts:
            pieces.append(_reference_term_text(part, mono, var_names))
    text = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            text += " - " + piece[1:]
        else:
            text += " + " + piece
    return text


def _reference_term_text(coeff: Scalar, mono: Monomial, var_names: Sequence[str]) -> str:
    vars_part = "*".join(
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(var_names, mono)
        if e > 0
    )
    if not vars_part:
        return coeff.to_text()
    if coeff == ONE:
        return vars_part
    if coeff == Scalar(-1):
        return "-" + vars_part
    return f"{coeff.to_text()}*{vars_part}"
