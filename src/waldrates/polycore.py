"""Exact sparse multivariate polynomial arithmetic over Q and Q(sqrt(d)).

All values are immutable after construction and every operation is a pure
function, so they can be shared freely across threads.  Coefficients live in
the quadratic extension Q(sqrt(d)) for a single square-free radicand d; plain
rationals are the d = 0 case.  Nothing here ever rounds.
"""

from __future__ import annotations

import contextlib
import math
import re
from fractions import Fraction
from typing import Sequence, Union

#: Degree assigned to the identically-zero polynomial.
INF_DEGREE = math.inf

RationalLike = Union[int, Fraction]


class FieldMismatchError(ValueError):
    """Combining scalars from two different quadratic extensions."""


#: Largest radicand d of sqrt(d).  The square-free test is trial division up
#: to sqrt(d): 10^5 steps at this bound, about 10^15 for a 31-digit radicand.
MAX_RADICAND = 10**10


def _is_square_free(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


class Scalar:
    """Exact number a + b*sqrt(d), with a, b rational and d square-free >= 0.

    When b = 0 the radicand is normalised to 0, so plain rationals from
    different sources always combine.  Two scalars with b != 0 may only be
    combined when their radicands agree.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 0):
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if d < 0 or not isinstance(d, int):
            raise ValueError(f"radicand must be a nonnegative integer, got {d!r}")
        if d > MAX_RADICAND:
            raise ValueError(f"radicand {d} exceeds the limit of {MAX_RADICAND}")
        if not _is_square_free(d):
            raise ValueError(f"radicand must be square-free, got {d}")
        if d == 0:
            b = Fraction(0)
        elif d == 1:
            a, b, d = a + b, Fraction(0), 0
        if b == 0:
            d = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Scalar is immutable")

    # -- coercion helpers -------------------------------------------------

    @staticmethod
    def coerce(value: "Scalar | RationalLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, Fraction):
            return _rational(value)
        if isinstance(value, int):
            return _rational(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as an exact scalar")

    def _join_d(self, other: "Scalar") -> int:
        if self.d == other.d:
            return self.d
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        raise FieldMismatchError(
            f"cannot mix sqrt({self.d}) and sqrt({other.d}) coefficients"
        )

    # -- ring operations ---------------------------------------------------

    # Rational fast path: when both operands have b = 0, +, -, *, / and unary -
    # do one Fraction operation.  No result re-runs the constructor's checks.

    def __add__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if not self.b and not other.b:
            return _rational(self.a + other.a)
        d = self._join_d(other)
        return _surd(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        if not self.b:
            return _rational(-self.a)
        return _surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if not self.b and not other.b:
            return _rational(self.a - other.a)
        d = self._join_d(other)
        return _surd(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if not self.b and not other.b:
            return _rational(self.a * other.a)
        d = self._join_d(other)
        return _surd(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "Scalar":
        return _surd(self.a, -self.b, self.d)

    def __truediv__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if not self.b and not other.b:
            return _rational(self.a / other.a)
        d = self._join_d(other)
        # norm a^2 - d b^2 is nonzero for nonzero elements (sqrt(d) irrational)
        norm = other.a * other.a - other.b * other.b * d
        num = self * other.conjugate()
        return _surd(num.a / norm, num.b / norm, d)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("scalar powers must be nonnegative integers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d): -1, 0 or +1."""
        a, b = self.a, self.b
        return _ZSqrt(a.numerator * b.denominator, b.numerator * a.denominator, self.d).sign()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __lt__(self, other) -> bool:
        other = Scalar.coerce(other)
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        other = Scalar.coerce(other)
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return not self <= other

    def __ge__(self, other) -> bool:
        return not self < other

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Render in the scalar grammar, e.g. ``7/10*sqrt(2)``, ``1-sqrt(2)``
        or ``-1/3``; a unit surd coefficient is written without ``1*``."""
        if self.b == 0:
            return _fraction_text(self.a)
        coeff = {1: "", -1: "-"}.get(self.b, f"{_fraction_text(self.b)}*")
        surd = f"{coeff}sqrt({self.d})"
        if self.a == 0:
            return surd
        sep = "+" if self.b > 0 else ""
        return f"{_fraction_text(self.a)}{sep}{surd}"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        if self.b == 0:
            return f"Scalar({self.a})"
        return f"Scalar({self.a}, {self.b}, d={self.d})"


_FRACTION_ZERO = Fraction(0)


def _rational(a: Fraction) -> Scalar:
    """The rational Scalar a + 0*sqrt(0), built without re-running the checks
    of ``Scalar.__init__`` (a is already an exact Fraction)."""
    out = object.__new__(Scalar)
    object.__setattr__(out, "a", a)
    object.__setattr__(out, "b", _FRACTION_ZERO)
    object.__setattr__(out, "d", 0)
    return out


def _surd(a: Fraction, b: Fraction, d: int) -> Scalar:
    """a + b*sqrt(d) like ``_rational``, for a radicand d that some Scalar
    already carries; b = 0 still normalises d to 0."""
    out = object.__new__(Scalar)
    object.__setattr__(out, "a", a)
    object.__setattr__(out, "b", b)
    object.__setattr__(out, "d", d if b else 0)
    return out


# -- Z and Z[sqrt(d)]: the rings of fraction-free elimination -----------------
#
# poly_rank's points and the LDL' of a covariance run on ints scaled by a common
# denominator: plain ints when every coefficient is rational, _ZSqrt otherwise.
# Both are integral domains, so a Bareiss quotient, a minor of the input, is
# the one exact quotient.


def _scaled(x: Fraction, c: int) -> int:
    """c * x as an int, for a multiple c of x's denominator."""
    return x.numerator * (c // x.denominator)


def _one_radicand(radicands: set) -> int:
    """The single radicand of a set of them, 0 for none."""
    if len(radicands) > 1:
        raise FieldMismatchError("cannot mix " + " and ".join(
            f"sqrt({d})" for d in sorted(radicands)) + " coefficients")
    return radicands.pop() if radicands else 0


class _ZSqrt:
    """a + b*sqrt(d) in Z[sqrt(d)] for a square-free d > 1 (or d = 0 with
    b = 0), with the ring operations fraction-free elimination needs.  It is
    zero only when a and b both are, since sqrt(d) is irrational."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        self.a, self.b, self.d = a, b, d

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __add__(self, other: _ZSqrt) -> _ZSqrt:
        return _ZSqrt(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: _ZSqrt) -> _ZSqrt:
        return _ZSqrt(self.a - other.a, self.b - other.b, self.d)

    def __mul__(self, other: _ZSqrt) -> _ZSqrt:
        return _ZSqrt(self.a * other.a + self.d * self.b * other.b,
                      self.a * other.b + self.b * other.a, self.d)

    def __floordiv__(self, other: _ZSqrt) -> _ZSqrt:
        """The quotient x / y for a y that divides x in Z[sqrt(d)]: x times the
        conjugate of y, over the norm a^2 - d b^2 of y, a nonzero int."""
        norm = other.a * other.a - self.d * other.b * other.b
        return _ZSqrt((self.a * other.a - self.d * self.b * other.b) // norm,
                      (self.b * other.a - self.a * other.b) // norm, self.d)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) as a real number: -1, 0 or +1."""
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa == sb or not sb:
            return sa
        if not sa or self.a * self.a < self.d * self.b * self.b:
            return sb
        return sa


def _zsqrt(a: int, b: int, d: int):
    """a + b*sqrt(d) as an int when d = 0, else as a _ZSqrt."""
    return _ZSqrt(a, b, d) if d else a


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


ONE = Scalar(1)
ZERO = Scalar(0)
_MINUS_ONE = Scalar(-1)

#: A monomial is the tuple of variable exponents (j_1, ..., j_p).
Monomial = tuple  # tuple[int, ...]


def _grlex_key(mono: Monomial):
    return (sum(mono), mono)


class MultiPoly:
    """Sparse multivariate polynomial with exact Scalar coefficients.

    Canonical form: zero coefficients are never stored, so equality is
    term-map equality.  Instances are immutable; all operations return new
    polynomials.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict[Monomial, Scalar] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars or any(e < 0 or not isinstance(e, int) for e in mono):
                raise ValueError(f"bad monomial {mono!r} for {nvars} variables")
            coeff = Scalar.coerce(coeff)
            if not coeff.is_zero():
                clean[mono] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, value, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Scalar.coerce(value)})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: ONE})

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}"
            )
        d1, d2 = self.field_d(), other.field_d()
        if d1 and d2 and d1 != d2:
            raise FieldMismatchError(
                f"cannot mix sqrt({d1}) and sqrt({d2}) polynomials"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = MultiPoly.constant(other, self.nvars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out[mono] + coeff if mono in out else coeff
        return _trusted_poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return _trusted_poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = MultiPoly.constant(other, self.nvars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                prod = c1 * c2
                out[mono] = out[mono] + prod if mono in out else prod
        return _trusted_poly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, value) -> "MultiPoly":
        value = Scalar.coerce(value)
        if value.is_zero():
            return MultiPoly.zero(self.nvars)
        return _trusted_poly(self.nvars, {m: c * value for m, c in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = MultiPoly.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = MultiPoly.constant(other, self.nvars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; use equality only

    # -- degree and structure queries ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int | float:
        """Maximal total degree; -inf for the zero polynomial."""
        if not self.terms:
            return -math.inf
        return max(sum(m) for m in self.terms)

    def lowest_degree(self) -> int | float:
        """Minimal total degree among stored terms; INF_DEGREE when zero."""
        if not self.terms:
            return INF_DEGREE
        return min(sum(m) for m in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in graded lexicographic order (degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def field_d(self) -> int:
        """The radicand shared by surd coefficients (0 if all rational)."""
        for coeff in self.terms.values():
            if coeff.d:
                return coeff.d
        return 0

    # -- calculus and rewriting ----------------------------------------------

    def partial_derivative(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        out: dict[Monomial, Scalar] = {}
        for mono, c in self.terms.items():
            if e := mono[var]:
                out[mono[:var] + (e - 1,) + mono[var + 1:]] = _surd(c.a * e, c.b and c.b * e, c.d)
        return _trusted_poly(self.nvars, out)

    def shift_origin(self, theta_bar: Sequence) -> "MultiPoly":
        """Return q(u) = p(theta_bar + u), expanded exactly.

        Taylor shift per monomial: c*x^e contributes
        c * prod_i C(e_i, k_i) * theta_i^(e_i - k_i) to the coefficient of u^k
        for every k <= e, accumulated in one dict.  The arithmetic runs on
        plain Fractions when theta_bar and every coefficient are rational.
        """
        if len(theta_bar) != self.nvars:
            raise ValueError(
                f"shift point has {len(theta_bar)} entries, expected {self.nvars}"
            )
        shift = [Scalar.coerce(t) for t in theta_bar]
        rational = not any(x.b for x in [*shift, *self.terms.values()])
        if rational:
            shift = [t.a for t in shift]
        rows: dict[tuple[int, int], list] = {}  # (i, e) -> [(k, C(e, k) theta_i^(e-k))]
        out: dict = {}
        for mono, coeff in self.terms.items():
            partial = [((), coeff.a if rational else coeff)]
            for i, e in enumerate(mono):
                if not e or not shift[i]:  # the one term k = e, factor 1
                    partial = [(ks + (e,), v) for ks, v in partial]
                    continue
                row = rows.get((i, e))
                if row is None:
                    row = rows[(i, e)] = [(k, math.comb(e, k) * shift[i] ** (e - k))
                                          for k in range(e + 1)]
                partial = [(ks + (k,), v * f) for ks, v in partial for k, f in row]
            for ks, v in partial:
                out[ks] = out[ks] + v if ks in out else v
        return _trusted_poly(self.nvars, {m: Scalar.coerce(v) for m, v in out.items()})

    def homogeneous_component(self, degree: int) -> "MultiPoly":
        """Sum of all terms of exactly the given total degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return _trusted_poly(
            self.nvars, {m: c for m, c in self.terms.items() if sum(m) == degree}
        )

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Sequence) -> Scalar:
        """Exact value at a rational point of ints, Fractions or rational Scalars
        (``_evaluate_ints`` on this polynomial alone)."""
        ((a, b, d),), den = _evaluate_ints([self], point)
        return _over(a, b, d, den)

    # -- rendering ---------------------------------------------------------------

    def to_text(self, var_names: Sequence[str]) -> str:
        """Render in the polynomial grammar using the given variable names."""
        if len(var_names) != self.nvars:
            raise ValueError("var_names length must equal nvars")
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono, coeff in self.sorted_terms():
            # a + b*sqrt(d) splits into a rational term and a surd term
            parts = [_rational(coeff.a)] if coeff.a else []
            if coeff.b:
                parts.append(_surd(_FRACTION_ZERO, coeff.b, coeff.d))
            for part in parts:
                pieces.append(_term_text(part, mono, var_names))
        text = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __str__(self) -> str:
        return self.to_text([f"x{i}" for i in range(self.nvars)])

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {dict(self.sorted_terms())!r})"


def _evaluate_ints(polys: Sequence[MultiPoly], point: Sequence) -> tuple[list, int]:
    """Exact values of polys at one rational point of ints, Fractions or
    rational Scalars, as integer numerators over one denominator: a list of
    (A, B, d), one per polynomial, whose value is (A + B*sqrt(d)) / den.

    At x_i = n_i/d_i the sums run in ints: with E_i the largest exponent of
    variable i in any of the polys, each monomial is prod n_i^e_i *
    d_i^(E_i - e_i) over D = prod d_i^E_i, and the coefficients are taken over
    the lcm L of all their denominators, so den = L*D.  One set of power
    tables and one lcm serve every polynomial.
    """
    for poly in polys:
        if len(point) != poly.nvars:
            raise ValueError(f"point has {len(point)} entries, expected {poly.nvars}")
    pt = [Scalar.coerce(x) for x in point]
    if any(x.b for x in pt):
        raise ValueError("evaluation points must be rational")
    top = [max(exps) for exps in zip(*(m for poly in polys for m in poly.terms))]  # E_i
    tables = [[x.a.numerator**e * x.a.denominator ** (top_e - e) for e in range(top_e + 1)]
              for x, top_e in zip(pt, top)]  # tables[i][e] = n_i^e d_i^(E_i - e)
    den = math.prod(row[0] for row in tables)
    lcm = math.lcm(*(f.denominator for poly in polys for c in poly.terms.values()
                     for f in (c.a, c.b)))
    values = []
    for poly in polys:
        num_a = num_b = radicand = 0
        for mono, coeff in poly.terms.items():
            m = 1
            for row, e in zip(tables, mono):
                m *= row[e]
            num_a += coeff.a.numerator * (lcm // coeff.a.denominator) * m
            if coeff.b:
                if radicand not in (0, coeff.d):
                    raise FieldMismatchError(
                        f"cannot mix sqrt({radicand}) and sqrt({coeff.d}) coefficients")
                radicand = coeff.d
                num_b += coeff.b.numerator * (lcm // coeff.b.denominator) * m
        values.append((num_a, num_b, radicand))
    return values, lcm * den


def _over(num_a: int, num_b: int, d: int, den: int) -> Scalar:
    """The Scalar (num_a + num_b*sqrt(d)) / den of ``_evaluate_ints``."""
    if num_b:
        return _surd(Fraction(num_a, den), Fraction(num_b, den), d)
    return _rational(Fraction(num_a, den))


def _trusted_poly(nvars: int, terms: dict) -> MultiPoly:
    """A MultiPoly from terms that internal arithmetic built: monomials are
    already tuples of nvars ints and coefficients already Scalars, so only the
    zero coefficients are dropped (``MultiPoly.__init__`` checks everything)."""
    out = object.__new__(MultiPoly)
    object.__setattr__(out, "nvars", nvars)
    object.__setattr__(out, "terms", {m: c for m, c in terms.items() if c.a or c.b})
    return out


def _term_text(coeff: Scalar, mono: Monomial, var_names: Sequence[str]) -> str:
    vars_part = "*".join(
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(var_names, mono)
        if e > 0
    )
    if not vars_part:
        return coeff.to_text()
    if coeff == ONE:
        return vars_part
    if coeff == _MINUS_ONE:
        return "-" + vars_part
    return f"{coeff.to_text()}*{vars_part}"


# ---------------------------------------------------------------------------
# Text grammar
#
#   poly   ::= [sign] term (('+'|'-') term)*
#   term   ::= factor ('*' factor)*
#   factor ::= number ['/' uint] | 'sqrt' '(' uint ')' | ident ['^' uint]
#   number ::= digits ['.' digits]
#
# Whitespace is insignificant, '−' (U+2212) is '-', and decimal literals parse
# to exact rationals.  A character outside the grammar, or a literal of more
# than MAX_LITERAL_DIGITS digits, is the error wherever it stands, ahead of any
# error of the grammar.
# ---------------------------------------------------------------------------


#: Most digits in one numeric literal.  A degree-16 term whose literals are
#: this long has a residual of at most about 17 * MAX_LITERAL_DIGITS digits at
#: a rational null point (25 * at a surd one), so a NullViolatedError stays
#: printable under Python's 4300-digit int-to-str limit.
MAX_LITERAL_DIGITS = 100


class PolyParseError(ValueError):
    """Parse failure with a 1-based line/column location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_NAME_PATTERN = "[A-Za-z_][A-Za-z_0-9]*"
_NAME_RE = re.compile(_NAME_PATTERN)

#: One token after any whitespace, by group: 1 a number, 2 a name, 3 an
#: operator, 4 any other character; no group matches at the end of the text.
_TOKEN = re.compile(rf"\s*(?:(\d+(?:\.\d+)?)|({_NAME_PATTERN})|([-+*/^()−])|(\S))?")
_NUMBER, _NAME, _OP, _OTHER = 1, 2, 3, 4


def _is_variable_name(name: str) -> bool:
    """Whether the grammar can read name as a variable: 'sqrt' is its function."""
    return name != "sqrt" and _NAME_RE.fullmatch(name) is not None


def _shown(m: re.Match) -> str:
    """A token as error messages quote it; '−' reads as '-'."""
    return "-" if m[_OP] == "−" else m[m.lastindex]


def _lexical_error(m: re.Match, line: int, col: int) -> PolyParseError | None:
    """The error of a token outside the alphabet or over MAX_LITERAL_DIGITS."""
    kind = m.lastindex
    if kind == _OTHER:
        return PolyParseError(f"unexpected character {m[kind]!r}", line, m.start(kind) + col)
    if kind == _NUMBER and len(m[kind]) - ("." in m[kind]) > MAX_LITERAL_DIGITS:
        return PolyParseError(
            f"numeric literal longer than {MAX_LITERAL_DIGITS} digits", line, m.start(kind) + col)
    return None


def _unexpected(m: re.Match, message: str, line: int, col: int, end: int) -> PolyParseError:
    """``message`` at token m, its '{}' quoting the token, or the end of input
    when m is past the text."""
    if m.lastindex is None:
        return PolyParseError("unexpected end of input", line, end)
    return PolyParseError(message.format(repr(_shown(m))), line, m.start(m.lastindex) + col)


def _integer(m: re.Match, what: str, line: int, col: int, end: int) -> int:
    """The value of token m, which must be an integer literal."""
    digits = m[_NUMBER]
    if digits is None or "." in digits:
        raise _unexpected(m, f"{what} must be an integer", line, col, end)
    if len(digits) > MAX_LITERAL_DIGITS:
        raise _lexical_error(m, line, col)
    return int(digits)


def parse_polynomial(text: str, var_names: Sequence[str], line: int = 1,
                     col: int = 1) -> MultiPoly:
    """Parse the polynomial grammar; errors put text's first character at (line, col).

    One pass over the tokens, which are read as the grammar asks for them; the
    text is scanned again only to find the error to report.  A term's
    coefficient is num/den * sqrt(radicand) on ints until the term ends, and
    terms keep the order of their monomials' first appearance.
    """
    try:
        return _parse(text, var_names, line, col)
    except (PolyParseError, FieldMismatchError):
        for m in _TOKEN.finditer(text):
            if error := _lexical_error(m, line, col):
                raise error from None
        raise


def _parse(text: str, var_names: Sequence[str], line: int, col: int) -> MultiPoly:
    nvars = len(var_names)
    index: dict[str, int] = {}
    for i, name in enumerate(var_names):
        index.setdefault(name, i)
    end = len(text) + col
    tokens = _TOKEN.finditer(text)  # ends with an empty match at the end of the text
    m = next(tokens)
    if m.lastindex is None:
        raise PolyParseError("empty polynomial", line, col)
    negative = m[_OP] in ("-", "−")
    if negative or m[_OP] == "+":
        m = next(tokens)
    terms: dict[Monomial, Scalar] = {}
    while True:
        num = den = 1
        radicand = 0  # 0 while the coefficient is rational; reset whenever num is 0
        exponents = [0] * nvars
        while True:
            kind = m.lastindex
            if kind is None:
                raise PolyParseError("empty term", line, end)
            if kind == _NUMBER:
                whole, _, decimals = m[kind].partition(".")
                if len(whole) + len(decimals) > MAX_LITERAL_DIGITS:
                    raise _lexical_error(m, line, col)
                num *= int(whole + decimals)
                den *= 10 ** len(decimals)
                m = next(tokens)
                if m[_OP] == "/":
                    m = next(tokens)
                    divisor = _integer(m, "denominator", line, col, end)
                    if not divisor:
                        raise PolyParseError("denominator must be nonzero", line,
                                             m.start(_NUMBER) + col)
                    den *= divisor
                    m = next(tokens)
                if not num:
                    radicand = 0
            elif kind == _NAME and m[kind] == "sqrt":
                m = next(tokens)
                if m[_OP] != "(":
                    raise _unexpected(m, "expected '(', got {}", line, col, end)
                m = next(tokens)
                d = _integer(m, "sqrt radicand", line, col, end)
                at = m.start(_NUMBER) + col
                m = next(tokens)
                if m[_OP] != ")":
                    raise _unexpected(m, "expected ')', got {}", line, col, end)
                try:
                    surd = Scalar(0, 1, d)
                except ValueError as exc:
                    raise PolyParseError(str(exc), line, at) from exc
                if not surd.b:  # 0 or 1
                    num *= surd.a.numerator
                    radicand = radicand if num else 0
                elif radicand == d:
                    num, radicand = num * d, 0
                elif radicand:
                    raise FieldMismatchError(f"cannot mix sqrt({radicand}) and sqrt({d}) coefficients")
                elif num:
                    radicand = d
                m = next(tokens)
            elif kind == _NAME:
                i = index.get(m[kind])
                if i is None:
                    raise PolyParseError(f"unknown variable {m[kind]!r}", line, m.start(kind) + col)
                m = next(tokens)
                if m[_OP] == "^":
                    m = next(tokens)
                    exponents[i] += _integer(m, "exponent", line, col, end)
                    m = next(tokens)
                else:
                    exponents[i] += 1
            else:
                raise PolyParseError(f"unexpected token {_shown(m)!r} in term", line,
                                     m.start(kind) + col)
            if m[_OP] != "*":
                break
            m = next(tokens)
        value = Fraction(-num if negative else num, den)
        coeff = _surd(_FRACTION_ZERO, value, radicand) if radicand else _rational(value)
        other = radicand and next((c.d for c in terms.values() if c.d not in (0, radicand)), 0)
        if other:
            raise FieldMismatchError(f"cannot mix sqrt({other}) and sqrt({radicand}) polynomials")
        mono = tuple(exponents)
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
        if m.lastindex is None:
            return _trusted_poly(nvars, terms)
        if m[_OP] not in ("+", "-", "−"):
            raise PolyParseError(f"expected '+' or '-', got {_shown(m)!r}", line,
                                 m.start(m.lastindex) + col)
        negative = m[_OP] != "+"
        m = next(tokens)


# [sign] digits [. digits] [/ digits] [*sqrt(digits)], nearly every theta_bar
# and V entry.  parse_scalar hands any other text, any literal it would have to
# reject and any text longer than MAX_LITERAL_DIGITS to the grammar, so every
# error message and column comes from there.
_LITERAL_RE = re.compile(r"([-+−]?)([0-9]+)(?:\.([0-9]+))?(?:/([0-9]+))?(?:\*sqrt\(([0-9]+)\))?")


def parse_scalar(text: str, line: int = 1, col: int = 1) -> Scalar:
    """Parse a single scalar entry, e.g. ``-7/10*sqrt(2)``, ``0.98`` or ``3``."""
    m = _LITERAL_RE.fullmatch(text)
    if m and len(text) <= MAX_LITERAL_DIGITS and int(m[4] or 1):
        sign, whole, frac, den, radicand = m.groups()
        num = int(whole + (frac or ""))
        value = Fraction(-num if sign in ("-", "−") else num,
                         int(den or 1) * 10 ** len(frac or ""))
        if radicand is None:
            return _rational(value)
        with contextlib.suppress(ValueError):  # the grammar locates the error
            return Scalar(0, value, int(radicand))
    return parse_polynomial(text, [], line=line, col=col).terms.get((), ZERO)
