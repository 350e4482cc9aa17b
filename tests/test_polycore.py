"""Exact polynomial arithmetic: frozen examples and algebraic properties."""

import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waldrates import polycore
from waldrates.polycore import (
    INF_DEGREE,
    MAX_LITERAL_DIGITS,
    FieldMismatchError,
    MultiPoly,
    PolyParseError,
    Scalar,
    parse_polynomial,
    parse_scalar,
)
from waldrates.restriction import PolyMatrix, poly_rank

from oracle import reference_parse_polynomial, reference_to_text, scalar_mat_rank

V4 = ["x", "y", "z", "w"]


def poly(text, names=V4):
    return parse_polynomial(text, names)


# -- Scalar ------------------------------------------------------------------


class TestScalar:
    def test_surd_product_is_exact_rational(self):
        s = Scalar(0, Fraction(7, 10), 2)
        assert s * s == Scalar(Fraction(49, 50))
        assert float(s * s) == pytest.approx(0.98)

    def test_conjugate_product_identity(self):
        rng = random.Random(1)
        for _ in range(200):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            s = Scalar(a, b, 2)
            assert s * s.conjugate() == Scalar(a * a - 2 * b * b)

    def test_plain_rational_behaviour(self):
        assert Scalar(Fraction(1, 3), 0, 2) == Scalar(Fraction(1, 3))
        assert Scalar(2, 0, 0).d == 0

    def test_zero_test_exact(self):
        assert Scalar(0, 0, 2).is_zero()
        assert not Scalar(0, Fraction(1, 10**12), 2).is_zero()

    def test_division(self):
        s = Scalar(1, 1, 2)
        assert s / s == Scalar(1)
        assert Scalar(1) / s == s.conjugate() / Scalar(-1)  # 1/(1+r2) = r2 - 1

    def test_sign(self):
        assert Scalar(3, -2, 2).sign() == 1      # 3 - 2*sqrt(2) > 0
        assert Scalar(2, -2, 2).sign() == -1     # 2 - 2*sqrt(2) < 0
        assert Scalar(-3, Fraction(22, 10), 2).sign() == 1
        assert Scalar(0).sign() == 0

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            Scalar(0, 1, 2) + Scalar(0, 1, 3)
        # rationals join any extension
        assert Scalar(1) + Scalar(0, 1, 3) == Scalar(1, 1, 3)

    def test_square_free_required(self):
        with pytest.raises(ValueError):
            Scalar(1, 1, 4)

    def test_radicand_one_folds(self):
        assert Scalar(1, 2, 1) == Scalar(3)

    def test_radicand_size_limit(self):
        # the bound is checked before the trial division
        with patch.object(polycore, "_is_square_free", wraps=polycore._is_square_free) as check:
            with pytest.raises(ValueError, match="exceeds the limit"):
                Scalar(0, 1, polycore.MAX_RADICAND + 1)
        assert check.call_count == 0
        assert Scalar(0, 1, 9999999967).d == 9999999967  # square-free, at the bound

    @pytest.mark.parametrize("text, col", [("sqrt(1000000000000000000000000000057)", 6),
                                           ("2*sqrt(1000000000000000000000000000057)", 8)])
    def test_radicand_size_limit_is_located(self, text, col):
        for read in (lambda t: parse_scalar(t, line=5),
                     lambda t: parse_polynomial(t + "*x", V4, line=5)):
            with pytest.raises(PolyParseError, match="exceeds the limit") as err:
                read(text)
            assert (err.value.line, err.value.col) == (5, col)


# -- operation examples --------------------------------------------------------


class TestAdd:
    def test_additive_inverse(self):
        p = poly("x*y")
        assert (p + (-p)).is_zero()

    def test_term_merge(self):
        assert poly("x^2") + poly("x^2 + y") == poly("2*x^2 + y")

    def test_surd_cancellation(self):
        left = poly("x + 7/10*sqrt(2)*y")
        right = poly("x - 7/10*sqrt(2)*y")
        assert left + right == poly("2*x")

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            poly("x") + parse_polynomial("x", ["x"])

    def test_field_extension_mismatch(self):
        left = poly("sqrt(2)*x")
        right = poly("sqrt(3)*y")
        with pytest.raises(FieldMismatchError):
            left + right
        with pytest.raises(FieldMismatchError):
            left * right


class TestMul:
    def test_variables(self):
        assert poly("x") * poly("y") == poly("x*y")

    def test_recentred_factor(self):
        assert poly("1 + w") * poly("x") == poly("x + w*x")

    def test_surd_squares(self):
        s = MultiPoly.constant(Scalar(0, Fraction(7, 10), 2), 4)
        assert s * s == MultiPoly.constant(Fraction(49, 50), 4)

    def test_degree_additive(self):
        a, b = poly("x^2*y + z"), poly("w^3 + x")
        assert (a * b).total_degree() == a.total_degree() + b.total_degree()


class TestPartialDerivative:
    def test_product(self):
        assert poly("x*y").partial_derivative(0) == poly("y")

    def test_constant(self):
        assert MultiPoly.constant(5, 4).partial_derivative(0).is_zero()

    def test_power_rule(self):
        assert poly("x^2*y^3").partial_derivative(1) == poly("3*x^2*y^2")

    def test_index_range(self):
        with pytest.raises(IndexError):
            poly("x").partial_derivative(4)

    @pytest.mark.parametrize("text, var, want", [
        ("3/4*x^3*y - 2/3*y*z^2 + w", 0, "9/4*x^2*y"),
        ("3/4*x^3*y - 2/3*y*z^2 + w", 2, "-4/3*y*z"),
        ("sqrt(2)*x^2*y + 1/2*x*y - 1/3*sqrt(2)*z^4 + z^2 - sqrt(2)*z^2", 2,
         "-4/3*sqrt(2)*z^3 + 2*z - 2*sqrt(2)*z"),
    ], ids=["rational-x", "rational-z", "surd-z"])
    def test_multiplies_coefficient_parts_by_the_exponent(self, text, var, want):
        # the int exponent scales a and b; no Scalar product is formed
        p, expected = poly(text), poly(want)
        with patch.object(Scalar, "__mul__", side_effect=AssertionError):
            got = p.partial_derivative(var)
        assert got == expected


class TestShiftOrigin:
    def test_product_with_unit_shift(self):
        assert poly("x*w").shift_origin([0, 0, 1, 1]) == poly("x + x*w")

    def test_identity_shift(self):
        p = poly("x")
        assert p.shift_origin([0, 0, 0, 0]) == p

    def test_direct_substitution(self):
        assert poly("y*z").shift_origin([0, 0, 1, 1]) == poly("y + y*z")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poly("x").shift_origin([1, 2])

    def test_one_radicand_per_system(self):
        sqrt3 = Scalar(0, 1, 3)
        with pytest.raises(FieldMismatchError):
            poly("sqrt(2)*x").shift_origin([sqrt3, 0, 0, 0])
        # the radicand is the system's, even where no product would mix them
        with pytest.raises(FieldMismatchError):
            polycore._shift_origin([poly("sqrt(2)*y"), poly("x")], [sqrt3, 0, 0, 0])

    def test_system_with_different_top_exponents(self):
        # x's top exponent is 3, 1 and 2 in turn, and theta_x = 1/2 scales each
        # weight row by its own power of 2
        ps = [poly("x^3 - 2*x*y^2 + 1/3"), poly("5*x"), poly("2/3*x^2*y - y + 1"), poly("0")]
        theta = [Fraction(1, 2), Fraction(-2, 3), 0, 0]
        shifted = [q.terms for q in polycore._shift_origin(ps, theta)]
        assert shifted == [_shift_by_powers(p, theta).terms for p in ps]
        assert shifted[1] == poly("5/2 + 5*x").terms


def _lowest_part(p):
    """(lowest degree, lowest homogeneous part), as echelonize reads each row."""
    deg = p.lowest_degree()
    return deg, p.homogeneous_component(int(deg)) if p.terms else p


class TestLowestHomogeneousPart:
    def test_mixed_degrees(self):
        deg, low = _lowest_part(poly("x + x*w"))
        assert low == poly("x")
        assert deg == 1
        assert poly("x + x*w") - low == poly("x*w")

    def test_zero_polynomial_convention(self):
        deg, low = _lowest_part(MultiPoly.zero(4))
        assert low.is_zero()
        assert deg == INF_DEGREE
        assert MultiPoly.zero(4).lowest_degree() == INF_DEGREE

    def test_lowest_monomial_of_quartic(self):
        deg, low = _lowest_part(poly("2*x^2*y^2 + x^4*y^2 + x^2*y^4"))
        assert low == poly("2*x^2*y^2")
        assert deg == 4


class TestEvaluate:
    def test_product_point(self):
        assert poly("x*y").evaluate([2, 3, 0, 0]) == Scalar(6)

    def test_sum_of_squares(self):
        assert poly("x^2 + y^2").evaluate([1, 1, 0, 0]) == Scalar(2)

    def test_printed_quartic_value(self):
        # det coefficient of the product-pairs system at (1, 1, 0, 0): 1 + 1 + 2
        p = poly(
            "w^2*x^2*y^2 + 2*w*x^2*y^2 + x^4*y^2 + x^2*y^4"
            " + x^2*y^2*z^2 + 2*x^2*y^2*z + 2*x^2*y^2"
        )
        assert p.evaluate([1, 1, 0, 0]) == Scalar(4)

    def test_float_point_rejected(self):
        with pytest.raises(TypeError):
            poly("x*y").evaluate([2.0, 3.0, 0.0, 0.0])

    def test_surd_point_rejected(self):
        with pytest.raises(ValueError, match="rational"):
            poly("x*y").evaluate([Scalar(0, 1, 2), 1, 0, 0])

    def test_two_radicands_in_one_grid_rejected(self):
        # the grid is read over one radicand, so sqrt(2) and sqrt(3) entries
        # do not each keep their own
        M = PolyMatrix([[poly("sqrt(2)*x + y"), poly("sqrt(3)*y")]])
        for evaluate in (M.evaluate, M.evaluate_ints):
            with pytest.raises(FieldMismatchError, match=r"sqrt\(2\) and sqrt\(3\)"):
                evaluate([1, 2, 0, 0])


class TestHomogeneousComponent:
    def test_degree_one(self):
        assert poly("x + x*w").homogeneous_component(1) == poly("x")

    def test_degree_two(self):
        assert poly("x + x*w").homogeneous_component(2) == poly("x*w")

    def test_missing_degree_is_zero(self):
        p = poly("x^2*y^2*w^2 + x^3*y^3")
        assert p.homogeneous_component(4).is_zero()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            poly("x").homogeneous_component(-1)


# -- ring axioms over random instances ------------------------------------------


def _random_poly(rng, nvars=4, max_terms=4, max_deg=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[tuple(mono)] = terms.get(tuple(mono), Fraction(0)) + coeff
    return MultiPoly(nvars, {m: c for m, c in terms.items() if c})


def test_ring_axioms_random_instances():
    rng = random.Random(20240810)
    for _ in range(1000):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_derivative_linearity_and_product_rule():
    rng = random.Random(7)
    for _ in range(300):
        a, b = _random_poly(rng), _random_poly(rng)
        k = rng.randrange(4)
        assert (a + b).partial_derivative(k) == \
            a.partial_derivative(k) + b.partial_derivative(k)
        assert (a * b).partial_derivative(k) == \
            a.partial_derivative(k) * b + a * b.partial_derivative(k)


# -- hypothesis property tests -----------------------------------------------------


fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def polys(draw, nvars=3, max_deg=4, coeffs=fractions_st):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        if sum(mono) > max_deg:
            continue
        coeff = draw(coeffs)
        if coeff:
            terms[mono] = coeff
    return MultiPoly(nvars, terms)


_surd_coeffs = st.builds(lambda a, b: Scalar(a, b, 2), fractions_st, fractions_st)


@settings(max_examples=200, deadline=None)
@given(polys(coeffs=st.one_of(fractions_st, _surd_coeffs)), st.integers(0, 2))
def test_partial_derivative_matches_scalar_products(p, var):
    want = {}
    for mono, coeff in p.terms.items():
        if mono[var]:
            down = mono[:var] + (mono[var] - 1,) + mono[var + 1:]
            want[down] = coeff * mono[var]
    got = p.partial_derivative(var)
    assert got.terms == want
    assert all(c.d == (2 if c.b else 0) for c in got.terms.values())


@settings(max_examples=150, deadline=None)
@given(polys())
def test_lowest_part_reconstruction(p):
    deg, low = _lowest_part(p)
    rest = p - low
    if not low.is_zero():
        assert all(sum(m) == deg for m in low.terms)
    if not rest.is_zero():
        assert rest.lowest_degree() > deg


@settings(max_examples=150, deadline=None)
@given(polys(), st.lists(fractions_st, min_size=3, max_size=3))
def test_shift_origin_roundtrip(p, theta):
    shifted = p.shift_origin(theta)
    assert shifted.shift_origin([-t for t in theta]) == p


@settings(max_examples=150, deadline=None)
@given(polys(), st.lists(fractions_st, min_size=3, max_size=3),
       st.lists(fractions_st, min_size=3, max_size=3))
def test_shift_origin_evaluation_commutes(p, theta, u):
    lhs = p.shift_origin(theta).evaluate(u)
    rhs = p.evaluate([t + v for t, v in zip(theta, u)])
    assert lhs == rhs


# -- text grammar -----------------------------------------------------------------


class TestGrammar:
    def test_examples_parse(self):
        assert poly("x*y") == MultiPoly.variable(0, 4) * MultiPoly.variable(1, 4)
        assert parse_scalar("0.98") == Scalar(Fraction(49, 50))
        assert parse_scalar("7/10*sqrt(2)") == Scalar(0, Fraction(7, 10), 2)
        assert parse_scalar("-1/2") == Scalar(Fraction(-1, 2))

    def test_decimal_literals_are_exact(self):
        assert parse_scalar("0.1") == Scalar(Fraction(1, 10))

    def test_unicode_minus(self):
        assert poly("x − y") == poly("x - y")

    def test_whitespace_insignificant(self):
        assert poly("2 * x ^ 2+y") == poly("2*x^2 + y")

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError) as err:
            poly("x*q")
        assert "q" in str(err.value)

    def test_error_location(self):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial("x + $", V4, line=12)
        assert err.value.line == 12
        assert err.value.col == 5

    @pytest.mark.parametrize("text, col", [("3/0", 3), ("-2.5/00*sqrt(2)", 6),
                                           ("x*y + 1/0", 9)])
    def test_zero_denominator_is_located(self, text, col):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, V4, line=6)
        assert (err.value.line, err.value.col) == (6, col)
        assert "denominator must be nonzero" in str(err.value)

    def test_mixed_radicands_rejected_unless_cancelled(self):
        with pytest.raises(FieldMismatchError, match=r"sqrt\(2\) and sqrt\(3\) polynomials"):
            poly("sqrt(2)*x + y + sqrt(3)*z")
        # the sqrt(2) terms cancel before the sqrt(3) term arrives
        assert poly("sqrt(2)*x - sqrt(2)*x + sqrt(3)*z") == poly("sqrt(3)*z")

    def test_round_trip_rendering(self):
        texts = [
            "x*y - 2*w^3 + 1/3",
            "7/10*sqrt(2)*x + y^2 - 0.25",
            "1 + w + w^2",
        ]
        for text in texts:
            p = poly(text)
            assert poly(p.to_text(V4)) == p

    def test_surd_coefficient_splits_on_render(self):
        p = MultiPoly(2, {(1, 0): Scalar(1, 1, 2)})
        rendered = p.to_text(["x", "y"])
        assert parse_polynomial(rendered, ["x", "y"]) == p


# -- rational fast path of Scalar ------------------------------------------------

surds_st = st.builds(Scalar, fractions_st, fractions_st.filter(bool), st.sampled_from((2, 3, 5)))


def _general(op, x, y):
    """The constructor path: (a, b, d) as Scalar.__init__ normalises them."""
    d = x.d or y.d
    if op == "+":
        out = Scalar(x.a + y.a, x.b + y.b, d)
    elif op == "-":
        out = Scalar(x.a - y.a, x.b - y.b, d)
    else:
        out = Scalar(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)
    return out.a, out.b, out.d


def _apply(op, x, y):
    return x + y if op == "+" else (x - y if op == "-" else x * y)


@settings(max_examples=150, deadline=None)
@given(fractions_st, fractions_st, st.sampled_from("+-*"))
def test_rational_fast_path_matches_general_path(x, y, op):
    sx, sy = Scalar(x), Scalar(y)
    with patch.object(polycore, "_rational", wraps=polycore._rational) as fast:
        out = _apply(op, sx, sy)
        neg = -sx
    assert fast.call_count == 2
    assert (out.a, out.b, out.d) == _general(op, sx, sy)
    assert (neg.a, neg.b, neg.d) == (Scalar(-x).a, Scalar(-x).b, Scalar(-x).d)
    assert type(out.a) is Fraction and type(out.b) is Fraction


@settings(max_examples=150, deadline=None)
@given(fractions_st, surds_st, st.sampled_from("+-*"), st.booleans())
def test_mixed_operands_take_general_path(x, surd, op, rational_first):
    sx = Scalar(x)
    lhs, rhs = (sx, surd) if rational_first else (surd, sx)
    with patch.object(polycore, "_rational", wraps=polycore._rational) as fast:
        out = _apply(op, lhs, rhs)
        neg = -surd
    assert fast.call_count == 0
    assert (out.a, out.b, out.d) == _general(op, lhs, rhs)
    assert (neg.a, neg.b, neg.d) == (-surd.a, -surd.b, surd.d)


@settings(max_examples=150, deadline=None)
@given(surds_st, fractions_st, fractions_st, st.sampled_from("+-*"))
def test_surd_results_skip_the_radicand_test(x, a, b, op):
    # the operands' radicand was tested when they were built, so surd results
    # come from the trusted constructor; b = 0 still normalises d to 0
    y, surd_part = Scalar(a, b, x.d), Scalar(0, x.b, x.d)
    with patch.object(polycore, "_is_square_free", wraps=polycore._is_square_free) as check:
        out = _apply(op, x, y)
        quotient = x / x.conjugate()
        norm = x * x.conjugate()
        rational_part = x - surd_part
    assert check.call_count == 0
    assert (out.a, out.b, out.d) == _general(op, x, y)
    assert quotient * x.conjugate() == x
    assert (norm.a, norm.b, norm.d) == (x.a**2 - x.b**2 * x.d, 0, 0)
    assert (rational_part.a, rational_part.b, rational_part.d) == (x.a, 0, 0)


@settings(max_examples=150, deadline=None)
@given(fractions_st, fractions_st.filter(bool))
def test_rational_division_fast_path(x, y):
    sx, sy = Scalar(x), Scalar(y)
    with patch.object(polycore, "_is_square_free", wraps=polycore._is_square_free) as check:
        out = sx / sy
    assert check.call_count == 0  # no trip through Scalar.__init__
    assert (out.a, out.b, out.d) == (x / y, 0, 0)
    assert type(out.a) is Fraction and type(out.b) is Fraction
    with pytest.raises(ZeroDivisionError):
        sx / Scalar(0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.builds(Scalar, fractions_st, fractions_st, st.just(2)),
                          st.booleans()), max_size=6))
def test_trusted_constructor_matches_public(entries):
    # internal results are built through polycore._trusted_poly; a term added
    # together with its negative cancels to an exact zero Scalar
    terms = {}
    for mono, coeff, cancel in entries:
        for c in (coeff, -coeff) if cancel else (coeff,):
            terms[mono] = terms[mono] + c if mono in terms else c
    trusted = polycore._trusted_poly(2, terms)
    public = MultiPoly(2, terms)
    assert trusted == public
    assert trusted.terms == public.terms
    assert all(not c.is_zero() for c in trusted.terms.values())


# -- integer-native front end against its references --------------------------------


@st.composite
def scalar_texts(draw):
    """Scalar entries: mostly literals [sign] a[.b][/c][*sqrt(d)] with leading
    zeros, zero denominators and radicands that are not square-free, some with
    one character inserted or replaced so they leave the literal form."""
    digits = st.text("0123456789", min_size=1, max_size=4)
    text = draw(st.sampled_from(["", "+", "-", "\u2212"])) + draw(digits)
    if draw(st.booleans()):
        text += "." + draw(digits)
    if draw(st.booleans()):
        text += "/" + draw(st.one_of(st.sampled_from(["0", "00"]), digits))
    if draw(st.booleans()):
        text += f"*sqrt({draw(st.integers(0, 30))})"
    if draw(st.integers(0, 3)) == 0:
        pos = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(list(" .*/()+-^x_\u0663") + ["sqrt(2)", "*sqrt(3)"]))
        text = text[:pos] + char + text[pos + draw(st.integers(0, 1)):]
    return text


def _outcome(read, text):
    try:
        value = read(text)
    except ValueError as exc:  # PolyParseError, FieldMismatchError
        return type(exc).__name__, str(exc), getattr(exc, "col", None)
    assert type(value.a) is Fraction and type(value.b) is Fraction
    return value.a, value.b, value.d


@settings(max_examples=600, deadline=None)
@given(scalar_texts())
def test_parse_scalar_matches_grammar(text):
    grammar = _outcome(lambda t: parse_polynomial(t, [], line=4).terms.get((), Scalar(0)), text)
    assert _outcome(lambda t: parse_scalar(t, line=4), text) == grammar


def test_parse_scalar_reads_literals_without_the_grammar():
    with patch.object(polycore, "parse_polynomial", side_effect=AssertionError) as grammar:
        assert parse_scalar("-007.50/3") == Scalar(Fraction(-5, 2))
        assert parse_scalar("\u22121/2*sqrt(2)") == Scalar(0, Fraction(-1, 2), 2)
        assert parse_scalar("+4*sqrt(1)") == Scalar(4)
    assert grammar.call_count == 0


# -- the one-pass parser against the token-list grammar ----------------------------

V3 = ["x", "y", "z"]


def _parsed(parse, text):
    """A parse's terms in order, or its error's type, text and location."""
    try:
        p = parse(text, V3, line=7, col=3)
    except ValueError as exc:  # PolyParseError, FieldMismatchError
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return p.nvars, list(p.terms.items())


@st.composite
def rendered_polys(draw):
    """to_text of up to six polynomials with rational and sqrt(2) or sqrt(3)
    coefficients, summed in one text, with some '-' written '−' and runs of
    spaces added around the operators.  Many summands are single terms on a
    few monomials, so that monomials repeat, cancel and come back."""
    d = draw(st.sampled_from((2, 3)))
    coeffs = st.one_of(fractions_st, st.builds(lambda a, b: Scalar(a, b, d), fractions_st,
                                                fractions_st))
    single = st.builds(lambda mono, c: MultiPoly(3, {mono: c}),
                       st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)]),
                       st.sampled_from([1, -1, 2, Fraction(-1, 2), Scalar(0, 1, d)]))
    summands = draw(st.lists(st.one_of(polys(coeffs=coeffs, max_deg=2), single),
                             min_size=1, max_size=6))
    text = summands[0].to_text(V3)
    for p in summands[1:]:
        piece = p.to_text(V3)
        text += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    out = []
    for char in text:
        if char in "+-*/^()":
            out.append(draw(st.sampled_from(["", " ", "  ", "\t"])))
            out.append("\u2212" if char == "-" and draw(st.booleans()) else char)
            out.append(draw(st.sampled_from(["", " ", "  "])))
        else:
            out.append(char)
    return "".join(out)


@settings(max_examples=400, deadline=None)
@given(rendered_polys())
def test_parser_matches_token_list_grammar_on_rendered_polys(text):
    got = _parsed(parse_polynomial, text)
    assert got == _parsed(reference_parse_polynomial, text)
    assert got[0] == 3  # parsed, not an error


# pieces of the grammar's alphabet, a stray '$' and an over-long literal
_PIECES = ["x", "y", "z", "w", "_", "sqrt", "sqrt(2)", "sqrt(3)", "sqrt(4)", "sqrt(0)", "0",
           "1", "2", "07", "1.5", "3.", ".", "/", "/0", "^", "^2", "*", "+", "-", "\u2212",
           "(", ")", " ", "  ", "$", "1" * (MAX_LITERAL_DIGITS + 1)]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_PIECES),
                          st.text("0123456789.xyz_+-*/^() $\u2212", max_size=3)), max_size=12))
def test_parser_matches_token_list_grammar_on_any_text(pieces):
    # the same error type, message, line and column, or equal terms in the same order
    text = "".join(pieces)
    assert _parsed(parse_polynomial, text) == _parsed(reference_parse_polynomial, text)


q_sqrt2_st = st.one_of(fractions_st, st.builds(Scalar, fractions_st, fractions_st, st.just(2)))


@settings(max_examples=300, deadline=None)
@given(fractions_st, st.one_of(st.sampled_from((1, -1)), fractions_st),
       st.sampled_from((2, 3, 9999999967)))
def test_scalar_text_round_trips(a, b, d):
    # b = +-1 is written sqrt(d) or -sqrt(d), after a when a is nonzero
    s = Scalar(a, b, d)
    text = s.to_text()
    assert parse_scalar(text) == s
    assert (f"*sqrt({d})" in text) == (s.b not in (0, 1, -1))


def _shift_by_powers(p, theta):
    """Test oracle: p(theta + u) as a sum of products of (u_k + theta_k)^e."""
    out = MultiPoly.zero(p.nvars)
    for mono, coeff in p.terms.items():
        term = MultiPoly.constant(coeff, p.nvars)
        for k, e in enumerate(mono):
            term = term * (MultiPoly.variable(k, p.nvars) + theta[k]) ** e
        out = out + term
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((fractions_st, q_sqrt2_st)).flatmap(
    lambda coeffs: st.tuples(st.lists(polys(coeffs=coeffs, max_deg=5), min_size=1, max_size=3),
                             st.lists(st.one_of(st.just(0), coeffs), min_size=3, max_size=3))))
def test_shift_origin_matches_product_of_powers(system):
    # one shift of the whole system, each polynomial's top exponents its own
    ps, theta = system
    shifted = [q.terms for q in polycore._shift_origin(ps, theta)]
    assert shifted == [p.shift_origin(theta).terms for p in ps]
    assert shifted == [_shift_by_powers(p, theta).terms for p in ps]


def _fraction_reference(p, point):
    """Test oracle at a rational point: the a and b parts summed one Fraction
    product at a time."""
    xs = [Scalar.coerce(x).a for x in point]
    a = b = Fraction(0)
    for mono, coeff in p.terms.items():
        m = Fraction(1)
        for x, e in zip(xs, mono):
            for _ in range(e):
                m *= x
        a += coeff.a * m
        b += coeff.b * m
    return Scalar(a, b, p.field_d())


wide_fractions_st = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
rational_coords_st = st.one_of(wide_fractions_st, st.integers(-50, 50),
                               st.builds(Scalar, wide_fractions_st))


@settings(max_examples=300, deadline=None)
@given(polys(coeffs=q_sqrt2_st, max_deg=6), st.lists(rational_coords_st, min_size=3, max_size=3))
def test_exact_evaluate_matches_fraction_reference(p, point):
    out, ref = p.evaluate(point), _fraction_reference(p, point)
    assert (out.a, out.b, out.d) == (ref.a, ref.b, ref.d)
    assert type(out.a) is Fraction and type(out.b) is Fraction


@st.composite
def poly_grids(draw):
    """A 1-3 x 1-3 grid of polynomials in 3 variables over Q or Q(sqrt(2))."""
    coeffs = draw(st.sampled_from((fractions_st, q_sqrt2_st)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [[draw(polys(coeffs=coeffs)) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(poly_grids(), st.lists(rational_coords_st, min_size=3, max_size=3))
def test_integer_terms_read_the_grid_over_one_denominator(grid, point):
    d, c, terms = polycore._integer_terms(grid)
    coeffs = [v for row in grid for p in row for v in p.terms.values()]
    assert d == (2 if any(v.b for v in coeffs) else 0)

    def read(v):  # c * (a + b*sqrt(d)) as a pair of ints, via Fractions
        a, b = c * v.a, c * v.b
        assert a.denominator == b.denominator == 1
        return a.numerator, b.numerator

    assert terms == [[[(mono, *read(v)) for mono, v in p.terms.items()] for p in row]
                     for row in grid]
    # c is the least such multiplier: c/k is not one for any prime k | c (the
    # denominators are at most 9)
    assert all(any((c // k * x).denominator != 1 for v in coeffs for x in (v.a, v.b))
               for k in (2, 3, 5, 7) if c % k == 0)
    # the whole grid over one denominator, entry by entry as each alone
    flat = [p for row in grid for p in row]
    values, den = polycore._evaluate_ints(flat, point)
    assert all(vd == d for _, _, vd in values)
    got = [polycore._over(a, b, vd, den) for a, b, vd in values]
    assert got == [p.evaluate(point) for p in flat] == [_fraction_reference(p, point) for p in flat]


@settings(max_examples=200, deadline=None)
@given(polys(coeffs=q_sqrt2_st))
def test_to_text_round_trips_with_surds(p):
    # a + b*sqrt(2) renders as two terms; unit and minus-unit parts drop the 1
    names = ["x", "y", "z"]
    assert parse_polynomial(p.to_text(names), names) == p


_text_parts_st = st.one_of(st.sampled_from((0, 1, -1)), fractions_st,
                          st.integers(2, 12).map(lambda k: Fraction(1, k)),
                          st.integers(2, 12).map(lambda k: Fraction(-1, k)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda d: st.one_of(*(
    polys(nvars=nvars, max_deg=3, coeffs=st.builds(Scalar, _text_parts_st, _text_parts_st,
                                                   st.just(d)))
    for nvars in (0, 1, 3)))))
def test_to_text_matches_reference(p):
    # coefficients +-1, +-sqrt(d), a = 0, 1/k and constants
    names = ["x", "y", "z"][:p.nvars]
    assert p.to_text(names) == reference_to_text(p, names)


def test_rational_to_text_builds_no_scalar():
    p = poly("x*y - 2*w^3 + 1/3 - z + 7/2*x^2*w - x^2")
    with patch.object(Scalar, "__init__", side_effect=AssertionError) as init:
        assert p.to_text(V4) == "1/3 - z + x*y - x^2 - 2*w^3 + 7/2*x^2*w"
    assert init.call_count == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(polys(max_deg=3), min_size=6, max_size=6), st.integers(0, 2**32))
def test_poly_rank_points_evaluate_like_fraction_reference(entries, seed):
    M = PolyMatrix([entries[:3], entries[3:]])
    draws = random.Random(seed)
    best = 0
    for _ in range(2):  # the integer points poly_rank draws, in its order
        point = [draws.randint(-10**6, 10**6) for _ in range(3)]
        values = [[_fraction_reference(p, point) for p in row] for row in M.entries]
        assert M.evaluate(point) == values
        best = max(best, scalar_mat_rank(values))
    assert poly_rank(M, trials=2, rng=random.Random(seed)) == best
