from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from resym import (ExtensionField, FieldMismatch, LaurentPoly, PolyQ, QQ, WindowedOperator,
                   field_trace)
from resym.parser import parse_form, parse_scalar, render_form, render_laurent
from resym.polynomials import rational_text
from resym.scalars import render_scalar
from resym.verify import rand_fraction

GAUSS = ExtensionField(PolyQ((1, 0, 1)))        # Q[x]/(x^2+1)
ROOT2 = ExtensionField(PolyQ((-2, 0, 1)))       # Q[x]/(x^2-2)
CUBIC = ExtensionField(PolyQ((-2, -1, 0, 1)))   # Q[x]/(x^3-x-2)


def test_trace_regular_representation_example():
    # 3 + 5x in Q[x]/(x^2+1): regular representation has diagonal (3, 3)
    a = GAUSS.element((3, 5))
    assert field_trace(a) == 6


def test_trace_of_one_is_degree():
    for field in (GAUSS, ROOT2, CUBIC):
        assert field_trace(field.one) == field.degree
    assert field_trace(Fraction(1)) == 1


def test_trace_of_generator_root2():
    assert field_trace(ROOT2.generator) == 0


def test_rational_arithmetic():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)


def test_modulus_forces_square():
    x = GAUSS.generator
    assert x * x == GAUSS.element((-1,))


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GAUSS.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        GAUSS.one / GAUSS.zero


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        GAUSS.generator + ROOT2.generator
    # x^2 + 1/2 scales to 2x^2 + 1, whose low coefficients are those of x^2 + 1
    half = ExtensionField(PolyQ((Fraction(1, 2), 0, 1)))
    assert half != GAUSS and ExtensionField(PolyQ((1, 0, 1))) == GAUSS
    with pytest.raises(FieldMismatch):
        half.generator * GAUSS.generator


def test_rational_coerce_returns_fractions_as_they_are():
    value = Fraction(-7, 3)
    assert QQ.coerce(value) is value
    assert QQ.coerce(QQ.zero) is QQ.zero


def test_rational_coerce_converts_other_values():
    class Half(Fraction):
        pass

    for value, want in ((5, Fraction(5)), (-2, Fraction(-2)), (True, Fraction(1)),
                        (False, Fraction(0)), ("3/4", Fraction(3, 4)), ("-6", Fraction(-6)),
                        (Half(1, 2), Fraction(1, 2))):
        got = QQ.coerce(value)
        assert type(got) is Fraction and got == want == Fraction(value)
    with pytest.raises(ValueError):
        QQ.coerce("x")


def test_rational_coerce_refuses_extension_elements():
    for element in (GAUSS.generator, GAUSS.one, CUBIC.zero):
        with pytest.raises(FieldMismatch):
            QQ.coerce(element)


def test_floats_are_refused_as_coefficients():
    """0.1 would be held at its binary value; exact inputs still convert."""
    constructions = [lambda c: LaurentPoly(1, QQ, {(0,): c}).coefficient((0,)),
                     lambda c: LaurentPoly(1, GAUSS, {(0,): c}).coefficient((0,)),
                     lambda c: PolyQ([c, 1]).coefficient(0),
                     lambda c: WindowedOperator(1, QQ, [(c, (0,), ((0, 2),))]).terms[0][0],
                     GAUSS.coerce, lambda c: GAUSS.element((c, 0)), QQ.coerce]
    for build in constructions:
        for value in (0.1, 1.0, -2.5):
            with pytest.raises(ValueError, match="float"):
                build(value)
        for value in (3, Fraction(3, 2), "3/2"):
            assert build(value) == Fraction(value)


def test_trace_linearity_fuzz():
    rng = random.Random(11)
    for field in (GAUSS, CUBIC):
        for _ in range(30):
            a = field.element([rand_fraction(rng) for _ in range(field.degree)])
            b = field.element([rand_fraction(rng) for _ in range(field.degree)])
            q = rand_fraction(rng)
            assert field_trace(a + b) == field_trace(a) + field_trace(b)
            assert field_trace(a * q) == q * field_trace(a)


def test_multiplication_axioms_fuzz():
    rng = random.Random(12)
    for field in (GAUSS, ROOT2, CUBIC):
        for _ in range(25):
            a = field.element([rand_fraction(rng) for _ in range(field.degree)])
            b = field.element([rand_fraction(rng) for _ in range(field.degree)])
            c = field.element([rand_fraction(rng) for _ in range(field.degree)])
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * field.one == a
            if a:
                assert a * a.inverse() == field.one


def test_element_reduction_is_canonical():
    a = GAUSS.element((0, 0, 1))   # x^2 reduces to -1
    assert a == GAUSS.element((-1,))
    assert hash(a) == hash(GAUSS.element((-1,)))


def test_render():
    assert GAUSS.render(GAUSS.element((3, 5))) == "3+5*x"
    assert QQ.render(Fraction(-3, 2)) == "-3/2"


def test_rendered_text_edge_cases():
    """Texts pinned as the renderers printed them before they shared one writer."""
    half = Fraction(1, 2)
    cases = [
        (render_scalar(Fraction(0)), "0"), (render_scalar(Fraction(-3, 2)), "-3/2"),
        (QQ.render(0), "0"), (render_scalar(GAUSS.zero), "0"),
        (render_laurent(LaurentPoly(1, QQ, {(-2,): -1, (0,): 1, (1,): 1})), "-t^-2 + 1 + t"),
        (render_laurent(LaurentPoly(1, QQ, {(3,): -1, (0,): -1})), "-1 - t^3"),
        (PolyQ((-1, 0, 1, -1)).render(), "-t^3 + t^2 - 1"), (PolyQ((0, 1)).render("x"), "x"),
        (PolyQ((-half,)).render(), "-1/2"), (PolyQ(()).render(), "0"),
        (GAUSS.render(GAUSS.element((3, 5))), "3+5*x"), (GAUSS.render(-GAUSS.generator), "-x"),
        (GAUSS.render(GAUSS.element((-half, -1))), "-1/2-x"),
        (render_laurent(LaurentPoly(3, QQ, {(-1, 2, -3): Fraction(-2, 3), (0, 0, 1): 1,
                                            (1, 0, 0): -1})),
         "-2/3*t1^-1*t2^2*t3^-3 + t3 - t1"),
        (render_laurent(LaurentPoly(2, GAUSS, {(-1, 0): GAUSS.element((-half, 1)),
                                               (0, 0): 1, (0, 2): -GAUSS.generator})),
         "(-1/2+x)*t1^-1 + (1) + (-x)*t2^2"),
        (render_form(parse_form("-t1^-1*t2^-1 d(t1) ^ d(-t2 + 2)", 2)),
         "-t1^-1*t2^-1 d(t1) ^ d(2 - t2)"),
    ]
    assert [got for got, _ in cases] == [want for _, want in cases]


def test_rational_text_matches_str_at_every_size():
    """Past str()'s default 4,300 digits the text is the divmod halves'; it
    equals str() with the limit lifted, and the limit is left as it was."""
    values = [0, 1, -7, 10 ** 4299, 10 ** 4300, -(10 ** 4300) + 1, 2 ** 14000, 2 ** 14001,
              3 ** 30000, Fraction(-(7 ** 9000), 11 ** 5000), Fraction(5, 10 ** 9000 + 1)]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(Fraction(v)) for v in values]
    finally:
        sys.set_int_max_str_digits(4300)
    try:
        assert [rational_text(v) for v in values] == expected
        assert [render_scalar(Fraction(v)) for v in values] == expected
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)


# the moduli x+3, x^2+1, a non-integral cubic and x^4+1
_ROUND_TRIP_FIELDS = [ExtensionField(PolyQ((3, 1))), GAUSS,
                      ExtensionField(PolyQ((Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3), 1))),
                      ExtensionField(PolyQ((1, 0, 0, 0, 1)))]


@pytest.mark.parametrize("field", _ROUND_TRIP_FIELDS, ids=lambda f: f"degree{f.degree}")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_rendered_scalars_parse_back_property(field, data):
    """parse_scalar reads back what render_scalar writes: the unspaced
    extension text, zero coefficients and unit coefficients included."""
    coeffs = st.one_of(st.sampled_from((0, 1, -1)), st.builds(
        Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3)))
    e = field.element(data.draw(st.lists(coeffs, min_size=field.degree, max_size=field.degree)))
    assert parse_scalar(render_scalar(e), field) == e
    q = data.draw(coeffs)
    assert parse_scalar(render_scalar(q)) == q


_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _fields(draw):
    """Monic moduli of degree 1..4, with the reducible x^2 - 1 drawn often
    and the others given at least one non-integral coefficient."""
    if draw(st.booleans()):
        return ExtensionField(PolyQ((-1, 0, 1)))
    d = draw(st.integers(1, 4))
    low = draw(st.lists(_FRACTIONS, min_size=d, max_size=d))
    j = draw(st.integers(0, d - 1))
    low[j] += Fraction(1, draw(st.sampled_from((2, 3, 4))))
    return ExtensionField(PolyQ(low + [1]))


def _draw_element(data, field):
    return field.element(data.draw(st.lists(_FRACTIONS, min_size=field.degree,
                                            max_size=field.degree)))


def _reduced(field, poly):
    """Coefficients of poly mod the modulus, padded to the degree."""
    rem = divmod(poly, field.modulus)[1]
    return tuple(rem.coefficient(k) for k in range(field.degree))


def _reference_inverse(field, a):
    """Inverse of a mod the modulus by the extended Euclidean algorithm on
    PolyQ, or None when a is zero or a zero divisor."""
    r0, r1 = field.modulus, PolyQ(a.coeffs)
    s0, s1 = PolyQ.zero(), PolyQ.one()
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        return None
    return s0 * (1 / r0.coefficient(0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_ext_multiply_matches_polynomial_reference_property(data):
    field = data.draw(_fields())
    d = field.degree
    a, b = (field.element(data.draw(st.lists(_FRACTIONS, min_size=d, max_size=d)))
            for _ in range(2))
    product = a * b
    assert product == field.element(PolyQ(a.coeffs) * PolyQ(b.coeffs))
    assert product.coeffs == _reduced(field, PolyQ(a.coeffs) * PolyQ(b.coeffs))
    assert len(product.coeffs) == d
    assert all(type(c) is Fraction for c in product.coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_ext_ring_operations_match_polynomial_reference_property(data):
    field = data.draw(_fields())
    a, b = _draw_element(data, field), _draw_element(data, field)
    pa, pb = PolyQ(a.coeffs), PolyQ(b.coeffs)
    assert (a + b).coeffs == _reduced(field, pa + pb)
    assert (a - b).coeffs == _reduced(field, pa - pb)
    assert (-a).coeffs == _reduced(field, -pa)
    inverse = _reference_inverse(field, a)
    if inverse is None:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a.inverse().coeffs == _reduced(field, inverse)
    for k in range(-3, 6):
        if k >= 0:
            assert (a ** k).coeffs == _reduced(field, pa ** k)
        elif inverse is None:
            with pytest.raises(ZeroDivisionError):
                a ** k
        else:
            assert (a ** k).coeffs == _reduced(field, inverse ** -k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_ext_equal_values_are_equal_and_hash_alike_property(data):
    field = data.draw(_fields())
    a, b = _draw_element(data, field), _draw_element(data, field)
    r = data.draw(_FRACTIONS)
    shift = PolyQ(data.draw(st.lists(_FRACTIONS, max_size=3)))
    pairs = [(a, field.element(PolyQ(a.coeffs) + shift * field.modulus)),
             (a, (a + b) - b), (a, a * field.one), (a, field.element(list(a.coeffs))),
             (a * b, b * a), (field.coerce(r), field.element((r,))),
             (field.coerce(r), field.one * r), (field.zero, a - a),
             (field.one, ExtensionField(field.modulus).one)]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert field.coerce(r) == r
    assert (a == b) == (a.coeffs == b.coeffs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_field_trace_matches_regular_representation_property(data):
    import sympy
    field = data.draw(_fields())
    a = _draw_element(data, field)
    x = sympy.Symbol("x")
    companion = sympy.Matrix.companion(sympy.Poly(field.modulus.coeffs[::-1], x))
    regular = sympy.zeros(field.degree)
    for k, c in enumerate(a.coeffs):
        regular += sympy.Rational(c.numerator, c.denominator) * companion ** k
    assert field_trace(a) == Fraction(str(regular.trace()))


def test_zero_divisors_are_refused():
    split = ExtensionField(PolyQ((-1, 0, 1)))     # Q[x]/(x^2-1) = Q x Q
    plus, minus = split.element((1, 1)), split.element((-1, 1))
    assert plus * minus == split.zero
    for value in (plus, minus, plus * 3, minus * Fraction(-2, 3), split.zero):
        for attempt in (value.inverse, lambda: split.one / value, lambda: value ** -2):
            with pytest.raises(ZeroDivisionError):
                attempt()
    assert split.generator.inverse() == split.generator
