from __future__ import annotations

import random
from fractions import Fraction

import pytest

from resym import ExtensionField, FieldMismatch, PolyQ, QQ, field_trace
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
