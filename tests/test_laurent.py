from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from resym import (DifferentialForm, DimensionMismatch, ExtensionField,
                   LaurentPoly, Place, PolyQ, PrecisionError, TruncatedSeries,
                   ValuationError, binomial_series, chain_is_zero, expand_at_place,
                   hkr_antisymmetrize, hochschild_b, parse_rational_function,
                   substitute_1d)
from resym import laurent
from resym.laurent import EXACT_ORDER
from resym.scalars import QQ
from resym.verify import rand_fraction, rand_laurent


def t(dim=1, axis=1):
    return LaurentPoly.variable(dim, axis)


def test_constructors_take_only_integral_exponents():
    """Integral values convert; anything else is refused instead of truncated."""
    for ok in (True, Fraction(4, 2)):
        assert LaurentPoly(1, QQ, {(ok,): 3}) == LaurentPoly.monomial(1, (int(ok),), 3)
        assert TruncatedSeries(1, 5, QQ, {(ok,): 3}).coeffs == {(int(ok),): 3}
    for bad in (1.5, Fraction(5, 2), "3"):
        with pytest.raises(ValueError):
            LaurentPoly(1, QQ, {(bad,): 1})
        with pytest.raises(ValueError):
            TruncatedSeries(1, 5, QQ, {(bad,): 1})
        with pytest.raises(ValueError):
            LaurentPoly(2, QQ, [((0, bad), 1)])


GAUSS = ExtensionField(PolyQ((1, 0, 1)))          # Q[x]/(x^2+1), a field
SPLIT = ExtensionField(PolyQ((-1, 0, 1)))         # Q[x]/(x^2-1), zero divisors x+-1


def _rand_scalar(rng, field):
    """Small elements; over Q[x]/(x^2-1) often the zero divisors x+1, x-1."""
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    if field is QQ:
        return Fraction(a, rng.randint(1, 2))
    return field.coerce(a) + field.generator * b


def _rand_coeffs(rng, field, n):
    return [(tuple(rng.randint(-2, 3) for _ in range(n)), _rand_scalar(rng, field))
            for _ in range(rng.randint(0, 5))]


def _assert_clean(r):
    """`r` equals a freshly checked copy, with no zero and nothing at or
    beyond its order stored."""
    assert all(r.coeffs.values())
    if isinstance(r, TruncatedSeries):
        assert all(sum(e) < r.order for e in r.coeffs)
        assert r == TruncatedSeries(r.dim, r.order, r.field, r.coeffs)
    else:
        assert r == LaurentPoly(r.dim, r.field, r.coeffs)


def test_arithmetic_results_are_checked_values():
    """Every operation builds its result unchecked; each result must still be
    what the checker would make of it, at n <= 3 over Q, Q[x]/(x^2+1) and
    Q[x]/(x^2-1)."""
    rng = random.Random(1515)
    for field in (QQ, GAUSS, SPLIT):
        for _ in range(100):
            n = rng.randint(1, 3)
            f, g = (LaurentPoly(n, field, _rand_coeffs(rng, field, n)) for _ in range(2))
            a, b = (TruncatedSeries(n, rng.randint(-1, 6), field, _rand_coeffs(rng, field, n))
                    for _ in range(2))
            c = _rand_scalar(rng, field)
            delta = tuple(rng.randint(-2, 2) for _ in range(n))
            for r in (f + g, f - g, -f, f.scale(c), f * g, a + b, a - b, -a, a.scale(c),
                      a * b, a.truncate(a.order - rng.randint(0, 2)), a.shift_exponents(delta)):
                _assert_clean(r)
            if n == 1:
                _assert_clean(a.derivative())
                _assert_clean(a.embed(3, rng.randint(1, 3)))
                unit = a + TruncatedSeries(1, a.order, field, {(0,): 1})
                if unit.order > 0 and unit.valuation() == 0:
                    try:
                        _assert_clean(unit.unit_inverse())
                    except ZeroDivisionError:
                        pass         # a zero-divisor constant term
    # a scale by the zero divisor x+1 kills the terms in the ideal (x-1)
    x = SPLIT.generator
    s = TruncatedSeries(2, 4, SPLIT, {(0, 0): x - 1, (1, 0): x + 1, (0, 1): 1})
    scaled = s.scale(x + 1)
    assert scaled.coeffs == {(1, 0): 2 * x + 2, (0, 1): x + 1}
    _assert_clean(scaled)
    # 1/(1 - t^2) = 1 + t^2 + t^4 + ..., whose odd coefficients are zero
    inv = TruncatedSeries(1, 9, QQ, {(0,): 1, (2,): -1}).unit_inverse()
    assert inv.coeffs == {(k,): 1 for k in range(0, 9, 2)}
    _assert_clean(inv)


def test_expansion_checks_exponents_only_of_its_input(monkeypatch):
    """The arithmetic of an order-300 expansion checks no exponent: only the
    unit and numerator series built from outside data and the shift are."""
    calls = []
    check = laurent.integral
    monkeypatch.setattr(laurent, "integral", lambda v: calls.append(v) or check(v))
    rf = parse_rational_function("(t+3)/((t-1/2)^5*(t+2))")
    place = Place.finite(parse_rational_function("t - 1/2").num.monic())
    field, series = expand_at_place(rf, place, 300)
    assert field is QQ and series.order == 300 and series.valuation() == -5
    assert 0 < len(calls) <= 20


def test_monomial_inverse_cancels():
    tinv = LaurentPoly.monomial(1, (-1,))
    assert tinv * t() == LaurentPoly.constant(1, 1)


def test_difference_of_squares():
    one = LaurentPoly.constant(1, 1)
    assert (one + t()) * (one - t()) == one - t() * t()


def test_scale_by_zero():
    f = rand_laurent(random.Random(1), 2)
    assert f.scale(0).is_zero()


def test_binomial_series_half():
    s = binomial_series(Fraction(1, 2), 4)
    assert s.coeffs == {(0,): Fraction(1), (1,): Fraction(1, 2),
                        (2,): Fraction(-1, 8), (3,): Fraction(1, 16)}


def test_binomial_series_integer_exponent():
    s = binomial_series(Fraction(1), 7)
    assert s.coeffs == {(0,): Fraction(1), (1,): Fraction(1)}


def test_binomial_square_is_one_plus_s():
    s = binomial_series(Fraction(1, 2), 9)
    square = s * s
    assert square.coeffs == {(0,): Fraction(1), (1,): Fraction(1)}


def test_binomial_product_rule_fuzz():
    rng = random.Random(23)
    for _ in range(15):
        a, b = rand_fraction(rng), rand_fraction(rng)
        order = 6
        lhs = binomial_series(a, order) * binomial_series(b, order)
        rhs = binomial_series(a + b, order)
        assert lhs.truncate(order) == rhs


def test_unit_inverse_multiplies_back_fuzz():
    rng = random.Random(407)
    gauss = ExtensionField(PolyQ((1, 0, 1)))
    for field in (QQ, gauss):
        for _ in range(25):
            order = rng.randint(1, 14)
            coeffs = {(e,): rand_fraction(rng) for e in range(1, order) if rng.random() < 0.6}
            g0 = rand_fraction(rng) or Fraction(1)
            if field is gauss:
                coeffs = {e: c + gauss.generator * rand_fraction(rng)
                          for e, c in coeffs.items()}
                g0 = g0 + gauss.generator * rng.randint(-2, 2)
            coeffs[(0,)] = g0
            g = TruncatedSeries(1, order, field, coeffs)
            inv = g.unit_inverse()
            assert inv.order == order
            assert g * inv == TruncatedSeries(1, order, field, {(0,): 1})


def test_unit_inverse_of_constant_at_exact_order_is_immediate():
    start = time.perf_counter()
    inv = TruncatedSeries(1, EXACT_ORDER, QQ, {(0,): Fraction(-2, 3)}).unit_inverse()
    assert time.perf_counter() - start < 1.0
    assert inv == TruncatedSeries(1, EXACT_ORDER, QQ, {(0,): Fraction(-3, 2)})


def test_unit_inverse_refusals():
    with pytest.raises(PrecisionError):
        TruncatedSeries(1, 10 ** 6 + 1, QQ, {(0,): 1, (1,): 1}).unit_inverse()
    for coeffs in ({(1,): 1}, {(0,): 1, (-1,): 1}, {}):
        with pytest.raises(ValuationError):
            TruncatedSeries(1, 5, QQ, coeffs).unit_inverse()
    with pytest.raises(DimensionMismatch):
        TruncatedSeries(2, 5, QQ, {(0, 0): 1, (1, 0): 1}).unit_inverse()


def test_substitute_principal_part():
    # 1/(t+t^2) expanded: multiply back by (t+t^2), must give 1
    f = LaurentPoly.monomial(1, (-1,))
    u_poly = LaurentPoly(1, coeffs={(1,): 1, (2,): 1})
    u = TruncatedSeries.from_laurent(u_poly, 7)
    expansion = substitute_1d(f, u, 5)
    back = expansion * TruncatedSeries.from_laurent(u_poly, 7)
    for k in range(back.order):
        assert back.coefficient((k,)) == (1 if k == 0 else 0)
    assert expansion.coefficient((-1,)) == 1
    assert expansion.coefficient((0,)) == -1
    assert expansion.coefficient((1,)) == 1


def test_substitute_monomial_and_constant():
    u_poly = LaurentPoly(1, coeffs={(1,): 1, (2,): 1})
    u = TruncatedSeries.from_laurent(u_poly, 6)
    assert substitute_1d(t(), u, 4).coeffs == {(1,): Fraction(1), (2,): Fraction(1)}
    one = LaurentPoly.constant(1, 1)
    assert substitute_1d(one, u, 4).coeffs == {(0,): Fraction(1)}


def test_substitute_requires_valuation_one():
    u = TruncatedSeries.from_laurent(LaurentPoly(1, coeffs={(2,): 1}), 6)
    with pytest.raises(ValuationError):
        substitute_1d(t(), u, 3)


def test_substitute_precision_error():
    f = LaurentPoly.monomial(1, (-5,))
    u = TruncatedSeries.from_laurent(LaurentPoly(1, coeffs={(1,): 1, (2,): 1}), 3)
    with pytest.raises(PrecisionError):
        # certified only below -5 + 3 - 1 = -3, so order 0 is unreachable
        substitute_1d(f, u, 0)


def test_substitute_multiplicative_fuzz():
    rng = random.Random(31)
    u_poly = LaurentPoly(1, coeffs={(1,): 1, (2,): 1})
    for _ in range(10):
        f = rand_laurent(rng, 1, terms=2, exp_bound=3)
        g = rand_laurent(rng, 1, terms=2, exp_bound=3)
        if f.is_zero() or g.is_zero() or (f * g).is_zero():
            continue
        vf, vg = f.min_exponent(), g.min_exponent()
        u = TruncatedSeries.from_laurent(u_poly, 9 - vf - vg)
        order = 2
        lhs = substitute_1d(f * g, u, order)
        # each factor needs enough certified order that the product keeps 2
        rhs = substitute_1d(f, u, order - vg) * substitute_1d(g, u, order - vf)
        assert lhs == rhs.truncate(order)


def test_series_coefficient_beyond_order_raises():
    s = binomial_series(Fraction(1, 2), 4)
    with pytest.raises(PrecisionError):
        s.coefficient((4,))


def test_hkr_term_count_and_shape():
    # n = 1: a single tensor
    form = DifferentialForm(LaurentPoly.monomial(1, (2,)), [t()])
    chain = hkr_antisymmetrize(form)
    assert len(chain.terms) == 1
    # n = 2 with distinct entries: 2! = 2 signed tensors
    f0 = LaurentPoly.monomial(2, (1, 1))
    f1, f2 = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    chain2 = hkr_antisymmetrize(DifferentialForm(f0, [f1, f2]))
    assert len(chain2.terms) == 2
    assert sorted(chain2.terms.values()) == [Fraction(-1), Fraction(1)]


def test_hkr_alternating():
    rng = random.Random(37)
    f0 = rand_laurent(rng, 2)
    f1 = rand_laurent(rng, 2)
    f2 = rand_laurent(rng, 2)
    a = hkr_antisymmetrize(DifferentialForm(f0, [f1, f2]))
    b = hkr_antisymmetrize(DifferentialForm(f0, [f2, f1]))
    assert chain_is_zero(a + b)


def test_hkr_image_is_cycle():
    rng = random.Random(41)
    for n in (1, 2):
        for _ in range(5):
            form = DifferentialForm(rand_laurent(rng, n),
                                    [rand_laurent(rng, n) for _ in range(n)])
            chain = hkr_antisymmetrize(form)
            if chain.is_empty():
                continue
            assert chain_is_zero(hochschild_b(chain))
