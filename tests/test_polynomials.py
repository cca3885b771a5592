from __future__ import annotations

import random
from fractions import Fraction

import pytest

from resym import (ExtensionField, LaurentPoly, PolyQ, UnsupportedFactorization,
                   factor_monic, is_irreducible)
from resym.polynomials import (_divisors, binary_power, rational_roots, sqrt_fraction,
                               squarefree_decomposition)


def test_divmod_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        a = PolyQ([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))])
        b = PolyQ([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_gcd_of_known_product():
    p = PolyQ((-1, 0, 1))          # t^2 - 1
    q = PolyQ((-1, 1)) * PolyQ((2, 1))
    g = p.gcd(q)
    assert g == PolyQ((-1, 1))     # t - 1


def test_rational_roots():
    # (t - 1/2)(t + 3) t
    p = PolyQ((Fraction(-1, 2), 1)) * PolyQ((3, 1)) * PolyQ((0, 1))
    roots = dict(rational_roots(p))
    assert roots == {Fraction(1, 2): 1, Fraction(-3): 1, Fraction(0): 1}


def test_repeated_rational_roots_and_their_cofactor():
    half, three = PolyQ((Fraction(-1, 2), 1)), PolyQ((3, 1))
    p = half ** 5 * three ** 2 * PolyQ((0, 1)) * PolyQ((1, 0, 1))
    assert rational_roots(p) == [(Fraction(-3), 2), (Fraction(0), 1), (Fraction(1, 2), 5)]
    assert rational_roots(p * 6) == rational_roots(p)
    assert dict(factor_monic(p)) == {half: 5, three: 2, PolyQ((0, 1)): 1, PolyQ((1, 0, 1)): 1}
    assert not is_irreducible(PolyQ((-1, 0, 0, 1)))      # t^3-1 = (t-1)(t^2+t+1)
    assert is_irreducible(PolyQ((-2, 0, 0, 1)))          # t^3-2


def test_each_root_is_divided_out_once(monkeypatch):
    """Work counts, no wall clock.  A root of multiplicity k is divided out
    of its squarefree part once, instead of k times out of ever smaller
    powers: the dividend degrees of all divisions sum to at most 5k, where
    repeated deflation sums k + (k-1) + ... + 1 (820 at k = 40).  Root
    candidates come from the squarefree parts, whose end coefficients are
    small: t - 3/2 and (t^2+1)(t+2) give 8 + 4 candidates, where the
    rational root theorem on (t - 3/2)^20 (t^2+1)(t+2) itself gives over
    900 that are evaluated."""
    work = {"degree": 0, "evaluations": 0}
    divmod_, evaluate = PolyQ.__divmod__, PolyQ.evaluate

    def counted_divmod(self, other):
        work["degree"] += max(self.degree, 0)
        return divmod_(self, other)

    def counted_evaluate(self, value):
        work["evaluations"] += 1
        return evaluate(self, value)

    monkeypatch.setattr(PolyQ, "__divmod__", counted_divmod)
    monkeypatch.setattr(PolyQ, "evaluate", counted_evaluate)
    for k in (40, 80):
        work["degree"] = 0
        assert factor_monic(PolyQ((1, 1)) ** k) == [(PolyQ((1, 1)), k)]
        assert work["degree"] <= 5 * k
    work["evaluations"] = 0
    root, quadratic, linear = PolyQ((Fraction(-3, 2), 1)), PolyQ((1, 0, 1)), PolyQ((2, 1))
    assert factor_monic(root ** 20 * quadratic * linear) == \
        [(root, 20), (linear, 1), (quadratic, 1)]
    assert work["evaluations"] <= 12


def test_divisors_match_brute_force():
    for n in range(-500, 3001):
        m = abs(n)
        want = [1] if m == 0 else [d for d in range(1, m + 1) if m % d == 0]
        assert _divisors(n) == want
    # trial division up to the root of 3^40 would take 3^20 steps
    assert _divisors(3 ** 40) == [3 ** k for k in range(41)]
    big_prime = 2 ** 31 - 1
    assert _divisors(-2 * big_prime) == [1, 2, big_prime, 2 * big_prime]


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1)) is None


def test_irreducibility_small_cases():
    assert is_irreducible(PolyQ((1, 0, 1)))          # t^2+1
    assert is_irreducible(PolyQ((-2, 0, 1)))         # t^2-2
    assert not is_irreducible(PolyQ((-1, 0, 1)))     # t^2-1
    assert is_irreducible(PolyQ((-2, -1, 0, 1)))     # t^3-t-2
    assert is_irreducible(PolyQ((1, 0, 0, 0, 1)))    # t^4+1
    assert not is_irreducible(PolyQ((4, 0, 0, 0, 1)))  # t^4+4 = (t^2-2t+2)(t^2+2t+2)


def test_quartic_split_biquadratic():
    # (t^2+1)(t^2+2) has no rational roots but splits into quadratics
    p = PolyQ((1, 0, 1)) * PolyQ((2, 0, 1))
    factors = dict(factor_monic(p))
    assert factors == {PolyQ((1, 0, 1)): 1, PolyQ((2, 0, 1)): 1}


def test_quartic_split_with_odd_part():
    p = PolyQ((2, 2, 1)) * PolyQ((3, -1, 1))
    assert dict(factor_monic(p)) == {PolyQ((2, 2, 1)): 1, PolyQ((3, -1, 1)): 1}


def test_factor_with_multiplicity():
    p = PolyQ((1, 0, 1)) ** 2
    assert dict(factor_monic(p)) == {PolyQ((1, 0, 1)): 2}


def test_factor_mixed():
    p = PolyQ((-1, 1)) * PolyQ((1, 0, 1)) * PolyQ((2, 1))
    assert dict(factor_monic(p)) == {
        PolyQ((-1, 1)): 1, PolyQ((2, 1)): 1, PolyQ((1, 0, 1)): 1}


def test_factor_random_products_roundtrip():
    rng = random.Random(17)
    pool = [PolyQ((1, 0, 1)), PolyQ((2, 0, 1)), PolyQ((1, 1, 1)),
            PolyQ((Fraction(-1, 2), 1)), PolyQ((3, 1)), PolyQ((0, 1))]
    for _ in range(40):
        chosen = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        prod = PolyQ.one()
        for c in chosen:
            prod = prod * c
        if prod.degree > 4:
            continue
        rebuilt = PolyQ.one()
        for f, m in factor_monic(prod):
            assert is_irreducible(f)
            rebuilt = rebuilt * f ** m
        assert rebuilt == prod


def test_unsupported_degree_raises():
    # irreducible quintic t^5 - t - 1
    p = PolyQ((-1, -1, 0, 0, 0, 1))
    with pytest.raises(UnsupportedFactorization):
        factor_monic(p)


def test_shifted_coefficients():
    from resym.polynomials import shifted_coefficients
    p = PolyQ((1, 2, 1))  # (t+1)^2
    shifted = shifted_coefficients(p, Fraction(-1), Fraction(1))
    assert PolyQ(shifted) == PolyQ((0, 0, 1))


# -- binary powering ----------------------------------------------------------


def _squaring_loop(base, k, one):
    """The loop binary_power replaced: it squares once more after the last bit."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def test_powers_match_the_squaring_loop():
    field = ExtensionField(PolyQ((Fraction(-1, 3), Fraction(1, 2), 0, 1)))
    t_plus_one = LaurentPoly(1, coeffs={(0,): 1, (1,): 1})
    bases = [(PolyQ((1, 1)), PolyQ.one()), (t_plus_one, LaurentPoly.constant(1, 1)),
             (field.element((Fraction(1, 2), 1, -2)), field.one)]
    for base, one in bases:
        for k in range(71):
            assert base ** k == _squaring_loop(base, k, one)


def test_binary_power_multiplies_only_what_it_uses():
    class Counted:
        products = 0

        def __init__(self, exponent):
            self.exponent = exponent

        def __mul__(self, other):
            Counted.products += 1
            return Counted(self.exponent + other.exponent)

    for k in range(71):
        Counted.products = 0
        assert binary_power(Counted(1), k, Counted(0)).exponent == k
        # squarings below the top bit, plus one product per further set bit
        assert Counted.products == max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)


def test_float_exponents_are_refused(monkeypatch):
    """A float exponent is a ValueError, 2.0 as much as 2.5, while an
    integral Fraction or a bool still converts; `binary_power` checks its
    exponent once per power, not once per product."""
    from resym import polynomials
    gauss = ExtensionField(PolyQ((1, 0, 1)))
    t = LaurentPoly.variable(1, 1)
    x = PolyQ((0, 1))
    powers = [lambda k: t ** k, lambda k: x ** k, lambda k: gauss.generator ** k]
    for power in powers:
        for k in (2.0, 2.5):
            with pytest.raises(ValueError, match="float"):
                power(k)
        with pytest.raises(ValueError):
            power(-2.0)
        assert power(Fraction(4, 2)) == power(2)
        assert power(True) == power(1)
    with pytest.raises(ValueError, match="float"):
        LaurentPoly(1, coeffs={(2.0,): 1})
    assert LaurentPoly(1, coeffs={(Fraction(4, 2),): 1}) == t ** 2
    calls = []
    check = polynomials.integral
    monkeypatch.setattr(polynomials, "integral", lambda v: calls.append(v) or check(v))
    for base in (t + LaurentPoly.constant(1, 1), x + PolyQ.one(), gauss.generator + gauss.one):
        calls.clear()
        base ** 40
        assert calls == [40]


# -- squarefree decomposition and factoring against sympy ----------------------


def _sympy_poly(p: PolyQ):
    import sympy
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                      sympy.Symbol("t"), domain="QQ")


def _from_sympy(poly) -> PolyQ:
    return PolyQ([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def _irreducibles(rng: random.Random, degree: int, count: int) -> list:
    """`count` distinct monic irreducibles of `degree` with small rational
    coefficients; irreducibility is decided by sympy."""
    found = []
    while len(found) < count:
        p = PolyQ([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree)] + [1])
        if p not in found and _sympy_poly(p).is_irreducible:
            found.append(p)
    return found


def test_factor_monic_matches_sympy_on_repeated_factors():
    """200 seeded products of irreducibles of degree 1-4 with multiplicities
    1-6, up to degree 16.  squarefree_decomposition equals sympy.sqf_list on
    each.  factor_monic equals sympy.factor_list factor for factor when no
    squarefree part keeps a residual of degree >= 5 once its rational roots
    are gone, and refuses otherwise."""
    rng = random.Random(1976)
    pool = {d: _irreducibles(rng, d, 6) for d in (1, 2, 3, 4)}
    answered = refused = repeated_nonlinear = 0
    for _ in range(200):
        chosen = {}
        while not chosen or rng.random() < 0.6:
            f = rng.choice(pool[rng.choice((1, 2, 2, 3, 3, 4))])
            # a small multiplicity often, so that parts share nonlinear factors
            chosen[f] = rng.randint(1, 6 if rng.random() < 0.6 else 2)
            if sum(f.degree * m for f, m in chosen.items()) > 16:
                del chosen[f]
                break
        p = PolyQ.one()
        for f, m in chosen.items():
            p = p * f ** m
        sp = _sympy_poly(p)
        _, sqf = sp.sqf_list()
        assert squarefree_decomposition(p) == [(_from_sympy(q.monic()), m) for q, m in sqf]
        residual = {}
        for f, m in chosen.items():
            if f.degree > 1:
                residual[m] = residual.get(m, 0) + f.degree
        if max(residual.values(), default=0) >= 5:
            refused += 1
            with pytest.raises(UnsupportedFactorization):
                factor_monic(p)
            continue
        answered += 1
        repeated_nonlinear += any(f.degree > 1 and m > 1 for f, m in chosen.items())
        _, factors = sp.factor_list()
        assert dict(factor_monic(p)) == {_from_sympy(q.monic()): m for q, m in factors}
    assert answered >= 150 and refused >= 20 and repeated_nonlinear >= 80


def test_repeated_irreducible_factors_answer():
    """A repeated irreducible factor of degree 2-4 leaves a residual of degree
    >= 5 when the roots are split off the whole polynomial; its squarefree
    parts do not."""
    t2_3, t2_1, t3_2 = PolyQ((-3, 0, 1)), PolyQ((1, 0, 1)), PolyQ((-2, 0, 0, 1))
    quartic = PolyQ((1, 0, 0, 0, 1))
    assert factor_monic(t2_3 ** 40) == [(t2_3, 40)]
    assert factor_monic(t2_1 ** 3 * t3_2) == [(t2_1, 3), (t3_2, 1)]
    assert factor_monic(quartic ** 2 * t3_2 ** 3) == [(t3_2, 3), (quartic, 2)]
    # (t^2+t+1)(t^3-t^2+1): a degree-5 squarefree part with no rational root
    with pytest.raises(UnsupportedFactorization):
        factor_monic(PolyQ((1, 1, 0, 0, 0, 1)))
    with pytest.raises(UnsupportedFactorization):
        factor_monic(t2_1 ** 2 * t3_2 ** 2)
