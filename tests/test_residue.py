from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from resym import (DifferentialForm, ExtensionField, LaurentPoly, Place, PolyQ,
                   PrecisionError, RationalFunction, TruncatedSeries,
                   UnsupportedFactorization, binomial_series,
                   coordinate_invariance_check_1d, expand_at_place, field_trace,
                   global_residue_sum, nodal_factorization_check,
                   residue_at_place, residue_coeff_oracle, residue_form,
                   residue_monomial_det)
from resym.laurent import EXACT_ORDER
from resym.scalars import QQ
from resym.verify import PROPERTIES, rand_laurent


def t(dim=1, axis=1):
    return LaurentPoly.variable(dim, axis)


def form_f_dt(f: LaurentPoly) -> DifferentialForm:
    n = f.dim
    return DifferentialForm(f, [LaurentPoly.variable(n, a, f.field)
                                for a in range(1, n + 1)])


# -- residue of forms ---------------------------------------------------------


def test_one_dim_anchor_all_exponents():
    assert all(PROPERTIES["res-t^i"](None, 1).values())


def test_two_dim_diagonal_monomial():
    f = LaurentPoly.monomial(2, (-1, -1))
    assert residue_form(form_f_dt(f)) == 1


def test_two_dim_determinant_example():
    f0 = LaurentPoly.monomial(2, (-3, -2))
    f1 = LaurentPoly.monomial(2, (2, 1))
    f2 = LaurentPoly.monomial(2, (1, 1))
    assert residue_form(DifferentialForm(f0, [f1, f2])) == 1  # det [[2,1],[1,1]]


def test_extension_field_residues():
    gauss = ExtensionField(PolyQ((1, 0, 1)))
    tinv = LaurentPoly.monomial(1, (-1,), 1, gauss)
    assert residue_form(form_f_dt(tinv)) == 2
    xtinv = LaurentPoly.monomial(1, (-1,), gauss.generator, gauss)
    assert residue_form(form_f_dt(xtinv)) == 0


def test_oracle_examples():
    f = LaurentPoly.monomial(1, (-1,), 7)
    assert residue_coeff_oracle(f) == 7
    assert residue_coeff_oracle(LaurentPoly.zero(2)) == 0


def test_oracle_agreement_fuzz():
    rng = random.Random(301)
    for n in (1, 2):
        for _ in range(20):
            assert PROPERTIES["oracle"](rng, n)


def test_monomial_det_law():
    assert residue_monomial_det([[-1, -1], [1, 0], [0, 1]]) == 1
    assert residue_monomial_det([[0, 0], [1, 0], [0, 1]]) == 0  # column sums 1
    beta = Fraction(7, 2)
    assert residue_monomial_det([[-3, -2], [2, 1], [1, 1]], beta) == beta


def test_monomial_det_matches_residue_fuzz():
    rng = random.Random(302)
    for _ in range(40):
        assert PROPERTIES["det"](rng, 2)


def test_derivation_laws_1d():
    rng = random.Random(303)
    one = LaurentPoly.constant(1, 1)
    for _ in range(20):
        f = rand_laurent(rng, 1, terms=3)
        g = rand_laurent(rng, 1, terms=3)
        # res(df) = 0
        assert residue_form(DifferentialForm(one, [f])) == 0
        # res(f dg) = -res(g df)
        assert (residue_form(DifferentialForm(f, [g]))
                == -residue_form(DifferentialForm(g, [f])))


# -- places and expansions -----------------------------------------------------


def test_expand_simple_pole():
    r = RationalFunction(PolyQ.one(), PolyQ((0, 1)))  # 1/t
    field, series = expand_at_place(r, Place.finite(PolyQ((0, 1))), 3)
    assert field == QQ
    assert series.coefficient((-1,)) == 1
    assert series.coefficient((0,)) == 0


def test_expand_high_order_is_exact_and_quick():
    r = RationalFunction(PolyQ.one(), PolyQ((-1, 1)))  # 1/(t-1) = -sum t^k at t
    start = time.perf_counter()
    field, series = expand_at_place(r, Place.finite(PolyQ((0, 1))), 20000)
    assert time.perf_counter() - start < 5.0
    assert field == QQ and series.order == 20000
    assert series.coeffs == {(k,): -1 for k in range(20000)}


def test_expand_quadratic_place_trace_zero():
    p = PolyQ((1, 0, 1))
    r = RationalFunction(PolyQ.one(), p)
    field, series = expand_at_place(r, Place.finite(p), 2)
    a = series.coefficient((-1,))
    # principal coefficient 1/(2x); its trace vanishes
    assert a * (field.generator * 2) == field.one
    assert field_trace(a) == 0


def test_expand_at_infinity():
    r = RationalFunction(PolyQ((0, 1)))  # r = t
    field, series = expand_at_place(r, Place.infinity(), 4)
    assert series.coefficient((-1,)) == 1
    assert residue_at_place(r, Place.infinity()) == 0


def test_place_requires_irreducible():
    with pytest.raises(ValueError):
        Place.finite(PolyQ((-1, 0, 1)))  # t^2 - 1 splits
    with pytest.raises(ValueError):
        Place.finite(PolyQ((0, 2)))      # not monic


def test_global_sum_simple_pole():
    total, report = global_residue_sum(RationalFunction(PolyQ.one(), PolyQ((0, 1))))
    assert total == 0
    values = {place.render(): res for place, res in report}
    assert values == {"t": 1, "inf": -1}


def test_global_sum_quadratic_place():
    total, report = global_residue_sum(RationalFunction(PolyQ.one(), PolyQ((1, 0, 1))))
    assert total == 0
    assert all(res == 0 for _, res in report)


def test_global_sum_constant():
    total, report = global_residue_sum(RationalFunction(PolyQ((5,))))
    assert total == 0
    assert all(res == 0 for _, res in report)


def test_global_sum_fuzz():
    rng = random.Random(304)
    quadratic_count = 0
    for k in range(50):
        quadratic = k % 5 == 0
        quadratic_count += quadratic
        assert PROPERTIES["global"](rng, 1, quadratic=quadratic)
    assert quadratic_count >= 10


def test_global_sum_unsupported_degree():
    quintic = PolyQ((-1, -1, 0, 0, 0, 1))
    with pytest.raises(UnsupportedFactorization):
        global_residue_sum(RationalFunction(PolyQ.one(), quintic))


# -- worked verifications -------------------------------------------------------


def test_nodal_factorization():
    assert nodal_factorization_check(12)
    assert nodal_factorization_check(4)


def test_nodal_detects_perturbation():
    perturbed = TruncatedSeries(2, EXACT_ORDER, QQ,
                                {(3, 0): 1, (2, 0): 1, (0, 2): -1, (4, 0): 1})
    assert not nodal_factorization_check(12, target=perturbed)


def test_nodal_square_identity():
    root = binomial_series(Fraction(1, 2), 12)
    assert (root * root).coeffs == {(0,): Fraction(1), (1,): Fraction(1)}


def test_coordinate_invariance_basics():
    assert coordinate_invariance_check_1d(LaurentPoly.monomial(1, (-1,)), 4)
    for k in range(0, 4):
        assert coordinate_invariance_check_1d(LaurentPoly.monomial(1, (k,)), 4)


def test_coordinate_invariance_fuzz():
    rng = random.Random(305)
    for _ in range(20):
        assert PROPERTIES["coord"](rng, 1) is not False  # None: zero draw, no case


def test_coordinate_invariance_insufficient_order():
    f = LaurentPoly.monomial(1, (-5,))
    with pytest.raises(PrecisionError):
        coordinate_invariance_check_1d(f, 2)
