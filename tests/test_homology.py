from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from resym import (DifferentialForm, ExtensionField, GoodIdempotents,
                   HochschildChain, LabeledChain, LaurentPoly, LieChain,
                   MembershipError, NotACycle, PolyQ, QQ, WindowedOperator,
                   ce_delta, chain_is_zero, chains_equal, commutator_formula,
                   cyclic_t, epsilon, hkr_antisymmetrize, hochschild_b,
                   homotopy_H, i_prime, lambda_toeplitz, mul_op, n_partial,
                   parse_form, phi_c, phi_hh_closed, phi_hh_zigzag, projector,
                   psi, residue_form, tate_trace)
from resym.homology import _bracket_terms, _signed_permutations
from resym.verify import (PROPERTIES, rand_cycle, rand_fraction,
                          rand_hochschild_chain, rand_labeled_chain, rand_laurent,
                          rand_monomial, rand_operator)


def t(dim=1, axis=1):
    return LaurentPoly.variable(dim, axis)


def tpow(i, dim=1, axis=1):
    exps = [0] * dim
    exps[axis - 1] = i
    return LaurentPoly.monomial(dim, exps)


# -- signed permutations and brackets ----------------------------------------


def test_signed_permutations_match_sympy():
    from sympy.combinatorics import Permutation
    for n in range(6):
        got = list(_signed_permutations(range(n)))
        assert len(got) == len({perm for _, perm in got}) == len(list(permutations(range(n))))
        for sign, perm in got:
            assert sorted(perm) == list(range(n))
            assert sign == Permutation(list(perm)).signature()


def test_bracket_terms_signs_and_remaining_slots():
    rng = random.Random(130)
    slots = tuple(rand_operator(rng, 1) for _ in range(4))
    got = list(_bracket_terms(slots))
    want = []
    for i in range(4):
        for j in range(i + 1, 4):
            bracket = slots[i] @ slots[j] - slots[j] @ slots[i]
            if not bracket.is_zero():
                rest = tuple(s for k, s in enumerate(slots) if k not in (i, j))
                want.append(((-1) ** (i + j), bracket, rest))
    assert got == want and len(got) >= 3


# -- Hochschild differential --------------------------------------------------


def test_b_degree_one_is_commutator():
    x, y = mul_op(tpow(2)), projector(1, 1, "+")
    chain = HochschildChain.from_tensor((x, y))
    image = hochschild_b(chain)
    assert chains_equal(image, HochschildChain.from_tensor(((x @ y) - (y @ x),), 1))
    commuting = HochschildChain.from_tensor((mul_op(tpow(1)), mul_op(tpow(2))))
    assert hochschild_b(commuting).is_empty()


def test_b_squared_zero_fuzz():
    rng = random.Random(101)
    for n in (1, 2):
        for _ in range(10):
            assert PROPERTIES["b2"](rng, n, degree=3)


def test_b_kills_hkr_of_commuting_entries():
    rng = random.Random(102)
    for n in (1, 2):
        form = DifferentialForm(rand_laurent(rng, n),
                                [rand_laurent(rng, n) for _ in range(n)])
        assert chain_is_zero(hochschild_b(hkr_antisymmetrize(form)))


def _split_chain(a, b, c, y):
    """a (x) y + b (x) y - c (x) y."""
    return HochschildChain(3, QQ, 1, [((a, y), 1), ((b, y), 1), ((c, y), -1)])


def test_chain_is_zero_resolves_projector_splitting_n3():
    # P_i^+ x (x) y + P_i^- x (x) y - x (x) y has three distinct tensors and
    # vanishes only through the linear relation P_i^+ x + P_i^- x = x; a
    # doubled coefficient or a moved shift in one slot must not cancel
    rng = random.Random(103)
    for _ in range(5):
        x, y = rand_operator(rng, 3, terms=3), rand_operator(rng, 3, terms=3)
        for axis in (1, 2, 3):
            plus, minus = projector(3, axis, "+") @ x, projector(3, axis, "-") @ x
            moved = mul_op(tpow(1, 3, axis)) @ x
            assert chain_is_zero(_split_chain(plus, minus, x, y))
            assert not chain_is_zero(_split_chain(plus, minus, moved, y))
            if not plus.is_zero():
                assert not chain_is_zero(_split_chain(plus.scale(2), minus, x, y))


# -- Chevalley-Eilenberg ------------------------------------------------------


def test_ce_delta_two_slots():
    x = rand_operator(random.Random(103), 1)
    y = projector(1, 1, "+") @ mul_op(tpow(-2))
    chain = LieChain.from_parts(None, (x, y))
    expected = LieChain.from_parts(None, (x.commutator(y),), -1)
    assert chains_equal(ce_delta(chain), expected)


def test_ce_delta_squared_zero():
    rng = random.Random(104)
    for _ in range(10):
        chain = LieChain.from_parts(None, tuple(rand_operator(rng, 1) for _ in range(4)))
        if chain.is_empty():
            continue
        assert chain_is_zero(ce_delta(ce_delta(chain)))


def test_ce_delta_commuting_slots_vanishes():
    rng = random.Random(105)
    slots = tuple(mul_op(rand_monomial(rng, 2)) for _ in range(3))
    chain = LieChain.from_parts(None, slots)
    if not chain.is_empty():
        assert ce_delta(chain).is_empty()


def test_epsilon_shapes():
    m = rand_operator(random.Random(106), 1)
    a = mul_op(tpow(1))
    b = projector(1, 1, "-")
    assert chains_equal(epsilon(LieChain.from_parts(m, (a,))),
                        HochschildChain.from_tensor((m, a)))
    image = epsilon(LieChain.from_parts(m, (a, b)))
    direct = HochschildChain(1, QQ, 2, [((m, a, b), 1), ((m, b, a), -1)])
    assert chains_equal(image, direct)


def test_epsilon_chain_map_fuzz():
    rng = random.Random(107)
    for n in (1, 2):
        for degree in (1, 2, 3):
            for _ in range(5):
                assert PROPERTIES["chainmap"](rng, n, degree=degree)


def test_i_prime():
    rng = random.Random(108)
    f0, f1 = rand_operator(rng, 1), rand_operator(rng, 1)
    image = i_prime(LieChain.from_parts(f0, (f1,)))
    assert chains_equal(image, LieChain.from_parts(None, (f0, f1), -1))
    # duplicate slots die under wedge normalization
    assert i_prime(LieChain.from_parts(f0, (f0,))).is_empty()
    f2 = rand_operator(rng, 1)
    image2 = i_prime(LieChain.from_parts(f0, (f1, f2)))
    assert chains_equal(image2, LieChain.from_parts(None, (f0, f1, f2), 1))


# -- labeled tower ------------------------------------------------------------


def test_n_partial_squared_zero():
    rng = random.Random(109)
    for n in (1, 2):
        for _ in range(8):
            assert all(PROPERTIES["tower"](rng, n, level=n + 1).values())
    assert n_partial(LabeledChain(2, QQ, 2, 1, [])).is_empty()


def test_n_partial_top_label_signs():
    # n=2, level 3 (label 00): four components with sign from zeros to the right
    m = WindowedOperator.single(2, 1, (0, 0), ((0, 2), (0, 2)))
    ch = LabeledChain(2, QQ, 3, 0, [((("0", "0"), (m,)), 1)])
    image = n_partial(ch)
    got = {label: coeff for (label, _), coeff in image.terms.items()}
    assert got == {("+", "0"): Fraction(-1), ("-", "0"): Fraction(-1),
                   ("0", "+"): Fraction(1), ("0", "-"): Fraction(1)}


def test_homotopy_contracts_fuzz():
    rng = random.Random(110)
    for n in (1, 2):
        for _ in range(10):
            assert all(PROPERTIES["tower"](rng, n).values())


def test_homotopy_squared_zero_fuzz():
    rng = random.Random(111)
    for n in (1, 2):
        for _ in range(10):
            level = rng.randint(0, n - 1)
            assert all(PROPERTIES["tower"](rng, n, level=level, degree=1).values())


def test_homotopy_level0_signs():
    # level 0 for n=1: f goes to +P^+ f at (+) and -P^- f at (-)
    m = rand_operator(random.Random(112), 1)
    ch = LabeledChain(1, QQ, 0, 0, [((None, (m,)), 1)])
    image = homotopy_H(ch)
    got = {label: tensor[0] for (label, tensor), _ in image.terms.items()}
    signs = {label: coeff for (label, _), coeff in image.terms.items()}
    P, Q = projector(1, 1, "+"), projector(1, 1, "-")
    if not (P @ m).is_zero():
        assert got[("+",)] == P @ m and signs[("+",)] == 1
    if not (Q @ m).is_zero():
        assert got[("-",)] == Q @ m and signs[("-",)] == -1


def test_labeled_chain_membership_validation():
    bad = mul_op(tpow(3))  # not in any ideal
    with pytest.raises(MembershipError):
        LabeledChain(1, QQ, 1, 0, [((("+",), (bad,)), 1)])


class _SwappedIdempotents(GoodIdempotents):
    """A sign-convention bug: P^+ and P^- trade places."""

    __slots__ = ()

    def P(self, axis, sign):
        return super().P(axis, "-" if sign == "+" else "+")


def test_homotopy_with_swapped_projectors_fails_membership():
    # the builders hand their terms to the constructor's checking step,
    # so a wrong projector sign is still caught at every level
    rng = random.Random(126)
    for n in (2, 3):
        level0 = LabeledChain.from_hochschild(rand_cycle(rng, n))
        assert not level0.is_empty()
        with pytest.raises(MembershipError):
            homotopy_H(level0, _SwappedIdempotents(n))
        level1 = hochschild_b(homotopy_H(level0))
        assert not level1.is_empty()
        with pytest.raises(MembershipError):
            homotopy_H(level1, _SwappedIdempotents(n))


def test_builders_match_the_validating_constructor():
    rng = random.Random(127)
    ext = ExtensionField(PolyQ((1, 0, 1)))
    nonempty = 0
    for n in (1, 2, 3):
        for field in (QQ, ext):
            for _ in range(8):
                level = rng.randint(0, n)
                chain = rand_labeled_chain(rng, n, level, rng.randint(1, 2), field)
                for out in (hochschild_b(chain), homotopy_H(chain)):
                    assert out == LabeledChain(n, field, out.level, out.degree, out.terms)
                    assert all(c and all(s for s in tensor)
                               for (_, tensor), c in out.terms.items())
                    nonempty += not out.is_empty()
    assert nonempty >= 60
    # hkr_antisymmetrize hands its merged terms to the same storing step
    for n in (1, 2, 3, 4):
        for field in (QQ, ext):
            for _ in range(2):
                f0, fs = _random_form(rng, n, 2)
                form = DifferentialForm(LaurentPoly(n, field, f0),
                                        [LaurentPoly(n, field, f) for f in fs])
                cycle = hkr_antisymmetrize(form)
                assert cycle == HochschildChain(n, field, n, cycle.terms)
                assert not cycle.is_empty() and all(cycle.terms.values())
                assert set(cycle.terms.values()) <= {field.one, -field.one}
    t1, t2 = LaurentPoly.variable(3, 1), LaurentPoly.variable(3, 2)
    zero_entry = DifferentialForm(t1, [t2, LaurentPoly(3), t1])
    equal_entries = DifferentialForm(t1, [t2, t1 + t2, t1 + t2])
    for form in (zero_entry, equal_entries):
        assert hkr_antisymmetrize(form) == HochschildChain(3, QQ, 3)
    # LieChain +, - and scale merge sorted wedges without re-sorting them;
    # the result must still be what LieChain(...) makes of the same terms
    ring = ExtensionField(PolyQ((-1, 0, 1)))    # (x + 1)(x - 1) = 0
    killed = 0
    for field, coeffs in ((QQ, [Fraction(1), Fraction(-2, 3), Fraction(5)]),
                          (ring, [ring.one, ring.element((-1, 1)), ring.generator])):
        for degree in (2, 3):
            pool = [rand_operator(rng, 2, field) for _ in range(degree + 2)]

            def draw():
                terms = [((rng.choice([None] + pool), rng.sample(pool, degree)),
                          rng.choice(coeffs)) for _ in range(4)]
                return LieChain(2, field, degree, terms)
            for _ in range(6):
                a, b = draw(), draw()
                scalar = rng.choice(coeffs) if field == QQ else ring.element((1, 1))
                for out in (a + b, a - b, a.scale(scalar)):
                    assert out == LieChain(2, field, degree, out.terms)
                    assert all(out.terms.values())
                killed += len(a.scale(scalar).terms) < len(a.terms)
    assert killed >= 3    # the zero divisor did cancel terms


def test_chain_equality_needs_type_shape_and_terms():
    rng = random.Random(129)
    ext = ExtensionField(PolyQ((1, 0, 1)))
    chain = rand_hochschild_chain(rng, 2, 1)
    assert not chain.is_empty()
    assert chain != LabeledChain.from_hochschild(chain)
    assert LabeledChain.from_hochschild(chain) != chain
    assert chain == HochschildChain(2, QQ, 1, chain.terms)
    assert HochschildChain(2, QQ, 1) != HochschildChain(2, QQ, 2)
    assert HochschildChain(2, QQ, 1) != HochschildChain(2, ext, 1)
    assert HochschildChain(2, QQ, 1) != LabeledChain(2, QQ, 0, 1)
    assert LabeledChain(2, QQ, 1, 1) != LabeledChain(2, QQ, 2, 1)
    assert LieChain(2, QQ, 1) != LieChain(2, ext, 1)
    assert LieChain(2, QQ, 1) != LieChain(1, QQ, 1)


# -- residue functionals -------------------------------------------------------


def test_phi_closed_one_dim_anchor():
    chain = HochschildChain.from_tensor((mul_op(tpow(-1)), mul_op(t())))
    assert phi_hh_closed(chain) == 1


def test_phi_closed_monomial_law_n2():
    rng = random.Random(113)
    for _ in range(30):
        rows = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(3)]
        beta = rand_fraction(rng, nonzero=True)
        tensor = tuple(
            mul_op(LaurentPoly.monomial(2, tuple(row), beta if p == 0 else 1))
            for p, row in enumerate(rows))
        value = phi_hh_closed(HochschildChain.from_tensor(tensor))
        if all(sum(rows[p][i] for p in range(3)) == 0 for i in range(2)):
            assert value == beta * rows[1][0] * rows[2][1]
        else:
            assert value == 0


def test_phi_closed_identity_slot_vanishes():
    one = mul_op(LaurentPoly.constant(1, 1))
    chain = HochschildChain.from_tensor((mul_op(tpow(-1)), one))
    assert phi_hh_closed(chain) == 0


def test_zigzag_matches_closed_on_cycles():
    rng = random.Random(114)
    for n in (1, 2):
        for _ in range(15):
            assert PROPERTIES["zigzag"](rng, n)


def test_zigzag_anchor_and_zero():
    chain = HochschildChain.from_tensor((mul_op(tpow(-1)), mul_op(t())))
    assert phi_hh_zigzag(chain) == 1
    assert phi_hh_zigzag(HochschildChain(1, QQ, 1, [])) == 0


def test_zigzag_rejects_non_cycles():
    chain = HochschildChain.from_tensor((projector(1, 1, "+"), mul_op(t())))
    with pytest.raises(NotACycle):
        phi_hh_zigzag(chain)


def test_lambda_toeplitz():
    P = projector(1, 1, "+")
    x = mul_op(tpow(3))
    image = lambda_toeplitz(x)
    assert image == P @ x
    # applied to monomials: keeps exactly those landing at exponent >= 0
    f = LaurentPoly(1, coeffs={(-5,): 1, (-3,): 1, (0,): 1})
    assert image.apply(f) == LaurentPoly(1, coeffs={(0,): 1, (3,): 1})
    y = rand_operator(random.Random(115), 1)
    assert lambda_toeplitz(projector(1, 1, "-") @ y).is_zero()
    assert lambda_toeplitz(WindowedOperator.identity(1)) == P


def test_psi_formula_and_membership():
    rng = random.Random(116)
    idem = GoodIdempotents(1, QQ)
    a0, a1 = rand_operator(rng, 1), rand_operator(rng, 1)
    chain = HochschildChain.from_tensor((a0, a1))
    image = psi(chain, 1)
    P, Q = idem.P(1, "+"), idem.P(1, "-")
    bracket = (Q @ a1 @ P) - (P @ a1 @ Q)
    expected = HochschildChain(1, QQ, 0, [(((bracket @ a0),), -1)])
    assert chains_equal(image, expected)
    assert psi(HochschildChain(1, QQ, 1, []), 1).is_empty()


def test_psi_iterated_trace_identity():
    # tau(Psi^n) = (-1)^{n(n+1)/2} tau(B_1..B_n a_0)
    rng = random.Random(117)
    n = 2
    idem = GoodIdempotents(n, QQ)
    for _ in range(10):
        tensor = tuple(rand_operator(rng, n) for _ in range(n + 1))
        chain = HochschildChain.from_tensor(tensor)
        stepped = psi(psi(chain, 2), 1)
        total = QQ.zero
        for tens, coeff in stepped.terms.items():
            total += coeff * tate_trace(tens[0])
        op = tensor[0]
        for k in range(n, 0, -1):
            B = (idem.P(k, "-") @ tensor[k] @ idem.P(k, "+")) \
                - (idem.P(k, "+") @ tensor[k] @ idem.P(k, "-"))
            op = B @ op
        sign = (-1) ** (n * (n + 1) // 2)
        assert total == sign * tate_trace(op)


def test_phi_c_sign_relation():
    rng = random.Random(118)
    for n in (1, 2):
        for _ in range(15):
            assert PROPERTIES["phic"](rng, n)
    assert phi_c(HochschildChain(2, QQ, 2, [])) == 0


def test_commutator_formula_agreement():
    rng = random.Random(119)
    for n in (1, 2):
        for _ in range(15):
            assert PROPERTIES["commutator"](rng, n)


def test_commutator_formula_commuting_specialization():
    rng = random.Random(120)
    for _ in range(10):
        assert PROPERTIES["commuting"](rng, 1) is not False  # None: zero draw
    anchor = LieChain.from_parts(mul_op(tpow(-1)), (mul_op(t()),))
    assert commutator_formula(anchor) == 1


def test_cyclic_t():
    a, b = mul_op(tpow(1)), projector(1, 1, "+")
    chain = HochschildChain.from_tensor((a, b))
    assert chains_equal(cyclic_t(chain), HochschildChain(1, QQ, 1, [((b, a), -1)]))
    rng = random.Random(121)
    for degree in (1, 2, 3):
        ch = rand_hochschild_chain(rng, 1, degree)
        rotated = ch
        for _ in range(degree + 1):
            rotated = cyclic_t(rotated)
        assert chains_equal(rotated, ch)


def test_cyclic_vanishing_degree_one():
    # (1 - t)z is automatically a cycle in degree 1; the vanishing is the
    # integration-by-parts identity res d(fg) = 0
    rng = random.Random(122)
    for _ in range(15):
        assert PROPERTIES["cyclic"](rng, 1)


def test_phi_vanishes_on_boundaries():
    rng = random.Random(124)
    for n in (1, 2):
        for _ in range(10):
            w = rand_hochschild_chain(rng, n, n + 1)
            assert phi_hh_closed(hochschild_b(w)) == 0


def test_cyclic_vanishing_on_image_cycles():
    # cycles that genuinely lie in the image of (1 - t): built from a
    # degree-(n-1) cycle through the norm and an extra identity slot
    rng = random.Random(125)
    for _ in range(10):
        assert PROPERTIES["cyclic"](rng, 2)


def test_idempotent_shift_invariance():
    rng = random.Random(123)
    for n in (1, 2):
        sweep = [(m,) * n for m in range(-3, 4)]
        for _ in range(8):
            assert PROPERTIES["shift"](rng, n, thresholds=sweep)


# -- three paths against an independent oracle at n = 3 ----------------------
# The Jacobian law res(f0 df1^..^dfn) = coeff of (t1..tn)^-1 in
# f0 * det(d f_i / d t_j), computed on plain {exponents: Fraction} dicts
# by helpers that use no library code.

def _jacobian_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _jacobian_partial(f, j):
    return {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j] for e, c in f.items() if e[j]}


def _jacobian_residue(f0, fs):
    n = len(fs)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = f0
        for i, j in enumerate(perm):
            term = _jacobian_mul(term, _jacobian_partial(fs[i], j))
        total += (-1) ** inversions * term.get((-1,) * n, 0)
    return total


def _random_form(rng, n, terms=3):
    """f0 and f1..fn, each a sum of `terms` monomials with exponents in
    -1..1; at n = 3 about a third of such forms have a nonzero residue."""
    def poly():
        return {tuple(rng.randint(-1, 1) for _ in range(n)):
                Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                for _ in range(terms)}
    return poly(), [poly() for _ in range(n)]


def test_three_paths_match_jacobian_oracle_n3():
    rng = random.Random(303)
    flip = -1    # (-1)^{n(n-1)/2} at n = 3
    values = []
    for _ in range(6):
        f0, fs = _random_form(rng, 3)
        want = _jacobian_residue(f0, fs)
        cycle = hkr_antisymmetrize(DifferentialForm(LaurentPoly(3, coeffs=f0),
                                                    [LaurentPoly(3, coeffs=f) for f in fs]))
        assert phi_hh_closed(cycle) == want
        assert phi_hh_zigzag(cycle) == want
        assert flip * phi_c(cycle) == want
        values.append(want)
    assert len({v for v in values if v}) >= 3    # not a vacuous check


# -- phi_hh_closed shares bracket factors and partial products --------------


@pytest.mark.parametrize("n, seed, terms", [(4, 404, 4), (5, 505, 3)])
def test_phi_closed_matches_jacobian_oracle_n4_n5(n, seed, terms):
    rng = random.Random(seed)
    values = []
    for _ in range(6):
        f0, fs = _random_form(rng, n, terms)
        cycle = hkr_antisymmetrize(DifferentialForm(LaurentPoly(n, coeffs=f0),
                                                    [LaurentPoly(n, coeffs=f) for f in fs]))
        want = _jacobian_residue(f0, fs)
        assert phi_hh_closed(cycle) == want
        values.append(want)
    assert len({v for v in values if v}) >= 2    # not a vacuous check


def _closed_per_tensor(chain):
    """The docstring formula term by term, nothing shared:
    (-1)^n tau(B_1 .. B_n f_0) with B_k = P_k^- f_k P_k^+ - P_k^+ f_k P_k^-."""
    n = chain.dim
    total = chain.field.zero
    for tensor, coeff in chain.terms.items():
        op = tensor[0]
        for k in range(n, 0, -1):
            plus, minus = projector(n, k, "+", chain.field), projector(n, k, "-", chain.field)
            op = (minus @ tensor[k] @ plus - plus @ tensor[k] @ minus) @ op
        total = total + coeff * (-1) ** n * tate_trace(op)
    return total


def _hand_built_chain(rng, n, field):
    """A chain that is not antisymmetrized: tensors drawn with replacement
    from small pools, so fronts and suffixes repeat and one operator
    (t_1 + .. + t_n) may fill several slots, plus a tensor whose first
    partial product B_n(t_n) P_n^+ t_1..t_n is zero next to a sibling whose
    is not."""
    def mono(exps, coeff=1):
        return mul_op(LaurentPoly.monomial(n, exps, coeff, field))

    def unit(k, e=1):
        return tuple(e if j == k else 0 for j in range(n))

    dead_front = projector(n, n, "+", field) @ mono((1,) * n)
    fronts = [dead_front, mono((-1,) * n),
              mul_op(LaurentPoly(n, field, {(-1,) * n: 1, (-2,) + (-1,) * (n - 1): 2}))]
    shared = mul_op(LaurentPoly(n, field, {unit(k): 1 for k in range(n)}))
    wild = rand_operator(rng, n, field)
    pools = [[mono(unit(k)), mono(unit(k)) + mono(unit(k, 2)), shared, shared, wild,
              mono((0,) * n)] for k in range(n)]
    coeffs = ([Fraction(1), Fraction(-2, 3)] if field == QQ
              else [field.generator, field.element((1, -2))])
    terms = []
    for _ in range(16):
        tensor = (rng.choice(fronts),) + tuple(rng.choice(pool) for pool in pools)
        terms.append((tensor, rng.choice(coeffs)))
    middle = tuple(rng.choice(pool) for pool in pools[:-1])
    t_n = mono(unit(n - 1))
    terms.append(((dead_front,) + middle + (t_n,), coeffs[0]))
    terms.append(((dead_front,) + middle + (mono(unit(n - 1, -1)),), coeffs[1]))
    return HochschildChain(n, field, n, terms), dead_front, t_n


def test_phi_closed_matches_per_tensor_formula_on_hand_built_chains():
    rng = random.Random(606)
    gauss = ExtensionField(PolyQ((1, 0, 1)))
    nonzero = 0
    for n, field in ((2, QQ), (3, QQ), (2, gauss), (3, gauss)):
        for _ in range(3):
            chain, dead_front, t_n = _hand_built_chain(rng, n, field)
            plus, minus = projector(n, n, "+", field), projector(n, n, "-", field)
            bracket = minus @ t_n @ plus - plus @ t_n @ minus
            assert not bracket.is_zero() and (bracket @ dead_front).is_zero()
            value = phi_hh_closed(chain)
            assert value == _closed_per_tensor(chain)
            nonzero += bool(value)
    assert nonzero >= 10    # not a vacuous check


def _cyclic_form(n):
    """(t1..tn)^-1 d(t1 + t1^2 t2) ^ .. ^ d(tn + tn^2 t1); its residue is 1."""
    ts = [f"t{i}" for i in range(1, n + 1)]
    f0 = "*".join(f"{v}^-1" for v in ts)
    ds = " ^ ".join(f"d({ts[i]} + {ts[i]}^2*{ts[(i + 1) % n]})" for i in range(n))
    return parse_form(f"{f0} {ds}", n)


def test_phi_closed_shares_work(monkeypatch):
    calls = [0]
    compose = WindowedOperator.compose

    def counted(self, other):
        calls[0] += 1
        return compose(self, other)

    monkeypatch.setattr(WindowedOperator, "compose", counted)
    monkeypatch.setattr(WindowedOperator, "__matmul__", counted)
    assert residue_form(_cyclic_form(6)) == 1
    # n!*5n = 21,600 compositions when nothing is shared
    assert 0 < calls[0] <= 2100
    calls[0] = 0
    assert residue_form(_cyclic_form(7)) == 1
    assert 0 < calls[0] <= 13895


def test_zigzag_shares_work(monkeypatch):
    calls = [0]
    compose = WindowedOperator.compose

    def counted(self, other):
        calls[0] += 1
        return compose(self, other)

    monkeypatch.setattr(WindowedOperator, "compose", counted)
    monkeypatch.setattr(WindowedOperator, "__matmul__", counted)
    assert phi_hh_zigzag(hkr_antisymmetrize(_cyclic_form(4))) == 1
    # 21,548 compositions when every product is rebuilt
    assert 0 < calls[0] <= 6000
