from __future__ import annotations

import random
from fractions import Fraction

import pytest

from resym import (DifferentialForm, GoodIdempotents, HochschildChain,
                   LabeledChain, LaurentPoly, LieChain, MembershipError,
                   NotACycle, QQ, WindowedOperator, ce_delta,
                   ce_delta_coefficients, chain_is_zero, chains_equal,
                   commutator_formula, cyclic_t, epsilon, hkr_antisymmetrize,
                   hochschild_b, homotopy_H, i_prime, lambda_toeplitz, mul_op,
                   n_partial, phi_c, phi_hh_closed, phi_hh_zigzag, projector,
                   psi, tate_trace)
from resym.verify import (rand_commuting_lie_chain, rand_cycle, rand_fraction,
                          rand_hochschild_chain, rand_labeled_chain,
                          rand_laurent, rand_lie_chain, rand_monomial,
                          rand_operator)


def t(dim=1, axis=1):
    return LaurentPoly.variable(dim, axis)


def tpow(i, dim=1, axis=1):
    exps = [0] * dim
    exps[axis - 1] = i
    return LaurentPoly.monomial(dim, exps)


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
            ch = rand_hochschild_chain(rng, n, 3)
            assert chain_is_zero(hochschild_b(hochschild_b(ch)))


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
                lc = rand_lie_chain(rng, n, degree)
                assert chains_equal(hochschild_b(epsilon(lc)),
                                    epsilon(ce_delta_coefficients(lc)))


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
            ch = rand_labeled_chain(rng, n, n + 1, rng.randint(1, 2))
            if n + 1 >= 2:
                assert chain_is_zero(n_partial(n_partial(ch)))
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
            level = rng.randint(0, n + 1)
            ch = rand_labeled_chain(rng, n, level, rng.randint(1, 2))
            acc = None
            if level <= n:
                acc = n_partial(homotopy_H(ch))
            if level >= 1:
                part = homotopy_H(n_partial(ch))
                acc = part if acc is None else acc + part
            assert chains_equal(acc, ch)


def test_homotopy_squared_zero_fuzz():
    rng = random.Random(111)
    for n in (1, 2):
        for _ in range(10):
            level = rng.randint(0, n - 1)
            ch = rand_labeled_chain(rng, n, level, 1)
            assert chain_is_zero(homotopy_H(homotopy_H(ch)))


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
            cycle = rand_cycle(rng, n)
            assert phi_hh_zigzag(cycle) == phi_hh_closed(cycle)


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
        flip = (-1) ** (n * (n - 1) // 2)
        for _ in range(15):
            chain = rand_hochschild_chain(rng, n, n)
            assert phi_c(chain) == flip * phi_hh_closed(chain)
    assert phi_c(HochschildChain(2, QQ, 2, [])) == 0


def test_commutator_formula_agreement():
    rng = random.Random(119)
    for n in (1, 2):
        for _ in range(15):
            lc = rand_lie_chain(rng, n, n)
            assert commutator_formula(lc) == phi_hh_closed(epsilon(lc))


def test_commutator_formula_commuting_specialization():
    rng = random.Random(120)
    P = projector(1, 1, "+")
    for _ in range(10):
        f0, f1 = mul_op(rand_laurent(rng, 1)), mul_op(rand_laurent(rng, 1))
        if f0.is_zero() or f1.is_zero():
            continue
        lc = LieChain.from_parts(f0, (f1,))
        assert commutator_formula(lc) == tate_trace((P @ f0).commutator(f1))
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
        z = epsilon(rand_commuting_lie_chain(rng, 1, 1))
        if z.is_empty():
            continue
        y = z - cyclic_t(z)
        assert chain_is_zero(hochschild_b(y))
        assert phi_hh_closed(y) == 0


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
        w = epsilon(rand_commuting_lie_chain(rng, 2, 1))
        if w.is_empty():
            continue
        assert chain_is_zero(hochschild_b(w))
        lifted = w
        total = w
        for _ in range(w.degree):
            lifted = cyclic_t(lifted)
            total = total + lifted
        one = mul_op(LaurentPoly.constant(2, 1))
        prepended = HochschildChain(2, QQ, total.degree + 1,
                                    [((one,) + tensor, c)
                                     for tensor, c in total.terms.items()])
        y = prepended - cyclic_t(prepended)
        assert chain_is_zero(hochschild_b(y))
        assert phi_hh_closed(y) == 0


def test_idempotent_shift_invariance():
    rng = random.Random(123)
    for n in (1, 2):
        for _ in range(8):
            cycle = rand_cycle(rng, n)
            base = phi_hh_closed(cycle)
            for m in range(-3, 4):
                idem = GoodIdempotents(n, QQ, thresholds=(m,) * n)
                assert phi_hh_closed(cycle, idempotents=idem) == base
