"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a pass line with its runtime (visible under `pytest -s`);
time limits are asserted where the criterion states one.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from resym import (DifferentialForm, ExtensionField, GoodIdempotents,
                   HochschildChain, LaurentPoly, LieChain, PolyQ, QQ,
                   ce_delta, ce_delta_coefficients, chain_is_zero,
                   chains_equal, commutator_formula, cyclic_t, epsilon,
                   hkr_antisymmetrize, hochschild_b, homotopy_H, mul_op,
                   n_partial, nodal_factorization_check,
                   phi_c, phi_hh_closed, phi_hh_zigzag, projector,
                   coordinate_invariance_check_1d, global_residue_sum,
                   residue_form, residue_monomial_det, tate_trace)
from resym.verify import (dense_trace, rand_commuting_lie_chain, rand_cycle,
                          rand_fraction, rand_hochschild_chain,
                          rand_labeled_chain, rand_laurent, rand_lie_chain,
                          rand_operator, rand_rational_function,
                          rand_strict_shift_operator)


class _Clock:
    def __init__(self, number: int, label: str, limit: float = None):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{self.label}]: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, \
                f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"
        return False


def _variables(n):
    return [LaurentPoly.variable(n, a) for a in range(1, n + 1)]


def _monomial_form(rows, beta=Fraction(1)):
    n = len(rows) - 1
    return DifferentialForm(
        LaurentPoly.monomial(n, tuple(rows[0]), beta),
        [LaurentPoly.monomial(n, tuple(rows[p])) for p in range(1, n + 1)])


def test_criterion_01_one_dim_anchor():
    with _Clock(1, "res t^i dt = delta(i,-1)", limit=1.0):
        for i in range(-5, 6):
            form = DifferentialForm(LaurentPoly.monomial(1, (i,)), _variables(1))
            assert residue_form(form) == (1 if i == -1 else 0)


def test_criterion_02_local_formula_n2():
    with _Clock(2, "n=2 monomial determinant law", limit=30.0):
        columns = [(a, b, -a - b) for a in range(-2, 3) for b in range(-2, 3)
                   if -2 <= -a - b <= 2]
        assert len(columns) == 19
        checked = 0
        for col1, col2 in product(columns, columns):
            rows = [[col1[p], col2[p]] for p in range(3)]
            beta = Fraction(2, 3)
            form = _monomial_form(rows, beta)
            assert residue_form(form) == residue_monomial_det(rows, beta)
            checked += 1
        assert checked == 361
        rng = random.Random(9001)
        violations = 0
        while violations < 100:
            rows = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(3)]
            if all(sum(rows[p][i] for p in range(3)) == 0 for i in range(2)):
                continue
            beta = rand_fraction(rng, nonzero=True)
            form = _monomial_form(rows, beta)
            value = residue_form(form)
            assert value == residue_monomial_det(rows, beta) == 0
            violations += 1


def test_criterion_03_three_path_agreement():
    with _Clock(3, "closed = zigzag = signed phi_c", limit=60.0):
        rng = random.Random(9002)
        for n in (1, 2):
            flip = (-1) ** (n * (n - 1) // 2)
            for _ in range(100):
                cycle = rand_cycle(rng, n)
                assert phi_hh_zigzag(cycle) == phi_hh_closed(cycle)
            for _ in range(100):
                chain = rand_hochschild_chain(rng, n, n)
                assert phi_c(chain) == flip * phi_hh_closed(chain)


def test_criterion_04_commutator_formula():
    with _Clock(4, "commutator formula = phi o epsilon"):
        rng = random.Random(9003)
        for n in (1, 2):
            for _ in range(100):
                lc = rand_lie_chain(rng, n, n)
                assert commutator_formula(lc) == phi_hh_closed(epsilon(lc))
        P = projector(1, 1, "+")
        for _ in range(25):
            f0 = mul_op(rand_laurent(rng, 1))
            f1 = mul_op(rand_laurent(rng, 1))
            if f0.is_zero() or f1.is_zero():
                continue
            lc = LieChain.from_parts(f0, (f1,))
            assert commutator_formula(lc) == tate_trace((P @ f0).commutator(f1))


def test_criterion_05_homological_identities():
    with _Clock(5, "b2, ce2, d2, H2, dH+Hd=id, chain map"):
        rng = random.Random(9004)
        b2 = ce2 = d2 = h2 = hom = cmap = 0
        while min(b2, ce2, d2, h2, hom, cmap) < 50:
            n = rng.choice([1, 2])
            if b2 < 50:
                ch = rand_hochschild_chain(rng, n, rng.randint(2, 3))
                assert chain_is_zero(hochschild_b(hochschild_b(ch)))
                b2 += 1
            if ce2 < 50:
                lc = rand_lie_chain(rng, n, rng.randint(2, 3))
                assert chain_is_zero(ce_delta_coefficients(ce_delta_coefficients(lc)))
                triv = LieChain(n, QQ, lc.degree + 1,
                                [((None, (m,) + s), c) for (m, s), c in lc.terms.items()])
                if triv.degree >= 3:
                    assert chain_is_zero(ce_delta(ce_delta(triv)))
                ce2 += 1
            if d2 < 50:
                ch = rand_labeled_chain(rng, n, rng.randint(2, n + 1), rng.randint(1, 2))
                assert chain_is_zero(n_partial(n_partial(ch)))
                d2 += 1
            if h2 < 50:
                ch = rand_labeled_chain(rng, n, rng.randint(0, n - 1), rng.randint(1, 2))
                assert chain_is_zero(homotopy_H(homotopy_H(ch)))
                h2 += 1
            if hom < 50:
                level = rng.randint(0, n + 1)
                ch = rand_labeled_chain(rng, n, level, rng.randint(1, 2))
                acc = None
                if level <= n:
                    acc = n_partial(homotopy_H(ch))
                if level >= 1:
                    part = homotopy_H(n_partial(ch))
                    acc = part if acc is None else acc + part
                assert chains_equal(acc, ch)
                hom += 1
            if cmap < 50:
                lc = rand_lie_chain(rng, n, rng.randint(1, 3))
                assert chains_equal(hochschild_b(epsilon(lc)),
                                    epsilon(ce_delta_coefficients(lc)))
                cmap += 1


def test_criterion_06_trace_axioms():
    with _Clock(6, "T1 dense, T3 shifts, T5 cyclic"):
        rng = random.Random(9005)
        for n in (1, 2):
            for _ in range(50):
                x = rand_operator(rng, n, terms=3, finite=True)
                assert tate_trace(x) == dense_trace(x)
                y = rand_operator(rng, n, terms=2, finite=True)
                assert tate_trace(x @ y) == tate_trace(y @ x)
                z = rand_strict_shift_operator(rng, n)
                assert tate_trace(z) == 0


def test_criterion_07_extension_fields():
    with _Clock(7, "residues over Q[x]/(x^2+1)"):
        gauss = ExtensionField(PolyQ((1, 0, 1)))
        tvar = LaurentPoly.variable(1, 1, gauss)
        tinv = LaurentPoly.monomial(1, (-1,), 1, gauss)
        assert residue_form(DifferentialForm(tinv, [tvar])) == 2
        xtinv = LaurentPoly.monomial(1, (-1,), gauss.generator, gauss)
        assert residue_form(DifferentialForm(xtinv, [tvar])) == 0


def test_criterion_08_global_residue_theorem():
    with _Clock(8, "sum of residues is zero on P1", limit=30.0):
        rng = random.Random(9006)
        quadratics = 0
        for k in range(50):
            wants_quadratic = k % 4 == 0
            r = rand_rational_function(rng, quadratic=wants_quadratic)
            quadratics += wants_quadratic
            total, report = global_residue_sum(r)
            assert total == 0, f"nonzero sum for {r.render()}"
            assert report[-1][0].is_infinite
        assert quadratics >= 10


def test_criterion_09_nodal_cubic():
    with _Clock(9, "nodal cubic factorization at order 12", limit=1.0):
        assert nodal_factorization_check(12) is True


def test_criterion_10_invariance():
    with _Clock(10, "idempotent shifts and coordinate change"):
        rng = random.Random(9007)
        for n in (1, 2):
            for _ in range(10):
                cycle = rand_cycle(rng, n)
                base = phi_hh_closed(cycle)
                for m in range(-3, 4):
                    idem = GoodIdempotents(n, QQ, thresholds=(m,) * n)
                    assert phi_hh_closed(cycle, idempotents=idem) == base
        passed = 0
        while passed < 50:
            f = rand_laurent(rng, 1, terms=3, exp_bound=4)
            if f.is_zero():
                continue
            order = max(f.max_exponent() - f.min_exponent() + 2,
                        1 - f.min_exponent(), 2)
            assert coordinate_invariance_check_1d(f, order)
            passed += 1


def _norm_operator(chain):
    out, cur = chain, chain
    for _ in range(chain.degree):
        cur = cyclic_t(cur)
        out = out + cur
    return out


def _prepend_identity_slot(chain):
    one = mul_op(LaurentPoly.constant(chain.dim, 1, chain.field))
    return HochschildChain(chain.dim, chain.field, chain.degree + 1,
                           [((one,) + tensor, c) for tensor, c in chain.terms.items()])


def _cycle_in_cyclic_image(w):
    """A degree-(deg w + 1) cycle of the form (1 - t)(something), built from
    a cycle w through the norm and an extra tensor slot."""
    lifted = _prepend_identity_slot(_norm_operator(w))
    return lifted - cyclic_t(lifted)


def test_criterion_11_cyclic_vanishing():
    # In degree 1 the rotation is trivial one step down, so (1 - t)z is a
    # cycle for every cycle z and the vanishing can be tested literally.  In
    # higher degree (1 - t)z of an antisymmetrized cycle is not closed, so
    # the factoring through the cyclic quotient is exercised on cycles that
    # actually lie in the image of (1 - t); see the decisions log.
    with _Clock(11, "phi((1 - t) z) = 0 on cycles"):
        rng = random.Random(9008)
        for _ in range(50):
            z = epsilon(rand_commuting_lie_chain(rng, 1, 1))
            if z.is_empty():
                continue
            y = z - cyclic_t(z)
            assert chain_is_zero(hochschild_b(y))
            assert phi_hh_closed(y) == 0
        for _ in range(50):
            w = epsilon(rand_commuting_lie_chain(rng, 2, 1))
            if w.is_empty() or not chain_is_zero(hochschild_b(w)):
                continue
            y = _cycle_in_cyclic_image(w)
            assert chain_is_zero(hochschild_b(y))
            assert phi_hh_closed(y) == 0
