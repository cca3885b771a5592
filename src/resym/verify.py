"""Property suites behind `resym verify`, plus the random samplers and the
dense-trace oracle they use.

Each suite runs a deterministic seeded batch of checks and reports
{"suite", "cases", "failures"}; the command exits nonzero exactly when a
failure name appears.  The tests package reuses the samplers and the oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .homology import (HochschildChain, LabeledChain, LieChain, ce_delta,
                       ce_delta_coefficients, chain_is_zero, chains_equal,
                       commutator_formula, cyclic_t, epsilon,
                       hkr_antisymmetrize, hochschild_b, homotopy_H,
                       labels_of_degree, n_partial, phi_c, phi_hh_closed,
                       phi_hh_zigzag)
from .laurent import DifferentialForm, LaurentPoly
from .operators import (GoodIdempotents, WindowedOperator, ideal_member,
                        mul_op, projector, tate_trace)
from .polynomials import PolyQ
from .residue import (RationalFunction, coordinate_invariance_check_1d,
                      global_residue_sum, nodal_factorization_check,
                      residue_coeff_oracle, residue_form, residue_monomial_det)
from .scalars import QQ


# -- samplers ----------------------------------------------------------------


def rand_fraction(rng: random.Random, bound: int = 3, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if q or not nonzero:
            return q


def rand_laurent(rng: random.Random, dim: int, field=QQ, terms: int = 2,
                 exp_bound: int = 3) -> LaurentPoly:
    coeffs = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(dim))
        coeffs[exps] = field.coerce(rand_fraction(rng, nonzero=True))
    return LaurentPoly(dim, field, coeffs)


def rand_monomial(rng: random.Random, dim: int, field=QQ, exp_bound: int = 3) -> LaurentPoly:
    exps = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(dim))
    return LaurentPoly.monomial(dim, exps, rand_fraction(rng, nonzero=True), field)


def rand_operator(rng: random.Random, dim: int, field=QQ, terms: int = 2,
                  finite: bool = False) -> WindowedOperator:
    """A random windowed operator; `finite` forces finite rank."""
    data = []
    for _ in range(rng.randint(1, terms)):
        coeff = rand_fraction(rng, nonzero=True)
        shift = tuple(rng.randint(-2, 2) for _ in range(dim))
        window = []
        for _ in range(dim):
            lo = rng.randint(-3, 0)
            hi = rng.randint(1, 4)
            if not finite:
                lo = rng.choice([None, lo])
                hi = rng.choice([None, hi])
            window.append((lo, hi))
        data.append((coeff, shift, tuple(window)))
    return WindowedOperator(dim, field, data)


def rand_strict_shift_operator(rng: random.Random, dim: int, field=QQ) -> WindowedOperator:
    """Certifiably nilpotent: one axis carries same-sign shifts and finite windows."""
    axis = rng.randrange(dim)
    direction = rng.choice([1, -1])
    data = []
    for _ in range(rng.randint(1, 3)):
        coeff = rand_fraction(rng, nonzero=True)
        shift = [rng.randint(-2, 2) for _ in range(dim)]
        shift[axis] = direction * rng.randint(1, 2)
        window = []
        for i in range(dim):
            if i == axis:
                lo = rng.randint(-3, 0)
                window.append((lo, lo + rng.randint(1, 4)))
            else:
                window.append((rng.choice([None, -2]), rng.choice([None, 3])))
        data.append((coeff, tuple(shift), tuple(window)))
    return WindowedOperator(dim, field, data)


def rand_hochschild_chain(rng: random.Random, dim: int, degree: int, field=QQ,
                          terms: int = 2, monomial_slots: bool = False) -> HochschildChain:
    data = []
    for _ in range(terms):
        if monomial_slots:
            tensor = tuple(mul_op(rand_monomial(rng, dim, field))
                           for _ in range(degree + 1))
        else:
            tensor = tuple(rand_operator(rng, dim, field) for _ in range(degree + 1))
        data.append((tensor, rand_fraction(rng, nonzero=True)))
    return HochschildChain(dim, field, degree, data)


def rand_commuting_lie_chain(rng: random.Random, dim: int, degree: int,
                             field=QQ) -> LieChain:
    """Lie chain whose slots are multiplication operators (all commuting)."""
    data = []
    for _ in range(2):
        m = mul_op(rand_laurent(rng, dim, field))
        slots = tuple(mul_op(rand_monomial(rng, dim, field)) for _ in range(degree))
        data.append(((m, slots), rand_fraction(rng, nonzero=True)))
    return LieChain(dim, field, degree, data)


def rand_lie_chain(rng: random.Random, dim: int, degree: int, field=QQ) -> LieChain:
    data = []
    for _ in range(2):
        m = rand_operator(rng, dim, field)
        slots = tuple(rand_operator(rng, dim, field) for _ in range(degree))
        data.append(((m, slots), rand_fraction(rng, nonzero=True)))
    return LieChain(dim, field, degree, data)


def rand_labeled_chain(rng: random.Random, dim: int, level: int, degree: int,
                       field=QQ) -> LabeledChain:
    """Two random labeled terms; each module slot is cut down by a box into
    the ideal intersection its label prescribes."""
    data = []
    for _ in range(2):
        if level == 0:
            label = None
            m = rand_operator(rng, dim, field)
        else:
            label = rng.choice(labels_of_degree(dim, level))
            window = []
            for s in label:
                if s == "+":
                    window.append((rng.randint(-2, 0), None))
                elif s == "-":
                    window.append((None, rng.randint(0, 2)))
                else:
                    window.append((rng.randint(-2, 0), rng.randint(1, 3)))
            m = WindowedOperator.single(dim, 1, (0,) * dim, tuple(window), field) \
                @ rand_operator(rng, dim, field)
        if m.is_zero():
            continue
        tensor = (m,) + tuple(rand_operator(rng, dim, field) for _ in range(degree))
        data.append(((label, tensor), rand_fraction(rng, nonzero=True)))
    return LabeledChain(dim, field, level, degree, data)


def rand_cycle(rng: random.Random, dim: int, field=QQ) -> HochschildChain:
    """A Hochschild cycle: the antisymmetrization of a random form."""
    form = DifferentialForm(rand_laurent(rng, dim, field),
                            [rand_laurent(rng, dim, field) for _ in range(dim)])
    return hkr_antisymmetrize(form)


def rand_rational_function(rng: random.Random, quadratic: bool = False) -> RationalFunction:
    """Random rational function with denominator of degree <= 4.

    With `quadratic`, an irreducible quadratic place is guaranteed.
    """
    irreducible_quadratics = [PolyQ((1, 0, 1)), PolyQ((2, 0, 1)), PolyQ((1, 1, 1)),
                              PolyQ((3, -1, 1)), PolyQ((2, 2, 1))]
    den = PolyQ.one()
    budget = 4
    if quadratic:
        den = den * rng.choice(irreducible_quadratics)
        budget -= 2
    while budget > 0 and rng.random() < 0.85:
        pick = rng.random()
        if pick < 0.6 or budget < 2:
            root = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            den = den * PolyQ((-root, 1))
            budget -= 1
        else:
            den = den * rng.choice(irreducible_quadratics)
            budget -= 2
    num_deg = rng.randint(0, 3)
    num = PolyQ([rand_fraction(rng) for _ in range(num_deg)] + [Fraction(1)])
    return RationalFunction(num, den)


# -- oracles ------------------------------------------------------------------


def dense_trace(x: WindowedOperator):
    """Trace of a finite-rank operator read off its dense matrix.

    Every matrix entry (lam + shift, lam) is enumerated and the diagonal
    entries are summed; no shortcut of tate_trace is shared.
    """
    entries: dict = {}
    for coeff, shift, window in x.terms:
        for lam in product(*(range(lo, hi) for lo, hi in window)):
            key = (tuple(a + b for a, b in zip(lam, shift)), lam)
            entries[key] = entries.get(key, x.field.zero) + coeff
    return sum((v for (target, source), v in entries.items() if target == source),
               x.field.zero)


# -- suites -------------------------------------------------------------------


def _run(checks):
    failures = [name for name, ok in checks if not ok]
    return {"cases": len(checks), "failures": failures}


def suite_axioms(seed: int = 20250810) -> dict:
    """Homological identities and the trace axioms on random data."""
    rng = random.Random(seed)
    checks = []
    for n in (1, 2):
        for k in range(10):
            ch = rand_hochschild_chain(rng, n, rng.randint(2, 3))
            checks.append((f"b2-n{n}-{k}", chain_is_zero(hochschild_b(hochschild_b(ch)))))
        for k in range(10):
            lc = rand_lie_chain(rng, n, rng.randint(2, 3))
            ok = chain_is_zero(ce_delta_coefficients(ce_delta_coefficients(lc)))
            triv = LieChain(n, QQ, lc.degree + 1,
                            [((None, (m,) + s), c) for (m, s), c in lc.terms.items()])
            if triv.degree >= 3:
                ok = ok and chain_is_zero(ce_delta(ce_delta(triv)))
            checks.append((f"ce2-n{n}-{k}", ok))
        for k in range(10):
            lc = rand_lie_chain(rng, n, rng.randint(1, 3))
            checks.append((f"chainmap-n{n}-{k}", chains_equal(
                hochschild_b(epsilon(lc)), epsilon(ce_delta_coefficients(lc)))))
    for n in (1, 2):
        for k in range(10):
            level = rng.randint(0, n + 1)
            ch = rand_labeled_chain(rng, n, level, rng.randint(1, 2))
            acc = None
            if level <= n:
                acc = n_partial(homotopy_H(ch))
            if level >= 1:
                hd = homotopy_H(n_partial(ch))
                acc = hd if acc is None else acc + hd
            checks.append((f"homotopy-n{n}-{k}", chains_equal(acc, ch)))
            if level + 1 <= n:
                checks.append((f"h2-n{n}-{k}",
                               chain_is_zero(homotopy_H(homotopy_H(ch)))))
            if level >= 2:
                checks.append((f"d2-n{n}-{k}",
                               chain_is_zero(n_partial(n_partial(ch)))))
    for n in (1, 2):
        for k in range(15):
            x = rand_operator(rng, n, finite=True)
            checks.append((f"t1-n{n}-{k}", tate_trace(x) == dense_trace(x)))
            y = rand_operator(rng, n, finite=True)
            checks.append((f"t5-n{n}-{k}", tate_trace(x @ y) == tate_trace(y @ x)))
            z = rand_strict_shift_operator(rng, n)
            checks.append((f"t3-n{n}-{k}", tate_trace(z) == 0))
        for k in range(10):
            a = rand_operator(rng, n)
            x = rand_operator(rng, n)
            for axis in range(1, n + 1):
                plus = projector(n, axis, "+") @ x
                minus = projector(n, axis, "-") @ x
                checks.append((f"split-n{n}-{k}-ax{axis}",
                               ideal_member(plus, axis, "+")
                               and ideal_member(minus, axis, "-")
                               and (plus + minus - x).is_zero()))
                for sign in ("+", "-"):
                    member = (projector(n, axis, sign) @ x)
                    checks.append((f"ideal-n{n}-{k}-{sign}{axis}",
                                   ideal_member(a @ member, axis, sign)
                                   and ideal_member(member @ a, axis, sign)))
    return {"suite": "axioms", **_run(checks)}


def suite_compare(seed: int = 777) -> dict:
    """Cross-path agreement of the residue functionals and the invariances."""
    rng = random.Random(seed)
    checks = []
    for n in (1, 2):
        flip = -1 if (n * (n - 1) // 2) % 2 else 1
        for k in range(25):
            cycle = rand_cycle(rng, n)
            closed = phi_hh_closed(cycle)
            checks.append((f"zigzag-n{n}-{k}", phi_hh_zigzag(cycle) == closed))
            chain = rand_hochschild_chain(rng, n, n)
            checks.append((f"phic-n{n}-{k}",
                           phi_c(chain) == flip * phi_hh_closed(chain)))
        for k in range(25):
            lc = rand_lie_chain(rng, n, n)
            checks.append((f"commutator-n{n}-{k}",
                           commutator_formula(lc) == phi_hh_closed(epsilon(lc))))
        for k in range(10):
            if n == 1:
                z = epsilon(rand_commuting_lie_chain(rng, 1, 1))
                y = z - cyclic_t(z)
            else:
                # in degree >= 2, test on cycles genuinely inside im(1 - t)
                w = epsilon(rand_commuting_lie_chain(rng, n, n - 1))
                total, cur = w, w
                for _ in range(w.degree):
                    cur = cyclic_t(cur)
                    total = total + cur
                one = mul_op(LaurentPoly.constant(n, 1))
                lifted = HochschildChain(n, QQ, total.degree + 1,
                                         [((one,) + tensor, c)
                                          for tensor, c in total.terms.items()])
                y = lifted - cyclic_t(lifted)
            ok = chain_is_zero(hochschild_b(y)) and phi_hh_closed(y) == 0
            checks.append((f"cyclic-n{n}-{k}", ok))
    for m in range(-3, 4):
        idem = GoodIdempotents(1, QQ, thresholds=(m,))
        anchor = hkr_antisymmetrize(DifferentialForm(
            LaurentPoly.monomial(1, (-1,)), [LaurentPoly.variable(1, 1)]))
        checks.append((f"shift-anchor-{m}", phi_hh_closed(anchor, idempotents=idem) == 1))
    rng2 = random.Random(seed + 1)
    for k in range(10):
        cycle = rand_cycle(rng2, 2)
        base = phi_hh_closed(cycle)
        m1, m2 = rng2.randint(-3, 3), rng2.randint(-3, 3)
        idem = GoodIdempotents(2, QQ, thresholds=(m1, m2))
        checks.append((f"shift-n2-{k}", phi_hh_closed(cycle, idempotents=idem) == base))
    for k in range(10):
        f = rand_laurent(rng2, 1, terms=3, exp_bound=4)
        if f.is_zero():
            continue
        order = max(f.max_exponent() - f.min_exponent() + 2, 1 - f.min_exponent(), 2)
        checks.append((f"coord-{k}", coordinate_invariance_check_1d(f, order)))
    return {"suite": "compare", **_run(checks)}


def suite_global(seed: int = 424242) -> dict:
    """Residue oracles plus the sum-zero identity on the projective line."""
    rng = random.Random(seed)
    checks = []
    for i in range(-5, 6):
        form = DifferentialForm(LaurentPoly.monomial(1, (i,)), [LaurentPoly.variable(1, 1)])
        checks.append((f"res-t^{i}", residue_form(form) == (1 if i == -1 else 0)))
    for k in range(10):
        n = rng.choice([1, 2])
        f = rand_laurent(rng, n, terms=3)
        form = DifferentialForm(f, [LaurentPoly.variable(n, axis) for axis in range(1, n + 1)])
        checks.append((f"oracle-{k}", residue_form(form) == residue_coeff_oracle(f)))
    for k in range(20):
        quadratic = k < 8
        r = rand_rational_function(rng, quadratic=quadratic)
        total, _ = global_residue_sum(r)
        checks.append((f"global-{k}", total == 0))
    return {"suite": "global", **_run(checks)}


def suite_nodal() -> dict:
    checks = [(f"nodal-{order}", nodal_factorization_check(order))
              for order in (4, 6, 8, 10, 12)]
    return {"suite": "nodal", **_run(checks)}


SUITES = {
    "axioms": suite_axioms,
    "compare": suite_compare,
    "global": suite_global,
    "nodal": suite_nodal,
}


def run_suite(name: str) -> dict:
    """Run one suite, or all of them merged."""
    if name == "all":
        cases = 0
        failures = []
        for fn in SUITES.values():
            result = fn()
            cases += result["cases"]
            failures.extend(f"{result['suite']}:{f}" for f in result["failures"])
        return {"suite": "all", "cases": cases, "failures": failures}
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name]()
