"""The property catalogue shared by `resym verify` and the tests, with the
random samplers and the predicates it uses.

`PROPERTIES` maps a name to a function `(rng, n, ...)` that draws its input
and returns whether the identity holds.  Each suite is a deterministic
seeded batch of catalogue calls, listed as (case name, holds) pairs;
`run_suite` reports {"suite", "cases", "failures"}, and the command exits
nonzero exactly when a failure name appears.  The tests call the same
functions with their own seeds and counts.
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


def rand_hochschild_chain(rng: random.Random, dim: int, degree: int, field=QQ) -> HochschildChain:
    data = []
    for _ in range(2):
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


# -- predicates, shared with tests that draw their own input ----------------


def trace_matches_dense(x: WindowedOperator) -> bool:
    """T1: the trace of a finite-rank operator is the trace of its dense
    matrix.  Every entry (lam + shift, lam) is enumerated and the diagonal
    entries are summed; no shortcut of tate_trace is shared."""
    entries: dict = {}
    for coeff, shift, window in x.terms:
        for lam in product(*(range(lo, hi) for lo, hi in window)):
            key = (tuple(a + b for a, b in zip(lam, shift)), lam)
            entries[key] = entries.get(key, x.field.zero) + coeff
    return tate_trace(x) == sum((v for (target, source), v in entries.items()
                                 if target == source), x.field.zero)


def trace_is_cyclic(x: WindowedOperator, y: WindowedOperator) -> bool:
    """T5: tau(xy) = tau(yx) for finite-rank x and y."""
    return tate_trace(x @ y) == tate_trace(y @ x)


def trace_kills_nilpotent(z: WindowedOperator) -> bool:
    """T3: a certifiably nilpotent operator has trace zero."""
    return tate_trace(z) == 0


def splits_into_ideals(x: WindowedOperator, axis: int) -> bool:
    """x = P^+ x + P^- x with the parts in the + and - ideals of the axis."""
    plus = projector(x.dim, axis, "+") @ x
    minus = projector(x.dim, axis, "-") @ x
    return (ideal_member(plus, axis, "+") and ideal_member(minus, axis, "-")
            and (plus + minus - x).is_zero())


def monomial_det_law(rows, beta) -> bool:
    """res beta t^rows[0] d(t^rows[1]) ^ .. ^ d(t^rows[n]) is the determinant law."""
    n = len(rows) - 1
    form = DifferentialForm(LaurentPoly.monomial(n, tuple(rows[0]), beta),
                            [LaurentPoly.monomial(n, tuple(row)) for row in rows[1:]])
    return residue_form(form) == residue_monomial_det(rows, beta)


# -- the property catalogue -----------------------------------------------------
# A property returns True or False; None when its draw gives no case (a zero
# function); or a dict of named results read off one draw.  An argument left
# at None is drawn.


def _draw(rng: random.Random, value, lo: int, hi: int) -> int:
    return rng.randint(lo, hi) if value is None else value


def _b2(rng, n, degree=None) -> bool:
    ch = rand_hochschild_chain(rng, n, _draw(rng, degree, 2, 3))
    return chain_is_zero(hochschild_b(hochschild_b(ch)))


def _ce2(rng, n) -> bool:
    lc = rand_lie_chain(rng, n, rng.randint(2, 3))
    triv = LieChain(n, QQ, lc.degree + 1,
                    [((None, (m,) + s), c) for (m, s), c in lc.terms.items()])
    return (chain_is_zero(ce_delta_coefficients(ce_delta_coefficients(lc)))
            and (triv.degree < 3 or chain_is_zero(ce_delta(ce_delta(triv)))))


def _chainmap(rng, n, degree=None) -> bool:
    lc = rand_lie_chain(rng, n, _draw(rng, degree, 1, 3))
    return chains_equal(hochschild_b(epsilon(lc)), epsilon(ce_delta_coefficients(lc)))


def _tower(rng, n, level=None, degree=None) -> dict:
    """dH + Hd = id on one labeled chain, plus H^2 = 0 and d^2 = 0 where
    its level allows them."""
    level = _draw(rng, level, 0, n + 1)
    ch = rand_labeled_chain(rng, n, level, _draw(rng, degree, 1, 2))
    acc = n_partial(homotopy_H(ch)) if level <= n else None
    if level >= 1:
        hd = homotopy_H(n_partial(ch))
        acc = hd if acc is None else acc + hd
    results = {"homotopy": chains_equal(acc, ch)}
    if level + 1 <= n:
        results["h2"] = chain_is_zero(homotopy_H(homotopy_H(ch)))
    if level >= 2:
        results["d2"] = chain_is_zero(n_partial(n_partial(ch)))
    return results


def _trace(rng, n, terms=2) -> dict:
    x = rand_operator(rng, n, terms=terms, finite=True)
    y = rand_operator(rng, n, finite=True)
    z = rand_strict_shift_operator(rng, n)
    return {"t1": trace_matches_dense(x), "t5": trace_is_cyclic(x, y),
            "t3": trace_kills_nilpotent(z)}


def _ideals(rng, n) -> dict:
    """The projector splitting, and the ideals are two-sided."""
    a = rand_operator(rng, n)
    x = rand_operator(rng, n)
    results = {}
    for axis in range(1, n + 1):
        results[f"split-ax{axis}"] = splits_into_ideals(x, axis)
        for sign in ("+", "-"):
            member = projector(n, axis, sign) @ x
            results[f"ideal-{sign}{axis}"] = (ideal_member(a @ member, axis, sign)
                                              and ideal_member(member @ a, axis, sign))
    return results


def _zigzag(rng, n) -> bool:
    cycle = rand_cycle(rng, n)
    return phi_hh_zigzag(cycle) == phi_hh_closed(cycle)


def _phic(rng, n) -> bool:
    chain = rand_hochschild_chain(rng, n, n)
    return phi_c(chain) == (-1) ** (n * (n - 1) // 2) * phi_hh_closed(chain)


def _commutator(rng, n) -> bool:
    lc = rand_lie_chain(rng, n, n)
    return commutator_formula(lc) == phi_hh_closed(epsilon(lc))


def _commuting(rng, n):
    """On multiplication operators the commutator formula is tau([P^+ f0, f1])."""
    f0, f1 = mul_op(rand_laurent(rng, n)), mul_op(rand_laurent(rng, n))
    if f0.is_zero() or f1.is_zero():
        return None
    lc = LieChain.from_parts(f0, (f1,))
    return commutator_formula(lc) == tate_trace((projector(n, 1, "+") @ f0).commutator(f1))


def _cyclic(rng, n) -> bool:
    """phi vanishes on cycles (1 - t)z.  In degree 1, (1 - t)z is a cycle for
    every cycle z; in higher degree it is not, so z is built from a cycle w
    through the norm and an extra identity slot, putting (1 - t)z in the
    image of (1 - t)."""
    z = w = epsilon(rand_commuting_lie_chain(rng, n, max(n - 1, 1)))
    if n > 1:
        norm, cur = w, w
        for _ in range(w.degree):
            cur = cyclic_t(cur)
            norm = norm + cur
        one = mul_op(LaurentPoly.constant(n, 1, w.field))
        z = HochschildChain(n, w.field, w.degree + 1,
                            [((one,) + tensor, c) for tensor, c in norm.terms.items()])
    y = z - cyclic_t(z)
    return (chain_is_zero(hochschild_b(w)) and chain_is_zero(hochschild_b(y))
            and phi_hh_closed(y) == 0)


def _shift(rng, n, thresholds=None) -> bool:
    """phi is unchanged by moving the good idempotents to each threshold
    vector in `thresholds` (one drawn vector by default)."""
    cycle = rand_cycle(rng, n)
    if thresholds is None:
        thresholds = [tuple(rng.randint(-3, 3) for _ in range(n))]
    base = phi_hh_closed(cycle)
    return all(phi_hh_closed(cycle, idempotents=GoodIdempotents(n, QQ, thresholds=m))
               == base for m in thresholds)


def _coord(rng, n):
    f = rand_laurent(rng, n, terms=3, exp_bound=4)
    if f.is_zero():
        return None
    order = max(f.max_exponent() - f.min_exponent() + 2, 1 - f.min_exponent(), 2)
    return coordinate_invariance_check_1d(f, order)


def _res_anchor(rng, n) -> dict:
    """res t^i dt = delta(i, -1) for |i| <= 5; nothing is drawn."""
    t = LaurentPoly.variable(1, 1)
    return {f"res-t^{i}": residue_form(DifferentialForm(LaurentPoly.monomial(1, (i,)), [t]))
            == (1 if i == -1 else 0) for i in range(-5, 6)}


def _oracle(rng, n) -> bool:
    f = rand_laurent(rng, n, terms=3)
    form = DifferentialForm(f, [LaurentPoly.variable(n, axis) for axis in range(1, n + 1)])
    return residue_form(form) == residue_coeff_oracle(f)


def _det(rng, n) -> bool:
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 1)]
    return monomial_det_law(rows, rand_fraction(rng, nonzero=True))


def _global(rng, n, quadratic=False) -> bool:
    """The residues of a rational function over all places, infinity
    last, sum to zero."""
    total, report = global_residue_sum(rand_rational_function(rng, quadratic=quadratic))
    return total == 0 and report[-1][0].is_infinite


PROPERTIES = {
    "b2": _b2,
    "ce2": _ce2,
    "chainmap": _chainmap,
    "tower": _tower,
    "trace": _trace,
    "ideals": _ideals,
    "zigzag": _zigzag,
    "phic": _phic,
    "commutator": _commutator,
    "commuting": _commuting,
    "cyclic": _cyclic,
    "shift": _shift,
    "coord": _coord,
    "res-t^i": _res_anchor,
    "oracle": _oracle,
    "det": _det,
    "global": _global,
}


# -- suites -------------------------------------------------------------------


def _cases(rng: random.Random, n: int, count: int, *names: str) -> list:
    """`count` rounds of calls to the properties `names`.  In round k, a result
    `name` becomes case `name-n{n}-{k}` and a dict key `head-tail` case
    `head-n{n}-{k}-tail`."""
    checks = []
    for k in range(count):
        for name in names:
            result = PROPERTIES[name](rng, n)
            for key, ok in (result.items() if isinstance(result, dict) else [(name, result)]):
                head, sep, tail = key.partition("-")
                checks.append((f"{head}-n{n}-{k}{sep}{tail}", ok))
    return checks


def suite_axioms(seed: int = 20250810) -> list:
    """Homological identities and the trace axioms on random data."""
    rng = random.Random(seed)
    checks = []
    for n in (1, 2):
        checks += (_cases(rng, n, 10, "b2") + _cases(rng, n, 10, "ce2")
                   + _cases(rng, n, 10, "chainmap"))
    for n in (1, 2):
        checks += _cases(rng, n, 10, "tower")
    for n in (1, 2):
        checks += _cases(rng, n, 15, "trace") + _cases(rng, n, 10, "ideals")
    return checks


def suite_compare(seed: int = 777) -> list:
    """Cross-path agreement of the residue functionals and the invariances."""
    rng = random.Random(seed)
    checks = []
    for n in (1, 2):
        checks += (_cases(rng, n, 25, "zigzag", "phic") + _cases(rng, n, 25, "commutator")
                   + _cases(rng, n, 10, "cyclic"))
    for m in range(-3, 4):
        idem = GoodIdempotents(1, QQ, thresholds=(m,))
        anchor = hkr_antisymmetrize(DifferentialForm(
            LaurentPoly.monomial(1, (-1,)), [LaurentPoly.variable(1, 1)]))
        checks.append((f"shift-anchor-{m}", phi_hh_closed(anchor, idempotents=idem) == 1))
    rng2 = random.Random(seed + 1)
    checks += _cases(rng2, 2, 10, "shift")
    for k in range(10):
        ok = PROPERTIES["coord"](rng2, 1)
        if ok is not None:
            checks.append((f"coord-{k}", ok))
    return checks


def suite_global(seed: int = 424242) -> list:
    """Residue oracles plus the sum-zero identity on the projective line."""
    rng = random.Random(seed)
    checks = list(PROPERTIES["res-t^i"](rng, 1).items())
    for k in range(10):
        n = rng.choice([1, 2])
        checks.append((f"oracle-{k}", PROPERTIES["oracle"](rng, n)))
    for k in range(20):
        checks.append((f"global-{k}", PROPERTIES["global"](rng, 1, quadratic=k < 8)))
    return checks


def suite_nodal() -> list:
    return [(f"nodal-{order}", nodal_factorization_check(order)) for order in (4, 6, 8, 10, 12)]


SUITES = {
    "axioms": suite_axioms,
    "compare": suite_compare,
    "global": suite_global,
    "nodal": suite_nodal,
}


def run_suite(name: str) -> dict:
    """Run one suite, or all of them with each case named `suite:case`."""
    if name == "all":
        checks = [(f"{suite}:{case}", ok) for suite, fn in SUITES.items() for case, ok in fn()]
    elif name in SUITES:
        checks = SUITES[name]()
    else:
        raise ValueError(f"unknown suite {name!r}")
    return {"suite": name, "cases": len(checks),
            "failures": [case for case, ok in checks if not ok]}
