from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from resym import (QQ, DimensionMismatch, ExtensionField, LaurentPoly,
                   NotProvablyFinitePotent, PolyQ, WindowedOperator,
                   ideal_member, in_trace_ideal, is_finite_rank, mul_op,
                   projector, tate_trace)
from resym.verify import (PROPERTIES, rand_laurent, rand_operator,
                          rand_strict_shift_operator, splits_into_ideals,
                          trace_is_cyclic, trace_kills_nilpotent,
                          trace_matches_dense)


def t(dim=1, axis=1):
    return LaurentPoly.variable(dim, axis)


def tpow(i, dim=1, axis=1):
    exps = [0] * dim
    exps[axis - 1] = i
    return LaurentPoly.monomial(dim, exps)


def test_mul_op_monomial_structure():
    op = mul_op(tpow(3))
    assert op.terms == ((Fraction(1), (3,), ((None, None),)),)
    assert mul_op(LaurentPoly.zero(1)).is_zero()


def test_mul_op_is_multiplicative_fuzz():
    rng = random.Random(2)
    for n in (1, 2):
        for _ in range(20):
            f, g = rand_laurent(rng, n), rand_laurent(rng, n)
            assert mul_op(f) @ mul_op(g) == mul_op(f * g)


def test_projector_identities():
    for n in (1, 2):
        P = projector(n, 1, "+")
        Q = projector(n, 1, "-")
        assert P + Q == WindowedOperator.identity(n)
        assert P @ P == P
        if n == 2:
            R = projector(n, 2, "+")
            assert P @ R == R @ P


def test_functions_commute():
    rng = random.Random(3)
    for _ in range(10):
        f, g = rand_laurent(rng, 2), rand_laurent(rng, 2)
        assert mul_op(f).commutator(mul_op(g)).is_zero()


def test_commutator_projector_shift_action():
    # [P^+ t^-1, t] fixes exactly the basis vector t^0
    op = (projector(1, 1, "+") @ mul_op(tpow(-1))).commutator(mul_op(t()))
    expected = WindowedOperator.single(1, 1, (0,), ((0, 1),))
    assert op == expected
    f = LaurentPoly(1, coeffs={(-2,): 5, (0,): 7, (3,): 2})
    assert op.apply(f) == LaurentPoly(1, coeffs={(0,): 7})


def test_compose_with_zero():
    x = rand_operator(random.Random(4), 2)
    zero = WindowedOperator.zero(2)
    assert (zero @ x).is_zero()
    assert (x @ zero).is_zero()


def test_ideal_membership_examples():
    assert ideal_member(projector(1, 1, "+"), 1, "+")
    assert not ideal_member(projector(1, 1, "+"), 1, "-")
    bracket = (projector(1, 1, "+") @ mul_op(tpow(-1))).commutator(mul_op(t()))
    assert ideal_member(bracket, 1, "+") and ideal_member(bracket, 1, "-")
    assert not ideal_member(mul_op(tpow(5)), 1, "+")
    assert not ideal_member(mul_op(tpow(5)), 1, "-")


def test_two_sided_ideal_fuzz():
    rng = random.Random(5)
    for n in (1, 2):
        for _ in range(15):
            assert all(PROPERTIES["ideals"](rng, n).values())


def test_splitting_into_ideals():
    rng = random.Random(6)
    for n in (1, 2):
        for _ in range(10):
            x = rand_operator(rng, n)
            for axis in range(1, n + 1):
                assert splits_into_ideals(x, axis)


def test_finite_rank_examples():
    assert is_finite_rank(WindowedOperator.zero(2))
    assert not is_finite_rank(projector(1, 1, "+"))
    # product of per-axis finite factors
    x = WindowedOperator.identity(2)
    for axis in (1, 2):
        x = (projector(2, axis, "-") @ mul_op(tpow(-2, 2, axis)) @ projector(2, axis, "+")) @ x
    assert is_finite_rank(x)


def test_trace_ideal_implies_finite_rank_fuzz():
    rng = random.Random(7)
    for n in (1, 2):
        for _ in range(30):
            x = rand_operator(rng, n, terms=3)
            if in_trace_ideal(x):
                assert is_finite_rank(x)


def test_trace_anchor_values():
    P = projector(1, 1, "+")
    assert tate_trace((P @ mul_op(tpow(-1))).commutator(mul_op(t()))) == 1
    for i in (-3, -2, 0, 1, 2):
        assert tate_trace((P @ mul_op(tpow(i))).commutator(mul_op(t()))) == 0


def test_trace_diagonal_box():
    beta = Fraction(5, 3)
    op = WindowedOperator.single(2, beta, (0, 0), ((2, 5), (2, 5)))
    assert tate_trace(op) == 9 * beta


def test_trace_matches_dense_matrix_fuzz():
    rng = random.Random(8)
    for n in (1, 2):
        for _ in range(25):
            assert trace_matches_dense(rand_operator(rng, n, terms=3, finite=True))


def test_trace_nilpotent_shift_class():
    rng = random.Random(9)
    for n in (1, 2):
        for _ in range(25):
            z = rand_strict_shift_operator(rng, n)
            assert trace_kills_nilpotent(z)
            power = z
            for _ in range(12):
                if power.is_zero():
                    break
                power = power @ z
            assert power.is_zero()


def test_trace_refuses_unbounded():
    with pytest.raises(NotProvablyFinitePotent):
        tate_trace(projector(1, 1, "+"))
    # shift of one sign but windows unbounded on one side: not certifiable
    x = WindowedOperator.single(1, 1, (1,), ((None, 0),))
    with pytest.raises(NotProvablyFinitePotent):
        tate_trace(x)


def test_trace_cyclicity_fuzz():
    rng = random.Random(10)
    for n in (1, 2):
        for _ in range(30):
            x = rand_operator(rng, n, finite=True)
            assert trace_is_cyclic(x, rand_operator(rng, n, finite=True))


def test_trace_additive_over_stable_splitting():
    # T2: for x with nonnegative shifts on axis 1, the span of exponents
    # >= m on that axis is stable; block traces must add up.
    rng = random.Random(11)
    for _ in range(20):
        raw = rand_operator(rng, 1, terms=3, finite=True)
        x = WindowedOperator(1, raw.field,
                             [(c, (abs(s[0]),), w) for c, s, w in raw.terms])
        m = rng.randint(-2, 2)
        P = projector(1, 1, "+", threshold=m)
        Q = projector(1, 1, "-", threshold=m)
        assert tate_trace(x) == tate_trace(P @ x @ P) + tate_trace(Q @ x @ Q)


def test_normalization_cancellation():
    rng = random.Random(12)
    for n in (1, 2):
        for _ in range(20):
            x = rand_operator(rng, n, terms=3)
            assert (x - x).is_zero()


def test_semantic_equality_across_presentations():
    # [0,4) in one piece equals [0,2) + [2,4)
    a = WindowedOperator.single(1, 1, (0,), ((0, 4),))
    b = WindowedOperator(1, terms=[(1, (0,), ((0, 2),)), (1, (0,), ((2, 4),))])
    assert a == b
    assert hash(a) == hash(b)


def test_json_roundtrip():
    from resym import operator_from_json
    rng = random.Random(13)
    for _ in range(10):
        x = rand_operator(rng, 2, terms=3)
        data = x.to_json_obj()
        assert operator_from_json(data, 2) == x


def _probe_box(ops, margin=2):
    """Monomial exponents covering every breakpoint of every operator,
    plus one representative beyond each infinite end."""
    axes = []
    dim = ops[0].dim
    for axis in range(dim):
        points = {0}
        for op in ops:
            for _, shift, window in op.terms:
                lo, hi = window[axis]
                for b in (lo, hi):
                    if b is not None:
                        points.update((b - margin, b, b + margin))
                points.add(shift[axis])
        axes.append(sorted(points))
    return axes


def _recut(rng, terms):
    """The same map as a term list, with every window cut in two along a
    random axis, so each shift carries several boxes."""
    out = []
    for coeff, shift, window in terms:
        axis = rng.randrange(len(window))
        cut = rng.randint(-3, 4)
        lo, hi = window[axis]
        for piece in ((lo, cut if hi is None else min(hi, cut)),
                      (cut if lo is None else max(lo, cut), hi)):
            out.append((coeff, shift, window[:axis] + (piece,) + window[axis + 1:]))
    return out


def _raw_apply(dim, terms, exps):
    """Action of an uncanonicalized term list on the monomial t^exps."""
    return LaurentPoly(dim, coeffs=[
        (tuple(e + s for e, s in zip(exps, shift)), coeff)
        for coeff, shift, window in terms
        if all((lo is None or e >= lo) and (hi is None or e < hi)
               for e, (lo, hi) in zip(exps, window))])


def test_equality_matches_action_on_probe_box():
    # independent oracle for the canonical form: an operator acts as the
    # terms it was built from, and two operators are equal exactly when they
    # act identically on a box covering all breakpoints
    from itertools import product as iproduct
    rng = random.Random(14)
    cuts = random.Random(114)
    for n in (1, 2, 3):
        for _ in range(25 if n < 3 else 10):
            x = rand_operator(rng, n, terms=3)
            y = rand_operator(rng, n, terms=3)
            # re-presentations of x with several boxes per shift: recut
            # pieces, an extra box cancelled by its own recut negation, and
            # an extra box left standing
            _, shift, _ = x.terms[0]
            extra = [(c, shift, w) for c, _, w in rand_operator(cuts, n).terms[:1]]
            cancel = [(-c, s, w) for c, s, w in _recut(cuts, extra)]
            presentations = [_recut(cuts, x.terms),
                             _recut(cuts, x.terms) + extra + cancel,
                             _recut(cuts, x.terms) + extra]
            others = [WindowedOperator(n, terms=raw) for raw in presentations]
            assert others[0] == x and others[1] == x
            axes = _probe_box([x, y] + others)
            for raw, op in zip(presentations, others):
                assert all(op.apply(LaurentPoly.monomial(n, exps)) == _raw_apply(n, raw, exps)
                           for exps in iproduct(*axes))
            for other in [y] + others:
                same_struct = (x == other)
                same_action = all(
                    x.apply(LaurentPoly.monomial(n, exps))
                    == other.apply(LaurentPoly.monomial(n, exps))
                    for exps in iproduct(*axes))
                assert same_struct == same_action


def test_compose_matches_pointwise_action():
    rng = random.Random(15)
    for n in (1, 2):
        for _ in range(20):
            x = rand_operator(rng, n)
            y = rand_operator(rng, n)
            f = rand_laurent(rng, n, terms=3)
            assert (x @ y).apply(f) == x.apply(y.apply(f))


def test_compose_associative():
    rng = random.Random(16)
    for n in (1, 2):
        for _ in range(20):
            x, y, z = (rand_operator(rng, n) for _ in range(3))
            assert (x @ y) @ z == x @ (y @ z)


# -- operator laws as properties -------------------------------------------
# Operators over Q and Q[x]/(x^2+1) in n = 1..3, drawn from raw term lists
# whose window ends may be None and whose windows may be empty; small ends
# and shifts make empty pullbacks in compose common.

GAUSS = ExtensionField(PolyQ((1, 0, 1)))
LAWS = settings(max_examples=60, deadline=None, derandomize=True)


def _scalars(field):
    small = st.integers(-3, 3)
    if field == QQ:
        return st.builds(Fraction, small, st.integers(1, 3))
    return st.builds(lambda a, b: field.element((a, b)), small, small)


def _raw_terms(dim, field, max_size=3):
    end = st.one_of(st.none(), st.integers(-3, 4))
    return st.lists(st.tuples(_scalars(field),
                              st.tuples(*[st.integers(-2, 2)] * dim),
                              st.tuples(*[st.tuples(end, end)] * dim)),
                    min_size=1, max_size=max_size)


def _space(data):
    return data.draw(st.integers(1, 3)), data.draw(st.sampled_from([QQ, GAUSS]))


def _operator(data, dim, field):
    return WindowedOperator(dim, field, data.draw(_raw_terms(dim, field)))


@LAWS
@given(st.data())
def test_compose_associative_property(data):
    dim, field = _space(data)
    x, y, z = (_operator(data, dim, field) for _ in range(3))
    assert (x @ y) @ z == x @ (y @ z)


@LAWS
@given(st.data())
def test_compose_acts_as_successive_application_property(data):
    dim, field = _space(data)
    a, b = _operator(data, dim, field), _operator(data, dim, field)
    f = LaurentPoly(dim, field, data.draw(st.dictionaries(
        st.tuples(*[st.integers(-4, 4)] * dim), _scalars(field), max_size=4)))
    assert (a @ b).apply(f) == a.apply(b.apply(f))


def test_compose_of_disjoint_windows_is_zero():
    for dim in (1, 2, 3):
        for field in (QQ, GAUSS):
            rest = ((None, None),) * (dim - 1)
            up = (1,) + (0,) * (dim - 1)
            upper = WindowedOperator.single(dim, 2, (0,) * dim, ((2, None),) + rest, field)
            lower = WindowedOperator.single(dim, 3, up, ((None, 1),) + rest, field)
            # lower lands below 2, where upper is zero; upper's image starts
            # at 2, above lower's window
            assert (upper @ lower).is_zero() and (lower @ upper).is_zero()
            # one cell more and the pullback meets the window in [1, 2)
            reach = WindowedOperator.single(dim, 3, up, ((None, 2),) + rest, field)
            assert upper @ reach == WindowedOperator.single(dim, 6, up, ((1, 2),) + rest, field)


@LAWS
@given(st.data())
def test_representations_are_equal_and_hash_alike_property(data):
    dim, field = _space(data)
    raw = data.draw(_raw_terms(dim, field))
    rng = data.draw(st.randoms(use_true_random=False))
    extra = [(c, raw[0][1], w) for c, _, w in data.draw(_raw_terms(dim, field, 1))]
    cancel = [(-c, s, w) for c, s, w in _recut(rng, extra)]
    presentations = [_recut(rng, raw), _recut(rng, raw) + extra + cancel]
    x = WindowedOperator(dim, field, raw)
    fresh = [WindowedOperator(dim, field, p) for p in presentations]
    # equal before any hash is taken, then equal hashes when first taken
    assert all(y == x for y in fresh)
    assert {hash(y) for y in fresh} == {hash(x)}
    # once cached: the same answers, and an unhashed copy still agrees
    late = WindowedOperator(dim, field, presentations[1])
    assert all(y == x for y in fresh) and late == x
    assert hash(late) == hash(x) == hash(fresh[0])
    assert {x: "x"}[late] == "x"


# -- validation at the boundary ---------------------------------------------
# WindowedOperator(...) checks outside input; compose, +, -, and scale build
# their groups from canonical operands and skip those checks.

@LAWS
@given(st.data())
def test_algebra_agrees_with_validating_constructor_property(data):
    dim, field = _space(data)
    x, y = _operator(data, dim, field), _operator(data, dim, field)
    c = data.draw(st.one_of(st.just(field.coerce(0)), _scalars(field)))
    cases = [(x + y, list(x.terms) + list(y.terms)),
             (x - y, list(x.terms) + [(-cy, s, w) for cy, s, w in y.terms]),
             (-x, [(-cx, s, w) for cx, s, w in x.terms]),
             (x.scale(c), [(c * cx, s, w) for cx, s, w in x.terms])]
    for got, raw in cases:
        want = WindowedOperator(dim, field, raw)
        assert got == want and hash(got) == hash(want)


def test_zero_divisor_products_leave_no_zero_terms():
    # Q[x]/(x^2 - 1) is not a field: (x + 1)(x - 1) = 0
    ring = ExtensionField(PolyQ((-1, 0, 1)))
    plus, minus = ring.element((1, 1)), ring.element((-1, 1))
    zero = WindowedOperator.zero(2, ring)
    a = WindowedOperator.single(2, plus, (1, 0), ((0, 5), (None, None)), ring)
    b = WindowedOperator.single(2, minus, (0, -1), ((-2, 3), (None, 4)), ring)
    for product in (a @ b, b @ a, a.scale(minus), a.scale(0)):
        assert product.is_zero() and product == zero and product.terms == ()
    # a surviving product term stays, the vanishing one leaves no zero term
    c = WindowedOperator.single(2, 3, (1, 0), ((None, 2), (None, None)), ring)
    mixed = (a + c) @ b
    assert mixed == c @ b and not mixed.is_zero()
    assert all(coeff for coeff, _, _ in mixed.terms)
    # scaling by a zero divisor can make neighbouring cells equal; they merge
    steps = WindowedOperator(1, ring, [(plus, (0,), ((0, 2),)), (2, (0,), ((2, 4),))])
    assert len(steps.terms) == 2
    assert steps.scale(plus) == WindowedOperator.single(1, ring.element((2, 2)), (0,),
                                                        ((0, 4),), ring)


def test_constructor_still_checks_outside_input():
    op = WindowedOperator(1, QQ, [("1/2", (True,), ((Fraction(2), Fraction(14, 2)),))])
    assert op.terms == ((Fraction(1, 2), (1,), ((2, 7),)),)
    (coeff, (shift,), ((lo, hi),)), = op.terms
    assert (type(coeff), type(shift), type(lo), type(hi)) == (Fraction, int, int, int)
    with pytest.raises(DimensionMismatch):
        WindowedOperator(2, QQ, [(1, (0,), ((None, None), (None, None)))])
    with pytest.raises(DimensionMismatch):
        WindowedOperator(2, QQ, [(1, (0, 0), ((None, None),))])
    # empty windows and zero coefficients are dropped, wherever they sit
    dropped = WindowedOperator(1, QQ, [(1, (0,), ((3, 3),)), (1, (2,), ((4, -1),)),
                                       (0, (1,), ((None, None),)), ("0/5", (3,), ((0, 1),)),
                                       (2, (0,), ((0, 1),))])
    assert dropped == WindowedOperator.single(1, 2, (0,), ((0, 1),))
    from resym import operator_from_json
    for bad in (None, [{"coeff": "1", "shift": 0, "window": [[0, 1]]}]):
        with pytest.raises(ValueError):
            operator_from_json(bad, 1)
    # integral values convert, anything else is refused instead of truncated
    for bad in (2.5, Fraction(5, 2), "3"):
        with pytest.raises(ValueError):
            WindowedOperator(1, QQ, [(1, (bad,), ((None, None),))])
        with pytest.raises(ValueError):
            WindowedOperator(1, QQ, [(1, (0,), ((0, bad),))])
        with pytest.raises(ValueError):
            WindowedOperator(1, QQ, [(1, (0,), ((bad, None),))])


def test_operator_json_takes_only_integers():
    from resym import operator_from_json

    def data(shift, lo, hi):
        return [{"coeff": "1", "shift": [shift], "window": [[lo, hi]]}]
    want = WindowedOperator.single(1, 1, (2,), ((None, 3),))
    assert operator_from_json(data(2, "-inf", 3), 1) == want
    assert operator_from_json(data(2, None, 3), 1) == want
    assert operator_from_json(data(0, 0, None), 1) == operator_from_json(data(0, 0, "inf"), 1)
    for bad in (2.5, 2.0, True, False, "3", [1], {"a": 1}):
        for case in (data(bad, 0, 3), data(0, bad, 3), data(0, 0, bad)):
            with pytest.raises(ValueError) as err:
                operator_from_json(case, 1)
            assert repr(bad) in str(err.value)
    # an infinite end only where it belongs, and no infinite shift
    for case in (data(0, "inf", 3), data(0, 0, "-inf"), data(None, 0, 3), data("inf", 0, 3)):
        with pytest.raises(ValueError):
            operator_from_json(case, 1)
    # without a dimension, the length of the shifts gives it
    two = [{"coeff": "2", "shift": [0, 1], "window": [[0, 2], [-1, 1]]}]
    assert operator_from_json(two).dim == 2
    assert operator_from_json([]) == WindowedOperator.zero(1)
    with pytest.raises(DimensionMismatch):
        operator_from_json(two + data(0, 0, 1))
