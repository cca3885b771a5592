"""Answer checks written with the benchmark's own arithmetic.

Nothing here imports resym: every expected value is recomputed from the
generated input with plain `fractions.Fraction` arithmetic, so a defect in
the library cannot make a wrong answer look right.

* `jacobian_residue` -- res(f0 df1 ^..^ dfn) is the trace of the
  coefficient of (t1..tn)^-1 in f0 * det(df_i/dt_j).
* `finite_residue_total` -- the residues of N/D dt at the finite places add
  up to the t^-1 coefficient at infinity, i.e. lead(N mod D) / lead(D) when
  deg(N mod D) = deg D - 1, else 0; the residue at infinity is its negative.
* `expansion_mismatch` -- a Laurent expansion s(u) of N/D at the place p is
  right below its certified order exactly when s(u) * D(u + xbar) agrees
  with N(u + xbar) there, computed in Q[x]/(p).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

# -- sparse Laurent polynomials ------------------------------------------------
# A polynomial is a dict {exponent tuple: Fraction}.  Coefficients in the
# declared field Q[x]/(x^2+1) are carried by one extra exponent slot holding
# the power of x; it is reduced only when the trace is taken.


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_diff(a: dict, axis: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[axis]:
            out[e[:axis] + (e[axis] - 1,) + e[axis + 1:]] = c * e[axis]
    return out


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def jacobian(args, n: int, width: int) -> dict:
    """det(d f_i / d t_j) by the Leibniz formula; exponents have `width` slots."""
    partial = [[poly_diff(f, j) for j in range(n)] for f in args]
    total: dict = {}
    for perm in permutations(range(n)):
        term = {(0,) * width: Fraction(_perm_sign(perm))}
        for i in range(n):
            term = poly_mul(term, partial[i][perm[i]])
            if not term:
                break
        total = poly_add(total, term)
    return total


# Trace to Q of x^k in Q[x]/(x^2+1): Tr(1) = 2, Tr(x) = 0, x^2 = -1.
_GAUSS_TRACE = (2, 0, -2, 0)


def jacobian_residue(f0: dict, jac: dict, n: int, ext: bool) -> Fraction:
    """Residue of f0 df_1 ^..^ df_n, given jac = jacobian(args), folded to Q
    by the field trace."""
    total = Fraction(0)
    for e0, c0 in f0.items():
        for ej, cj in jac.items():
            if all(a + b == -1 for a, b in zip(e0[:n], ej[:n])):
                if ext:
                    total += c0 * cj * _GAUSS_TRACE[(e0[n] + ej[n]) % 4]
                else:
                    total += c0 * cj
    return total


# -- dense univariate polynomials over Q, constant term first -----------------


def upoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def upoly_mod(a, m):
    """Remainder of a modulo m (m nonzero, any leading coefficient)."""
    rem = _trim([Fraction(c) for c in a])
    d = len(m) - 1
    while len(rem) - 1 >= d and rem:
        factor = rem[-1] / m[-1]
        shift = len(rem) - 1 - d
        for j, b in enumerate(m):
            rem[shift + j] -= factor * b
        rem = _trim(rem)
    return rem


def finite_residue_total(num, den) -> Fraction:
    """Sum of the residues of num/den dt over all finite places."""
    rem = upoly_mod(num, den)
    if len(rem) == len(den) - 1:
        return rem[-1] / den[-1]
    return Fraction(0)


# -- expansions at a place, in Q[x]/(p) ----------------------------------------


def _ring_reduce(a, p):
    r = upoly_mod(a, p)
    return tuple(r[k] if k < len(r) else Fraction(0) for k in range(len(p) - 1))


def shifted(poly, p):
    """Coefficients in u of poly(u + xbar) over Q[x]/(p), by Horner's rule."""
    deg = len(p) - 1
    zero = (Fraction(0),) * deg
    xbar = _ring_reduce([0, 1], p)
    out = [zero]
    for c in reversed(poly):
        nxt = [zero] * (len(out) + 1)
        for k, b in enumerate(out):
            nxt[k + 1] = tuple(x + y for x, y in zip(nxt[k + 1], b))
            nxt[k] = tuple(x + y for x, y in
                           zip(nxt[k], _ring_reduce(upoly_mul(list(b), list(xbar)), p)))
        nxt[0] = (nxt[0][0] + c,) + nxt[0][1:]
        out = nxt
    while len(out) > 1 and not any(out[-1]):
        out.pop()
    return out


def expansion_mismatch(num, den, p, order: int, coeffs: dict, cert: int):
    """None when `coeffs` ({u-exponent: tuple over Q[x]/(p)}) is the
    expansion of num/den at p certified below `order`, else a reason."""
    if cert != order:
        return f"certified order {cert}, requested {order}"
    dsh = shifted(den, p)
    nsh = shifted(num, p)
    m = next(k for k, c in enumerate(dsh) if any(c))
    if any(e < -m or e >= order for e in coeffs):
        return "exponent outside [-m, order)"
    deg = len(p) - 1
    zero = (Fraction(0),) * deg
    for e in range(order + m):
        acc = [Fraction(0)] * deg
        for j in range(m, len(dsh)):
            s = coeffs.get(e - j)
            if s is None or not any(dsh[j]):
                continue
            prod = _ring_reduce(upoly_mul(list(s), list(dsh[j])), p)
            acc = [x + y for x, y in zip(acc, prod)]
        want = nsh[e] if e < len(nsh) else zero
        if tuple(acc) != tuple(want):
            return f"product differs at u^{e}"
    return None
