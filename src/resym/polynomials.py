"""Dense univariate polynomials over Q.

These back the extension-field moduli, the rational functions on the
projective line, and the factorization into irreducibles of degree at
most four that the global residue checker relies on: a squarefree
decomposition first, then rational roots and quartic splits of each part.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt

from .errors import UnsupportedFactorization


def rational(value) -> Fraction:
    """`value` as a Fraction: ints, Fractions and strings like "3/2" convert,
    while a float is refused instead of taken at its binary value."""
    if isinstance(value, float):
        raise ValueError(f"not an exact rational: the float {value!r}")
    return Fraction(value)


def integral(value) -> int:
    """`value` as an int: True and Fraction(14, 2) convert, while every
    float (2.0 too), Fraction(5, 2) and "3" are refused instead of
    truncated."""
    if isinstance(value, float):
        raise ValueError(f"not an integer: the float {value!r}")
    i = int(value)
    if i != value:
        raise ValueError(f"not an integer: {value!r}")
    return i


def rational_text(value) -> str:
    """`value` as str(Fraction(value)) writes it, "p" or "p/q", at any size:
    an int too long for str() is written as the halves of a divmod by a
    power of ten, and the interpreter's digit limit is left as it is."""
    q = Fraction(value)
    n = q.numerator
    if q.denominator != 1:
        return f"{rational_text(n)}/{rational_text(q.denominator)}"
    if n.bit_length() <= 14_000:    # at most 4,215 digits; str() refuses past 4,300
        return str(n)
    if n < 0:
        return "-" + rational_text(-n)
    k = n.bit_length() * 3 // 20    # about half the digits, as log10(2) ~ 3/10
    high, low = divmod(n, 10 ** k)
    return rational_text(high) + rational_text(low).zfill(k)


def power_text(magnitude, symbol: str, k: int) -> str:
    """magnitude * symbol^k as text: no "1*", no "^1", the bare magnitude at
    k = 0.  The magnitude is a nonnegative rational, or text kept as it is."""
    text = magnitude if isinstance(magnitude, str) else rational_text(magnitude)
    if k == 0:
        return text
    return ("" if magnitude == 1 else f"{text}*") + symbol + ("" if k == 1 else f"^{k}")


def signed_sum_text(terms, spaced: bool = True) -> str:
    """(negative, magnitude text) pairs joined as "-a + b - c", or "-a+b-c"
    when not `spaced`; no terms give "0"."""
    signs = (" + ", " - ") if spaced else ("+", "-")
    return "".join((signs if i else ("", "-"))[negative] + body
                   for i, (negative, body) in enumerate(terms)) or "0"


def binary_power(base, k: int, one):
    """base ** k for k >= 0 by binary powering; `one` is the result at k = 0.

    k is checked once, by `integral`, so a float exponent is refused with
    a ValueError.  The base is squared only while higher bits of k remain,
    so every square formed enters the result; the first factor is taken as
    it is, not multiplied into `one`.
    """
    k = integral(k)
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return one if out is None else out
        base = base * base


class PolyQ:
    """Univariate polynomial with Fraction coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "PolyQ":
        return cls(())

    @classmethod
    def one(cls) -> "PolyQ":
        return cls((1,))

    @classmethod
    def x(cls) -> "PolyQ":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "PolyQ":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "PolyQ":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return PolyQ(tuple(c / lead for c in self.coeffs))

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(tuple(self.coefficient(k) + other.coefficient(k) for k in range(n)))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(tuple(self.coefficient(k) - other.coefficient(k) for k in range(n)))

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyQ(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return PolyQ(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PolyQ":
        if k < 0:
            raise ValueError("negative polynomial power")
        return binary_power(self, k, PolyQ.one())

    def __divmod__(self, other: "PolyQ"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            factor = rem[-1] / lead
            shift = len(rem) - 1 - d
            q[shift] = factor
            for j, b in enumerate(other.coeffs):
                rem[shift + j] -= factor * b
            rem.pop()
        return PolyQ(q), PolyQ(rem)

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def gcd(self, other: "PolyQ") -> "PolyQ":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def derivative(self) -> "PolyQ":
        return PolyQ(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def evaluate(self, value):
        """Horner evaluation; works for any scalar supporting + and *."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * value + c
        if acc is None:
            return Fraction(0)
        return acc

    def reversed_coeffs(self) -> "PolyQ":
        """x^deg * p(1/x); used for expansions at infinity."""
        return PolyQ(tuple(reversed(self.coeffs)))

    def render(self, symbol: str = "t") -> str:
        return signed_sum_text((c < 0, power_text(abs(c), symbol, k))
                               for k, c in reversed(list(enumerate(self.coeffs))) if c)

    def __repr__(self) -> str:
        return f"PolyQ({self.render()})"


def shifted_coefficients(p: PolyQ, a, one):
    """Coefficients of p(u + a) in u, over the ring of a.

    `one` must be the multiplicative identity of that ring; used to expand
    rational functions at places whose residue field is an extension of Q.
    """
    out = [one * 0]
    for c in reversed(p.coeffs):
        nxt = [one * 0] * (len(out) + 1)
        for k, b in enumerate(out):
            nxt[k + 1] = nxt[k + 1] + b
            nxt[k] = nxt[k] + b * a
        nxt[0] = nxt[0] + one * c
        out = nxt
        while len(out) > 1 and not out[-1]:
            out.pop()
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _divisors(n: int):
    """The positive divisors of |n| in increasing order; [1] for n = 0.

    |n| is factored once, by trial division up to the root of the cofactor
    that is left, and the divisors are built from its prime powers.
    """
    n = abs(n)
    divisors = [1]
    d = 2
    while d * d <= n:
        if n % d == 0:
            powers = [1]
            while n % d == 0:
                n //= d
                powers.append(powers[-1] * d)
            divisors = [a * b for a in divisors for b in powers]
        d += 1 if d == 2 else 2
    if n > 1:
        divisors += [a * n for a in divisors]
    return sorted(divisors)


def _split_rational_roots(p: PolyQ):
    """Rational roots of p with multiplicity, and p with each divided out.

    Candidates come from the rational root theorem; each root is divided
    out of the running cofactor as often as it divides it, so a root of
    multiplicity k costs at most k + 1 divisions, and later candidates are
    tested against the smaller cofactor.
    """
    if p.degree <= 0:
        return [], p
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p.coeffs]
    candidates = set()
    if ints[0] == 0:
        candidates.add(Fraction(0))
    while ints and ints[0] == 0:
        ints = ints[1:]
    if ints:
        c0, cn = ints[0], ints[-1]
        for num in _divisors(c0):
            for den in _divisors(cn):
                candidates.add(Fraction(num, den))
                candidates.add(Fraction(-num, den))
    roots = []
    rest = p
    for r in sorted(candidates):
        if rest.degree <= 0:
            break
        if rest.evaluate(r) != 0:
            continue
        lin = PolyQ((-r, 1))
        mult = 0
        while rest.degree > 0:
            quo, rem = divmod(rest, lin)
            if not rem.is_zero():
                break
            mult += 1
            rest = quo
        roots.append((r, mult))
    return roots, rest


def rational_roots(p: PolyQ):
    """All rational roots with multiplicity, by the rational root theorem."""
    return _split_rational_roots(p)[0]


def sqrt_fraction(q: Fraction):
    """Exact rational square root, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _quartic_quadratic_split(p: PolyQ):
    """Split a monic quartic into two monic rational quadratics, if possible.

    Works through the depressed form y^4 + P y^2 + Q y + R and the cubic
    z^3 + 2P z^2 + (P^2 - 4R) z - Q^2 whose rational square roots z = a^2
    parameterize factorizations (y^2 + a y + b)(y^2 - a y + d).
    """
    if p.degree != 4 or not p.is_monic():
        raise ValueError("expected a monic quartic")
    h = p.coefficient(3) / 4
    dep = PolyQ(shifted_coefficients(p, -h, Fraction(1)))
    P, Q, R = dep.coefficient(2), dep.coefficient(1), dep.coefficient(0)

    def undepress(quad: PolyQ) -> PolyQ:
        return PolyQ(shifted_coefficients(quad, h, Fraction(1)))

    candidates = []
    if Q == 0:
        disc = sqrt_fraction(P * P - 4 * R)
        if disc is not None:
            b = (P + disc) / 2
            d = (P - disc) / 2
            candidates.append((Fraction(0), b, d))
    resolvent = PolyQ((-Q * Q, P * P - 4 * R, 2 * P, 1))
    for z, _ in rational_roots(resolvent):
        if z <= 0:
            continue
        a = sqrt_fraction(z)
        if a is None or a == 0:
            continue
        b = (P + z - Q / a) / 2
        d = (P + z + Q / a) / 2
        candidates.append((a, b, d))
    for a, b, d in candidates:
        q1 = PolyQ((b, a, 1))
        q2 = PolyQ((d, -a, 1))
        if q1 * q2 == dep:
            return undepress(q1), undepress(q2)
    return None


def is_irreducible(p: PolyQ) -> bool:
    """Irreducibility test for monic polynomials of degree <= 4."""
    if not p.is_monic():
        raise ValueError("irreducibility test expects a monic polynomial")
    if p.degree > 4:
        raise UnsupportedFactorization(f"degree {p.degree} exceeds the supported bound 4")
    if p.degree <= 1:
        return p.degree == 1
    if p.degree <= 3:
        # A reducible polynomial of degree 2 or 3 has a linear factor.
        return not rational_roots(p)
    return factor_monic(p) == [(p, 1)]


def squarefree_decomposition(p: PolyQ):
    """Yun's squarefree decomposition of a monic p: (q_i, i) pairs, i
    increasing, with p = prod q_i^i and the q_i monic, squarefree and
    pairwise coprime; parts equal to 1 are left out.

    Each step takes one gcd, and divides only by a gcd of positive degree.
    """
    out = []
    dp = p.derivative()
    g = p.gcd(dp)
    b, c = (p // g, dp // g) if g.degree > 0 else (p, dp)
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = b.gcd(d)
        if g.degree > 0:
            out.append((g, i))
            b, d = b // g, d // g
        c = d
        i += 1
    return out


def factor_monic(p: PolyQ):
    """Factor a monic polynomial into monic irreducibles of degree <= 4.

    Returns sorted (factor, multiplicity) pairs.  Each squarefree part q_i
    of p = prod q_i^i has its rational roots divided out; what is left has
    no rational root, so it is irreducible at degree 2 or 3, and at degree
    4 it is irreducible or splits into two quadratics.  Every factor of q_i
    has multiplicity i.  Raises UnsupportedFactorization when a part leaves
    a residual factor of degree > 4.
    """
    if not p.is_monic():
        raise ValueError("factorization expects a monic polynomial")
    factors: dict[PolyQ, int] = {}
    for part, mult in squarefree_decomposition(p):
        roots, rest = _split_rational_roots(part)
        if rest.degree > 4:
            raise UnsupportedFactorization(
                f"residual factor of degree {rest.degree} has no rational root")
        irreducibles = [PolyQ((-r, 1)) for r, _ in roots]
        if rest.degree == 4:
            irreducibles.extend(_quartic_quadratic_split(rest) or (rest,))
        elif rest.degree > 0:
            irreducibles.append(rest)
        factors.update((f, mult) for f in irreducibles)
    return sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
