"""Dense univariate polynomials over Q.

These back the extension-field moduli, the rational functions on the
projective line, and the trial factorization into irreducibles of degree
at most four that the global residue checker relies on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt

from .errors import UnsupportedFactorization


class PolyQ:
    """Univariate polynomial with Fraction coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
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
        out = PolyQ.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{symbol}" + (f"^{k}" if k != 1 else "")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

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
    n = abs(n)
    if n == 0:
        return [1]
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: PolyQ):
    """All rational roots with multiplicity, by the rational root theorem."""
    if p.degree <= 0:
        return []
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
    for r in sorted(candidates):
        if p.evaluate(r) == 0:
            mult = 0
            q = p
            while True:
                quo, rem = divmod(q, PolyQ((-r, 1)))
                if not rem.is_zero():
                    break
                mult += 1
                q = quo
                if q.degree <= 0:
                    break
            if mult:
                roots.append((r, mult))
    return roots


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
    return factor_monic(p) == [(p, 1)]


def factor_monic(p: PolyQ):
    """Factor a monic polynomial into monic irreducibles of degree <= 4.

    Returns sorted (factor, multiplicity) pairs.  Raises
    UnsupportedFactorization when a residual factor of degree > 4 remains
    after all rational roots are removed.
    """
    if not p.is_monic():
        raise ValueError("factorization expects a monic polynomial")
    factors: dict[PolyQ, int] = {}
    rest = p
    for r, mult in rational_roots(p):
        lin = PolyQ((-r, 1))
        factors[lin] = factors.get(lin, 0) + mult
        for _ in range(mult):
            rest = rest // lin
    queue = [rest]
    while queue:
        q = queue.pop()
        if q.degree <= 0:
            continue
        if q.degree in (2, 3):
            factors[q] = factors.get(q, 0) + 1
        elif q.degree == 4:
            split = _quartic_quadratic_split(q)
            if split is None:
                factors[q] = factors.get(q, 0) + 1
            else:
                queue.extend(split)
        else:
            raise UnsupportedFactorization(
                f"residual factor of degree {q.degree} has no rational root")
    return sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
