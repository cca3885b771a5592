"""Exact base-field arithmetic.

Scalars are either plain `fractions.Fraction` (the field Q) or `ExtElem`
values living in a declared simple extension Q[x]/(p).  Containers carry a
field descriptor -- the `QQ` singleton or an `ExtensionField` -- and all
arithmetic stays exact; there is no floating point anywhere.

An `ExtElem` is d integer numerators over one positive integer denominator,
in lowest terms: the reduced representative a_0 + .. + a_{d-1} x^(d-1) with
a_k = nums[k] / den.  Sums, products and reductions by p work on those
integers and end in one gcd, instead of one gcd per Fraction operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatch
from .polynomials import (PolyQ, binary_power, power_text, rational, rational_text,
                          signed_sum_text)


class RationalField:
    """Descriptor for Q.  Elements are fractions.Fraction."""

    degree = 1
    symbol = None
    # Fractions are immutable, so one shared value of each is safe.
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if type(value) is Fraction:
            return value
        if isinstance(value, ExtElem):
            raise FieldMismatch("extension element used where a rational is required")
        return rational(value)

    def render(self, value) -> str:
        return rational_text(value)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class ExtensionField:
    """A simple extension Q[x]/(modulus) with a monic modulus.

    Irreducibility of the modulus is a caller-supplied precondition; it is
    not checked here.  The modulus is scaled to integers once: `_scale` is
    the lcm of its coefficient denominators and `_low` holds the integers
    scale * m_j for its coefficients m_0..m_{d-1} below the leading one.
    `zero`, `one` and `generator` are built once per field.
    """

    __slots__ = ("modulus", "degree", "_scale", "_low", "zero", "one", "generator")
    symbol = "x"

    def __init__(self, modulus: PolyQ):
        if not isinstance(modulus, PolyQ):
            modulus = PolyQ(modulus)
        if not modulus.is_monic() or modulus.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.modulus = modulus
        self.degree = d = modulus.degree
        self._scale = scale = lcm(*(c.denominator for c in modulus.coeffs))
        self._low = tuple(c.numerator * (scale // c.denominator) for c in modulus.coeffs[:d])
        self.zero = ExtElem(self, (0,) * d, 1)
        self.one = ExtElem(self, (1,) + (0,) * (d - 1), 1)
        self.generator = self.element((0, 1))

    def _reduce(self, nums: list, den: int) -> "ExtElem":
        """The element nums / den, for integers nums of any length (constant
        term first) and a positive integer den.

        Each top term c x^top is replaced by -c x^(top-d) (m_0 + .. + m_{d-1}
        x^(d-1)); when the modulus is not integral, everything below is first
        multiplied by `_scale`, and so is den, which keeps every entry an
        integer.  One gcd then brings nums / den to lowest terms.
        """
        d = self.degree
        low, scale = self._low, self._scale
        for top in range(len(nums) - 1, d - 1, -1):
            c = nums.pop()
            if c:
                if scale != 1:
                    nums = [v * scale for v in nums]
                    den *= scale
                base = top - d
                for j, m in enumerate(low):
                    nums[base + j] -= c * m
        if len(nums) < d:
            nums.extend([0] * (d - len(nums)))
        g = gcd(den, *nums)
        if g != 1:
            return ExtElem(self, tuple(v // g for v in nums), den // g)
        return ExtElem(self, tuple(nums), den)

    def element(self, coeffs) -> "ExtElem":
        """The class of the polynomial with rational coefficients `coeffs`
        (constant term first, or a PolyQ) mod the modulus."""
        if isinstance(coeffs, PolyQ):
            coeffs = coeffs.coeffs
        coeffs = [c if type(c) is Fraction else rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        return self._reduce([c.numerator * (den // c.denominator) for c in coeffs], den)

    def coerce(self, value) -> "ExtElem":
        if isinstance(value, ExtElem):
            if value.field is not self and value.field != self:
                raise FieldMismatch("element of a different extension field")
            return value
        if type(value) is not Fraction:
            value = rational(value)
        return ExtElem(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def render(self, value) -> str:
        return signed_sum_text(((c < 0, power_text(abs(c), self.symbol, k))
                                for k, c in enumerate(self.coerce(value).coeffs) if c),
                               spaced=False)

    def __eq__(self, other) -> bool:
        # a monic modulus is fixed by its integer-scaled low coefficients
        return self is other or (isinstance(other, ExtensionField) and self._low == other._low
                                 and self._scale == other._scale)

    def __hash__(self):
        return hash(self._low)

    def __repr__(self) -> str:
        return f"Q[{self.symbol}]/({self.modulus.render(self.symbol)})"


class ExtElem:
    """Element of an ExtensionField: d integer numerators over one positive
    integer denominator, in lowest terms, so equality is structural.

    The constructor trusts its arguments; `ExtensionField.element` and
    `coerce` build elements from anything else.  `coeffs` gives the
    rational coefficients of the reduced representative, constant first.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: ExtensionField, nums: tuple, den: int):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    def _check(self, other) -> "ExtElem":
        if type(other) is ExtElem:
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("operands from different extension fields")
            return other
        return self.field.coerce(other)

    def _combine(self, other, sign: int) -> "ExtElem":
        """self + sign * other."""
        other = self._check(other)
        a, b = self.nums, other.nums
        da, db = self.den, other.den
        if da == db:
            return self.field._reduce([x + sign * y for x, y in zip(a, b)], da)
        return self.field._reduce([x * db + sign * y * da for x, y in zip(a, b)], da * db)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return ExtElem(self.field, tuple(-v for v in self.nums), self.den)

    def __mul__(self, other):
        """Integer schoolbook product of the numerators, reduced by the
        modulus; no Fraction or polynomial objects are built."""
        other = self._check(other)
        b = other.nums
        out = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return self.field._reduce(out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "ExtElem":
        """Solves self * y = 1 on the regular representation.

        Column i of the d x d matrix holds the coordinates of x^i * self; the
        matrix is singular exactly when self is zero or a zero divisor.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in extension field")
        field = self.field
        constant, *rest = self.nums
        if not any(rest):
            return field.coerce(Fraction(self.den, constant))
        d = field.degree
        cols = [self]
        for _ in range(d - 1):
            prev = cols[-1]
            cols.append(field._reduce([0, *prev.nums], prev.den))
        rows = [[Fraction(col.nums[r], col.den) for col in cols] + [Fraction(r == 0)]
                for r in range(d)]
        for c in range(d):
            pivot = next((r for r in range(c, d) if rows[r][c]), None)
            if pivot is None:
                raise ZeroDivisionError("element is a zero divisor; modulus not irreducible?")
            rows[c], rows[pivot] = rows[pivot], rows[c]
            head = rows[c][c]
            rows[c] = [v / head for v in rows[c]]
            for r in range(d):
                f = rows[r][c]
                if r != c and f:
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
        return field.element([row[d] for row in rows])

    def __truediv__(self, other):
        inverse = self._check(other).inverse()
        # one / other is the inverse itself; no product is formed
        return inverse if self is self.field.one else self * inverse

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return binary_power(self, k, self.field.one)

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtElem):
            return (self.nums == other.nums and self.den == other.den
                    and (self.field is other.field or self.field == other.field))
        if isinstance(other, (int, Fraction)):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return self.field.render(self)


def field_trace(value) -> Fraction:
    """Trace to Q of the multiplication-by-value map.

    For a rational this is the value itself; for an element of Q[x]/(p) it
    is the trace of the d x d regular-representation matrix.
    """
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    field = value.field
    d = field.degree
    total = Fraction(0)
    col = value
    for i in range(d):
        total += Fraction(col.nums[i], col.den)
        if i + 1 < d:
            col = col * field.generator
    return total


def scalar_key(value):
    """Total-order key usable for canonical sorting within one field."""
    if isinstance(value, ExtElem):
        return value.coeffs
    return (Fraction(value),)


def render_scalar(value) -> str:
    return value.field.render(value) if isinstance(value, ExtElem) else rational_text(value)
