"""Exact base-field arithmetic.

Scalars are either plain `fractions.Fraction` (the field Q) or `ExtElem`
values living in a declared simple extension Q[x]/(p).  Containers carry a
field descriptor -- the `QQ` singleton or an `ExtensionField` -- and all
arithmetic stays exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch
from .polynomials import PolyQ


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
        return Fraction(value)

    def render(self, value) -> str:
        return str(Fraction(value))

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
    not checked here.  Elements are stored as fully reduced coefficient
    tuples of length equal to the degree, so equality is structural.
    """

    __slots__ = ("modulus", "symbol", "degree")

    def __init__(self, modulus: PolyQ, symbol: str = "x"):
        if not isinstance(modulus, PolyQ):
            modulus = PolyQ(modulus)
        if not modulus.is_monic() or modulus.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.modulus = modulus
        self.symbol = symbol
        self.degree = modulus.degree

    def element(self, coeffs) -> "ExtElem":
        if isinstance(coeffs, PolyQ):
            poly = coeffs
        else:
            poly = PolyQ(coeffs)
        poly = poly % self.modulus
        padded = tuple(poly.coefficient(k) for k in range(self.degree))
        return ExtElem(self, padded)

    @property
    def zero(self) -> "ExtElem":
        return self.element(())

    @property
    def one(self) -> "ExtElem":
        return self.element((1,))

    @property
    def generator(self) -> "ExtElem":
        return self.element((0, 1))

    def coerce(self, value) -> "ExtElem":
        if isinstance(value, ExtElem):
            if value.field != self:
                raise FieldMismatch("element of a different extension field")
            return value
        return self.element((Fraction(value),))

    def render(self, value) -> str:
        value = self.coerce(value)
        parts = []
        for k, c in enumerate(value.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{self.symbol}" + (f"^{k}" if k != 1 else "")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts) if parts else "0"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtensionField)
                and self.modulus == other.modulus and self.symbol == other.symbol)

    def __hash__(self):
        return hash((self.modulus, self.symbol))

    def __repr__(self) -> str:
        return f"Q[{self.symbol}]/({self.modulus.render(self.symbol)})"


class ExtElem:
    """Element of an ExtensionField, reduced mod the modulus."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtensionField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _lift(self) -> PolyQ:
        return PolyQ(self.coeffs)

    def _check(self, other) -> "ExtElem":
        if isinstance(other, ExtElem):
            if other.field != self.field:
                raise FieldMismatch("operands from different extension fields")
            return other
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._check(other)
        return ExtElem(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return ExtElem(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return ExtElem(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        """Schoolbook product, then reduction by the monic modulus from the
        top degree down; no polynomial objects are built."""
        other = self._check(other)
        field = self.field
        d = field.degree
        out = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        low = field.modulus.coeffs[:d]
        for top in range(2 * d - 2, d - 1, -1):
            c = out[top]
            if c:
                base = top - d
                for j, m in enumerate(low):
                    out[base + j] -= c * m
        return ExtElem(field, tuple(out[:d]))

    __rmul__ = __mul__

    def inverse(self) -> "ExtElem":
        """Inverse via the extended Euclidean algorithm mod the modulus."""
        if not self:
            raise ZeroDivisionError("inverse of zero in extension field")
        r0, r1 = self.field.modulus, self._lift()
        s0, s1 = PolyQ.zero(), PolyQ.one()
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ZeroDivisionError("element is a zero divisor; modulus not irreducible?")
        return self.field.element(s0 * (1 / r0.coefficient(0)))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtElem):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

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
        total += col.coeffs[i]
        if i + 1 < d:
            col = col * field.generator
    return total


def scalar_key(value):
    """Total-order key usable for canonical sorting within one field."""
    if isinstance(value, ExtElem):
        return value.coeffs
    return (Fraction(value),)


def render_scalar(value) -> str:
    if isinstance(value, ExtElem):
        return value.field.render(value)
    return str(Fraction(value))
