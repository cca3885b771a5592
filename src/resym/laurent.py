"""Formal multi-Laurent objects.

`LaurentPoly` is a finite formal sum over n variables t_1..t_n with exact
scalar coefficients; any finite support is a legitimate element of the
iterated Laurent field k((t_1))...((t_n)).  `TruncatedSeries` carries, next
to its support, the order below which its coefficients are certified exact;
arithmetic propagates that certificate instead of silently truncating.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, FieldMismatch, PrecisionError, ValuationError
from .scalars import QQ, render_scalar


# Stand-in certificate for data that is exact at every order (finite
# polynomials); large enough never to be the binding constraint at desk scale.
EXACT_ORDER = 10 ** 9


def _check_compatible(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension {a.dim} vs {b.dim}")
    if a.field != b.field:
        raise FieldMismatch("operands over different coefficient fields")


class LaurentPoly:
    """Finite Laurent polynomial in n variables; no zero coefficients stored."""

    __slots__ = ("dim", "field", "coeffs")

    def __init__(self, dim: int, field=QQ, coeffs=None):
        self.dim = dim
        self.field = field
        cleaned = {}
        if coeffs:
            for exps, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                exps = tuple(int(e) for e in exps)
                if len(exps) != dim:
                    raise DimensionMismatch(f"exponent {exps} has wrong length for n={dim}")
                c = field.coerce(c)
                if not c:
                    continue
                acc = cleaned.get(exps)
                c = c if acc is None else acc + c
                if c:
                    cleaned[exps] = c
                elif exps in cleaned:
                    del cleaned[exps]
        self.coeffs = cleaned

    @classmethod
    def zero(cls, dim: int, field=QQ) -> "LaurentPoly":
        return cls(dim, field)

    @classmethod
    def constant(cls, dim: int, value, field=QQ) -> "LaurentPoly":
        return cls(dim, field, {(0,) * dim: value})

    @classmethod
    def monomial(cls, dim: int, exponents, coeff=1, field=QQ) -> "LaurentPoly":
        return cls(dim, field, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, dim: int, axis: int, field=QQ) -> "LaurentPoly":
        """The variable t_axis (1-based)."""
        exps = [0] * dim
        exps[axis - 1] = 1
        return cls.monomial(dim, exps, 1, field)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, exponents):
        return self.coeffs.get(tuple(exponents), self.field.zero)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.dim == other.dim
                and self.field == other.field and self.coeffs == other.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_compatible(self, other)
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, self.field.zero) + c
        return LaurentPoly(self.dim, self.field, merged)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.dim, self.field, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        _check_compatible(self, other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return LaurentPoly(self.dim, self.field, out)

    __rmul__ = __mul__

    def scale(self, scalar) -> "LaurentPoly":
        scalar = self.field.coerce(scalar)
        return LaurentPoly(self.dim, self.field,
                           {e: scalar * c for e, c in self.coeffs.items()})

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            # only monomials are invertible among finite Laurent polynomials
            if len(self.coeffs) != 1:
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            ((exps, c),) = self.coeffs.items()
            inv = 1 / c if isinstance(c, (int, Fraction)) else c.inverse()
            return LaurentPoly(self.dim, self.field,
                               {tuple(e * k for e in exps): inv ** (-k)})
        out = LaurentPoly.constant(self.dim, 1, self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def min_exponent(self) -> int:
        """Smallest total degree in the support (for n=1: the valuation)."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(sum(e) for e in self.coeffs)

    def max_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(sum(e) for e in self.coeffs)

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def render(self) -> str:
        from .parser import render_laurent
        return render_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


class DifferentialForm:
    """A form f_0 df_1 ^ ... ^ df_n with Laurent-polynomial entries."""

    __slots__ = ("dim", "field", "f0", "args")

    def __init__(self, f0: LaurentPoly, args):
        args = tuple(args)
        self.f0 = f0
        self.args = args
        self.dim = f0.dim
        self.field = f0.field
        for g in args:
            _check_compatible(f0, g)

    @property
    def degree(self) -> int:
        return len(self.args)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DifferentialForm)
                and self.f0 == other.f0 and self.args == other.args)

    def render(self) -> str:
        from .parser import render_form
        return render_form(self)

    def __repr__(self) -> str:
        return f"DifferentialForm({self.render()})"


class TruncatedSeries:
    """Laurent series known exactly below a total-degree bound.

    `order` is the certification bound: every coefficient of total degree
    < order is exact, everything else has been dropped.  Exponents are
    bounded below because the support is finite.  Multiplication by a series
    of negative valuation lowers the bound; `coefficient` refuses to answer
    beyond it rather than returning a silently wrong zero.
    """

    __slots__ = ("dim", "field", "order", "coeffs")

    def __init__(self, dim: int, order: int, field=QQ, coeffs=None):
        self.dim = dim
        self.field = field
        self.order = order
        cleaned = {}
        if coeffs:
            for exps, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                exps = tuple(int(e) for e in exps)
                if len(exps) != dim:
                    raise DimensionMismatch(f"exponent {exps} has wrong length for n={dim}")
                if sum(exps) >= order:
                    continue
                c = field.coerce(c)
                if not c:
                    continue
                acc = cleaned.get(exps)
                c = c if acc is None else acc + c
                if c:
                    cleaned[exps] = c
                elif exps in cleaned:
                    del cleaned[exps]
        self.coeffs = cleaned

    @classmethod
    def from_laurent(cls, poly: LaurentPoly, order: int) -> "TruncatedSeries":
        return cls(poly.dim, order, poly.field, dict(poly.coeffs))

    @classmethod
    def monomial(cls, dim: int, exponents, coeff, order: int, field=QQ) -> "TruncatedSeries":
        return cls(dim, order, field, {tuple(exponents): coeff})

    def valuation(self) -> int:
        """Smallest total degree of the support; empty series count as order."""
        if not self.coeffs:
            return self.order
        return min(sum(e) for e in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponents):
        exps = tuple(exponents)
        if sum(exps) >= self.order:
            raise PrecisionError(
                f"coefficient at {exps} is beyond the certified order {self.order}")
        return self.coeffs.get(exps, self.field.zero)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise PrecisionError(
                f"cannot extend certification from order {self.order} to {order}")
        return TruncatedSeries(self.dim, order, self.field, self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries) and self.dim == other.dim
                and self.field == other.field and self.order == other.order
                and self.coeffs == other.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        _check_compatible(self, other)
        order = min(self.order, other.order)
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, self.field.zero) + c
        return TruncatedSeries(self.dim, order, self.field, merged)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.dim, self.order, self.field,
                               {e: -c for e, c in self.coeffs.items()})

    def scale(self, scalar) -> "TruncatedSeries":
        scalar = self.field.coerce(scalar)
        return TruncatedSeries(self.dim, self.order, self.field,
                               {e: scalar * c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        _check_compatible(self, other)
        order = min(self.order + other.valuation(), other.order + self.valuation())
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) >= order:
                    continue
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return TruncatedSeries(self.dim, order, self.field, out)

    __rmul__ = __mul__

    def shift_exponents(self, delta) -> "TruncatedSeries":
        """Multiply by the monomial t^delta (exact, so the bound shifts too)."""
        delta = tuple(delta)
        return TruncatedSeries(
            self.dim, self.order + sum(delta), self.field,
            {tuple(a + b for a, b in zip(e, delta)): c for e, c in self.coeffs.items()})

    def unit_inverse(self) -> "TruncatedSeries":
        """Inverse of a one-variable series with valuation 0 and invertible
        constant term, certified to the same order.

        The coefficients follow from g * b = 1 term by term:
        b_0 = 1/g_0 and b_k = -b_0 * sum_{j>=1} g_j b_{k-j}.
        """
        if self.dim != 1:
            raise DimensionMismatch("unit_inverse is implemented for n=1 series")
        g0 = self.coeffs.get((0,))
        if self.valuation() != 0 or not g0:
            raise ValuationError("unit_inverse requires valuation exactly 0")
        tail = sorted((e, c) for (e,), c in self.coeffs.items() if e)
        if self.order > 10 ** 6 and tail:
            raise PrecisionError("refusing to invert a non-constant unit at unbounded order")
        b0 = 1 / g0 if not hasattr(g0, "inverse") else g0.inverse()
        b = [b0]
        for k in range(1, self.order if tail else 1):
            acc = self.field.zero
            for j, c in tail:
                if j > k:
                    break
                acc = acc + c * b[k - j]
            b.append(-b0 * acc)
        return TruncatedSeries(1, self.order, self.field, {(k,): c for k, c in enumerate(b)})

    def power(self, k: int) -> "TruncatedSeries":
        # Plain repeated multiplication keeps the certified order tight
        # (order grows by one valuation per factor); square-and-multiply
        # would under-claim through its exact intermediate constants.
        if k < 0:
            raise ValueError("negative power; invert explicitly first")
        if k == 0:
            return TruncatedSeries(self.dim, EXACT_ORDER, self.field, {(0,) * self.dim: 1})
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def derivative(self) -> "TruncatedSeries":
        """d/dt for one-variable series; certified order drops by one."""
        if self.dim != 1:
            raise DimensionMismatch("derivative implemented for n=1 series")
        return TruncatedSeries(
            1, self.order - 1, self.field,
            {(e[0] - 1,): e[0] * c for e, c in self.coeffs.items() if e[0] != 0})

    def embed(self, dim: int, axis: int) -> "TruncatedSeries":
        """View a one-variable series as a series in t_axis of a larger ring."""
        if self.dim != 1:
            raise DimensionMismatch("embed expects a one-variable series")
        out = {}
        for (e,), c in self.coeffs.items():
            exps = [0] * dim
            exps[axis - 1] = e
            out[tuple(exps)] = c
        return TruncatedSeries(dim, self.order, self.field, out)

    def render(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for exps, c in sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0])):
                mono = "*".join(
                    f"t{i + 1}^{e}" if self.dim > 1 else f"t^{e}"
                    for i, e in enumerate(exps) if e != 0)
                text = render_scalar(c)
                parts.append(f"({text})*{mono}" if mono else f"({text})")
            body = " + ".join(parts)
        return f"{body} + O(deg {self.order})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.render()})"


def binomial_series(alpha, order: int) -> TruncatedSeries:
    """The series (1+s)^alpha = sum_k C(alpha,k) s^k truncated at `order`.

    Coefficients follow the falling-factorial recurrence
    C(alpha,k) = C(alpha,k-1) * (alpha-k+1) / k, exactly.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    alpha = Fraction(alpha)
    coeffs = {}
    c = Fraction(1)
    for k in range(order):
        if c:
            coeffs[(k,)] = c
        c = c * (alpha - k) / (k + 1)
    return TruncatedSeries(1, order, QQ, coeffs)


def substitute_1d(f: LaurentPoly, u: TruncatedSeries, order: int) -> TruncatedSeries:
    """Evaluate f(u(t)) for a one-variable Laurent polynomial f.

    `u` must have valuation exactly 1; negative powers of u go through the
    exact inverse of its unit part.  The result is certified to
    `order`; if the inputs cannot support that, PrecisionError is raised
    instead of returning silently truncated coefficients.

    Certified bound: with m the minimal exponent of f, the substituted
    series is exact below m + u.order - 1, so exposing the coefficient at
    t^-1 (for residue work, after multiplying by u') needs
    u.order >= 1 - m.  The cruder span bound max(f) - min(f) + 2 is enough
    only when f has a term of exponent >= -1.
    """
    if f.dim != 1 or u.dim != 1:
        raise DimensionMismatch("substitute_1d works in one variable")
    if f.field != u.field:
        raise FieldMismatch("f and u over different fields")
    if u.valuation() != 1 or not u.coeffs.get((1,)):
        raise ValuationError("substitution target must have valuation exactly 1")
    if not f.coeffs:
        return TruncatedSeries(1, order, f.field)

    unit = u.shift_exponents((-1,))
    unit_inv = unit.unit_inverse()
    u_inv = unit_inv.shift_exponents((-1,))

    powers: dict[int, TruncatedSeries] = {}

    def u_power(k: int) -> TruncatedSeries:
        if k not in powers:
            powers[k] = u.power(k) if k >= 0 else u_inv.power(-k)
        return powers[k]

    total = None
    for (k,), c in f.coeffs.items():
        term = u_power(k).scale(c)
        total = term if total is None else total + term
    if total.order < order:
        raise PrecisionError(
            f"substitution certified only below {total.order}, requested {order}")
    return total.truncate(order)
