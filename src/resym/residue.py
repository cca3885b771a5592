"""User-facing residue symbols and their cross-checks.

`residue_form` evaluates the n-dimensional local residue of a differential
form through the homology machinery; `residue_coeff_oracle` and
`residue_monomial_det` are the two independent laws it must reproduce.
The module also expands rational functions at places of the projective
line over Q (including places with extension residue fields), checks the
classical sum-zero identity, and verifies the truncated-series
factorization that splits the nodal cubic under adic completion.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError, ValuationError
from .homology import hkr_antisymmetrize, phi_hh_closed
from .laurent import (EXACT_ORDER, DifferentialForm, LaurentPoly,
                      TruncatedSeries, binomial_series, substitute_1d)
from .operators import GoodIdempotents
from .polynomials import PolyQ, factor_monic, is_irreducible, shifted_coefficients
from .scalars import QQ, ExtensionField, field_trace


class RationalFunction:
    """Quotient of univariate polynomials over Q, reduced by one gcd when
    built, monic denominator; the parser's arithmetic makes one at the end."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, den: PolyQ = None):
        den = PolyQ.one() if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num, den = num // g, den // g
        lead = den.leading
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def render(self) -> str:
        if self.den == PolyQ.one():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()})"


class Place:
    """A closed point of the projective line: a monic irreducible of degree
    <= 4, or the point at infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly: PolyQ = None):
        if poly is not None:
            if not poly.is_monic() or not 1 <= poly.degree <= 4:
                raise ValueError("finite places need a monic polynomial of degree 1..4")
            if not is_irreducible(poly):
                raise ValueError(f"{poly.render()} is reducible")
        self.poly = poly

    @classmethod
    def finite(cls, poly: PolyQ) -> "Place":
        return cls(poly)

    @classmethod
    def _of_factor(cls, poly: PolyQ) -> "Place":
        """The place of a factor `factor_monic` returned, which is monic,
        irreducible and of degree <= 4 already; proves nothing again."""
        place = object.__new__(cls)
        place.poly = poly
        return place

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def render(self) -> str:
        return "inf" if self.poly is None else self.poly.render()

    def __eq__(self, other) -> bool:
        return isinstance(other, Place) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self) -> str:
        return f"Place({self.render()})"


# -- the residue of a differential form -------------------------------------


def residue_form(form: DifferentialForm, idempotents: GoodIdempotents = None) -> Fraction:
    """Residue of f_0 df_1 ^..^ df_n, folded down to Q.

    Computed as the field trace of the closed residue functional applied to
    the antisymmetrization of the form.  On monomial entries with vanishing
    column sums this is Tr(beta) times the exponent determinant, else 0.
    """
    value = phi_hh_closed(hkr_antisymmetrize(form), idempotents)
    return field_trace(value)


def residue_coeff_oracle(f: LaurentPoly) -> Fraction:
    """Independent oracle for forms f dt_1^..^dt_n: the trace of the
    coefficient at exponent (-1,..,-1)."""
    return field_trace(f.coefficient((-1,) * f.dim))


def _det(rows) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def residue_monomial_det(exponents, beta=Fraction(1)) -> Fraction:
    """Monomial residue law: Tr(beta) * det of the lower n x n exponent block
    when every column of the (n+1) x n matrix sums to zero, else 0."""
    rows = [list(map(int, row)) for row in exponents]
    n = len(rows) - 1
    if any(len(r) != n for r in rows):
        raise ValueError("expected an (n+1) x n exponent matrix")
    for i in range(n):
        if sum(r[i] for r in rows) != 0:
            return Fraction(0)
    return field_trace(beta) * _det([rows[p] for p in range(1, n + 1)])


# -- expansions at places of the projective line ----------------------------


def expand_at_place(r: RationalFunction, place: Place, order: int):
    """Laurent expansion of r in the local parameter at a place.

    Returns (field, series): at a finite place of degree one the parameter
    is u = t - alpha over Q; at higher degree it is u = t - xbar over the
    residue field Q[x]/(p); at infinity it is u = 1/t.  Coefficients are
    exact; `order` is the certification bound of the result.
    """
    if order < 0:
        raise PrecisionError("order must be >= 0 to expose the principal part")
    # A place fixes the field, the coefficients of numerator and denominator
    # in its parameter u, and the power of u those coefficient lists carry.
    if place.is_infinite:
        field = QQ
        num = r.num.reversed_coeffs().coeffs
        den = r.den.reversed_coeffs().coeffs
        shift = r.den.degree - r.num.degree
    else:
        if place.poly.degree == 1:
            field, alpha = QQ, -place.poly.coefficient(0)
        else:
            field = ExtensionField(place.poly)
            alpha = field.generator
        num = shifted_coefficients(r.num, alpha, field.one)
        den = shifted_coefficients(r.den, alpha, field.one)
        shift = 0
    m = next((k for k, c in enumerate(den) if c), None)
    if m is None:
        raise ZeroDivisionError("denominator vanished identically after shifting")
    working = max(order - shift + m, 0) + 1
    unit = TruncatedSeries(1, working, field,
                           {(k - m,): c for k, c in enumerate(den) if k >= m})
    num_series = TruncatedSeries(1, working, field, {(k,): c for k, c in enumerate(num)})
    series = (num_series * unit.unit_inverse()).shift_exponents((shift - m,))
    if series.order < order:
        raise PrecisionError("local expansion fell short of the requested order")
    return field, series.truncate(order)


def residue_at_place(r: RationalFunction, place: Place) -> Fraction:
    """Residue of r dt at one place, folded to Q by the field trace.

    At infinity the parameter change dt = -u^{-2} du turns the residue into
    minus the u^1 coefficient of the expansion of r(1/u).
    """
    if place.is_infinite:
        _, series = expand_at_place(r, place, 2)
        return -field_trace(series.coefficient((1,)))
    _, series = expand_at_place(r, place, 1)
    return field_trace(series.coefficient((-1,)))


def global_residue_sum(r: RationalFunction):
    """Sum of residues of r dt over the denominator's places plus infinity.

    Returns (total, report) where report lists (place, residue); the total
    must vanish -- the classical statement that a rational one-form on the
    projective line has no net residue.
    """
    report = []
    total = Fraction(0)
    if r.den.degree > 0:
        for factor, _ in factor_monic(r.den):
            place = Place._of_factor(factor)
            res = residue_at_place(r, place)
            report.append((place, res))
            total += res
    inf = Place.infinity()
    res_inf = residue_at_place(r, inf)
    report.append((inf, res_inf))
    total += res_inf
    return total, report


# -- worked verifications ----------------------------------------------------


def nodal_factorization_check(order: int, target: TruncatedSeries = None) -> bool:
    """Verify (w + t)(w - t) = s^3 + s^2 - t^2 for w = s*(1+s)^(1/2).

    The square root is the exact binomial series, so the identity must hold
    on every retained coefficient up to the requested total degree.  This
    is the series identity that makes the nodal cubic split into two
    components after adic completion.
    """
    if order < 4:
        raise ValueError("order must be >= 4 to see the cubic terms")
    w = binomial_series(Fraction(1, 2), order).embed(2, 1).shift_exponents((1, 0))
    t = TruncatedSeries.monomial(2, (0, 1), 1, EXACT_ORDER)
    product = (w + t) * (w - t)
    if target is None:
        target = TruncatedSeries(2, EXACT_ORDER, QQ,
                                 {(3, 0): 1, (2, 0): 1, (0, 2): -1})
    return product.truncate(order) == target.truncate(order)


def coordinate_invariance_check_1d(f: LaurentPoly, order: int) -> bool:
    """Check res f(t) dt = res f(u) u'(t) dt for the coordinate u = t + t^2.

    The right side goes through exact truncated substitution; `order` is
    the certification order of u, and the t^-1 coefficient of f(u) u' is
    only certified when order >= 1 - min_exponent(f) (a PrecisionError
    propagates otherwise, it is never silently wrong).
    """
    if f.dim != 1:
        raise ValuationError("one-variable check")
    if f.is_zero():
        return True
    u_poly = LaurentPoly(1, f.field, {(1,): 1, (2,): 1})
    u = TruncatedSeries.from_laurent(u_poly, order)
    substituted = substitute_1d(f, u, 0)
    rhs_series = substituted * u.derivative()
    lhs = field_trace(f.coefficient((-1,)))
    rhs = field_trace(rhs_series.coefficient((-1,)))
    return lhs == rhs
