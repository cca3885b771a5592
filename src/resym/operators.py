"""The concrete cubically decomposed operator algebra.

An operator here is a finite sum of *windowed shift terms*: "multiply by a
scalar, shift every exponent by a fixed vector, but only on monomials whose
exponent lies in a per-axis half-open window".  Multiplication operators,
the coordinate projectors P_i^+ onto nonnegative exponents, and everything
the residue formulas generate stay inside this normal form, which makes the
compactness/discreteness ideal predicates and the finite-potent trace
decidable and exact.

Construction canonicalizes every operator: terms with one shift are refined
onto the grid of their genuine discontinuities and merged, so structural
equality coincides with equality of the underlying maps and operators can
key dictionaries.  Terms from outside are validated once, by
`WindowedOperator(...)`; `compose`, `+`, `-` and `scale` group the terms of
canonical operands and pass them unchecked to the same `_canonicalize`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import chain, product
from operator import add

from .errors import (DimensionMismatch, FieldMismatch, NotProvablyFinitePotent)
from .laurent import LaurentPoly
from .scalars import QQ, render_scalar, scalar_key

PLUS = "+"
MINUS = "-"

# An axis window is a pair (lo, hi) for the half-open interval [lo, hi);
# None encodes the infinite end on either side.
FULL_AXIS = (None, None)


def _window_contains(win, point) -> bool:
    return all((lo is None or x >= lo) and (hi is None or x < hi)
               for (lo, hi), x in zip(win, point))


def _window_key(win):
    """Sort key for windows: an infinite end sorts below every finite one."""
    return tuple(((0, 0) if lo is None else (1, lo), (0, hi) if hi is not None else (1, 0))
                 for lo, hi in win)


def _breakpoint_grid(dim: int, windows):
    """The common breakpoint grid of a collection of windows.

    Returns the intervals each axis splits into at the finite window ends
    (one full axis when there are none), and a map from each window to the
    per-axis ranges of interval indices it covers.
    """
    axes_breaks = [sorted({b for win in windows for b in win[axis] if b is not None})
                   for axis in range(dim)]
    axes_intervals = [list(zip([None] + breaks, breaks + [None])) for breaks in axes_breaks]
    # interval k spans [breaks[k-1], breaks[k]), so an end b opens interval
    # bisect_left(breaks, b) + 1
    spans = {win: tuple(range(0 if lo is None else bisect_left(breaks, lo) + 1,
                              len(breaks) + 1 if hi is None else bisect_left(breaks, hi) + 1)
                        for (lo, hi), breaks in zip(win, axes_breaks))
             for win in windows}
    return axes_intervals, spans


def _grid_normal_form(dim: int, items):
    """Canonical cell decomposition of a sum of windowed terms with one shift.

    Refines all windows onto the common per-axis breakpoint grid, merges
    coefficients, drops zeros, then removes every breakpoint across which
    the resulting function does not actually change.  The surviving grid is
    the set of genuine discontinuities, hence independent of presentation.
    """
    axes_intervals, spans = _breakpoint_grid(dim, [win for _, win in items])
    sums = {}
    for coeff, win in items:
        for idx in product(*spans[win]):
            prev = sums.get(idx)
            sums[idx] = coeff if prev is None else prev + coeff
    cells = {tuple(ivs[k] for ivs, k in zip(axes_intervals, idx)): value
             for idx, value in sums.items() if value}

    # One sweep per axis suffices: a merge on one axis leaves the slab
    # comparisons of the others unchanged, and after intervals k and k+1
    # merge the next comparison is of the merged interval against k+2.
    for axis in range(dim):
        ivs = axes_intervals[axis]
        k = 0
        while k + 1 < len(ivs):
            left, right = ivs[k], ivs[k + 1]
            slab_left = {c[:axis] + c[axis + 1:]: v for c, v in cells.items()
                         if c[axis] == left}
            slab_right = {c[:axis] + c[axis + 1:]: v for c, v in cells.items()
                          if c[axis] == right}
            if slab_left == slab_right:
                merged = (left[0], right[1])
                new_cells = {}
                for c, v in cells.items():
                    if c[axis] == right:
                        continue
                    if c[axis] == left:
                        c = c[:axis] + (merged,) + c[axis + 1:]
                    new_cells[c] = v
                cells = new_cells
                ivs[k:k + 2] = [merged]
            else:
                k += 1
    return cells


def grid_coordinates(ops):
    """Coordinates of operators on their common (shift, grid cell) basis.

    Per shift, the breakpoint grid of every canonical window refines each
    operator's cells, so each operator is constant on each grid cell.  One
    sparse vector {cell index: coefficient} per operator results; a linear
    relation holds among the operators exactly when it holds among these.
    """
    by_shift: dict = {}
    for i, op in enumerate(ops):
        for coeff, shift, win in op.terms:
            by_shift.setdefault(shift, []).append((i, coeff, win))
    vectors = [{} for _ in ops]
    index: dict = {}
    for shift, entries in by_shift.items():
        _, spans = _breakpoint_grid(len(shift), [win for _, _, win in entries])
        for i, coeff, win in entries:
            # the canonical cells of one operator are disjoint
            for idx in product(*spans[win]):
                vectors[i][index.setdefault((shift, idx), len(index))] = coeff
    return vectors


def _integral(value) -> int:
    """`value` as an int: True and Fraction(14, 2) convert, while 2.5,
    Fraction(5, 2) and "3" are refused instead of truncated."""
    i = int(value)
    if i != value:
        raise ValueError(f"not an integer: {value!r}")
    return i


def _by_shift(terms) -> dict:
    """(coeff, shift, window) terms as {shift: [(coeff, window)]}, zeros dropped."""
    by_shift: dict = {}
    for coeff, shift, window in terms:
        if coeff:
            by_shift.setdefault(shift, []).append((coeff, window))
    return by_shift


class WindowedOperator:
    """Finite sum of windowed shift terms, kept in canonical form."""

    # terms is set only in _canonicalize, so the hash is computed once, when first asked
    __slots__ = ("dim", "field", "terms", "_hash")

    def __init__(self, dim: int, field=QQ, terms=()):
        checked = []
        for coeff, shift, window in terms:
            coeff = field.coerce(coeff)
            shift = tuple(_integral(s) for s in shift)
            window = tuple((None if lo is None else _integral(lo),
                            None if hi is None else _integral(hi)) for lo, hi in window)
            if len(shift) != dim or len(window) != dim:
                raise DimensionMismatch("term arity does not match the dimension")
            if all(lo is None or hi is None or lo < hi for lo, hi in window):
                checked.append((coeff, shift, window))
        self._canonicalize(dim, field, _by_shift(checked))

    def _canonicalize(self, dim: int, field, by_shift: dict) -> "WindowedOperator":
        """Make this operator the canonical form of `by_shift`; checks nothing.
        `by_shift` maps shifts of `dim` ints to lists of (coeff, window): each coeff
        a nonzero element of `field`, each window nonempty, of `dim` int-or-None pairs."""
        self.dim = dim
        self.field = field
        canon = []
        for shift in sorted(by_shift):
            items = by_shift[shift]
            if len(items) == 1:     # one nonempty box is its own canonical form
                canon.append((items[0][0], shift, items[0][1]))
            else:
                cells = _grid_normal_form(dim, items)
                canon.extend((cells[c], shift, c) for c in sorted(cells, key=_window_key))
        self.terms = tuple(canon)
        self._hash = None
        return self

    def _from_groups(self, by_shift: dict) -> "WindowedOperator":
        """A new operator of this one's dim and field; see `_canonicalize`."""
        return object.__new__(WindowedOperator)._canonicalize(self.dim, self.field, by_shift)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, field=QQ) -> "WindowedOperator":
        return cls(dim, field)

    @classmethod
    def identity(cls, dim: int, field=QQ) -> "WindowedOperator":
        return cls(dim, field, [(1, (0,) * dim, (FULL_AXIS,) * dim)])

    @classmethod
    def single(cls, dim: int, coeff, shift, window, field=QQ) -> "WindowedOperator":
        return cls(dim, field, [(coeff, shift, window)])

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WindowedOperator) and self.dim == other.dim
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.dim, self.terms))
        return h

    def sort_key(self):
        return tuple((shift, _window_key(win), scalar_key(coeff))
                     for coeff, shift, win in self.terms)

    def _check(self, other: "WindowedOperator"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension {self.dim} vs {other.dim}")
        if self.field != other.field:
            raise FieldMismatch("operators over different fields")

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "WindowedOperator") -> "WindowedOperator":
        self._check(other)
        return self._from_groups(_by_shift(self.terms + other.terms))

    def __sub__(self, other: "WindowedOperator") -> "WindowedOperator":
        self._check(other)
        return self._from_groups(_by_shift(
            chain(self.terms, ((-c, s, w) for c, s, w in other.terms))))

    def __neg__(self) -> "WindowedOperator":
        return self._from_groups(_by_shift((-c, s, w) for c, s, w in self.terms))

    def scale(self, scalar) -> "WindowedOperator":
        scalar = self.field.coerce(scalar)
        return self._from_groups(_by_shift((scalar * c, s, w) for c, s, w in self.terms))

    def compose(self, other: "WindowedOperator") -> "WindowedOperator":
        """self after other: (self @ other)(v) = self(other(v))."""
        self._check(other)
        by_shift: dict = {}
        for cx, sx, wx in self.terms:
            for cy, sy, wy in other.terms:
                # pull wx back along sy and meet it with wy, one axis at a
                # time; the first empty axis empties the product term
                window = []
                for (lo, hi), (xlo, xhi), d in zip(wy, wx, sy):
                    if xlo is not None and (lo is None or xlo - d > lo):
                        lo = xlo - d
                    if xhi is not None and (hi is None or xhi - d < hi):
                        hi = xhi - d
                    if lo is not None and hi is not None and lo >= hi:
                        break
                    window.append((lo, hi))
                else:
                    coeff = cx * cy
                    if coeff:   # grouped as by _by_shift; a reducible Q[x]/(p) has zero divisors
                        by_shift.setdefault(tuple(map(add, sx, sy)), []).append(
                            (coeff, tuple(window)))
        return self._from_groups(by_shift)

    __matmul__ = compose

    def __mul__(self, other):
        if isinstance(other, WindowedOperator):
            return self.compose(other)
        return self.scale(other)

    __rmul__ = scale

    def commutator(self, other: "WindowedOperator") -> "WindowedOperator":
        return self.compose(other) - other.compose(self)

    # -- action ------------------------------------------------------------

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """Coefficient-wise action on a Laurent polynomial."""
        if f.dim != self.dim:
            raise DimensionMismatch("operand dimension mismatch")
        if f.field != self.field:
            raise FieldMismatch("operand over a different field")
        out: dict = {}
        for exps, c in f.coeffs.items():
            for coeff, shift, window in self.terms:
                if _window_contains(window, exps):
                    target = tuple(a + b for a, b in zip(exps, shift))
                    prev = out.get(target)
                    val = coeff * c
                    out[target] = val if prev is None else prev + val
        return LaurentPoly(self.dim, self.field, out)

    def evaluate(self, shift, point):
        """Coefficient with which t^point maps onto t^(point+shift)."""
        total = self.field.zero
        for coeff, s, window in self.terms:
            if s == shift and _window_contains(window, point):
                total = total + coeff
        return total

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for coeff, shift, window in self.terms:
            wtxt = ",".join(
                f"[{'-inf' if lo is None else lo},{'inf' if hi is None else hi})"
                for lo, hi in window)
            chunks.append(f"({render_scalar(coeff)}) t^{list(shift)} on {wtxt}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"WindowedOperator({self.render()})"

    def to_json_obj(self) -> list:
        return [{
            "coeff": render_scalar(coeff),
            "shift": list(shift),
            "window": [["-inf" if lo is None else lo, "inf" if hi is None else hi]
                       for lo, hi in window],
        } for coeff, shift, window in self.terms]


def _json_integer(value, infinite=()):
    """A JSON integer (not a boolean), or None for a spelling in `infinite`."""
    if value in infinite:
        return None
    if type(value) is not int:
        raise ValueError(f"operator JSON: {value!r} is not an integer")
    return value


def operator_from_json(data, dim: int = None, field=QQ) -> WindowedOperator:
    """Inverse of WindowedOperator.to_json_obj; coefficients via the parser.

    Shift entries and finite window ends must be JSON integers; "-inf",
    "inf" and null stand for the infinite ends.  Without `dim`, the length
    of the first shift gives it (1 for an operator with no terms).
    """
    from .parser import parse_scalar
    terms = []
    try:
        for entry in data:
            coeff = parse_scalar(str(entry["coeff"]), field)
            shift = tuple(_json_integer(s) for s in entry["shift"])
            window = tuple((_json_integer(lo, ("-inf", None)), _json_integer(hi, ("inf", None)))
                           for lo, hi in entry["window"])
            terms.append((coeff, shift, window))
    except TypeError as exc:
        raise ValueError(f"operator JSON must be a list of coeff/shift/window objects ({exc})") from exc
    if dim is None:
        dim = len(terms[0][1]) if terms else 1
    return WindowedOperator(dim, field, terms)


# -- generators ------------------------------------------------------------

def mul_op(f: LaurentPoly) -> WindowedOperator:
    """The multiplication operator x -> f*x."""
    terms = [(c, exps, (FULL_AXIS,) * f.dim) for exps, c in f.coeffs.items()]
    return WindowedOperator(f.dim, f.field, terms)


@lru_cache(maxsize=256)
def projector(dim: int, axis: int, sign: str, field=QQ, threshold: int = 0) -> WindowedOperator:
    """The good idempotent P_axis^sign (axis is 1-based).

    P^+ keeps monomials with exponent >= threshold on the axis, P^- its
    complement; threshold 0 gives the standard projectors.  Results are
    cached: operators are immutable values.
    """
    if not 1 <= axis <= dim:
        raise DimensionMismatch(f"axis {axis} out of range for n={dim}")
    if sign not in (PLUS, MINUS):
        raise ValueError("sign must be '+' or '-'")
    window = [FULL_AXIS] * dim
    window[axis - 1] = (threshold, None) if sign == PLUS else (None, threshold)
    return WindowedOperator.single(dim, 1, (0,) * dim, tuple(window), field)


class GoodIdempotents:
    """The commuting projector system P_1^+ .. P_n^+ (plus complements)."""

    __slots__ = ("dim", "field", "thresholds")

    def __init__(self, dim: int, field=QQ, thresholds=None):
        self.dim = dim
        self.field = field
        self.thresholds = tuple(thresholds) if thresholds is not None else (0,) * dim
        if len(self.thresholds) != dim:
            raise DimensionMismatch("one threshold per axis required")

    def P(self, axis: int, sign: str) -> WindowedOperator:
        return projector(self.dim, axis, sign, self.field, self.thresholds[axis - 1])


# -- ideal predicates and the trace -----------------------------------------

def ideal_member(x: WindowedOperator, axis: int, sign: str) -> bool:
    """Membership in I_axis^sign.

    '+' (compact along the axis): output exponents on the axis are bounded
    below, i.e. every canonical term has a finite lower window end there.
    '-' (discrete along the axis): a full shifted lattice is killed, i.e.
    every canonical term has a finite upper window end there.
    """
    i = axis - 1
    if sign == PLUS:
        return all(win[i][0] is not None for _, _, win in x.terms)
    if sign == MINUS:
        return all(win[i][1] is not None for _, _, win in x.terms)
    raise ValueError("sign must be '+' or '-'")


def is_finite_rank(x: WindowedOperator) -> bool:
    """True iff only finitely many monomials map to nonzero values."""
    return all(lo is not None and hi is not None
               for _, _, win in x.terms for lo, hi in win)


def in_trace_ideal(x: WindowedOperator) -> bool:
    return all(ideal_member(x, axis, sign)
               for axis in range(1, x.dim + 1) for sign in (PLUS, MINUS))


def _nilpotent_by_shifts(x: WindowedOperator) -> bool:
    """Shift certificate for nilpotency.

    Sound criterion: on some axis every term shifts strictly in one
    direction *and* every window is finite there.  Then k-fold products
    constrain the axis exponent to an interval of length max_hi - min_lo
    translated k-1 steps away from itself, which is empty once k exceeds
    that length, so x^k = 0.  One-sided window bounds are not enough: a
    pure up-shift below a ceiling keeps an infinite-dimensional image
    forever and is not finite-potent.
    """
    for i in range(x.dim):
        shifts = [s[i] for _, s, _ in x.terms]
        if all(s > 0 for s in shifts) or all(s < 0 for s in shifts):
            if all(w[i][0] is not None and w[i][1] is not None for _, _, w in x.terms):
                return True
    return False


def tate_trace(x: WindowedOperator):
    """The finite-potent trace on the two certified operator classes.

    Finite-rank operators get the diagonal sum of their finite matrix:
    only shift-zero terms meet the diagonal, each contributing its
    coefficient once per admissible exponent.  Operators certified
    nilpotent by the shift criterion trace to zero.  Anything else raises
    NotProvablyFinitePotent rather than guessing.
    """
    if is_finite_rank(x):
        total = x.field.zero
        for coeff, shift, window in x.terms:
            if any(s != 0 for s in shift):
                continue
            count = 1
            for lo, hi in window:
                count *= hi - lo
            total = total + coeff * count
        return total
    if _nilpotent_by_shifts(x):
        return x.field.zero
    raise NotProvablyFinitePotent(
        "operator is neither finite rank nor certified nilpotent by shifts")
